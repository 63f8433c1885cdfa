"""perfbench's tracer wraps gfk functions by name: each name must still exist."""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_binding_names_a_gfk_attribute():
    # exec the source instead of importing it, so nothing is written under perfbench/
    tracer: dict = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), tracer)
    missing = []
    for owner, attr, _name, _hook in tracer["BINDINGS"]:
        module_name, _, class_name = owner.partition(".")
        target = importlib.import_module(f"gfk.{module_name}")
        if class_name:
            target = getattr(target, class_name)
        if attr not in vars(target):
            missing.append(f"{owner}.{attr}")
    assert missing == []
