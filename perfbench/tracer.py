"""In-memory spans around the functions each gfk module exposes to its caller.

The tracer replaces module attributes with timing wrappers; it never edits
the program. Several gfk modules bind imported names at import time (for
example ``gfk.io_cli.render_frame``), so the binding the caller looks up is
the one wrapped. Each span is ``[name, start_ns, end_ns, parent_index]``;
counters are accumulated at the same boundaries.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict

MODULES = ("io_cli", "ripsim", "scene", "pgm", "regressor", "loss", "codec", "eval", "geometry")

# (owner: gfk module, or module.Class; attribute the caller looks up;
#  span name, or None to count without a span; Tracer counter hook, or None)
BINDINGS = (
    ("io_cli", "render_frame", "ripsim.render_frame", "_count_pixels"),
    ("io_cli", "sample_scene", "scene.sample_scene", "_count_scene"),
    ("io_cli", "labels_to_jsonl", None, "_count_labeled"),
    ("io_cli", "read_labels", "scene.read_labels", None),
    ("eval", "read_labels", "scene.read_labels", None),
    ("pgm", "encode_pgm", "pgm.encode", "_count_encoded"),
    ("pgm", "read_pgm", "pgm.read", "_count_read"),
    ("io_cli", "atomic_write_bytes", None, "_count_written"),
    ("io_cli", "build_samples", "io_cli.build_samples", None),
    ("io_cli.DatasetLayout", "load_slices", "io_cli.load_slices", None),
    ("io_cli", "extract_features", "regressor.extract_features", None),
    ("regressor", "extract_features", "regressor.extract_features", None),
    ("io_cli", "train", "regressor.train", None),
    ("regressor", "_forward_batch", "regressor.forward", None),
    ("regressor", "_backward_batch", "regressor.backward", None),
    ("regressor", "_loss_batch", "loss.batch", None),
    ("io_cli", "predict", "regressor.predict", "_count_boxes"),
    ("io_cli", "encode", "codec.encode", None),
    ("io_cli", "decode", "codec.decode", None),
    ("regressor", "decode", "codec.decode", None),
    ("io_cli", "read_predictions", "codec.read_predictions", None),
    ("eval", "read_predictions", "codec.read_predictions", None),
    ("io_cli", "evaluate", "eval.evaluate", None),
    ("eval", "iou_2d", "eval.iou.2d", None),
    ("eval", "iou_bev", "eval.iou.bev", None),
    ("eval", "iou_3d", "eval.iou.3d", None),
    ("eval", "convex_intersection_area", "geometry.intersection", None),
    ("scene", "convex_intersection_area", "geometry.intersection", None),
)


class Tracer:
    """Records spans and counters while installed; restores the program on remove."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named name and return its result."""
        index = len(self.spans)
        record = [name, time.perf_counter_ns(), 0, self._stack[-1]]
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, fn, name: str | None, hook):
        def traced(*args, **kwargs):
            out = fn(*args, **kwargs) if name is None else self.span(name, fn, *args, **kwargs)
            if hook is not None:
                hook(args, out)
            return out
        traced.__wrapped__ = fn
        return traced

    def install(self, gfk_modules: dict) -> None:
        for owner_path, attr, name, hook_name in BINDINGS:
            module_name, _, class_name = owner_path.partition(".")
            owner = gfk_modules[module_name]
            if class_name:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr]
            hook = getattr(self, hook_name) if hook_name else None
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- counter hooks: (args, result) -> None ----------------------------

    def _count_pixels(self, args, frame) -> None:
        self.counts["ripsim.pixels"] += frame.slices.size

    def _count_scene(self, args, scene) -> None:
        self.counts["scene.objects_sampled"] += len(scene.objects)
        self.counts["scene.placement_warnings"] += int(scene.placement_warning)

    def _count_labeled(self, args, _text) -> None:
        self.counts["scene.objects_labeled"] += len(args[0])

    def _count_encoded(self, args, data) -> None:
        self.counts["pgm.encode.bytes"] += len(data)

    def _count_read(self, args, _result) -> None:
        self.counts["pgm.read.bytes"] += os.stat(args[0]).st_size

    def _count_written(self, args, _result) -> None:
        self.counts["io_cli.files_written"] += 1
        self.counts["io_cli.bytes_written"] += len(args[1])

    def _count_boxes(self, args, boxes) -> None:
        self.counts["regressor.boxes_in"] += len(args[2])
        self.counts["regressor.boxes_out"] += len(boxes)

    # -- summaries ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-module busy time, self time, call counts and ratios."""
        durations: dict[str, list[int]] = defaultdict(list)
        in_train_ns: dict[str, int] = defaultdict(int)
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            durations[name].append(end - start)
            if parent >= 0:
                child_ns[parent] += end - start
                if self.spans[parent][0] == "regressor.train":
                    in_train_ns[name] += end - start
        self_ns: dict[str, int] = defaultdict(int)
        for (name, start, end, _parent), inner in zip(self.spans, child_ns):
            self_ns[name] += end - start - inner

        def busy(name: str) -> float:
            return sum(durations.get(name, ())) / 1e9

        def calls(name: str) -> int:
            return len(durations.get(name, ()))

        def median_s(name: str) -> float:
            values = durations.get(name)
            return statistics.median(values) / 1e9 if values else 0.0

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        c = self.counts
        m: dict[str, float] = {
            "io_cli.load_slices.busy_s": busy("io_cli.load_slices"),
            "io_cli.build_samples.busy_s": busy("io_cli.build_samples"),
            "io_cli.files_written": c["io_cli.files_written"],
            "io_cli.bytes_written": c["io_cli.bytes_written"],
            "ripsim.render_frame.ms": median_s("ripsim.render_frame") * 1e3,
            "ripsim.render_frame.busy_s": busy("ripsim.render_frame"),
            "ripsim.pixels": c["ripsim.pixels"],
            "scene.sample_scene.busy_s": busy("scene.sample_scene"),
            "scene.objects_sampled": c["scene.objects_sampled"],
            "scene.objects_labeled": c["scene.objects_labeled"],
            "scene.label_yield": ratio(c["scene.objects_labeled"], c["scene.objects_sampled"]),
            "scene.placement_warnings": c["scene.placement_warnings"],
            "scene.read_labels.busy_s": busy("scene.read_labels"),
            "scene.read_labels.calls": calls("scene.read_labels"),
            "pgm.encode.busy_s": busy("pgm.encode"),
            "pgm.encode.bytes": c["pgm.encode.bytes"],
            "pgm.read.busy_s": busy("pgm.read"),
            "pgm.read.bytes": c["pgm.read.bytes"],
            "pgm.read.calls": calls("pgm.read"),
            "regressor.extract_features.us": median_s("regressor.extract_features") * 1e6,
            "regressor.extract_features.calls": calls("regressor.extract_features"),
            "regressor.train.busy_s": busy("regressor.train"),
            "regressor.train.steps": calls("regressor.backward"),
            "regressor.step_us": ratio(busy("regressor.train"), calls("regressor.backward")) * 1e6,
            # The trainer's own forward and backward passes, not predict's.
            "regressor.forward.busy_s": in_train_ns["regressor.forward"] / 1e9,
            "regressor.backward.busy_s": in_train_ns["regressor.backward"] / 1e9,
            "regressor.optimizer_self_s": self_ns["regressor.train"] / 1e9,
            "regressor.predict.busy_s": busy("regressor.predict"),
            "regressor.boxes_in": c["regressor.boxes_in"],
            "regressor.boxes_out": c["regressor.boxes_out"],
            "regressor.decode_yield": ratio(c["regressor.boxes_out"], c["regressor.boxes_in"]),
            "loss.batch.busy_s": busy("loss.batch"),
            "loss.batch.calls": calls("loss.batch"),
            "codec.encode.calls": calls("codec.encode"),
            "codec.decode.calls": calls("codec.decode"),
            "codec.decode.busy_s": busy("codec.decode"),
            "codec.read_predictions.busy_s": busy("codec.read_predictions"),
            "eval.evaluate.busy_s": busy("eval.evaluate"),
            "eval.iou.calls": sum(calls(f"eval.iou.{k}") for k in ("2d", "bev", "3d")),
            "eval.iou.calls.2d": calls("eval.iou.2d"),
            "eval.iou.calls.bev": calls("eval.iou.bev"),
            "eval.iou.calls.3d": calls("eval.iou.3d"),
            "eval.iou.busy_s": sum(busy(f"eval.iou.{k}") for k in ("2d", "bev", "3d")),
            "eval.match_self_s": self_ns["eval.evaluate"] / 1e9,
            "geometry.intersection.calls": calls("geometry.intersection"),
            "geometry.intersection.busy_s": busy("geometry.intersection"),
        }
        # Self time per module: span time not covered by a traced callee.
        module_self: dict[str, float] = defaultdict(float)
        for name, ns in self_ns.items():
            module_self[name.split(".", 1)[0]] += ns / 1e9
        for module in MODULES:
            m[f"{module}.self_s"] = module_self.get(module, 0.0)
        return m
