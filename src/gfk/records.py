"""Strict, type-driven reading of the JSON files gfk writes and reads back.

A JSON value is checked against a type hint and converted to it: booleans
are not numbers, counts must be integers, numbers must be finite and
fixed-length lists must have their exact length. A value that does not fit
raises FieldError naming its field; each file kind turns that into its own
GfkError subclass.
"""

from __future__ import annotations

import collections.abc
import functools
import json
import sys
import typing
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Callable

from .errors import GfkError, ParseError


class FieldError(Exception):
    """A JSON value that does not fit its field.

    where names the field: a root string such as "train", or a pair (where,
    key) one key or list index further in. Its text is made only when the
    error is shown, so a value that fits costs no string formatting.
    """

    def __init__(self, message: str, where: str | tuple = "") -> None:
        super().__init__(message)
        self.where = where

    def __str__(self) -> str:
        keys, where = [], self.where
        while type(where) is tuple:
            where, key = where
            keys.append(f"[{key}]" if type(key) is int else f".{key}")
        path = (where + "".join(reversed(keys))).removeprefix(".")
        return f"{path}: {self.args[0]}" if path else self.args[0]


_EXPECTED = {bool: "true or false", int: "an integer", float: "a finite number",
             str: "a string", dict: "an object", list: "a list"}
_FLOAT_MAX = sys.float_info.max
_REQUIRED = object()


@functools.cache
def _generic(tp) -> tuple[object, tuple]:
    """The origin and arguments of the type hint tp."""
    return typing.get_origin(tp), typing.get_args(tp)


def convert(value, tp, where: str | tuple = ""):
    """value checked against the type hint tp and converted to it.

    tp is bool, int, float, str, dict or list (a JSON object or list, as
    is), tuple[X, Y], tuple[X, ...] or Mapping[str, X].
    """
    if tp is float:
        # exact for integers of any size, and false for NaN and the infinities
        if type(value) in (int, float) and -_FLOAT_MAX <= value <= _FLOAT_MAX:
            return float(value)
    elif type(tp) is type:
        if type(value) is tp:  # a JSON boolean is not an int here
            return value
    elif (generic := _generic(tp))[0] is tuple:
        args = generic[1]
        if type(value) is not list:
            raise FieldError(f"expected a list, got {value!r}", where)
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise FieldError(f"expected {len(args)} items, got {len(value)}", where)
        return tuple([convert(v, t, (where, i)) for i, (v, t) in enumerate(zip(value, args))])
    elif generic[0] is collections.abc.Mapping:
        if type(value) is not dict:
            raise FieldError(f"expected an object, got {value!r}", where)
        return {k: convert(v, generic[1][1], (where, k)) for k, v in value.items()}
    raise FieldError(f"expected {_EXPECTED[tp]}, got {value!r}", where)


def get(record, key: str, tp, default=_REQUIRED, where: str | tuple = ""):
    """record[key] converted to tp, where record sits at where.

    An absent or null value gives default; without one the key is required.
    """
    if type(record) is not dict:
        raise FieldError(f"expected an object, got {record!r}", where)
    value = record.get(key)
    if value is not None:
        return convert(value, tp, (where, key))
    if default is _REQUIRED:
        raise FieldError("required field missing", (where, key))
    return default


@functools.cache
def _fields(cls) -> tuple[tuple[str, object, bool], ...]:
    """(name, type hint, required) for each field of the dataclass cls."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.default is MISSING and f.default_factory is MISSING)
                 for f in fields(cls))


def build(cls, record, /, where: str | tuple = "", **given):
    """An instance of the dataclass cls read from the JSON object record.

    Each field not in given is read from record and typed by cls's type
    hints; an absent or null value keeps the dataclass default. A value the
    dataclass rejects raises FieldError at where.
    """
    if type(record) is not dict:
        raise FieldError(f"expected an object, got {record!r}", where)
    for name, tp, required in _fields(cls):
        if name not in given:
            value = record.get(name)
            if value is not None:
                given[name] = convert(value, tp, (where, name))
            elif required:
                raise FieldError("required field missing", (where, name))
    try:
        return cls(**given)
    except ValueError as e:
        raise FieldError(str(e), where) from None


def parse_json(data: bytes):
    """The JSON value in data, read as UTF-8 as gfk writes it."""
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as e:
        raise FieldError(f"not UTF-8: {e.reason} at byte {e.start}") from None
    except (ValueError, RecursionError) as e:  # nested too deep, or an integer too long
        raise FieldError(f"invalid JSON: {e}") from None


def read_jsonl(path: str | Path, parse: Callable,
               on_error: Callable[[int, GfkError], None] | None = None) -> list:
    """parse(record, where) over the non-blank lines of a JSON-lines file.

    where is "<path>:<line>"; parse raises a GfkError naming it for a record
    it rejects, and a line that is not UTF-8 JSON raises ParseError. With
    on_error, on_error(line, error) receives each such error and reading goes
    on.
    """
    path = Path(path)
    out = []
    for lineno, line in enumerate(path.read_bytes().splitlines(), 1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            out.append(parse(parse_json(line), where))
        except FieldError as e:  # the line is not UTF-8 JSON
            error = ParseError(f"{where}: {e}")
        except GfkError as e:
            error = e
        else:
            continue
        if on_error is None:
            raise error
        on_error(lineno, error)
    return out
