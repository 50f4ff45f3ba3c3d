"""The one type check of decoded JSON against a dataclass, shared by the
readers of dumps, samples and dialogues JSONL, ``--config`` files and
checkpoint headers. Each class's type hints are looked up once.
"""
from __future__ import annotations

import dataclasses
import json
import re
import sys
import typing
from datetime import date
from enum import Enum
from functools import cache

_LONE_SURROGATE = re.compile("[\ud800-\udfff]")


@cache
def _fields(cls) -> tuple[dict, list[str]]:
    """The type hint of each field of ``cls``, and the fields without a default."""
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    required = [f.name for f in fields if f.default is dataclasses.MISSING is f.default_factory]
    return {f.name: hints[f.name] for f in fields}, required


def _fits(value, hint) -> bool:
    """Whether a decoded JSON value fits a field type: a bool fits no number,
    and an int fits a float if a float can hold it; a tuple takes a list of
    its length and ``list[X]`` a list of what fits ``X``; a date or an Enum
    takes a string, whose text its class checks; a dataclass takes an
    object, whose reader checks it. A string with a lone surrogate fits
    nothing: it cannot be written back as UTF-8."""
    args = typing.get_args(hint)
    origin = typing.get_origin(hint)
    if origin is tuple:
        return isinstance(value, list) and len(value) == len(args) and all(map(_fits, value, args))
    if origin is list:
        return isinstance(value, list) and all(_fits(v, args[0]) for v in value)
    if args:  # a union such as ``float | None``
        return any(_fits(value, h) for h in args)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if hint is float:
        return isinstance(value, float) or _fits(value, int) and abs(value) <= sys.float_info.max
    if hint is date or issubclass(hint, Enum):
        hint = str
    if hint is str:
        return isinstance(value, str) and _LONE_SURROGATE.search(value) is None
    if dataclasses.is_dataclass(hint):
        return isinstance(value, dict)
    return isinstance(value, hint)


def json_fields(obj, cls, where: str, error: type[Exception], keys: dict[str, str] | None = None) -> dict:
    """The values of the fields of dataclass ``cls`` that the JSON object
    ``obj`` holds, by field name; ``keys`` maps a field to its JSON key where
    the two differ, and keys of no field are left out. Raises ``error``
    naming ``where`` when ``obj`` is not an object, lacks the key of a field
    without a default, or holds a value that does not fit its field; a
    message echoes at most 80 characters of the offending JSON."""
    if not isinstance(obj, dict):
        raise error(f"{where} must be a JSON object, got {json.dumps(obj)[:80]}")
    hints, required = _fields(cls)
    key = {name: (keys or {}).get(name, name) for name in hints}
    missing = [repr(key[name]) for name in required if key[name] not in obj]
    if missing:
        raise error(f"{where} is missing key(s) {', '.join(missing)}")
    found = {name: obj[key[name]] for name in hints if key[name] in obj}
    for name, value in found.items():
        if not _fits(value, hints[name]):
            want = hints[name].__name__ if isinstance(hints[name], type) else hints[name]
            raise error(f"{where} key {key[name]!r} must be {want}, got {json.dumps(value)[:80]}")
    return found
