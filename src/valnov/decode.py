"""Typed decoding of values parsed from JSON.

``decode(tp, value, where)`` checks a JSON value against the annotated
type ``tp`` and rebuilds it as that type: dataclasses (unknown keys are
rejected at every level), tuples, lists, dicts and ``X | None``; ``Any``
passes through. A mismatch raises TypeError naming the dotted path.

It never coerces a scalar: an int in a ``float`` field stays an int, and
a bool is not a number. Config echoes and replay-cache keys are
``json.dumps`` of decoded values, so turning ``0`` into ``0.0`` would
change their bytes, and a filled cache would no longer replay.
"""

from dataclasses import MISSING, fields, is_dataclass
from types import UnionType
from typing import Any, get_args, get_origin, get_type_hints


def decode(tp: Any, value: Any, where: str) -> Any:
    if tp is Any:
        return value
    origin, args = get_origin(tp), get_args(tp)
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise TypeError(f"{where} must be an object, got {value!r}")
        unknown = sorted(set(value) - {f.name for f in fields(tp)})
        if unknown:  # the first name in ``where`` is the document
            raise TypeError(f"unknown {where.split('.')[0]} key(s) {unknown} under {where}")
        for f in fields(tp):
            if f.name not in value and f.default is MISSING and f.default_factory is MISSING:
                raise TypeError(f"{where} lacks the field {f.name!r}")
        hints = get_type_hints(tp)
        return tp(**{k: decode(hints[k], v, f"{where}.{k}") for k, v in value.items()})
    if origin is UnionType:  # ``X | None``
        return None if value is None else decode(args[0], value, where)
    if origin is dict and isinstance(value, dict):
        return {k: decode(args[1], v, f"{where}.{k}") for k, v in value.items()}
    if origin is list and isinstance(value, list):
        return [decode(args[0], v, f"{where}[{i}]") for i, v in enumerate(value)]
    if origin is tuple and isinstance(value, list) and len(value) == len(args):
        return tuple(decode(t, v, f"{where}[{i}]") for i, (t, v) in enumerate(zip(args, value)))
    if origin is not None:
        raise TypeError(f"{where} must be {tp}, got {value!r}")
    kinds = (int, float) if tp is float else tp
    if isinstance(value, bool) is not (tp is bool) or not isinstance(value, kinds):
        raise TypeError(f"{where} must be {tp.__name__}, got {value!r}")
    return value
