"""Typed decoding of values parsed from JSON.

``decode(tp, value, where)`` checks a JSON value against the annotated
type ``tp`` and rebuilds it as that type: dataclasses (unknown keys are
rejected at every level), tuples, lists, dicts and ``X | None``; ``Any``
passes through. A dataclass may omit its defaulted fields, unless
``complete`` is set: a stored ``dataclasses.asdict`` blob must spell out
every field, at every level. A mismatch raises TypeError naming the
dotted path, and so does a ``float`` that is not finite: Python's
``json`` reads ``NaN``, ``Infinity`` and ``1e400`` (as inf), and none of
them is a usable setting.

It never coerces a scalar: an int in a ``float`` field stays an int, and
a bool is not a number. Config echoes and replay-cache keys are
``json.dumps`` of decoded values, so turning ``0`` into ``0.0`` would
change their bytes, and a filled cache would no longer replay.

A dataclass that refuses its values raises ConfigurationError from its
``__post_init__``, and ``decode`` puts the dotted path in front of it.
``check_ranges`` is such a check: a field declares its range once, in
its metadata, as ``{"min": 1}``, ``{"gt": 0}`` or ``{"one_of": names}``;
a field whose default is None also takes None.
"""

import operator
import sys
from dataclasses import MISSING, fields, is_dataclass
from types import UnionType
from typing import Any, get_args, get_origin, get_type_hints

from .errors import ConfigurationError

_COMPARISONS = {"min": (operator.ge, ">="), "gt": (operator.gt, ">")}
# per class: (field name, takes None, metadata key, limit) of each bounded field
_BOUNDS: dict[type, tuple[tuple[str, bool, str, Any], ...]] = {}


def check_ranges(obj: Any) -> None:
    """Raise a ConfigurationError, starting with the field name, for the first
    field of the dataclass ``obj`` outside the range its metadata declares."""
    bounds = _BOUNDS.get(type(obj))
    if bounds is None:
        bounds = _BOUNDS[type(obj)] = tuple(
            (f.name, f.default is None, key, limit)
            for f in fields(obj) for key, limit in f.metadata.items()
        )
    for name, nullable, key, limit in bounds:
        value = getattr(obj, name)
        if value is None and nullable:
            continue
        if key == "one_of":
            if value not in limit:
                raise ConfigurationError(f"{name} {value!r} is unknown; known: {sorted(limit)}")
            continue
        compare, symbol = _COMPARISONS[key]
        if not compare(value, limit):
            null = "null or " if nullable else ""
            raise ConfigurationError(f"{name} must be {null}{symbol} {limit}")


def decode(tp: Any, value: Any, where: str, complete: bool = False) -> Any:
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
            optional = f.default is not MISSING or f.default_factory is not MISSING
            if f.name not in value and (complete or not optional):
                raise TypeError(f"{where} lacks the field {f.name!r}")
        hints = get_type_hints(tp)
        kwargs = {k: decode(hints[k], v, f"{where}.{k}", complete) for k, v in value.items()}
        try:
            return tp(**kwargs)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{where}.{exc}") from exc
    if origin is UnionType:  # ``X | None``
        return None if value is None else decode(args[0], value, where, complete)
    if origin is dict and isinstance(value, dict):
        return {k: decode(args[1], v, f"{where}.{k}", complete) for k, v in value.items()}
    if origin is list and isinstance(value, list):
        return [decode(args[0], v, f"{where}[{i}]", complete) for i, v in enumerate(value)]
    if origin is tuple and isinstance(value, list) and len(value) == len(args):
        return tuple(
            decode(t, v, f"{where}[{i}]", complete) for i, (t, v) in enumerate(zip(args, value))
        )
    if origin is not None:
        raise TypeError(f"{where} must be {tp}, got {value!r}")
    kinds = (int, float) if tp is float else tp
    if isinstance(value, bool) is not (tp is bool) or not isinstance(value, kinds):
        raise TypeError(f"{where} must be {tp.__name__}, got {value!r}")
    if tp is float and not abs(value) <= sys.float_info.max:
        raise TypeError(f"{where} must be a finite number, got {value!r}")
    return value
