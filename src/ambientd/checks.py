"""Checks on values from outside the program, and their one JSON codec.

A field made by `checked`, `number`, `integer` or `one_of` carries its rule,
and its dataclass subclasses `Checked`, which checks the rules when it is
built, so an object that exists has passed them. No check converts a value,
but `decode` reads a JSON integer in a float field as a float.

`decode(cls, doc, where)` builds a dataclass from a JSON object and
`encode(obj)` gives its JSON value, both as its fields' types say; `wire`
declares what a type cannot, with five options: `key`, `flat`, `absent`,
`required` and `given`. An unknown key is refused. An error names the path
to its value: `<where>: missing 'regions[0].illuminance'` (before any
unknown key), `regions[0].texture: 'valu' is not a known key`, or
`regions[0].texture: <what the constructor raised>`. `parse_json` is the
one reader of JSON text from outside: an HTTP body or header, a scenario
file, a region log line.
"""
import enum
import functools
import json
import math
import numbers
from dataclasses import MISSING, field, fields, is_dataclass
from typing import Union, get_args, get_origin, get_type_hints

from .errors import InvalidArgumentError


def is_number(value, lo=-math.inf, hi=math.inf) -> bool:
    """A finite int or float, not a bool, in [lo, hi]; NaN fails. An int
    beyond the float range compares exactly."""
    if type(value) is float:    # the common case, without the ABC checks
        return math.isfinite(value) and lo <= value <= hi
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (isinstance(value, numbers.Integral) or math.isfinite(value))
            and lo <= value <= hi)


def is_integer(value, lo=-2 ** 63, hi=2 ** 63 - 1) -> bool:
    """An int, not a bool or a float, so nothing is truncated, in [lo, hi]."""
    if type(value) is int:
        return lo <= value <= hi
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and lo <= value <= hi)


def checked(rule: str, test, default=MISSING, *, compare=True, **options):
    """A dataclass field whose value must pass test; rule says what passes.
    compare=False leaves it out of ==; the options are those of `wire`."""
    return field(default=default, compare=compare,
                 metadata={"rule": rule, "test": test, **options})


def number(lo=-math.inf, hi=math.inf, default=MISSING, *, open_lo=False,
           open_hi=False, optional=False, **options):
    """A field for a finite number in [lo, hi], without a bound that is
    open; None passes too if optional."""
    def test(v) -> bool:
        if v is None:
            return optional
        return is_number(v, lo, hi) and not (open_lo and v == lo or open_hi and v == hi)

    span = f"{'(' if open_lo else '['}{lo:g}, {hi:g}{')' if open_hi else ']'}"
    return checked(f"a finite number in {span}" + " or null" * optional, test,
                   default, **options)


def integer(lo=-2 ** 63, hi=2 ** 63 - 1, default=MISSING):
    return checked(f"an integer in [{lo}, {hi}]", lambda v: is_integer(v, lo, hi),
                   default)


def one_of(choices, default=MISSING):
    return checked(f"one of {', '.join(choices)}", lambda v: v in choices, default)


@functools.cache
def _rules(cls) -> tuple:
    """(name, test, rule) of each checked field of dataclass cls, in order."""
    return tuple((f.name, f.metadata["test"], f.metadata["rule"])
                 for f in fields(cls) if "test" in f.metadata)


def check_fields(obj) -> None:
    """Raise InvalidArgumentError for the first field of obj whose value
    breaks its rule."""
    for name, test, rule in _rules(type(obj)):
        if not test(getattr(obj, name)):
            raise InvalidArgumentError(f"{name} must be {rule}")


class Checked:
    """The base of a dataclass with a checked field: it is checked when it is
    built. A subclass that also checks a rule across fields calls
    `super().__post_init__()` first."""

    def __post_init__(self):
        check_fields(self)


# -- the JSON codec ---------------------------------------------------------


def parse_json(text, what: str):
    """The JSON value of text, str or bytes; bad UTF-8, bad JSON, nesting
    too deep and an integer over int()'s 4 300 digits raise
    InvalidArgumentError(f"{what} is not valid JSON")."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError):
        raise InvalidArgumentError(f"{what} is not valid JSON") from None


class DecodeError(InvalidArgumentError):
    """Bad input whose message names where in its document it is."""


def wire(default=MISSING, **options):
    """A field with what its type cannot say: key, its JSON key; flat=True
    if its dataclass's keys sit in the enclosing object; absent, its value
    if its key is left out; required=True if the key may not be left out;
    given=True if it has no key, so only a caller's given value sets it."""
    return field(default=default, metadata=options)


def _path(loc: tuple) -> str:
    """A location, (document name, key or index, ...), as a path."""
    text = ""
    for part in loc[1:]:
        text += f"[{part}]" if type(part) is int else f".{part}" if text else part
    return text or loc[0]


@functools.cache
def _converter(tp):
    """conv(value, where) that reads a JSON value as tp, or None if as is."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is Union:     # a JSON object reads as the dataclass member
        members = [a for a in args if a is not type(None)]
        first = _converter(members[0])
        obj = _converter(next((a for a in members if is_dataclass(a)), members[0]))
        return first and (lambda value, where: value if value is None else
                          (obj if type(value) is dict else first)(value, where))
    if origin is tuple:
        item = _converter(args[0])

        def conv(value, where):
            if type(value) is not list:
                raise InvalidArgumentError("must be a JSON list")
            return tuple(value if item is None else
                         (item(v, where + (i,)) for i, v in enumerate(value)))
        return conv
    if tp is float:
        return lambda value, where: float(value) if type(value) is int else value
    if is_dataclass(tp):
        return functools.partial(decode, tp)
    if isinstance(tp, type) and tp not in (str, int, bool, object, dict):
        return lambda value, where: tp(value)   # an enum, a LuxCurve
    return None


@functools.cache
def _plan(cls, given=()) -> tuple:
    """(required keys, known keys, steps) of dataclass cls, less the fields
    in given and those declared given. A step is (name, key, conv, absent),
    and (name, None, the dataclass, its steps) for a flat field."""
    hints, required, known, steps = get_type_hints(cls), [], set(), []
    for f in fields(cls):
        meta, tp = f.metadata, hints[f.name]
        if f.name in given or meta.get("given"):
            continue
        if meta.get("flat"):
            inner_required, inner_known, inner_steps = _plan(tp)
            required += inner_required
            known |= inner_known
            steps.append((f.name, None, tp, inner_steps))
            continue
        key, absent = meta.get("key", f.name), meta.get("absent", MISSING)
        known.add(key)
        if meta.get("required") or f.default is f.default_factory is absent is MISSING:
            required.append(key)
        steps.append((f.name, key, _converter(tp), absent))
    return dict.fromkeys(required), frozenset(known), tuple(steps)


_BAD_JSON = (InvalidArgumentError, TypeError, ValueError, OverflowError)


def decode(cls, doc, where, **given):
    """Dataclass cls from the JSON value doc of the document named where, or
    at a location in it. A field in given is not read."""
    loc = (where,) if type(where) is str else where
    required, known, steps = _plan(cls, tuple(given))
    if type(doc) is not dict:
        raise DecodeError(f"{_path(loc)}: must be a JSON object")
    if not required.keys() <= doc.keys():
        key = next(key for key in required if key not in doc)
        raise DecodeError(f"{loc[0]}: missing {_path(loc + (key,))!r}")
    if not known.issuperset(doc):
        key = next(key for key in doc if key not in known)
        raise DecodeError(f"{_path(loc)}: {key!r} is not a known key")
    return _construct(cls, steps, doc, loc, given)


def _construct(cls, steps, doc: dict, loc: tuple, kwargs: dict):
    for name, key, conv, absent in steps:
        if key is None:         # flat: conv is the dataclass, absent its steps
            kwargs[name] = _construct(conv, absent, doc, loc, {})
        elif key not in doc:
            if absent is not MISSING:
                kwargs[name] = absent
        elif conv is None:
            kwargs[name] = doc[key]
        else:
            try:
                kwargs[name] = conv(doc[key], loc + (key,))
            except DecodeError:
                raise
            except _BAD_JSON as e:
                raise DecodeError(f"{_path(loc + (key,))}: {e}") from None
    try:
        return cls(**kwargs)
    except _BAD_JSON as e:
        raise DecodeError(f"{_path(loc)}: {e}") from None


def encode(obj):
    """The JSON value of obj; a dataclass's keys are in field order."""
    if is_dataclass(obj):
        doc = {}
        for name, key, *_ in _plan(type(obj))[2]:
            if key is None:
                doc.update(encode(getattr(obj, name)))
            else:
                doc[key] = encode(getattr(obj, name))
        return doc
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (tuple, list)):
        return [encode(v) for v in obj]
    if isinstance(obj, dict):
        return {k: encode(v) for k, v in obj.items()}
    return obj
