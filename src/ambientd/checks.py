"""Checks on values from outside the program. A field made by `checked`,
`number`, `integer` or `one_of` carries its rule; the `__post_init__` of its
dataclass calls `check_fields`, so an object that exists has passed them.
No check converts a value."""
import math
import numbers
from dataclasses import MISSING, field, fields

from .errors import InvalidArgumentError


def is_number(value, lo=-math.inf, hi=math.inf) -> bool:
    """A finite int or float, not a bool, in [lo, hi]; NaN fails. An int
    beyond the float range compares exactly."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (isinstance(value, numbers.Integral) or math.isfinite(value))
            and lo <= value <= hi)


def is_integer(value, lo=-2 ** 63, hi=2 ** 63 - 1) -> bool:
    """An int, not a bool or a float, so nothing is truncated, in [lo, hi]."""
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and lo <= value <= hi)


def checked(rule: str, test, default=MISSING):
    """A dataclass field whose value must pass test; rule says what passes."""
    return field(default=default, metadata={"rule": rule, "test": test})


def number(lo=-math.inf, hi=math.inf, default=MISSING, *, open_lo=False,
           open_hi=False, optional=False):
    """A field for a finite number in [lo, hi], without a bound that is
    open; None passes too if optional."""
    def test(v) -> bool:
        if v is None:
            return optional
        return is_number(v, lo, hi) and not (open_lo and v == lo or open_hi and v == hi)

    span = f"{'(' if open_lo else '['}{lo:g}, {hi:g}{')' if open_hi else ']'}"
    return checked(f"a finite number in {span}" + " or null" * optional, test,
                   default)


def integer(lo=-2 ** 63, hi=2 ** 63 - 1, default=MISSING):
    return checked(f"an integer in [{lo}, {hi}]", lambda v: is_integer(v, lo, hi),
                   default)


def one_of(choices, default=MISSING):
    return checked(f"one of {', '.join(choices)}", lambda v: v in choices, default)


def check_fields(obj, error=InvalidArgumentError) -> None:
    """Raise error for the first field of obj whose value breaks its rule."""
    for f in fields(obj):
        if "test" in f.metadata and not f.metadata["test"](getattr(obj, f.name)):
            raise error(f"{f.name} must be {f.metadata['rule']}")
