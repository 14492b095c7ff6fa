"""Exception types shared across the package, and the checks of a
scalar input against its documented domain."""

from __future__ import annotations

import math
import sys


class ValidationError(ValueError):
    """An input violates a construction or argument contract."""


class InfeasibleError(Exception):
    """The requested quantity does not exist in the given parameter regime."""


def interval(value, what: str, domain: str) -> float:
    """``value`` as a float, if it is finite and lies in ``domain``.

    ``domain`` is written as in the error message, e.g. "[0, 0.5)": a
    bracket closes an end and a parenthesis opens it.
    """
    lo, hi = (float(end) for end in domain[1:-1].split(","))
    x = float(value)
    above = lo <= x if domain[0] == "[" else lo < x
    below = x <= hi if domain[-1] == "]" else x < hi
    if not (math.isfinite(x) and above and below):
        raise ValidationError(f"{what} must be in {domain}, got {x:.9g}")
    return x


def count(value, what: str, minimum: int = 1, maximum: int | None = None,
          float_range: bool = True) -> int:
    """``value`` as an int, if it is a whole number in [minimum, maximum]
    and, unless ``float_range`` is False, at most the largest float, since
    a count enters float formulas.  Seeds, which only
    ``numpy.random.default_rng`` reads, may be of any size."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value or n < minimum or (maximum is not None and n > maximum):
        bounds = f"of at least {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise ValidationError(f"{what} must be an integer {bounds}, got {value}")
    if float_range and n > sys.float_info.max:
        raise ValidationError(f"{what} must be at most {sys.float_info.max:.9g}, the float range, "
                              f"got about 10^{math.log10(n):.0f}")
    return n
