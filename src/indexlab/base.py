"""What counts as a number a caller passes in; the shared sample check and scaling.

A caller's number (a weight, a score, a threshold, each value of a sample)
is a ``numbers.Real`` that is not a ``bool`` or ``numpy.bool_``, read with
``float()``; an int past the float range reads as the infinity of its sign,
so each caller's own finite or range check refuses it. A caller's integer
(a seed or a replicate count) has ``__index__`` and is not a bool."""
from __future__ import annotations

import math
import numbers
import operator
from typing import Any

import numpy as np

from .errors import ValidationError

_BOOLS = (bool, np.bool_)
FLOAT_TYPES = (float, np.float64)  # read as the float they are, with no check
# what a value that numpy casts to float, yet is no number, holds, by its dtype kind
_NOT_REAL = {"U": "text", "S": "bytes", "b": "bools", "c": "complex numbers"}


def real(value) -> float | None:
    """``value`` as a float if it is a caller's number, else None."""
    if not isinstance(value, numbers.Real) or isinstance(value, _BOOLS):
        return None
    try:
        return float(value)
    except OverflowError:  # an int, or a Fraction, past the float range
        return math.inf if value > 0 else -math.inf


def integer(value, name: str) -> int:
    """``value`` as a Python int if it is a caller's integer, else a ValidationError."""
    if isinstance(value, _BOOLS) or not hasattr(value, "__index__"):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def check_array(x: Any, *, name: str) -> np.ndarray:
    """A sample of a caller's numbers as a finite 1-d float array. Any sample
    but an int or float array or a sequence of floats is read value by value
    by ``real``: numpy reads "1" and True as 1.0, and an int past int64 as an object."""
    try:
        arr = np.asarray(x)
    except (TypeError, ValueError) as exc:  # e.g. a ragged list
        raise ValidationError(f"{name} is not numeric: {exc}") from exc
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    # the set of a list's value types costs about 1/35 of reading each value
    if not (arr.dtype.kind in "fiu" and (isinstance(x, np.ndarray)
                                         or set(map(type, x)).issubset(FLOAT_TYPES))):
        values = [real(v) for v in x]
        refused = " and ".join(sorted({_NOT_REAL.get(np.asarray(v).dtype.kind, type(v).__name__)
                                       for v, value in zip(x, values) if value is None}))
        if refused:
            raise ValidationError(f"{name} is not numeric: it holds {refused}")
        arr = np.array(values, dtype=float)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite values")
    return arr.astype(float, copy=False)


def unit_exponent(*arrays: np.ndarray) -> int:
    """The e for which 2^-e brings the largest magnitude in ``arrays`` into
    [0.5, 1); 0 when every value is 0. A power of two scales exactly, so a
    statistic computed on the data times 2^-e has no square that overflows
    or underflows, and is scaled back exactly."""
    return math.frexp(max(float(np.abs(a).max(initial=0.0)) for a in arrays))[1]
