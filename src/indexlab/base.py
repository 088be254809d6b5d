"""Input validation and scaling shared by the statistics that take a sample."""
from __future__ import annotations

import math
from typing import Any

import numpy as np

from .errors import ValidationError


# the numpy dtype kinds that numpy casts to float but that hold no real numbers
_NOT_REAL = {"U": "text", "S": "bytes", "b": "bools", "c": "complex numbers"}


def check_array(x: Any, *, name: str) -> np.ndarray:
    """Coerce real numbers to a finite 1-d float array. Text, bytes, bools
    and complex numbers are refused, though numpy reads "1" and True as 1.0."""
    try:
        arr = np.asarray(x)
        # an object array (ints past int64, or mixed types) is read value by value
        kinds = ({np.asarray(v).dtype.kind for v in arr.flat} if arr.dtype == object
                 else {arr.dtype.kind})
        refused = " and ".join(_NOT_REAL[kind] for kind in _NOT_REAL if kind in kinds)
        if refused:
            raise ValidationError(f"{name} is not numeric: it holds {refused}")
        arr = arr.astype(float, copy=False)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} is not numeric: {exc}") from exc
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite values")
    return arr


def unit_exponent(*arrays: np.ndarray) -> int:
    """The e for which 2^-e brings the largest magnitude in ``arrays`` into
    [0.5, 1); 0 when every value is 0. A power of two scales exactly, so a
    statistic computed on the data times 2^-e has no square that overflows
    or underflows, and is scaled back exactly."""
    return math.frexp(max(float(np.abs(a).max(initial=0.0)) for a in arrays))[1]
