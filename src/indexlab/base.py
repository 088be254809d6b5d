"""Input validation shared by the statistics that take a sample."""
from __future__ import annotations

from typing import Any

import numpy as np

from .errors import ValidationError


def check_array(x: Any, *, name: str) -> np.ndarray:
    """Coerce to a finite 1-d float array."""
    try:
        arr = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} is not numeric: {exc}") from exc
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite values")
    return arr
