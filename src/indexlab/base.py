"""Estimator conventions and input validation helpers.

Estimators follow the scikit-learn protocol (hyperparameters as __init__
keywords, ``fit`` returning ``self``, fitted state in trailing-underscore
attributes, ``get_params``/``set_params``) without depending on scikit-learn.
"""
from __future__ import annotations

import inspect
from typing import Any

import numpy as np

from .errors import NotFittedError, ValidationError


def check_array(x: Any, *, name: str = "X", ndim: int = 2) -> np.ndarray:
    """Coerce to a finite float array, promoting 1-d input to a single column
    when ``ndim`` is 2."""
    try:
        arr = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} is not numeric: {exc}") from exc
    if ndim == 2 and arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite values")
    return arr


def check_X_y(X: Any, y: Any) -> tuple[np.ndarray, np.ndarray]:
    X = check_array(X, name="X", ndim=2)
    y = check_array(y, name="y", ndim=1)
    if X.shape[0] != y.shape[0]:
        raise ValidationError(f"X and y row counts differ: {X.shape[0]} vs {y.shape[0]}")
    return X, y


class BaseEstimator:
    """Minimal estimator base with introspected hyperparameters."""

    @classmethod
    def _param_names(cls) -> list[str]:
        # classes without their own __init__ inherit object's *args/**kwargs
        sig = inspect.signature(cls.__init__)
        return [
            p.name for p in sig.parameters.values()
            if p.name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        ]

    def get_params(self, deep: bool = True) -> dict[str, Any]:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params: Any) -> "BaseEstimator":
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ValueError(f"invalid parameter {key!r} for {type(self).__name__}")
            setattr(self, key, value)
        return self

    def _check_fitted(self, attr: str) -> None:
        if not hasattr(self, attr):
            raise NotFittedError(f"this {type(self).__name__} instance is not fitted yet")

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"
