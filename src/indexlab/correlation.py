"""Pearson correlations, two-tailed significance, and star annotations.

One kernel computes every correlation: it centres the columns, scales each
by a power of two, takes their Gram matrix, rejects a column with no
spread, and reads r, clipped to [-1, 1], and its t-test p from the Gram
matrix. ``correlation_matrix`` runs
it over dataset columns and ``pearson`` over two sequences.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .base import check_array
from .dataset import Dataset
from .distributions import TWO_TAILED, PValue, t_two_tailed_p
from .errors import DegenerateDataError, InsufficientDataError, ValidationError

_STAR_LEVELS = ((0.001, "***"), (0.01, "**"), (0.05, "*"))


def significance_stars(p: PValue | float) -> str:
    """Annotation for a p-value: strict thresholds at .001, .01, .05."""
    value = float(p)
    for threshold, stars in _STAR_LEVELS:
        if value < threshold:
            return stars
    return ""


@dataclass(frozen=True)
class CorrelationResult:
    r: float
    p: PValue
    n: int


@dataclass(frozen=True)
class CorrelationMatrix:
    variables: tuple[str, ...]
    r: tuple[tuple[float, ...], ...]
    p: tuple[tuple[float, ...], ...]
    stars: tuple[tuple[str, ...], ...]
    n: int

    def block(self, start: int, stop: int) -> "CorrelationMatrix":
        """The matrix over ``variables[start:stop]``, a diagonal sub-block."""
        span = slice(start, stop)
        return CorrelationMatrix(
            variables=self.variables[span],
            r=tuple(row[span] for row in self.r[span]),
            p=tuple(row[span] for row in self.p[span]),
            stars=tuple(row[span] for row in self.stars[span]),
            n=self.n,
        )


def pearson(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Sample Pearson correlation with a two-tailed t-test on n-2 df."""
    xs = check_array(x, name="x")
    ys = check_array(y, name="y")
    if len(xs) != len(ys):
        raise ValidationError(f"length mismatch: {len(xs)} vs {len(ys)}")
    r, p = _correlate(np.column_stack((xs, ys)), ("x", "y"))
    return CorrelationResult(r=r[1][0], p=p[1][0], n=len(xs))


def _two_tailed_p(r: float, n: int) -> PValue:
    """Two-tailed p of a sample correlation r over n pairs: t-test on n-2 df."""
    if abs(r) == 1.0:
        t = math.inf
    else:
        t = r * math.sqrt((n - 2) / (1.0 - r * r))
    return t_two_tailed_p(t, n - 2)


def _correlate(x: np.ndarray, names: Sequence[str]) -> tuple[list[list[float]],
                                                           list[list[PValue]]]:
    """Symmetric r and p matrices of the named columns of an (n, k) array,
    every r from one Gram matrix of the centred columns."""
    n, k = x.shape
    if n < 3:
        raise InsufficientDataError(f"pearson needs at least 3 pairs, got {n}")
    xc = x - x.mean(axis=0)
    # r does not change when a column is scaled, and a power of two scales
    # exactly: each centred column is brought to max|x| in [0.5, 1), so no
    # product in the Gram matrix overflows or underflows
    xc = np.ldexp(xc, -np.frexp(np.abs(xc).max(axis=0))[1])
    gram = xc.T @ xc
    ss = np.diag(gram)
    # by spread, not ss: a constant column whose mean is inexact has ss > 0
    constant = [name for name, spread in zip(names, np.ptp(x, axis=0)) if spread == 0.0]
    if constant:
        raise DegenerateDataError(f"correlation undefined: zero variance in {', '.join(constant)}")
    cross = np.clip(gram / np.sqrt(np.outer(ss, ss)), -1.0, 1.0)
    r = [[1.0] * k for _ in range(k)]
    p = [[PValue(0.0, TWO_TAILED)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i):
            r[i][j] = r[j][i] = float(cross[i, j])
            p[i][j] = p[j][i] = _two_tailed_p(r[i][j], n)
    return r, p


def correlation_matrix(dataset: Dataset, variables: Sequence[str]) -> CorrelationMatrix:
    """Full symmetric r/p/star matrices over the named dataset columns."""
    if len(variables) < 2:
        raise ValidationError("correlation matrix needs at least 2 variables")
    names = tuple(dataset.resolve_column(v) for v in variables)
    x = dataset.array(names)
    r, p = _correlate(x, names)
    return CorrelationMatrix(
        variables=names,
        r=tuple(tuple(row) for row in r),
        p=tuple(tuple(v.value for v in row) for row in p),
        stars=tuple(tuple(significance_stars(v) for v in row) for row in p),
        n=x.shape[0],
    )
