"""Pearson correlations, two-tailed significance, and star annotations."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .base import check_array
from .dataset import Dataset
from .distributions import PValue, t_two_tailed_p
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
    xs = check_array(x, name="x", ndim=1).tolist()
    ys = check_array(y, name="y", ndim=1).tolist()
    if len(xs) != len(ys):
        raise ValidationError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 3:
        raise InsufficientDataError(f"pearson needs at least 3 pairs, got {n}")
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((v - mx) ** 2 for v in xs)
    syy = math.fsum((v - my) ** 2 for v in ys)
    if sxx == 0.0 or syy == 0.0 or min(xs) == max(xs) or min(ys) == max(ys):
        raise DegenerateDataError("pearson needs nonzero variance in both series")
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(xs, ys))
    r = max(-1.0, min(1.0, sxy / math.sqrt(sxx * syy)))
    return CorrelationResult(r=r, p=_two_tailed_p(r, n), n=n)


def _two_tailed_p(r: float, n: int) -> PValue:
    """Two-tailed p of a sample correlation r over n pairs: t-test on n-2 df."""
    if abs(r) == 1.0:
        t = math.inf
    else:
        t = r * math.sqrt((n - 2) / (1.0 - r * r))
    return t_two_tailed_p(t, n - 2)


def correlation_matrix(dataset: Dataset, variables: Sequence[str]) -> CorrelationMatrix:
    """Full symmetric r/p/star matrices over the named dataset columns; every r
    comes from one Gram matrix of the centred columns."""
    if len(variables) < 2:
        raise ValidationError("correlation matrix needs at least 2 variables")
    names = tuple(dataset.resolve_column(v) for v in variables)
    x = dataset.array(names)
    n, k = x.shape
    if n < 3:
        raise InsufficientDataError(f"pearson needs at least 3 pairs, got {n}")
    xc = x - x.mean(axis=0)
    gram = xc.T @ xc
    ss = np.diag(gram)
    constant = [name for name, spread, s in zip(names, np.ptp(x, axis=0), ss)
                if spread == 0.0 or s == 0.0]
    if constant:
        raise DegenerateDataError(f"correlation undefined: zero variance in {', '.join(constant)}")
    cross = np.clip(gram / np.sqrt(np.outer(ss, ss)), -1.0, 1.0)
    r = [[1.0] * k for _ in range(k)]
    p = [[0.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i):
            r[i][j] = r[j][i] = float(cross[i, j])
            p[i][j] = p[j][i] = _two_tailed_p(r[i][j], n).value
    stars = tuple(tuple(significance_stars(v) for v in row) for row in p)
    return CorrelationMatrix(
        variables=names,
        r=tuple(tuple(row) for row in r),
        p=tuple(tuple(row) for row in p),
        stars=stars,
        n=n,
    )
