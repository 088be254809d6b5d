"""Descriptive statistics, boxplot outlier screening, and Shapiro-Wilk normality.

The Shapiro-Wilk test follows Royston's AS R94 approximation: weights from
normal order-statistic quantiles with polynomial corrections at the tails,
and a log-normal transform of 1 - W for the p-value.

Each statistic works on one float array, sorted (stably, as ``sorted``
does) where order matters. Sums stay exactly rounded: ``math.fsum`` over the
``tolist()`` of a numpy element-wise expression (the values, the squared
deviations ``d * d``, the products of weights and order statistics), so no
summation order can move a printed digit. A square is a product, ``s * s``,
not ``s ** 2``, which is C ``pow`` and not correctly rounded by every libm.
One pass per column gives the mean, the standard deviation and the sum of
squared deviations that Shapiro-Wilk divides by (``_moments``); the report
pipeline sorts each column once and hands the order statistics to that
pass, to Shapiro-Wilk and to the boxplot hinges.

Before any sum or square, the pass scales the sample by 2^-e, where e is
the ``frexp`` exponent of max|x|, so the largest value lies in [0.5, 1) and
no sum overflows and no square underflows; the mean and the standard
deviation are scaled back. A power of two commutes with rounding, so for
values of any finite magnitude the results keep the bits they have at
ordinary scales, and W does not depend on the scale at all.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .base import check_array, unit_exponent
from .distributions import PValue, normal_cdf, normal_quantile
from .errors import DegenerateDataError, DomainError, IndexLabError, InsufficientDataError

_R = TypeVar("_R")


@dataclass(frozen=True)
class DescriptiveStats:
    valid: int
    missing: int
    mean: float
    std_deviation: float
    minimum: float
    maximum: float


@dataclass(frozen=True)
class NormalityResult:
    w: float
    p: PValue


def describe(series: Sequence[float]) -> DescriptiveStats:
    """Mean, sample standard deviation (n-1 denominator), min, and max."""
    return _moments(check_array(series, name="series"))[0]


def _moments(x: np.ndarray) -> tuple[DescriptiveStats, np.ndarray, float]:
    """``describe`` of a finite sample, with the sample scaled by 2^-e so
    that max|x| lies in [0.5, 1), and the exactly rounded sum of squared
    deviations of that scaled sample. Order does not matter: a sorted sample
    gives the same bits."""
    n = len(x)
    if n < 2:
        raise InsufficientDataError(f"describe needs at least 2 values, got {n}")
    e = unit_exponent(x)
    scaled = np.ldexp(x, -e)
    mean = math.fsum(scaled.tolist()) / n
    d = scaled - mean
    ssq = math.fsum((d * d).tolist())
    stats = DescriptiveStats(
        valid=n,
        missing=0,
        mean=math.ldexp(mean, e),
        std_deviation=math.ldexp(math.sqrt(ssq / (n - 1)), e),
        # the first extreme in row order, as min() and max() pick among equal
        # zeros; a stable sort keeps that element first among its equals
        minimum=float(x[x.argmin()]),
        maximum=float(x[x.argmax()]),
    )
    return stats, scaled, ssq


def _per_column(names: Iterable[str], statistic: Callable[[str], _R]) -> dict[str, _R]:
    """``{name: statistic(name)}`` over column names, in their order. A
    rejection is raised again as its own type, with the column's name in
    front of its message: ``SII: shapiro_wilk needs non-constant data``."""
    results = {}
    for name in names:
        try:
            results[name] = statistic(name)
        except IndexLabError as exc:
            raise type(exc)(f"{name}: {exc}") from exc
    return results


def _poly(coeffs: Sequence[float], x: float) -> float:
    """Evaluate c[0] + c[1]*x + c[2]*x^2 + ... (AS R94 ordering)."""
    total = 0.0
    for c in reversed(coeffs):
        total = total * x + c
    return total


# Tail-coefficient corrections from AS R94 (Royston 1995).
_C1 = (0.0, 0.221157, -0.147981, -2.071190, 4.434685, -2.706056)
_C2 = (0.0, 0.042981, -0.293762, -1.752461, 5.682633, -3.582633)
# Small-sample p-value transform, 4 <= n <= 11.
_C3 = (0.544, -0.39978, 0.025054, -0.0006714)
_C4 = (1.3822, -0.77857, 0.062767, -0.0020322)
# Large-sample p-value transform, n >= 12.
_C5 = (-1.5861, -0.31082, -0.083751, 0.0038915)
_C6 = (-0.4803, -0.082676, 0.0030302)


@lru_cache(maxsize=32)
def _sw_coefficients(n: int) -> np.ndarray:
    """AS R94 weights a_1..a_n for the ordered sample, read-only; memoised,
    as every column of one dataset shares its n."""
    m = [normal_quantile((i - 0.375) / (n + 0.25)) for i in range(1, n + 1)]
    ssumm2 = math.fsum(v * v for v in m)
    rsn = 1.0 / math.sqrt(n)
    a = [v / math.sqrt(ssumm2) for v in m]
    if n > 5:
        an = -a[0]
        an1 = -a[1]
        a_n = _poly(_C1, rsn) + an
        a_n1 = _poly(_C2, rsn) + an1
        # renormalize the interior so the weight vector stays unit length
        phi = ((ssumm2 - 2.0 * m[-1] * m[-1] - 2.0 * m[-2] * m[-2])
               / (1.0 - 2.0 * a_n * a_n - 2.0 * a_n1 * a_n1))
        a = [v / math.sqrt(phi) for v in m]
        a[0] = -a_n
        a[1] = -a_n1
        a[-1] = a_n
        a[-2] = a_n1
    elif n > 3:
        an = -a[0]
        a_n = _poly(_C1, rsn) + an
        phi = (ssumm2 - 2.0 * m[-1] * m[-1]) / (1.0 - 2.0 * a_n * a_n)
        a = [v / math.sqrt(phi) for v in m]
        a[0] = -a_n
        a[-1] = a_n
    weights = np.array(a)
    weights.setflags(write=False)
    return weights


def shapiro_wilk(series: Sequence[float]) -> NormalityResult:
    """Shapiro-Wilk W and its p-value per the AS R94 approximation."""
    x = np.sort(check_array(series, name="series"), kind="stable")
    _check_shapiro_wilk_size(len(x))
    return _shapiro_wilk_ordered(*_moments(x)[1:])


def _check_shapiro_wilk_size(n: int) -> None:
    if n < 3 or n > 5000:
        raise DomainError(f"shapiro_wilk needs 3 <= n <= 5000, got {n}")


def _shapiro_wilk_ordered(x: np.ndarray, ssq: float) -> NormalityResult:
    """``shapiro_wilk`` of a finite sample already sorted ascending, given
    the sum of squared deviations ``ssq`` at the sample's own scale; W is the
    same at any power-of-two scale, and ``_moments`` gives both."""
    n = len(x)
    _check_shapiro_wilk_size(n)
    if x[0] == x[-1]:
        raise DegenerateDataError("shapiro_wilk needs non-constant data")

    s = math.fsum((_sw_coefficients(n) * x).tolist())
    w = min(1.0, s * s / ssq)

    if n == 3:
        # exact distribution for the minimum sample size
        pw = 6.0 / math.pi * (math.asin(math.sqrt(w)) - math.asin(math.sqrt(0.75)))
        return NormalityResult(w=w, p=PValue(max(0.0, min(1.0, pw))))
    if n <= 11:
        gamma = -2.273 + 0.459 * n
        mu = _poly(_C3, n)
        sigma = math.exp(_poly(_C4, n))
        z = (-math.log(gamma - math.log1p(-w)) - mu) / sigma
    else:
        ln_n = math.log(n)
        mu = _poly(_C5, ln_n)
        sigma = math.exp(_poly(_C6, ln_n))
        z = (math.log1p(-w) - mu) / sigma
    return NormalityResult(w=w, p=PValue(max(0.0, min(1.0, 1.0 - normal_cdf(z)))))


def _median(sorted_x: Sequence[float]) -> float:
    n = len(sorted_x)
    mid = n // 2
    if n % 2 == 1:
        return sorted_x[mid]
    return 0.5 * (sorted_x[mid - 1] + sorted_x[mid])


def tukey_hinges(series: Sequence[float]) -> tuple[float, float]:
    """Lower and upper hinges: medians of the two halves, median included when n is odd."""
    return _hinges(np.sort(check_array(series, name="series"), kind="stable").tolist())


def _hinges(x: Sequence[float]) -> tuple[float, float]:
    """``tukey_hinges`` of a sample already sorted ascending."""
    n = len(x)
    if n < 4:
        raise InsufficientDataError(f"hinges need at least 4 values, got {n}")
    half = (n + 1) // 2
    return _median(x[:half]), _median(x[n - half:])


def boxplot_outliers(series: Sequence[float]) -> list[int]:
    """Indices of values outside [Q1 - 1.5 IQR, Q3 + 1.5 IQR] with Tukey-hinge quartiles."""
    x = check_array(series, name="series")
    return _outliers(x, np.sort(x, kind="stable"))


def _outliers(x: np.ndarray, ordered: np.ndarray) -> list[int]:
    """``boxplot_outliers`` of a finite sample x, given x sorted (stably) as
    ``ordered``."""
    q1, q3 = _hinges(ordered)
    iqr = q3 - q1
    lo = q1 - 1.5 * iqr
    hi = q3 + 1.5 * iqr
    return np.flatnonzero((x < lo) | (x > hi)).tolist()
