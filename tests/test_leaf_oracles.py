"""The array-based leaf statistics against the per-element Python loops they
replaced, kept here as oracles. Results must be equal bit for bit (``==``).

Each value is computed with the same operations in the same order, with one
exception: the loops square a deviation with ``** 2``, which calls the C
library's ``pow``, and the arrays with ``d * d``. ``d * d`` is correctly
rounded; glibc 2.36's ``pow(x, 2.0)`` is one unit in the last place off for
about 0.08% of normal draws. Each square is a term of an exactly rounded
``math.fsum`` over n terms, so such a unit moves the sum only when the sum
lies that close to a rounding boundary; it does not on any sample here."""
import dataclasses
import math

import numpy as np
import pytest

from indexlab import boxplot_outliers, casewise_diagnostics, describe, regression, shapiro_wilk, tukey_hinges
from indexlab.descriptive import _C3, _C4, _C5, _C6, _poly, _sw_coefficients
from indexlab.distributions import normal_cdf
from indexlab.regression import COOKS_FLAG, STD_RESIDUAL_FLAG
from indexlab.report import HISTOGRAM_BINS, HISTOGRAM_RANGE, _histogram

SIZES = (3, 4, 11, 12, 29, 290, 2900)


def _describe_oracle(x: list) -> tuple:
    n = len(x)
    mean = math.fsum(x) / n
    ss = math.fsum((v - mean) ** 2 for v in x)
    return n, mean, math.sqrt(ss / (n - 1)), min(x), max(x)


def _shapiro_wilk_oracle(values: list) -> tuple[float, float]:
    x = sorted(values)
    n = len(x)
    a = _sw_coefficients(n).tolist()
    mean = math.fsum(x) / n
    ssq = math.fsum((v - mean) ** 2 for v in x)
    wnum = math.fsum(ai * v for ai, v in zip(a, x)) ** 2
    w = min(1.0, wnum / ssq)
    if n == 3:
        pw = 6.0 / math.pi * (math.asin(math.sqrt(w)) - math.asin(math.sqrt(0.75)))
        return w, max(0.0, min(1.0, pw))
    if n <= 11:
        gamma = -2.273 + 0.459 * n
        z = (-math.log(gamma - math.log1p(-w)) - _poly(_C3, n)) / math.exp(_poly(_C4, n))
    else:
        ln_n = math.log(n)
        z = (math.log1p(-w) - _poly(_C5, ln_n)) / math.exp(_poly(_C6, ln_n))
    return w, max(0.0, min(1.0, 1.0 - normal_cdf(z)))


def _median_oracle(sorted_x: list) -> float:
    n = len(sorted_x)
    mid = n // 2
    if n % 2 == 1:
        return sorted_x[mid]
    return 0.5 * (sorted_x[mid - 1] + sorted_x[mid])


def _boxplot_oracle(x: list) -> tuple[tuple[float, float], list[int]]:
    s = sorted(x)
    n = len(s)
    half = (n + 1) // 2
    q1, q3 = _median_oracle(s[:half]), _median_oracle(s[n - half:])
    iqr = q3 - q1
    lo = q1 - 1.5 * iqr
    hi = q3 + 1.5 * iqr
    return (q1, q3), [i for i, v in enumerate(x) if v < lo or v > hi]


def _casewise_oracle(fit) -> tuple:
    k = len(fit.predictors)
    std_resid, cooks = [], []
    for e, h in zip(fit.residuals, fit.leverage):
        denom = fit.rmse * math.sqrt(max(0.0, 1.0 - h))
        r = e / denom if denom > 0.0 else 0.0
        std_resid.append(r)
        cooks.append(r * r * h / ((k + 1) * (1.0 - h)) if h < 1.0 else math.inf)
    flagged = tuple(i for i in range(fit.n)
                    if abs(std_resid[i]) > STD_RESIDUAL_FLAG or cooks[i] > COOKS_FLAG)
    return tuple(cooks), tuple(std_resid), flagged


def _histogram_oracle(values: list) -> dict:
    lo, hi = HISTOGRAM_RANGE
    width = (hi - lo) / HISTOGRAM_BINS
    edges = [lo + i * width for i in range(HISTOGRAM_BINS + 1)]
    counts = [0] * HISTOGRAM_BINS
    for v in values:
        i = int((v - lo) // width)
        counts[min(max(i, 0), HISTOGRAM_BINS - 1)] += 1
    return {"bin_edges": edges, "counts": counts}


def _samples(n: int) -> dict[str, list]:
    """Raw normal scores, the same rounded to one decimal as the published
    table prints them (many ties, at the hinges too), and a skewed sample."""
    rng = np.random.default_rng([n, 2900])
    raw = rng.normal(50.0, 12.0, size=n)
    return {
        "raw": raw.tolist(),
        "one_decimal": np.round(np.clip(raw, 0.0, 100.0), 1).tolist(),
        "skewed": (20.0 + rng.exponential(12.0, size=n)).tolist(),
    }


CASES = [(n, kind) for n in SIZES for kind in ("raw", "one_decimal", "skewed")]
EDGE_SAMPLES = {
    "duplicates_at_hinges": [1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0, 4.0, 9.0, 9.0],
    "even_duplicates_at_hinges": [5.0, 5.0, 5.0, 6.0, 7.0, 7.0, 7.0, 7.0, 30.0, -4.0],
    # hinges 10 and 20: the first and last values sit exactly on the fences
    "values_on_fences": [-5.0, 10.0, 10.0, 10.0, 10.0, 15.0, 15.0, 20.0, 20.0, 20.0, 20.0, 35.0],
    # equal zeros of either sign: min(), max() and sorted() keep the first
    # in row order, where an unstable sort or ndarray.min()/max() need not
    "signed_zero_minimum": [2.0, 0.0, -0.0, 1.0],
    "signed_zero_maximum": [-0.0, -1.0, -0.0, -1.0, -1.0, -1.0, -1.0, 0.0],
    "signed_zero_hinge": [1.0, 1.0, -0.0, 0.0, 1.0, -0.0, 2.0],
}


def _check_descriptives(x: list) -> None:
    stats = describe(x)
    assert (stats.valid, stats.mean, stats.std_deviation, stats.minimum,
            stats.maximum) == _describe_oracle(x)
    # signed zeros compare equal, so compare their signs too
    assert math.copysign(1.0, stats.minimum) == math.copysign(1.0, min(x))
    assert math.copysign(1.0, stats.maximum) == math.copysign(1.0, max(x))
    assert type(stats.minimum) is float and type(stats.maximum) is float
    result = shapiro_wilk(x)
    assert (result.w, result.p.value) == _shapiro_wilk_oracle(x)
    if len(x) >= 4:
        hinges, outliers = _boxplot_oracle(x)
        got = tukey_hinges(x)
        assert got == hinges and all(type(v) is float for v in got)
        assert [math.copysign(1.0, v) for v in got] == [math.copysign(1.0, v) for v in hinges]
        got = boxplot_outliers(x)
        assert got == outliers and all(type(i) is int for i in got)


@pytest.mark.parametrize("n,kind", CASES)
def test_descriptives_match_loop_oracle(n, kind):
    _check_descriptives(_samples(n)[kind])


@pytest.mark.parametrize("name", sorted(EDGE_SAMPLES))
def test_descriptives_match_loop_oracle_edge_cases(name):
    _check_descriptives(EDGE_SAMPLES[name])


def test_boxplot_oracle_sees_outliers():
    # the comparisons above also cover samples that have outliers
    assert _boxplot_oracle(_samples(2900)["skewed"])[1]
    assert _boxplot_oracle(EDGE_SAMPLES["even_duplicates_at_hinges"])[1] == [8, 9]


def _fit(n: int, kind: str):
    rng = np.random.default_rng([n, 7])
    k = 1 if n < 5 else 3
    x = rng.normal(50.0, 10.0, size=(n, k))
    y = x @ np.linspace(0.2, 0.8, k) + rng.normal(0.0, 4.0, size=n)
    if kind == "one_decimal":
        x, y = np.round(x, 1), np.round(y, 1)
    elif kind == "skewed":
        y = y + rng.exponential(6.0, size=n)
    return regression._ols_arrays(x, y, "y", [f"x{j}" for j in range(k)])


def _check_casewise(fit) -> tuple:
    cw = casewise_diagnostics(fit)
    expected = _casewise_oracle(fit)
    assert (cw.cooks_distance, cw.standardized_residuals, cw.flagged) == expected
    assert all(type(v) is float for v in cw.cooks_distance + cw.standardized_residuals)
    assert all(type(i) is int for i in cw.flagged)
    return expected


@pytest.mark.parametrize("n,kind", CASES)
def test_casewise_matches_loop_oracle(n, kind):
    _check_casewise(_fit(n, kind))


def test_casewise_matches_loop_oracle_at_full_leverage():
    # a dummy predictor set on one row only fits that row exactly
    rng = np.random.default_rng(11)
    x = np.column_stack([rng.normal(50.0, 10.0, 12), np.eye(12)[:, 5]])
    _check_casewise(regression._ols_arrays(x, rng.normal(50.0, 5.0, 12), "y", ["x0", "x1"]))
    fit = _fit(29, "raw")
    leverage = list(fit.leverage)
    leverage[3] = 1.0
    leverage[4] = math.nextafter(1.0, 2.0)
    leverage[5] = math.nextafter(1.0, 0.0)
    cooks, _, flagged = _check_casewise(dataclasses.replace(fit, leverage=tuple(leverage)))
    assert cooks[3] == cooks[4] == math.inf and math.isfinite(cooks[5])
    assert {3, 4} <= set(flagged)


def test_casewise_matches_loop_oracle_at_zero_rmse():
    fit = dataclasses.replace(_fit(29, "raw"), rmse=0.0)
    cooks, std_resid, flagged = _check_casewise(fit)
    assert set(std_resid) == {0.0} and set(cooks) == {0.0} and flagged == ()


@pytest.mark.parametrize("n,kind", CASES)
def test_histogram_matches_loop_oracle(n, kind):
    values = list(casewise_diagnostics(_fit(n, kind)).standardized_residuals)
    spread = (np.asarray(_samples(n)[kind]) - 50.0) / 4.0  # reaches past +-3.5
    for sample in (values, spread.tolist()):
        assert _histogram(sample) == _histogram_oracle(sample)


def test_histogram_matches_loop_oracle_at_edges():
    edges = _histogram_oracle([])["bin_edges"]
    lo, hi = HISTOGRAM_RANGE
    values = [*edges, lo, hi, -lo, -hi, 0.0, -0.0,
              math.nextafter(lo, -10.0), math.nextafter(hi, 10.0),
              math.nextafter(lo, 10.0), math.nextafter(hi, -10.0),
              *[math.nextafter(e, 10.0) for e in edges], *[math.nextafter(e, -10.0) for e in edges],
              -1e6, 1e6, -3.6, 3.6, 12.0, -12.0]
    result = _histogram(values)
    assert result == _histogram_oracle(values)
    assert all(type(c) is int for c in result["counts"])
    assert sum(result["counts"]) == len(values)
    assert _histogram([]) == _histogram_oracle([])
