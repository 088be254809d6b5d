import math

import numpy as np
import pytest

from indexlab import (
    DegenerateDataError,
    DomainError,
    IndexLabError,
    InsufficientDataError,
    boxplot_outliers,
    describe,
    shapiro_wilk,
    tukey_hinges,
)

# frozen reference values, checked against an independent implementation
SW_REFERENCE_3 = ([1.0, 2.0, 4.0], 0.9642857142857142, 0.6368868450289689)
SW_REFERENCE_5 = ([3.1, 4.4, 2.2, 8.8, 5.0], 0.9099222253610144, 0.46712314854601805)
SW_REFERENCE_12 = (
    [148.0, 154.0, 158.0, 160.0, 161.0, 162.0, 166.0, 170.0, 182.0, 195.0, 236.0, 127.0],
    0.8805185151099573,
    0.08899747919665056,
)


def test_describe_composite_column(dataset):
    stats = describe(dataset.column("SII"))
    assert stats.valid == 29
    assert stats.missing == 0
    assert abs(stats.mean - 57.53448275862069) < 1e-12
    assert abs(stats.std_deviation - 12.202027813384984) < 1e-12
    assert stats.minimum == 33.8
    assert stats.maximum == 79.4


def test_describe_simple():
    stats = describe([2.0, 4.0, 6.0])
    assert stats.mean == 4.0
    assert stats.std_deviation == 2.0
    assert (stats.minimum, stats.maximum) == (2.0, 6.0)


def test_describe_needs_two_values():
    with pytest.raises(InsufficientDataError):
        describe([5.0])


@pytest.mark.parametrize("sample,w,p", [SW_REFERENCE_3, SW_REFERENCE_5, SW_REFERENCE_12])
def test_shapiro_wilk_reference(sample, w, p):
    result = shapiro_wilk(sample)
    assert abs(result.w - w) < 1e-8
    assert abs(result.p.value - p) < 1e-7


def test_shapiro_wilk_published_columns(dataset):
    # printed to three decimals in the source tables
    published = {
        "SII": (0.965, 0.427),
        "Connectivity": (0.915, 0.022),
        "Human capital": (0.972, 0.616),
        "Use of the internet": (0.960, 0.332),
        "Integration of digital technology": (0.948, 0.166),
        "Digital public services": (0.931, 0.059),
        "I-DESI": (0.945, 0.135),
    }
    for column, (w, p) in published.items():
        result = shapiro_wilk(dataset.column(column))
        assert abs(result.w - w) <= 0.005, column
        assert abs(result.p.value - p) <= 0.02, column


def test_shapiro_wilk_matches_scipy():
    """W and p against scipy for about 50 sizes from 3 to 5,000, normal,
    exponential and uniform samples, within 1e-8 (W) and 2e-6 (p). The
    largest misses seen, 8.0e-10 and 5.7e-7, are at n near 5,000, where
    scipy's single-precision swilk sets the limit."""
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(2028)
    sizes = {3, 4, 11, 12, 4999, 5000} | set(np.geomspace(3, 5000, 48).round().astype(int).tolist())
    for n in sorted(sizes):
        for draw in (rng.normal, rng.exponential, rng.uniform):
            x = draw(size=n)
            ours, ref = shapiro_wilk(x.tolist()), stats.shapiro(x)
            assert abs(ours.w - ref.statistic) <= 1e-8, (n, draw.__name__)
            assert abs(ours.p.value - ref.pvalue) <= 2e-6, (n, draw.__name__)


def test_shapiro_wilk_domain():
    with pytest.raises(DomainError):
        shapiro_wilk([1.0, 2.0])
    with pytest.raises(DomainError):
        shapiro_wilk([0.5] * 5001)
    with pytest.raises(DegenerateDataError):
        shapiro_wilk([3.0, 3.0, 3.0, 3.0])


def test_describe_and_shapiro_wilk_power_of_two_sweep(dataset):
    """Scaling a column by 2**k leaves W and its p unchanged and scales the
    mean, the standard deviation and the extremes by 2**k, to the last bit,
    for every k at which each scaled value is a normal float (so the scaling
    is exact), from about 2**-1027 to 2**1017 here. Below that the values
    lose bits as subnormals, down to the last k at which one stays nonzero:
    there a result is still a valid W, or an IndexLabError says why not."""
    x = np.asarray(dataset.column("SII"))
    stats, normality = describe(x), shapiro_wilk(x)
    exponents = [math.frexp(v)[1] for v in x.tolist()]
    lowest, highest = -1021 - min(exponents), 1024 - max(exponents)
    for k in range(lowest, highest + 1):
        scaled = x * 2.0**k
        assert shapiro_wilk(scaled) == normality, k
        assert describe(scaled) == type(stats)(
            valid=stats.valid, missing=0, mean=stats.mean * 2.0**k,
            std_deviation=stats.std_deviation * 2.0**k,
            minimum=stats.minimum * 2.0**k, maximum=stats.maximum * 2.0**k), k
    for k in range(lowest - 1, -1075 - max(exponents), -1):
        scaled = np.ldexp(x, k)
        assert scaled.any(), k
        assert math.isfinite(describe(scaled).std_deviation), k
        try:
            result = shapiro_wilk(scaled)
        except IndexLabError:
            continue  # values that became equal as subnormals
        assert 0.0 <= result.w <= 1.0 and 0.0 <= result.p.value <= 1.0, k


@pytest.mark.parametrize("k", [-560, 600])
def test_shapiro_wilk_at_extreme_scales(dataset, k):
    """At 2**-560 the squared deviations underflow and at 2**600 the squared
    sum of weighted order statistics overflows, unless the sample is scaled
    first."""
    x = dataset.column("SII")
    assert shapiro_wilk(np.ldexp(x, k)) == shapiro_wilk(x)


def test_shapiro_wilk_w_capped():
    # perfectly linear order statistics push W to the cap
    result = shapiro_wilk([1.0, 2.0, 3.0])
    assert result.w <= 1.0


def test_tukey_hinges():
    assert tukey_hinges([1.0, 2.0, 3.0, 4.0, 5.0, 100.0]) == (2.0, 5.0)
    assert tukey_hinges([1.0, 2.0, 3.0, 4.0]) == (1.5, 3.5)
    with pytest.raises(InsufficientDataError, match="hinges need at least 4 values, got 3"):
        tukey_hinges([1.0, 2.0, 3.0])


def test_boxplot_outliers():
    assert boxplot_outliers([1.0, 2.0, 3.0, 4.0, 5.0, 100.0]) == [5]
    assert boxplot_outliers([1.0, 2.0, 3.0, 4.0, 5.0]) == []


def test_boxplot_outliers_bundled(dataset):
    # the published screen found no outliers in any column
    for column in dataset.columns:
        assert boxplot_outliers(dataset.column(column)) == []
