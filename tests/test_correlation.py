import math

import numpy as np
import pytest

from indexlab import (
    Dataset,
    DegenerateDataError,
    InsufficientDataError,
    PValue,
    ValidationError,
    correlation_matrix,
    pearson,
    significance_stars,
    t_two_tailed_p,
)
from indexlab.dataset import DIMENSIONS, PILLARS, SII


def test_pearson_reference(dataset):
    result = pearson(dataset.column("SII"), dataset.column("I-DESI"))
    assert result.n == 29
    assert abs(result.r - 0.7396388208037808) < 1e-12
    assert abs(result.p.value - 4.550161577616684e-06) < 1e-16
    assert significance_stars(result.p) == "***"


def test_pearson_published_cells(dataset):
    cells = [
        ("Use of the internet", "Society", 0.788, "***"),
        ("Connectivity", "Entrepreneurship", 0.170, ""),
        ("Human capital", "SII", 0.530, "**"),
        ("Digital public services", "Human capital", 0.564, "**"),
    ]
    for a, b, r, stars in cells:
        result = pearson(dataset.column(a), dataset.column(b))
        assert abs(result.r - r) <= 0.001, (a, b)
        assert significance_stars(result.p) == stars, (a, b)


def test_pearson_symmetry_and_bounds(dataset):
    ab = pearson(dataset.column("SII"), dataset.column("Financing"))
    ba = pearson(dataset.column("Financing"), dataset.column("SII"))
    assert ab.r == ba.r and ab.p.value == ba.p.value
    assert -1.0 <= ab.r <= 1.0


def test_pearson_perfect():
    x = [1.0, 2.0, 3.0, 4.0]
    result = pearson(x, [2.0 * v for v in x])
    assert result.r == 1.0
    assert result.p.value == 0.0
    inverse = pearson(x, [10.0 - v for v in x])
    assert inverse.r == -1.0


def test_pearson_errors():
    with pytest.raises(InsufficientDataError):
        pearson([1.0, 2.0], [3.0, 4.0])
    with pytest.raises(DegenerateDataError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    # the mean of three 0.1s is not 0.1 in floating point, so the centred sum
    # of squares is not zero; the series is still constant
    with pytest.raises(DegenerateDataError):
        pearson([1.0, 2.0, 3.0], [0.1, 0.1, 0.1])
    with pytest.raises(ValidationError, match="length mismatch: 3 vs 4"):
        pearson([1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])


def test_pearson_power_of_two_sweep():
    """Scaling both series by 2**k changes neither r nor p, to the last bit,
    for every k from -1000 to 1000: each scaled value is a normal float."""
    x = [1.0, 2.0, 3.0, 4.0, 6.0]
    y = [1.2, 1.9, 3.3, 3.8, 6.1]
    expected = pearson(x, y)
    for k in range(-1000, 1001):
        scale = 2.0**k
        assert pearson([v * scale for v in x], [v * scale for v in y]) == expected, k


@pytest.mark.parametrize("scale", [1e120, 1e160, 1e-160, 1e-200, 1e-300])
def test_pearson_at_extreme_scales(scale):
    """Products of these values overflow or underflow unless the kernel
    scales the centred columns first."""
    x = [1.0, 2.0, 3.0, 4.0, 6.0]
    y = [1.2, 1.9, 3.3, 3.8, 6.1]
    ref_r, ref_p = _fsum_pearson(x, y)
    result = pearson([v * scale for v in x], [v * scale for v in y])
    assert abs(result.r - ref_r) <= 1e-12 and abs(result.p.value - ref_p) <= 1e-12


def test_significance_stars_strict_boundaries():
    assert significance_stars(0.0009) == "***"
    assert significance_stars(0.001) == "**"
    assert significance_stars(0.009) == "**"
    assert significance_stars(0.01) == "*"
    assert significance_stars(0.049) == "*"
    assert significance_stars(0.05) == ""
    assert significance_stars(PValue(0.0001)) == "***"


def test_correlation_matrix_structure(dataset):
    variables = ("SII", "Connectivity", "Human capital")
    matrix = correlation_matrix(dataset, variables)
    assert matrix.variables == variables
    assert matrix.n == 29
    for i in range(3):
        assert matrix.r[i][i] == 1.0
        assert matrix.p[i][i] == 0.0
    assert matrix.r[1][0] == matrix.r[0][1]


def test_correlation_matrix_resolves_aliases(dataset):
    matrix = correlation_matrix(dataset, ("sii", "connectivity"))
    assert matrix.variables == ("SII", "Connectivity")


def _fsum_pearson(x, y):
    """Reference r and p, independent of the Gram kernel: correctly rounded
    sums of the centred products, then the t-test on n - 2 df."""
    x, y = list(x), list(y)
    n = len(x)
    mx, my = math.fsum(x) / n, math.fsum(y) / n
    sxx = math.fsum((a - mx) ** 2 for a in x)
    syy = math.fsum((b - my) ** 2 for b in y)
    r = math.fsum((a - mx) * (b - my) for a, b in zip(x, y)) / math.sqrt(sxx * syy)
    return r, t_two_tailed_p(r * math.sqrt((n - 2) / (1.0 - r * r)), n - 2).value


def _assert_matches_pearson(dataset, variables):
    """The matrix and pearson agree with the fsum reference within 1e-12."""
    matrix = correlation_matrix(dataset, variables)
    for i, a in enumerate(matrix.variables):
        for j, b in enumerate(matrix.variables):
            if i == j:
                continue
            ref_r, ref_p = _fsum_pearson(dataset.column(a), dataset.column(b))
            pair = pearson(dataset.column(a), dataset.column(b))
            for r, p in ((matrix.r[i][j], matrix.p[i][j]), (pair.r, pair.p.value)):
                assert abs(r - ref_r) <= 1e-12, (a, b)
                assert abs(p - ref_p) <= 1e-12, (a, b)
            assert matrix.stars[i][j] == significance_stars(ref_p), (a, b)


def test_correlation_matrix_matches_pearson_bundled(dataset):
    _assert_matches_pearson(dataset, dataset.columns)


def _assert_blocks_match(dataset, variables):
    """Every contiguous diagonal block equals a direct matrix over its variables."""
    whole = correlation_matrix(dataset, variables)
    for start in range(len(variables) - 1):
        for stop in range(start + 2, len(variables) + 1):
            block = whole.block(start, stop)
            direct = correlation_matrix(dataset, variables[start:stop])
            assert block.variables == direct.variables and block.n == direct.n
            np.testing.assert_allclose(block.r, direct.r, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(block.p, direct.p, rtol=0.0, atol=1e-12)
            assert block.stars == direct.stars


def test_correlation_blocks_bundled(dataset):
    # the report's one matrix: T4/T10 is block [0:6], the PCA input [1:6], T11 [1:10]
    _assert_blocks_match(dataset, (SII,) + DIMENSIONS + PILLARS)


@pytest.mark.parametrize("n", [3, 4, 10, 29, 300, 3000])
def test_correlation_matrix_matches_pearson_random(n):
    rng = np.random.default_rng(n)
    factor = rng.normal(50.0, 10.0, size=(n, 1))
    # two columns share a factor, two are independent noise
    data = np.hstack([factor + rng.normal(0.0, 5.0, size=(n, 2)),
                      rng.normal(50.0, 10.0, size=(n, 2))])
    data = np.clip(data, 0.0, 100.0)
    names = ("a", "b", "c", "d")
    ds = Dataset(names, [f"C{i:04d}" for i in range(n)], data)
    _assert_matches_pearson(ds, names)
    _assert_blocks_match(ds, names)


def test_correlation_matrix_degenerate_designs(degenerate_designs):
    names = ("p1", "p2", "p3")
    assert correlation_matrix(degenerate_designs["duplicate"], names).r[0][2] == 1.0
    correlation_matrix(degenerate_designs["linear_combination"], names)
    with pytest.raises(DegenerateDataError, match="p2"):
        correlation_matrix(degenerate_designs["constant"], names)


def test_correlation_matrix_needs_two_variables(dataset):
    with pytest.raises(ValidationError, match="needs at least 2 variables"):
        correlation_matrix(dataset, (SII,))


def test_correlation_matrix_needs_three_rows():
    with pytest.raises(InsufficientDataError):
        correlation_matrix(Dataset(("a", "b"), ("A", "B"), [[1.0, 2.0], [2.0, 1.0]]), ("a", "b"))
