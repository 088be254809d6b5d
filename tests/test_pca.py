import math

import numpy as np
import pytest

from indexlab import (
    CorrelationMatrix,
    Dataset,
    DegenerateDataError,
    DomainError,
    IndexLabError,
    SingularDesignError,
    ValidationError,
    bartlett_sphericity,
    correlation_matrix,
    eigen_symmetric,
    kmo,
    principal_components,
    run_pca,
)
from indexlab.dataset import DIMENSIONS


def _matrix(variables, r, n=30):
    size = len(variables)
    zeros = tuple(tuple(0.0 for _ in range(size)) for _ in range(size))
    stars = tuple(tuple("" for _ in range(size)) for _ in range(size))
    return CorrelationMatrix(variables=tuple(variables), r=r, p=zeros, stars=stars, n=n)


def test_run_pca_published(sorted_dataset):
    result = run_pca(sorted_dataset, DIMENSIONS)
    assert result.variables == DIMENSIONS
    assert result.retained == 1
    np.testing.assert_allclose(
        result.eigenvalues,
        (3.67340818, 0.47739569, 0.35482387, 0.31362986, 0.1807424),
        atol=1e-6,
    )
    loadings = [row[0] for row in result.loadings]
    np.testing.assert_allclose(
        loadings, (0.845, 0.853, 0.889, 0.908, 0.786), atol=0.005)
    assert all(v > 0 for v in loadings)
    assert abs(result.variance_explained_pct[0] - 73.468) <= 0.05
    assert abs(result.cumulative_pct[-1] - 100.0) < 1e-9
    assert abs(sum(result.eigenvalues) - 5.0) < 1e-9
    assert abs(result.kmo - 0.8810889804413573) < 1e-12
    assert abs(result.bartlett.statistic - 85.28851635900286) < 1e-9
    assert result.bartlett.df == 10
    assert result.bartlett.p.value < 0.0005
    # KMO and Bartlett share the PCA's eigendecomposition; the one-argument
    # forms decompose the same matrix again and agree exactly
    corr = correlation_matrix(sorted_dataset, DIMENSIONS)
    assert result.kmo == kmo(corr)
    assert result.bartlett == bartlett_sphericity(corr)
    assert principal_components(corr) == result


def test_run_pca_row_order_invariant(dataset, sorted_dataset):
    a = run_pca(dataset, DIMENSIONS)
    b = run_pca(sorted_dataset, DIMENSIONS)
    np.testing.assert_allclose(a.eigenvalues, b.eigenvalues, rtol=1e-12)


def test_eigen_symmetric_two_by_two():
    values, vectors = eigen_symmetric(np.array([[1.0, 0.8], [0.8, 1.0]]))
    np.testing.assert_allclose(values, [1.8, 0.2], atol=1e-12)
    recon = vectors @ np.diag(values) @ vectors.T
    np.testing.assert_allclose(recon, [[1.0, 0.8], [0.8, 1.0]], atol=1e-12)


def test_eigen_symmetric_validation():
    with pytest.raises(ValidationError):
        eigen_symmetric(np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        eigen_symmetric(np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(ValidationError, match="matrix is empty"):
        eigen_symmetric(np.zeros((0, 0)))


def test_eigen_symmetric_rejects_non_finite():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="non-finite"):
            eigen_symmetric([[1.0, bad], [bad, 1.0]])


def test_eigen_symmetric_solver_failure_is_domain_error(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(DomainError, match="did not converge"):
        eigen_symmetric(np.eye(2))


@pytest.mark.parametrize("kind,error", [
    ("duplicate", SingularDesignError),
    ("linear_combination", SingularDesignError),
    ("constant", DegenerateDataError),
])
def test_run_pca_degenerate_designs(degenerate_designs, kind, error):
    with pytest.raises(error):
        run_pca(degenerate_designs[kind], ("p1", "p2", "p3"))


def test_kmo_equicorrelated_closed_form():
    # for an equicorrelation matrix, KMO = (1+(p-2)r)^2 / ((1+(p-2)r)^2 + 1)
    r = 0.5
    matrix = _matrix(("a", "b", "c"), (
        (1.0, r, r), (r, 1.0, r), (r, r, 1.0)))
    expected = (1 + r) ** 2 / ((1 + r) ** 2 + 1)
    assert abs(kmo(matrix) - expected) < 1e-12
    assert abs(kmo(matrix) - 0.6923076923076923) < 1e-12


def test_kmo_singular():
    matrix = _matrix(("a", "b"), ((1.0, 1.0), (1.0, 1.0)))
    with pytest.raises(SingularDesignError):
        kmo(matrix)


_IDENTITY = _matrix(("a", "b", "c"), ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))


def test_kmo_uncorrelated():
    with pytest.raises(DegenerateDataError, match="every off-diagonal correlation is zero"):
        kmo(_IDENTITY)
    with pytest.raises(DegenerateDataError, match="every off-diagonal correlation is zero"):
        principal_components(_IDENTITY)


def test_kmo_needs_two_variables():
    with pytest.raises(ValidationError):
        kmo(_matrix(("a",), ((1.0,),)))


def test_bartlett_identity_matrix():
    matrix = _matrix(("a", "b", "c"), (
        (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
    result = bartlett_sphericity(matrix)
    assert result.statistic == 0.0
    assert result.df == 3
    assert result.p.value == 1.0


def test_bartlett_df_rule():
    for p in (2, 5, 8):
        variables = tuple(f"v{i}" for i in range(p))
        identity = tuple(
            tuple(1.0 if i == j else 0.0 for j in range(p)) for i in range(p))
        result = bartlett_sphericity(_matrix(variables, identity, n=40))
        assert result.df == p * (p - 1) // 2


def test_bartlett_errors():
    matrix = _matrix(("a", "b"), ((1.0, 0.5), (0.5, 1.0)), n=2)
    with pytest.raises(ValidationError, match="n > p"):
        bartlett_sphericity(matrix)
    indefinite = _matrix(("a", "b"), ((1.0, 2.0), (2.0, 1.0)), n=20)
    with pytest.raises(DomainError):
        bartlett_sphericity(indefinite)


def test_principal_components_rejects_a_matrix_that_is_not_positive_semidefinite():
    indefinite = _matrix(("a", "b"), ((1.0, 2.0), (2.0, 1.0)))
    with pytest.raises(DomainError, match="not positive semidefinite"):
        principal_components(indefinite)


def test_retention_threshold(sorted_dataset):
    all_kept = run_pca(sorted_dataset, DIMENSIONS, retention=0.0)
    assert all_kept.retained == 5
    loadings = np.array(all_kept.loadings)
    r = np.array(correlation_matrix(sorted_dataset, DIMENSIONS).r)
    np.testing.assert_allclose(loadings @ loadings.T, r, atol=1e-8)
    none_kept = run_pca(sorted_dataset, DIMENSIONS, retention=10.0)
    assert none_kept.retained == 0
    assert none_kept.loadings == ((), (), (), (), ())


@pytest.mark.parametrize("retention", [math.nan, math.inf, -math.inf, "1", None, True, np.True_])
def test_retention_threshold_must_be_a_finite_number(sorted_dataset, retention):
    # a NaN threshold would keep no component, and silently
    with pytest.raises(ValidationError, match="retention threshold must be a finite number"):
        run_pca(sorted_dataset, DIMENSIONS, retention=retention)
    with pytest.raises(ValidationError, match="retention threshold must be a finite number"):
        principal_components(correlation_matrix(sorted_dataset, DIMENSIONS), retention)


def test_correlation_kmo_and_pca_power_of_two_sweep(dataset):
    """Scaling every score by 2**k leaves r, p, KMO, the eigenvalues and the
    loadings unchanged, to the last bit, for every k at which each scaled
    score is a normal float: the correlation kernel centres each column and
    scales it by a power of two, both exact there. Scores are capped at 100,
    so the sweep runs downward only; below the normal range, where scores
    lose bits as subnormals, each is still a valid result or an
    IndexLabError."""
    data = dataset.array(dataset.columns)
    exponents = [math.frexp(v)[1] for v in data.ravel().tolist() if v]
    lowest = -1021 - min(exponents)

    def analysis(k):
        ds = Dataset(dataset.columns, dataset.countries, np.ldexp(data, k))
        corr = correlation_matrix(ds, dataset.columns)
        return corr, principal_components(corr.block(1, 6)), kmo(corr.block(6, 11))

    expected = analysis(0)
    for k in range(-1, lowest - 1, -1):
        assert analysis(k) == expected, k
    for k in range(lowest - 1, -1075 - max(exponents), -1):
        try:
            corr, pca, dims_kmo = analysis(k)
        except IndexLabError:
            continue  # scores that became equal or collinear as subnormals
        r, p = np.array(corr.r), np.array(corr.p)
        assert np.all(np.abs(r) <= 1.0) and np.all((p >= 0.0) & (p <= 1.0)), k
        assert all(map(math.isfinite, pca.eigenvalues)), k
        assert all(math.isfinite(v) for row in pca.loadings for v in row), k
        assert 0.0 <= pca.kmo <= 1.0 and 0.0 <= dims_kmo <= 1.0, k
