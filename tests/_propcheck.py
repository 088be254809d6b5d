"""Randomized invariant checks over independently generated instances.

Each check runs a seeded loop and asserts an exact mathematical property of
the implementation, independent of any published value. All checks are
deterministic for a fixed seed.
"""
import numpy as np

from indexlab import (
    Dataset,
    correlation_matrix,
    eigen_symmetric,
    emit,
    kmo,
    regression,
    reproduce_all,
    run_pca,
    shapiro_wilk,
)
from indexlab.dataset import DIMENSIONS, IDESI, PILLARS, SII

_SCHEMA = (SII,) + PILLARS + (IDESI,) + DIMENSIONS


def _column_dataset(names, data):
    return Dataset(names, [f"C{i:02d}" for i in range(data.shape[0])], data)


def _schema_dataset(rng, n, correlated=True):
    """Random dataset with the full report schema, scores inside [0, 100]."""
    if correlated:
        factor = rng.normal(50.0, 9.0, size=n)
        dims = factor[:, None] + rng.normal(0.0, 3.0, size=(n, 5))
        pillars = factor[:, None] + rng.normal(0.0, 6.0, size=(n, 4))
        sii = factor + rng.normal(0.0, 2.0, size=n)
        idesi = factor + rng.normal(0.0, 3.0, size=n)
    else:
        dims = rng.normal(50.0, 8.0, size=(n, 5))
        pillars = rng.normal(55.0, 10.0, size=(n, 4))
        sii = rng.normal(50.0, 8.0, size=n)
        idesi = rng.normal(50.0, 8.0, size=n)
    dims = np.clip(dims, 5.0, 95.0)
    pillars = np.clip(pillars, 5.0, 95.0)
    sii = np.clip(sii, 5.0, 95.0)
    idesi = np.clip(idesi, 5.0, 95.0)
    return Dataset(_SCHEMA, [f"C{i:02d}" for i in range(n)],
                   np.column_stack([sii, pillars, idesi, dims]))


def check_residual_orthogonality(instances=100, seed=101):
    """Residuals sum to zero and are orthogonal to every predictor column."""
    rng = np.random.default_rng(seed)
    for _ in range(instances):
        n = int(rng.integers(15, 40))
        k = int(rng.integers(1, 5))
        x = rng.normal(0.0, 1.0, size=(n, k))
        y = x @ rng.normal(1.0, 0.5, size=k) + rng.normal(0.0, 1.0, size=n)
        fit = regression._ols_arrays(x, y, "y", [f"x{j}" for j in range(k)])
        residuals = np.array(fit.residuals)
        assert abs(float(residuals.sum())) < 1e-8
        assert float(np.max(np.abs(x.T @ residuals))) < 1e-7
    return instances


def check_f_equals_t_squared(instances=100, seed=102):
    """Simple regression: the ANOVA F equals the slope t squared."""
    rng = np.random.default_rng(seed)
    for _ in range(instances):
        n = int(rng.integers(8, 40))
        x = rng.normal(0.0, 1.0, size=(n, 1))
        y = 0.8 * x[:, 0] + rng.normal(0.0, 1.0, size=n)
        fit = regression._ols_arrays(x, y, "y", ["x0"])
        block = fit.anova
        t = fit.t_values[1]
        assert abs(block.f - t * t) <= 1e-9 * max(1.0, abs(block.f))
        assert abs(block.p.value - fit.p_values[1].value) <= 1e-12
    return instances


def check_vif_reciprocal(instances=100, seed=103):
    """VIF is exactly the reciprocal of tolerance for every predictor."""
    rng = np.random.default_rng(seed)
    for _ in range(instances):
        n = int(rng.integers(12, 30))
        k = int(rng.integers(2, 5))
        names = tuple(f"x{j}" for j in range(k))
        base = rng.normal(50.0, 6.0, size=n)
        data = np.clip(base[:, None] + rng.normal(0.0, 4.0, size=(n, k)), 1.0, 99.0)
        # the shared factor is the response: VIF reads only the predictors
        fit = regression._ols_arrays(data, base, "y", names)
        for tol, vif in zip(fit.tolerance, fit.vif):
            assert abs(vif * tol - 1.0) <= 1e-9
    return instances


def check_eigenvalue_sum(instances=100, seed=104):
    """Correlation-matrix eigenvalues are descending, sum to p, and rebuild R."""
    rng = np.random.default_rng(seed)
    for _ in range(instances):
        n = int(rng.integers(12, 40))
        p = int(rng.integers(2, 7))
        r = np.corrcoef(rng.normal(0.0, 1.0, size=(n, p)), rowvar=False)
        eigenvalues, vectors = eigen_symmetric(r)
        assert abs(float(eigenvalues.sum()) - p) <= 1e-9
        assert all(eigenvalues[i] >= eigenvalues[i + 1] - 1e-12 for i in range(p - 1))
        recon = vectors @ np.diag(eigenvalues) @ vectors.T
        assert float(np.max(np.abs(recon - r))) <= 1e-8
    return instances


def check_loading_reconstruction(instances=100, seed=105):
    """With every component kept, loadings reproduce the correlation matrix."""
    rng = np.random.default_rng(seed)
    for _ in range(instances):
        n = int(rng.integers(10, 30))
        p = int(rng.integers(3, 7))
        names = tuple(f"v{j}" for j in range(p))
        data = np.clip(rng.normal(50.0, 10.0, size=(n, p)), 1.0, 99.0)
        ds = _column_dataset(names, data)
        result = run_pca(ds, names, retention=0.0)
        assert result.retained == p
        loadings = np.array(result.loadings)
        r = np.array(correlation_matrix(ds, names).r)
        assert float(np.max(np.abs(loadings @ loadings.T - r))) <= 1e-8
    return instances


def check_kmo_two_variables(instances=100, seed=106):
    """KMO equals 0.5 exactly for any 2-variable system."""
    rng = np.random.default_rng(seed)
    for _ in range(instances):
        n = int(rng.integers(5, 40))
        names = ("a", "b")
        data = np.clip(rng.normal(50.0, 10.0, size=(n, 2)), 1.0, 99.0)
        value = kmo(correlation_matrix(_column_dataset(names, data), names))
        assert abs(value - 0.5) <= 1e-12
    return instances


def check_sw_invariance(instances=100, seed=107):
    """Shapiro-Wilk W and p are invariant under affine transforms a*x + b."""
    rng = np.random.default_rng(seed)
    for _ in range(instances):
        n = int(rng.integers(5, 60))
        x = rng.normal(0.0, 1.0, size=n)
        a = float(rng.uniform(0.1, 9.0)) * (1.0 if rng.uniform() < 0.5 else -1.0)
        b = float(rng.uniform(-50.0, 50.0))
        r1 = shapiro_wilk([float(v) for v in x])
        r2 = shapiro_wilk([float(a * v + b) for v in x])
        assert abs(r1.w - r2.w) <= 1e-9
        assert abs(r1.p.value - r2.p.value) <= 1e-7
    return instances


def check_pipeline_determinism(instances=100, seed=108):
    """Identical dataset and seed give byte-identical emitted output.

    The compared format rotates per instance so each serializer is covered
    dozens of times; every tenth instance uses an uncorrelated dataset so the
    run also covers the no-predictor-selected path of the pipeline.
    """
    rng = np.random.default_rng(seed)
    formats = ("json", "markdown", "csv")
    for i in range(instances):
        ds = _schema_dataset(rng, n=8, correlated=(i % 10 != 9))
        s = int(rng.integers(0, 10_000))
        first = reproduce_all(ds, seed=s, replicates=3)
        second = reproduce_all(ds, seed=s, replicates=3)
        fmt = formats[i % 3]
        assert emit(first, fmt) == emit(second, fmt)
    return instances


ALL_CHECKS = (
    check_residual_orthogonality,
    check_f_equals_t_squared,
    check_vif_reciprocal,
    check_eigenvalue_sum,
    check_loading_reconstruction,
    check_kmo_two_variables,
    check_sw_invariance,
    check_pipeline_determinism,
)
