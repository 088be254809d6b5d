"""Principal component analysis on correlation matrices.

Eigenvalues come from the LAPACK symmetric eigensolver behind
``numpy.linalg.eigh``, sorted in descending order. Component retention uses
the Kaiser criterion (eigenvalue >= 1) by default, and loadings are
eigenvectors scaled by the square root of their eigenvalue with the sign
fixed so each component's largest-magnitude entry is positive.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .correlation import CorrelationMatrix, correlation_matrix
from .dataset import Dataset
from .distributions import PValue, chi2_tail_p
from .errors import DegenerateDataError, DomainError, SingularDesignError, ValidationError

KAISER_THRESHOLD = 1.0


@dataclass(frozen=True)
class HypothesisTestResult:
    statistic: float
    df: int
    p: PValue


@dataclass(frozen=True)
class PcaResult:
    variables: tuple[str, ...]
    eigenvalues: tuple[float, ...]
    retained: int
    loadings: tuple[tuple[float, ...], ...]
    variance_explained_pct: tuple[float, ...]
    cumulative_pct: tuple[float, ...]
    kmo: float
    bartlett: HypothesisTestResult


def eigen_symmetric(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors of a symmetric matrix."""
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValidationError("matrix is empty")
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix contains non-finite values")
    if float(np.max(np.abs(a - a.T))) > 1e-10:
        raise ValidationError("matrix is not symmetric within 1e-10")
    try:
        eigenvalues, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"eigendecomposition did not converge: {exc}") from exc
    order = np.argsort(-eigenvalues, kind="stable")
    return eigenvalues[order], v[:, order]


def kmo(corr: CorrelationMatrix) -> float:
    """Kaiser-Meyer-Olkin sampling adequacy from a correlation matrix.

    Anti-image partial correlations come from the inverse correlation matrix
    scaled to unit diagonal and negated off the diagonal.
    """
    r = np.array(corr.r)
    return _kmo(r, *eigen_symmetric(r))


def _kmo(r: np.ndarray, eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> float:
    p = r.shape[0]
    if p < 2:
        raise ValidationError("KMO needs at least 2 variables")
    if float(np.min(eigenvalues)) <= 1e-12:
        raise SingularDesignError("correlation matrix is singular; KMO undefined")
    r_inv = eigenvectors @ np.diag(1.0 / eigenvalues) @ eigenvectors.T
    d = 1.0 / np.sqrt(np.diag(r_inv))
    partial = -(r_inv * np.outer(d, d))
    off = ~np.eye(p, dtype=bool)
    sum_r2 = float(np.sum(r[off] ** 2))
    if sum_r2 == 0.0:
        raise DegenerateDataError("KMO is undefined when every off-diagonal correlation is zero")
    sum_q2 = float(np.sum(partial[off] ** 2))
    return sum_r2 / (sum_r2 + sum_q2)


def bartlett_sphericity(corr: CorrelationMatrix, n: int) -> HypothesisTestResult:
    """Bartlett's test that the correlation matrix is the identity."""
    eigenvalues, _ = eigen_symmetric(np.array(corr.r))
    return _bartlett(eigenvalues, n)


def _bartlett(eigenvalues: np.ndarray, n: int) -> HypothesisTestResult:
    p = eigenvalues.shape[0]
    if n <= p:
        raise ValidationError(f"Bartlett's test needs n > p, got n={n}, p={p}")
    det = float(np.prod(eigenvalues))
    if det <= 0.0:
        raise DomainError("correlation matrix has non-positive determinant")
    statistic = -(n - 1 - (2 * p + 5) / 6.0) * math.log(det)
    df = p * (p - 1) // 2
    return HypothesisTestResult(
        statistic=statistic,
        df=df,
        p=chi2_tail_p(max(0.0, statistic), df),
    )


def run_pca(dataset: Dataset, variables: Sequence[str],
            retention: float = KAISER_THRESHOLD) -> PcaResult:
    """PCA of the Pearson correlation matrix over the named columns."""
    return principal_components(correlation_matrix(dataset, variables), retention)


def principal_components(corr: CorrelationMatrix,
                         retention: float = KAISER_THRESHOLD) -> PcaResult:
    """PCA of a correlation matrix; KMO and Bartlett share its one
    eigendecomposition."""
    r = np.array(corr.r)
    p = r.shape[0]
    raw_eigenvalues, eigenvectors = eigen_symmetric(r)
    if float(np.min(raw_eigenvalues)) < -1e-8:
        raise DomainError("correlation matrix is not positive semidefinite")
    eigenvalues = np.maximum(raw_eigenvalues, 0.0)
    retained = int(np.sum(eigenvalues >= retention))

    loadings = eigenvectors[:, :retained] * np.sqrt(eigenvalues[:retained])
    anchors = loadings[np.argmax(np.abs(loadings), axis=0), np.arange(retained)]
    loadings = np.where(anchors < 0.0, -loadings, loadings)
    pct = 100.0 * eigenvalues / p

    return PcaResult(
        variables=corr.variables,
        eigenvalues=tuple(eigenvalues.tolist()),
        retained=retained,
        loadings=tuple(tuple(row) for row in loadings.tolist()),
        variance_explained_pct=tuple(pct.tolist()),
        cumulative_pct=tuple(np.cumsum(pct).tolist()),
        kmo=_kmo(r, raw_eigenvalues, eigenvectors),
        bartlett=_bartlett(raw_eigenvalues, corr.n),
    )
