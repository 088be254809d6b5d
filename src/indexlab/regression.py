"""Ordinary least squares with full diagnostics.

Estimation runs on the centered design via ``numpy.linalg.qr``, not normal
equations, so collinear predictors (VIF up to ~4 in the bundled data) stay
well conditioned. Summary statistics follow the usual package conventions:
RMSE is the residual standard error with n-k-1 degrees of freedom,
standardized residuals are internally studentized, and the Durbin-Watson
p-value comes from a seeded permutation bootstrap of the residuals. The
dataset functions (``fit_ols``, ``null_model``, ``stepwise_fit``) and the
array estimators (``OLS``, ``StepwiseOLS``) share one least-squares fit,
``_ols_arrays``, and one stepwise search, ``_stepwise``.

A run draws the bootstrap's permutations once and scores every residual
vector on them: ``reproduce_all`` passes its three fits to one scorer,
``_durbin_watson_many``, and ``durbin_watson`` is that scorer for one
vector. The draw seeds one PCG64 and takes its raw 64-bit outputs as keys,
n per replicate, with each key's low bits set to its column index, so that
the keys of a row are distinct. Each row is then sorted, and the low bits of
the sorted keys are read back as the permutation: the order that an argsort
of the keys gives, and the same for every sort algorithm. numpy promises to
keep the bit generators' raw streams across versions (NEP 19), so replicate
i depends only on (seed, n, i). The replicates are drawn in chunks of 256
rows and each vector is scored on a chunk in one vectorized pass, so no
permutation matrix is stored and scratch memory does not grow with the
replicate count. A replicate whose d is within 1e-12 (relative) of the
observed d is a tie and counts on both sides of the two-tailed test, and the
p-value counts the observed order among the permutations, (b + 1) / (R + 1),
so it is never 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .base import BaseEstimator, check_array, check_X_y
from .dataset import Dataset
from .distributions import PValue, f_tail_p, t_two_tailed_p
from .errors import (
    DefinitionError,
    InsufficientDataError,
    SingularDesignError,
    ValidationError,
)

DEFAULT_P_ENTER = 0.05
DEFAULT_P_REMOVE = 0.10
DEFAULT_REPLICATES = 10_000
DEFAULT_SEED = 42
# the most Durbin-Watson replicates one call accepts, a bound on its run time
# (about 100 s at n = 29 on a 2-CPU x86-64 host)
MAX_REPLICATES = 10**8
# the Durbin-Watson permutation scheme, as report provenance names it: the
# argsort of the masked raw keys, which the low bits of the sorted keys give
DW_PERMUTATION = "pcg64-raw-keys-argsort"

STD_RESIDUAL_FLAG = 3.0
COOKS_FLAG = 1.0

# Durbin-Watson bootstrap: replicates drawn and scored per vectorized pass,
# and the relative distance from the observed d within which a replicate is
# a tie
_SCORE_CHUNK = 256
_DW_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class AnovaBlock:
    ss_regression: float
    df: int
    mean_square: float
    f: float
    p: PValue


@dataclass(frozen=True)
class LinearModelFit:
    response: str
    predictors: tuple[str, ...]
    coefficients: tuple[float, ...]
    standard_errors: tuple[float, ...]
    t_values: tuple[float, ...]
    p_values: tuple[PValue, ...]
    standardized_betas: tuple[float | None, ...]
    r: float
    r_squared: float
    adjusted_r_squared: float
    rmse: float
    anova: AnovaBlock | None
    residuals: tuple[float, ...]
    fitted: tuple[float, ...]
    leverage: tuple[float, ...]
    df_residual: int

    @property
    def n(self) -> int:
        return len(self.residuals)

    @property
    def intercept(self) -> float:
        return self.coefficients[0]

    def slope(self, predictor: str) -> float:
        return self.coefficients[1 + self.predictors.index(predictor)]


@dataclass(frozen=True)
class DurbinWatsonResult:
    d: float
    autocorrelation: float
    p: PValue


@dataclass(frozen=True)
class CollinearityReport:
    predictors: tuple[str, ...]
    tolerance: tuple[float, ...]
    vif: tuple[float, ...]


@dataclass(frozen=True)
class CasewiseDiagnostics:
    cooks_distance: tuple[float, ...]
    standardized_residuals: tuple[float, ...]
    flagged: tuple[int, ...]


@dataclass(frozen=True)
class StepwiseStep:
    action: str
    predictor: str | int
    p: float


def _t_statistic(coef: float, se: float) -> float:
    if se == 0.0:
        return math.copysign(math.inf, coef) if coef else 0.0
    return coef / se


def _centred_qr(xc: np.ndarray, predictor_names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Thin Q and upper-triangular R of the centred predictors, after the rank
    test: a column whose |R_jj| is at rounding level depends on the columns
    before it."""
    n = xc.shape[0]
    col_norms = np.sqrt((xc * xc).sum(axis=0))
    q_thin, r_mat = np.linalg.qr(xc)
    tol = n * np.finfo(float).eps * max(float(col_norms.max()), 1.0)
    for j, name in enumerate(predictor_names):
        if abs(float(r_mat[j, j])) <= tol:
            raise SingularDesignError(
                f"design is rank deficient: column {name!r} is "
                "linearly dependent on the preceding columns (or constant)"
            )
    return q_thin, r_mat


def _ols_arrays(x: np.ndarray, y: np.ndarray, response: str,
                predictor_names: Sequence[str]) -> LinearModelFit:
    """Least-squares fit of y on the columns of x, which may have zero
    columns for the intercept-only model.

    x is taken C-ordered, so a column slice of a design sums its means in the
    same order as a fresh copy and the fit does not depend on memory layout.
    """
    x = np.ascontiguousarray(x)
    n, k = x.shape
    if n < k + 2:
        raise InsufficientDataError(
            f"need at least {k + 2} rows to fit {k} predictors with an intercept, got {n}"
        )
    y_mean = float(np.mean(y))
    yc = y - y_mean
    sst = float(yc @ yc)
    df_residual = n - k - 1

    x_means = x.mean(axis=0)
    if k:
        q_thin, r_mat = _centred_qr(x - x_means, predictor_names)
        # R is upper triangular with a nonzero diagonal, so partial pivoting
        # swaps no rows and this is back-substitution; inv(R) is formed only
        # for the standard errors
        slopes = np.linalg.solve(r_mat, q_thin.T @ yc)
        r_inv = np.linalg.inv(r_mat)
    else:
        q_thin, slopes, r_inv = np.zeros((n, 0)), np.zeros(0), np.zeros((0, 0))
    s_inv = r_inv @ r_inv.T
    leverage = 1.0 / n + (q_thin * q_thin).sum(axis=1)

    intercept = y_mean - float(x_means @ slopes)
    fitted = intercept + x @ slopes
    residuals = y - fitted
    ss_res = float(residuals @ residuals)
    rmse = math.sqrt(ss_res / df_residual) if df_residual > 0 else 0.0

    r_squared = max(0.0, 1.0 - ss_res / sst) if k and sst > 0.0 else 0.0
    adjusted = 1.0 - (1.0 - r_squared) * (n - 1) / df_residual

    se_intercept = rmse * math.sqrt(1.0 / n + float(x_means @ s_inv @ x_means))
    se_slopes = rmse * np.sqrt(np.diag(s_inv))

    coefficients = (intercept, *slopes.tolist())
    standard_errors = (se_intercept, *se_slopes.tolist())
    t_values = tuple(_t_statistic(c, s) for c, s in zip(coefficients, standard_errors))

    s_y = math.sqrt(sst / (n - 1)) if n > 1 else 0.0
    betas: list[float | None] = [None]
    for j in range(k):
        s_xj = float(np.std(x[:, j], ddof=1))
        betas.append(float(slopes[j]) * s_xj / s_y if s_y > 0.0 else 0.0)

    anova = None
    if k:
        ss_reg = sst - ss_res
        ms_reg = ss_reg / k
        ms_res = ss_res / df_residual
        f_stat = ms_reg / ms_res if ms_res else math.inf
        anova = AnovaBlock(ss_regression=ss_reg, df=k, mean_square=ms_reg, f=f_stat,
                           p=f_tail_p(max(0.0, f_stat), k, df_residual))

    return LinearModelFit(
        response=response,
        predictors=tuple(predictor_names),
        coefficients=coefficients,
        standard_errors=standard_errors,
        t_values=t_values,
        p_values=tuple(t_two_tailed_p(t, df_residual) for t in t_values),
        standardized_betas=tuple(betas),
        r=math.sqrt(r_squared),
        r_squared=r_squared,
        adjusted_r_squared=adjusted,
        rmse=rmse,
        anova=anova,
        residuals=tuple(residuals.tolist()),
        fitted=tuple(fitted.tolist()),
        leverage=tuple(leverage.tolist()),
        df_residual=df_residual,
    )


def _stepwise(x: np.ndarray, y: np.ndarray, response: str, names: Sequence[str],
              p_enter: float, p_remove: float
              ) -> tuple[tuple[int, ...], tuple[StepwiseStep, ...], LinearModelFit]:
    """Forward-entry, backward-removal search over the columns of x.

    Returns the selected column indices, the trace (predictors as column
    indices) and the fit of the final selection, the intercept-only fit when
    nothing is selected.
    """
    if not p_enter < p_remove:
        raise ValidationError(f"p_enter ({p_enter}) must be below p_remove ({p_remove})")
    selected: list[int] = []
    trace: list[StepwiseStep] = []
    while True:
        steps = len(trace)
        best_j, best_p = -1, math.inf
        for j in [j for j in range(x.shape[1]) if j not in selected]:
            cols = selected + [j]
            try:
                p = _ols_arrays(x[:, cols], y, response,
                                [names[c] for c in cols]).p_values[-1].value
            except SingularDesignError:
                continue
            if p < best_p:
                best_j, best_p = j, p
        if best_p < p_enter:
            selected.append(best_j)
            trace.append(StepwiseStep("add", best_j, best_p))
        while selected:
            fit = _ols_arrays(x[:, selected], y, response, [names[j] for j in selected])
            slope_ps = [pv.value for pv in fit.p_values[1:]]
            worst = max(range(len(selected)), key=slope_ps.__getitem__)
            if not slope_ps[worst] > p_remove:
                break
            trace.append(StepwiseStep("remove", selected.pop(worst), slope_ps[worst]))
        if len(trace) == steps:
            break
    # a non-empty selection was last fitted by the removal loop's final pass
    if not selected:
        fit = _ols_arrays(x[:, :0], y, response, ())
    return tuple(selected), tuple(trace), fit


class OLS(BaseEstimator):
    """Least-squares linear regression with an intercept.

    Follows the fit/predict estimator convention: `fit(X, y)` stores the
    results as trailing-underscore attributes and returns self.
    """

    def fit(self, X, y) -> "OLS":
        X, y = check_X_y(X, y)
        return self._adopt(_ols_arrays(X, y, "y", [f"x{j}" for j in range(X.shape[1])]))

    def _adopt(self, fit: LinearModelFit) -> "OLS":
        """Store one least-squares fit as the fitted state."""
        self.n_features_in_ = len(fit.predictors)
        self.intercept_ = fit.intercept
        self.coef_ = np.array(fit.coefficients[1:])
        self.stats_ = fit
        return self

    def predict(self, X) -> np.ndarray:
        self._check_fitted("stats_")
        X = check_array(X, name="X")
        if X.shape[1] != self.n_features_in_:
            raise ValidationError(
                f"X has {X.shape[1]} columns, expected {self.n_features_in_}"
            )
        return self.intercept_ + X @ self.coef_


class StepwiseOLS(BaseEstimator):
    """Forward-entry, backward-removal stepwise least squares.

    At each round the candidate whose coefficient would have the smallest
    p-value enters if that p < p_enter; included predictors with p > p_remove
    are then dropped, worst first, until the model is stable. The final
    model's predictors are named by their column in X (``x1``, ``x3``).
    """

    def __init__(self, p_enter: float = DEFAULT_P_ENTER,
                 p_remove: float = DEFAULT_P_REMOVE):
        self.p_enter = p_enter
        self.p_remove = p_remove

    def fit(self, X, y) -> "StepwiseOLS":
        X, y = check_X_y(X, y)
        self.selected_, self.trace_, fit = _stepwise(
            X, y, "y", [f"x{j}" for j in range(X.shape[1])], self.p_enter, self.p_remove)
        self.model_ = OLS()._adopt(fit) if self.selected_ else None
        return self

    def predict(self, X) -> np.ndarray:
        self._check_fitted("selected_")
        X = check_array(X, name="X")
        if self.model_ is None:
            raise DefinitionError("no predictor entered the model; nothing to predict with")
        return self.model_.predict(X[:, list(self.selected_)])


def _dataset_arrays(dataset: Dataset, response: str,
                    predictors: Sequence[str]) -> tuple[np.ndarray, np.ndarray, str, tuple[str, ...]]:
    response_name = dataset.resolve_column(response)
    names = tuple(dataset.resolve_column(p) for p in predictors)
    if response_name in names:
        raise ValidationError(f"response {response_name!r} cannot be its own predictor")
    return dataset.array(names), dataset.array([response_name])[:, 0], response_name, names


def fit_ols(dataset: Dataset, response: str, predictors: Sequence[str]) -> LinearModelFit:
    """Least-squares fit of a dataset response on named predictor columns."""
    x, y, response_name, names = _dataset_arrays(dataset, response, predictors)
    return _ols_arrays(x, y, response_name, names)


def null_model(dataset: Dataset, response: str) -> LinearModelFit:
    """Intercept-only fit: intercept = mean, RMSE = sample standard deviation."""
    return fit_ols(dataset, response, ())


def anova(fit: LinearModelFit) -> AnovaBlock:
    """Regression sum of squares, df, mean square, F, and p for a fitted model."""
    if fit.anova is None:
        raise DefinitionError("ANOVA is undefined for the intercept-only model")
    return fit.anova


def _dw_statistic(residuals: np.ndarray) -> tuple[float, float]:
    diffs = np.diff(residuals)
    ss = float(residuals @ residuals)
    d = float(diffs @ diffs) / ss
    autocorrelation = float(residuals[1:] @ residuals[:-1]) / ss
    return d, autocorrelation


def _check_bootstrap(replicates: int, seed: int) -> None:
    """Reject a replicate count or seed the bootstrap cannot run with."""
    if replicates < 1:
        raise ValidationError(f"replicates must be at least 1, got {replicates}")
    if replicates > MAX_REPLICATES:
        raise ValidationError(f"replicates must be at most {MAX_REPLICATES}, got {replicates}")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")


def _permutation_chunks(seed: int, n: int, replicates: int) -> Iterator[np.ndarray]:
    """The bootstrap's permutations of range(n), as (m, n) index arrays of
    up to ``_SCORE_CHUNK`` rows each, ``replicates`` rows in all.

    Row i orders the raw 64-bit outputs i*n to (i+1)*n - 1 of
    ``PCG64(seed)`` as keys, each with its low bits overwritten by its column
    index. The keys of a row are then distinct, so sorting them gives one
    order whatever the algorithm, numpy version or CPU, and the low bits of
    the sorted keys are the column indices in that order: the argsort of the
    keys. A tie in the random high bits (probability below n**2 / 2**(65 - b)
    per row for b low bits) goes to the lower column. A run's rows are the
    first rows of any longer run.
    """
    bitgen = np.random.PCG64(seed)
    low_bits = np.uint64((1 << max(1, (n - 1).bit_length())) - 1)
    columns = np.arange(n, dtype=np.uint64)
    for start in range(0, replicates, _SCORE_CHUNK):
        rows = min(_SCORE_CHUNK, replicates - start)
        keys = bitgen.random_raw(rows * n).reshape(rows, n)
        keys &= ~low_bits
        keys |= columns
        keys.sort(axis=1)
        keys &= low_bits
        # every index is below 2**63: a signed view indexes without a cast
        yield keys.view(np.int64)


def _durbin_watson_many(fits: Sequence[LinearModelFit | Sequence[float]],
                        replicates: int, seed: int) -> list[DurbinWatsonResult]:
    """``durbin_watson`` of each of one or more residual vectors of one
    length, all scored on one draw of the permutations: each vector's result
    equals that of its own call."""
    # contiguous: the dot products of a strided view sum in another order
    stack = [np.ascontiguousarray(check_array(
        fit.residuals if isinstance(fit, LinearModelFit) else fit, name="fit", ndim=1))
        for fit in fits]
    for residuals in stack:
        if residuals.shape[0] < 3:
            raise InsufficientDataError(
                f"Durbin-Watson needs at least 3 residuals, got {residuals.shape[0]}")
    _check_bootstrap(replicates, seed)
    n = stack[0].shape[0]
    if any(residuals.shape[0] != n for residuals in stack):
        raise ValidationError("Durbin-Watson residual vectors differ in length: "
                              + ", ".join(str(residuals.shape[0]) for residuals in stack))
    sums = [float(residuals @ residuals) for residuals in stack]
    if 0.0 in sums:
        raise ValidationError("Durbin-Watson is undefined for all-zero residuals")
    observed = [_dw_statistic(residuals) for residuals in stack]

    at_or_above = [0] * len(stack)
    at_or_below = [0] * len(stack)
    for perms in _permutation_chunks(seed, n, replicates):
        # one vector at a time: a (k, m, n) gather would cost more than it saves
        for i, (residuals, ss, (d, _)) in enumerate(zip(stack, sums, observed)):
            diffs = np.diff(residuals[perms], axis=1)
            d_perm = (diffs * diffs).sum(axis=1) / ss
            tie = _DW_TIE_RTOL * d
            at_or_above[i] += int(np.count_nonzero(d_perm >= d - tie))
            at_or_below[i] += int(np.count_nonzero(d_perm <= d + tie))
    return [DurbinWatsonResult(
        d=d, autocorrelation=autocorrelation,
        p=PValue(min(1.0, 2.0 * (min(above, below) + 1) / (replicates + 1)), "two-tailed"))
        for (d, autocorrelation), above, below in zip(observed, at_or_above, at_or_below)]


def durbin_watson(fit: LinearModelFit | Sequence[float],
                  replicates: int = DEFAULT_REPLICATES,
                  seed: int = DEFAULT_SEED) -> DurbinWatsonResult:
    """Durbin-Watson d with lag-1 autocorrelation and a permutation-bootstrap p.

    Accepts a fitted model or a raw residual sequence in row order. Each
    call draws its permutations from one ``PCG64(seed)`` raw stream (see
    ``_permutation_chunks``) and stores no permutation matrix: it scores
    ``_SCORE_CHUNK`` replicates at a time, each chunk one vectorized pass
    over the permuted residuals divided by their sum of squares, which no
    permutation changes. Replicate i depends only on (seed, n, i).

    p = min(1, 2 (min(b_ge, b_le) + 1) / (R + 1)), where b_ge and b_le count
    replicates with d_perm >= d and d_perm <= d; the +1 counts the observed
    order, so p is never 0 (Phipson & Smyth 2010). A replicate with
    |d_perm - d| <= 1e-12 d is a tie and counts on both sides, so a
    permutation whose d equals the observed d in exact arithmetic (the
    identity, the reversal) is counted the same whatever order its sums were
    taken in. R must be between 1 and ``MAX_REPLICATES``.
    """
    return _durbin_watson_many([fit], replicates, seed)[0]


def collinearity(dataset: Dataset, predictors: Sequence[str]) -> CollinearityReport:
    """Tolerance (1 - R^2 of each predictor on the rest) and VIF per predictor.

    VIF_j = 1/tolerance_j = ss_j [(Xc'Xc)^-1]_jj for centred predictors Xc with
    ss_j = |Xc_j|^2: the diagonal of the inverse predictor correlation matrix
    (Marquardt 1970), from one thin QR. A rank-deficient design gives every
    predictor tolerance 0 and VIF infinity.
    """
    if len(predictors) < 2:
        raise ValidationError("collinearity needs at least 2 predictors")
    names = tuple(dataset.resolve_column(p) for p in predictors)
    x = dataset.array(names)
    n, k = x.shape
    if n < k + 1:
        raise InsufficientDataError(
            f"need at least {k + 1} rows to fit {k - 1} predictors with an intercept, got {n}"
        )
    xc = x - x.mean(axis=0)
    try:
        _, r_mat = _centred_qr(xc, names)
    except SingularDesignError:
        return CollinearityReport(predictors=names, tolerance=(0.0,) * k,
                                  vif=(math.inf,) * k)
    r_inv = np.linalg.inv(r_mat)
    # (Xc'Xc)^-1 = R^-1 R^-T, so its diagonal is the row sums of squares of R^-1
    vif = (xc * xc).sum(axis=0) * (r_inv * r_inv).sum(axis=1)
    tolerance = np.minimum(1.0, 1.0 / vif)
    return CollinearityReport(predictors=names, tolerance=tuple(tolerance.tolist()),
                              vif=tuple((1.0 / tolerance).tolist()))


def casewise_diagnostics(fit: LinearModelFit) -> CasewiseDiagnostics:
    """Internally studentized residuals, Cook's distances, and flagged rows."""
    k = len(fit.predictors)
    e, h = np.array(fit.residuals), np.array(fit.leverage)
    denom = fit.rmse * np.sqrt(np.maximum(0.0, 1.0 - h))
    # both branches are evaluated; the rejected one may divide by zero
    with np.errstate(divide="ignore", invalid="ignore"):
        std_resid = np.where(denom > 0.0, e / denom, 0.0)
        cooks = np.where(h < 1.0, std_resid * std_resid * h / ((k + 1) * (1.0 - h)), math.inf)
    flagged = np.flatnonzero((np.abs(std_resid) > STD_RESIDUAL_FLAG) | (cooks > COOKS_FLAG))
    return CasewiseDiagnostics(cooks_distance=tuple(cooks.tolist()),
                               standardized_residuals=tuple(std_resid.tolist()),
                               flagged=tuple(flagged.tolist()))


def stepwise_fit(dataset: Dataset, response: str,
                 candidates: Sequence[str]) -> tuple[LinearModelFit, tuple[StepwiseStep, ...]]:
    """Stepwise selection over candidate columns; returns the final fit and trace."""
    if not candidates:
        raise ValidationError("stepwise selection needs at least one candidate")
    x, y, response_name, names = _dataset_arrays(dataset, response, candidates)
    _, trace, fit = _stepwise(x, y, response_name, names, DEFAULT_P_ENTER, DEFAULT_P_REMOVE)
    return fit, tuple(StepwiseStep(step.action, names[step.predictor], step.p) for step in trace)


def predict(fit: LinearModelFit, x: Mapping[str, float]) -> float:
    """Evaluate the fitted linear model at the supplied predictor values."""
    unknown = sorted(set(x) - set(fit.predictors))
    if unknown:
        raise ValidationError(f"unknown predictors: {', '.join(unknown)}")
    missing = [p for p in fit.predictors if p not in x]
    if missing:
        raise ValidationError(f"missing predictor values: {', '.join(missing)}")
    value = fit.coefficients[0]
    for name, coef in zip(fit.predictors, fit.coefficients[1:]):
        value += coef * float(x[name])
    return value
