"""Ordinary least squares with full diagnostics.

Estimation runs on the centered design via ``numpy.linalg.qr``, not normal
equations, so collinear predictors (VIF up to ~4 in the bundled data) stay
well conditioned. Summary statistics follow the usual package conventions:
RMSE is the residual standard error with n-k-1 degrees of freedom,
standardized residuals are internally studentized, and the Durbin-Watson
p-value comes from a seeded permutation bootstrap of the residuals. Models
are fitted on a ``Dataset``: ``fit_ols``, ``null_model`` and
``stepwise_fit`` name their columns, and every least-squares fit among them
is built by one function, ``_ols_arrays``, from one factorisation of its
design. Fitted values are taken from the centred design too. Each fit
carries its ANOVA block, and tolerance and VIF per predictor, which come
from the same ``inv(R)`` as the standard errors; a lone predictor has
tolerance 1.

Stepwise entry goes to the remaining candidate with the largest partial t
among those that keep the design full rank: one thin QR of the selected
columns residualises the response and every candidate (Frisch-Waugh-Lovell),
and only the winner is fitted in full. The p that decides its entry and that
the trace records is that full fit's. Ranking by t settles the tie that a
smallest-p rule leaves when several p-values underflow to 0.0, as they do
at n = 2,900.

A run draws the bootstrap's permutations once and scores every residual
vector on them: ``reproduce_all`` passes its three fits to one scorer,
``_durbin_watson_many``, and ``durbin_watson`` is that scorer for one
vector. The draw seeds one PCG64 and takes its raw 64-bit outputs as keys,
n per replicate, with each key's low bits set to its column index, so that
the keys of a row are distinct. Each row is then sorted, and the low bits of
the sorted keys are read back as the permutation: the order that an argsort
of the keys gives, and the same for every sort algorithm. numpy promises to
keep the bit generators' raw streams across versions (NEP 19), so replicate
i depends only on (seed, n, i). The calling thread draws and scores the
replicates in chunks of 2**15 // n rows, at least 1, so scratch memory grows
neither with R nor, below n = 2**15, with n. The draw depends on the seed
and n only, so the last draw with n <= 256 and R n <= 2**20 is kept, one
byte per index (at most 1 MiB, read-only), and a later call with its seed
and n and at most its R scores the first R kept rows, in the same chunks:
every p-value of such a hit is the same to the last bit as that of a fresh
draw. A draw is kept only once it has been scored to its end; each other
draw streams as above and leaves the kept one in place. The counts behind
each p-value are integers summed over the chunks. Up to n = 256 the scorer
first tabulates every squared difference (r_v[b] - r_v[a])^2 of every
vector, at most 256^2 per vector, and then scores all vectors on a chunk
with one gather from that table; past n = 256 each vector is gathered and
differenced on its own. Both sum the same terms in the same order, so every
permuted d, and every p-value, is the same to the last bit. A replicate
whose d is within 1e-12 (relative) of the observed d is a tie and counts on
both sides of the two-tailed test, and the p-value counts the observed order
among the permutations, (b + 1) / (R + 1), so it is never 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .base import check_array, integer, unit_exponent
from .dataset import Dataset, _check_score
from .descriptive import _moments
from .distributions import PValue, f_tail_p, t_two_tailed_p
from .errors import (DegenerateDataError, InsufficientDataError, SingularDesignError,
                     ValidationError)

DEFAULT_P_ENTER = 0.05
DEFAULT_P_REMOVE = 0.10
DEFAULT_REPLICATES = 10_000
DEFAULT_SEED = 42
# the most Durbin-Watson replicates one call accepts, a bound on its run time:
# at n = 29 on one thread of a shared x86-64 host, R = 10**6 took 0.28-0.56 s
# for one vector and 0.64-0.76 s for reproduce_all's three, so this bound is
# about 30-55 s and 65-75 s
MAX_REPLICATES = 10**8
# the Durbin-Watson permutation scheme, as report provenance names it: the
# argsort of the masked raw keys, which the low bits of the sorted keys give
DW_PERMUTATION = "pcg64-raw-keys-argsort"

STD_RESIDUAL_FLAG = 3.0
COOKS_FLAG = 1.0

# Durbin-Watson bootstrap: the largest n whose squared differences are
# tabulated (at most 256**2 entries per vector), and the relative distance
# from the observed d within which a replicate is a tie
_TABLE_MAX_N = 256
_DW_TIE_RTOL = 1e-12
# the keys of one chunk of a draw
_CHUNK_KEYS = 2**15
# the largest draw (R n) kept for the next call with its seed and n
_KEEP_KEYS = 2**20
# the last kept draw, ((seed, n), its read-only (R, n) uint8 permutations):
# set by one assignment, so a concurrent call reads the old draw or the new
_kept_draw: tuple[tuple[int, int], np.ndarray] | None = None


@dataclass(frozen=True)
class AnovaBlock:
    ss_regression: float
    df: int
    mean_square: float
    f: float
    p: PValue


@dataclass(frozen=True)
class LinearModelFit:
    """A least-squares fit with an intercept and its diagnostics.

    ``anova`` is None for the intercept-only model. ``tolerance`` is 1 - R^2
    of each predictor regressed on the others and ``vif`` its reciprocal,
    VIF_j = ss_j [(Xc'Xc)^-1]_jj for the centred predictors Xc with
    ss_j = |Xc_j|^2 (Marquardt 1970), read from the fit's own ``inv(R)``. A
    lone predictor has tolerance and VIF 1; the intercept-only model has
    neither.
    """

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
    tolerance: tuple[float, ...]
    vif: tuple[float, ...]
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
class CasewiseDiagnostics:
    cooks_distance: tuple[float, ...]
    standardized_residuals: tuple[float, ...]
    flagged: tuple[int, ...]


@dataclass(frozen=True)
class StepwiseStep:
    action: str
    predictor: str
    p: float


def _t_statistic(coef: float, se: float) -> float:
    if se == 0.0:
        return math.copysign(math.inf, coef) if coef else 0.0
    return coef / se


def _rank_tolerance(n: int, col_norms: np.ndarray) -> float:
    """The length at or below which a centred column, after its projection on
    the columns before it is removed, counts as dependent on them: n eps
    times the largest centred column norm of the design. It scales with the
    design, so the rule does not depend on the units of the data."""
    return n * np.finfo(float).eps * float(col_norms.max())


def _centred_qr(xc: np.ndarray,
                predictor_names: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin Q and upper-triangular R of the centred predictors, after the rank
    test (a constant column, or one whose |R_jj| is at rounding level,
    depends on the columns before it), and the column sums of squares the
    test reads."""
    q_thin, r_mat = np.linalg.qr(xc)
    ss_cols = (xc * xc).sum(axis=0)
    tol = _rank_tolerance(xc.shape[0], np.sqrt(ss_cols))
    # by spread: a constant column whose mean is inexact keeps a little noise
    # when centred, which a tolerance relative to the design need not exceed;
    # the first and last rows rule out nearly every other column cheaply
    constant = xc[0] == xc[-1]
    if constant.any():
        constant &= np.ptp(xc, axis=0) == 0.0
    for j, name in enumerate(predictor_names):
        if constant[j] or abs(float(r_mat[j, j])) <= tol:
            raise SingularDesignError(
                f"design is rank deficient: column {name!r} is "
                "linearly dependent on the preceding columns (or constant)"
            )
    return q_thin, r_mat, ss_cols


def _check_rows(n: int, k: int) -> None:
    if n < k + 2:
        raise InsufficientDataError(
            f"need at least {k + 2} rows to fit {k} predictors with an intercept, got {n}"
        )


def _ols_arrays(x: np.ndarray, y: np.ndarray, response: str,
                predictor_names: Sequence[str]) -> LinearModelFit:
    """Least-squares fit of y on the columns of x, which may have zero
    columns for the intercept-only model.

    x is taken C-ordered, so a column slice of a design sums its means in the
    same order as a fresh copy and the fit does not depend on memory layout.
    x and y are first scaled by one power of two, 2^-e, that brings their
    largest magnitude into [0.5, 1), so no square overflows or underflows;
    the results that carry the data's unit are scaled back at the end. A
    power of two commutes with rounding, so every result is the same at any
    scale of the data, up to that factor.
    """
    n, k = x.shape
    _check_rows(n, k)
    if k and np.ptp(y) == 0.0:
        raise DegenerateDataError(f"response {response!r} is constant: R^2 is undefined")
    e = unit_exponent(x, y)
    x = np.ldexp(np.ascontiguousarray(x), -e)
    y = np.ldexp(y, -e)
    df_residual = n - k - 1

    x_means = x.mean(axis=0)
    xc = x - x_means
    if k:
        y_mean = float(np.mean(y))
        yc = y - y_mean
        sst = float(yc @ yc)
        q_thin, r_mat, ss_cols = _centred_qr(xc, predictor_names)
        # R is upper triangular with a nonzero diagonal, so partial pivoting
        # swaps no rows and this is back-substitution; inv(R) is formed only
        # for the standard errors and VIF
        slopes = np.linalg.solve(r_mat, q_thin.T @ yc)
        r_inv = np.linalg.inv(r_mat)
    else:
        # the intercept-only model takes its mean and sum of squares from
        # describe's exact pass, so its intercept is the sample mean and its
        # RMSE the sample standard deviation to the last bit; y is at unit
        # scale already, so that pass scales it by 2^0
        stats, _, sst = _moments(y)
        y_mean = stats.mean
        q_thin, r_inv = np.zeros((n, 0)), np.zeros((0, 0))
        slopes = ss_cols = np.zeros(0)
    s_inv = r_inv @ r_inv.T
    s_diag = np.diag(s_inv)
    leverage = 1.0 / n + (q_thin * q_thin).sum(axis=1)

    intercept = y_mean - float(x_means @ slopes)
    # from the centred design: a predictor whose spread is small against its
    # mean would lose its digits in intercept + x @ slopes
    fitted = y_mean + xc @ slopes
    residuals = y - fitted
    ss_res = float(residuals @ residuals) if k else sst
    rmse = math.sqrt(ss_res / df_residual) if df_residual > 0 else 0.0

    # a fit with predictors has sst > 0: its response is not constant
    r_squared = max(0.0, 1.0 - ss_res / sst) if k else 0.0
    adjusted = 1.0 - (1.0 - r_squared) * (n - 1) / df_residual

    se_intercept = rmse * math.sqrt(1.0 / n + float(x_means @ s_inv @ x_means))
    se_slopes = rmse * np.sqrt(s_diag)

    coefficients = (intercept, *slopes.tolist())
    standard_errors = (se_intercept, *se_slopes.tolist())
    t_values = tuple(_t_statistic(c, s) for c, s in zip(coefficients, standard_errors))
    # the intercept and its standard error carry the data's unit; the slopes
    # and theirs are ratios of it
    coefficients = (math.ldexp(intercept, e), *coefficients[1:])
    standard_errors = (math.ldexp(se_intercept, e), *standard_errors[1:])

    # each predictor's standard deviation from the rank test's sums of squares
    s_y = math.sqrt(sst / (n - 1))
    s_x = np.sqrt(ss_cols / (n - 1))
    betas = [None, *(slopes * s_x / s_y).tolist()]

    # VIF_j = ss_j [(Xc'Xc)^-1]_jj (Marquardt 1970), the diagonal the slopes'
    # standard errors read; a lone predictor has tolerance 1 by definition
    if k >= 2:
        tolerance = np.minimum(1.0, 1.0 / (ss_cols * s_diag))
    else:
        tolerance = np.ones(k)

    anova = None
    if k:
        ss_reg = sst - ss_res
        ms_reg = ss_reg / k
        ms_res = ss_res / df_residual
        f_stat = ms_reg / ms_res if ms_res else math.inf
        anova = AnovaBlock(ss_regression=math.ldexp(ss_reg, 2 * e), df=k,
                           mean_square=math.ldexp(ms_reg, 2 * e), f=f_stat,
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
        rmse=math.ldexp(rmse, e),
        anova=anova,
        tolerance=tuple(tolerance.tolist()),
        vif=tuple((1.0 / tolerance).tolist()),
        residuals=tuple(np.ldexp(residuals, e).tolist()),
        fitted=tuple(np.ldexp(fitted, e).tolist()),
        leverage=tuple(leverage.tolist()),
        df_residual=df_residual,
    )


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
    """Intercept-only fit: intercept = mean, RMSE = sample standard deviation,
    each the same float as ``describe`` gives, as both come from its exact
    pass over the column."""
    return fit_ols(dataset, response, ())


def _dw_statistic(residuals: np.ndarray) -> tuple[float, float]:
    diffs = np.diff(residuals)
    ss = float(residuals @ residuals)
    d = float(diffs @ diffs) / ss
    autocorrelation = float(residuals[1:] @ residuals[:-1]) / ss
    return d, autocorrelation


def _check_bootstrap(replicates: int, seed: int) -> tuple[int, int]:
    """The replicate count and seed as Python ints, if the bootstrap can run with them."""
    replicates, seed = integer(replicates, "replicates"), integer(seed, "seed")
    if replicates < 1:
        raise ValidationError(f"replicates must be at least 1, got {replicates}")
    if replicates > MAX_REPLICATES:
        raise ValidationError(f"replicates must be at most {MAX_REPLICATES}, got {replicates}")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    return replicates, seed


def _chunk_rows(n: int) -> int:
    """The rows of one chunk of permutations of range(n)."""
    return max(1, _CHUNK_KEYS // n)


def _permutation_chunks(seed: int, n: int, replicates: int) -> Iterator[np.ndarray]:
    """The bootstrap's first ``replicates`` permutations of range(n), as
    (m, n) index arrays of ``_chunk_rows(n)`` rows, the last one shorter.

    Row i orders the raw 64-bit outputs i*n to (i+1)*n - 1 of
    ``PCG64(seed)`` as keys, each with its low bits overwritten by its column
    index. The keys of a row are then distinct, so sorting them gives one
    order whatever the algorithm, numpy version or CPU, and the low bits of
    the sorted keys are the column indices in that order: the argsort of the
    keys. A tie in the random high bits (probability below n**2 / 2**(65 - b)
    per row for b low bits) goes to the lower column. A run's rows are the
    first rows of any longer run.
    """
    rows = _chunk_rows(n)
    bitgen = np.random.PCG64(seed)
    low_bits = np.uint64((1 << max(1, (n - 1).bit_length())) - 1)
    columns = np.arange(n, dtype=np.uint64)
    for first in range(0, replicates, rows):
        m = min(rows, replicates - first)
        keys = bitgen.random_raw(m * n).reshape(m, n)
        keys &= ~low_bits
        keys |= columns
        keys.sort(axis=1)
        keys &= low_bits
        # every index is below 2**63: a signed view indexes without a cast
        yield keys.view(np.int64)


def _step_sums(stack: Sequence[np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """For k residual vectors of length n, the function from an (m, n) chunk
    of permutations to the (k, m) sums of squared successive differences of
    each vector in each order.

    Up to n = ``_TABLE_MAX_N`` it reads a table built once,
    T[v, a << bits | b] = (r_v[b] - r_v[a])^2 with 2**bits >= n, and a
    chunk's n - 1 steps of every vector are one gather from it. The table
    has at most k * 256**2 entries; past that bound (at n = 2,900 it would
    take 3 * 4096**2 doubles) each vector is gathered and differenced on its
    own. Both give the same sums to the last bit.
    """
    n = stack[0].shape[0]
    if n > _TABLE_MAX_N:
        # one vector at a time: a (k, m, n) gather would cost more than it saves
        def per_vector(perms: np.ndarray) -> np.ndarray:
            rows = []
            for residuals in stack:
                diffs = np.diff(residuals[perms], axis=1)
                rows.append((diffs * diffs).sum(axis=1))
            return np.stack(rows)
        return per_vector

    bits = (n - 1).bit_length()
    table = np.zeros((len(stack), 1 << bits, 1 << bits))
    # filled in place: no (k, n, n) temporary
    block = table[:, :n, :n]
    vectors = np.stack(stack)
    np.subtract(vectors[:, None, :], vectors[:, :, None], out=block)
    np.square(block, out=block)
    table = table.reshape(len(stack), -1)

    def from_table(perms: np.ndarray) -> np.ndarray:
        pairs = perms[:, :-1] << bits
        pairs |= perms[:, 1:]
        # np.take, not table[:, pairs]: its C-ordered result sums each row in
        # the order of (diffs * diffs).sum(axis=1), so the sums are the same
        return np.take(table, pairs, axis=1).sum(axis=2)
    return from_table


def _durbin_watson_many(fits: Sequence[LinearModelFit | Sequence[float]],
                        replicates: int, seed: int) -> list[DurbinWatsonResult]:
    """``durbin_watson`` of each of one or more residual vectors of one
    length, all scored on one draw of the permutations: each vector's result
    equals that of its own call.

    The chunks of the draw (see the module docstring) are scored in turn,
    and each vector's replicates on either side of its observed d are
    counted."""
    global _kept_draw
    # contiguous: the dot products of a strided view sum in another order
    stack = [np.ascontiguousarray(check_array(
        fit.residuals if isinstance(fit, LinearModelFit) else fit, name="fit"))
        for fit in fits]
    for residuals in stack:
        if residuals.shape[0] < 3:
            raise InsufficientDataError(
                f"Durbin-Watson needs at least 3 residuals, got {residuals.shape[0]}")
    replicates, seed = _check_bootstrap(replicates, seed)
    n = stack[0].shape[0]
    if any(residuals.shape[0] != n for residuals in stack):
        raise ValidationError("Durbin-Watson residual vectors differ in length: "
                              + ", ".join(str(residuals.shape[0]) for residuals in stack))
    # d and the autocorrelation do not change when every residual is scaled
    # by one factor, and a power of two scales each product exactly, so each
    # vector is brought to max|r| in [0.5, 1): no square or sum of squares
    # overflows, and none underflows unless its term is negligible in the sum
    stack = [np.ldexp(residuals, -unit_exponent(residuals)) for residuals in stack]
    sums = [float(residuals @ residuals) for residuals in stack]
    # before the all-zero check, so that an exact fit is named as one
    if any(isinstance(fit, LinearModelFit) and 1.0 - fit.r_squared <= n * np.finfo(float).eps
           for fit in fits):
        raise ValidationError("Durbin-Watson is undefined for residuals at rounding "
                              "level: the model fits the response exactly")
    if not all(sums):
        raise ValidationError("Durbin-Watson is undefined for all-zero residuals")
    observed = [_dw_statistic(residuals) for residuals in stack]
    ss = np.array(sums)[:, None]
    lower = np.array([d - _DW_TIE_RTOL * d for d, _ in observed])[:, None]
    upper = np.array([d + _DW_TIE_RTOL * d for d, _ in observed])[:, None]

    step_sums = _step_sums(stack)
    kept = _kept_draw
    if kept is not None and kept[0] == (seed, n) and kept[1].shape[0] >= replicates:
        stored, rows, draw = kept[1][:replicates], _chunk_rows(n), None
        chunks = (stored[first:first + rows].astype(np.int64)
                  for first in range(0, replicates, rows))
    else:
        chunks = _permutation_chunks(seed, n, replicates)
        draw = (np.empty((replicates, n), dtype=np.uint8)
                if n <= _TABLE_MAX_N and replicates * n <= _KEEP_KEYS else None)

    at_or_above = np.zeros(len(stack), dtype=np.int64)
    at_or_below = np.zeros(len(stack), dtype=np.int64)
    filled = 0
    for perms in chunks:
        if draw is not None:
            draw[filled:filled + perms.shape[0]] = perms
            filled += perms.shape[0]
        d_perm = step_sums(perms) / ss
        at_or_above += np.count_nonzero(d_perm >= lower, axis=1)
        at_or_below += np.count_nonzero(d_perm <= upper, axis=1)
        del d_perm, perms  # so that no chunk's arrays outlive its pass
    if draw is not None:
        # the whole draw is scored: a failed draw never gets here
        draw.flags.writeable = False
        _kept_draw = ((seed, n), draw)
    return [DurbinWatsonResult(
        d=d, autocorrelation=autocorrelation,
        p=PValue(min(1.0, 2.0 * (min(above, below) + 1) / (replicates + 1))))
        for (d, autocorrelation), above, below
        in zip(observed, at_or_above.tolist(), at_or_below.tolist())]


def durbin_watson(fit: LinearModelFit | Sequence[float],
                  replicates: int = DEFAULT_REPLICATES,
                  seed: int = DEFAULT_SEED) -> DurbinWatsonResult:
    """Durbin-Watson d with lag-1 autocorrelation and a permutation-bootstrap p.

    Accepts a fitted model or a raw residual sequence in row order. The
    permutations are drawn from the seed and scored as the module docstring
    sets out, so p depends only on the residuals, R and the seed.

    p = min(1, 2 (min(b_ge, b_le) + 1) / (R + 1)), where b_ge and b_le count
    replicates with d_perm >= d and d_perm <= d; the +1 counts the observed
    order, so p is never 0 (Phipson & Smyth 2010). A replicate with
    |d_perm - d| <= 1e-12 d is a tie and counts on both sides, so a
    permutation whose d equals the observed d in exact arithmetic (the
    identity, the reversal) is counted the same whatever order its sums were
    taken in. R must be an integer between 1 and ``MAX_REPLICATES``, and the
    seed a non-negative integer. All-zero residuals, and those of a fit with
    1 - R^2 <= n eps (an exact fit), have no d. The residuals are first
    scaled by the power of two that brings their largest magnitude into
    [0.5, 1), which changes no d, so residuals of any finite magnitude are
    scored as exactly as those near 1.
    """
    return _durbin_watson_many([fit], replicates, seed)[0]


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


def _entry_order(xc: np.ndarray, yc: np.ndarray, col_norms: np.ndarray,
                 selected: list[int], remaining: list[int]) -> list[int]:
    """The remaining candidates that pass the rank rule, largest partial t first.

    Frisch-Waugh-Lovell: the centred response and candidates are residualised
    on one thin QR of the selected columns, giving e and each r_j, and the t
    of r_j's slope in a fit of e on r_j is that of candidate j in the full fit
    of the selected columns plus j, with df = n - len(selected) - 2. A
    candidate whose |r_j| is within ``_centred_qr``'s rounding tolerance for
    that design is left out. Equal t keep the listed order.
    """
    n = xc.shape[0]
    z = np.column_stack([yc, xc[:, remaining]])
    if selected:
        q_thin = np.linalg.qr(xc[:, selected])[0]
        z -= q_thin @ (q_thin.T @ z)
    e, r = z[:, 0], z[:, 1:]
    rr = (r * r).sum(axis=0)
    tol = [_rank_tolerance(n, col_norms[selected + [j]]) for j in remaining]
    keep = np.flatnonzero(np.sqrt(rr) > tol)
    slopes = (e @ r[:, keep]) / rr[keep]
    resid = e[:, None] - r[:, keep] * slopes
    ss_res = (resid * resid).sum(axis=0)
    # t^2 = slope^2 |r|^2 df / ss_res; an exact fit has |t| infinite unless
    # the slope is 0
    signal = slopes * slopes * rr[keep] * (n - len(selected) - 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_squared = np.where(ss_res > 0.0, signal / ss_res, np.where(signal > 0.0, math.inf, 0.0))
    return [remaining[keep[i]] for i in np.argsort(-t_squared, kind="stable")]


def stepwise_fit(dataset: Dataset, response: str,
                 candidates: Sequence[str]) -> tuple[LinearModelFit, tuple[StepwiseStep, ...]]:
    """Forward-entry, backward-removal stepwise selection over candidate columns.

    Each round the remaining candidate with the largest partial |t| enters if
    its p < ``DEFAULT_P_ENTER``; predictors with p > ``DEFAULT_P_REMOVE`` then
    leave, worst first. The partial t of every remaining candidate comes from
    one thin QR of the selected columns (``_entry_order``), and a candidate
    that would make the design rank deficient is skipped. Only the winner is
    fitted in full, with the selected columns; if that fit is singular after
    all, the next candidate is tried. The p that decides entry and that the
    trace records is the winner's p in that full fit, and the fit is also the
    first pass of the removal check. Ranking by t, not by p, settles the
    ties among p-values that underflow to 0.0 (at n = 2,900, |t| above about
    44) in favour of the largest |t|, where a smallest-p rule would take the
    first-listed candidate. Returns the final fit (intercept-only when
    nothing is selected) and the trace.
    """
    if not candidates:
        raise ValidationError("stepwise selection needs at least one candidate")
    x, y, response_name, names = _dataset_arrays(dataset, response, candidates)
    n = x.shape[0]
    # ranked, as ``_ols_arrays`` fits, at a power-of-two scale where no
    # square overflows or underflows
    e = unit_exponent(x, y)
    xc = np.ldexp(x, -e)
    xc -= xc.mean(axis=0)
    col_norms = np.sqrt((xc * xc).sum(axis=0))
    yc = np.ldexp(y, -e)
    yc -= yc.mean()
    selected: list[int] = []
    trace: list[StepwiseStep] = []
    fit = None  # the fit of the selection, once a candidate has entered
    while remaining := [j for j in range(x.shape[1]) if j not in selected]:
        _check_rows(n, len(selected) + 1)
        for j in _entry_order(xc, yc, col_norms, selected, remaining):
            cols = selected + [j]
            try:
                trial = _ols_arrays(x[:, cols], y, response_name, [names[c] for c in cols])
            except SingularDesignError:
                continue  # rank deficient after all: try the next candidate
            break
        else:
            break  # no remaining candidate keeps the design full rank
        p = trial.p_values[-1].value
        if not p < DEFAULT_P_ENTER:
            break
        selected.append(j)
        trace.append(StepwiseStep("add", names[j], p))
        fit = trial
        while selected:
            slope_ps = [pv.value for pv in fit.p_values[1:]]
            worst = max(range(len(selected)), key=slope_ps.__getitem__)
            if not slope_ps[worst] > DEFAULT_P_REMOVE:
                break
            trace.append(StepwiseStep("remove", names[selected.pop(worst)], slope_ps[worst]))
            fit = _ols_arrays(x[:, selected], y, response_name, [names[j] for j in selected])
    if fit is None:
        fit = _ols_arrays(x[:, :0], y, response_name, ())
    return fit, tuple(trace)


def predict(fit: LinearModelFit, x: Mapping[str, float]) -> float:
    """Evaluate the fitted linear model at the supplied predictor values,
    each a score: a number (see ``base``) in [0, 100]."""
    unknown = sorted(set(x) - set(fit.predictors))
    if unknown:
        raise ValidationError(f"unknown predictors: {', '.join(unknown)}")
    missing = [p for p in fit.predictors if p not in x]
    if missing:
        raise ValidationError(f"missing predictor values: {', '.join(missing)}")
    value = fit.coefficients[0]
    for name, coef in zip(fit.predictors, fit.coefficients[1:]):
        value += coef * _check_score(x[name])
    return value
