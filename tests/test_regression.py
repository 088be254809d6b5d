import dataclasses
import itertools
import math
import re
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from indexlab import (
    Dataset,
    DegenerateDataError,
    IndexLabError,
    InsufficientDataError,
    SingularDesignError,
    ValidationError,
    casewise_diagnostics,
    chi2_tail_p,
    describe,
    durbin_watson,
    emit,
    fit_ols,
    null_model,
    predict,
    reproduce_all,
    stepwise_fit,
)
from indexlab.dataset import DIMENSIONS, IDESI, SII
from indexlab import regression
from indexlab.distributions import PValue
from indexlab.regression import (
    MAX_REPLICATES,
    DurbinWatsonResult,
    _dw_statistic,
    _permutation_chunks,
)

IDT = "Integration of digital technology"


@pytest.fixture(scope="module")
def simple_fit(sorted_dataset):
    return fit_ols(sorted_dataset, SII, [IDESI])


@pytest.fixture(scope="module")
def five_fit(sorted_dataset):
    return fit_ols(sorted_dataset, SII, DIMENSIONS)


def test_simple_fit_frozen(simple_fit):
    fit = simple_fit
    assert fit.response == SII
    assert fit.predictors == (IDESI,)
    assert fit.n == 29
    assert fit.df_residual == 27
    np.testing.assert_allclose(
        fit.coefficients, (15.408148049231045, 0.8579099063007722), rtol=1e-12)
    np.testing.assert_allclose(
        fit.standard_errors, (7.53851192435457, 0.15023037912621104), rtol=1e-12)
    np.testing.assert_allclose(
        fit.t_values, (2.043924345261317, 5.710628644423695), rtol=1e-12)
    assert abs(fit.p_values[0].value - 0.05082799054285842) < 1e-12
    assert abs(fit.p_values[1].value - 4.550161577616684e-06) < 1e-16
    assert fit.standardized_betas[0] is None
    assert abs(fit.standardized_betas[1] - 0.7396388208037808) < 1e-12
    assert abs(fit.r - 0.7396388208037808) < 1e-12
    assert abs(fit.r_squared - 0.5470655852400075) < 1e-12
    assert abs(fit.adjusted_r_squared - 0.5302902365451929) < 1e-12
    assert abs(fit.rmse - 8.362705526769451) < 1e-12
    assert fit.intercept == fit.coefficients[0]
    assert fit.slope(IDESI) == fit.coefficients[1]


def test_simple_fit_anova(simple_fit):
    block = simple_fit.anova
    assert block.df == 1
    assert abs(block.ss_regression - 2280.6647365999524) < 1e-9
    assert block.mean_square == block.ss_regression
    assert abs(block.f - 32.6112795145124) < 1e-10
    assert abs(block.p.value - 4.550161577616684e-06) < 1e-16


def test_null_model_frozen(sorted_dataset):
    fit = null_model(sorted_dataset, SII)
    assert fit.predictors == ()
    assert abs(fit.intercept - 57.53448275862069) < 1e-12
    assert abs(fit.standard_errors[0] - 2.265859681252317) < 1e-12
    assert abs(fit.t_values[0] - 25.391900140445582) < 1e-12
    assert fit.r == 0.0 and fit.r_squared == 0.0
    assert abs(fit.rmse - 12.202027813384984) < 1e-12
    assert fit.anova is None


def test_null_model_rmse_is_the_sample_standard_deviation():
    """The null model's RMSE and describe's standard deviation are one
    statistic and come from one computation, so they are the same float: a
    dot product of the centred column would differ in the last bit on about
    one such dataset in four."""
    rng = np.random.default_rng(11)
    for i in range(60):
        n = int(rng.integers(10, 121))
        y = np.round(np.clip(rng.normal(50.0, 9.0, n), 5.0, 95.0), 1)
        ds = Dataset(("y",), [f"C{j:03d}" for j in range(n)], y[:, None])
        assert null_model(ds, "y").rmse == describe(y).std_deviation, i


def test_null_model_intercept_is_the_sample_mean():
    """The null model's intercept is describe's mean, to the last bit: a
    pairwise sum of the column would differ on about one such dataset in
    three, and can cross a rounding tie in a printed digit."""
    rng = np.random.default_rng(12)
    for i in range(200):
        n = int(rng.integers(10, 121))
        y = np.round(np.clip(rng.normal(50.0, 9.0, n), 5.0, 95.0), 1)
        ds = Dataset(("y",), [f"C{j:03d}" for j in range(n)], y[:, None])
        assert null_model(ds, "y").intercept == describe(y).mean, i


def test_durbin_watson_frozen(sorted_dataset, simple_fit):
    dw = durbin_watson(simple_fit, replicates=50, seed=42)
    assert abs(dw.d - 2.350860711828942) < 1e-12
    assert abs(dw.autocorrelation - (-0.23325347882818578)) < 1e-12
    h0 = durbin_watson(null_model(sorted_dataset, SII), replicates=50, seed=42)
    assert abs(h0.d - 2.2139623845702983) < 1e-12
    assert abs(h0.autocorrelation - (-0.16544956464020752)) < 1e-12


def test_durbin_watson_bootstrap_behavior(simple_fit):
    one = durbin_watson(simple_fit, replicates=2000, seed=42)
    two = durbin_watson(simple_fit, replicates=2000, seed=42)
    assert one.p.value == two.p.value
    # around the published 0.338; 2000 replicates keep sampling noise small
    assert 0.25 < one.p.value < 0.45
    other_seed = durbin_watson(simple_fit, replicates=2000, seed=7)
    assert abs(other_seed.p.value - one.p.value) < 0.1


def test_durbin_watson_input_errors(monkeypatch):
    # rejected before any replicate is drawn, so R = 10**15 costs nothing
    def no_draws(*args):
        raise AssertionError("a rejected call drew permutations")

    monkeypatch.setattr(regression, "_permutation_chunks", no_draws)
    for replicates in (0, -1):
        with pytest.raises(ValidationError, match="replicates must be at least 1"):
            durbin_watson([1.0, -1.0, 0.5], replicates=replicates, seed=1)
    for replicates in (MAX_REPLICATES + 1, 10**15):
        with pytest.raises(ValidationError, match="replicates must be at most 100000000"):
            durbin_watson([1.0, -1.0, 0.5], replicates=replicates, seed=1)
    with pytest.raises(ValidationError, match="seed must be non-negative"):
        durbin_watson([1.0, -1.0, 0.5], replicates=10, seed=-1)
    with pytest.raises(InsufficientDataError, match="at least 3 residuals, got 2"):
        durbin_watson([1.0, 2.0])
    for bad in (2.5, True, np.True_, "10", None):
        with pytest.raises(ValidationError, match="replicates must be an integer"):
            durbin_watson([1.0, -1.0, 0.5], replicates=bad, seed=1)
        with pytest.raises(ValidationError, match="seed must be an integer"):
            durbin_watson([1.0, -1.0, 0.5], replicates=10, seed=bad)


def test_durbin_watson_takes_integers_of_any_type():
    residuals = [1.0, -1.0, 0.5, 2.0]
    expected = durbin_watson(residuals, replicates=99, seed=7)
    for integer in (np.int64, np.uint16, np.int8):
        assert durbin_watson(residuals, replicates=integer(99), seed=integer(7)) == expected


def test_durbin_watson_on_raw_residuals():
    dw = durbin_watson([1.0, -1.0, 1.0, -1.0], replicates=20, seed=1)
    assert dw.d == 3.0
    assert dw.autocorrelation == -0.75
    assert 0.0 <= dw.p.value <= 1.0


def _reference_permutation(seed: int, n: int, i: int) -> list[int]:
    """Replicate i on its own: a PCG64(seed) advanced past the i * n raw
    draws of the replicates before it, whose next n draws, each with its
    column index in the low bits, are ordered by Python's sort."""
    bitgen = np.random.PCG64(seed)
    bitgen.advance(i * n)
    low_bits = (1 << max(1, (n - 1).bit_length())) - 1
    keys = [(int(key) & ~low_bits) | j for j, key in enumerate(bitgen.random_raw(n))]
    return sorted(range(n), key=keys.__getitem__)


def _permutation_rows(seed: int, n: int, replicates: int) -> np.ndarray:
    return np.concatenate(list(_permutation_chunks(seed, n, replicates)))


def _chunk_rows(n: int) -> int:
    """The rows of one chunk: 2**15 keys."""
    return max(1, 2**15 // n)


def _reference_dw_p(residuals, replicates: int, seed: int) -> float:
    """The bootstrap as a per-replicate loop: one generator per replicate,
    each permutation scored on its own with the tie rule and the +1 rule."""
    residuals = np.asarray(residuals, dtype=float)
    n = residuals.shape[0]
    d, _ = _dw_statistic(residuals)
    at_or_above = at_or_below = 0
    for i in range(replicates):
        d_perm, _ = _dw_statistic(residuals[_reference_permutation(seed, n, i)])
        at_or_above += d_perm >= d - 1e-12 * d
        at_or_below += d_perm <= d + 1e-12 * d
    return min(1.0, 2.0 * (min(at_or_above, at_or_below) + 1) / (replicates + 1))


@pytest.mark.parametrize("n", [5, 29, 150])
@pytest.mark.parametrize("seed", [0, 7, 42])
def test_durbin_watson_matches_per_replicate_loop(n, seed):
    residuals = np.random.default_rng([n, seed]).normal(0.0, 3.0, n)
    # R around one chunk checks the chunk edges (218/219 at n = 150)
    rows = _chunk_rows(n)
    for replicates in (1, 7, rows - 1, rows, rows + 1, 2000):
        dw = durbin_watson(residuals, replicates=replicates, seed=seed)
        assert dw.p.value == _reference_dw_p(residuals, replicates, seed), replicates


# multi-word seeds, and seeds longer than SeedSequence's 4-word pool
@pytest.mark.parametrize("seed", [0, 42, 2**32 + 1, 2**130 + 3])
def test_permutations_equal_per_replicate_generators(seed):
    # n across the low-bit widths 2, 5, 8 and 9; rows on both sides of chunk edges
    for n in (3, 29, 256, 257):
        rows = _permutation_rows(seed, n, 600)
        assert rows.shape == (600, n)
        edges = [i for m in (_chunk_rows(n), 2 * _chunk_rows(n)) for i in (m - 1, m) if i < 600]
        for i in (0, 1, *edges, 599):
            assert rows[i].tolist() == _reference_permutation(seed, n, i), (n, i)
    assert _permutation_rows(seed, 2900, 1)[0].tolist() == _reference_permutation(seed, 2900, 0)


class _TiedStream:
    """A bit generator whose raw outputs all equal 0xAAAA...AA, so every
    key of a row ties in its random high bits and has set low bits."""

    def __init__(self, seed):
        pass

    def random_raw(self, size):
        return np.full(size, 0xAAAA_AAAA_AAAA_AAAA, dtype=np.uint64)


def test_permutations_break_ties_by_column(monkeypatch):
    monkeypatch.setattr(np.random, "PCG64", _TiedStream)
    for n in (3, 29, 257):
        assert (_permutation_rows(0, n, 3) == np.arange(n)).all(), n


def test_permutations_pinned():
    """The raw PCG64 stream and the sort, as numpy must keep them (NEP 19)."""
    assert next(_permutation_chunks(0, 8, 3)).tolist() == [
        [3, 2, 1, 6, 0, 7, 4, 5], [3, 5, 7, 0, 6, 2, 4, 1], [4, 5, 2, 3, 1, 7, 6, 0]]
    assert next(_permutation_chunks(2**130 + 3, 8, 3)).tolist() == [
        [7, 1, 6, 3, 0, 5, 4, 2], [7, 5, 6, 1, 0, 3, 2, 4], [1, 4, 7, 6, 0, 2, 3, 5]]


def test_permutations_are_prefixes_of_longer_runs():
    # a chunk holds 2**15 // n rows: 10,922 at n = 3, 1,129 at
    # n = 29 and 127 at n = 257
    for n, rows in ((3, 10_922), (29, 1_129), (257, 127)):
        longer = _permutation_rows(5, n, 2 * rows + 1)
        for replicates in (rows - 1, rows, rows + 1, 2 * rows + 1):
            chunks = list(_permutation_chunks(5, n, replicates))
            assert [len(chunk) for chunk in chunks[:-1]] == [rows] * (len(chunks) - 1)
            assert np.array_equal(np.concatenate(chunks), longer[:replicates]), (n, replicates)


@pytest.mark.parametrize("seed", [0, 7, 2**130 + 3])
def test_permutations_equal_argsort_of_masked_keys(seed):
    # low-bit widths at and around powers of two (n = 4, 8/9, 32/33), and R
    # on both sides of a chunk edge
    for n in (3, 4, 5, 8, 9, 29, 32, 33, 120, 2900):
        low_bits = np.uint64((1 << max(1, (n - 1).bit_length())) - 1)
        rows = _chunk_rows(n)
        for replicates in (1, rows - 1, rows, rows + 1, 1000):
            keys = np.random.PCG64(seed).random_raw(replicates * n).reshape(replicates, n)
            keys = (keys & ~low_bits) | np.arange(n, dtype=np.uint64)
            assert np.array_equal(_permutation_rows(seed, n, replicates),
                                  np.argsort(keys, axis=1)), (n, replicates)


def _seeded_residuals(k: int, n: int) -> list[np.ndarray]:
    rng = np.random.default_rng([k, n])
    return [rng.normal(0.0, 3.0, n) for _ in range(k)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_durbin_watson_many_equals_separate_calls(k):
    for n in (3, 5, 29, 150):
        for replicates in (1, 257, 1000):
            residuals = _seeded_residuals(k, n)
            assert regression._durbin_watson_many(residuals, replicates, 11) == [
                durbin_watson(r, replicates=replicates, seed=11) for r in residuals]


def _per_vector_durbin_watson_many(vectors, replicates: int, seed: int):
    """The scorer without the table of squared differences: each vector is
    gathered, differenced and squared on every chunk of permutations."""
    stack = [np.ascontiguousarray(v, dtype=float) for v in vectors]
    n = stack[0].shape[0]
    sums = [float(r @ r) for r in stack]
    observed = [_dw_statistic(r) for r in stack]
    at_or_above = [0] * len(stack)
    at_or_below = [0] * len(stack)
    for perms in _permutation_chunks(seed, n, replicates):
        for i, (residuals, ss, (d, _)) in enumerate(zip(stack, sums, observed)):
            diffs = np.diff(residuals[perms], axis=1)
            d_perm = (diffs * diffs).sum(axis=1) / ss
            tie = 1e-12 * d
            at_or_above[i] += int(np.count_nonzero(d_perm >= d - tie))
            at_or_below[i] += int(np.count_nonzero(d_perm <= d + tie))
    return [DurbinWatsonResult(
        d=d, autocorrelation=autocorrelation,
        p=PValue(min(1.0, 2.0 * (min(above, below) + 1) / (replicates + 1))))
        for (d, autocorrelation), above, below in zip(observed, at_or_above, at_or_below)]


# the table's row widths around powers of two, and n on both sides of the
# table bound
_TABLE_EDGES = [3, 4, 5, 8, 29, 31, 32, 33, 120, 255, 256, 257, 300]


@pytest.mark.parametrize("n", _TABLE_EDGES)
def test_durbin_watson_many_matches_per_vector_scorer(n):
    for k in (1, 2, 3):
        residuals = _seeded_residuals(k, n)
        # whole numbers: many permuted sums equal the observed one in exact
        # arithmetic, so the tie rule sees every rounding of them
        residuals[-1] = np.round(residuals[-1])
        for replicates in (1, 255, 256, 257, 1000):
            assert regression._durbin_watson_many(residuals, replicates, 3) \
                == _per_vector_durbin_watson_many(residuals, replicates, 3), (k, replicates)


@pytest.mark.parametrize("n", _TABLE_EDGES)
def test_step_sums_equal_per_vector_differences(n):
    """The sums from the table equal those of (diffs * diffs).sum(axis=1) to
    the last bit, so every permuted d is unchanged, not only the p-values."""
    vectors = _seeded_residuals(3, n)
    step_sums = regression._step_sums(vectors)
    for perms in _permutation_chunks(5, n, 600):
        expected = []
        for residuals in vectors:
            diffs = np.diff(residuals[perms], axis=1)
            expected.append((diffs * diffs).sum(axis=1))
        assert np.array_equal(step_sums(perms), np.stack(expected))


def _peak_bytes(residuals: list[np.ndarray], replicates: int) -> int:
    tracemalloc.start()
    try:
        regression._durbin_watson_many(residuals, replicates, 1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_KEEP_KEYS = regression._KEEP_KEYS


def _scorer_peak_bytes(monkeypatch, k: int, n: int, replicates: int) -> int:
    """The peak of a streamed draw alone: no draw is kept before the call,
    and keeping is off for it."""
    monkeypatch.setattr(regression, "_kept_draw", None)
    monkeypatch.setattr(regression, "_KEEP_KEYS", 0)
    try:
        return _peak_bytes(_seeded_residuals(k, n), replicates)
    finally:
        monkeypatch.setattr(regression, "_KEEP_KEYS", _KEEP_KEYS)


def test_durbin_watson_scratch_memory(monkeypatch):
    # past the table bound no table is built: one at n = 2,900 would hold
    # 4096**2 doubles (134 MB) per vector; the gather peaks near 0.1 MB
    assert _scorer_peak_bytes(monkeypatch, 1, 2900, 1) < 1_000_000
    # at the largest n with a table, three vectors peak near 2.4 MB: the
    # table, 1.6 MB, and the gathers from it, 2**15 keys a chunk;
    # the peak does not grow with R
    peak = _scorer_peak_bytes(monkeypatch, 3, 256, 10_000)
    assert peak < 5_000_000
    assert peak <= _scorer_peak_bytes(monkeypatch, 3, 256, 512) + 65_536


@pytest.mark.parametrize("n", [3, 29, 300, 1000, 2900])
def test_durbin_watson_one_worker_scratch_memory(monkeypatch, n):
    """A chunk holds 2**15 keys, whatever n, so three vectors scored over
    three chunks and a row peak at or below 1.5 MB."""
    peak = _scorer_peak_bytes(monkeypatch, 3, n, 3 * _chunk_rows(n) + 1)
    assert peak <= 1_500_000, peak


@pytest.mark.parametrize("n, replicates", [(29, 10_000), (256, 4_096)])
def test_kept_draw_memory(monkeypatch, n, replicates):
    """A kept draw costs its R n bytes above a streamed draw, and a hit on
    it peaks no higher than a streamed draw."""
    streamed = _scorer_peak_bytes(monkeypatch, 3, n, replicates)
    residuals = _seeded_residuals(3, n)
    miss = _peak_bytes(residuals, replicates)
    assert regression._kept_draw[1].shape == (replicates, n)
    assert miss <= streamed + replicates * n + 4_096, (miss, streamed)
    assert _peak_bytes(residuals, replicates) <= streamed, streamed


_PERMUTATION_CHUNKS = regression._permutation_chunks


def _count_draws(monkeypatch) -> list[int]:
    """Record the replicate count of every draw the scorer starts."""
    draws = []

    def counted(seed, n, replicates):
        draws.append(replicates)
        return _PERMUTATION_CHUNKS(seed, n, replicates)

    monkeypatch.setattr(regression, "_permutation_chunks", counted)
    return draws


def test_kept_draw_scores_as_a_fresh_draw(monkeypatch, dataset):
    """The published run at seed 42 and R = 10,000 gives the same report on a
    miss and on a hit, and at a smaller R as a fresh draw at that R."""
    def report(replicates: int) -> str:
        return emit(reproduce_all(dataset, seed=42, replicates=replicates), "json")

    draws = _count_draws(monkeypatch)
    smaller = report(4_501)
    full = report(10_000)  # more rows than are kept: drawn again, and kept
    key, kept = regression._kept_draw
    assert key == (42, 29) and kept.shape == (10_000, 29) and kept.dtype == np.uint8
    assert draws
    draws.clear()
    assert report(10_000) == full
    assert report(4_501) == smaller
    assert regression._kept_draw[1] is kept
    assert draws == []


def test_kept_draw_is_read_only_and_keyed_by_seed_and_n():
    """A call at another seed or n draws afresh and keeps its own draw:
    read-only, and equal to the streamed rows."""
    for seed, n in ((3, 29), (4, 29), (4, 28)):
        residuals = _seeded_residuals(2, n)
        assert regression._durbin_watson_many(residuals, 100, seed) \
            == _per_vector_durbin_watson_many(residuals, 100, seed), (seed, n)
        key, kept = regression._kept_draw
        assert key == (seed, n) and np.array_equal(kept, _permutation_rows(seed, n, 100))
        assert not kept.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            kept[0, 0] = 1


def test_draws_past_the_bounds_are_not_kept():
    """A draw past the table bound (n = 257) or of more than 2**20 keys
    streams and leaves the kept draw as it was; one of 2**20 keys is kept."""
    regression._durbin_watson_many(_seeded_residuals(1, 29), 100, 3)
    kept = regression._kept_draw
    for n, replicates in ((257, 100), (256, 4_097), (29, 2**20 // 29 + 1)):
        residuals = _seeded_residuals(1, n)
        assert regression._durbin_watson_many(residuals, replicates, 3) \
            == _per_vector_durbin_watson_many(residuals, replicates, 3), (n, replicates)
        assert regression._kept_draw is kept, (n, replicates)
    regression._durbin_watson_many(_seeded_residuals(1, 256), 4_096, 3)
    assert regression._kept_draw[0] == (3, 256)
    assert np.array_equal(regression._kept_draw[1], _permutation_rows(3, 256, 4_096))


@pytest.mark.parametrize("error", [RuntimeError("scorer failed"), KeyboardInterrupt()])
def test_failed_draw_is_not_kept(monkeypatch, error):
    """A draw that fails part way reaches the caller and is not kept: the
    next call draws again and gives the p-values of an undisturbed draw."""
    residuals = _seeded_residuals(2, 29)
    expected = regression._durbin_watson_many(residuals, 10_000, 1)
    regression._kept_draw = None
    step_sums = regression._step_sums
    scored = itertools.count()

    def failing_step_sums(stack):
        score = step_sums(stack)

        def failing(perms):
            if next(scored) == 4:
                raise error
            return score(perms)
        return failing

    monkeypatch.setattr(regression, "_step_sums", failing_step_sums)
    with pytest.raises(type(error)) as caught:
        regression._durbin_watson_many(residuals, 10_000, 1)
    assert caught.value is error
    assert regression._kept_draw is None
    draws = _count_draws(monkeypatch)
    assert regression._durbin_watson_many(residuals, 10_000, 1) == expected
    assert draws == [10_000]
    assert regression._kept_draw[0] == (1, 29)


def test_published_run_starts_no_thread(monkeypatch, dataset):
    """The bootstrap draws and scores every chunk on the calling thread."""
    def refuse(thread):
        raise AssertionError(f"a thread was started: {thread!r}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    reproduce_all(dataset, seed=42, replicates=10_000)


def test_durbin_watson_scores_residuals_of_any_magnitude():
    """Residuals whose squares would overflow or underflow are scored as
    their scaled copies are: d does not depend on the scale."""
    assert (durbin_watson([1e200, -1e200, 1e200, 3e199], replicates=99, seed=1)
            == durbin_watson([1.0, -1.0, 1.0, 0.3], replicates=99, seed=1))
    huge, unit = regression._durbin_watson_many(
        [[1.0, -1e160, 2.0], [1.0, -1.0, 2e-160]], 10, 1)
    assert huge.d == 2.0 and unit.d == 2.5
    # each square of these is subnormal or zero
    tiny = durbin_watson([v * 1e-162 for v in [1.0, 2.0, -1.0, 0.5]], replicates=99, seed=1)
    assert tiny == durbin_watson([1.0, 2.0, -1.0, 0.5], replicates=99, seed=1)
    assert (tiny.d, tiny.autocorrelation, tiny.p.value) == (1.96, -0.08, 0.68)
    small = durbin_watson([1e-200, 2e-200, -1e-200, 5e-201], replicates=99, seed=1)
    assert math.isclose(small.d, 1.96, rel_tol=1e-15) and small.p.value == 0.68


def test_durbin_watson_power_of_two_sweep():
    """Scaling the residuals by 2**k changes neither d nor p, to the last bit,
    for every k from -1000 to 1000: each scaled residual is a normal float."""
    residuals = _seeded_residuals(1, 29)[0]
    expected = durbin_watson(residuals, replicates=199, seed=5)
    for k in range(-1000, 1001):
        assert durbin_watson(residuals * 2.0**k, replicates=199, seed=5) == expected, k


def test_durbin_watson_at_the_overflow_bound():
    """At max|r| = sqrt(max float / 4n) every square and sum is finite, and
    numpy warns of no overflow."""
    limit = math.sqrt(np.finfo(float).max / (4 * 4))
    alternating = [limit, -limit, limit, -limit]
    dw = durbin_watson(alternating, replicates=999, seed=1)
    assert dw.d == 3.0 and dw.autocorrelation == -0.75
    assert dw == durbin_watson([1.0, -1.0, 1.0, -1.0], replicates=999, seed=1)


def test_durbin_watson_many_rejects_mixed_lengths(monkeypatch):
    def no_draws(*args):
        raise AssertionError("a rejected call drew permutations")

    monkeypatch.setattr(regression, "_permutation_chunks", no_draws)
    with pytest.raises(ValidationError, match="residual vectors differ in length: 29, 28"):
        regression._durbin_watson_many([np.ones(29), np.ones(28)], 100, 1)
    with pytest.raises(ValidationError, match="differ in length: 5, 5, 4"):
        regression._durbin_watson_many(_seeded_residuals(2, 5) + [np.ones(4)], 100, 1)


def test_permutations_uniform():
    """At n = 4 each of the 24 orders is drawn 10,000 times in expectation."""
    codes = np.concatenate([chunk @ 4 ** np.arange(4)
                            for chunk in _permutation_chunks(11, 4, 240_000)])
    _, counts = np.unique(codes, return_counts=True)
    assert len(counts) == 24
    chi2 = float(((counts - 10_000.0) ** 2).sum() / 10_000.0)
    assert chi2_tail_p(chi2, 23).value > 0.001, counts


def test_permutations_position_uniform_past_the_table():
    """At n = 300 the scorer gathers each vector on its own, not from the
    table, and the keys carry 9 low bits: every draw is a permutation, and
    each index lands in each position R / n = 100 times in expectation
    (a chi-square test over all 300 x 300 cells; rows and columns each sum
    to R, so df = 299**2)."""
    n, replicates = 300, 30_000
    assert n > regression._TABLE_MAX_N
    counts = np.zeros(n * n, dtype=np.int64)
    offsets = np.arange(n) * n
    for chunk in _permutation_chunks(23, n, replicates):
        assert (np.sort(chunk, axis=1) == np.arange(n)).all()
        counts += np.bincount((chunk + offsets).ravel(), minlength=n * n)
    expected = replicates / n
    chi2 = float(((counts - expected) ** 2).sum() / expected)
    assert chi2_tail_p(chi2, (n - 1) ** 2).value > 0.001, chi2


def _exact_permutation_p(residuals: np.ndarray) -> tuple[float, float]:
    """The smaller tail share q over all n! orders, with the tie rule, and
    the expected bootstrap p at R = 20,000 for that q."""
    n = residuals.shape[0]
    orders = np.array(list(itertools.permutations(range(n))))
    d, _ = _dw_statistic(residuals)
    diffs = np.diff(residuals[orders], axis=1)
    d_all = (diffs * diffs).sum(axis=1) / float(residuals @ residuals)
    q = min(np.mean(d_all >= d - 1e-12 * d), np.mean(d_all <= d + 1e-12 * d))
    return q, min(1.0, 2.0 * (20_000 * q + 1) / 20_001)


def test_durbin_watson_near_exact_permutation_p():
    """At R = 20,000 the bootstrap p lies within 4 Monte Carlo standard
    errors of the exact permutation p, for 20 seeds and n = 3 to 7."""
    for seed in range(20):
        rng = np.random.default_rng([seed, 99])
        n = 3 + seed % 5
        # AR(1) residuals, so the exact p spreads over (0, 1]
        phi = rng.uniform(-0.9, 0.9)
        residuals = rng.normal(size=n)
        for t in range(1, n):
            residuals[t] += phi * residuals[t - 1]
        q, expected = _exact_permutation_p(residuals)
        standard_error = 2.0 * math.sqrt(q * (1.0 - q) / 20_000)
        p = durbin_watson(residuals, replicates=20_000, seed=seed).p.value
        assert abs(p - expected) <= 4.0 * standard_error, (seed, n, p, expected)


def test_durbin_watson_p_never_zero():
    # sorted residuals: no order has a smaller d, so only the identity and
    # the reversal count on the lower side, and short runs draw neither
    trend = np.arange(29.0) - 14.0
    rng = np.random.default_rng(3)
    for replicates in (1, 2, 5):
        for seed in range(100):
            assert durbin_watson(trend, replicates=replicates, seed=seed).p.value \
                == 2 / (replicates + 1)
            noise = rng.normal(size=29)
            assert durbin_watson(noise, replicates=replicates, seed=seed).p.value > 0.0


def test_durbin_watson_published_p_values(sorted_dataset, simple_fit):
    """dw_p of T2 and T8 at the paper's seed and depth, exactly:
    2 (b + 1) / (R + 1) with b = 2,919, 1,706 and 4,851."""
    stepwise, _ = stepwise_fit(sorted_dataset, SII, DIMENSIONS)
    fits = {"H0": null_model(sorted_dataset, SII), "simple": simple_fit,
            "stepwise": stepwise}
    p = {name: durbin_watson(fit, replicates=10_000, seed=42).p.value
         for name, fit in fits.items()}
    assert p == {"H0": 2 * 2920 / 10_001, "simple": 2 * 1707 / 10_001,
                 "stepwise": 2 * 4852 / 10_001}
    assert [round(v, 5) for v in p.values()] == [0.58394, 0.34137, 0.97030]


def _exact_dw_p(residuals, replicates: int, seed: int) -> float:
    """The bootstrap p in exact rational arithmetic over the same
    permutations, where a permuted d equal to the observed d is a tie
    whatever the summation order."""
    exact = [Fraction(v) for v in residuals]

    def d_of(x):
        return sum((b - a) ** 2 for a, b in zip(x, x[1:])) / sum(v * v for v in x)

    d = d_of(exact)
    at_or_above = at_or_below = 0
    for order in _permutation_rows(seed, len(exact), replicates).tolist():
        d_perm = d_of([exact[j] for j in order])
        at_or_above += d_perm >= d
        at_or_below += d_perm <= d
    return min(1.0, 2.0 * (min(at_or_above, at_or_below) + 1) / (replicates + 1))


def test_durbin_watson_counts_reversal_as_tie():
    residuals = [0.35, 0.82, 0.33]
    d, _ = _dw_statistic(np.array(residuals))
    d_reversed, _ = _dw_statistic(np.array(residuals[::-1]))
    # equal in exact arithmetic, not in floating point
    assert d == 0.510068599247621 and d_reversed == 0.5100685992476212
    assert durbin_watson(residuals, replicates=1000, seed=1).p.value == 2 * 329 / 1001
    assert durbin_watson(residuals, replicates=1000, seed=1).p.value \
        == _exact_dw_p(residuals, 1000, 1)
    # short series draw the identity and the reversal often; both are ties
    rng = np.random.default_rng(0)
    for n in (3, 4) * 10:
        series = np.round(rng.uniform(-1.0, 1.0, n), 2).tolist()
        assert (durbin_watson(series, replicates=300, seed=1).p.value
                == _exact_dw_p(series, 300, 1)), series


def test_five_predictor_fit_published(five_fit):
    fit = five_fit
    published_coefficients = (12.662, 0.332, -0.145, 0.211, 0.295, 0.144)
    published_se = (10.712, 0.264, 0.221, 0.209, 0.257, 0.139)
    published_betas = (0.257, -0.137, 0.248, 0.301, 0.190)
    np.testing.assert_allclose(fit.coefficients, published_coefficients, atol=0.005)
    np.testing.assert_allclose(fit.standard_errors, published_se, atol=0.005)
    np.testing.assert_allclose(fit.standardized_betas[1:], published_betas, atol=0.005)
    np.testing.assert_allclose(
        fit.t_values, (1.182, 1.259, -0.654, 1.009, 1.148, 1.036), atol=0.01)
    assert abs(fit.r_squared - 0.547) < 0.05


def test_collinearity_published(five_fit, sorted_dataset):
    fit = five_fit
    assert fit.predictors == DIMENSIONS
    np.testing.assert_allclose(
        fit.tolerance, (0.429, 0.404, 0.296, 0.260, 0.532), atol=0.005)
    np.testing.assert_allclose(
        fit.vif, (2.331, 2.476, 3.376, 3.844, 1.880), atol=0.005)
    np.testing.assert_allclose(fit.tolerance, _refit_tolerances(sorted_dataset.array(DIMENSIONS)),
                               rtol=0.0, atol=1e-12)
    for tol, vif in zip(fit.tolerance, fit.vif):
        assert abs(vif * tol - 1.0) < 1e-9


@pytest.mark.parametrize("kind", ["constant", "duplicate", "linear_combination"])
def test_degenerate_designs(degenerate_designs, kind):
    ds = degenerate_designs[kind]
    with pytest.raises(SingularDesignError, match="rank deficient"):
        fit_ols(ds, "y", ["p1", "p2", "p3"])


def test_fit_ols_power_of_two_sweep(dataset):
    """Scaling every score by 2**k leaves R^2, t, p, the slopes, tolerance
    and leverage unchanged and scales the intercept, its standard error, the
    RMSE and the residuals by 2**k, to the last bit, for every k at which each
    scaled score is a normal float. Scores are capped at 100, so the sweep
    runs downward only; below the normal range, where scores lose bits as
    subnormals, a fit is still a valid fit or an IndexLabError. The rank rule
    scales with the design, so no fit is called rank deficient on the way."""
    data = dataset.array(dataset.columns)
    exponents = [math.frexp(v)[1] for v in data.ravel().tolist() if v]
    lowest = -1021 - min(exponents)
    designs = ([IDESI], list(DIMENSIONS))
    expected = [fit_ols(dataset, SII, predictors) for predictors in designs]

    def scaled_fits(k):
        ds = Dataset(dataset.columns, dataset.countries, np.ldexp(data, k))
        return [fit_ols(ds, SII, predictors) for predictors in designs]

    for k in range(0, lowest - 1, -1):
        for fit, unit in zip(scaled_fits(k), expected):
            assert fit.coefficients == (unit.coefficients[0] * 2.0**k,
                                        *unit.coefficients[1:]), k
            assert fit.standard_errors == (unit.standard_errors[0] * 2.0**k,
                                           *unit.standard_errors[1:]), k
            assert fit.residuals == tuple(v * 2.0**k for v in unit.residuals), k
            assert fit.rmse == unit.rmse * 2.0**k, k
            for name in ("r_squared", "adjusted_r_squared", "t_values", "p_values",
                         "tolerance", "vif", "leverage"):
                assert getattr(fit, name) == getattr(unit, name), (k, name)
    for k in range(lowest - 1, -1075 - max(exponents), -1):
        try:
            fits = scaled_fits(k)
        except IndexLabError:
            continue  # scores that became equal or collinear as subnormals
        for fit in fits:
            assert 0.0 <= fit.r_squared <= 1.0 and all(map(math.isfinite, fit.coefficients)), k


def test_fit_of_a_predictor_with_tiny_spread():
    """A predictor that is 50.0 in every row but one, which is the next float:
    the residual sum of squares and R^2 are those of the centred closed form,
    sst - (xc.yc)^2 / (xc.xc), where uncentred fitted values lose every digit."""
    n = 20
    a = np.full(n, 50.0)
    a[0] = np.nextafter(50.0, 100.0)
    y = np.random.default_rng(3).normal(50.0, 5.0, n)
    fit = fit_ols(Dataset(("y", "a"), [f"C{i:02d}" for i in range(n)],
                          np.column_stack([y, a])), "y", ["a"])
    xc, yc = a - a.mean(), y - y.mean()
    sst = float(yc @ yc)
    ss_res = sst - float(xc @ yc) ** 2 / float(xc @ xc)
    residuals = np.array(fit.residuals)
    assert float(residuals @ residuals) == pytest.approx(ss_res, rel=1e-9)
    assert fit.r_squared == pytest.approx(1.0 - ss_res / sst, rel=1e-9)


def _column_dataset(columns: dict) -> Dataset:
    names = tuple(columns)
    rows = np.column_stack(list(columns.values()))
    return Dataset(names, [f"C{i:04d}" for i in range(len(rows))], rows)


def _assert_same_fit(actual, expected):
    """Field by field: equal, with floats equal to 1e-12 relative (the
    selection loop's column-sliced design sums in another order)."""
    def walk(a, e, path):
        if isinstance(e, (dict, list, tuple)):
            items = e.items() if isinstance(e, dict) else enumerate(e)
            assert type(a) is type(e) and len(a) == len(e), path
            for key, value in items:
                walk(a[key], value, path + (key,))
        elif isinstance(e, float):
            assert a == pytest.approx(e, rel=1e-12, abs=1e-300), path
        else:
            assert a == e, path

    walk(dataclasses.asdict(actual), dataclasses.asdict(expected), ())


def _refit_tolerances(x: np.ndarray) -> list[float]:
    """Reference: 1 - R^2 of each column regressed on the others by lstsq."""
    n, k = x.shape
    out = []
    for j in range(k):
        design = np.column_stack([np.ones(n), np.delete(x, j, axis=1)])
        coef = np.linalg.lstsq(design, x[:, j], rcond=None)[0]
        residual = x[:, j] - design @ coef
        centred = x[:, j] - x[:, j].mean()
        out.append(float(residual @ residual) / float(centred @ centred))
    return out


@pytest.mark.parametrize("n,k", [(29, 5), (12, 2), (12, 5), (40, 3), (300, 4),
                                 (3000, 2), (3000, 5)])
def test_collinearity_matches_refits(sorted_dataset, n, k):
    if (n, k) == (29, 5):
        ds, response, names = sorted_dataset, SII, DIMENSIONS
    else:
        rng = np.random.default_rng([n, k])
        factor = rng.normal(0.0, 1.0, size=(n, 1))
        # a spread of loadings gives tolerances from near 0.1 up to near 1
        x = 50.0 + 8.0 * (factor * np.linspace(0.0, 3.0, k) + rng.normal(0.0, 1.0, size=(n, k)))
        response, names = "y", tuple(f"p{j}" for j in range(k))
        ds = _column_dataset({"y": 50.0 + 8.0 * factor[:, 0],
                              **dict(zip(names, np.clip(x, 0.0, 100.0).T))})
    fit = fit_ols(ds, response, names)
    reference = _refit_tolerances(ds.array(names))
    np.testing.assert_allclose(fit.tolerance, reference, rtol=0.0, atol=1e-12)
    for tol, vif in zip(fit.tolerance, fit.vif):
        assert 0.0 < tol <= 1.0 and vif * tol == pytest.approx(1.0, abs=1e-12)


def test_collinearity_needs_two_predictors(sorted_dataset, simple_fit):
    """A lone predictor has tolerance and VIF 1 by definition, and the
    intercept-only model has neither."""
    assert simple_fit.tolerance == (1.0,) and simple_fit.vif == (1.0,)
    fit = null_model(sorted_dataset, SII)
    assert fit.tolerance == () and fit.vif == ()


def test_casewise_frozen(five_fit):
    cw = casewise_diagnostics(five_fit)
    assert len(cw.cooks_distance) == 29
    assert len(cw.standardized_residuals) == 29
    assert cw.flagged == ()
    assert abs(max(abs(v) for v in cw.standardized_residuals)
               - 2.0972527477980534) < 1e-9
    assert abs(max(cw.cooks_distance) - 0.22876645434398526) < 1e-9


def test_casewise_flags_planted_outlier():
    rng = np.random.default_rng(5)
    x = rng.uniform(20.0, 80.0, size=20)
    y = 0.8 * x + rng.normal(0.0, 1.0, size=20)
    y[7] += 40.0
    ds = Dataset(("x", "y"), [f"C{i:02d}" for i in range(20)],
                 np.column_stack([x, np.minimum(y, 100.0)]))
    cw = casewise_diagnostics(fit_ols(ds, "y", ["x"]))
    assert 7 in cw.flagged


def test_stepwise_published(sorted_dataset):
    fit, trace = stepwise_fit(sorted_dataset, SII, DIMENSIONS)
    assert fit.predictors == (IDT,)
    assert [step.action for step in trace] == ["add"]
    assert trace[0].predictor == IDT
    assert abs(trace[0].p - 2.40059e-05) < 1e-9
    np.testing.assert_allclose(
        fit.coefficients, (27.09758952839635, 0.685835200991846), rtol=1e-12)
    np.testing.assert_allclose(
        fit.standard_errors, (6.204440200369964, 0.13477923609778364), rtol=1e-12)
    np.testing.assert_allclose(
        fit.t_values, (4.367451156476704, 5.088582046082128), rtol=1e-12)
    assert abs(fit.r_squared - 0.4895419166601095) < 1e-12
    assert abs(fit.adjusted_r_squared - 0.470636061721595) < 1e-12
    assert abs(fit.rmse - 8.877878291649314) < 1e-12
    assert abs(fit.standardized_betas[1] - 0.699672721106168) < 1e-12
    block = fit.anova
    assert abs(block.ss_regression - 2040.853997285251) < 1e-9
    assert abs(block.f - 25.893667239709373) < 1e-10
    dw = durbin_watson(fit, replicates=50, seed=42)
    assert abs(dw.d - 1.9881279485685412) < 1e-12
    assert abs(dw.autocorrelation - (-0.07137731301032754)) < 1e-12
    # the final fit is the selection loop's own, the same as a direct fit
    _assert_same_fit(fit, fit_ols(sorted_dataset, SII, fit.predictors))


def test_stepwise_fit_after_removal_matches_direct_fit():
    rng = np.random.default_rng(0)
    x2, x3 = rng.normal(size=40), rng.normal(size=40)
    x1 = x2 + x3 + rng.normal(0.0, 0.3, 40)
    y = 2.0 * x2 + x3 + rng.normal(0.0, 0.3, 40)
    ds = _column_dataset({"y": 50.0 + 5.0 * y, "x1": 50.0 + 5.0 * x1,
                          "x2": 50.0 + 5.0 * x2, "x3": 50.0 + 5.0 * x3})
    fit, trace = stepwise_fit(ds, "y", ["x1", "x2", "x3"])
    assert [(step.action, step.predictor) for step in trace] == [
        ("add", "x1"), ("add", "x2"), ("add", "x3"), ("remove", "x1")]
    assert fit.predictors == ("x2", "x3")
    _assert_same_fit(fit, fit_ols(ds, "y", ["x2", "x3"]))


def _full_fit_stepwise(dataset, response, candidates):
    """Oracle: the stepwise search with one full fit per remaining candidate
    per step, entering the smallest p and, among equal p, the larger |t|, and
    refitting the selection for every removal check."""
    x, y, response_name, names = regression._dataset_arrays(dataset, response, candidates)
    selected, trace = [], []
    while True:
        steps = len(trace)
        best_j, best = -1, (math.inf, 0.0)
        for j in [j for j in range(x.shape[1]) if j not in selected]:
            cols = selected + [j]
            try:
                trial = regression._ols_arrays(x[:, cols], y, response_name,
                                               [names[c] for c in cols])
            except SingularDesignError:
                continue
            key = (trial.p_values[-1].value, -abs(trial.t_values[-1]))
            if key < best:
                best_j, best = j, key
        if best[0] < regression.DEFAULT_P_ENTER:
            selected.append(best_j)
            trace.append(regression.StepwiseStep("add", names[best_j], best[0]))
        while selected:
            fit = regression._ols_arrays(x[:, selected], y, response_name,
                                         [names[j] for j in selected])
            slope_ps = [pv.value for pv in fit.p_values[1:]]
            worst = max(range(len(selected)), key=slope_ps.__getitem__)
            if not slope_ps[worst] > regression.DEFAULT_P_REMOVE:
                break
            trace.append(regression.StepwiseStep("remove", names[selected.pop(worst)],
                                                 slope_ps[worst]))
        if len(trace) == steps:
            break
    if not selected:
        fit = regression._ols_arrays(x[:, :0], y, response_name, ())
    return fit, tuple(trace)


def _stepwise_design(seed: int, n: int):
    """A seeded stepwise design: y and five candidates on a one-factor model,
    scores with one decimal in [5, 95]. Every tenth design is uncorrelated,
    and in two of ten x0 is the mean of x1 and x2 plus noise while y follows
    x1 and x2, so x0 enters first and is removed later."""
    rng = np.random.default_rng([seed, 13])
    kind = seed % 10
    if kind == 5:
        y, x = rng.normal(50.0, 8.0, n), 20.0 + rng.exponential(12.0, (n, 5))
    else:
        factor = rng.normal(50.0, 9.0, n)
        x = factor[:, None] + rng.normal(0.0, rng.uniform(1.0, 6.0), (n, 5))
        w = rng.uniform(-0.5, 1.5, 5)
        y = (50.0 + (x - 50.0) @ w / w.sum() * rng.uniform(0.2, 1.0)
             + rng.normal(0.0, rng.uniform(1.0, 6.0), n))
        if kind in (2, 7):
            x[:, 0] = (x[:, 1] + x[:, 2]) / 2.0 + rng.normal(0.0, 0.5, n)
            y = 50.0 + (x[:, 1] - 50.0) + 0.6 * (x[:, 2] - 50.0) + rng.normal(0.0, 3.0, n)
    names = ("y",) + tuple(f"x{j}" for j in range(5))
    data = np.round(np.clip(np.column_stack([y, x]), 5.0, 95.0), 1)
    return Dataset(names, [f"C{i:04d}" for i in range(n)], data), rng


def test_stepwise_matches_full_fit_search():
    removals = 0
    for seed in range(2000):
        ds, rng = _stepwise_design(seed, int(np.random.default_rng(seed).integers(10, 121)))
        candidates = [f"x{j}" for j in rng.permutation(5)[:rng.integers(1, 6)]]
        fit, trace = stepwise_fit(ds, "y", candidates)
        assert (fit, trace) == _full_fit_stepwise(ds, "y", candidates), seed
        removals += any(step.action == "remove" for step in trace)
    assert removals >= 10


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_stepwise_on_tiny_designs_matches_full_fit_search(n):
    # too few rows for the next entry is the same InsufficientDataError
    for seed in range(40):
        ds, _ = _stepwise_design(seed, n)
        outcomes = []
        for search in (stepwise_fit, _full_fit_stepwise):
            try:
                outcomes.append(search(ds, "y", ["x0", "x1", "x2", "x3", "x4"]))
            except InsufficientDataError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], (n, seed)
    with pytest.raises(InsufficientDataError,
                       match="need at least 3 rows to fit 1 predictors with an intercept, got 2"):
        stepwise_fit(_stepwise_design(0, 2)[0], "y", ["x0"])


@pytest.fixture(scope="module")
def large_stepwise_design():
    """n = 2,900 on a one-factor model, where several step-1 p-values
    underflow to 0.0; the candidates are listed least significant first."""
    ds, _ = _stepwise_design(1, 2900)
    names = [f"x{j}" for j in range(5)]
    t = {name: abs(fit_ols(ds, "y", [name]).t_values[1]) for name in names}
    p = {name: fit_ols(ds, "y", [name]).p_values[1].value for name in names}
    return ds, sorted(names, key=t.__getitem__), p


def test_stepwise_enters_largest_t_among_underflowed_p(large_stepwise_design):
    ds, candidates, p = large_stepwise_design
    assert sum(value == 0.0 for value in p.values()) >= 2
    # a smallest-p rule would take the first of the tied candidates
    assert p[candidates[-1]] == 0.0 and candidates[-1] != next(c for c in candidates if p[c] == 0.0)
    fit, trace = stepwise_fit(ds, "y", candidates)
    assert trace[0] == regression.StepwiseStep("add", candidates[-1], 0.0)
    assert (fit, trace) == _full_fit_stepwise(ds, "y", candidates)


def test_stepwise_fits_each_entry_once(large_stepwise_design, monkeypatch):
    ds, candidates, _ = large_stepwise_design
    calls = []
    original = regression._ols_arrays

    def counted(*args):
        calls.append(args[3])
        return original(*args)

    monkeypatch.setattr(regression, "_ols_arrays", counted)
    fit, trace = stepwise_fit(ds, "y", candidates)
    adds = sum(step.action == "add" for step in trace)
    removals = sum(step.action == "remove" for step in trace)
    assert adds >= 3
    assert len(calls) <= adds + removals + 1
    # the final fit is the entry's or the removal check's own, not a refit
    assert calls.count(list(fit.predictors)) == 1


def test_stepwise_skips_rank_deficient_winner():
    # a is zero but for one row, so its centred norm (2e-13) passes the rank
    # rule alone; with b, whose norm is about 100, the tolerance grows past it
    # and the fit of a and b is singular, though b's partial t after a is the
    # largest. The next candidate, c, enters instead.
    rng = np.random.default_rng(2)
    n = 20
    a = np.zeros(n)
    a[0] = 2e-13
    b = np.round(rng.uniform(10.0, 90.0, n), 1)
    c = np.round(rng.normal(50.0, 5.0, n), 1)
    y = np.round(30.0 + 0.1 * (b - 50.0) + 0.5 * (c - 50.0) + rng.normal(0.0, 1.0, n), 1)
    y[0] = 95.0
    ds = Dataset(("y", "a", "b", "c"), [f"C{i:02d}" for i in range(n)],
                 np.column_stack([y, a, b, c]))
    x, yv, _, _ = regression._dataset_arrays(ds, "y", ["a", "b", "c"])
    xc = x - x.mean(axis=0)
    order = regression._entry_order(xc, yv - yv.mean(), np.sqrt((xc * xc).sum(axis=0)), [0], [1, 2])
    assert order == [1, 2]
    with pytest.raises(SingularDesignError):
        fit_ols(ds, "y", ["a", "b"])
    fit, trace = stepwise_fit(ds, "y", ["a", "b", "c"])
    assert [(step.action, step.predictor) for step in trace] == [("add", "a"), ("add", "c")]
    assert fit.predictors == ("a", "c")
    assert (fit, trace) == _full_fit_stepwise(ds, "y", ["a", "b", "c"])


def test_ols_does_not_depend_on_memory_layout():
    rng = np.random.default_rng(11)
    x = rng.normal(50.0, 10.0, size=(2900, 4))
    y = x @ np.array([0.5, -0.2, 0.1, 0.3]) + rng.normal(0.0, 2.0, 2900)
    names = [f"x{j}" for j in range(4)]
    c_fit = regression._ols_arrays(np.ascontiguousarray(x), y, "y", names)
    f_fit = regression._ols_arrays(np.asfortranarray(x), y, "y", names)
    assert dataclasses.asdict(c_fit) == dataclasses.asdict(f_fit)


def test_ols_matches_lstsq_oracle():
    # every third design has a near-collinear pair: column 1 is column 0 plus
    # noise at 1e-3 of its spread (correlation about 1 - 5e-7)
    for seed in range(300):
        rng = np.random.default_rng(seed)
        collinear = seed % 3 == 0
        k = int(rng.integers(2 if collinear else 1, 7))
        n = int(rng.integers(k + 2, 600))
        x = rng.normal(size=(n, k)) * rng.uniform(0.1, 10.0, size=k) + rng.uniform(-5, 5, size=k)
        if collinear:
            x[:, 1] = x[:, 0] + 1e-3 * x[:, 0].std() * rng.normal(size=n)
        y = x @ rng.normal(size=k) + rng.uniform(0.01, 3.0) * rng.normal(size=n)
        fit = regression._ols_arrays(x, y, "y", [f"x{j}" for j in range(k)])
        design = np.column_stack([np.ones(n), x])
        ref = np.linalg.lstsq(design, y, rcond=None)[0]
        ref_residuals = y - design @ ref
        ref_r_squared = 1.0 - ref_residuals @ ref_residuals / np.sum((y - y.mean()) ** 2)
        for actual, expected in ((fit.coefficients, ref), (fit.residuals, ref_residuals)):
            err = np.abs(np.array(actual) - expected) / np.maximum(1.0, np.abs(expected))
            assert err.max() <= 1e-9, (seed, n, k, err.max())
        assert abs(fit.r_squared - ref_r_squared) <= 1e-12, (seed, n, k)


def _exact_least_squares(x: np.ndarray, y: np.ndarray) -> list[Fraction]:
    """Intercept and slopes solving the normal equations of the float design
    in exact rational arithmetic."""
    columns = [np.ones(len(y)), *x.T, y]
    # each float is an integer over a power of two: scale a column to integers
    scaled = []
    for column in columns:
        ratios = [v.as_integer_ratio() for v in column.tolist()]
        denominator = max(q for _, q in ratios)
        scaled.append(([p * (denominator // q) for p, q in ratios], denominator))
    m = len(columns) - 1
    rows = [[Fraction(sum(map(int.__mul__, a, b)), da * db) for b, db in scaled]
            for a, da in scaled[:m]]
    for c in range(m):  # Gauss-Jordan; the Gram matrix of a full-rank design is positive definite
        for r in range(m):
            if r != c:
                factor = rows[r][c] / rows[c][c]
                rows[r] = [u - factor * v for u, v in zip(rows[r], rows[c])]
    return [rows[i][m] / rows[i][i] for i in range(m)]


@pytest.mark.parametrize("spread, tolerance", [(1e-4, 1e-9), (1e-5, 1e-7)])
def test_ols_matches_exact_rational_solution(spread, tolerance):
    # column 1 is column 0 plus noise at `spread` of its spread. The
    # tolerances were fixed from 300 designs of another seed stream: worst
    # 7.1e-10 at 1e-4 and 1.5e-8 at 1e-5, the same for a triangular solve and
    # for inv(R), because the QR factorization of the design sets the error
    for seed in range(40):
        rng = np.random.default_rng([seed, 23])
        k = int(rng.integers(2, 7))
        n = int(rng.integers(k + 2, 600))
        x = rng.normal(size=(n, k)) * rng.uniform(0.1, 10.0, size=k) + rng.uniform(-5, 5, size=k)
        x[:, 1] = x[:, 0] + spread * x[:, 0].std() * rng.normal(size=n)
        y = x @ rng.normal(size=k) + rng.uniform(0.01, 3.0) * rng.normal(size=n)
        fit = regression._ols_arrays(x, y, "y", [f"x{j}" for j in range(k)])
        for actual, exact in zip(fit.coefficients, _exact_least_squares(x, y)):
            err = float(abs(Fraction(actual) - exact) / max(1, abs(exact)))
            assert err <= tolerance, (seed, n, k, err)


def test_stepwise_requires_candidates(sorted_dataset):
    with pytest.raises(ValidationError):
        stepwise_fit(sorted_dataset, SII, [])


def test_predict_mapping(simple_fit, sorted_dataset):
    assert abs(predict(simple_fit, {IDESI: 42.0}) - 51.44036411386348) < 1e-12
    step_fit, _ = stepwise_fit(sorted_dataset, SII, DIMENSIONS)
    assert abs(predict(step_fit, {IDT: 19.0}) - 40.128) < 0.3
    with pytest.raises(ValidationError, match="unknown"):
        predict(simple_fit, {IDESI: 42.0, "bogus": 1.0})
    with pytest.raises(ValidationError, match="missing"):
        predict(simple_fit, {})


@pytest.mark.parametrize("score", ["42", math.nan, math.inf, True, None, [42.0], -1.0, 142.0])
def test_predict_rejects_a_score_that_is_not_a_real_number_in_range(simple_fit, score):
    with pytest.raises(ValidationError, match=f"score {re.escape(repr(score))} "):
        predict(simple_fit, {IDESI: score})


@pytest.mark.parametrize("value", [50.0, 47.3])
def test_constant_response_is_degenerate(value):
    """A fit with predictors of a constant response has no R^2, F or p: it
    is rejected, naming the response, where it would report F = inf and
    p = 0 at R^2 = 0, or residuals of rounding noise. The intercept-only
    model still fits it, with RMSE 0."""
    rng = np.random.default_rng(4)
    ds = _column_dataset({"y": np.full(20, value), "a": np.round(rng.uniform(10.0, 90.0, 20), 1),
                          "b": np.round(rng.uniform(10.0, 90.0, 20), 1)})
    for predictors in (["a"], ["a", "b"]):
        with pytest.raises(DegenerateDataError, match="response 'y' is constant"):
            fit_ols(ds, "y", predictors)
    with pytest.raises(DegenerateDataError, match="response 'y' is constant"):
        stepwise_fit(ds, "y", ["a", "b"])
    h0 = null_model(ds, "y")
    assert h0.intercept == value and h0.rmse == 0.0 and h0.r_squared == 0.0


def test_fit_errors(sorted_dataset):
    with pytest.raises(ValidationError, match="own predictor"):
        fit_ols(sorted_dataset, SII, [SII])
    ds = Dataset(("y", "a", "b"), [f"C{i}" for i in range(10)],
                 [[10 + i, 20 + i, 25 + i] for i in range(10)])
    with pytest.raises(SingularDesignError):
        fit_ols(ds, "y", ["a", "b"])
    tiny = Dataset(("y", "a", "b"), ("A", "B", "C"),
                   [[1.0, 2.0, 5.0], [2.0, 3.0, 7.0], [3.0, 5.0, 8.0]])
    with pytest.raises(InsufficientDataError):
        fit_ols(tiny, "y", ["a", "b"])


def test_durbin_watson_rejects_exact_fit():
    # y is an exact linear function of x, so the fit's residuals are rounding
    # noise (about 1e-14), not zeros
    x = np.round(np.random.default_rng(3).uniform(10.0, 60.0, 20), 1)
    ds = Dataset(("x", "y"), [f"C{i:02d}" for i in range(20)], np.column_stack([x, 0.7 * x + 3.1]))
    fit = fit_ols(ds, "y", ["x"])
    assert 0.0 < max(map(abs, fit.residuals)) < 1e-13
    with pytest.raises(ValidationError, match="residuals at rounding level"):
        durbin_watson(fit, replicates=10, seed=1)
    with pytest.raises(ValidationError, match="residuals at rounding level"):
        regression._durbin_watson_many([null_model(ds, "y"), fit], replicates=10, seed=1)
    # a raw sequence carries no response: only exact zeros are rejected
    assert durbin_watson(fit.residuals, replicates=10, seed=1).d > 0.0
    with pytest.raises(ValidationError, match="all-zero residuals"):
        durbin_watson([0.0] * 5, replicates=10, seed=1)
