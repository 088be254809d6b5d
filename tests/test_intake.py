"""Non-finite input to a sample-taking statistic or a tail probability, a
sample or matrix of text, bytes, bools or complex numbers, and a number a
caller passes in that is none (see ``indexlab.base``), ends in an
IndexLabError subclass, never in a number or a bare exception."""
import math
import warnings
from decimal import Decimal

import numpy as np
import pytest

from indexlab import (
    CorrelationMatrix,
    Dataset,
    DefinitionError,
    DomainError,
    IndexComponent,
    IndexDefinition,
    ValidationError,
    boxplot_outliers,
    bundled_table_a1,
    chi2_tail_p,
    compute_composite,
    correlation_matrix,
    describe,
    durbin_watson,
    eigen_symmetric,
    f_tail_p,
    fit_ols,
    kmo,
    pearson,
    predict,
    predict_country,
    preset,
    principal_components,
    regularized_beta,
    regularized_gamma_q,
    shapiro_wilk,
    t_two_tailed_p,
    tukey_hinges,
)
from indexlab.dataset import DIMENSIONS, IDESI, SII

_SAMPLE = (3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0)

# entry point -> (call on a sample, the argument name its error gives)
_SAMPLE_CALLS = {
    "describe": (describe, "series"),
    "shapiro_wilk": (shapiro_wilk, "series"),
    "tukey_hinges": (tukey_hinges, "series"),
    "boxplot_outliers": (boxplot_outliers, "series"),
    "pearson-x": (lambda s: pearson(s, _SAMPLE), "x"),
    "pearson-y": (lambda s: pearson(_SAMPLE, s), "y"),
    "durbin_watson": (lambda s: durbin_watson(s, replicates=100), "fit"),
}
# tail function argument -> (call on it, its name, the guard that refuses a
# NaN, and, for a df or a shape, an infinity: see _FINITE_TAIL_ARGUMENTS)
_TAIL_CALLS = {
    "t-statistic": (lambda v: t_two_tailed_p(v, 10), "t", "t statistic is NaN"),
    "t-df": (lambda v: t_two_tailed_p(2.0, v), "df", "df >= 1"),
    "f-statistic": (lambda v: f_tail_p(v, 2, 10), "f", "non-negative, got nan"),
    "f-df1": (lambda v: f_tail_p(1.0, v, 10), "df1", "df1, df2 >= 1"),
    "f-df2": (lambda v: f_tail_p(1.0, 2, v), "df2", "df1, df2 >= 1"),
    "chi2-statistic": (lambda v: chi2_tail_p(v, 4), "x", "non-negative, got nan"),
    "chi2-df": (lambda v: chi2_tail_p(1.0, v), "df", "df >= 1"),
    "beta-x": (lambda v: regularized_beta(v, 2.0, 3.0), "x", "argument x is NaN"),
    "beta-a": (lambda v: regularized_beta(0.5, v, 2), "a", "parameter a must be positive and finite"),
    "beta-b": (lambda v: regularized_beta(0.5, 2, v), "b", "parameter b must be positive and finite"),
    "gamma-a": (lambda v: regularized_gamma_q(v, 2.0), "a", "shape a must be positive and finite"),
    "gamma-x": (lambda v: regularized_gamma_q(2.0, v), "x", "x must be non-negative, got nan"),
}
# the arguments that must be finite; an int past the float range reads as
# infinite, so it is refused by the same guard
_FINITE_TAIL_ARGUMENTS = ("t-df", "f-df1", "f-df2", "chi2-df", "beta-a", "beta-b", "gamma-a")
# a sample numpy would read as numbers, though it holds none -> what the error names
_NOT_REAL = {
    "text": (tuple(str(v) for v in _SAMPLE), "text"),
    "bytes": (tuple(str(v).encode() for v in _SAMPLE), "bytes"),
    "bools": (tuple(v > 3.0 for v in _SAMPLE), "bools"),
    "numpy-bools": (np.array(_SAMPLE) > 3.0, "bools"),
    "complex": (np.array(_SAMPLE) + 0j, "complex numbers"),
    # an int past int64 makes an object array, read value by value
    "huge-int-and-text": ((2**70, "1") + _SAMPLE[2:], "text"),
    "huge-int-and-bool": ((2**70, np.True_) + _SAMPLE[2:], "bools"),
    # numpy reads these lists as float64, so each value is read in turn
    "bool-among-floats": ([True, 2.0, 3.0], "bools"),
    "text-among-floats": ([2.0, "x", 3.0], "text"),
    "bool-among-numbers": ((1, 2.5, False), "bools"),
    "numpy-bool-among-floats": ([2.0, np.True_, 3.0], "bools"),
    # numpy would read these as floats or as NaN, yet they are no numbers
    "Decimal-among-floats": ([2.0, Decimal("1"), 3.0], "Decimal"),
    "None-among-floats": ([2.0, None, 3.0], "NoneType"),
}
# a sample that is no 1-d sequence of values -> what the error says
_NOT_A_SAMPLE = {
    "ragged": ([[1.0, 2.0], [3.0]], "is not numeric"),
    "2-d": ([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], "must be 1-dimensional, got shape \\(2, 3\\)"),
}
_NOT_NUMBERS = {
    "huge-int": 10**400,
    "negative-huge-int": -10**400,
    "Decimal": Decimal("50"),
    "bool": True,
    "numpy-bool": np.True_,
    "text": "50",
    "None": None,
}
_CASES = [
    pytest.param(call, (_SAMPLE[0], bad) + _SAMPLE[2:], ValidationError,
                 f"{arg} contains non-finite", id=f"{name}-{bad}")
    for name, (call, arg) in _SAMPLE_CALLS.items()
    for bad in (math.nan, math.inf, -math.inf)
] + [
    pytest.param(call, sample, ValidationError, f"{arg} is not numeric: it holds {what}",
                 id=f"{name}-{kind}")
    for name, (call, arg) in _SAMPLE_CALLS.items()
    for kind, (sample, what) in _NOT_REAL.items()
] + [
    pytest.param(call, sample, ValidationError, f"{arg} {what}", id=f"{name}-{kind}")
    for name, (call, arg) in _SAMPLE_CALLS.items()
    for kind, (sample, what) in _NOT_A_SAMPLE.items()
] + [
    # a matrix of one such sample in every row
    pytest.param(lambda s: eigen_symmetric([list(s)] * len(s)), sample, ValidationError,
                 f"matrix is not numeric: it holds {what}", id=f"eigen_symmetric-{kind}")
    for kind, (sample, what) in _NOT_REAL.items()
] + [
    pytest.param(call, math.nan, DomainError, guard, id=name)
    for name, (call, _, guard) in _TAIL_CALLS.items()
] + [
    pytest.param(call, bad, DomainError, guard, id=f"{name}-{kind}")
    for name, (call, _, guard) in _TAIL_CALLS.items() if name in _FINITE_TAIL_ARGUMENTS
    for kind, bad in (("inf", math.inf), ("huge-int", 10**400))
] + [
    pytest.param(call, bad, DomainError, f"{arg} must be a real number", id=f"{name}-{kind}")
    for name, (call, arg, _) in _TAIL_CALLS.items()
    for kind, bad in _NOT_NUMBERS.items() if "huge-int" not in kind
]


@pytest.mark.parametrize("call, value, error, match", _CASES)
def test_non_finite_input_is_rejected(call, value, error, match):
    with pytest.raises(error, match=match):
        call(value)


@pytest.mark.parametrize("name", [name for name in _TAIL_CALLS if name not in _FINITE_TAIL_ARGUMENTS])
def test_a_huge_int_tail_statistic_reads_as_infinity(name):
    call, _, _ = _TAIL_CALLS[name]

    def outcome(value):
        try:
            return call(value)
        except DomainError as exc:  # a negative statistic
            return str(exc)
    assert outcome(10**400) == outcome(math.inf)
    assert outcome(-10**400) == outcome(-math.inf)


def test_tail_arguments_of_any_real_type_are_read_as_floats():
    """An int, a numpy number or a fractional df is read as its float, and
    the p of an np.float64 statistic is a Python float, so float() of it
    warns of nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p, expected in ((t_two_tailed_p(np.float64(2.0), np.int64(10)), t_two_tailed_p(2.0, 10.0)),
                            (f_tail_p(np.float64(2.0), 2, np.float32(10)), f_tail_p(2.0, 2.0, 10.0)),
                            (chi2_tail_p(np.float64(2.0), 4), chi2_tail_p(2.0, 4.0))):
            assert type(p.value) is float and float(p) == p.value == expected.value
    assert 0.0 < t_two_tailed_p(2.0, 1.5).value < t_two_tailed_p(2.0, 1).value


@pytest.mark.parametrize("name", _SAMPLE_CALLS)
def test_real_numbers_of_any_type_are_read_as_floats(name):
    """Ints past int64, and numpy ints and floats, are scored as their float
    values are."""
    call, _ = _SAMPLE_CALLS[name]
    floats = tuple(v * 2.0**70 for v in _SAMPLE)
    assert call(tuple(int(v) for v in floats)) == call(floats)
    assert call(tuple(np.float32(v) for v in _SAMPLE)) == call(_SAMPLE)
    assert call(np.array(_SAMPLE).astype(np.int64)) == call(tuple(float(int(v)) for v in _SAMPLE))


_FIT = fit_ols(bundled_table_a1(), SII, [IDESI])
_SCORES = {name: 50.0 for name in DIMENSIONS}


def _correlations(cell) -> CorrelationMatrix:
    """A hand-built correlation matrix of two variables whose r is ``cell``."""
    return CorrelationMatrix(variables=("a", "b"), r=((1.0, cell), (cell, 1.0)),
                             p=((0.0, 0.0), (0.0, 0.0)), stars=(("", ""), ("", "")), n=10)


# entry point -> (call on one number a caller passes in, the error it raises for a non-number)
_NUMBER_CALLS = {
    "predict": (lambda v: predict(_FIT, {IDESI: v}), ValidationError),
    "predict_country": (lambda v: predict_country("simple", v), ValidationError),
    "Dataset": (lambda v: Dataset(("a",), ("A",), [[v]]), ValidationError),
    "weight": (lambda v: IndexDefinition("x", (IndexComponent("a", v),)), DefinitionError),
    "compute_composite": (
        lambda v: compute_composite(preset("idesi-2020"), {**_SCORES, "Connectivity": v}),
        ValidationError),
    "retention": (lambda v: principal_components(
        correlation_matrix(bundled_table_a1(), DIMENSIONS), v), ValidationError),
    # any non-negative int is a seed, so only the replicate count is tried
    "replicates": (lambda v: durbin_watson(_SAMPLE, replicates=v), ValidationError),
    "matrix-cell": (lambda v: eigen_symmetric([[1.0, v], [v, 1.0]]), ValidationError),
    "correlation-cell-pca": (lambda v: principal_components(_correlations(v)), ValidationError),
    "correlation-cell-kmo": (lambda v: kmo(_correlations(v)), ValidationError),
    # a statistic past the float range is infinite, so only the dfs and shapes are tried
    **{f"tail-{name}": (call, DomainError)
       for name, (call, _, _) in _TAIL_CALLS.items() if name in _FINITE_TAIL_ARGUMENTS},
    **{f"sample-{name}": (lambda v, call=call: call((_SAMPLE[0], v) + _SAMPLE[2:]),
                          ValidationError)
       for name, (call, _) in _SAMPLE_CALLS.items()},
}


@pytest.mark.parametrize("entry, value", [
    pytest.param(entry, value, id=f"{entry}-{kind}")
    for entry in _NUMBER_CALLS for kind, value in _NOT_NUMBERS.items()
])
def test_a_number_that_is_none_is_rejected_at_every_entry_point(entry, value):
    call, error = _NUMBER_CALLS[entry]
    with pytest.raises(error) as raised:
        call(value)
    assert raised.type is error
