"""Non-finite input to a sample-taking statistic or a tail probability, a
sample of text, bytes, bools or complex numbers, and a number a caller
passes in that is none (see ``indexlab.base``), ends in an IndexLabError
subclass, never in a number or a bare exception."""
import math
from decimal import Decimal

import numpy as np
import pytest

from indexlab import (
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
    f_tail_p,
    fit_ols,
    pearson,
    predict,
    predict_country,
    preset,
    principal_components,
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
# tail function -> (call on a NaN, or on an infinite df, the guard its error comes from)
_TAIL_CALLS = {
    "t-statistic": (lambda v: t_two_tailed_p(v, 10), "t statistic is NaN"),
    "t-df": (lambda v: t_two_tailed_p(2.0, v), "df >= 1"),
    "f-statistic": (lambda v: f_tail_p(v, 2, 10), "non-negative, got nan"),
    "f-df1": (lambda v: f_tail_p(1.0, v, 10), "df1, df2 >= 1"),
    "f-df2": (lambda v: f_tail_p(1.0, 2, v), "df1, df2 >= 1"),
    "chi2-statistic": (lambda v: chi2_tail_p(v, 4), "non-negative, got nan"),
    "chi2-df": (lambda v: chi2_tail_p(1.0, v), "df >= 1"),
}
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
    pytest.param(call, math.nan, DomainError, guard, id=name)
    for name, (call, guard) in _TAIL_CALLS.items()
] + [
    pytest.param(call, math.inf, DomainError, guard, id=f"{name}-inf")
    for name, (call, guard) in _TAIL_CALLS.items() if "-df" in name
]


@pytest.mark.parametrize("call, value, error, match", _CASES)
def test_non_finite_input_is_rejected(call, value, error, match):
    with pytest.raises(error, match=match):
        call(value)


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
    **{f"sample-{name}": (lambda v, call=call: call((_SAMPLE[0], v) + _SAMPLE[2:]),
                          ValidationError)
       for name, (call, _) in _SAMPLE_CALLS.items()},
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


@pytest.mark.parametrize("entry, value", [
    pytest.param(entry, value, id=f"{entry}-{kind}")
    for entry in _NUMBER_CALLS for kind, value in _NOT_NUMBERS.items()
])
def test_a_number_that_is_none_is_rejected_at_every_entry_point(entry, value):
    call, error = _NUMBER_CALLS[entry]
    with pytest.raises(error) as raised:
        call(value)
    assert raised.type is error
