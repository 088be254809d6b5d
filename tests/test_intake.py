"""Non-finite input to a sample-taking statistic or a tail probability ends
in an IndexLabError subclass, never in a number."""
import math

import pytest

from indexlab import (
    DomainError,
    ValidationError,
    boxplot_outliers,
    chi2_tail_p,
    describe,
    durbin_watson,
    f_tail_p,
    pearson,
    shapiro_wilk,
    t_two_tailed_p,
    tukey_hinges,
)

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
_CASES = [
    pytest.param(call, (_SAMPLE[0], bad) + _SAMPLE[2:], ValidationError,
                 f"{arg} contains non-finite", id=f"{name}-{bad}")
    for name, (call, arg) in _SAMPLE_CALLS.items()
    for bad in (math.nan, math.inf, -math.inf)
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
