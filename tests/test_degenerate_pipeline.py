"""Degenerate datasets through the whole pipeline and the CLI.

Each dataset either fails with an ``IndexLabError`` subclass, pinned here
with its message, or gives a report whose JSON holds only finite numbers.
Through the CLI each command exits 0, or exits 1 with one ``error:`` line.
"""
import json

import numpy as np
import pytest

from indexlab import (
    DegenerateDataError,
    DomainError,
    IndexLabError,
    InsufficientDataError,
    SingularDesignError,
    ValidationError,
    emit,
    parse_dataset,
    reproduce_all,
)
from indexlab.cli import main
from indexlab.dataset import DIMENSIONS, IDESI, PILLARS, SII

_SCHEMA = (SII,) + PILLARS + (IDESI,) + DIMENSIONS
_SII, _IDESI, _DIM0, _DIM1 = 0, 5, 6, 7


def _scores(seed: int, n: int) -> np.ndarray:
    """One-factor scores in [5, 95] with one decimal, as the published table."""
    rng = np.random.default_rng([seed, n])
    factor = rng.normal(50.0, 9.0, size=n)
    data = factor[:, None] + rng.normal(0.0, 3.0, size=(n, len(_SCHEMA)))
    return np.round(np.clip(data, 5.0, 95.0), 1)


def _with(data: np.ndarray, column: int, values) -> np.ndarray:
    data = data.copy()
    data[:, column] = values
    return data


def _datasets() -> dict[str, np.ndarray]:
    base = _scores(1, 29)
    return {
        "n1": _scores(7, 1),
        "n2": _scores(8, 2),
        "n3": _scores(2, 3),
        "n4": _scores(3, 4),
        "n5": _scores(4, 5),
        "n8": _scores(5, 8),
        "constant_sii": _with(base, _SII, 50.0),
        "constant_dimension": _with(base, _DIM0, 50.0),
        "all_constant": np.full_like(base, 50.0),
        "duplicated_dimensions": _with(base, _DIM1, base[:, _DIM0]),
        "coarsened_to_tens": np.round(base / 10.0) * 10.0,
        "sii_equals_idesi": _with(base, _SII, base[:, _IDESI]),
        "n6000": _scores(6, 6000),
    }


_DATASETS = _datasets()

# the error each dataset ends in, or None for a full report
_OUTCOMES = {
    # every table under 7 rows fails with the five-predictor model's message,
    # before any stage runs
    "n1": (InsufficientDataError, "need at least 7 rows to fit 5 predictors"),
    "n2": (InsufficientDataError, "need at least 7 rows to fit 5 predictors"),
    "n3": (InsufficientDataError, "need at least 7 rows to fit 5 predictors"),
    "n4": (InsufficientDataError, "need at least 7 rows to fit 5 predictors"),
    "n5": (InsufficientDataError, "need at least 7 rows to fit 5 predictors"),
    "n8": None,
    "constant_sii": (DegenerateDataError, "shapiro_wilk needs non-constant data"),
    "constant_dimension": (DegenerateDataError, "shapiro_wilk needs non-constant data"),
    "all_constant": (DegenerateDataError, "shapiro_wilk needs non-constant data"),
    "duplicated_dimensions": (SingularDesignError,
                              "column 'Human capital' is linearly dependent"),
    "coarsened_to_tens": None,
    # the simple model fits exactly: its residuals are rounding noise (7e-15),
    # not all zero, and Durbin-Watson must not score that noise as data
    "sii_equals_idesi": (ValidationError,
                         "Durbin-Watson is undefined for residuals at rounding level"),
    "n6000": (DomainError, "shapiro_wilk needs 3 <= n <= 5000, got 6000"),
}


def _csv_text(data: np.ndarray) -> str:
    # names out of alphabetical order, so the pipeline's sort reorders rows
    order = np.random.default_rng(len(data)).permutation(len(data))
    lines = [",".join(("country",) + _SCHEMA)]
    lines += [",".join([f"C{code:05d}", *map(repr, row)])
              for code, row in zip(order.tolist(), data.tolist())]
    return "\n".join(lines) + "\n"


def _reject_constant(token: str):
    raise AssertionError(f"JSON holds the non-finite number {token}")


@pytest.mark.parametrize("name", list(_DATASETS))
def test_degenerate_dataset_through_pipeline(name):
    dataset = parse_dataset(_csv_text(_DATASETS[name]))
    expected = _OUTCOMES[name]
    if expected is not None:
        error, message = expected
        with pytest.raises(IndexLabError) as caught:
            reproduce_all(dataset, seed=11, replicates=200)
        assert type(caught.value) is error and message in str(caught.value), caught.value
        return
    bundle = reproduce_all(dataset, seed=11, replicates=200)
    json.loads(emit(bundle, "json"), parse_constant=_reject_constant)
    for fmt in ("markdown", "csv"):
        assert emit(bundle, fmt)


_COMMANDS = (
    ["dataset", "validate"],
    ["index", "compute", "--preset", "sii-2016"],
    ["index", "compute", "--preset", "idesi-2020"],
    ["describe"],
    ["normality"],
    ["correlate"],
    ["regress", "--response", SII, "--predictor", IDESI, "--replicates", "200"],
    ["regress", "--response", SII, *[arg for d in DIMENSIONS for arg in ("--predictor", d)],
     "--replicates", "200"],
    ["pca"],
)


@pytest.mark.parametrize("name", list(_DATASETS))
def test_degenerate_dataset_through_cli(name, tmp_path, capsys):
    path = tmp_path / f"{name}.csv"
    path.write_text(_csv_text(_DATASETS[name]))
    for command in _COMMANDS:
        code = main([*command, "--input", str(path)])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err, command
        if code == 0:
            assert captured.err == "", (command, captured.err)
        else:
            lines = captured.err.splitlines()
            assert code == 1 and len(lines) == 1 and lines[0].startswith("error: "), \
                (command, code, captured.err)
