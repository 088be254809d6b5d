"""The three benchmark workloads: inputs made from a seed, one op each, and
the per-op correctness checks run outside the timed interval.

Every call into indexlab goes through a module attribute looked up at call
time (``indexlab.reproduce_all``, not a name bound at import), so the span
tracer in ``spans.py`` sees the benchmark's own calls as well as the calls
the package makes internally.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

import indexlab
from indexlab.dataset import DIMENSIONS, IDESI, PILLARS, SII

SCHEMA = (SII,) + PILLARS + (IDESI,) + DIMENSIONS
FORMATS = ("json", "markdown", "csv")
PRESETS = {"sii-2016": PILLARS, "idesi-2020": DIMENSIONS}

PUBLISHED_SEED = 42
PUBLISHED_REPLICATES = 10_000
GOLDEN_CELLS = 374

SCALE_ROWS = 2_900
SCALE_REPLICATES = 1
SCALE_POOL = 3

BATCH_ROWS = (10, 120)
BATCH_REPLICATES = 1_000
BATCH_UNCORRELATED_EVERY = 10  # ops 5, 15, 25, ... are uncorrelated
BATCH_RERUN_EVERY = 5  # ops 0, 5, 10, ... are repeated, so both kinds are

# oracle tolerances, relative to max(1, |reference|)
TOL_R = 1e-9
TOL_COEF = 1e-8
TOL_EIGEN = 1e-9
TOL_COMPOSITE = 1e-9


@dataclass(frozen=True)
class PipelineInput:
    """A generated Table-A1-schema dataset, as CSV text plus the matrix the
    oracles read, with the Durbin-Watson seed and replicate count of its op."""

    key: int
    csv_text: str
    data: np.ndarray  # rows in file order, columns in SCHEMA order
    dw_seed: int
    replicates: int


@dataclass
class Outcome:
    texts: dict = field(default_factory=dict)  # format -> emitted text
    composites: dict = field(default_factory=dict)  # preset -> per-row values
    golden_passed: int = 0
    golden_cells: int = 0


# ---------------------------------------------------------------------------
# inputs

def schema_dataset(rng: np.random.Generator, n: int, correlated: bool) -> tuple[np.ndarray, list[str]]:
    """Scores in [5, 95] with one decimal, as the published table prints them.

    Correlated data follow a one-factor model. Uncorrelated data draw skewed
    dimensions, so the normality gate excludes some and stepwise selection
    usually keeps no predictor.
    """
    if correlated:
        factor = rng.normal(50.0, 9.0, size=n)
        sii = factor + rng.normal(0.0, 2.0, size=n)
        pillars = factor[:, None] + rng.normal(0.0, 6.0, size=(n, 4))
        idesi = factor + rng.normal(0.0, 3.0, size=n)
        dims = factor[:, None] + rng.normal(0.0, 3.0, size=(n, 5))
    else:
        sii = rng.normal(50.0, 8.0, size=n)
        pillars = rng.normal(55.0, 10.0, size=(n, 4))
        idesi = rng.normal(50.0, 8.0, size=n)
        dims = 20.0 + rng.exponential(12.0, size=(n, 5))
    data = np.column_stack([sii, pillars, idesi, dims])
    data = np.round(np.clip(data, 5.0, 95.0), 1)
    # names out of alphabetical order, so the pipeline's sort does real work
    names = [f"C{code:05d}" for code in rng.permutation(n)]
    return data, names


def csv_text(data: np.ndarray, names: list[str]) -> str:
    lines = [",".join(("country",) + SCHEMA)]
    for name, row in zip(names, data.tolist()):
        lines.append(",".join([name] + [repr(v) for v in row]))
    return "\n".join(lines) + "\n"


def pipeline_input(rng: np.random.Generator, key: int, n: int, correlated: bool,
                   replicates: int) -> PipelineInput:
    data, names = schema_dataset(rng, n, correlated)
    return PipelineInput(key=key, csv_text=csv_text(data, names), data=data,
                         dw_seed=int(rng.integers(0, 2**31 - 1)),
                         replicates=replicates)


def scale_inputs(seed: int, n: int = SCALE_ROWS) -> Iterator[PipelineInput]:
    """A small pool of n-row datasets, cycled, so repeats can be compared."""
    rng = np.random.default_rng([seed, n])
    pool = [pipeline_input(rng, k, n, True, SCALE_REPLICATES) for k in range(SCALE_POOL)]
    i = 0
    while True:
        yield pool[i % SCALE_POOL]
        i += 1


def batch_inputs(seed: int) -> Iterator[PipelineInput]:
    """A fresh dataset, row count and Durbin-Watson seed for every op."""
    i = 0
    while True:
        rng = np.random.default_rng([seed, i])
        n = int(rng.integers(BATCH_ROWS[0], BATCH_ROWS[1] + 1))
        correlated = i % BATCH_UNCORRELATED_EVERY != BATCH_UNCORRELATED_EVERY // 2
        yield pipeline_input(rng, i, n, correlated, BATCH_REPLICATES)
        i += 1


def published_inputs(seed: int) -> Iterator[None]:
    """The paper's own run: the bundled table, seed 42; the workload seed is unused."""
    while True:
        yield None


# ---------------------------------------------------------------------------
# ops

def published_op(_inp: None) -> Outcome:
    bundle = indexlab.reproduce_all(indexlab.bundled_table_a1(), seed=PUBLISHED_SEED,
                                    replicates=PUBLISHED_REPLICATES)
    diff = indexlab.diff_golden(bundle)
    out = Outcome(golden_passed=diff.n_pass, golden_cells=len(diff.cells))
    for fmt in FORMATS:
        out.texts[fmt] = indexlab.emit(bundle, fmt)
    return out


def pipeline_op(inp: PipelineInput) -> Outcome:
    """Parse and re-emit the CSV as the CLI does, recompute both presets per
    row, run the analysis, and emit every format."""
    ds = indexlab.parse_dataset(inp.csv_text)
    indexlab.emit_dataset(ds)
    out = Outcome()
    for name, components in PRESETS.items():
        definition = indexlab.preset(name)
        columns = [ds.column(c) for c in components]
        out.composites[name] = [
            indexlab.compute_composite(definition, dict(zip(components, row))).value
            for row in zip(*columns)
        ]
    bundle = indexlab.reproduce_all(ds, seed=inp.dw_seed, replicates=inp.replicates)
    for fmt in FORMATS:
        out.texts[fmt] = indexlab.emit(bundle, fmt)
    return out


def warm_up() -> None:
    """Load the bundled table and run every stage once at one replicate, so
    lazy imports and first-call costs fall before timing."""
    bundle = indexlab.reproduce_all(indexlab.bundled_table_a1(), seed=PUBLISHED_SEED,
                                    replicates=1)
    indexlab.diff_golden(bundle)
    for fmt in FORMATS:
        indexlab.emit(bundle, fmt)


# ---------------------------------------------------------------------------
# checks

def check_published(_inp: None, out: Outcome) -> list[str]:
    if out.golden_cells != GOLDEN_CELLS or out.golden_passed != GOLDEN_CELLS:
        return [f"golden diff {out.golden_passed}/{out.golden_cells} passed, "
                f"expected {GOLDEN_CELLS}/{GOLDEN_CELLS}"]
    return []


def _close(actual, expected, tol: float) -> bool:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return actual.shape == expected.shape and bool(
        np.all(np.abs(actual - expected) <= tol * np.maximum(1.0, np.abs(expected))))


def _lstsq(data: np.ndarray, response: str, predictors: list[str]) -> np.ndarray:
    y = data[:, SCHEMA.index(response)]
    x = np.column_stack([np.ones(len(y))] + [data[:, SCHEMA.index(p)] for p in predictors])
    return np.linalg.lstsq(x, y, rcond=None)[0]


def check_pipeline(inp: PipelineInput, out: Outcome) -> list[str]:
    """Compare the emitted JSON and the composites with numpy oracles."""
    errors: list[str] = []
    data = inp.data
    tables = json.loads(out.texts["json"])["tables"]

    for table_id in ("T4", "T10", "T11"):
        table = tables[table_id]
        cols = [SCHEMA.index(v) for v in table["variables"]]
        expected = np.corrcoef(data[:, cols], rowvar=False)
        if not _close(table["r"], expected, TOL_R):
            errors.append(f"{table_id} r differs from np.corrcoef")

    for table_id in ("T3", "T5", "T9"):
        h1 = tables[table_id]["rows"]["H1"]
        terms = tables[table_id]["row_order"]["H1"]
        actual = [h1[term]["unstandardized"] for term in terms]
        if not _close(actual, _lstsq(data, SII, terms[1:]), TOL_COEF):
            errors.append(f"{table_id} coefficients differ from np.linalg.lstsq")

    dims = data[:, [SCHEMA.index(d) for d in DIMENSIONS]]
    expected = np.linalg.eigvalsh(np.corrcoef(dims, rowvar=False))[::-1]
    if not _close(tables["T6"]["eigenvalues"], expected, TOL_EIGEN):
        errors.append("T6 eigenvalues differ from np.linalg.eigvalsh")

    for name, components in PRESETS.items():
        weights = np.array([c.weight for c in indexlab.preset(name).components])
        cols = [SCHEMA.index(c) for c in components]
        expected = data[:, cols] @ (weights / weights.sum())
        if not _close(out.composites[name], expected, TOL_COMPOSITE):
            errors.append(f"compute_composite({name}) differs from the weighted dot product")
    return errors


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], Iterator]
    op: Callable
    check: Callable
    # inputs never repeat, so repeatability is checked by running every
    # rerun_every-th op a second time, outside the timed interval
    rerun_every: int = 0


WORKLOADS = {
    "published": Workload("published", published_inputs, published_op, check_published),
    "scale": Workload("scale", scale_inputs, pipeline_op, check_pipeline),
    "batch": Workload("batch", batch_inputs, pipeline_op, check_pipeline,
                      rerun_every=BATCH_RERUN_EVERY),
}
