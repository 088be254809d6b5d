"""Full analysis pipeline, report bundle assembly, and serialization.

reproduce_all runs the published analysis end to end on a Table-A1-schema
dataset: descriptives and normality, outlier screening, the simple model
with Durbin-Watson and ANOVA, the prediction, correlation tables, the
five-predictor model with collinearity and casewise diagnostics, PCA with
KMO and Bartlett, the normality gate, the stepwise model, and figure data.

Rows are sorted by country name before any model is fitted; the published
Durbin-Watson statistics are reproducible only under that ordering, so the
pipeline makes it an explicit first stage and records it in provenance.

The bundle's table dicts are the one stored model. For markdown and CSV, one
layout function per table kind turns a table into a grid of labelled rows
and columns (each column with its CSV key, markdown label and markdown
format) plus the lines that follow it, and one renderer per format draws it.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import _version
from .correlation import CorrelationMatrix, correlation_matrix
from .dataset import (
    DIMENSIONS,
    IDESI,
    PILLARS,
    SII,
    Dataset,
    _check_score,
    bundled_table_a1,
    emit_dataset,
)
from .descriptive import (
    DescriptiveStats,
    NormalityResult,
    _moments,
    _outliers,
    _per_column,
    _shapiro_wilk_ordered,
    shapiro_wilk,
)
from .errors import ValidationError
from .pca import PcaResult, principal_components
from .regression import (
    DEFAULT_REPLICATES,
    DEFAULT_SEED,
    DW_PERMUTATION,
    LinearModelFit,
    _check_bootstrap,
    _check_rows,
    _durbin_watson_many,
    casewise_diagnostics,
    fit_ols,
    null_model,
    predict,
    stepwise_fit,
)

GATE_ALPHA = 0.05
HISTOGRAM_BINS = 10
HISTOGRAM_RANGE = (-3.5, 3.5)

PUBLISHED_PREDICTION_INPUT = 42.0
PUBLISHED_PREDICTION_VALUE = 51.084
PUBLISHED_PREDICTION_INTERCEPT = 15.048

_SCHEMA = (SII,) + PILLARS + (IDESI,) + DIMENSIONS
_T1_COLUMNS = _SCHEMA
_T7_COLUMNS = (SII,) + DIMENSIONS
# one matrix per run: T4/T10 is its block [0:6], the PCA input [1:6], T11 [1:10]
_CORR_VARIABLES = (SII,) + DIMENSIONS + PILLARS

FORMATS = ("csv", "markdown", "json")


@dataclass(frozen=True)
class ReportBundle:
    """Every section of a report, declared in the order JSON writes them."""
    provenance: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)
    normality_screen: dict = field(default_factory=dict)
    outlier_screen: dict = field(default_factory=dict)
    gate: dict = field(default_factory=dict)
    casewise: dict = field(default_factory=dict)
    predictions: list = field(default_factory=list)
    figures: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        # a shallow copy: dataclasses.asdict would deep-copy every figure
        return dict(vars(self))


def validate_schema(dataset: Dataset) -> None:
    """Reject datasets whose columns differ from the bundled reference schema."""
    have = set(dataset.columns)
    want = set(_SCHEMA)
    missing = sorted(want - have)
    unexpected = sorted(have - want)
    if missing or unexpected:
        parts = []
        if missing:
            parts.append(f"missing columns: {', '.join(missing)}")
        if unexpected:
            parts.append(f"unexpected columns: {', '.join(unexpected)}")
        raise ValidationError("dataset schema mismatch; " + "; ".join(parts))


def _descriptives_table(columns: Sequence[str], stats: dict[str, DescriptiveStats],
                        normality: dict[str, NormalityResult] | None = None) -> dict:
    """One row per key of ``_DESCRIPTIVE_LABELS``: the Shapiro-Wilk rows,
    when normality is given, read each NormalityResult, and every other row
    the DescriptiveStats field of its key."""
    rows: dict[str, list] = {}
    for key in _DESCRIPTIVE_LABELS:
        if not key.startswith("shapiro_wilk"):
            rows[key] = [getattr(stats[c], key) for c in columns]
        elif normality is not None:
            rows[key] = [normality[c].w if key == "shapiro_wilk" else normality[c].p.value
                         for c in columns]
    return {"kind": "descriptives", "columns": list(columns), "rows": rows}


def _model_summary_table(h0: LinearModelFit, h1: LinearModelFit,
                         dw0, dw1, label: str) -> dict:
    def row(fit: LinearModelFit, dw) -> dict:
        return dict(zip(_SUMMARY_KEYS, (fit.r, fit.r_squared, fit.adjusted_r_squared, fit.rmse,
                                        dw.autocorrelation, dw.d, dw.p.value)))

    # the H1 fit has no ANOVA block when selection kept no predictor
    anova = h1.anova
    return {
        "kind": "model_summary",
        "label": label,
        "rows": {"H0": row(h0, dw0), "H1": row(h1, dw1)},
        "anova": None if anova is None else dict(zip(_ANOVA_KEYS, (
            anova.ss_regression, anova.df, anova.mean_square, anova.f, anova.p.value))),
    }


def _coefficients_table(h0: LinearModelFit, h1: LinearModelFit,
                        label: str, with_collinearity: bool = False) -> dict:
    def rows(fit: LinearModelFit) -> tuple[dict, list[str]]:
        labels = ["(Intercept)", *fit.predictors]
        values = zip(fit.coefficients, fit.standard_errors, fit.standardized_betas,
                     fit.t_values, [p.value for p in fit.p_values])
        return {name: dict(zip(_COEFFICIENT_KEYS, v)) for name, v in zip(labels, values)}, labels

    h0_rows, h0_order = rows(h0)
    h1_rows, h1_order = rows(h1)
    if with_collinearity:
        for name, *values in zip(h1.predictors, h1.tolerance, h1.vif):
            h1_rows[name].update(zip(_COLLINEARITY_KEYS, values))
    return {
        "kind": "coefficients",
        "label": label,
        "rows": {"H0": h0_rows, "H1": h1_rows},
        "row_order": {"H0": h0_order, "H1": h1_order},
        "with_collinearity": with_collinearity,
    }


def _correlation_table(matrix: CorrelationMatrix, style: str) -> dict:
    return {
        "kind": "correlations",
        "style": style,
        "variables": list(matrix.variables),
        "n": matrix.n,
        "r": [list(row) for row in matrix.r],
        "p": [list(row) for row in matrix.p],
        "stars": [list(row) for row in matrix.stars],
    }


def _pca_table(pca: PcaResult) -> dict:
    return {
        "kind": "pca",
        "variables": list(pca.variables),
        "retained": pca.retained,
        "loadings": [list(row) for row in pca.loadings],
        "eigenvalues": list(pca.eigenvalues),
        "variance_explained_pct": list(pca.variance_explained_pct),
        "cumulative_pct": list(pca.cumulative_pct),
        "kmo": pca.kmo,
        "bartlett": {
            "chi2": pca.bartlett.statistic,
            "df": pca.bartlett.df,
            "p": pca.bartlett.p.value,
        },
        "note": f"{pca.retained} component extracted.",
    }


def _standardized_residuals(fit: LinearModelFit) -> list[float]:
    return list(casewise_diagnostics(fit).standardized_residuals)


def _histogram(values: Sequence[float]) -> dict:
    lo, hi = HISTOGRAM_RANGE
    width = (hi - lo) / HISTOGRAM_BINS
    edges = [lo + i * width for i in range(HISTOGRAM_BINS + 1)]
    # out-of-range values are clipped into the boundary bins
    bins = np.clip((np.asarray(values, dtype=float) - lo) // width, 0, HISTOGRAM_BINS - 1)
    counts = np.bincount(bins.astype(np.intp), minlength=HISTOGRAM_BINS)
    return {"bin_edges": edges, "counts": counts.tolist()}


def _residual_figure(fit: LinearModelFit) -> dict:
    return {
        "residuals_vs_predicted": {
            "x_label": "predicted",
            "y_label": "residual",
            "points": [[f, r] for f, r in zip(fit.fitted, fit.residuals)],
        },
        "standardized_residual_histogram": _histogram(_standardized_residuals(fit)),
    }


def _nearest_country(dataset: Dataset, value: float) -> tuple[str, float]:
    sii = dataset.array([SII])[:, 0]
    best = int(np.argmin(np.abs(sii - value)))  # the first of equally near rows
    return dataset.countries[best], float(sii[best])


def _prediction_record(model: str, fit: LinearModelFit, score: float,
                       dataset: Dataset) -> dict:
    """Prediction for one input score, annotated with the published value when
    the published computation exists for that query."""
    score = _check_score(score)
    predictor = fit.predictors[0]
    predicted = predict(fit, {predictor: score})
    nearest, nearest_score = _nearest_country(dataset, predicted)
    record = {
        "model": model,
        "country": None,
        "input": {predictor: score},
        "predicted": predicted,
        "published": None,
        "note": "",
        "nearest_country": nearest,
        "nearest_country_score": nearest_score,
    }
    if model == "simple" and score == PUBLISHED_PREDICTION_INPUT:
        record["country"] = "Hungary"
        record["published"] = PUBLISHED_PREDICTION_VALUE
        record["note"] = (
            f"The published computation states {PUBLISHED_PREDICTION_INTERCEPT} + "
            f"{fit.coefficients[1]:.3f} x {score:g} = {PUBLISHED_PREDICTION_VALUE}, "
            f"which is inconsistent with the published and fitted intercept "
            f"{fit.coefficients[0]:.3f}; evaluating the fitted coefficients gives "
            f"{predicted:.3f}. Both values are reported."
        )
    return record


def _gated_stepwise(ds: Dataset, normality: dict[str, NormalityResult]
                    ) -> tuple[dict, LinearModelFit, tuple]:
    """The normality gate record, and the stepwise fit over the dimensions it
    keeps with its trace: dimensions with Shapiro-Wilk p < GATE_ALPHA are
    excluded from the candidates."""
    gate_p = {name: normality[name].p.value for name in DIMENSIONS}
    excluded = [name for name in DIMENSIONS if gate_p[name] < GATE_ALPHA]
    remaining = [name for name in DIMENSIONS if name not in excluded]
    gate = {
        "alpha": GATE_ALPHA,
        "candidates": list(DIMENSIONS),
        "shapiro_wilk_p": gate_p,
        "excluded": excluded,
        "remaining": remaining,
    }
    # the gate can exhaust the candidate set on other datasets; fall back to
    # the null model with an empty trace
    if not remaining:
        return gate, null_model(ds, SII), ()
    return (gate, *stepwise_fit(ds, SII, remaining))


def reproduce_all(dataset: Dataset, seed: int = DEFAULT_SEED, *,
                  replicates: int = DEFAULT_REPLICATES) -> ReportBundle:
    """Run the published analysis pipeline and collect every table and figure.

    The three Durbin-Watson bootstraps (H0, the simple model and the stepwise
    model) share one draw of R permutations, as the ``regression`` module
    docstring sets out; each p-value equals that of its own ``durbin_watson``
    call at the same seed and R, and provenance names the permutation scheme
    (``dw_permutation``). Each column is sorted once, for the descriptives,
    Shapiro-Wilk and the boxplot hinges, and one exact-sum pass over it gives
    both the descriptives and the sum of squares that Shapiro-Wilk divides
    by; a column that Shapiro-Wilk rejects is named in the error. A bad seed
    or replicate count, or a table with too few rows for the five-predictor
    model, is rejected before any stage runs.

    ``dataset_sha256`` hashes ``emit_dataset`` of the sorted copy. A parsed
    dataset in canonical form carries its parsed text, and an exported one
    the text of its export; the sorted copy carries that text, reordered
    (see ``Dataset``), so no row is rendered here. Any other dataset's rows
    are rendered once, here.
    """
    replicates, seed = _check_bootstrap(replicates, seed)
    validate_schema(dataset)
    # the five-predictor model needs the most rows of any stage
    _check_rows(len(dataset), len(DIMENSIONS))
    ds = dataset.sorted_by_name()
    columns = dict(zip(_SCHEMA, ds.array(_SCHEMA).T))

    ordered = {name: np.sort(values, kind="stable") for name, values in columns.items()}
    moments = {name: _moments(x) for name, x in ordered.items()}
    stats = {name: m[0] for name, m in moments.items()}
    normality = _per_column(columns, lambda name: _shapiro_wilk_ordered(*moments[name][1:]))
    normality_screen = {
        "columns": list(_SCHEMA),
        "w": [normality[name].w for name in _SCHEMA],
        "p": [normality[name].p.value for name in _SCHEMA],
    }

    outlier_screen = _per_column(columns, lambda name: [
        ds.countries[i] for i in _outliers(columns[name], ordered[name])])
    # sorted and scaled copies of every column; the later stages do not need them
    del ordered, moments

    h0 = null_model(ds, SII)
    simple = fit_ols(ds, SII, [IDESI])
    predictions = [
        _prediction_record("simple", simple, PUBLISHED_PREDICTION_INPUT, ds)
    ]

    corr = correlation_matrix(ds, _CORR_VARIABLES)
    full = fit_ols(ds, SII, list(DIMENSIONS))
    cw = casewise_diagnostics(full)
    casewise = {
        "flagged_countries": [ds.countries[i] for i in cw.flagged],
        "flagged_count": len(cw.flagged),
        "max_abs_standardized_residual": max(map(abs, cw.standardized_residuals)),
        "max_cooks_distance": max(cw.cooks_distance),
    }
    pca = principal_components(corr.block(1, 6))

    gate, stepwise, trace = _gated_stepwise(ds, normality)

    dw_h0, dw_simple, dw_stepwise = _durbin_watson_many(
        [h0, simple, stepwise], replicates=replicates, seed=seed)

    tables = {
        "T1": _descriptives_table(_T1_COLUMNS, stats),
        "T2": _model_summary_table(h0, simple, dw_h0, dw_simple, label=f"{SII} ~ {IDESI}"),
        "T3": _coefficients_table(h0, simple, label=f"{SII} ~ {IDESI}"),
        "T4": _correlation_table(corr.block(0, 6), style="r_and_p"),
        "T5": _coefficients_table(h0, full, label=f"{SII} ~ dimensions",
                                  with_collinearity=True),
        "T6": _pca_table(pca),
        "T7": _descriptives_table(_T7_COLUMNS, stats, normality),
        "T8": _model_summary_table(h0, stepwise, dw_h0, dw_stepwise,
                                   label=f"{SII} ~ stepwise"),
        "T9": _coefficients_table(h0, stepwise, label=f"{SII} ~ stepwise",
                                  with_collinearity=True),
        "T10": _correlation_table(corr.block(0, 6), style="r_with_stars"),
        "T11": _correlation_table(corr.block(1, 10), style="r_with_stars"),
    }
    tables["T9"]["selection_trace"] = [
        {"action": step.action, "predictor": step.predictor, "p": step.p}
        for step in trace
    ]

    figures = {
        "F3": _residual_figure(simple),
        "F4": {
            "x_label": IDESI,
            "y_label": SII,
            "countries": list(ds.countries),
            "points": ds.array([IDESI, SII]).tolist(),
        },
        "F5": _residual_figure(stepwise),
    }

    provenance = {
        "dataset_rows": len(ds),
        "dataset_columns": len(ds.columns),
        "dataset_sha256": hashlib.sha256(emit_dataset(ds).encode()).hexdigest(),
        "row_order": "country name, ascending",
        "tool_version": _version.__version__,
        "seed": seed,
        "replicates": replicates,
        "dw_permutation": DW_PERMUTATION,
    }

    return ReportBundle(
        tables=tables,
        figures=figures,
        predictions=predictions,
        provenance=provenance,
        normality_screen=normality_screen,
        outlier_screen=outlier_screen,
        gate=gate,
        casewise=casewise,
    )


def predict_country(fit_source: str, score: float) -> dict:
    """Prediction record from the bundled dataset using the chosen model."""
    if fit_source not in ("simple", "stepwise"):
        raise ValidationError(f"unknown model {fit_source!r}; use simple or stepwise")
    ds = bundled_table_a1().sorted_by_name()
    if fit_source == "simple":
        fit = fit_ols(ds, SII, [IDESI])
    else:
        normality = {name: shapiro_wilk(values)
                     for name, values in zip(DIMENSIONS, ds.array(DIMENSIONS).T)}
        _, fit, _ = _gated_stepwise(ds, normality)
    return _prediction_record(fit_source, fit, score, ds)


# ---------------------------------------------------------------------------
# serialization

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):  # bool included
        return str(value)
    return f"{value:.3f}"


def _fmt_p(p: float) -> str:
    if p < 0.001:
        return "<0.001"
    return f"{p:.3f}"


def _p_text(p: float) -> str:
    """p as prose writes it: "p<0.001" or "p=0.123"."""
    text = _fmt_p(p)
    return "p" + text if text.startswith("<") else "p=" + text


class _Column(NamedTuple):
    """A grid column: its CSV key, its markdown label and the format of its
    markdown cells (str for cells that arrive as text)."""
    key: str
    label: str
    fmt: Callable[[object], str] = _fmt


class _Grid(NamedTuple):
    """One laid-out table. A row holds its label cells, then one value per
    remaining column; markdown shows a first-column label only where it
    changes. row_formats maps a row's first cell to the formats of its
    markdown cells in place of the columns'. notes are the markdown lines and
    csv_rows the CSV rows that follow the table."""
    columns: Sequence[_Column]
    rows: Sequence[Sequence]
    notes: Sequence[str] = ()
    csv_rows: Sequence[Sequence] = ()
    row_formats: Mapping[str, Sequence] = MappingProxyType({})


_DESCRIPTIVE_LABELS = {
    "valid": "Valid",
    "missing": "Missing",
    "mean": "Mean",
    "std_deviation": "Std. deviation",
    "shapiro_wilk": "Shapiro-Wilk",
    "shapiro_wilk_p": "P-value of Shapiro-Wilk",
    "minimum": "Minimum",
    "maximum": "Maximum",
}


def _descriptives_layout(table: dict) -> _Grid:
    columns = [_Column("statistic", "Statistic", _DESCRIPTIVE_LABELS.__getitem__),
               *[_Column(name, name) for name in table["columns"]]]
    p_formats = [columns[0].fmt, *[_fmt_p] * len(table["columns"])]
    return _Grid(columns, [[key, *values] for key, values in table["rows"].items()],
                 row_formats={"shapiro_wilk_p": p_formats})


_SUMMARY_COLUMNS = (
    _Column("model", "Model", str), _Column("R", "R"), _Column("R2", "R2"),
    _Column("adjusted_R2", "Adjusted R2"), _Column("RMSE", "RMSE"),
    _Column("autocorrelation", "Auto-correlation"),
    _Column("durbin_watson", "Statistic"), _Column("dw_p", "p"),
)
_SUMMARY_KEYS = tuple(c.key for c in _SUMMARY_COLUMNS[1:])
# the ANOVA line's keys in the table dict, in order, with their CSV keys
_ANOVA_CSV_KEYS = {"ss_regression": "anova_ss", "df": "anova_df",
                   "mean_square": "anova_mean_square", "F": "anova_F", "p": "anova_p"}
_ANOVA_KEYS = tuple(_ANOVA_CSV_KEYS)


def _model_summary_layout(table: dict) -> _Grid:
    rows = [[model, *[table["rows"][model][key] for key in _SUMMARY_KEYS]]
            for model in ("H0", "H1")]
    anova = table["anova"]
    if anova is None:  # the H1 fit kept no predictor
        return _Grid(_SUMMARY_COLUMNS, rows)
    return _Grid(_SUMMARY_COLUMNS, rows, [
        f"ANOVA: regression sum of squares={_fmt(anova['ss_regression'])}, "
        f"df={anova['df']}, mean square={_fmt(anova['mean_square'])}, "
        f"F={_fmt(anova['F'])}, {_p_text(anova['p'])}"
    ], [list(_ANOVA_CSV_KEYS.values()), [anova[key] for key in _ANOVA_KEYS]])


_COEFFICIENT_COLUMNS = (
    _Column("model", "Model", str), _Column("term", "", str),
    _Column("unstandardized", "Unstandardized"), _Column("standard_error", "Standard error"),
    _Column("standardized", "Standardized"), _Column("t", "t"), _Column("p", "p", _fmt_p),
)
_COLLINEARITY_COLUMNS = (_Column("tolerance", "Tolerance"), _Column("vif", "VIF"))
_COEFFICIENT_KEYS = tuple(c.key for c in _COEFFICIENT_COLUMNS[2:])
_COLLINEARITY_KEYS = tuple(c.key for c in _COLLINEARITY_COLUMNS)


def _coefficients_layout(table: dict) -> _Grid:
    columns = _COEFFICIENT_COLUMNS
    if table["with_collinearity"]:
        columns += _COLLINEARITY_COLUMNS
    keys = [c.key for c in columns[2:]]
    return _Grid(columns, [[model, name, *map(table["rows"][model][name].get, keys)]
                           for model in ("H0", "H1") for name in table["row_order"][model]])


_PAIR_COLUMNS = tuple(_Column(key, key) for key in ("variable_a", "variable_b", "r", "p", "stars"))


def _correlations_layout(table: dict, format: str) -> _Grid:
    """CSV: one row per pair below the diagonal. Markdown: the lower
    triangle, each r starred or over its p-value, as ready text."""
    variables, r, p, stars = table["variables"], table["r"], table["p"], table["stars"]
    if format == "csv":
        return _Grid(_PAIR_COLUMNS, [[a, b, r[i][j], p[i][j], stars[i][j]]
                                     for i, a in enumerate(variables)
                                     for j, b in enumerate(variables[:i])])
    starred = table["style"] == "r_with_stars"
    rows = []
    for i, name in enumerate(variables):
        diagonal = ["-"] + [""] * (len(variables) - i - 1)
        r_cells = [_fmt(v) + (stars[i][j] if starred else "") for j, v in enumerate(r[i][:i])]
        rows.append([f"{i + 1}. {name}", "Pearson's r", *r_cells, *diagonal])
        if not starred:
            rows.append(["", "p-value", *[_fmt_p(v) for v in p[i][:i]], *diagonal])
    columns = [_Column("variable", "Variable", str), _Column("", "", str),
               *[_Column(name, name, str) for name in variables]]
    return _Grid(columns, rows, ["\\* p < .05, ** p < .01, *** p < .001"] if starred else [])


def _pca_layout(table: dict) -> _Grid:
    columns = [_Column("variable", "Variable", str),
               *[_Column(f"component_{j + 1}", f"Component {j + 1}")
                 for j in range(table["retained"])]]
    rows = [[name, *loadings] for name, loadings in zip(table["variables"], table["loadings"])]
    bartlett = table["bartlett"]
    notes = [
        f"Note: {table['note']} Extraction method: PCA.",
        f"KMO={_fmt(table['kmo'])}; Bartlett's test of sphericity: "
        f"chi-square={_fmt(bartlett['chi2'])}, df={bartlett['df']}, {_p_text(bartlett['p'])}; "
        f"variance explained by component 1: {_fmt(table['variance_explained_pct'][0])}%",
    ]
    csv_rows = [
        ["eigenvalues", *table["eigenvalues"]],
        ["variance_explained_pct", *table["variance_explained_pct"]],
        ["kmo", table["kmo"]],
        ["bartlett_chi2", bartlett["chi2"], "df", bartlett["df"], "p", bartlett["p"]],
    ]
    return _Grid(columns, rows, notes, csv_rows)


_LAYOUTS = {"descriptives": _descriptives_layout, "model_summary": _model_summary_layout,
            "coefficients": _coefficients_layout, "pca": _pca_layout}


def _layout(table: dict, format: str) -> _Grid:
    kind = table.get("kind")
    if kind == "correlations":
        return _correlations_layout(table, format)
    if kind not in _LAYOUTS:
        raise ValidationError(f"unknown table kind {kind!r}")
    return _LAYOUTS[kind](table)


def _markdown_grid(grid: _Grid) -> list[str]:
    formats = [c.fmt for c in grid.columns]
    rows = [[c.label for c in grid.columns], ["---"] * len(formats)]
    group = None
    for row in grid.rows:
        cells = [f(v) for f, v in zip(grid.row_formats.get(row[0], formats), row)]
        if row[0] == group:
            cells[0] = ""
        group = row[0]
        rows.append(cells)
    lines = ["| " + " | ".join(cells) + " |" for cells in rows]
    return [*lines, "", *grid.notes] if grid.notes else lines


def _csv_grid(writer, grid: _Grid) -> None:
    # the writer writes None as an empty cell and a float as its repr
    writer.writerow([c.key for c in grid.columns])
    writer.writerows(grid.rows)
    writer.writerows(grid.csv_rows)


_TABLE_TITLES = {
    "T1": "Descriptive statistics",
    "T2": "Linear regression model summary",
    "T3": "Coefficients",
    "T4": "Pearson's correlations",
    "T5": "Coefficients with collinearity statistics",
    "T6": "Component matrix",
    "T7": "Descriptive statistics with normality",
    "T8": "Model summary (stepwise)",
    "T9": "Coefficients (stepwise)",
    "T10": "Pearson's correlations with significance",
    "T11": "Correlations of dimensions and pillars",
}


def _table_ids(tables: dict) -> list[str]:
    return sorted(tables, key=lambda t: (len(t), t))


def _emit_markdown(bundle: ReportBundle) -> str:
    lines: list[str] = ["# Reproduction report", ""]
    prov = bundle.provenance
    if prov:
        lines.append(
            f"Dataset: {prov['dataset_rows']} rows x {prov['dataset_columns']} columns "
            f"(sha256 {prov['dataset_sha256'][:12]}), rows ordered by {prov['row_order']}; "
            f"seed {prov['seed']}, {prov['replicates']} bootstrap replicates, "
            f"version {prov['tool_version']}."
        )
        lines.append("")
    for table_id in _table_ids(bundle.tables):
        lines += [f"## {table_id}. {_TABLE_TITLES.get(table_id, table_id)}", "",
                  *_markdown_grid(_layout(bundle.tables[table_id], "markdown")), ""]
    if bundle.gate:
        lines.append("## Normality gate")
        lines.append("")
        lines.append(
            f"Predictors with Shapiro-Wilk p < {bundle.gate['alpha']:g} are excluded: "
            + (", ".join(bundle.gate["excluded"]) or "none")
            + f". Remaining: {', '.join(bundle.gate['remaining'])}."
        )
        lines.append("")
    if bundle.casewise:
        lines.append("## Casewise diagnostics")
        lines.append("")
        flagged = bundle.casewise["flagged_countries"]
        lines.append(
            ("No rows flagged" if not flagged else f"Flagged rows: {', '.join(flagged)}")
            + f" (max |standardized residual| "
            f"{_fmt(bundle.casewise['max_abs_standardized_residual'])}, "
            f"max Cook's distance {_fmt(bundle.casewise['max_cooks_distance'])})."
        )
        lines.append("")
    for record in bundle.predictions:
        lines.append("## Prediction")
        lines.append("")
        predictor, score = next(iter(record["input"].items()))
        target = record["country"] or "input"
        lines.append(
            f"{record['model']} model at {predictor} = {score:g} ({target}): "
            f"predicted {record['predicted']:.3f}; nearest bundled country "
            f"{record['nearest_country']} ({record['nearest_country_score']:g})."
        )
        if record["published"] is not None:
            lines.append("")
            lines.append(f"Published value: {record['published']}. {record['note']}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def _emit_csv(bundle: ReportBundle) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if bundle.provenance:
        out.write("[provenance]\n")
        for key, value in bundle.provenance.items():
            writer.writerow([key, value])
        out.write("\n")
    for table_id in _table_ids(bundle.tables):
        out.write(f"[{table_id}]\n")
        _csv_grid(writer, _layout(bundle.tables[table_id], "csv"))
        out.write("\n")
    for record in bundle.predictions:
        out.write("[prediction]\n")
        writer.writerow(["model", "country", "input", "predicted", "published",
                         "nearest_country"])
        predictor, score = next(iter(record["input"].items()))
        writer.writerow([record["model"], record["country"] or "", f"{predictor}={score!r}",
                         record["predicted"], record["published"], record["nearest_country"]])
        out.write("\n")
    return out.getvalue()


def emit(bundle: ReportBundle, format: str) -> str:
    """Serialize a bundle deterministically as csv, markdown, or json."""
    if format == "json":
        # compact, so the C encoder runs; indent falls back to pure Python
        return json.dumps(bundle.as_dict()) + "\n"
    if format == "markdown":
        return _emit_markdown(bundle)
    if format == "csv":
        return _emit_csv(bundle)
    raise ValidationError(f"unknown format {format!r}; expected one of {', '.join(FORMATS)}")


def figure_file_text(figure: dict) -> str:
    """Two-column plain-text plot data for one figure entry."""
    lines: list[str] = []
    if "points" in figure:
        lines.append(f"# {figure['x_label']}\t{figure['y_label']}")
        if "countries" in figure:
            lines.append("# rows ordered as: " + ", ".join(figure["countries"]))
        for x, y in figure["points"]:
            lines.append(f"{x!r}\t{y!r}")
    else:
        scatter = figure["residuals_vs_predicted"]
        lines.append(f"# {scatter['x_label']}\t{scatter['y_label']}")
        for x, y in scatter["points"]:
            lines.append(f"{x!r}\t{y!r}")
        hist = figure["standardized_residual_histogram"]
        lines.append("")
        lines.append("# standardized residual histogram: bin_center\tcount")
        edges = hist["bin_edges"]
        for i, count in enumerate(hist["counts"]):
            center = 0.5 * (edges[i] + edges[i + 1])
            lines.append(f"{center!r}\t{count}")
    return "\n".join(lines) + "\n"


def write_figures(bundle: ReportBundle, out_dir) -> list[str]:
    """Write fig3.dat, fig4.dat, fig5.dat into out_dir; returns the paths.

    A directory that cannot be made or a file that cannot be written raises
    ValidationError, naming out_dir.
    """
    from pathlib import Path

    target = Path(out_dir)
    written: list[str] = []
    try:
        target.mkdir(parents=True, exist_ok=True)
        for figure_id in sorted(bundle.figures):
            path = target / f"fig{figure_id[1:].lower()}.dat"
            path.write_text(figure_file_text(bundle.figures[figure_id]))
            written.append(str(path))
    except OSError as error:
        raise ValidationError(
            f"cannot write figures to '{out_dir}': {error.strerror}") from error
    return written
