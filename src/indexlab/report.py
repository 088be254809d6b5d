"""Full analysis pipeline, report bundle assembly, and serialization.

reproduce_all runs the published analysis end to end on a Table-A1-schema
dataset: descriptives and normality, outlier screening, the simple model
with Durbin-Watson and ANOVA, the prediction, correlation tables, the
five-predictor model with collinearity and casewise diagnostics, PCA with
KMO and Bartlett, the normality gate, the stepwise model, and figure data.

Rows are sorted by country name before any model is fitted; the published
Durbin-Watson statistics are reproducible only under that ordering, so the
pipeline makes it an explicit first stage and records it in provenance.
"""
from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass, field
from typing import Sequence

from . import _version
from .correlation import CorrelationMatrix, correlation_matrix
from .dataset import (
    DIMENSIONS,
    IDESI,
    PILLARS,
    SII,
    Dataset,
    bundled_table_a1,
    emit_dataset,
)
from .descriptive import DescriptiveStats, NormalityResult, boxplot_outliers, describe, shapiro_wilk
from .errors import ValidationError
from .pca import principal_components
from .regression import (
    DEFAULT_REPLICATES,
    DEFAULT_SEED,
    DW_PERMUTATION,
    LinearModelFit,
    _check_bootstrap,
    casewise_diagnostics,
    collinearity,
    durbin_watson,
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
    tables: dict = field(default_factory=dict)
    figures: dict = field(default_factory=dict)
    predictions: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)
    normality_screen: dict = field(default_factory=dict)
    outlier_screen: dict = field(default_factory=dict)
    gate: dict = field(default_factory=dict)
    casewise: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "provenance": self.provenance,
            "tables": self.tables,
            "normality_screen": self.normality_screen,
            "outlier_screen": self.outlier_screen,
            "gate": self.gate,
            "casewise": self.casewise,
            "predictions": self.predictions,
            "figures": self.figures,
        }


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
    rows: dict[str, list] = {
        "valid": [stats[c].valid for c in columns],
        "missing": [stats[c].missing for c in columns],
        "mean": [stats[c].mean for c in columns],
        "std_deviation": [stats[c].std_deviation for c in columns],
    }
    if normality is not None:
        rows["shapiro_wilk"] = [normality[c].w for c in columns]
        rows["shapiro_wilk_p"] = [normality[c].p.value for c in columns]
    rows["minimum"] = [stats[c].minimum for c in columns]
    rows["maximum"] = [stats[c].maximum for c in columns]
    return {"kind": "descriptives", "columns": list(columns), "rows": rows}


def _model_summary_table(h0: LinearModelFit, h1: LinearModelFit,
                         dw0, dw1, label: str) -> dict:
    def row(fit: LinearModelFit, dw) -> dict:
        return {
            "R": fit.r,
            "R2": fit.r_squared,
            "adjusted_R2": fit.adjusted_r_squared,
            "RMSE": fit.rmse,
            "autocorrelation": dw.autocorrelation,
            "durbin_watson": dw.d,
            "dw_p": dw.p.value,
        }

    # the H1 fit has no ANOVA block when selection kept no predictor
    anova = h1.anova
    return {
        "kind": "model_summary",
        "label": label,
        "rows": {"H0": row(h0, dw0), "H1": row(h1, dw1)},
        "anova": None if anova is None else {
            "ss_regression": anova.ss_regression,
            "df": anova.df,
            "mean_square": anova.mean_square,
            "F": anova.f,
            "p": anova.p.value,
        },
    }


def _coefficients_table(h0: LinearModelFit, h1: LinearModelFit,
                        label: str, with_collinearity: bool = False,
                        tolerance: Sequence[float] = (),
                        vif: Sequence[float] = ()) -> dict:
    def rows(fit: LinearModelFit) -> tuple[dict, list[str]]:
        labels = ["(Intercept)", *fit.predictors]
        out: dict[str, dict] = {}
        for i, name in enumerate(labels):
            out[name] = {
                "unstandardized": fit.coefficients[i],
                "standard_error": fit.standard_errors[i],
                "standardized": fit.standardized_betas[i],
                "t": fit.t_values[i],
                "p": fit.p_values[i].value,
            }
        return out, labels

    h0_rows, h0_order = rows(h0)
    h1_rows, h1_order = rows(h1)
    if with_collinearity:
        for j, name in enumerate(h1.predictors):
            h1_rows[name]["tolerance"] = tolerance[j]
            h1_rows[name]["vif"] = vif[j]
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


def _standardized_residuals(fit: LinearModelFit) -> list[float]:
    return list(casewise_diagnostics(fit).standardized_residuals)


def _histogram(values: Sequence[float]) -> dict:
    lo, hi = HISTOGRAM_RANGE
    width = (hi - lo) / HISTOGRAM_BINS
    edges = [lo + i * width for i in range(HISTOGRAM_BINS + 1)]
    counts = [0] * HISTOGRAM_BINS
    for v in values:
        # out-of-range values are clipped into the boundary bins
        i = int((v - lo) // width)
        counts[min(max(i, 0), HISTOGRAM_BINS - 1)] += 1
    return {"bin_edges": edges, "counts": counts}


def _residual_figure(fit: LinearModelFit) -> dict:
    return {
        "residuals_vs_predicted": {
            "x_label": "predicted",
            "y_label": "residual",
            "points": [[f, e] for f, e in zip(fit.fitted, fit.residuals)],
        },
        "standardized_residual_histogram": _histogram(_standardized_residuals(fit)),
    }


def _nearest_country(dataset: Dataset, value: float) -> tuple[str, float]:
    sii = dataset.array([SII])[:, 0].tolist()
    best = min(range(len(sii)), key=lambda i: abs(sii[i] - value))
    return dataset.countries[best], sii[best]


def prediction_record(model: str, fit: LinearModelFit, score: float,
                      dataset: Dataset) -> dict:
    """Prediction for one input score, annotated with the published value when
    the published computation exists for that query."""
    if not 0.0 <= score <= 100.0:
        raise ValidationError(f"score {score!r} outside [0, 100]")
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


def _normality_gate(normality: dict[str, NormalityResult], alpha: float) -> dict:
    """Gate record: dimensions with Shapiro-Wilk p < alpha are excluded from
    the stepwise candidates, the rest remain."""
    gate_p = {name: normality[name].p.value for name in DIMENSIONS}
    excluded = [name for name in DIMENSIONS if gate_p[name] < alpha]
    return {
        "alpha": alpha,
        "candidates": list(DIMENSIONS),
        "shapiro_wilk_p": gate_p,
        "excluded": excluded,
        "remaining": [name for name in DIMENSIONS if name not in excluded],
    }


def reproduce_all(dataset: Dataset, seed: int = DEFAULT_SEED, *,
                  replicates: int = DEFAULT_REPLICATES,
                  gate_alpha: float = GATE_ALPHA) -> ReportBundle:
    """Run the published analysis pipeline and collect every table and figure.

    The same master seed is passed to each of the three Durbin-Watson
    bootstraps. Each draws its own permutations from that seed's raw PCG64
    stream, and no permutation matrix is stored or shared. Each p-value
    counts the observed order among the permutations, 2 (b + 1) / (R + 1),
    so it is never 0. Provenance names the permutation scheme
    (``dw_permutation``). A bad seed or replicate count is rejected before
    any stage runs.
    """
    _check_bootstrap(replicates, seed)
    validate_schema(dataset)
    ds = dataset.sorted_by_name()
    columns = dict(zip(_SCHEMA, ds.array(_SCHEMA).T))

    tables: dict[str, dict] = {}
    stats = {name: describe(values) for name, values in columns.items()}
    tables["T1"] = _descriptives_table(_T1_COLUMNS, stats)

    normality = {name: shapiro_wilk(values) for name, values in columns.items()}
    normality_screen = {
        "columns": list(_SCHEMA),
        "w": [normality[name].w for name in _SCHEMA],
        "p": [normality[name].p.value for name in _SCHEMA],
    }

    outlier_screen = {
        name: [ds.countries[i] for i in boxplot_outliers(values)]
        for name, values in columns.items()
    }

    h0 = null_model(ds, SII)
    dw_h0 = durbin_watson(h0, replicates=replicates, seed=seed)

    simple = fit_ols(ds, SII, [IDESI])
    dw_simple = durbin_watson(simple, replicates=replicates, seed=seed)
    tables["T2"] = _model_summary_table(h0, simple, dw_h0, dw_simple,
                                        label=f"{SII} ~ {IDESI}")
    tables["T3"] = _coefficients_table(h0, simple, label=f"{SII} ~ {IDESI}")

    predictions = [
        prediction_record("simple", simple, PUBLISHED_PREDICTION_INPUT, ds)
    ]

    corr = correlation_matrix(ds, _CORR_VARIABLES)
    tables["T4"] = _correlation_table(corr.block(0, 6), style="r_and_p")

    full = fit_ols(ds, SII, list(DIMENSIONS))
    col = collinearity(ds, list(DIMENSIONS))
    tables["T5"] = _coefficients_table(
        h0, full, label=f"{SII} ~ dimensions",
        with_collinearity=True, tolerance=col.tolerance, vif=col.vif,
    )

    cw = casewise_diagnostics(full)
    casewise = {
        "flagged_countries": [ds.countries[i] for i in cw.flagged],
        "flagged_count": len(cw.flagged),
        "max_abs_standardized_residual": max(abs(v) for v in cw.standardized_residuals),
        "max_cooks_distance": max(cw.cooks_distance),
    }

    pca = principal_components(corr.block(1, 6))
    tables["T6"] = {
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

    tables["T7"] = _descriptives_table(_T7_COLUMNS, stats, normality)

    gate = _normality_gate(normality, gate_alpha)
    remaining = gate["remaining"]

    # the gate can exhaust the candidate set on other datasets; fall back to
    # the null model with an empty trace
    if remaining:
        stepwise, trace = stepwise_fit(ds, SII, remaining)
    else:
        stepwise, trace = null_model(ds, SII), ()
    dw_stepwise = durbin_watson(stepwise, replicates=replicates, seed=seed)
    tables["T8"] = _model_summary_table(h0, stepwise, dw_h0, dw_stepwise,
                                        label=f"{SII} ~ stepwise")
    # a single selected predictor is trivially tolerance 1, VIF 1
    if len(stepwise.predictors) >= 2:
        step_col = collinearity(ds, stepwise.predictors)
        tol, vif = step_col.tolerance, step_col.vif
    else:
        tol, vif = (1.0,) * len(stepwise.predictors), (1.0,) * len(stepwise.predictors)
    tables["T9"] = _coefficients_table(
        h0, stepwise, label=f"{SII} ~ stepwise",
        with_collinearity=True, tolerance=tol, vif=vif,
    )
    tables["T9"]["selection_trace"] = [
        {"action": step.action, "predictor": step.predictor, "p": step.p}
        for step in trace
    ]

    tables["T10"] = _correlation_table(corr.block(0, 6), style="r_with_stars")
    tables["T11"] = _correlation_table(corr.block(1, 10), style="r_with_stars")

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
        fit, _ = stepwise_fit(ds, SII, _normality_gate(normality, GATE_ALPHA)["remaining"])
    return prediction_record(fit_source, fit, score, ds)


# ---------------------------------------------------------------------------
# serialization

def _fmt(value, decimals: int = 3) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    return f"{value:.{decimals}f}"


def _fmt_p(p: float) -> str:
    if p < 0.001:
        return "<0.001"
    return f"{p:.3f}"


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


def _md_row(cells: Sequence[str]) -> str:
    return "| " + " | ".join(cells) + " |"


def _md_header(cells: Sequence[str]) -> list[str]:
    return [_md_row(cells), _md_row(["---"] * len(cells))]


def _markdown_descriptives(table: dict) -> list[str]:
    lines = _md_header(["Statistic", *table["columns"]])
    for key, values in table["rows"].items():
        cells = [_DESCRIPTIVE_LABELS[key]]
        for v in values:
            if key in ("valid", "missing"):
                cells.append(_fmt(int(v)))
            elif key == "shapiro_wilk_p":
                cells.append(_fmt_p(v))
            else:
                cells.append(_fmt(v))
        lines.append(_md_row(cells))
    return lines


def _markdown_model_summary(table: dict) -> list[str]:
    lines = _md_header(["Model", "R", "R2", "Adjusted R2", "RMSE",
                        "Auto-correlation", "Statistic", "p"])
    for model in ("H0", "H1"):
        row = table["rows"][model]
        lines.append(_md_row([
            model, _fmt(row["R"]), _fmt(row["R2"]), _fmt(row["adjusted_R2"]),
            _fmt(row["RMSE"]), _fmt(row["autocorrelation"]),
            _fmt(row["durbin_watson"]), _fmt(row["dw_p"]),
        ]))
    anova = table["anova"]
    if anova is not None:
        lines.append("")
        lines.append(
            f"ANOVA: regression sum of squares={_fmt(anova['ss_regression'])}, "
            f"df={anova['df']}, mean square={_fmt(anova['mean_square'])}, "
            f"F={_fmt(anova['F'])}, p{'<0.001' if anova['p'] < 0.001 else '=' + _fmt(anova['p'])}"
        )
    return lines


def _markdown_coefficients(table: dict) -> list[str]:
    headers = ["Model", "", "Unstandardized", "Standard error", "Standardized",
               "t", "p"]
    if table["with_collinearity"]:
        headers += ["Tolerance", "VIF"]
    lines = _md_header(headers)
    for model in ("H0", "H1"):
        for i, name in enumerate(table["row_order"][model]):
            row = table["rows"][model][name]
            cells = [
                model if i == 0 else "",
                name,
                _fmt(row["unstandardized"]),
                _fmt(row["standard_error"]),
                _fmt(row["standardized"]),
                _fmt(row["t"]),
                _fmt_p(row["p"]),
            ]
            if table["with_collinearity"]:
                cells.append(_fmt(row.get("tolerance")))
                cells.append(_fmt(row.get("vif")))
            lines.append(_md_row(cells))
    return lines


def _markdown_correlations(table: dict) -> list[str]:
    variables = table["variables"]
    lines = _md_header(["Variable", "", *variables])
    for i, name in enumerate(variables):
        r_cells = []
        p_cells = []
        for j in range(len(variables)):
            if j > i:
                r_cells.append("")
                p_cells.append("")
            elif j == i:
                r_cells.append("-")
                p_cells.append("-")
            else:
                r = _fmt(table["r"][i][j])
                if table["style"] == "r_with_stars":
                    r += table["stars"][i][j]
                r_cells.append(r)
                p_cells.append(_fmt_p(table["p"][i][j]))
        lines.append(_md_row([f"{i + 1}. {name}", "Pearson's r", *r_cells]))
        if table["style"] == "r_and_p":
            lines.append(_md_row(["", "p-value", *p_cells]))
    if table["style"] == "r_with_stars":
        lines.append("")
        lines.append("\\* p < .05, ** p < .01, *** p < .001")
    return lines


def _markdown_pca(table: dict) -> list[str]:
    lines = _md_header(["Variable", *[f"Component {j + 1}" for j in range(table["retained"])]])
    for name, loadings in zip(table["variables"], table["loadings"]):
        lines.append(_md_row([name, *[_fmt(v) for v in loadings]]))
    lines.append("")
    lines.append(f"Note: {table['note']} Extraction method: PCA.")
    bartlett = table["bartlett"]
    lines.append(
        f"KMO={_fmt(table['kmo'])}; Bartlett's test of sphericity: "
        f"chi-square={_fmt(bartlett['chi2'])}, df={bartlett['df']}, "
        f"p{'<0.001' if bartlett['p'] < 0.001 else '=' + _fmt(bartlett['p'])}; "
        f"variance explained by component 1: {_fmt(table['variance_explained_pct'][0])}%"
    )
    return lines


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

_MARKDOWN_RENDERERS = {
    "descriptives": _markdown_descriptives,
    "model_summary": _markdown_model_summary,
    "coefficients": _markdown_coefficients,
    "correlations": _markdown_correlations,
    "pca": _markdown_pca,
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
        table = bundle.tables[table_id]
        lines.append(f"## {table_id}. {_TABLE_TITLES.get(table_id, table_id)}")
        lines.append("")
        lines.extend(_MARKDOWN_RENDERERS[table["kind"]](table))
        lines.append("")
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


def _csv_writerows(writer, table: dict) -> None:
    kind = table["kind"]
    if kind == "descriptives":
        writer.writerow(["statistic", *table["columns"]])
        for key, values in table["rows"].items():
            writer.writerow([key, *[repr(v) if isinstance(v, float) else v for v in values]])
    elif kind == "model_summary":
        header = ["model", "R", "R2", "adjusted_R2", "RMSE",
                  "autocorrelation", "durbin_watson", "dw_p"]
        writer.writerow(header)
        for model in ("H0", "H1"):
            row = table["rows"][model]
            writer.writerow([model, *[repr(row[k]) for k in header[1:]]])
        anova = table["anova"]
        if anova is not None:
            writer.writerow(["anova_ss", "anova_df", "anova_mean_square",
                             "anova_F", "anova_p"])
            writer.writerow([repr(anova["ss_regression"]), anova["df"],
                             repr(anova["mean_square"]), repr(anova["F"]), repr(anova["p"])])
    elif kind == "coefficients":
        header = ["model", "term", "unstandardized", "standard_error",
                  "standardized", "t", "p"]
        if table["with_collinearity"]:
            header += ["tolerance", "vif"]
        writer.writerow(header)
        for model in ("H0", "H1"):
            for name in table["row_order"][model]:
                row = table["rows"][model][name]
                cells = [model, name,
                         repr(row["unstandardized"]), repr(row["standard_error"]),
                         "" if row["standardized"] is None else repr(row["standardized"]),
                         repr(row["t"]), repr(row["p"])]
                if table["with_collinearity"]:
                    cells.append("" if "tolerance" not in row else repr(row["tolerance"]))
                    cells.append("" if "vif" not in row else repr(row["vif"]))
                writer.writerow(cells)
    elif kind == "correlations":
        writer.writerow(["variable_a", "variable_b", "r", "p", "stars"])
        variables = table["variables"]
        for i in range(len(variables)):
            for j in range(i):
                writer.writerow([
                    variables[i], variables[j],
                    repr(table["r"][i][j]), repr(table["p"][i][j]),
                    table["stars"][i][j],
                ])
    elif kind == "pca":
        writer.writerow(["variable", *[f"component_{j + 1}" for j in range(table["retained"])]])
        for name, loadings in zip(table["variables"], table["loadings"]):
            writer.writerow([name, *[repr(v) for v in loadings]])
        writer.writerow(["eigenvalues", *[repr(v) for v in table["eigenvalues"]]])
        writer.writerow(["variance_explained_pct", *[repr(v) for v in table["variance_explained_pct"]]])
        writer.writerow(["kmo", repr(table["kmo"])])
        bartlett = table["bartlett"]
        writer.writerow(["bartlett_chi2", repr(bartlett["chi2"]),
                         "df", bartlett["df"], "p", repr(bartlett["p"])])
    else:
        raise ValidationError(f"unknown table kind {kind!r}")


def _emit_csv(bundle: ReportBundle) -> str:
    import csv as _csv

    out = io.StringIO()
    writer = _csv.writer(out, lineterminator="\n")
    if bundle.provenance:
        out.write("[provenance]\n")
        for key, value in bundle.provenance.items():
            writer.writerow([key, value])
        out.write("\n")
    for table_id in _table_ids(bundle.tables):
        out.write(f"[{table_id}]\n")
        _csv_writerows(writer, bundle.tables[table_id])
        out.write("\n")
    for record in bundle.predictions:
        out.write("[prediction]\n")
        writer.writerow(["model", "country", "input", "predicted", "published",
                         "nearest_country"])
        predictor, score = next(iter(record["input"].items()))
        writer.writerow([
            record["model"], record["country"] or "", f"{predictor}={score!r}",
            repr(record["predicted"]),
            "" if record["published"] is None else repr(record["published"]),
            record["nearest_country"],
        ])
        out.write("\n")
    return out.getvalue()


def emit(bundle: ReportBundle, format: str) -> str:
    """Serialize a bundle deterministically as csv, markdown, or json."""
    if format == "json":
        return json.dumps(bundle.as_dict(), indent=2) + "\n"
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
    """Write fig3.dat, fig4.dat, fig5.dat into out_dir; returns the paths."""
    from pathlib import Path

    target = Path(out_dir)
    target.mkdir(parents=True, exist_ok=True)
    written: list[str] = []
    for figure_id in sorted(bundle.figures):
        name = f"fig{figure_id[1:].lower()}.dat"
        path = target / name
        path.write_text(figure_file_text(bundle.figures[figure_id]))
        written.append(str(path))
    return written
