"""End-to-end pipeline bundle: structure, frozen values, serialization."""
import csv
import dataclasses
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from indexlab import (
    Dataset,
    DegenerateDataError,
    InsufficientDataError,
    ReportBundle,
    ValidationError,
    emit,
    figure_file_text,
    parse_dataset,
    emit_dataset,
    predict_country,
    reproduce_all,
    validate_schema,
    write_figures,
)
from indexlab import report

SNAPSHOTS = Path(__file__).parent / "snapshots"
TABLE_IDS = ["T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "T10", "T11"]


def test_bundle_structure(bundle):
    assert sorted(bundle.tables) == sorted(TABLE_IDS)
    assert sorted(bundle.figures) == ["F3", "F4", "F5"]
    assert len(bundle.predictions) == 1
    assert bundle.provenance["dataset_rows"] == 29
    assert bundle.provenance["dataset_columns"] == 11
    assert bundle.provenance["seed"] == 42
    assert bundle.provenance["row_order"] == "country name, ascending"
    assert bundle.provenance["dw_permutation"] == "pcg64-raw-keys-argsort"


def test_validate_schema_rejects_renamed_column(dataset):
    text = emit_dataset(dataset).replace("Financing", "Cash")
    broken = parse_dataset(text)
    with pytest.raises(ValidationError, match="schema mismatch") as exc:
        validate_schema(broken)
    assert "Financing" in str(exc.value)
    assert "Cash" in str(exc.value)
    with pytest.raises(ValidationError, match="schema mismatch"):
        reproduce_all(broken, replicates=10)


@pytest.mark.parametrize("kwargs", [{"replicates": 0}, {"replicates": 10**15}, {"seed": -1},
                                    {"replicates": True}, {"replicates": 2.5}, {"seed": 1.5},
                                    {"seed": "42"}],
                         ids=["replicates=0", "replicates=10**15", "seed=-1", "replicates=True",
                              "replicates=2.5", "seed=1.5", "seed='42'"])
def test_bad_bootstrap_arguments_rejected_before_any_stage(dataset, monkeypatch, kwargs):
    def no_stage(*args):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(report, "validate_schema", no_stage)
    with pytest.raises(ValidationError, match="replicates must be|seed must be"):
        reproduce_all(dataset, **kwargs)


def test_numpy_integer_bootstrap_arguments_give_the_same_report(dataset):
    """A numpy integer seed or replicate count is the Python int it equals:
    provenance records that int, and every format emits the same bytes."""
    expected = reproduce_all(dataset, seed=42, replicates=50)
    bundle = reproduce_all(dataset, seed=np.int64(42), replicates=np.uint16(50))
    assert [type(bundle.provenance[key]) for key in ("seed", "replicates")] == [int, int]
    for fmt in ("markdown", "json", "csv"):
        assert emit(bundle, fmt) == emit(expected, fmt), fmt


def test_gate_excludes_connectivity_only(bundle):
    assert bundle.gate["excluded"] == ["Connectivity"]
    assert len(bundle.gate["remaining"]) == 4
    assert bundle.gate["alpha"] == 0.05
    for name, p in bundle.gate["shapiro_wilk_p"].items():
        assert (p < 0.05) == (name in bundle.gate["excluded"])


def test_prediction_record(bundle):
    record = bundle.predictions[0]
    assert record["model"] == "simple"
    assert record["country"] == "Hungary"
    assert record["input"] == {"I-DESI": 42.0}
    assert abs(record["predicted"] - 51.44036411386348) < 1e-9
    assert record["published"] == 51.084
    assert record["nearest_country"] == "Portugal"
    # the note must surface both the published value and the fitted one
    assert "51.084" in record["note"]
    assert "51.440" in record["note"]
    assert "inconsistent" in record["note"]


def test_predict_country_simple():
    # the regression line passes through the sample means
    record = predict_country("simple", 49.103)
    assert abs(record["predicted"] - 57.53409817831786) < 1e-9
    assert record["country"] is None
    assert record["published"] is None
    assert record["nearest_country"] == "Italy"


def test_predict_country_stepwise():
    record = predict_country("stepwise", 19.0)
    assert abs(record["predicted"] - 40.12845834724143) < 1e-9
    assert list(record["input"]) == ["Integration of digital technology"]
    assert record["published"] is None


def test_predict_country_published_value_is_model_specific():
    # only the simple model at the published input carries the published value
    record = predict_country("stepwise", 42.0)
    assert record["published"] is None
    assert record["country"] is None


def test_predict_country_validation():
    with pytest.raises(ValidationError, match="unknown model"):
        predict_country("ridge", 42.0)
    with pytest.raises(ValidationError, match="outside"):
        predict_country("simple", 142.0)
    with pytest.raises(ValidationError, match="outside"):
        predict_country("simple", -1.0)


def test_cross_table_consistency(bundle):
    t1 = bundle.tables["T1"]
    t2 = bundle.tables["T2"]
    t7 = bundle.tables["T7"]
    # null-model RMSE is the response standard deviation
    assert abs(t1["rows"]["std_deviation"][0] - t2["rows"]["H0"]["RMSE"]) < 1e-12
    assert t1["rows"]["mean"][0] == t7["rows"]["mean"][0]
    assert abs(t2["rows"]["H1"]["R"] - 0.7396388208037808) < 1e-12
    assert abs(t2["rows"]["H1"]["R"] ** 2 - t2["rows"]["H1"]["R2"]) < 1e-12
    r = bundle.tables["T4"]["r"]
    for i in range(len(r)):
        assert r[i][i] == 1.0
        for j in range(len(r)):
            assert r[i][j] == r[j][i]


def test_selection_trace(bundle):
    trace = bundle.tables["T9"]["selection_trace"]
    assert len(trace) == 1
    assert trace[0]["action"] == "add"
    assert trace[0]["predictor"] == "Integration of digital technology"
    assert abs(trace[0]["p"] - 2.400590525482337e-05) < 1e-12


def test_screens(bundle):
    screen = bundle.normality_screen
    assert len(screen["columns"]) == 11
    assert len(screen["w"]) == 11
    assert len(screen["p"]) == 11
    assert all(0.0 < w <= 1.0 for w in screen["w"])
    assert all(0.0 < p <= 1.0 for p in screen["p"])
    assert all(flagged == [] for flagged in bundle.outlier_screen.values())
    assert bundle.casewise["flagged_count"] == 0
    assert bundle.casewise["flagged_countries"] == []


def test_figures(bundle):
    for fig_id in ("F3", "F5"):
        figure = bundle.figures[fig_id]
        points = figure["residuals_vs_predicted"]["points"]
        assert len(points) == 29
        assert abs(sum(y for _, y in points)) < 1e-9
        hist = figure["standardized_residual_histogram"]
        assert len(hist["counts"]) == 10
        assert len(hist["bin_edges"]) == 11
        assert sum(hist["counts"]) == 29
    f4 = bundle.figures["F4"]
    assert len(f4["points"]) == 29
    assert len(f4["countries"]) == 29
    assert f4["x_label"] == "I-DESI"
    assert f4["y_label"] == "SII"


def test_emit_json_shape(bundle):
    text = emit(bundle, "json")
    assert text.count("\n") == 1 and text.endswith("}\n")  # compact, one line
    payload = json.loads(text)
    assert list(payload) == [
        "provenance", "tables", "normality_screen", "outlier_screen",
        "gate", "casewise", "predictions", "figures",
    ]
    assert payload == json.loads(json.dumps(bundle.as_dict()))


def test_emit_markdown(bundle):
    text = emit(bundle, "markdown")
    assert "| I-DESI | 0.858 | 0.150 | 0.740 | 5.711 | <0.001 |" in text
    for table_id in TABLE_IDS:
        assert table_id in text
    assert "Hungary" in text
    assert "pcg64" not in text


def test_emit_csv(bundle):
    lines = emit(bundle, "csv").splitlines()
    assert lines[0] == "[provenance]"
    sections = [ln for ln in lines if ln.startswith("[")]
    assert sections == ["[provenance]"] + [f"[{t}]" for t in TABLE_IDS] + ["[prediction]"]
    assert "valid,29,29,29,29,29,29,29,29,29,29,29" in lines
    assert "dw_permutation,pcg64-raw-keys-argsort" in lines


def _snapshot_text(bundle, fmt):
    """The seed-42, R = 10,000 report with the version string pinned, as
    tests/snapshots/report_seed42.{md,csv,json} were written."""
    pinned = dataclasses.replace(
        bundle, provenance={**bundle.provenance, "tool_version": "snapshot"})
    return emit(pinned, fmt)


def test_emit_markdown_matches_snapshot(bundle):
    expected = (SNAPSHOTS / "report_seed42.md").read_text()
    assert _snapshot_text(bundle, "markdown") == expected


def test_emit_csv_matches_snapshot(bundle):
    """Text cells equal, numbers within 1e-9 relative: their 17-digit reprs
    can move in the last digits across numpy and BLAS builds."""
    actual = list(csv.reader(io.StringIO(_snapshot_text(bundle, "csv"))))
    expected = list(csv.reader(io.StringIO((SNAPSHOTS / "report_seed42.csv").read_text())))
    assert [len(row) for row in actual] == [len(row) for row in expected]
    for line, (got_row, want_row) in enumerate(zip(actual, expected), start=1):
        for got, want in zip(got_row, want_row):
            if got != want:
                assert abs(float(got) - float(want)) <= 1e-9 * abs(float(want)), (line, got, want)


def _assert_json_close(got, want, path="$"):
    """Same keys, lengths and text; numbers within 1e-12 relative."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), path
        for key in want:
            _assert_json_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_json_close(g, w, f"{path}[{i}]")
    elif isinstance(want, float) and not isinstance(got, bool):
        assert isinstance(got, (int, float)), path
        assert got == want or abs(got - want) <= 1e-12 * abs(want), (path, got, want)
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


def test_emit_json_matches_snapshot(bundle):
    """The JSON layout may change; its keys, text and numbers may not."""
    expected = json.loads((SNAPSHOTS / "report_seed42.json").read_text())
    _assert_json_close(json.loads(_snapshot_text(bundle, "json")), expected)


def test_emit_unknown_format(bundle):
    with pytest.raises(ValidationError, match="format"):
        emit(bundle, "xml")


@pytest.mark.parametrize("fmt", ["markdown", "csv"])
def test_emit_unknown_table_kind(fmt):
    bundle = ReportBundle(tables={"T1": {"kind": "histogram"}})
    with pytest.raises(ValidationError, match="unknown table kind 'histogram'"):
        emit(bundle, fmt)


def test_emit_empty_bundle():
    payload = json.loads(emit(ReportBundle(), "json"))
    assert payload["tables"] == {}
    assert payload["predictions"] == []


def test_figure_file_text(bundle):
    f3_text = figure_file_text(bundle.figures["F3"])
    assert f3_text.startswith("# predicted\tresidual\n")
    assert "# standardized residual histogram: bin_center\tcount" in f3_text
    f4_text = figure_file_text(bundle.figures["F4"])
    assert f4_text.startswith("# I-DESI\tSII\n")
    assert "# rows ordered as: " in f4_text
    assert f4_text.endswith("\n")


def test_write_figures(bundle, tmp_path):
    paths = write_figures(bundle, tmp_path / "out")
    names = [p.rsplit("/", 1)[-1] for p in paths]
    assert names == ["fig3.dat", "fig4.dat", "fig5.dat"]
    for path, fig_id in zip(paths, ("F3", "F4", "F5")):
        with open(path) as handle:
            assert handle.read() == figure_file_text(bundle.figures[fig_id])


@pytest.mark.parametrize("case", ["under_a_file", "figure_is_a_directory"])
def test_write_figures_error_names_the_directory(bundle, tmp_path, case):
    """A directory that cannot be made, or a figure that cannot be written,
    is a ValidationError naming out_dir, raised from the OSError."""
    if case == "under_a_file":
        (tmp_path / "afile").write_text("")
        out_dir = tmp_path / "afile" / "sub"
    else:
        out_dir = tmp_path / "out"
        (out_dir / "fig3.dat").mkdir(parents=True)
    with pytest.raises(ValidationError, match="cannot write figures to") as caught:
        write_figures(bundle, out_dir)
    assert f"'{out_dir}'" in str(caught.value)
    assert isinstance(caught.value.__cause__, OSError)


def test_seed_changes_only_bootstrap_p(sorted_dataset):
    first = reproduce_all(sorted_dataset, seed=1, replicates=50).as_dict()
    second = reproduce_all(sorted_dataset, seed=2, replicates=50).as_dict()
    for payload in (first, second):
        payload["provenance"].pop("seed")
        for table_id in ("T2", "T8"):
            for model in ("H0", "H1"):
                payload["tables"][table_id]["rows"][model].pop("dw_p")
    assert first == second


def test_reproduce_all_at_tiny_scale(dataset):
    """Every score times 2**-600: the normality screen and gate, the
    stepwise selection, every correlation, KMO and every model's R^2 and
    Durbin-Watson p are those of the unscaled table, to the last bit."""
    tiny = Dataset(dataset.columns, dataset.countries,
                   np.ldexp(dataset.array(dataset.columns), -600))
    unit, scaled = (reproduce_all(ds, seed=42, replicates=100) for ds in (dataset, tiny))
    assert scaled.normality_screen == unit.normality_screen
    assert scaled.gate == unit.gate
    for table_id in ("T4", "T11"):
        assert scaled.tables[table_id]["r"] == unit.tables[table_id]["r"]
    assert scaled.tables["T6"]["kmo"] == unit.tables["T6"]["kmo"]
    assert scaled.tables["T9"]["selection_trace"] == unit.tables["T9"]["selection_trace"]
    for table_id in ("T2", "T8"):
        for model in ("H0", "H1"):
            a, b = (bundle.tables[table_id]["rows"][model] for bundle in (scaled, unit))
            assert (a["R2"], a["dw_p"]) == (b["R2"], b["dw_p"]), (table_id, model)


def test_rejections_name_the_column(dataset):
    """A column that Shapiro-Wilk rejects is named in front of the message,
    and the error keeps its type. A table too short for the boxplot hinges is
    rejected before any column stage, by the five-predictor model's row
    count."""
    scores = dataset.array(dataset.columns)
    constant = scores.copy()
    constant[:, dataset.columns.index("Society")] = 50.0
    cases = [
        (Dataset(dataset.columns, dataset.countries, constant), DegenerateDataError,
         "Society: shapiro_wilk needs non-constant data"),
        (Dataset(dataset.columns, dataset.countries[:3], scores[:3]), InsufficientDataError,
         "need at least 7 rows to fit 5 predictors with an intercept, got 3"),
    ]
    for ds, error, message in cases:
        with pytest.raises(error) as caught:
            reproduce_all(ds, replicates=10)
        assert str(caught.value) == message


def test_each_statistic_computed_once_per_run(dataset, monkeypatch):
    """One sort, one exact-sum pass and one Shapiro-Wilk per schema column:
    the descriptives and Shapiro-Wilk share the pass's sum of squared
    deviations (11 passes, not 22), and the hinges read the same order
    statistics. One correlation matrix, one eigendecomposition, one draw of
    the Durbin-Watson permutations for the three models, no per-call column
    rebuilds, and one factorisation of each fitted design: tolerance and VIF
    come from the fit's own."""
    from indexlab import dataset as dataset_module
    from indexlab import pca as pca_module
    from indexlab import regression as regression_module
    from indexlab import report as report_module

    calls = {}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("_moments", "shapiro_wilk", "_shapiro_wilk_ordered", "correlation_matrix"):
        counted(report_module, name)
    counted(pca_module, "eigen_symmetric")
    counted(dataset_module.Dataset, "column")
    counted(np, "sort")
    counted(regression_module, "_permutation_chunks")
    counted(regression_module, "_centred_qr")
    designs = []
    ols_arrays = regression_module._ols_arrays

    def fit(x, *args):
        designs.append(x.shape[1])
        return ols_arrays(x, *args)

    monkeypatch.setattr(regression_module, "_ols_arrays", fit)
    reproduce_all(dataset, seed=42, replicates=1)
    assert calls.pop("_centred_qr") == sum(k > 0 for k in designs)
    assert calls == {"_moments": 11, "_shapiro_wilk_ordered": 11, "sort": 11,
                     "correlation_matrix": 1, "eigen_symmetric": 1,
                     "_permutation_chunks": 1}


def test_stepwise_collinearity_matches_refits():
    """A seeded dataset whose stepwise model keeps three predictors: T9's
    tolerance and VIF are those of 1 - R^2 from lstsq refits of each kept
    predictor on the others."""
    from indexlab.dataset import DIMENSIONS, IDESI, PILLARS, SII

    rng = np.random.default_rng(1)
    n = 40
    dims = rng.normal(50.0, 8.0, size=(n, 5))
    pillars = rng.normal(50.0, 8.0, size=(n, 4))
    idesi = dims.mean(axis=1) + rng.normal(0.0, 2.0, size=n)
    sii = 0.5 * dims[:, 0] + 0.5 * dims[:, 3] + rng.normal(0.0, 2.0, size=n)
    ds = Dataset((SII,) + PILLARS + (IDESI,) + DIMENSIONS, [f"C{i:02d}" for i in range(n)],
                 np.column_stack([sii, pillars, idesi, dims]))
    t9 = reproduce_all(ds, seed=1, replicates=10).tables["T9"]
    kept = t9["row_order"]["H1"][1:]
    assert len(kept) == 3
    x = ds.sorted_by_name().array(kept)
    for j, name in enumerate(kept):
        design = np.column_stack([np.ones(n), np.delete(x, j, axis=1)])
        residual = x[:, j] - design @ np.linalg.lstsq(design, x[:, j], rcond=None)[0]
        centred = x[:, j] - x[:, j].mean()
        reference = float(residual @ residual) / float(centred @ centred)
        row = t9["rows"]["H1"][name]
        assert abs(row["tolerance"] - reference) <= 1e-12
        assert abs(row["vif"] * row["tolerance"] - 1.0) <= 1e-12


def _odd_names_dataset(dataset):
    """The bundled table with three countries renamed to names that need
    quoting, read back by parse_dataset from its own export."""
    odd = {"USA": "Korea, Rep.", "Italy": 'The "Republic"', "Spain": "Two\nlines"}
    renamed = Dataset(dataset.columns, [odd.get(name, name) for name in dataset.countries],
                      dataset.array(dataset.columns))
    parsed = parse_dataset(emit_dataset(renamed))
    assert set(odd.values()) <= set(parsed.countries)
    return parsed


def _sorted_csv_sha256(dataset):
    """sha256 of the dataset written from scratch by the csv module, rows
    sorted by country, floats as repr."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("country",) + dataset.columns)
    for name, row in sorted(zip(dataset.countries, dataset.array(dataset.columns).tolist())):
        writer.writerow([name, *map(repr, row)])
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("exported", [False, True], ids=["fresh", "pre-exported"])
def test_dataset_sha256_is_that_of_the_sorted_csv(dataset, exported):
    ds = _odd_names_dataset(dataset)
    if exported:
        emit_dataset(ds)
    bundle = reproduce_all(ds, seed=42, replicates=1)
    assert bundle.provenance["dataset_sha256"] == _sorted_csv_sha256(ds)


@pytest.mark.parametrize("exported", [False, True], ids=["fresh", "pre-exported"])
def test_reproduce_all_renders_each_row_once(dataset, monkeypatch, exported):
    from indexlab import dataset as dataset_module

    ds = _odd_names_dataset(dataset)
    if exported:
        emit_dataset(ds)
    rendered = []
    real_writer = csv.writer

    class CountingWriter:
        def __init__(self, *args, **kwargs):
            self._writer = real_writer(*args, **kwargs)

        def writerow(self, row):
            rendered.append(tuple(row))
            return self._writer.writerow(row)

        def writerows(self, rows):
            for row in rows:
                self.writerow(row)

    emits = []

    def counted_emit(data):
        emits.append(data)
        return emit_dataset(data)

    monkeypatch.setattr(dataset_module.csv, "writer", CountingWriter)
    monkeypatch.setattr(report, "emit_dataset", counted_emit)
    reproduce_all(ds, seed=42, replicates=1)
    assert len(emits) == 1
    header = ("country",) + ds.columns
    if exported:
        assert rendered == [header]
    else:
        assert sorted(rendered[:-1]) == sorted((name, *row) for name, row in zip(
            ds.countries, ds.array(ds.columns).tolist()))
        assert rendered[-1] == header
