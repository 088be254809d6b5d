"""Command-line interface: output contracts and exit codes, in process."""
import csv
import errno
import json
import os
import random
from collections import Counter
from importlib import resources

import pytest

from indexlab import (
    CellResult,
    Dataset,
    GoldenDiff,
    ReportBundle,
    bundled_table_a1,
    emit_dataset,
    parse_dataset,
)
from indexlab import cli as cli_module
from indexlab import regression
from indexlab.cli import main


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "table_a1.csv"
    path.write_text(emit_dataset(bundled_table_a1()))
    return str(path)


def test_dataset_export(capsys):
    assert main(["dataset", "export"]) == 0
    out = capsys.readouterr().out
    ds = parse_dataset(out)
    assert len(ds) == 29
    assert len(ds.columns) == 11
    packaged = resources.files("indexlab.data").joinpath("table_a1.csv").read_bytes()
    assert out.encode() == packaged


def test_dataset_validate_ok(capsys, data_file):
    assert main(["dataset", "validate", "--input", data_file]) == 0
    assert capsys.readouterr().out.strip() == (
        "OK: 29 rows, 11 columns match the schema"
    )


def test_dataset_validate_accepts_utf8_bom(capsys, tmp_path):
    assert main(["dataset", "export"]) == 0
    path = tmp_path / "excel.csv"
    path.write_text(capsys.readouterr().out, encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert main(["dataset", "validate", "--input", str(path)]) == 0
    assert capsys.readouterr().out.strip() == (
        "OK: 29 rows, 11 columns match the schema"
    )


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_dataset_validate_accepts_windows_and_mac_newlines(capsys, tmp_path, newline):
    path = tmp_path / "exported.csv"
    path.write_bytes(emit_dataset(bundled_table_a1()).replace("\n", newline).encode())
    assert main(["dataset", "validate", "--input", str(path)]) == 0
    assert capsys.readouterr().out.strip() == (
        "OK: 29 rows, 11 columns match the schema"
    )


def test_dataset_validate_bad_schema(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("Country,Alpha\nFrance,50\n")
    assert main(["dataset", "validate", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "schema mismatch" in err


def test_dataset_validate_rejects_non_utf8(capsys, tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"country,SII\n\xff\xfe,1\n")
    assert main(["dataset", "validate", "--input", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: input is not UTF-8: invalid byte 0xff at offset 12\n"
    )


def test_dataset_validate_rejects_blank_column_name(capsys, tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("country,,x\nA,1,2\n")
    assert main(["dataset", "validate", "--input", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: header cell 2 is blank: every score column needs a name\n"
    )


_FUZZ_INSERTS = b',\n"\x00.-e9'


def test_dataset_validate_byte_fuzz(capsys, tmp_path):
    """Seeded byte mutations of the bundled CSV: bit flips, deletions and
    insertions of CSV-significant bytes all end in exit 0 or 1, never in a
    traceback."""
    original = emit_dataset(bundled_table_a1()).encode("utf-8")
    rng = random.Random(2212)
    path = tmp_path / "mutated.csv"
    codes = Counter()
    for _ in range(500):
        data = bytearray(original)
        for _ in range(rng.randint(1, 8)):
            at = rng.randrange(len(data))
            kind = rng.randrange(3)
            if kind == 0:
                data[at] ^= 1 << rng.randrange(8)
            elif kind == 1:
                del data[at]
            else:
                data.insert(at, rng.choice(_FUZZ_INSERTS))
        path.write_bytes(bytes(data))
        code = main(["dataset", "validate", "--input", str(path)])
        captured = capsys.readouterr()
        assert code in (0, 1), bytes(data)
        assert "Traceback" not in captured.out + captured.err
        codes[code] += 1
    # both outcomes occur, so the mutations neither all miss nor all break the file
    assert codes[0] > 0 and codes[1] > 0


# published I-DESI scores are coarser than the recomputed composites
@pytest.mark.parametrize("preset_name,tolerance",
                         [("sii-2016", 0.1), ("idesi-2020", 1.0)])
def test_index_compute_matches_published(capsys, data_file, preset_name, tolerance):
    assert main(["index", "compute", "--preset", preset_name,
                 "--input", data_file]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "country,computed,published,difference"
    assert len(lines) == 30
    for line in lines[1:]:
        difference = float(line.rsplit(",", 1)[1])
        assert abs(difference) <= tolerance


def test_index_compute_without_the_published_column(capsys, tmp_path):
    ds = bundled_table_a1()
    columns = [c for c in ds.columns if c != "I-DESI"]
    path = tmp_path / "no_idesi.csv"
    path.write_text(emit_dataset(Dataset(columns, ds.countries, ds.array(columns))))
    assert main(["index", "compute", "--preset", "idesi-2020", "--input", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "country,computed,published,difference"
    assert len(lines) == 30
    assert all(line.endswith(",,") for line in lines[1:])


def _sections(text: str) -> dict[str, list[list[str]]]:
    """The CSV emitter's output as its rows under each ``[section]`` header."""
    sections = {}
    for block in text.strip("\n").split("\n\n"):
        header, *rows = block.split("\n")
        assert header.startswith("[") and header.endswith("]"), header
        sections[header[1:-1]] = list(csv.reader(rows))
    return sections


def _rows_by_name(rows: list[list[str]]) -> dict[str, list[str]]:
    return {row[0]: row[1:] for row in rows}


def _close(cell: str, expected: float) -> bool:
    return abs(float(cell) - expected) <= 1e-12 * max(1.0, abs(expected))


def test_describe(capsys, data_file):
    assert main(["describe", "--input", data_file, "--column", "SII"]) == 0
    sections = _sections(capsys.readouterr().out)
    assert list(sections) == ["descriptives"]
    rows = sections["descriptives"]
    assert rows[0] == ["statistic", "SII"]
    stats = _rows_by_name(rows[1:])
    assert list(stats) == ["valid", "missing", "mean", "std_deviation", "minimum", "maximum"]
    assert stats["valid"] == ["29"] and stats["missing"] == ["0"]
    assert _close(stats["mean"][0], 57.53448275862069)
    assert _close(stats["std_deviation"][0], 12.202027813384984)
    assert stats["minimum"] == ["33.8"] and stats["maximum"] == ["79.4"]


def test_normality(capsys, data_file):
    assert main(["normality", "--input", data_file,
                 "--column", "SII", "--column", "Connectivity"]) == 0
    rows = _sections(capsys.readouterr().out)["normality"]
    assert rows[0] == ["statistic", "SII", "Connectivity"]
    stats = _rows_by_name(rows[1:])
    assert list(stats) == ["valid", "missing", "mean", "std_deviation", "shapiro_wilk",
                           "shapiro_wilk_p", "minimum", "maximum"]
    assert _close(stats["shapiro_wilk"][1], 0.9145677835530619)
    assert _close(stats["shapiro_wilk_p"][1], 0.0222595609359576)
    assert _close(stats["shapiro_wilk_p"][0], 0.4265665712736503)


@pytest.fixture(scope="module")
def tiny_data_file(tmp_path_factory):
    """The bundled table scaled by 2**-600: every score near 1e-179, whose
    squares underflow to 0.0 unless a statistic scales them first."""
    ds = bundled_table_a1()
    path = tmp_path_factory.mktemp("cli") / "table_a1_tiny.csv"
    path.write_text(emit_dataset(Dataset(ds.columns, ds.countries,
                                         ds.array(ds.columns) * 2.0**-600)))
    return str(path)


def test_normality_rejection_names_the_column(capsys, tmp_path):
    table = bundled_table_a1()
    scores = table.array(table.columns)
    scores[:, table.columns.index("Society")] = 50.0
    path = tmp_path / "constant_society.csv"
    path.write_text(emit_dataset(Dataset(table.columns, table.countries, scores)))
    assert main(["normality", "--input", str(path)]) == 1
    assert capsys.readouterr().err == "error: Society: shapiro_wilk needs non-constant data\n"


def test_normality_at_tiny_scale(capsys, data_file, tiny_data_file):
    """W and its p do not depend on the unit; the mean and the standard
    deviation scale with it, exactly."""
    out = {}
    for path in (data_file, tiny_data_file):
        assert main(["normality", "--input", path]) == 0
        out[path] = _rows_by_name(_sections(capsys.readouterr().out)["normality"][1:])
    unit, tiny = out[data_file], out[tiny_data_file]
    for row in ("shapiro_wilk", "shapiro_wilk_p", "valid"):
        assert tiny[row] == unit[row], row
    for row in ("mean", "std_deviation", "minimum", "maximum"):
        assert [float(v) for v in tiny[row]] == [float(v) * 2.0**-600 for v in unit[row]], row


def test_regress_at_tiny_scale(capsys, data_file, tiny_data_file):
    """The same fit at 2**-600: not rank deficient, with the unscaled R^2,
    t and p, and the intercept scaled by 2**-600."""
    args = ["--response", "SII", "--predictor", "I-DESI", "--replicates", "50"]
    out = {}
    for path in (data_file, tiny_data_file):
        assert main(["regress", "--input", path, *args]) == 0
        out[path] = _sections(capsys.readouterr().out)
    unit, tiny = out[data_file], out[tiny_data_file]
    h1 = {path: _rows_by_name(out[path]["model_summary"][1:3])["H1"] for path in out}
    assert h1[tiny_data_file][:3] == h1[data_file][:3]  # R, R2, adjusted R2
    assert h1[tiny_data_file][1] == "0.5470655852400073"
    assert h1[tiny_data_file][4:] == h1[data_file][4:]  # Durbin-Watson
    for row_unit, row_tiny in zip(unit["coefficients"][1:], tiny["coefficients"][1:]):
        assert row_tiny[5:] == row_unit[5:]  # t and p
        scale = 2.0**-600 if row_unit[1] == "(Intercept)" else 1.0
        assert float(row_tiny[2]) == float(row_unit[2]) * scale


def test_correlate(capsys, data_file):
    assert main(["correlate", "--input", data_file,
                 "--column", "SII", "--column", "I-DESI"]) == 0
    rows = _sections(capsys.readouterr().out)["correlations"]
    assert rows[0] == ["variable_a", "variable_b", "r", "p", "stars"]
    assert len(rows) == 2
    a, b, r, p, stars = rows[1]
    assert (a, b, stars) == ("I-DESI", "SII", "***")
    assert _close(r, 0.7396388208037808)
    assert abs(float(p) - 4.550161577616684e-06) <= 1e-16


def test_regress(capsys, data_file):
    assert main(["regress", "--input", data_file, "--response", "SII",
                 "--predictor", "I-DESI", "--replicates", "50"]) == 0
    sections = _sections(capsys.readouterr().out)
    assert list(sections) == ["provenance", "coefficients", "model_summary"]
    assert sections["provenance"] == [["seed", "42"], ["replicates", "50"]]
    summary = sections["model_summary"]
    assert summary[0] == ["model", "R", "R2", "adjusted_R2", "RMSE", "autocorrelation",
                          "durbin_watson", "dw_p"]
    models = _rows_by_name(summary[1:3])
    assert list(models) == ["H0", "H1"]
    assert _close(models["H0"][0], 0.0)
    assert _close(models["H0"][3], 12.202027813384982)
    assert _close(models["H1"][1], 0.5470655852400073)
    assert summary[3] == ["anova_ss", "anova_df", "anova_mean_square", "anova_F", "anova_p"]
    assert _close(summary[4][0], 2280.6647365999506) and summary[4][1] == "1"
    # both Durbin-Watson p-values come from the one draw of 50 replicates
    for model in ("H0", "H1"):
        assert 0.0 < float(models[model][6]) <= 1.0
        assert float(models[model][6]) * 51 == pytest.approx(round(float(models[model][6]) * 51))
    coefficients = sections["coefficients"]
    assert coefficients[0] == ["model", "term", "unstandardized", "standard_error",
                               "standardized", "t", "p"]
    assert [row[:2] for row in coefficients[1:]] == [
        ["H0", "(Intercept)"], ["H1", "(Intercept)"], ["H1", "I-DESI"]]
    assert _close(coefficients[3][4], 0.7396388208037811)


def test_regress_collinearity_lines(capsys, data_file):
    assert main(["regress", "--input", data_file, "--response", "SII",
                 "--predictor", "Connectivity", "--predictor", "Human capital",
                 "--replicates", "20"]) == 0
    coefficients = _sections(capsys.readouterr().out)["coefficients"]
    assert coefficients[0][-2:] == ["tolerance", "vif"]
    h1 = {row[1]: row[2:] for row in coefficients[1:] if row[0] == "H1"}
    assert h1["(Intercept)"][-2:] == ["", ""]
    for name in ("Connectivity", "Human capital"):
        assert _close(h1[name][-2], 0.5820160720392329), name
        assert _close(h1[name][-1], 1.718165610953423), name


def test_pca(capsys, data_file):
    assert main(["pca", "--input", data_file]) == 0
    rows = _sections(capsys.readouterr().out)["pca"]
    # one component retained
    assert rows[0] == ["variable", "component_1"]
    extra = _rows_by_name(rows[6:])
    assert _close(extra["kmo"][0], 0.8810889804413573)
    chi2, df_label, df, p_label, p = extra["bartlett_chi2"]
    assert _close(chi2, 85.28851635900291) and (df_label, df, p_label) == ("df", "10", "p")


def test_pca_prints_the_report_component_matrix(capsys, tmp_path):
    """On the rows in report order, the command prints the report's T6 rows."""
    path = tmp_path / "sorted.csv"
    path.write_text(emit_dataset(bundled_table_a1().sorted_by_name()))
    assert main(["pca", "--input", str(path)]) == 0
    command = _sections(capsys.readouterr().out)["pca"]
    assert main(["reproduce", "--format", "csv", "--replicates", "1"]) == 0
    assert command == _sections(capsys.readouterr().out)["T6"]


def test_pca_uncorrelated_columns(capsys, tmp_path):
    path = tmp_path / "uncorrelated.csv"
    path.write_text("country,a,b,c\nA,10,10,10\nB,20,10,20\nC,10,20,20\n"
                    "D,20,20,10\nE,15,15,15\n")
    assert main(["pca", "--input", str(path), "--column", "a", "--column", "b",
                 "--column", "c"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: KMO is undefined when every off-diagonal correlation is zero\n")


def test_reproduce_json(capsys):
    assert main(["reproduce", "--format", "json", "--replicates", "40"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["provenance"]["replicates"] == 40
    assert payload["predictions"][0]["country"] == "Hungary"


def test_reproduce_out_dir(capsys, tmp_path):
    out_dir = tmp_path / "figs"
    assert main(["reproduce", "--format", "csv", "--replicates", "30",
                 "--out-dir", str(out_dir)]) == 0
    captured = capsys.readouterr()
    assert sorted(os.listdir(out_dir)) == ["fig3.dat", "fig4.dat", "fig5.dat"]
    assert captured.err.count("wrote ") == 3
    assert captured.out.startswith("[provenance]")


@pytest.mark.parametrize("case", ["under_a_file", "figure_is_a_directory"])
def test_reproduce_out_dir_that_cannot_be_written_exits_1(capsys, tmp_path, case):
    if case == "under_a_file":
        (tmp_path / "afile").write_text("")
        out_dir = tmp_path / "afile" / "sub"
    else:
        out_dir = tmp_path / "figs"
        (out_dir / "fig3.dat").mkdir(parents=True)
    assert main(["reproduce", "--replicates", "10", "--out-dir", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert captured.err.splitlines() == [
        f"error: cannot write figures to '{out_dir}': "
        + os.strerror(errno.ENOTDIR if case == "under_a_file" else errno.EISDIR)]


def test_reproduce_golden_diff_passes(capsys):
    assert main(["reproduce", "--golden-diff", "--replicates", "400"]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1] == (
        "golden diff: 374 cells, 374 passed, 0 failed"
    )


def test_reproduce_golden_diff_failure_exits_2(capsys, monkeypatch):
    failing = GoldenDiff(cells=(
        CellResult(address=("tables", "T1", "rows", "mean", 0), expected=1.0,
                   actual=2.0, op="abs", tolerance=0.001, passed=False),
    ))
    monkeypatch.setattr(cli_module, "reproduce_all",
                        lambda *args, **kwargs: ReportBundle())
    monkeypatch.setattr(cli_module, "diff_golden", lambda bundle: failing)
    assert main(["reproduce", "--golden-diff"]) == 2
    out = capsys.readouterr().out
    assert "FAIL  tables/T1/rows/mean/0" in out
    assert "golden diff: 1 cells, 0 passed, 1 failed" in out


def test_predict_simple_published(capsys):
    assert main(["predict", "--model", "simple", "--score", "42"]) == 0
    out = capsys.readouterr().out
    assert "predicted SII: 51.440" in out
    assert "country: Hungary" in out
    assert "published value: 51.084" in out
    assert "nearest country by SII: Portugal" in out


def test_predict_stepwise(capsys):
    assert main(["predict", "--model", "stepwise", "--score", "19"]) == 0
    out = capsys.readouterr().out
    assert "input: Integration of digital technology = 19" in out
    assert "predicted SII: 40.128" in out
    assert "country:" not in out


@pytest.mark.parametrize("score", ["142", "nan", "inf", "-inf", "1e308", "-1e-300",
                                   "100.0000001", "1e999"])
def test_predict_score_out_of_range(capsys, score):
    assert main(["predict", "--model", "simple", "--score", score]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    assert "outside [0, 100]" in lines[0]


def test_usage_errors_exit_1(capsys, data_file):
    assert main(["predict", "--model", "ridge", "--score", "10"]) == 1
    assert main(["reproduce", "--format", "xml"]) == 1
    assert main(["describe", "--input", "/no/such/file.csv"]) == 1
    assert main(["regress", "--input", data_file, "--response", "SII",
                 "--predictor", "Nope"]) == 1
    capsys.readouterr()


_BAD_BOOTSTRAP_OPTIONS = [("--replicates", "0"), ("--replicates", "-1"),
                          ("--replicates", str(10**15)), ("--seed", "-1")]


@pytest.mark.parametrize("option", _BAD_BOOTSTRAP_OPTIONS, ids="=".join)
@pytest.mark.parametrize("command", ["reproduce", "regress"])
def test_bad_bootstrap_options_exit_1(capsys, monkeypatch, data_file, command, option):
    # rejected on the validation path: no replicate is ever drawn
    def no_draws(*args):
        raise AssertionError("a rejected call drew permutations")

    monkeypatch.setattr(regression, "_permutation_chunks", no_draws)
    args = [command, *option]
    if command == "regress":
        args += ["--input", data_file, "--response", "SII", "--predictor", "I-DESI"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.out + captured.err


def test_regress_on_a_constant_response_exits_1(capsys, tmp_path):
    table = bundled_table_a1()
    scores = table.array(table.columns)
    scores[:, table.columns.index("SII")] = 47.3
    path = tmp_path / "constant.csv"
    path.write_text(emit_dataset(Dataset(table.columns, table.countries, scores)))
    assert main(["regress", "--input", str(path), "--response", "SII",
                 "--predictor", "I-DESI", "--replicates", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    assert "response 'SII' is constant" in lines[0]


def test_huge_seed_runs(capsys, data_file):
    seed = str(2**200)
    assert main(["reproduce", "--format", "json", "--seed", seed, "--replicates", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["provenance"]["seed"] == 2**200
    assert main(["regress", "--input", data_file, "--response", "SII",
                 "--predictor", "I-DESI", "--seed", seed, "--replicates", "5"]) == 0
    provenance = _sections(capsys.readouterr().out)["provenance"]
    assert provenance == [["seed", seed], ["replicates", "5"]]


def test_help_and_version(capsys):
    assert main(["--help"]) == 0
    assert "Usage:" in capsys.readouterr().out
    assert main(["--version"]) == 0
    assert "indexlab, version" in capsys.readouterr().out


@pytest.mark.parametrize("args", [
    ["describe", "--column", "SII", "--column", "sii"],
    ["normality", "--column", "I-DESI", "--column", "idesi"],
    ["correlate", "--column", "SII", "--column", "sii"],
    ["pca", "--column", "SII", "--column", "SII"],
    ["regress", "--response", "SII", "--predictor", "I-DESI", "--predictor", "idesi"],
], ids=lambda args: args[0])
def test_column_named_twice_exits_1(capsys, data_file, args):
    """Two names that resolve to one column are rejected before any statistic
    is computed, naming the column."""
    column = "I-DESI" if args[0] in ("normality", "regress") else "SII"
    assert main([args[0], "--input", data_file, *args[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: column {column!r} is named more than once\n"
