"""Command-line interface: output contracts and exit codes, in process."""
import json
import os
import random
from collections import Counter
from importlib import resources

import pytest

from indexlab import (
    CellResult,
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


def test_describe(capsys, data_file):
    assert main(["describe", "--input", data_file, "--column", "SII"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == (
        "column,valid,missing,mean,std_deviation,minimum,maximum"
    )
    assert "SII,29,0,57.534483,12.202028," in out


def test_normality(capsys, data_file):
    assert main(["normality", "--input", data_file,
                 "--column", "Connectivity"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "column,n,w,p"
    assert out.splitlines()[1].startswith("Connectivity,29,")
    p = float(out.splitlines()[1].split(",")[3])
    assert p < 0.05


def test_correlate(capsys, data_file):
    assert main(["correlate", "--input", data_file,
                 "--column", "SII", "--column", "I-DESI"]) == 0
    out = capsys.readouterr().out
    assert "I-DESI,SII,0.739639,4.55016e-06,***" in out


def test_regress(capsys, data_file):
    assert main(["regress", "--input", data_file, "--response", "SII",
                 "--predictor", "I-DESI", "--replicates", "50"]) == 0
    out = capsys.readouterr().out
    assert "model: SII ~ I-DESI" in out
    assert "R-squared: 0.547066" in out
    assert "ANOVA: SS 2280.664737, df 1," in out
    assert "Durbin-Watson: d " in out
    assert "(50 replicates, seed 42)" in out


def test_regress_collinearity_lines(capsys, data_file):
    assert main(["regress", "--input", data_file, "--response", "SII",
                 "--predictor", "Connectivity", "--predictor", "Human capital",
                 "--replicates", "20"]) == 0
    out = capsys.readouterr().out
    assert "collinearity Connectivity: tolerance " in out
    assert "collinearity Human capital: tolerance " in out


def test_pca(capsys, data_file):
    assert main(["pca", "--input", data_file]) == 0
    out = capsys.readouterr().out
    assert "retained components: 1" in out
    assert "KMO: 0.881089" in out
    assert "Bartlett: chi2 85.288516, df 10," in out


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


def test_huge_seed_runs(capsys, data_file):
    seed = str(2**200)
    assert main(["reproduce", "--format", "json", "--seed", seed, "--replicates", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["provenance"]["seed"] == 2**200
    assert main(["regress", "--input", data_file, "--response", "SII",
                 "--predictor", "I-DESI", "--seed", seed, "--replicates", "5"]) == 0
    assert f"(5 replicates, seed {seed})" in capsys.readouterr().out


def test_help_and_version(capsys):
    assert main(["--help"]) == 0
    assert "Usage:" in capsys.readouterr().out
    assert main(["--version"]) == 0
    assert "indexlab, version" in capsys.readouterr().out
