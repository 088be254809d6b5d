"""Embedded golden table: coverage, full pass on the bundled data, and
failure reporting as data rather than exceptions."""
import copy

import pytest

from indexlab import (
    bundled_table_a1,
    diff_golden,
    emit_dataset,
    golden_cells,
    parse_dataset,
    render_diff,
    reproduce_all,
)

N_CELLS = 374


def test_cell_count_and_unique_addresses():
    cells = golden_cells()
    assert len(cells) == N_CELLS
    addresses = [c.address for c in cells]
    assert len(set(addresses)) == N_CELLS


def test_golden_cells_built_once(bundle):
    assert golden_cells() is golden_cells()
    golden_cells.cache_clear()
    first = diff_golden(bundle)
    assert diff_golden(bundle) == first
    assert first.n_pass == N_CELLS


def test_golden_table_cannot_be_changed_through_a_result(bundle):
    """Every diff hands out the one cached table's expected values; none of
    them can be mutated in place."""
    first = diff_golden(bundle)
    excluded = next(c for c in first.cells if c.address == ("gate", "excluded"))
    assert excluded.passed
    with pytest.raises(AttributeError):
        excluded.expected.append("Human capital")
    assert diff_golden(bundle) == first


def test_normality_screen_cells_address_idesi(bundle):
    """I-DESI's normality is published in prose only; its two cells address
    its column of the normality screen."""
    addresses = [c.address for c in golden_cells() if c.address[0] == "normality_screen"]
    assert addresses == [("normality_screen", "w", 5), ("normality_screen", "p", 5)]
    assert bundle.normality_screen["columns"][5] == "I-DESI"


def test_bundled_data_passes_every_cell(golden_diff):
    failures = golden_diff.failures()
    detail = "\n".join(
        "/".join(str(k) for k in cell.address) for cell in failures
    )
    assert golden_diff.passed, f"failing cells:\n{detail}"
    assert golden_diff.n_pass == N_CELLS
    assert golden_diff.n_fail == 0


def test_perturbation_fails_exactly_one_cell(bundle):
    perturbed = copy.deepcopy(bundle)
    row = perturbed.tables["T9"]["rows"]["H1"]["Integration of digital technology"]
    row["unstandardized"] += 0.1
    diff = diff_golden(perturbed)
    failures = diff.failures()
    assert len(failures) == 1
    assert failures[0].address == (
        "tables", "T9", "rows", "H1",
        "Integration of digital technology", "unstandardized",
    )
    assert diff.n_pass == N_CELLS - 1


def test_missing_table_fails_its_cells_without_raising(bundle):
    stripped = copy.deepcopy(bundle)
    del stripped.tables["T6"]
    diff = diff_golden(stripped)
    failures = diff.failures()
    assert len(failures) == 11
    assert all(cell.address[:2] == ("tables", "T6") for cell in failures)
    assert all(cell.actual is None for cell in failures)


def test_row_deleted_dataset_fails_many_cells():
    ds = bundled_table_a1()
    lines = emit_dataset(ds).splitlines(keepends=True)
    truncated = parse_dataset("".join(lines[:-1]))
    assert len(truncated) == len(ds) - 1
    diff = diff_golden(reproduce_all(truncated, replicates=20))
    assert not diff.passed
    assert diff.n_fail > 20


def test_render_diff(bundle, golden_diff):
    summary = render_diff(golden_diff)
    assert summary.splitlines()[-1] == (
        f"golden diff: {N_CELLS} cells, {N_CELLS} passed, 0 failed"
    )
    assert "FAIL" not in summary

    verbose = render_diff(golden_diff, verbose=True)
    assert verbose.count("PASS") == N_CELLS

    perturbed = copy.deepcopy(bundle)
    perturbed.predictions[0]["nearest_country"] = "Austria"
    failing = render_diff(diff_golden(perturbed))
    assert "FAIL  predictions/0/nearest_country" in failing
    assert failing.splitlines()[-1] == (
        f"golden diff: {N_CELLS} cells, {N_CELLS - 1} passed, 1 failed"
    )
