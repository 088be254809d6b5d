"""Embedded golden table: coverage, full pass on the bundled data, and
failure reporting as data rather than exceptions."""
import copy
from collections import Counter

import pytest

from indexlab import (
    bundled_table_a1,
    golden,
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


def test_tolerances_and_cells_per_table_are_pinned():
    """A widened, narrowed or moved tolerance changes these counts."""
    cells = golden_cells()
    assert Counter((c.op, c.tolerance) for c in cells) == {
        ("abs", 0.0005): 253, ("eq", 0.0): 94, ("lt", 0.0): 22, ("abs", 0.1): 4,
        ("abs", 0.005): 1,
    }
    per_table = Counter(c.address[1] if c.address[0] == "tables" else c.address[0]
                        for c in cells)
    assert per_table == {
        "T11": 72, "T1": 66, "T7": 48, "T5": 43, "T4": 30, "T10": 30, "T2": 19,
        "T8": 19, "T9": 15, "T3": 13, "T6": 11,
        "predictions": 4, "normality_screen": 2, "gate": 1, "casewise": 1,
    }


def _floats(published):
    if isinstance(published, dict):
        published = tuple(published.values())
    if isinstance(published, tuple):
        for value in published:
            yield from _floats(value)
    elif isinstance(published, float):
        yield published


def test_published_floats_have_at_most_three_decimals():
    """HALF_UNIT is half a unit of the third decimal: a value printed to more
    decimals would need a narrower bound."""
    floats = list(_floats(golden._PUBLISHED))
    assert len(floats) == 255
    assert [v for v in floats if round(v, 3) != v] == []


def test_a_cell_past_half_a_printed_unit_fails(bundle):
    """T1's SII mean, published 57.534: 0.0004 off passes, 0.0006 off fails."""
    address = ("tables", "T1", "rows", "mean", 0)
    for offset, passes in ((0.0004, True), (-0.0004, True), (0.0006, False),
                           (-0.0006, False)):
        perturbed = copy.deepcopy(bundle)
        perturbed.tables["T1"]["rows"]["mean"][0] = 57.534 + offset
        failures = diff_golden(perturbed).failures()
        assert [c.address for c in failures] == ([] if passes else [address]), offset


# the tolerances before every float was checked at half a printed unit: by
# the nearest key of a table cell, and by address for the explicit cells
_OLD_TOLERANCE = {
    **dict.fromkeys(("mean", "std_deviation", "minimum", "maximum", "R", "r", "R2",
                     "adjusted_R2"), 0.001),
    **dict.fromkeys(("shapiro_wilk", "autocorrelation", "durbin_watson", "RMSE",
                     "unstandardized", "standard_error", "standardized", "tolerance",
                     "vif", "loadings", "kmo"), 0.005),
    "shapiro_wilk_p": 0.02, "dw_p": 0.10, "ss_regression": 0.5, "mean_square": 0.5,
    "F": 0.05, "t": 0.01, "p": 0.002, "variance_explained_pct": 0.05, "chi2": 0.5,
}
_OLD_EXPLICIT_TOLERANCE = {
    ("normality_screen", "w", 5): 0.005,
    ("normality_screen", "p", 5): 0.02,
    ("predictions", 0, "predicted"): 0.01,
}


def test_no_tolerance_is_wider_than_before():
    narrowed = 0
    for cell in golden_cells():
        if cell.op != "abs":
            continue
        key = [k for k in cell.address if isinstance(k, str)][-1]
        old = _OLD_EXPLICIT_TOLERANCE.get(cell.address) or _OLD_TOLERANCE[key]
        assert cell.tolerance <= old, cell.address
        narrowed += cell.tolerance < old
    assert narrowed == 254


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


def test_a_cell_holding_text_or_past_its_bound_fails_with_its_detail(bundle):
    perturbed = copy.deepcopy(bundle)
    perturbed.tables["T1"]["rows"]["mean"][0] = "57.534"
    perturbed.tables["T2"]["anova"]["p"] = 0.5
    assert render_diff(diff_golden(perturbed)).splitlines()[:-1] == [
        "FAIL  tables/T1/rows/mean/0: expected 57.534 +/- 0.0005, got 57.534",
        "FAIL  tables/T2/anova/p: expected < 0.001, got 0.5",
    ]


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


    perturbed = copy.deepcopy(bundle)
    perturbed.predictions[0]["nearest_country"] = "Austria"
    failing = render_diff(diff_golden(perturbed))
    assert "FAIL  predictions/0/nearest_country" in failing
    assert failing.splitlines()[-1] == (
        f"golden diff: {N_CELLS} cells, {N_CELLS - 1} passed, 1 failed"
    )
