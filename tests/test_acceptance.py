"""Acceptance gate: one test per published-result criterion, each recording a
[PASS]/[FAIL] line in the terminal summary. Reference-value checks reuse the
session bundle (seed 42, 10,000 bootstrap replicates) and the embedded golden
table; the property criterion runs the randomized suites."""
import numpy as np

import _propcheck
from _criteria import record
from indexlab import (
    DIMENSIONS,
    PILLARS,
    SII,
    IDESI,
    casewise_diagnostics,
    compute_composite,
    fit_ols,
    preset,
)

STAT_ROWS = ("mean", "std_deviation", "minimum", "maximum")


def _cells(diff, predicate):
    return [cell for cell in diff.cells if predicate(cell.address)]


def _failing(cells):
    return [
        "/".join(str(k) for k in cell.address)
        + f": expected {cell.expected}, got {cell.actual}"
        for cell in cells if not cell.passed
    ]


def _check_cells(diff, predicate, expected_count):
    cells = _cells(diff, predicate)
    failures = _failing(cells)
    if len(cells) != expected_count:
        failures.append(f"expected {expected_count} golden cells, found {len(cells)}")
    return failures


def test_criterion_01_index_reconstruction(dataset):
    failures = []
    sii_definition, idesi_definition = preset("sii-2016"), preset("idesi-2020")
    for name, (published_sii, *pillars), (published_idesi, *dimensions) in zip(
            dataset.countries, dataset.array([SII, *PILLARS]).tolist(),
            dataset.array([IDESI, *DIMENSIONS]).tolist()):
        sii = compute_composite(sii_definition, dict(zip(PILLARS, pillars))).value
        if abs(sii - published_sii) > 0.1:
            failures.append(f"{name}: SII {sii:.4f} vs {published_sii}")
        idesi = compute_composite(idesi_definition, dict(zip(DIMENSIONS, dimensions))).value
        if abs(idesi - published_idesi) > 1.0:
            failures.append(f"{name}: I-DESI {idesi:.4f} vs {published_idesi}")
    if len(dataset) != 29:
        failures.append(f"expected 29 countries, found {len(dataset)}")
    record(1, "SII and I-DESI recomputed from component scores for all 29 "
              "countries (within 0.1 / 1.0)", failures)


def test_criterion_02_descriptives(golden_diff):
    failures = _check_cells(
        golden_diff,
        lambda a: len(a) >= 4 and a[0] == "tables" and a[1] in ("T1", "T7")
        and a[2] == "rows" and a[3] in STAT_ROWS,
        expected_count=68,
    )
    record(2, "descriptive means, standard deviations, minima, and maxima "
              "(within 0.0005, 68 cells)", failures)


def test_criterion_03_normality(golden_diff, bundle):
    failures = _check_cells(
        golden_diff,
        lambda a: (a[:3] == ("tables", "T7", "rows")
                   and a[3] in ("shapiro_wilk", "shapiro_wilk_p"))
        or a[0] == "normality_screen",
        expected_count=14,
    )
    screen = bundle.normality_screen
    if len(screen["columns"]) != 11:
        failures.append(f"screened {len(screen['columns'])} columns, expected 11")
    for name, w, p in zip(screen["columns"], screen["w"], screen["p"]):
        if not (0.0 < w <= 1.0 and 0.0 < p <= 1.0):
            failures.append(f"{name}: W {w}, p {p} out of range")
    record(3, "Shapiro-Wilk W and p (within 0.0005) for every published "
              "value; all 11 columns screened", failures)


def test_criterion_04_simple_regression(golden_diff):
    wanted = {
        ("tables", "T3", "rows", "H1", "(Intercept)", "unstandardized"),
        ("tables", "T3", "rows", "H1", "I-DESI", "unstandardized"),
        ("tables", "T3", "rows", "H1", "I-DESI", "t"),
        ("tables", "T2", "rows", "H1", "R2"),
        ("tables", "T2", "rows", "H1", "adjusted_R2"),
        ("tables", "T2", "rows", "H1", "RMSE"),
        ("tables", "T2", "anova", "ss_regression"),
        ("tables", "T2", "anova", "F"),
    }
    failures = _check_cells(golden_diff, lambda a: a in wanted, expected_count=8)
    record(4, "simple regression intercept, slope, t, fit statistics, and "
              "ANOVA (8 values)", failures)


def test_criterion_05_durbin_watson(golden_diff):
    failures = _check_cells(
        golden_diff,
        lambda a: a[:3] == ("tables", "T2", "rows") and len(a) == 5
        and a[4] in ("durbin_watson", "autocorrelation", "dw_p"),
        expected_count=6,
    )
    record(5, "Durbin-Watson d and autocorrelation (within 0.0005), bootstrap "
              "p at 10,000 replicates (within 0.10)", failures)


def test_criterion_06_multiple_regression(golden_diff):
    failures = _check_cells(
        golden_diff,
        lambda a: a[:4] == ("tables", "T5", "rows", "H1") and len(a) == 6
        and a[4] != "(Intercept)"
        and a[5] in ("unstandardized", "standardized", "tolerance", "vif"),
        expected_count=20,
    )
    record(6, "five-predictor coefficients, tolerance, and VIF "
              "(within 0.0005, 20 cells)", failures)


def test_criterion_07_casewise(bundle, sorted_dataset):
    failures = []
    if bundle.casewise["flagged_count"] != 0:
        failures.append(f"flagged rows: {bundle.casewise['flagged_countries']}")

    fit = fit_ols(sorted_dataset, SII, list(DIMENSIONS))
    cooks = casewise_diagnostics(fit).cooks_distance
    x = np.column_stack([np.ones(fit.n)]
                        + [sorted_dataset.column(n) for n in DIMENSIONS])
    y = np.asarray(sorted_dataset.column(SII))
    params = x.shape[1]
    fitted = x @ np.linalg.lstsq(x, y, rcond=None)[0]
    s2 = float(np.sum((y - fitted) ** 2)) / (fit.n - params)
    for i in range(fit.n):
        keep = [j for j in range(fit.n) if j != i]
        beta = np.linalg.lstsq(x[keep], y[keep], rcond=None)[0]
        oracle = float(np.sum((fitted - x @ beta) ** 2)) / (params * s2)
        if abs(cooks[i] - oracle) > 1e-9:
            failures.append(f"row {i}: Cook {cooks[i]} vs leave-one-out {oracle}")
    record(7, "no casewise-flagged rows; Cook's distances match a "
              "leave-one-out refit oracle (within 1e-9)", failures)


def test_criterion_08_pca(golden_diff):
    failures = _check_cells(
        golden_diff,
        lambda a: a[0] == "tables" and a[1] == "T6",
        expected_count=11,
    )
    record(8, "PCA retains one component; loadings, variance share, KMO, and "
              "Bartlett reproduced (11 cells)", failures)


def test_criterion_09_stepwise(golden_diff, bundle):
    wanted = {
        ("tables", "T9", "rows", "H1", "(Intercept)", "unstandardized"),
        ("tables", "T9", "rows", "H1", "Integration of digital technology",
         "unstandardized"),
        ("tables", "T9", "rows", "H1", "Integration of digital technology",
         "standardized"),
        ("tables", "T8", "rows", "H1", "R2"),
        ("tables", "T8", "rows", "H1", "RMSE"),
        ("tables", "T8", "rows", "H1", "durbin_watson"),
        ("tables", "T8", "anova", "ss_regression"),
        ("tables", "T8", "anova", "F"),
    }
    failures = _check_cells(golden_diff, lambda a: a in wanted, expected_count=8)
    trace = bundle.tables["T9"]["selection_trace"]
    selected = [step["predictor"] for step in trace if step["action"] == "add"]
    if selected != ["Integration of digital technology"]:
        failures.append(f"selected {selected}")
    record(9, "stepwise selection keeps exactly the technology-integration "
              "dimension; its coefficients and fit statistics reproduced "
              "(8 values)", failures)


def test_criterion_10_correlations(golden_diff):
    failures = _check_cells(
        golden_diff,
        lambda a: a[0] == "tables" and a[1] in ("T4", "T10", "T11"),
        expected_count=132,
    )
    record(10, "every published correlation cell with matching significance "
               "stars (within 0.0005, 132 cells)", failures)


def test_criterion_11_prediction(golden_diff, bundle):
    failures = _check_cells(golden_diff, lambda a: a[0] == "predictions",
                            expected_count=4)
    note = bundle.predictions[0]["note"]
    for fragment in ("51.084", "51.440", "inconsistent"):
        if fragment not in note:
            failures.append(f"note missing {fragment!r}")
    record(11, "prediction at input 42 matches the fitted coefficients and "
               "surfaces the published 51.084 inconsistency", failures)


def test_criterion_12_property_suites():
    failures = []
    for check in _propcheck.ALL_CHECKS:
        name = check.__name__.removeprefix("check_")
        try:
            instances = check()
        except AssertionError as exc:
            failures.append(f"{name}: {exc}")
            continue
        if instances < 100:
            failures.append(f"{name}: only {instances} instances")
    record(12, "randomized property suites (orthogonality, F = t-squared, "
               "VIF reciprocity, eigenvalue sum, loading reconstruction, "
               "two-variable KMO, W invariance, pipeline determinism; "
               "100 instances each)", failures)
