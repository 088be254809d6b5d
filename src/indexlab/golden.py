"""Golden-diff: cell-by-cell comparison of a report bundle against the
published reference values, with explicit per-cell tolerances.

Each golden cell is an address path into the bundle dictionary, an expected
value, and a comparison op: "abs" (|actual - expected| <= tolerance),
"lt" (actual strictly below expected), or "eq" (exact equality). Failures
are data, not errors; diff_golden never raises on a mismatch.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .dataset import IDESI
from .report import _SCHEMA, ReportBundle

# tolerances for published values, by the precision they were printed at
TOL_DESCRIPTIVE = 0.001
TOL_R = 0.001
TOL_R2 = 0.001
TOL_COEF = 0.005
TOL_T = 0.01
TOL_P = 0.002
TOL_SW_W = 0.005
TOL_SW_P = 0.02
TOL_DW = 0.005
TOL_DW_P = 0.10
TOL_SS = 0.5
TOL_F = 0.05
TOL_PCA_LOADING = 0.005
TOL_VARIANCE_PCT = 0.05
TOL_KMO = 0.005
TOL_BARTLETT = 0.5


@dataclass(frozen=True)
class GoldenCell:
    address: tuple
    expected: object
    op: str = "abs"
    tolerance: float = 0.0


@dataclass(frozen=True)
class CellResult:
    address: tuple
    expected: object
    actual: object
    op: str
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class GoldenDiff:
    cells: tuple[CellResult, ...]

    @property
    def n_pass(self) -> int:
        return sum(1 for c in self.cells if c.passed)

    @property
    def n_fail(self) -> int:
        return len(self.cells) - self.n_pass

    @property
    def passed(self) -> bool:
        return self.n_fail == 0

    def failures(self) -> tuple[CellResult, ...]:
        return tuple(c for c in self.cells if not c.passed)


# published Table 1 (full descriptives, 11 columns)
_T1_VALUES = {
    "mean": (57.534, 56.062, 58.417, 59.303, 58.576, 49.103,
             59.759, 39.690, 45.517, 44.379, 56.310),
    "std_deviation": (12.202, 16.210, 14.540, 8.118, 18.714, 10.520,
                      9.425, 11.604, 14.339, 12.448, 16.123),
    "minimum": (33.800, 28.800, 36.900, 44.800, 24.000, 26.000,
                40.000, 19.000, 19.000, 19.000, 24.000),
    "maximum": (79.400, 86.600, 82.000, 76.200, 88.300, 65.000,
                72.000, 62.000, 68.000, 62.000, 80.000),
}

# published Table 7 (descriptives with normality, 6 columns)
_T7_VALUES = {
    "mean": (57.534, 59.759, 39.690, 45.517, 44.379, 56.310),
    "std_deviation": (12.202, 9.425, 11.604, 14.339, 12.448, 16.123),
    "shapiro_wilk": (0.965, 0.915, 0.972, 0.960, 0.948, 0.931),
    "shapiro_wilk_p": (0.427, 0.022, 0.616, 0.332, 0.166, 0.059),
    "minimum": (33.800, 40.000, 19.000, 19.000, 19.000, 24.000),
    "maximum": (79.400, 72.000, 62.000, 68.000, 62.000, 80.000),
}

# published model summaries (Tables 2 and 8): H0/H1 rows + ANOVA
_SUMMARY_VALUES = {
    "T2": {
        "H0": (0.000, 0.000, 0.000, 12.202, -0.165, 2.214, 0.559),
        "H1": (0.740, 0.547, 0.530, 8.363, -0.233, 2.351, 0.338),
        "anova": (2280.665, 1, 2280.665, 32.611),
    },
    "T8": {
        "H0": (0.000, 0.000, 0.000, 12.202, -0.165, 2.214, 0.559),
        "H1": (0.700, 0.490, 0.471, 8.878, -0.071, 1.988, 0.997),
        "anova": (2040.854, 1, 2040.854, 25.894),
    },
}

# published coefficient rows (Tables 3, 5, 9):
# term -> (unstandardized, se, standardized, t, p-or-None-for-<0.001, tolerance, vif)
_COEFFICIENT_VALUES = {
    "T3": {
        ("H0", "(Intercept)"): (57.534, 2.266, None, 25.392, None, None, None),
        ("H1", "(Intercept)"): (15.408, 7.539, None, 2.044, 0.051, None, None),
        ("H1", "I-DESI"): (0.858, 0.150, 0.740, 5.711, None, None, None),
    },
    "T5": {
        ("H0", "(Intercept)"): (57.534, 2.266, None, 25.392, None, None, None),
        ("H1", "(Intercept)"): (12.662, 10.712, None, 1.182, 0.249, None, None),
        ("H1", "Connectivity"): (0.332, 0.264, 0.257, 1.259, 0.221, 0.429, 2.331),
        ("H1", "Human capital"): (-0.145, 0.221, -0.137, -0.654, 0.519, 0.404, 2.476),
        ("H1", "Use of the internet"): (0.211, 0.209, 0.248, 1.009, 0.323, 0.296, 3.376),
        ("H1", "Integration of digital technology"):
            (0.295, 0.257, 0.301, 1.148, 0.263, 0.260, 3.844),
        ("H1", "Digital public services"): (0.144, 0.139, 0.190, 1.036, 0.311, 0.532, 1.880),
    },
    "T9": {
        ("H0", "(Intercept)"): (57.534, 2.266, None, 25.392, None, None, None),
        ("H1", "(Intercept)"): (27.098, 6.204, None, 4.367, None, None, None),
        ("H1", "Integration of digital technology"):
            (0.686, 0.135, 0.700, 5.089, None, 1.000, 1.000),
    },
}

# published Table 4: (row index, col index) -> (r, p or None for "<0.001")
_T4_VALUES = {
    (1, 0): (0.658, None),
    (2, 0): (0.530, 0.003), (2, 1): (0.647, None),
    (3, 0): (0.680, None), (3, 1): (0.663, None), (3, 2): (0.705, None),
    (4, 0): (0.700, None), (4, 1): (0.698, None), (4, 2): (0.730, None),
    (4, 3): (0.816, None),
    (5, 0): (0.606, None), (5, 1): (0.614, None), (5, 2): (0.564, 0.001),
    (5, 3): (0.603, None), (5, 4): (0.623, None),
}

# published Table 10: starred r for SII and the five dimensions
_T10_VALUES = {
    (1, 0): "0.658***",
    (2, 0): "0.530**", (2, 1): "0.647***",
    (3, 0): "0.680***", (3, 1): "0.663***", (3, 2): "0.705***",
    (4, 0): "0.700***", (4, 1): "0.698***", (4, 2): "0.730***", (4, 3): "0.816***",
    (5, 0): "0.606***", (5, 1): "0.614***", (5, 2): "0.564**", (5, 3): "0.603***",
    (5, 4): "0.623***",
}

# published Table 11: starred r for the nine dimensions and pillars, variable
# order Connectivity, Human capital, Use of the internet, Integration of
# digital technology, Digital public services, Policy and institutional
# framework, Financing, Entrepreneurship, Society
_T11_VALUES = {
    (1, 0): "0.647***",
    (2, 0): "0.663***", (2, 1): "0.705***",
    (3, 0): "0.698***", (3, 1): "0.730***", (3, 2): "0.816***",
    (4, 0): "0.614***", (4, 1): "0.564**", (4, 2): "0.603***", (4, 3): "0.623***",
    (5, 0): "0.495**", (5, 1): "0.262", (5, 2): "0.425*", (5, 3): "0.478**",
    (5, 4): "0.431*",
    (6, 0): "0.617***", (6, 1): "0.494**", (6, 2): "0.683***", (6, 3): "0.656***",
    (6, 4): "0.611***", (6, 5): "0.631***",
    (7, 0): "0.170", (7, 1): "0.452*", (7, 2): "0.274", (7, 3): "0.308",
    (7, 4): "0.282", (7, 5): "0.174", (7, 6): "0.376*",
    (8, 0): "0.666***", (8, 1): "0.709***", (8, 2): "0.788***", (8, 3): "0.760***",
    (8, 4): "0.579**", (8, 5): "0.355", (8, 6): "0.738***", (8, 7): "0.491**",
}

# published Table 6 loadings plus the PCA summary statistics
_T6_LOADINGS = (0.845, 0.853, 0.889, 0.908, 0.786)


def _split_starred(text: str) -> tuple[float, str]:
    value = text.rstrip("*")
    return float(value), text[len(value):]


def _descriptive_cells(table_id: str, values: dict, n_cols: int) -> list[GoldenCell]:
    cells = []
    for i in range(n_cols):
        cells.append(GoldenCell(("tables", table_id, "rows", "valid", i), 29, "eq"))
        cells.append(GoldenCell(("tables", table_id, "rows", "missing", i), 0, "eq"))
    for row_key, row_values in values.items():
        if row_key == "shapiro_wilk":
            tol = TOL_SW_W
        elif row_key == "shapiro_wilk_p":
            tol = TOL_SW_P
        else:
            tol = TOL_DESCRIPTIVE
        for i, expected in enumerate(row_values):
            cells.append(GoldenCell(
                ("tables", table_id, "rows", row_key, i), expected, "abs", tol))
    return cells


def _summary_cells(table_id: str, values: dict) -> list[GoldenCell]:
    keys = ("R", "R2", "adjusted_R2", "RMSE", "autocorrelation", "durbin_watson", "dw_p")
    tols = (TOL_R, TOL_R2, TOL_R2, TOL_COEF, TOL_DW, TOL_DW, TOL_DW_P)
    cells = []
    for model in ("H0", "H1"):
        for key, tol, expected in zip(keys, tols, values[model]):
            cells.append(GoldenCell(
                ("tables", table_id, "rows", model, key), expected, "abs", tol))
    ss, df, ms, f = values["anova"]
    base = ("tables", table_id, "anova")
    cells.append(GoldenCell(base + ("ss_regression",), ss, "abs", TOL_SS))
    cells.append(GoldenCell(base + ("df",), df, "eq"))
    cells.append(GoldenCell(base + ("mean_square",), ms, "abs", TOL_SS))
    cells.append(GoldenCell(base + ("F",), f, "abs", TOL_F))
    cells.append(GoldenCell(base + ("p",), 0.001, "lt"))
    return cells


def _coefficient_cells(table_id: str, values: dict) -> list[GoldenCell]:
    cells = []
    for (model, term), row in values.items():
        unstd, se, std, t, p, tol, vif = row
        base = ("tables", table_id, "rows", model, term)
        cells.append(GoldenCell(base + ("unstandardized",), unstd, "abs", TOL_COEF))
        cells.append(GoldenCell(base + ("standard_error",), se, "abs", TOL_COEF))
        if std is not None:
            cells.append(GoldenCell(base + ("standardized",), std, "abs", TOL_COEF))
        cells.append(GoldenCell(base + ("t",), t, "abs", TOL_T))
        if p is None:
            cells.append(GoldenCell(base + ("p",), 0.001, "lt"))
        else:
            cells.append(GoldenCell(base + ("p",), p, "abs", TOL_P))
        if tol is not None:
            cells.append(GoldenCell(base + ("tolerance",), tol, "abs", TOL_COEF))
            cells.append(GoldenCell(base + ("vif",), vif, "abs", TOL_COEF))
    return cells


def _correlation_cells(table_id: str, values: dict, starred: bool) -> list[GoldenCell]:
    cells = []
    for (i, j), entry in values.items():
        if starred:
            r, stars = _split_starred(entry)
            cells.append(GoldenCell(("tables", table_id, "r", i, j), r, "abs", TOL_R))
            cells.append(GoldenCell(("tables", table_id, "stars", i, j), stars, "eq"))
        else:
            r, p = entry
            cells.append(GoldenCell(("tables", table_id, "r", i, j), r, "abs", TOL_R))
            if p is None:
                cells.append(GoldenCell(("tables", table_id, "p", i, j), 0.001, "lt"))
            else:
                cells.append(GoldenCell(("tables", table_id, "p", i, j), p, "abs", TOL_P))
    return cells


@lru_cache(maxsize=1)
def golden_cells() -> tuple[GoldenCell, ...]:
    """The full embedded golden table, built once: every caller shares the
    one tuple of cells, so none may modify an expected value."""
    cells: list[GoldenCell] = []
    cells += _descriptive_cells("T1", _T1_VALUES, 11)
    cells += _descriptive_cells("T7", _T7_VALUES, 6)
    # normality of the second index variable is published in prose only; the
    # screen lists the schema's columns in order
    idesi = _SCHEMA.index(IDESI)
    cells.append(GoldenCell(("normality_screen", "w", idesi), 0.945, "abs", TOL_SW_W))
    cells.append(GoldenCell(("normality_screen", "p", idesi), 0.135, "abs", TOL_SW_P))
    for table_id, values in _SUMMARY_VALUES.items():
        cells += _summary_cells(table_id, values)
    for table_id, values in _COEFFICIENT_VALUES.items():
        cells += _coefficient_cells(table_id, values)
    cells += _correlation_cells("T4", _T4_VALUES, starred=False)
    cells += _correlation_cells("T10", _T10_VALUES, starred=True)
    cells += _correlation_cells("T11", _T11_VALUES, starred=True)
    for i, loading in enumerate(_T6_LOADINGS):
        cells.append(GoldenCell(("tables", "T6", "loadings", i, 0), loading,
                                "abs", TOL_PCA_LOADING))
    cells.append(GoldenCell(("tables", "T6", "retained"), 1, "eq"))
    cells.append(GoldenCell(("tables", "T6", "variance_explained_pct", 0),
                            73.468, "abs", TOL_VARIANCE_PCT))
    cells.append(GoldenCell(("tables", "T6", "kmo"), 0.881, "abs", TOL_KMO))
    cells.append(GoldenCell(("tables", "T6", "bartlett", "chi2"), 85.289,
                            "abs", TOL_BARTLETT))
    cells.append(GoldenCell(("tables", "T6", "bartlett", "df"), 10, "eq"))
    cells.append(GoldenCell(("tables", "T6", "bartlett", "p"), 0.0005, "lt"))
    cells.append(GoldenCell(("gate", "excluded"), ("Connectivity",), "eq"))
    cells.append(GoldenCell(("casewise", "flagged_count"), 0, "eq"))
    cells.append(GoldenCell(("predictions", 0, "predicted"), 51.44, "abs", 0.01))
    cells.append(GoldenCell(("predictions", 0, "published"), 51.084, "eq"))
    cells.append(GoldenCell(("predictions", 0, "country"), "Hungary", "eq"))
    cells.append(GoldenCell(("predictions", 0, "nearest_country"), "Portugal", "eq"))
    return tuple(cells)


def _resolve(data, address: tuple):
    node = data
    for key in address:
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            return None, False
    return node, True


def _compare(cell: GoldenCell, actual) -> bool:
    if cell.op == "eq":
        # expected sequences are tuples, so the shared golden table is immutable
        return (tuple(actual) if isinstance(actual, list) else actual) == cell.expected
    if actual is None or isinstance(actual, (str, list, dict)):
        return False
    if cell.op == "abs":
        return abs(float(actual) - float(cell.expected)) <= cell.tolerance
    if cell.op == "lt":
        return float(actual) < float(cell.expected)
    raise ValueError(f"unknown golden op {cell.op!r}")


def diff_golden(bundle: ReportBundle) -> GoldenDiff:
    """Compare a bundle against the embedded golden table, cell by cell."""
    data = bundle.as_dict()
    results = []
    for cell in golden_cells():
        actual, found = _resolve(data, cell.address)
        passed = found and _compare(cell, actual)
        results.append(CellResult(
            address=cell.address, expected=cell.expected, actual=actual,
            op=cell.op, tolerance=cell.tolerance, passed=passed,
        ))
    return GoldenDiff(cells=tuple(results))


def render_diff(diff: GoldenDiff) -> str:
    """Human-readable diff summary: each failing cell, then the counts."""
    lines = []
    for cell in diff.cells:
        if cell.passed:
            continue
        address = "/".join(str(k) for k in cell.address)
        if cell.op == "abs":
            detail = f"expected {cell.expected} +/- {cell.tolerance}, got {cell.actual}"
        elif cell.op == "lt":
            detail = f"expected < {cell.expected}, got {cell.actual}"
        else:
            detail = f"expected {cell.expected!r}, got {cell.actual!r}"
        lines.append(f"FAIL  {address}: {detail}")
    lines.append(
        f"golden diff: {len(diff.cells)} cells, {diff.n_pass} passed, {diff.n_fail} failed"
    )
    return "\n".join(lines)
