"""Golden-diff: cell-by-cell comparison of a report bundle against the
published reference values, with explicit per-cell tolerances.

The published tables are data in the shape of the report's table dicts: a
dict holds keys, a tuple holds positions, a correlation table is its lower
triangle row by row, a bound is written as printed ("<0.001"), and None
marks a value the paper does not print. One walk turns them into golden
cells, each an address path into the bundle dictionary, an expected value
and a comparison op. A "<b" string gives "lt" (actual strictly below b); a
float gives "abs" (|actual - expected| <= tolerance); any other value gives
"eq" (exact equality). The paper prints every statistic to three decimals,
so a float is checked within half a unit of that digit, 0.0005, save a
Durbin-Watson bootstrap p ("dw_p"), a Monte Carlo estimate, within 0.10.
Failures are data, not errors; diff_golden never raises on a mismatch.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .dataset import IDESI
from .report import (_ANOVA_KEYS, _COEFFICIENT_KEYS, _COLLINEARITY_KEYS, _SCHEMA,
                     _SUMMARY_KEYS, ReportBundle)

# half a unit of the printed third decimal; dw_p is a Monte Carlo estimate
# published from another random generator
HALF_UNIT = 0.0005
TOL_DW_P = 0.10


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


def _summary(h1: tuple, anova: tuple) -> dict:
    """A model-summary table (Tables 2 and 8): H0/H1 rows, then the ANOVA line."""
    h0 = (0.000, 0.000, 0.000, 12.202, -0.165, 2.214, 0.559)
    return {"rows": {"H0": dict(zip(_SUMMARY_KEYS, h0)), "H1": dict(zip(_SUMMARY_KEYS, h1))},
            "anova": dict(zip(_ANOVA_KEYS, anova))}


def _coef(*values) -> dict:
    """One coefficient row in column order; one without collinearity stops at p."""
    return dict(zip(_COEFFICIENT_KEYS + _COLLINEARITY_KEYS, values))


def _starred(*rows: str) -> dict:
    """A starred correlation table (Tables 10 and 11): each row of the lower
    triangle is space-separated text such as "0.530** 0.647***"."""
    split = [row.split() for row in rows]
    return {"r": tuple(tuple(float(text.rstrip("*")) for text in row) for row in split),
            "stars": tuple(tuple("*" * text.count("*") for text in row) for row in split)}


# the null model's coefficient table, shared by Tables 3, 5 and 9
_H0_COEFFICIENTS = {"(Intercept)": _coef(57.534, 2.266, None, 25.392, "<0.001")}


# the published tables, keyed by table id
_PUBLISHED = {
    "T1": {"rows": {
        "valid": (29,) * 11, "missing": (0,) * 11,
        "mean": (57.534, 56.062, 58.417, 59.303, 58.576, 49.103,
                 59.759, 39.690, 45.517, 44.379, 56.310),
        "std_deviation": (12.202, 16.210, 14.540, 8.118, 18.714, 10.520,
                          9.425, 11.604, 14.339, 12.448, 16.123),
        "minimum": (33.800, 28.800, 36.900, 44.800, 24.000, 26.000,
                    40.000, 19.000, 19.000, 19.000, 24.000),
        "maximum": (79.400, 86.600, 82.000, 76.200, 88.300, 65.000,
                    72.000, 62.000, 68.000, 62.000, 80.000),
    }},
    "T2": _summary((0.740, 0.547, 0.530, 8.363, -0.233, 2.351, 0.338),
                   (2280.665, 1, 2280.665, 32.611, "<0.001")),
    "T3": {"rows": {"H0": _H0_COEFFICIENTS, "H1": {
        "(Intercept)": _coef(15.408, 7.539, None, 2.044, 0.051),
        "I-DESI": _coef(0.858, 0.150, 0.740, 5.711, "<0.001"),
    }}},
    "T4": {
        "r": ((), (0.658,), (0.530, 0.647), (0.680, 0.663, 0.705),
              (0.700, 0.698, 0.730, 0.816), (0.606, 0.614, 0.564, 0.603, 0.623)),
        "p": ((), ("<0.001",), (0.003, "<0.001"), ("<0.001",) * 3, ("<0.001",) * 4,
              ("<0.001", "<0.001", 0.001, "<0.001", "<0.001")),
    },
    "T5": {"rows": {"H0": _H0_COEFFICIENTS, "H1": {
        "(Intercept)": _coef(12.662, 10.712, None, 1.182, 0.249),
        "Connectivity": _coef(0.332, 0.264, 0.257, 1.259, 0.221, 0.429, 2.331),
        "Human capital": _coef(-0.145, 0.221, -0.137, -0.654, 0.519, 0.404, 2.476),
        "Use of the internet": _coef(0.211, 0.209, 0.248, 1.009, 0.323, 0.296, 3.376),
        "Integration of digital technology":
            _coef(0.295, 0.257, 0.301, 1.148, 0.263, 0.260, 3.844),
        "Digital public services": _coef(0.144, 0.139, 0.190, 1.036, 0.311, 0.532, 1.880),
    }}},
    "T6": {
        "loadings": ((0.845,), (0.853,), (0.889,), (0.908,), (0.786,)),
        "retained": 1,
        "variance_explained_pct": (73.468,),
        "kmo": 0.881,
        "bartlett": {"chi2": 85.289, "df": 10, "p": "<0.0005"},
    },
    "T7": {"rows": {
        "valid": (29,) * 6, "missing": (0,) * 6,
        "mean": (57.534, 59.759, 39.690, 45.517, 44.379, 56.310),
        "std_deviation": (12.202, 9.425, 11.604, 14.339, 12.448, 16.123),
        "shapiro_wilk": (0.965, 0.915, 0.972, 0.960, 0.948, 0.931),
        "shapiro_wilk_p": (0.427, 0.022, 0.616, 0.332, 0.166, 0.059),
        "minimum": (33.800, 40.000, 19.000, 19.000, 19.000, 24.000),
        "maximum": (79.400, 72.000, 62.000, 68.000, 62.000, 80.000),
    }},
    "T8": _summary((0.700, 0.490, 0.471, 8.878, -0.071, 1.988, 0.997),
                   (2040.854, 1, 2040.854, 25.894, "<0.001")),
    "T9": {"rows": {"H0": _H0_COEFFICIENTS, "H1": {
        "(Intercept)": _coef(27.098, 6.204, None, 4.367, "<0.001"),
        "Integration of digital technology":
            _coef(0.686, 0.135, 0.700, 5.089, "<0.001", 1.000, 1.000),
    }}},
    # SII and the five dimensions
    "T10": _starred(
        "",
        "0.658***",
        "0.530** 0.647***",
        "0.680*** 0.663*** 0.705***",
        "0.700*** 0.698*** 0.730*** 0.816***",
        "0.606*** 0.614*** 0.564** 0.603*** 0.623***",
    ),
    # variable order Connectivity, Human capital, Use of the internet,
    # Integration of digital technology, Digital public services, Policy and
    # institutional framework, Financing, Entrepreneurship, Society
    "T11": _starred(
        "",
        "0.647***",
        "0.663*** 0.705***",
        "0.698*** 0.730*** 0.816***",
        "0.614*** 0.564** 0.603*** 0.623***",
        "0.495** 0.262 0.425* 0.478** 0.431*",
        "0.617*** 0.494** 0.683*** 0.656*** 0.611*** 0.631***",
        "0.170 0.452* 0.274 0.308 0.282 0.174 0.376*",
        "0.666*** 0.709*** 0.788*** 0.760*** 0.579** 0.355 0.738*** 0.491**",
    ),
}

def _table_cells(address: tuple, published, key=None):
    """Walk published values into cells, carrying the nearest key."""
    if isinstance(published, dict):
        for name, value in published.items():
            yield from _table_cells(address + (name,), value, name)
    elif isinstance(published, tuple):
        for i, value in enumerate(published):
            yield from _table_cells(address + (i,), value, key)
    elif isinstance(published, str) and published.startswith("<"):
        yield GoldenCell(address, float(published[1:]), "lt")
    elif isinstance(published, float):
        tolerance = TOL_DW_P if key == "dw_p" else HALF_UNIT
        yield GoldenCell(address, published, "abs", tolerance)
    elif published is not None:
        yield GoldenCell(address, published, "eq")


@lru_cache(maxsize=1)
def golden_cells() -> tuple[GoldenCell, ...]:
    """The full embedded golden table, built once: every caller shares the
    one tuple of cells, so none may modify an expected value."""
    # normality of the second index variable is published in prose only; the
    # screen lists the schema's columns in order
    idesi = _SCHEMA.index(IDESI)
    return (
        *_table_cells(("tables",), _PUBLISHED),
        GoldenCell(("normality_screen", "w", idesi), 0.945, "abs", HALF_UNIT),
        GoldenCell(("normality_screen", "p", idesi), 0.135, "abs", HALF_UNIT),
        GoldenCell(("gate", "excluded"), ("Connectivity",), "eq"),
        GoldenCell(("casewise", "flagged_count"), 0, "eq"),
        # printed in prose to two decimals
        GoldenCell(("predictions", 0, "predicted"), 51.44, "abs", 0.005),
        GoldenCell(("predictions", 0, "published"), 51.084, "eq"),
        GoldenCell(("predictions", 0, "country"), "Hungary", "eq"),
        GoldenCell(("predictions", 0, "nearest_country"), "Portugal", "eq"),
    )


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
