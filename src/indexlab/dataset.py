"""Country/indicator dataset: parsing, validation, column access, bundled fixture.

The canonical fixture is the published 29-country table with the SII, its four
pillars, the I-DESI, and its five dimensions. Scores live on a 0-100 scale.
A dataset is columnar: its column names, its country names, and one
read-only (countries x columns) float array. ``Dataset(columns, countries,
scores)`` is the only way to build one, so a parsed, a sorted and a
hand-built dataset all pass the same checks.
Everything reads the scores from that array, through ``Dataset.array`` (a
copy of several columns) or ``Dataset.column`` (a view of one). Row order is
preserved and semantically meaningful (serial-correlation statistics depend
on it), so nothing here ever reorders rows implicitly.
"""
from __future__ import annotations

import csv
import io
from functools import lru_cache
from importlib import resources
from types import SimpleNamespace
from typing import Iterable, Sequence

import numpy as np

from .base import real
from .errors import ColumnLookupError, DatasetParseError, ValidationError

SCORE_MIN = 0.0
SCORE_MAX = 100.0


def _check_score(value) -> float:
    """``value`` as a float if it is a caller's number in [0, 100], else a ValidationError."""
    score = real(value)
    if score is None:
        raise ValidationError(f"score {value!r} is not a real number")
    if not SCORE_MIN <= score <= SCORE_MAX:
        raise ValidationError(f"score {value!r} outside [{SCORE_MIN:g}, {SCORE_MAX:g}]")
    return score


SII = "SII"
IDESI = "I-DESI"
PILLARS = (
    "Policy and institutional framework",
    "Financing",
    "Entrepreneurship",
    "Society",
)
DIMENSIONS = (
    "Connectivity",
    "Human capital",
    "Use of the internet",
    "Integration of digital technology",
    "Digital public services",
)

# short names accepted anywhere a column is looked up
_ALIASES = {
    "sii": SII,
    "idesi": IDESI,
    "i-desi": IDESI,
    "pif": PILLARS[0],
    "policy": PILLARS[0],
    "hc": "Human capital",
    "uoi": "Use of the internet",
    "use of internet": "Use of the internet",
    "idt": "Integration of digital technology",
    "dps": "Digital public services",
}


class Dataset:
    """Immutable country-by-column score table.

    ``Dataset(columns, countries, scores)`` takes the column names, the
    country names (each a non-blank ``str``) and any (countries x columns)
    array-like of real numbers, and keeps a read-only float copy of the
    scores whose rows follow ``countries`` and whose columns follow
    ``columns``. Reads go through ``array()`` and ``column()``.

    A dataset carries the CSV text of each row once it has it. A parsed
    dataset in canonical form (each score the ``repr`` of its value, each
    name stripped and needing no quotes) carries its parsed text; any other
    dataset is rendered at its first ``emit_dataset``. ``sorted_by_name``
    hands that text, reordered, to the sorted copy, so a row's float
    ``repr`` is rendered at most once however often the dataset or its
    sorted copy is written, and never for a canonical parsed table.
    """

    def __init__(self, columns: Sequence[str], countries: Sequence[str],
                 scores: Sequence[Sequence[float]] | np.ndarray):
        self.columns = tuple(columns)
        self.countries = tuple(countries)
        # one pass over each name list, and one set for uniqueness; the names
        # are walked one by one only to name the offender
        for kind, names in (("column", self.columns), ("country", self.countries)):
            if not _non_blank_strings(names):
                for i, name in enumerate(names, start=1):
                    if not isinstance(name, str) or not name.strip():
                        raise ValidationError(
                            f"{kind} name {name!r} (number {i}) is not a non-blank string")
        self._data = _score_array(self.columns, self.countries, scores)
        self._data.setflags(write=False)
        if len(set(self.columns)) != len(self.columns):
            raise ValidationError("duplicate column names")
        if len(set(self.countries)) != len(self.countries):
            seen: set[str] = set()
            for name in self.countries:
                if name in seen:
                    raise ValidationError(f"duplicate country {name!r}")
                seen.add(name)
        # NaN compares false, so it is out of range too
        in_range = (self._data >= SCORE_MIN) & (self._data <= SCORE_MAX)
        if not in_range.all():
            i, j = np.argwhere(~in_range)[0]
            raise ValidationError(
                f"value {float(self._data[i, j])!r} out of range [{SCORE_MIN:g}, {SCORE_MAX:g}] "
                f"for {self.countries[i]!r}, column {self.columns[j]!r}"
            )
        # the CSV text of each row, in row order, once parse_dataset or
        # emit_dataset gives it
        self._rows: tuple[str, ...] | None = None

    def __len__(self) -> int:
        return len(self.countries)

    def resolve_column(self, name: str) -> str:
        if name in self.columns:
            return name
        key = name.strip().lower()
        alias = _ALIASES.get(key)
        if alias is not None and alias in self.columns:
            return alias
        for col in self.columns:
            if col.lower() == key:
                return col
        raise ColumnLookupError(
            f"unknown column {name!r}; available: {', '.join(self.columns)}"
        )

    def array(self, names: Sequence[str]) -> np.ndarray:
        """(n, len(names)) C-ordered copy of the named columns, in row order."""
        indices = [self.columns.index(self.resolve_column(n)) for n in names]
        return self._data.take(indices, axis=1)

    def column(self, name: str) -> np.ndarray:
        """Read-only (n,) view of the named column, in row order."""
        return self._data[:, self.columns.index(self.resolve_column(name))]

    def sorted_by_name(self) -> "Dataset":
        """Rows reordered alphabetically by country name."""
        order = sorted(range(len(self)), key=self.countries.__getitem__)
        by_name = Dataset(self.columns, [self.countries[i] for i in order], self._data[order])
        if self._rows is not None:
            by_name._rows = tuple(self._rows[i] for i in order)
        return by_name


def _non_blank_strings(names: tuple) -> bool:
    """Whether every name is a ``str`` with a non-blank character.
    ``str.strip`` raises TypeError on any other type."""
    try:
        return all(map(str.strip, names))
    except TypeError:
        return False


def _score_array(columns: tuple[str, ...], countries: tuple[str, ...],
                 scores: Sequence[Sequence[float]] | np.ndarray) -> np.ndarray:
    """(n, p) float copy of the scores. An integer or float array is copied
    as it is; any other is read cell by cell by ``base.real``, so that a
    string, None, bool or sequence is named with its country and column."""
    shape = (len(countries), len(columns))
    wrong_shape = f"scores must have shape {shape} (countries x columns)"
    if isinstance(scores, np.ndarray) and scores.dtype.kind in "fiu":
        if scores.shape != shape:
            raise ValidationError(f"{wrong_shape}, got {scores.shape}")
        return scores.astype(float)
    try:
        rows = [list(row) for row in scores]
    except TypeError:
        raise ValidationError(wrong_shape) from None
    if len(rows) != shape[0] or any(len(row) != shape[1] for row in rows):
        raise ValidationError(wrong_shape)
    cells = [real(value) for row in rows for value in row]
    if None in cells:
        i, j = divmod(cells.index(None), shape[1])
        raise ValidationError(f"value {rows[i][j]!r} for {countries[i]!r}, "
                              f"column {columns[j]!r} is not a real number")
    return np.array(cells, dtype=float).reshape(shape)


def parse_dataset(csv_text: str) -> Dataset:
    """Parse CSV with a 'country' first column and numeric score columns."""
    # spreadsheet exports often start with a UTF-8 byte order mark
    reader = csv.reader(io.StringIO(csv_text.removeprefix("\ufeff")))
    try:
        rows = [row for row in reader if row]
    except csv.Error as exc:  # e.g. a NUL byte before Python 3.11
        raise DatasetParseError(f"line {reader.line_num}: {exc}") from None
    if not rows:
        raise DatasetParseError("empty input: header row required")
    header = [h.strip() for h in rows[0]]
    if not header or header[0].lower() != "country":
        raise DatasetParseError("first header column must be 'country'")
    columns = tuple(header[1:])
    if not columns:
        raise DatasetParseError("no score columns in header")
    if "" in columns:
        raise DatasetParseError(
            f"header cell {columns.index('') + 2} is blank: every score column needs a name")

    names, values, text = _names_and_values(header, rows[1:])
    dataset = Dataset(columns, names,
                      np.array(values, dtype=float).reshape(len(names), len(columns)))
    dataset._rows = text
    return dataset


# characters that make the csv writer quote a field: the delimiter, the quote
# character and line ends
_QUOTED = (",", '"', "\r", "\n")


def _names_and_values(header: list[str], body: list[list[str]]
                      ) -> tuple[list[str], list[float], tuple[str, ...] | None]:
    """Country names, the row-major cell values of the data rows, and the
    CSV text of each row when it is already the text ``emit_dataset`` would
    render (else None).

    A well-formed body converts in one pass that parses each distinct cell
    once (``float`` strips whitespace itself). The values are looked up by
    cell string, not by float, so ``-0.0`` and ``0.0`` stay apart. Its rows
    keep their parsed text when every distinct cell is the ``repr`` of its
    value, which is what the writer writes for a float, and every name is
    stripped already and holds no character the writer would quote.
    Any other body has a row with the wrong number of cells, a blank name or
    a cell that ``float`` rejects, and the row-by-row loop raises on the
    first of them with its line number and column.
    """
    names = [row[0].strip() for row in body]
    if all(names) and all(len(row) == len(header) for row in body):
        cells = [cell for row in body for cell in row[1:]]
        try:
            number = {cell: float(cell) for cell in set(cells)}
        except ValueError:
            pass
        else:
            text = None
            joined = "".join(names)
            if (all(repr(value) == cell for cell, value in number.items())
                    and names == [row[0] for row in body]
                    and not any(c in joined for c in _QUOTED)):
                text = tuple(",".join(row) + "\n" for row in body)
            return names, list(map(number.__getitem__, cells)), text
    columns = header[1:]
    for lineno, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise ValidationError(
                f"row {lineno}: expected {len(header)} cells, got {len(row)}"
            )
        if not row[0].strip():
            raise ValidationError(f"row {lineno}: empty country name")
        for col, cell in zip(columns, row[1:]):
            cell = cell.strip()
            if not cell:
                raise ValidationError(f"row {lineno}: missing value in column {col!r}")
            try:
                float(cell)
            except ValueError:
                raise DatasetParseError(
                    f"row {lineno}, column {col!r}: not a number: {cell!r}"
                ) from None
    raise AssertionError("the fast path rejected a body with no bad row")


def _csv_lines(rows: Iterable[Sequence]) -> list[str]:
    """The CSV text of each row, with its quoting and its line end. The
    writer makes one write call per row, so a quoted newline stays inside its
    row's text."""
    lines: list[str] = []
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n").writerows(rows)
    return lines


def emit_dataset(dataset: Dataset) -> str:
    """Serialize back to the CSV schema; round-trips through parse_dataset.

    This renderer defines a row's text. A parsed dataset in canonical form
    carries its parsed text, which equals that rendering; any other dataset
    is rendered at its first emit and keeps the text (see ``Dataset``).
    Later calls, and calls on its ``sorted_by_name`` copy, join that text.
    """
    if dataset._rows is None:
        # the writer writes a float as its repr, which parses back to the same value
        dataset._rows = tuple(_csv_lines(zip(dataset.countries, *dataset._data.T.tolist())))
    return "".join(_csv_lines([("country",) + dataset.columns])) + "".join(dataset._rows)


@lru_cache(maxsize=1)
def bundled_table_a1() -> Dataset:
    """The embedded 29-country dataset, rows in published (SII-descending) order."""
    text = resources.files("indexlab.data").joinpath("table_a1.csv").read_text("utf-8")
    return parse_dataset(text)
