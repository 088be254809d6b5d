"""Country/indicator dataset: parsing, validation, column access, bundled fixture.

The canonical fixture is the published 29-country table with the SII, its four
pillars, the I-DESI, and its five dimensions. Scores live on a 0-100 scale.
A dataset is columnar: its column names, its country names, and one
read-only (countries x columns) float array that parsing fills directly.
Everything reads the scores from that array, through ``Dataset.array`` (a
copy of several columns) or ``Dataset.column`` (a view of one). Row order is
preserved and semantically meaningful (serial-correlation statistics depend
on it), so nothing here ever reorders rows implicitly.
"""
from __future__ import annotations

import csv
import io
import numbers
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Mapping, Sequence

import numpy as np

from .errors import ColumnLookupError, DatasetParseError, ValidationError

SCORE_MIN = 0.0
SCORE_MAX = 100.0

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


@dataclass(frozen=True)
class CountryRecord:
    """One row given to the ``Dataset`` constructor: a country name plus its named scores."""

    name: str
    values: Mapping[str, float]


class Dataset:
    """Immutable country-by-column score table.

    The scores live in one read-only (n, p) float array whose rows follow
    ``countries`` and whose columns follow ``columns``. The constructor takes
    ``CountryRecord`` rows; reads go through ``array()`` and ``column()``.
    """

    def __init__(self, columns: tuple[str, ...], records: tuple[CountryRecord, ...]):
        columns = tuple(columns)
        records = tuple(records)
        rows = []
        for rec in records:
            if set(rec.values) != set(columns):
                raise ValidationError(f"record {rec.name!r} does not match the column set")
            row = [rec.values[c] for c in columns]
            for col, value in zip(columns, row):
                # bool is an int subclass; strings and None must not be coerced
                if not isinstance(value, numbers.Real) or isinstance(value, (bool, np.bool_)):
                    raise ValidationError(
                        f"value {value!r} for {rec.name!r}, column {col!r} is not a real number"
                    )
            rows.append(row)
        self.columns = columns
        self.countries = tuple(rec.name for rec in records)
        self._data = np.array(rows, dtype=float).reshape(len(records), len(columns))
        self._data.setflags(write=False)
        self._validate()

    @classmethod
    def _from_array(cls, columns: tuple[str, ...], countries: tuple[str, ...],
                    data: np.ndarray) -> "Dataset":
        """Wrap a built score array without validating it."""
        dataset = cls.__new__(cls)
        dataset.columns, dataset.countries, dataset._data = columns, countries, data
        data.setflags(write=False)
        return dataset

    def _validate(self) -> None:
        if len(set(self.columns)) != len(self.columns):
            raise ValidationError("duplicate column names")
        seen: set[str] = set()
        for name in self.countries:
            if name in seen:
                raise ValidationError(f"duplicate country {name!r}")
            seen.add(name)
        # negated so that NaN is out of range too
        bad = np.argwhere(~((self._data >= SCORE_MIN) & (self._data <= SCORE_MAX)))
        if len(bad):
            i, j = bad[0]
            raise ValidationError(
                f"value {float(self._data[i, j])!r} out of range [{SCORE_MIN:g}, {SCORE_MAX:g}] "
                f"for {self.countries[i]!r}, column {self.columns[j]!r}"
            )

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
        return Dataset._from_array(self.columns, tuple(self.countries[i] for i in order),
                                   self._data[order])


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

    names, values = _names_and_values(header, rows[1:])
    data = np.array(values, dtype=float).reshape(len(names), len(columns))
    dataset = Dataset._from_array(columns, tuple(names), data)
    dataset._validate()
    return dataset


def _names_and_values(header: list[str], body: list[list[str]]) -> tuple[list[str], list[float]]:
    """Country names and the row-major cell values of the data rows.

    A well-formed body converts in one pass (``float`` strips whitespace
    itself). Anything else goes through the row-by-row loop, which raises on
    the first bad row or cell with its line number and column.
    """
    names = [row[0].strip() for row in body]
    if all(names) and all(len(row) == len(header) for row in body):
        try:
            return names, [float(cell) for row in body for cell in row[1:]]
        except ValueError:
            pass
    columns = header[1:]
    names, values = [], []
    for lineno, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise ValidationError(
                f"row {lineno}: expected {len(header)} cells, got {len(row)}"
            )
        name = row[0].strip()
        if not name:
            raise ValidationError(f"row {lineno}: empty country name")
        names.append(name)
        for col, cell in zip(columns, row[1:]):
            cell = cell.strip()
            if not cell:
                raise ValidationError(f"row {lineno}: missing value in column {col!r}")
            try:
                values.append(float(cell))
            except ValueError:
                raise DatasetParseError(
                    f"row {lineno}, column {col!r}: not a number: {cell!r}"
                ) from None
    return names, values


def emit_dataset(dataset: Dataset) -> str:
    """Serialize back to the CSV schema; round-trips through parse_dataset."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("country",) + dataset.columns)
    # the writer writes a float as its repr, which parses back to the same value
    writer.writerows(zip(dataset.countries, *dataset._data.T.tolist()))
    return out.getvalue()


@lru_cache(maxsize=1)
def bundled_table_a1() -> Dataset:
    """The embedded 29-country dataset, rows in published (SII-descending) order."""
    text = resources.files("indexlab.data").joinpath("table_a1.csv").read_text("utf-8")
    return parse_dataset(text)
