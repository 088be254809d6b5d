"""Country/indicator dataset: parsing, validation, slicing, bundled fixture.

The canonical fixture is the published 29-country table with the SII, its four
pillars, the I-DESI, and its five dimensions. Scores live on a 0-100 scale.
Row order is preserved and semantically meaningful (serial-correlation
statistics depend on it), so nothing here ever reorders rows implicitly.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Iterator, Mapping

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
    """One row: a country name plus its named scores."""

    name: str
    values: Mapping[str, float]


@dataclass(frozen=True)
class Series:
    """A named column vector aligned to dataset row order."""

    name: str
    values: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)

    def __getitem__(self, i: int) -> float:
        return self.values[i]


class Dataset:
    """Immutable collection of country records sharing one column set."""

    def __init__(self, columns: tuple[str, ...], records: tuple[CountryRecord, ...]):
        self.columns = tuple(columns)
        self.records = tuple(records)
        self._validate()

    def _validate(self) -> None:
        if len(set(self.columns)) != len(self.columns):
            raise ValidationError("duplicate column names")
        seen: set[str] = set()
        colset = set(self.columns)
        for rec in self.records:
            if rec.name in seen:
                raise ValidationError(f"duplicate country {rec.name!r}")
            seen.add(rec.name)
            if set(rec.values) != colset:
                raise ValidationError(f"record {rec.name!r} does not match the column set")
            for col, v in rec.values.items():
                if not (SCORE_MIN <= v <= SCORE_MAX):
                    raise ValidationError(
                        f"value {v!r} out of range [{SCORE_MIN:g}, {SCORE_MAX:g}] "
                        f"for {rec.name!r}, column {col!r}"
                    )

    def __len__(self) -> int:
        return len(self.records)

    @property
    def countries(self) -> tuple[str, ...]:
        return tuple(rec.name for rec in self.records)

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

    def column(self, name: str) -> Series:
        col = self.resolve_column(name)
        return Series(col, tuple(rec.values[col] for rec in self.records))

    def record(self, country: str) -> CountryRecord:
        for rec in self.records:
            if rec.name == country:
                return rec
        raise ColumnLookupError(f"unknown country {country!r}")

    def sorted_by_name(self) -> "Dataset":
        """Rows reordered alphabetically by country name."""
        return Dataset(self.columns, tuple(sorted(self.records, key=lambda r: r.name)))


def select(dataset: Dataset, names: list[str] | tuple[str, ...]) -> list[Series]:
    """Extract columns as Series aligned to dataset row order."""
    return [dataset.column(name) for name in names]


def parse_dataset(csv_text: str) -> Dataset:
    """Parse CSV with a 'country' first column and numeric score columns."""
    # spreadsheet exports often start with a UTF-8 byte order mark
    reader = csv.reader(io.StringIO(csv_text.removeprefix("\ufeff")))
    rows = [row for row in reader if row]
    if not rows:
        raise DatasetParseError("empty input: header row required")
    header = [h.strip() for h in rows[0]]
    if not header or header[0].lower() != "country":
        raise DatasetParseError("first header column must be 'country'")
    columns = tuple(header[1:])
    if not columns:
        raise DatasetParseError("no score columns in header")

    records = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ValidationError(
                f"row {lineno}: expected {len(header)} cells, got {len(row)}"
            )
        name = row[0].strip()
        if not name:
            raise ValidationError(f"row {lineno}: empty country name")
        values = {}
        for col, cell in zip(columns, row[1:]):
            cell = cell.strip()
            if not cell:
                raise ValidationError(f"row {lineno}: missing value in column {col!r}")
            try:
                values[col] = float(cell)
            except ValueError:
                raise DatasetParseError(
                    f"row {lineno}, column {col!r}: not a number: {cell!r}"
                ) from None
        records.append(CountryRecord(name, values))
    return Dataset(columns, tuple(records))


def emit_dataset(dataset: Dataset) -> str:
    """Serialize back to the CSV schema; round-trips through parse_dataset."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("country",) + dataset.columns)
    for rec in dataset.records:
        writer.writerow([rec.name] + [repr(rec.values[c]) for c in dataset.columns])
    return out.getvalue()


@lru_cache(maxsize=1)
def bundled_table_a1() -> Dataset:
    """The embedded 29-country dataset, rows in published (SII-descending) order."""
    text = resources.files("indexlab.data").joinpath("table_a1.csv").read_text("utf-8")
    return parse_dataset(text)
