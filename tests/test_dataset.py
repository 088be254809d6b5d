import re
from importlib import resources

import numpy as np
import pytest

from indexlab import (
    ColumnLookupError,
    Dataset,
    DatasetParseError,
    ValidationError,
    bundled_table_a1,
    emit_dataset,
    parse_dataset,
    reproduce_all,
)
from indexlab.dataset import DIMENSIONS, IDESI, PILLARS, SII


def test_bundled_shape(dataset):
    assert len(dataset) == 29
    assert len(dataset.columns) == 11
    assert dataset.columns == (SII,) + PILLARS + (IDESI,) + DIMENSIONS


def test_bundled_values(dataset):
    scores = dataset.array([SII, IDESI])
    assert scores[dataset.countries.index("USA")].tolist() == [79.4, 59.0]
    assert scores[dataset.countries.index("Turkey"), 1] == 26.0
    # the predicted country is deliberately absent from the sample
    assert "Hungary" not in dataset.countries
    # bundled rows keep the published order: highest composite first
    assert dataset.countries[0] == "USA"


def test_emit_parse_round_trip(dataset):
    text = emit_dataset(dataset)
    again = parse_dataset(text)
    assert emit_dataset(again) == text
    assert again.countries == dataset.countries


def test_emit_round_trips_quoted_country_names():
    text = 'country,a,b\n"Korea, Rep. ""South""",50.5,0.1\nX,3.0,99.99\n'
    ds = parse_dataset(text)
    assert ds.countries == ('Korea, Rep. "South"', "X")
    assert emit_dataset(ds) == text


def test_parse_strips_padded_cells():
    padded = parse_dataset("country , a ,b\n A , 12.5 ,\t7\t\n\tB\t,\t1e1 ,  3.25\n")
    plain = parse_dataset("country,a,b\nA,12.5,7\nB,1e1,3.25\n")
    assert padded.columns == plain.columns == ("a", "b")
    assert padded.countries == plain.countries == ("A", "B")
    assert padded.array(["a", "b"]).tolist() == plain.array(["a", "b"]).tolist() \
        == [[12.5, 7.0], [10.0, 3.25]]


def test_column_and_series(dataset):
    column = dataset.column("sii")
    assert column.shape == (29,) and column.dtype == np.float64
    assert column[:2].tolist() == [79.4, 77.3]
    # a column is a view of the dataset's own array, which is read-only
    assert not column.flags["WRITEABLE"] and not column.flags["OWNDATA"]
    with pytest.raises(ValueError, match="read-only"):
        column[0] = -1.0
    block = dataset.array(["idesi", SII])
    assert block.shape == (29, 2) and block.flags["C_CONTIGUOUS"]
    assert np.array_equal(block[:, 1], column)
    assert np.array_equal(block[:, 0], dataset.column(IDESI))
    # the array accessor hands out a copy
    block[0, 1] = -1.0
    assert dataset.column(SII)[0] == 79.4


def test_resolve_column_case_insensitive(dataset):
    assert dataset.resolve_column("sii") == SII
    assert dataset.resolve_column("connectivity") == "Connectivity"
    with pytest.raises(ColumnLookupError, match="unknown column"):
        dataset.resolve_column("Nope")


def test_sorted_by_name(dataset):
    by_name = dataset.sorted_by_name()
    assert list(by_name.countries) == sorted(dataset.countries)
    assert set(by_name.countries) == set(dataset.countries)
    rows = [dict(zip(ds.countries, ds.array(ds.columns).tolist())) for ds in (dataset, by_name)]
    assert rows[0] == rows[1]


def test_parse_rejects_bad_header():
    with pytest.raises(DatasetParseError, match="country"):
        parse_dataset("name,SII\nA,50\n")
    with pytest.raises(DatasetParseError, match="empty"):
        parse_dataset("")
    with pytest.raises(DatasetParseError, match="no score columns"):
        parse_dataset("country\nA\n")


@pytest.mark.parametrize("header,cell", [("country,,x", 2), ("country,a, ", 3), ("country, ,x,", 2)])
def test_parse_rejects_blank_header_cell(header, cell):
    with pytest.raises(DatasetParseError,
                       match=re.escape(f"header cell {cell} is blank: every score column needs a name")):
        parse_dataset(header + "\nA,1,2\n")


def test_parse_rejects_bad_cells():
    with pytest.raises(DatasetParseError, match="not a number"):
        parse_dataset("country,SII\nA,fifty\n")
    with pytest.raises(ValidationError, match="expected 2 cells"):
        parse_dataset("country,SII\nA\n")
    with pytest.raises(ValidationError, match="missing value"):
        parse_dataset("country,SII\nA,\n")
    with pytest.raises(ValidationError, match="empty country name"):
        parse_dataset("country,SII\n,50\n")
    # the csv module's own errors (an oversized field; a NUL byte before
    # Python 3.11) are parse errors too
    with pytest.raises(DatasetParseError, match="line 2: field larger than field limit"):
        parse_dataset('country,SII\n"' + "x" * 200_000 + '",50\n')


GOOD_ROWS = "".join(f"C{i},{i}.5, {i % 7}\n" for i in range(40))  # rows 2 to 41


@pytest.mark.parametrize("last_row,error,message", [
    ("Z,50,x7", DatasetParseError, "row 42, column 'b': not a number: 'x7'"),
    ("Z,50, 1 2 ", DatasetParseError, "row 42, column 'b': not a number: '1 2'"),
    ("Z,,50", ValidationError, "row 42: missing value in column 'a'"),
    ("Z,50, \t ", ValidationError, "row 42: missing value in column 'b'"),
    ("Z,50", ValidationError, "row 42: expected 3 cells, got 2"),
    ("Z,50,1,2", ValidationError, "row 42: expected 3 cells, got 4"),
    (" ,50,1", ValidationError, "row 42: empty country name"),
], ids=["non_number", "inner_space", "empty", "whitespace_only", "short", "long", "no_name"])
def test_parse_names_bad_last_row(last_row, error, message):
    with pytest.raises(error, match=re.escape(message)):
        parse_dataset("country,a,b\n" + GOOD_ROWS + last_row + "\n")


def test_parse_names_first_bad_row():
    # a bad cell in an earlier row is reported before a short row after it
    text = "country,a,b\n" + GOOD_ROWS + "Y,50,?\nZ,1\n"
    with pytest.raises(DatasetParseError, match=re.escape("row 42, column 'b': not a number")):
        parse_dataset(text)


def test_constructor_validation():
    with pytest.raises(ValidationError, match="duplicate column"):
        Dataset(("x", "x"), ("A",), [[50.0, 50.0]])
    with pytest.raises(ValidationError, match="duplicate country"):
        Dataset(("x",), ("A", "A"), [[50.0], [10.0]])
    with pytest.raises(ValidationError, match="out of range"):
        Dataset(("x",), ("A",), [[101.0]])
    with pytest.raises(ValidationError, match="out of range"):
        Dataset(("x",), ("A",), np.array([[-0.5]]))


@pytest.mark.parametrize("columns,countries,message", [
    (("x",), ["A", 1], "country name 1 (number 2)"),
    ((3,), ["A", "B"], "column name 3 (number 1)"),
    (("x",), ["", "B"], "country name '' (number 1)"),
    (("x",), ["A", " \t"], "country name ' \\t' (number 2)"),
    (("x", ""), ["A", "B"], "column name '' (number 2)"),
    ((None,), ["A", "B"], "column name None (number 1)"),
    (("x",), [b"A", "B"], "country name b'A' (number 1)"),
])
def test_constructor_requires_non_blank_string_names(columns, countries, message):
    # before the check these failed later: a sort of mixed names raised
    # TypeError, a column lookup on an int name AttributeError
    with pytest.raises(ValidationError, match=re.escape(message + " is not a non-blank string")):
        Dataset(columns, countries, np.ones((2, len(columns))))


@pytest.mark.parametrize("scores", [
    [[50.0]], [[50.0, 1.0, 2.0]], [50.0, 1.0], [[50.0, 1.0], [2.0]], 50.0,
    np.zeros((2, 2)), np.zeros((1, 2)), np.zeros(2), np.zeros((2, 1, 1)),
])
def test_constructor_rejects_wrong_shape(scores):
    with pytest.raises(ValidationError, match=re.escape("scores must have shape (2, 1)")):
        Dataset(("x",), ("A", "B"), scores)


@pytest.mark.parametrize("value", ["50", "abc", True, None, [1, 2]])
def test_constructor_rejects_non_real_values(value):
    message = f"value {value!r} for 'B', column 'x' is not a real number"
    with pytest.raises(ValidationError, match=re.escape(message)):
        Dataset(("w", "x"), ("A", "B"), [[10.0, 20.0], [30.0, value]])
    # the same cell in an object array is checked the same way
    scores = np.empty((2, 2), dtype=object)
    scores[:] = [[10.0, 20.0], [30.0, 40.0]]
    scores[1, 1] = value
    with pytest.raises(ValidationError, match=re.escape(message)):
        Dataset(("w", "x"), ("A", "B"), scores)


def test_constructor_rejects_bool_and_string_arrays():
    with pytest.raises(ValidationError, match="is not a real number"):
        Dataset(("x",), ("A",), np.array([[True]]))
    with pytest.raises(ValidationError, match="is not a real number"):
        Dataset(("x",), ("A",), np.array([["50"]]))


def test_constructor_accepts_ints_and_numpy_scalars():
    ds = Dataset(("a", "b", "c"), ("A",), [[50, np.float32(2.5), np.int64(7)]])
    row = ds.array(ds.columns)[ds.countries.index("A")]
    assert row.dtype == np.float64 and row.tolist() == [50.0, 2.5, 7.0]
    ints = Dataset(("a",), ("A", "B"), np.array([[3], [4]], dtype=np.int32))
    assert ints.column("a").dtype == np.float64 and ints.column("a").tolist() == [3.0, 4.0]


def test_constructor_copies_the_scores():
    scores = np.array([[10.0], [20.0]])
    ds = Dataset(("x",), ("A", "B"), scores)
    scores[0, 0] = 99.0
    assert ds.column("x").tolist() == [10.0, 20.0]
    assert scores.flags.writeable and not ds.column("x").flags.writeable


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_cells_rejected(cell):
    message = f"value {float(cell)!r} out of range [0, 100] for 'X', column 'a'"
    with pytest.raises(ValidationError, match=re.escape(message)):
        parse_dataset(f"country,a\nX,{cell}\n")
    with pytest.raises(ValidationError, match=re.escape(message)):
        Dataset(("a",), ("X",), [[float(cell)]])
    # the first offending cell in row order is the one named
    with pytest.raises(ValidationError, match=re.escape(message)):
        parse_dataset(f"country,b,a\nW,1,2\nX,3,{cell}\nY,{cell},{cell}\n")


ODD_NAMES_CSV = ('country,a,b\nZed,1.0,2.5\n"Korea, Rep.",3.0,0.1\n'
                 '"Say ""hi""",99.99,7.0\n"Two\nlines",50.0,12.25\nAlpha,4.0,5.0\n')


def test_sorted_copy_carries_row_text():
    ds = parse_dataset(ODD_NAMES_CSV)
    assert ds.countries == ("Zed", "Korea, Rep.", 'Say "hi"', "Two\nlines", "Alpha")
    fresh = ds.sorted_by_name()
    assert fresh._rows is None
    assert emit_dataset(ds) == ODD_NAMES_CSV
    by_name = ds.sorted_by_name()
    assert by_name._rows is not None
    # the reordered text is what a fresh rendering of the sorted copy gives
    assert emit_dataset(by_name) == emit_dataset(fresh)
    assert emit_dataset(by_name).splitlines(keepends=True)[1:3] == [
        "Alpha,4.0,5.0\n", '"Korea, Rep.",3.0,0.1\n']
    assert parse_dataset(emit_dataset(by_name)).countries == by_name.countries


def _packaged_text() -> str:
    return resources.files("indexlab.data").joinpath("table_a1.csv").read_text("utf-8")


def _generated_text(n: int) -> str:
    """An n-row table in the form ``emit_dataset`` writes: one-decimal
    scores, each the repr of its float, and bare names."""
    rng = np.random.default_rng(n)
    data = np.round(rng.uniform(5.0, 95.0, size=(n, 11)), 1)
    header = "country," + ",".join(bundled_table_a1().columns) + "\n"
    return header + "".join(
        ",".join([f"C{i:05d}"] + [repr(v) for v in row]) + "\n"
        for i, row in enumerate(data.tolist()))


@pytest.mark.parametrize("text", [_packaged_text(), _generated_text(2_900)],
                         ids=["packaged", "generated_2900"])
def test_canonical_text_round_trips_byte_for_byte(text):
    ds = parse_dataset(text)
    # the parsed text is kept, so the emit renders no row
    assert ds._rows is not None
    assert emit_dataset(ds) == text


def _first_row(text: str, row: str) -> str:
    header, first, rest = text.split("\n", 2)
    return "\n".join([header, row, rest])


_PACKAGED = _packaged_text()
_USA = _PACKAGED.split("\n")[1]  # USA,79.4,84.6,...


# (text, whether the parsed text is the canonical rendering and is kept)
AWKWARD_TEXTS = {
    "two_decimals": (_first_row(_PACKAGED, _USA.replace(",79.4,", ",79.40,")), False),
    "exponent": (_first_row(_PACKAGED, _USA.replace(",79.4,", ",7.94e1,")), False),
    "leading_space": (_first_row(_PACKAGED, _USA.replace(",79.4,", ", 79.4,")), False),
    "zero_and_negative_zero": (
        _first_row(_PACKAGED, _USA.replace(",84.6,80.4,", ",-0.0,0.0,")), True),
    "negative_zero_spelt_short": (
        _first_row(_PACKAGED, _USA.replace(",84.6,80.4,", ",-0,0.0,")), False),
    "name_with_comma": (_first_row(_PACKAGED, _USA.replace("USA", '"USA, the"')), False),
    "name_with_quote": (_first_row(_PACKAGED, _USA.replace("USA", '"The ""USA"""')), False),
    "name_with_newline": (_first_row(_PACKAGED, _USA.replace("USA", '"U\nSA"')), False),
    "needless_quotes": (_first_row(_PACKAGED, _USA.replace("USA", '"USA"')), True),
    "padded_name": (_first_row(_PACKAGED, _USA.replace("USA", " USA")), False),
    "crlf": (_PACKAGED.replace("\n", "\r\n"), True),
    "bom": ("\ufeff" + _PACKAGED, True),
    "blank_lines": (_PACKAGED.replace("\nUK,", "\n\n\nUK,") + "\n\n", True),
}


@pytest.mark.parametrize("case", list(AWKWARD_TEXTS))
def test_awkward_text_emits_as_a_hand_built_dataset(case):
    """The parsed text is kept only when it is the canonical rendering.
    Either way the emit and the report's dataset hash are those of the same
    dataset built by hand from the parsed values, which has no text until its
    first emit; so a parse that gave 0.0 for a "-0.0" cell while keeping the
    cell's text would fail here."""
    text, kept = AWKWARD_TEXTS[case]
    ds = parse_dataset(text)
    hand = Dataset(ds.columns, ds.countries, ds.array(ds.columns))
    assert (ds._rows is not None) == kept
    assert emit_dataset(ds) == emit_dataset(hand)
    sha = [reproduce_all(d, seed=1, replicates=1).provenance["dataset_sha256"] for d in (ds, hand)]
    assert sha[0] == sha[1]


def test_bad_cell_in_a_canonical_table_is_named():
    lines = _PACKAGED.split("\n")
    lines[4] = lines[4].replace(",61.1,", ",6l.1,")
    with pytest.raises(DatasetParseError,
                       match=re.escape("row 5, column 'Entrepreneurship': not a number: '6l.1'")):
        parse_dataset("\n".join(lines))
