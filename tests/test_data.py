import csv
import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probtree import (AssignmentError, DataError, Dataset, Interval, Variable, data,
                      emit_csv, ingest_csv, make_assignment, parse_assignment)

from reference_train import reference_emit_csv, reference_ingest_csv


def write_csv(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestVariable:
    def test_symbolic_requires_domain(self):
        with pytest.raises(DataError):
            Variable("c", "symbolic", ())

    def test_symbolic_rejects_duplicates(self):
        with pytest.raises(DataError):
            Variable("c", "symbolic", ("a", "a"))

    def test_numeric_rejects_domain(self):
        with pytest.raises(DataError):
            Variable("x", "numeric", ("a",))

    def test_domain_index_bijection(self):
        v = Variable("c", "symbolic", ("Blue", "Red", "Green"))
        for i, lab in enumerate(v.domain):
            assert v.index_of(lab) == i


class TestIngest:
    def test_all_numeric_column(self, tmp_path):
        ds = ingest_csv(write_csv(tmp_path, "x\n1.5\n2.0\n"))
        assert ds.schema[0].numeric
        assert list(ds.column("x")) == [1.5, 2.0]

    def test_symbolic_column_sorted_domain(self, tmp_path):
        ds = ingest_csv(write_csv(tmp_path, "c\nRed\nBlue\nRed\n"))
        assert ds.schema[0].domain == ("Blue", "Red")
        assert list(ds.column("c")) == [1.0, 0.0, 1.0]

    def test_iris_schema(self, iris):
        assert len(iris.schema) == 5
        kinds = [v.kind for v in iris.schema]
        assert kinds.count("numeric") == 4 and kinds.count("symbolic") == 1
        assert len(iris) == 150

    def test_override_wins(self, tmp_path):
        p = write_csv(tmp_path, "x\n1\n2\n")
        ds = ingest_csv(p, {"x": "symbolic"})
        assert ds.schema[0].symbolic
        assert ds.schema[0].domain == ("1", "2")

    def test_override_numeric_unparseable(self, tmp_path):
        p = write_csv(tmp_path, "x\n1\nfoo\n")
        with pytest.raises(DataError, match="foo"):
            ingest_csv(p, {"x": "numeric"})

    def test_underscored_digits_are_not_a_number(self, tmp_path):
        # float() reads 1_0 as 10; no CSV cell means that
        p = write_csv(tmp_path, "x\n1_0\n2\n")
        ds = ingest_csv(p)
        assert ds.schema[0].symbolic and ds.schema[0].domain == ("1_0", "2")
        with pytest.raises(DataError, match="'1_0'"):
            ingest_csv(p, {"x": "numeric"})

    def test_ragged_rows(self, tmp_path):
        with pytest.raises(DataError, match="row 3"):
            ingest_csv(write_csv(tmp_path, "a,b\n1,2\n1\n"))

    def test_missing_cell_rejected(self, tmp_path):
        with pytest.raises(DataError, match="missing"):
            ingest_csv(write_csv(tmp_path, "a,b\n1,\n"))

    def test_empty_dataset(self, tmp_path):
        with pytest.raises(DataError):
            ingest_csv(write_csv(tmp_path, "a,b\n"))

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(DataError):
            ingest_csv(tmp_path / "nope.csv")

    def test_first_fault_in_file_order(self, tmp_path):
        # the first row that is ragged or has an empty cell; in one row, the length
        for text, want in [("a,b\n1,2\n,2\n1\n", "missing value in row 3, column 'a'"),
                           ("a,b\n1,2\n1\n,2\n", "row 3 has 1 cells"),
                           ("a,b\n1,\n,2\n", "missing value in row 2, column 'b'"),
                           ("a,b\n1,2\n,2,\n", "row 3 has 3 cells")]:
            with pytest.raises(DataError, match=want):
                ingest_csv(write_csv(tmp_path, text))

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        schema = (Variable("x", "numeric"), Variable("c", "symbolic", ("a", "b")))
        values = np.column_stack([rng.standard_normal(20) * 1e3,
                                  rng.integers(0, 2, 20).astype(float)])
        ds = Dataset(schema, values)
        p = tmp_path / "round.csv"
        emit_csv(ds, p)
        back = ingest_csv(p)
        assert np.array_equal(back.values, ds.values)


class TestDataset:
    def test_row_length_mismatch(self):
        with pytest.raises(DataError):
            Dataset((Variable("x", "numeric"),), np.zeros((3, 2)))

    def test_symbolic_index_bounds(self):
        v = Variable("c", "symbolic", ("a", "b"))
        with pytest.raises(DataError):
            Dataset((v,), np.array([[2.0]]))

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError):
            Dataset((Variable("x", "numeric"),), np.array([[np.inf]]))

    def test_weights_positive(self):
        with pytest.raises(DataError):
            Dataset((Variable("x", "numeric"),), np.array([[1.0]]),
                    weights=np.array([0.0]))


SCHEMA = (Variable("x", "numeric"), Variable("color", "symbolic", ("Blue", "Red")))


class TestParseAssignment:
    def test_symbolic_equality(self):
        a = parse_assignment("color = Red", SCHEMA)
        assert a == {"color": frozenset([1])}

    def test_mixed_statements(self):
        a = parse_assignment("x in [0, 1]; color in {Red, Blue}", SCHEMA)
        assert a["x"] == Interval(0.0, 1.0)
        assert a["color"] == frozenset([0, 1])

    def test_numeric_point(self):
        a = parse_assignment("x = 2.5", SCHEMA)
        assert a["x"] == Interval(2.5, 2.5)
        assert a["x"].is_point

    def test_inverted_interval(self):
        with pytest.raises(AssignmentError, match="inverted"):
            parse_assignment("x in [2, 1]", SCHEMA)

    def test_unknown_variable(self):
        with pytest.raises(AssignmentError, match="'y'"):
            parse_assignment("y = 1", SCHEMA)

    def test_value_not_in_domain(self):
        with pytest.raises(AssignmentError, match="'Green'"):
            parse_assignment("color = Green", SCHEMA)

    def test_duplicate_constraint(self):
        with pytest.raises(AssignmentError, match="duplicate"):
            parse_assignment("x = 1; x in [0, 2]", SCHEMA)

    def test_rejection_names_token(self):
        with pytest.raises(AssignmentError, match="bogus"):
            parse_assignment("x in [bogus, 1]", SCHEMA)

    @pytest.mark.parametrize("text", ["x in [1_0, 2_0]", "x = 1_0", "x in [0, 1_0]"])
    def test_underscored_digits_are_not_a_number(self, text):
        with pytest.raises(AssignmentError, match="_0"):
            parse_assignment(text, SCHEMA)

    @pytest.mark.parametrize("text", [
        "x in [0,1]", "  color   =  Blue ", "x=-3.5e2", "color in {Blue}",
        "x in [-1, -0.5]; color = Red",
    ])
    def test_grammar_totality(self, text):
        parse_assignment(text, SCHEMA)

    def test_set_on_numeric_rejected(self):
        with pytest.raises(AssignmentError):
            parse_assignment("x in {1, 2}", SCHEMA)

    def test_interval_on_symbolic_rejected(self):
        with pytest.raises(AssignmentError):
            parse_assignment("color in [0, 1]", SCHEMA)


class TestMakeAssignment:
    def test_point_and_pair(self):
        a = make_assignment(SCHEMA, {"x": 3.0, "color": ["Red"]})
        assert a["x"] == Interval(3.0, 3.0)
        assert a["color"] == frozenset([1])

    def test_nonfinite_interval_rejected(self):
        with pytest.raises(AssignmentError):
            make_assignment(SCHEMA, {"x": (0, np.inf)})

    @pytest.mark.parametrize("spec", [
        "1_0",              # float() reads 10
        ("1_0", " 2_0 "),   # float() reads [10, 20]
        True,               # float() reads the point 1
        (0, True),
        None,
        "abc",              # float() raises a bare ValueError
        [1.0, "x"],
        b"1",
        10 ** 400,          # float() raises OverflowError
        (1,),               # an IndexError
        (1, 2, 3),          # the 3 was dropped
        (),
    ])
    def test_rejected_numeric_values_name_the_variable(self, spec):
        with pytest.raises(AssignmentError, match="'x'"):
            make_assignment(SCHEMA, {"x": spec})

    @pytest.mark.parametrize("spec, want", [
        (" 2.5 ", Interval(2.5, 2.5)),
        (("-1", "1e3"), Interval(-1.0, 1000.0)),
        ([np.float64(0.5), np.int64(2)], Interval(0.5, 2.0)),
        (2, Interval(2.0, 2.0)),
        (Interval(1.0, 2.0), Interval(1.0, 2.0)),
    ])
    def test_numbers_and_number_strings(self, spec, want):
        got = make_assignment(SCHEMA, {"x": spec})["x"]
        assert got == want and type(got.lower) is float and type(got.upper) is float


# -- the column-wise reader and writer against the row-by-row ones ---------------

CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from(["", " ", " 1.5 ", "\t-2\t", "1_0", "_", "nan", "NaN", "-inf", "inf",
                     "1e400", "-1e-400", "-0.0", "5e-324", "0x10", "\u0661\u0662", "1,5",
                     "a", "b", "a\nb", '"', "\ufeff"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=3))
# cells that all but spell a number, so that whole columns come out numeric
NUMBERISH = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                      st.sampled_from([" 1 ", "\t2", "-0.0", "1e5", "nan", "inf", "-inf",
                                       "1e400", "1_0", "5e-324"]))
NAMES = ["a", "b", "c", "a ", ""]


#: the reader's own chunk size and chunk sizes that put chunk boundaries
#: between the few rows of a property example
CHUNK_SIZES = (data._CHUNK_ROWS, 1, 2, 3)


def chunk_rows(n: int):
    """A context in which the CSV reader and writer hold ``n`` rows at a time."""
    return mock.patch.object(data, "_CHUNK_ROWS", n)


def read(reader, path, override=None):
    """``(result, DataError message)`` of ``reader``."""
    try:
        return reader(path, override), None
    except DataError as exc:
        return None, str(exc)


def assert_reads_like_the_reference(path, override=None, chunk_sizes=CHUNK_SIZES):
    """``ingest_csv`` at each chunk size gives the schema, value bits and
    error message of the row-by-row reader; returns the reference's pair."""
    want, want_error = read(reference_ingest_csv, path, override)
    for n in chunk_sizes:
        with chunk_rows(n):
            got, got_error = read(ingest_csv, path, override)
        assert got_error == want_error, n
        if want is not None:
            assert got.schema == want.schema, n
            assert got.values.tobytes() == want.values.tobytes(), n
            assert got.weights.tobytes() == want.weights.tobytes(), n
    return want, want_error


@settings(max_examples=400, deadline=None)
@example(header=["a", "b"], rows=[["1", "x"], ["1"], ["", "y"]], quoted=False, bom=False,
         override=None)
@example(header=["a", "b"], rows=[["1", "x"], ["", "y"], ["1"]], quoted=False, bom=False,
         override=None)
@example(header=["a", "b"], rows=[["1", "x"], ["", "y", "z"]], quoted=False, bom=True,
         override=None)
@example(header=["a", "b"], rows=[["1", ""], ["", "2"]], quoted=False, bom=False,
         override=None)
@example(header=["a", "b"], rows=[["1", "nan"], ["2", "3"]], quoted=False, bom=False,
         override=None)
@example(header=["a", "b"], rows=[["1e400", "1"], ["2", "3"]], quoted=False, bom=False,
         override={"b": "symbolic"})
@example(header=["a", "a"], rows=[["1", "2"]], quoted=False, bom=False, override=None)
@example(header=["a", "b"], rows=[[" 1 ", "1_0"], ["2", "2"]], quoted=False, bom=False,
         override={"a": "symbolic", "b": "numeric"})
@example(header=["a", "b"], rows=[["1", "x,y"], ["2", "p\nq"]], quoted=True, bom=True,
         override={"b": "symbolic", "a": "numeric"})
@given(header=st.lists(st.sampled_from(NAMES), min_size=1, max_size=4),
       rows=st.sampled_from([CELLS, NUMBERISH]).flatmap(
           lambda cells: st.lists(st.lists(cells, max_size=4), max_size=6)),
       quoted=st.booleans(),
       bom=st.booleans(),
       override=st.none() | st.dictionaries(st.sampled_from(NAMES + ["z"]),
                                             st.sampled_from(["numeric", "symbolic", "text"]),
                                             max_size=2))
def test_ingest_matches_the_row_by_row_reader(tmp_path_factory, header, rows, quoted, bom,
                                              override):
    """Both readers give the same schema and the same value bits, or the same
    error message, whatever the chunk size."""
    if quoted:
        buf = io.StringIO()
        csv.writer(buf).writerows([header] + rows)
        text = buf.getvalue()
    else:
        text = "".join(",".join(row) + "\n" for row in [header] + rows)
    path = tmp_path_factory.mktemp("ingest") / "data.csv"
    path.write_bytes(("\ufeff" if bom else "").encode() + text.encode())
    assert_reads_like_the_reference(path, override)


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 3).flatmap(
           lambda k: st.lists(st.lists(st.one_of(NUMBERISH, NUMBERISH, CELLS),
                                       min_size=k, max_size=k), min_size=1, max_size=9)),
       override=st.none() | st.dictionaries(st.sampled_from("abc"),
                                             st.sampled_from(["numeric", "symbolic"]),
                                             max_size=2))
def test_ingest_matches_the_row_by_row_reader_on_whole_rows(tmp_path_factory, rows, override):
    """As above, on rows as long as the header, so that most files are read
    through and a column may stop being numeric in any chunk."""
    header = list("abc"[:len(rows[0])])
    buf = io.StringIO()
    csv.writer(buf).writerows([header] + rows)
    path = tmp_path_factory.mktemp("ingest") / "data.csv"
    path.write_text(buf.getvalue(), encoding="utf-8")
    # an override of a column that the file lacks would fail every example alike
    assert_reads_like_the_reference(path, override if set(override or ()) <= set(header)
                                    else None)


class TestChunkBoundaries:
    """Faults and column kinds that span the reader's chunks of rows."""

    def test_column_turns_symbolic_in_the_third_chunk(self, tmp_path):
        # x is numeric for two chunks of two rows; y turns in the second chunk
        p = write_csv(tmp_path, "x,y,z\n1,0.5,a\n 2 ,1,b\n3.0,y,a\n4,2,b\nfive,3,a\n1e0,4,b\n")
        want, _ = assert_reads_like_the_reference(p, chunk_sizes=(2,))
        # the earlier chunks are read again as the labels they spell
        assert want.schema[0].domain == (" 2 ", "1", "1e0", "3.0", "4", "five")
        assert want.schema[1].domain == ("0.5", "1", "2", "3", "4", "y")
        assert want.schema[2].domain == ("a", "b")
        with chunk_rows(2):
            assert ingest_csv(p, {"x": "symbolic"}).schema == want.schema

    @pytest.mark.parametrize("rows, message", [
        (["1,2"] * 7 + [",2"] + ["1,2"] * 3, "missing value in row 9, column 'a'"),
        (["1,2"] * 9 + ["1"] + ["1,2", ",2"], "row 11 has 1 cells, expected 2"),
        (["1,2"] * 6 + ["1,2,3", "1,"], "row 8 has 3 cells, expected 2"),
        (["1,2"] * 6 + ["1,", "1,2,3"], "missing value in row 8, column 'b'"),
        (["1,2"] * 6 + ["x,", ""], "missing value in row 8, column 'b'"),
    ])
    def test_ragged_row_and_empty_cell_in_a_later_chunk(self, tmp_path, rows, message):
        p = write_csv(tmp_path, "a,b\n" + "\n".join(rows) + "\n")
        _, error = assert_reads_like_the_reference(p, chunk_sizes=(3, data._CHUNK_ROWS))
        assert error == f"{p}: {message}"

    def test_numeric_override_faults_in_two_columns(self, tmp_path):
        # b's fault comes first in the file; a's is named, as a comes first in the header
        p = write_csv(tmp_path, "a,b,c\n1,2,u\n2,q,v\n3,4,u\n4,5,v\np,6,u\nr,7,v\n")
        override = {"b": "numeric", "a": "numeric"}
        _, error = assert_reads_like_the_reference(p, override, chunk_sizes=(2, 1, data._CHUNK_ROWS))
        assert error == "column 'a' declared numeric but cell 'p' does not parse"
        _, error = assert_reads_like_the_reference(p, {"b": "numeric"}, chunk_sizes=(2,))
        assert error == "column 'b' declared numeric but cell 'q' does not parse"

    @pytest.mark.parametrize("head", ["a,b\n1,2\n1\n", "a,b\n1,2\n,2\n", "a,a\n1,2\n",
                                      "\n1,2\n"])
    @pytest.mark.parametrize("tail", [pytest.param(b"3,4\n\xff\xfe\n", id="decode"),
                                      pytest.param(b'3,"' + b"4" * 200_000 + b'"\n',
                                                   id="field-limit")])
    def test_a_read_fault_later_in_the_file_wins(self, tmp_path, head, tail):
        # 20 kB of rows, so that the text layer decodes the bad bytes well
        # after it has handed out the faulty rows at the head
        p = tmp_path / "data.csv"
        p.write_bytes(head.encode() + b"1,2\n" * 5000 + tail)
        _, error = assert_reads_like_the_reference(p, chunk_sizes=(2, data._CHUNK_ROWS))
        assert error.startswith(f"{p}: not a UTF-8 CSV file (")

    def test_memory_stays_near_the_result(self, tmp_path):
        """The reader holds one chunk of rows as strings plus the typed
        columns: 2.2 times the result on this file, where the row-list
        reader, which held every cell as a string, reached 13.1 times."""
        n = 100_000
        rng = np.random.default_rng(19)
        labels = np.array(["red", "green", "blue", "cyan", "magenta"])
        numbers = rng.standard_normal((n, 4)) * 10.0 ** rng.integers(-3, 4, (n, 4))
        with open(tmp_path / "big.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x0", "x1", "x2", "x3", "s0", "s1"])
            writer.writerows(zip(*[map(repr, col) for col in numbers.T.tolist()],
                                 labels[rng.integers(0, 5, n)], labels[rng.integers(0, 3, n)]))
        tracemalloc.start()
        try:
            ds = ingest_csv(tmp_path / "big.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ds) == n and [v.kind for v in ds.schema].count("symbolic") == 2
        ratio = peak / ds.values.nbytes
        assert ratio <= 3.0, ratio


class TestEmitCsv:
    """The column-wise writer against the per-cell one, byte for byte."""

    LABELS = ("plain", "a,b", 'say "hi"', "two\nlines", " padded ", "", "\u00e9t\u00e9", "x\ry")

    def emitted(self, ds):
        got, want = io.StringIO(), io.StringIO()
        emit_csv(ds, got)
        reference_emit_csv(ds, want)
        return got.getvalue(), want.getvalue()

    def test_awkward_numbers_and_labels(self):
        x = np.array([-0.0, 0.0, 1e-300, 5e-324, 2.2250738585072014e-308 / 3, 3.0, -7.0,
                      1e16, 2.0 ** 53 + 2, 0.1, 1 / 3, -1.5e-7, 1e300, 123456789.0, 1e22, 1e23])
        n = len(x)
        schema = (Variable("x", "numeric"), Variable("c", "symbolic", self.LABELS),
                  Variable("na,me", "numeric"))
        codes = np.arange(n) % len(self.LABELS)
        ds = Dataset(schema, np.column_stack([x, codes, x[::-1]]))
        got, want = self.emitted(ds)
        assert got == want
        assert "-0.0" in got and "5e-324" in got and '"a,b"' in got

    def test_random_dataset_and_a_path(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 500
        schema = (Variable("s", "symbolic", self.LABELS), Variable("x", "numeric"),
                  Variable("w", "numeric"))
        values = np.column_stack([rng.integers(0, len(self.LABELS), n),
                                  rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
                                  np.round(rng.normal(0, 100, n))])
        ds = Dataset(schema, values)
        # a short last chunk, exactly one chunk, and the writer's own size
        for rows_per_chunk in (7, n, data._CHUNK_ROWS):
            with chunk_rows(rows_per_chunk):
                got, want = self.emitted(ds)
                emit_csv(ds, tmp_path / "out.csv")
            assert got == want, rows_per_chunk
            assert (tmp_path / "out.csv").read_bytes() == want.encode(), rows_per_chunk

    def test_no_rows_and_no_columns(self):
        schema = (Variable("x", "numeric"), Variable("c", "symbolic", ("a",)))
        assert len(set(self.emitted(Dataset(schema, np.zeros((0, 2)))))) == 1
        assert len(set(self.emitted(Dataset((), np.zeros((3, 0)))))) == 1
        with chunk_rows(2):
            assert len(set(self.emitted(Dataset((), np.zeros((3, 0)))))) == 1
