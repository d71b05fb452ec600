import numpy as np
import pytest

from probtree import (AssignmentError, DataError, Dataset, Interval, Variable,
                      emit_csv, ingest_csv, make_assignment, parse_assignment)


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


class TestInterval:
    def test_intersection_open_bounds(self):
        path = Interval(2.0, np.inf, lower_open=True, upper_open=True)
        assert path.intersect(Interval(0.0, 2.0)).empty
        assert not path.intersect(Interval(0.0, 2.1)).empty

    def test_contains_boundaries(self):
        iv = Interval(0.0, 1.0, lower_open=True)
        assert not iv.contains(0.0)
        assert iv.contains(1.0)
