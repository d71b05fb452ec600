import contextlib
import csv
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probtree import (Dataset, LearnerConfig, Variable, ingest_csv, learn, load, log_likelihood,
                      save)
import probtree
from probtree.cli import main
from probtree.data import read_number
from probtree.experiments import run_likelihood_sweep

DATA_DIR = pathlib.Path(__file__).parent / "data"


def error_lines(err: str) -> int:
    return sum("error:" in line for line in err.splitlines())


@pytest.fixture()
def iris_csv(tmp_path):
    dst = tmp_path / "iris.csv"
    shutil.copy(DATA_DIR / "iris.csv", dst)
    return dst


@pytest.fixture()
def trained(iris_csv, tmp_path):
    model = tmp_path / "model.json"
    code = main(["train", "--data", str(iris_csv), "--out", str(model),
                 "--min-samples-leaf", "0.2"])
    assert code == 0
    return model


class TestTrain:
    def test_single_leaf_summary(self, iris_csv, tmp_path, capsys):
        model = tmp_path / "m.json"
        code = main(["train", "--data", str(iris_csv), "--out", str(model),
                     "--min-samples-leaf", "0.9"])
        out = capsys.readouterr().out
        assert code == 0
        assert "leaves: 1" in out
        assert model.exists()

    def test_missing_data_file(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_fraction_flag(self, iris_csv, tmp_path):
        assert main(["train", "--data", str(iris_csv),
                     "--out", str(tmp_path / "m.json"),
                     "--min-samples-leaf", "1.5"]) == 2

    def test_whole_float_min_samples_leaf_is_an_absolute_weight(self, iris_csv, tmp_path):
        model = tmp_path / "m.json"
        assert main(["train", "--data", str(iris_csv), "--out", str(model),
                     "--min-samples-leaf", "2.0"]) == 0
        assert load(model).config.min_samples_leaf == 2.0

    def test_min_samples_leaf_one_point_zero_is_the_whole_weight(self, iris_csv, tmp_path):
        """``1.0`` is the fraction 1 of the training weight, so no split
        leaves both children that much: one leaf."""
        model = tmp_path / "m.json"
        assert main(["train", "--data", str(iris_csv), "--out", str(model),
                     "--min-samples-leaf", "1.0"]) == 0
        assert load(model).config.min_samples_leaf == 1.0
        assert len(load(model).table.prior) == 1

    @pytest.mark.parametrize("value", ["0", "-1", "1.5"])
    def test_min_samples_leaf_that_the_config_rejects_exits_2(self, value, iris_csv,
                                                              tmp_path, capsys):
        assert main(["train", "--data", str(iris_csv), "--out", str(tmp_path / "m.json"),
                     "--min-samples-leaf", value]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "min_samples_leaf" in errors[0], errors
        assert not (tmp_path / "m.json").exists()

    def test_nan_epsilon_exits_2(self, iris_csv, tmp_path, capsys):
        code = main(["train", "--data", str(iris_csv), "--out", str(tmp_path / "m.json"),
                     "--epsilon", "nan"])
        assert code == 2
        assert error_lines(capsys.readouterr().err) == 1
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("flag, value, field", [
        ("--max-depth", "-1", "max_depth"), ("--epsilon", "nan", "epsilon"),
        ("--min-impurity-improvement", "-1", "min_impurity_improvement")])
    def test_flags_are_checked_before_the_data_is_read(self, flag, value, field, tmp_path,
                                                       capsys):
        code = main(["train", "--data", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "m.json"), flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert error_lines(err) == 1 and field in err and "nope.csv" not in err

    def test_repeated_target_exits_2(self, iris_csv, tmp_path, capsys):
        code = main(["train", "--data", str(iris_csv), "--out", str(tmp_path / "m.json"),
                     "--targets", "species,species"])
        assert code == 2
        assert error_lines(capsys.readouterr().err) == 1
        assert not (tmp_path / "m.json").exists()

    def test_tree_deeper_than_the_recursion_limit(self, tmp_path, capsys):
        # each split of x = 1.3**i peels a few of the largest values off
        # the rest, so 1200 one-row leaves hang 244 splits deep
        data = tmp_path / "powers.csv"
        data.write_text("x\n" + "".join(f"{1.3 ** i!r}\n" for i in range(1200)))
        out = tmp_path / "m.json"
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            code = main(["train", "--data", str(data), "--out", str(out),
                         "--min-samples-leaf", "1"])
        finally:
            sys.setrecursionlimit(limit)
        assert code == 0, capsys.readouterr().err
        model = load(out)
        assert len(model.leaves) == 1200
        t, depth, stack = model.tree, 0, [(0, 0)]
        while stack:
            i, d = stack.pop()
            if t.feature[i] >= 0:
                stack += (t.left[i], d + 1), (t.right[i], d + 1)
            depth = max(depth, d)
        assert depth == 244 > 200

    def test_overflowing_column_exits_1(self, tmp_path, capsys):
        data = tmp_path / "big.csv"
        data.write_text("x\n" + "".join(f"{1.3 ** i!r}\n" for i in range(1500)))
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "m.json"),
                     "--min-samples-leaf", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "'x'" in err and "Traceback" not in err
        assert not (tmp_path / "m.json").exists()

    def test_unknown_flag(self):
        assert main(["train", "--nonsense"]) == 2

    def test_deterministic_output(self, iris_csv, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["train", "--data", str(iris_csv), "--out", str(out),
                         "--min-samples-leaf", "0.2"]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestQuery:
    def test_probability(self, trained, capsys):
        code = main(["query", "--model", str(trained),
                     "--q", "species = setosa", "--json"])
        assert code == 0
        p = json.loads(capsys.readouterr().out)["probability"]
        assert p == pytest.approx(1 / 3, abs=1e-9)

    def test_query_equal_to_evidence_is_one(self, trained, capsys):
        code = main(["query", "--model", str(trained),
                     "--q", "petal_length in [1, 3]",
                     "--e", "petal_length in [1, 3]", "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["probability"] == pytest.approx(1.0)

    def test_expectation(self, trained, capsys):
        code = main(["query", "--model", str(trained), "--expect", "petal_length",
                     "--e", "species = setosa", "--json"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["lower"] <= out["mean"] <= out["upper"]
        assert 1.0 < out["mean"] < 2.0  # setosa petals are short

    def test_mpe(self, trained, capsys):
        code = main(["query", "--model", str(trained), "--mpe",
                     "--e", "species = virginica", "--json"])
        assert code == 0
        world = json.loads(capsys.readouterr().out)["world"]
        assert world["species"] == "virginica"

    def test_zero_probability_evidence(self, trained, capsys):
        code = main(["query", "--model", str(trained),
                     "--q", "species = setosa",
                     "--e", "petal_length in [1000, 1001]"])
        assert code == 3
        assert "petal_length" in capsys.readouterr().err

    def test_malformed_assignment(self, trained, capsys):
        code = main(["query", "--model", str(trained), "--q", "species == ??"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_no_query_given(self, trained, capsys):
        assert main(["query", "--model", str(trained)]) == 2

    def test_no_query_given_is_checked_before_the_model_is_read(self, tmp_path, capsys):
        assert main(["query", "--model", str(tmp_path / "missing.json")]) == 2
        assert "one of the arguments --q --expect --mpe is required" in capsys.readouterr().err

    def test_corrupt_model_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["query", "--model", str(bad), "--q", "x = 1"]) == 1


class TestFilesThatAreNotUtf8Json:
    """A model or schema file that is not UTF-8 JSON ends in exit code 1 and
    one error line that names the file."""

    @staticmethod
    def assert_one_error_line(err, path):
        assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err, err

    @pytest.mark.parametrize("command", [["query", "--q", "species = setosa"],
                                         ["sample", "-n", "3"],
                                         ["export", "--dot", "tree.dot"]])
    def test_model_file(self, tmp_path, capsys, command):
        model = tmp_path / "m.json"
        model.write_bytes(b"\xff\xfe{}")
        assert main([command[0], "--model", str(model), *command[1:]]) == 1
        err = capsys.readouterr().err
        self.assert_one_error_line(err, model)
        assert err.startswith("error: file: ")

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"", b"{'x': 'numeric'}",
                                         b'["x", "numeric"]'])
    def test_schema_file(self, iris_csv, tmp_path, capsys, content):
        schema = tmp_path / "s.json"
        schema.write_bytes(content)
        assert main(["train", "--data", str(iris_csv), "--out", str(tmp_path / "m.json"),
                     "--schema", str(schema)]) == 1
        self.assert_one_error_line(capsys.readouterr().err, schema)
        assert not (tmp_path / "m.json").exists()


class TestLikelihood:
    def test_training_data(self, trained, iris_csv, capsys):
        code = main(["likelihood", "--model", str(trained),
                     "--data", str(iris_csv), "--json"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["zero_fraction"] == 0.0
        assert np.isfinite(out["avg_loglik"])


    @pytest.fixture()
    def abc_model(self, tmp_path):
        data = tmp_path / "train.csv"
        rows = ["x,s"] + [f"{i % 7}.{i % 3},{'abc'[i % 3]}" for i in range(60)]
        data.write_text("\n".join(rows) + "\n")
        model = tmp_path / "abc.json"
        assert main(["train", "--data", str(data), "--out", str(model),
                     "--min-samples-leaf", "0.2"]) == 0
        return model

    def test_labels_scored_in_model_domain(self, abc_model, tmp_path, capsys):
        holdout = tmp_path / "bc.csv"  # lacks label a, so its own domain is (b, c)
        holdout.write_text("x,s\n1.1,b\n2.2,c\n4.0,b\n5.0,b\n")
        capsys.readouterr()
        assert main(["likelihood", "--model", str(abc_model),
                     "--data", str(holdout), "--json"]) == 0
        got = json.loads(capsys.readouterr().out)
        model = load(abc_model)
        rows = Dataset(model.schema, [[1.1, 1], [2.2, 2], [4.0, 1], [5.0, 1]])
        assert (got["avg_loglik"], got["zero_fraction"]) == log_likelihood(model, rows)

    def test_unknown_label_exits_1(self, abc_model, tmp_path, capsys):
        holdout = tmp_path / "z.csv"
        holdout.write_text("x,s\n1.1,b\n2.2,z\n")
        assert main(["likelihood", "--model", str(abc_model),
                     "--data", str(holdout)]) == 1
        assert "'z'" in capsys.readouterr().err

    def test_missing_column_exits_1(self, abc_model, tmp_path, capsys):
        holdout = tmp_path / "s_only.csv"
        holdout.write_text("s\nb\n")
        assert main(["likelihood", "--model", str(abc_model),
                     "--data", str(holdout)]) == 1
        assert "'x'" in capsys.readouterr().err


class TestSample:
    def test_csv_reingests(self, trained, tmp_path):
        out = tmp_path / "draws.csv"
        code = main(["sample", "--model", str(trained), "-n", "200",
                     "--seed", "7", "--out", str(out)])
        assert code == 0
        ds = ingest_csv(out)
        assert len(ds) == 200
        assert {v.name for v in ds.schema} == {
            "sepal_length", "sepal_width", "petal_length", "petal_width",
            "species"}

    def test_seed_reproducible(self, trained, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["sample", "--model", str(trained), "-n", "50",
                         "--seed", "3", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_evidence_respected(self, trained, tmp_path):
        out = tmp_path / "draws.csv"
        code = main(["sample", "--model", str(trained), "-n", "100",
                     "--e", "species = setosa", "--out", str(out)])
        assert code == 0
        ds = ingest_csv(out)
        sp = next(v for v in ds.schema if v.name == "species")
        assert sp.domain == ("setosa",)

    def test_nonpositive_count(self, trained):
        assert main(["sample", "--model", str(trained), "-n", "0"]) == 2

    @pytest.mark.parametrize("n", ["9223372036854775807", "1099511627776"])
    def test_a_count_too_large_to_hold_fails_fast(self, trained, n):
        # the child caps its own address space at 2 GiB before it does
        # anything else, so a sample that tried to fill memory fails there
        limit = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
                 "from probtree.cli import main; sys.exit(main(sys.argv[1:]))")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": str(pathlib.Path(probtree.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-c", limit, "sample", "--model", str(trained),
                              "-n", n], env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 1, run.stderr
        assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1, run.stderr
        assert run.stdout == ""

    def test_stdout_quotes_like_the_out_file(self, tmp_path, capsys):
        # labels holding a comma and a quote need CSV quoting on stdout too
        s = Variable("s", "symbolic", ("a,b", 'say "hi"'))
        rng = np.random.default_rng(0)
        data = Dataset((Variable("x", "numeric"), s),
                       np.column_stack([rng.normal(size=100), rng.integers(0, 2, 100)]))
        model = tmp_path / "m.json"
        save(learn(data, LearnerConfig(min_samples_leaf=0.3)), model)
        out = tmp_path / "draws.csv"
        args = ["sample", "--model", str(model), "-n", "50", "--seed", "4"]
        capsys.readouterr()
        assert main(args) == 0
        printed = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert main(args + ["--out", str(out)]) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            written = list(csv.reader(fh))
        assert printed == written
        assert len(printed) == 51 and {len(row) for row in printed} == {2}
        assert {row[1] for row in printed[1:]} == {"a,b", 'say "hi"'}


class TestExport:
    def test_dot_written(self, trained, tmp_path):
        dot = tmp_path / "tree.dot"
        assert main(["export", "--model", str(trained), "--dot", str(dot)]) == 0
        text = dot.read_text()
        assert text.startswith("digraph") and text.rstrip().endswith("}")


class TestEval:
    def test_toy_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["eval", "--experiment", "toy", "--n", "300",
                     "--fractions", "0.5,0.2", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["experiment"] == "toy"
        assert [r["fraction"] for r in report["rows"]] == [0.5, 0.2]

    def test_uci_requires_data(self, capsys):
        assert main(["eval", "--experiment", "uci"]) == 2

    def test_uci_report_is_the_likelihood_sweep(self, iris_csv, tmp_path):
        out = tmp_path / "report.json"
        assert main(["eval", "--experiment", "uci", "--data", str(iris_csv),
                     "--fractions", "0.5,0.2", "--seed", "3", "--out", str(out)]) == 0
        expected = run_likelihood_sweep(ingest_csv(iris_csv), (0.5, 0.2), 3)
        expected["experiment"] = "uci"
        assert out.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    def test_report_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["eval", "--experiment", "regression", "--n", "200",
                         "--fractions", "0.2,0.1", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


# flags that the program cannot use: values that argparse's own types accept,
# query modes given together, and a flag that the command does not take;
# "{data}", "{model}" and "{out}" are filled in per test
BAD_FLAGS = {
    "train-seed": ["train", "--data", "{data}", "--out", "{out}", "--seed", "1"],
    "query-q-and-mpe": ["query", "--model", "{model}", "--q", "species = setosa", "--mpe"],
    "query-q-and-expect": ["query", "--model", "{model}", "--q", "species = setosa",
                           "--expect", "petal_length"],
    "query-expect-and-mpe": ["query", "--model", "{model}", "--expect", "petal_length",
                             "--mpe"],
    "train-min-samples-leaf-huge-int": ["train", "--data", "{data}", "--out", "{out}",
                                        "--min-samples-leaf", "1" + "0" * 400],
    "sample-negative-seed": ["sample", "--model", "{model}", "-n", "5", "--seed", "-1"],
    "sample-seed-not-an-integer": ["sample", "--model", "{model}", "-n", "5", "--seed", "2.5"],
    # rejected before any draw: numpy is never asked for this many values
    "sample-count-beyond-an-index": ["sample", "--model", "{model}", "-n", str(10 ** 30)],
    "sample-count-one-beyond-an-index": ["sample", "--model", "{model}", "-n",
                                         "9223372036854775808"],
    # rejected before the first model of the sweep is trained
    "eval-fractions-nan": ["eval", "--experiment", "toy", "--fractions", "0.2,nan"],
    "eval-fractions-not-numbers": ["eval", "--experiment", "toy", "--n", "100",
                                   "--fractions", "abc"],
    "eval-toy-n-zero": ["eval", "--experiment", "toy", "--n", "0"],
    "eval-toy-n-one": ["eval", "--experiment", "toy", "--n", "1"],
    "eval-regression-n-negative": ["eval", "--experiment", "regression", "--n", "-5"],
    "eval-n-not-a-number": ["eval", "--experiment", "toy", "--n", "ten"],
    "query-confidence-above-one": ["query", "--model", "{model}", "--expect", "petal_length",
                                   "--confidence", "1.5"],
    "query-confidence-negative": ["query", "--model", "{model}", "--expect", "petal_length",
                                  "--confidence=-0.1"],
    "query-confidence-nan": ["query", "--model", "{model}", "--expect", "petal_length",
                             "--confidence", "nan"],
}


class TestFlagErrors:
    @pytest.mark.parametrize("case", sorted(BAD_FLAGS))
    def test_exit_2_with_an_error_line(self, case, trained, iris_csv, tmp_path, capsys):
        out = tmp_path / "out.json"
        argv = [a.format(data=iris_csv, model=trained, out=out) for a in BAD_FLAGS[case]]
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert error_lines(err) == 1
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--help"], ["train", "--help"], ["query", "-h"]])
    def test_help_exits_0(self, argv, capsys):
        assert main(argv) == 0
        assert "usage:" in capsys.readouterr().out


# -- the constraint grammar under fuzzing ---------------------------------------

NUMERIC_NAMES = ("sepal_length", "sepal_width", "petal_length", "petal_width")
NUMBERS = st.one_of(st.floats(-10, 10).map(repr), st.integers(-3, 9).map(str),
                    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e999", "-1e999", "1e-320",
                                     "", "abc", "1.5.2", "0x10", "1_0"]))
LABELS = st.sampled_from(["setosa", "versicolor", "virginica", "Setosa", "tulip", "", " "])
NAMES = st.sampled_from(NUMERIC_NAMES + ("species", "bogus", "", "species species"))
STATEMENTS = st.one_of(
    st.builds("{} = {}".format, NAMES, st.one_of(NUMBERS, LABELS)),
    st.builds("{} in [{}, {}]".format, NAMES, NUMBERS, NUMBERS),
    st.builds("{} in {{{}}}".format, NAMES,
              st.lists(LABELS, min_size=0, max_size=4).map(", ".join)),
    st.builds("{} in [{}, {}".format, NAMES, NUMBERS, NUMBERS),  # unclosed
    st.builds("{} in {{{}".format, NAMES, LABELS),
    st.builds("{} in {}".format, NAMES, NUMBERS),
    st.text(alphabet="xyz=[]{},;. -0123456789in", max_size=20),
)
CONSTRAINTS = st.lists(STATEMENTS, min_size=1, max_size=4).map("; ".join)


@pytest.fixture(scope="module")
def fuzz_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "model.json"
    assert main(["train", "--data", str(DATA_DIR / "iris.csv"), "--out", str(path),
                 "--min-samples-leaf", "0.1"]) == 0
    return path


@settings(max_examples=300, deadline=None)
@example(mode="--q", q="sepal_length = 1_0", e=None, target="species")
@example(mode="--mpe", q="species = setosa", e="petal_length in [1_0, 2_0]", target="species")
@given(mode=st.sampled_from(["--q", "--mpe", "--expect"]), q=CONSTRAINTS,
       e=st.one_of(st.none(), CONSTRAINTS), target=st.sampled_from(NUMERIC_NAMES + ("species",)))
def test_query_constraints_never_end_in_a_traceback(fuzz_model, mode, q, e, target):
    argv = ["query", "--model", str(fuzz_model), "--json"]
    argv += {"--q": [f"--q={q}"], "--mpe": ["--mpe"], "--expect": ["--expect", target]}[mode]
    if e is not None:
        argv.append(f"--e={e}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == ""), (argv, err.getvalue())
    if code == 0:
        json.loads(out.getvalue())
    # 1_0 is no number (float() reads it as 10), nor a label of the model
    if any("1_0" in text for text in ([q] if mode == "--q" else []) + [e or ""]):
        assert code == 1 and err.getvalue().startswith("error: "), (argv, err.getvalue())


# -- CSV ingest under fuzzing ---------------------------------------------------

CELLS = st.one_of(st.floats(-1e3, 1e3).map(repr), st.integers(-3, 3).map(str),
                  st.sampled_from(["nan", "-inf", "inf", "1e999", "NaN", "x", "y", "", " ",
                                   " 1 ", "1,5", '"', '""', "a\nb", "\x00", "\ufeff", "1_0"]),
                  st.text(max_size=4))
HEADER = st.lists(st.sampled_from(["a", "b", "c", "", " a", "a"]), max_size=4)
ROWS = st.lists(st.lists(CELLS, max_size=4), max_size=8)


def csv_text(header, rows, quoted: bool) -> str:
    """``header`` and ``rows`` as CSV, each cell quoted as needed or
    written raw, so that a quote or comma in a cell can break the row."""
    if not quoted:
        return "".join(",".join(row) + "\n" for row in [header] + rows)
    buf = io.StringIO()
    csv.writer(buf).writerows([header] + rows)
    return buf.getvalue()


@pytest.fixture(scope="module")
def csv_model(tmp_path_factory):
    """A model over a numeric column a and a symbolic column b."""
    folder = tmp_path_factory.mktemp("csv")
    data = folder / "train.csv"
    data.write_text("a,b\n" + "".join(f"{i / 3!r},{'xy'[i % 2]}\n" for i in range(12)))
    assert main(["train", "--data", str(data), "--out", str(folder / "model.json"),
                 "--min-samples-leaf", "3"]) == 0
    return folder / "model.json"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@example(header=["a", "b"], rows=[["1_0", "x"], ["2", "y"]], quoted=False, tail=b"")
@given(header=HEADER, rows=ROWS, quoted=st.booleans(),
       tail=st.sampled_from([b"", b"\xff", b"\xc3"]))
def test_csv_ingest_never_ends_in_a_traceback(csv_model, tmp_path_factory, header, rows,
                                              quoted, tail):
    """``train`` and ``likelihood`` exit 0, or 1 with an error line, on any
    file; a byte-order mark in front changes nothing."""
    folder = tmp_path_factory.mktemp("fuzz")
    body = csv_text(header, rows, quoted).encode() + tail
    results = []
    for prefix in (b"", "\ufeff".encode()):
        data = folder / "data.csv"
        data.write_bytes(prefix + body)
        for argv in (["train", "--data", str(data), "--out", str(folder / "m.json"),
                      "--min-samples-leaf", "1"],
                     ["likelihood", "--model", str(csv_model), "--data", str(data), "--json"]):
            code, out, err = run_cli(argv)
            assert code in (0, 1), (argv, err)
            assert (code == 0) == (err == "") and "Traceback" not in err, (argv, err)
            assert code == 0 or err.startswith("error: "), err
            results.append((code, out))
    assert results[:2] == results[2:]
    # a column with a 1_0 cell is symbolic (float() reads it as 10), and
    # a 1_0 cell under the model's numeric column a cannot be read
    if results[0][0] == 0 or results[1][0] == 0:
        read = list(csv.reader(io.StringIO(body.decode("utf-8-sig"), newline="")))
    if results[0][0] == 0:
        for var, cells in zip(load(folder / "m.json").schema, zip(*read[1:])):
            assert var.symbolic or not any("_" in c for c in cells), (var, cells)
    if results[1][0] == 0:
        assert not any("_" in row[0] for row in read[1:]), read


# -- flag values under fuzzing --------------------------------------------------

# each command with a file that does not exist, and every flag of it that
# takes a value other than a path or an experiment name; query gets a mode
# and sample a count unless the flag under test is one
VALUE_FLAGS = [("train", f) for f in ("--min-samples-leaf", "--min-impurity-improvement",
                                      "--epsilon", "--targets", "--max-depth")]
VALUE_FLAGS += [("query", f) for f in ("--q", "--expect", "--e", "--confidence")]
VALUE_FLAGS += [("sample", f) for f in ("-n", "--e", "--seed")]
VALUE_FLAGS += [("eval", f) for f in ("--seed", "--n", "--fractions")]
FLAG_TEXTS = st.one_of(
    st.sampled_from(["nan", "inf", "1e999", "1_0", "-1", "0", "2.5", "", " 1 ", "True",
                     str(10 ** 30), "10**30", "1", "2", "0.5", "2.0", "0.2,nan", "species"]),
    st.text(max_size=8))


@pytest.fixture(scope="module")
def nowhere(tmp_path_factory):
    """A folder that holds no file."""
    return tmp_path_factory.mktemp("nowhere")


def command_with_a_missing_file(command: str, flag: str, folder) -> tuple[list, str]:
    missing = str(folder / ("missing.json" if command in ("query", "sample") else "missing.csv"))
    argv = {"train": ["train", "--data", missing, "--out", str(folder / "m.json")],
            "query": ["query", "--model", missing] + ([] if flag in ("--q", "--expect")
                                                      else ["--mpe"]),
            "sample": ["sample", "--model", missing] + ([] if flag == "-n" else ["-n", "5"]),
            "eval": ["eval", "--experiment", "uci", "--data", missing]}[command]
    return argv, missing


@settings(max_examples=300, deadline=None)
@example(flag=("train", "--epsilon"), text="nan")
@example(flag=("train", "--epsilon"), text="1_0")
@example(flag=("train", "--max-depth"), text="1_0")
@example(flag=("train", "--max-depth"), text="-1")
@example(flag=("train", "--min-impurity-improvement"), text="-1")
@example(flag=("train", "--targets"), text="species,species")
@example(flag=("train", "--min-samples-leaf"), text="1.5")
@example(flag=("sample", "-n"), text="1_0")
@example(flag=("sample", "-n"), text="0")
@example(flag=("sample", "-n"), text="9223372036854775808")
@example(flag=("sample", "--seed"), text="-1")
@example(flag=("eval", "--fractions"), text="0.2,nan")
@given(flag=st.sampled_from(VALUE_FLAGS), text=FLAG_TEXTS)
def test_flag_values_are_checked_before_any_file_is_read(nowhere, flag, text):
    """A flag value is rejected with exit 2 and one error line before the
    missing file is opened, or accepted, and then the missing file ends the
    run with exit 1."""
    argv, missing = command_with_a_missing_file(*flag, nowhere)
    code, out, err = run_cli(argv + [f"{flag[1]}={text}"])
    assert "Traceback" not in err and out == "", (flag, text, err)
    assert code in (1, 2), (flag, text, err)
    assert error_lines(err) == 1, (flag, text, err)
    assert (missing in err) == (code == 1), (flag, text, err)
    # a number flag takes only what a CSV cell or a constraint bound reads
    # as a number, so nan, inf and 1_0 are none
    parts = text.split(",") if flag[1] == "--fractions" else [text]
    if flag[1] not in ("--targets", "--q", "--expect", "--e"):
        assert code == 2 or all(read_number(p) is not None for p in parts), (flag, text)
