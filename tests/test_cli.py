import json
import pathlib
import shutil

import numpy as np
import pytest

from probtree import Dataset, ingest_csv, load, log_likelihood
from probtree.cli import main

DATA_DIR = pathlib.Path(__file__).parent / "data"


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
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", str(iris_csv),
                  "--out", str(tmp_path / "m.json"),
                  "--min-samples-leaf", "1.5"])
        assert exc.value.code == 2

    def test_nan_epsilon_exits_1(self, iris_csv, tmp_path, capsys):
        code = main(["train", "--data", str(iris_csv), "--out", str(tmp_path / "m.json"),
                     "--epsilon", "nan"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "m.json").exists()

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
        with pytest.raises(SystemExit) as exc:
            main(["train", "--nonsense"])
        assert exc.value.code == 2

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

    def test_corrupt_model_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["query", "--model", str(bad), "--q", "x = 1"]) == 1


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

    def test_report_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["eval", "--experiment", "regression", "--n", "200",
                         "--fractions", "0.2,0.1", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
