import contextlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probtree import (Dirac, LearnerConfig, ModelFormatError, PiecewiseLinearCDF,
                      cli, dumps, event_probability, export_dot, learn, leaf_posterior, load,
                      loads, make_assignment, posterior_distributions, save)

from conftest import assert_regions_match_the_walk, reference_paths


class TestRoundTrip:
    def test_structure_preserved(self, iris_model):
        back = loads(dumps(iris_model))
        assert back.schema == iris_model.schema
        assert back.config == iris_model.config
        assert len(back.leaves) == len(iris_model.leaves)
        for a, b in zip(back.leaves, iris_model.leaves):
            assert a.prior == b.prior
            assert a.sample_count == b.sample_count
            assert a.distributions == b.distributions

    def test_paths_recomputed(self, iris_model):
        back = loads(dumps(iris_model))
        assert reference_paths(back) == reference_paths(iris_model)
        assert_regions_match_the_walk(back)

    def test_query_replay(self, iris_model, toy_hybrid_model):
        for model in (iris_model, toy_hybrid_model):
            back = loads(dumps(model))
            numeric = next(v for v in model.schema if v.numeric)
            symbolic = next(v for v in model.schema if v.symbolic)
            e = make_assignment(model.schema, {numeric.name: (0.0, 6.0)})
            assert np.allclose(leaf_posterior(back, e), leaf_posterior(model, e))
            q = make_assignment(model.schema, {symbolic.name: [symbolic.domain[0]]})
            assert event_probability(back, q, e) == pytest.approx(
                event_probability(model, q, e), abs=1e-15)

    def test_file_round_trip(self, iris_model, tmp_path):
        p = tmp_path / "model.json"
        save(iris_model, p)
        back = load(p)
        assert dumps(back) == dumps(iris_model)

    def test_serialization_deterministic(self, iris):
        a = learn(iris, LearnerConfig(min_samples_leaf=0.2))
        b = learn(iris, LearnerConfig(min_samples_leaf=0.2))
        assert dumps(a) == dumps(b)

    def test_double_round_trip_identical(self, toy_hybrid_model):
        text = dumps(toy_hybrid_model)
        assert dumps(loads(text)) == text


class TestFormatErrors:
    def test_not_json(self):
        with pytest.raises(ModelFormatError, match="document"):
            loads("{truncated")

    def test_wrong_version(self, iris_model):
        obj = json.loads(dumps(iris_model))
        obj["version"] = 999
        with pytest.raises(ModelFormatError, match="version"):
            loads(json.dumps(obj))

    def test_broken_schema_named(self, iris_model):
        obj = json.loads(dumps(iris_model))
        obj["schema"][0]["kind"] = "imaginary"
        with pytest.raises(ModelFormatError, match="schema"):
            loads(json.dumps(obj))

    def test_broken_config_named(self, iris_model):
        obj = json.loads(dumps(iris_model))
        obj["config"]["min_samples_leaf"] = -3
        with pytest.raises(ModelFormatError, match="config"):
            loads(json.dumps(obj))

    def test_priors_must_sum_to_one(self, iris_model):
        obj = json.loads(dumps(iris_model))
        obj["leaves"][0]["prior"] *= 0.9
        with pytest.raises(ModelFormatError, match="priors"):
            loads(json.dumps(obj))

    def test_missing_distribution_named(self, iris_model):
        obj = json.loads(dumps(iris_model))
        del obj["leaves"][0]["distributions"]["species"]
        with pytest.raises(ModelFormatError, match="species"):
            loads(json.dumps(obj))

    def test_node_out_of_range(self, iris_model):
        obj = json.loads(dumps(iris_model))
        obj["nodes"][0]["left"] = 10_000
        with pytest.raises(ModelFormatError, match="nodes"):
            loads(json.dumps(obj))

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(ModelFormatError, match="file"):
            load(tmp_path / "missing.json")

    def test_leaf_referenced_twice(self, iris_model):
        obj = json.loads(dumps(iris_model))
        refs = [n for n in obj["nodes"] if "leaf" in n]
        if len(refs) < 2:
            pytest.skip("tree too small")
        refs[1]["leaf"] = refs[0]["leaf"]
        with pytest.raises(ModelFormatError):
            loads(json.dumps(obj))


class TestDot:
    def test_minimal_grammar(self, iris_model):
        """Every statement is a node definition or an edge between
        defined node ids, wrapped in a digraph block."""
        text = export_dot(iris_model)
        lines = [l.strip() for l in text.splitlines() if l.strip()]
        assert lines[0].startswith("digraph")
        assert lines[-1] == "}"
        node_re = re.compile(r'^(\w+) \[label="(?:[^"\\]|\\.)*"(, shape=\w+)?\];$')
        edge_re = re.compile(r'^(\w+) -> (\w+) \[label="(?:[^"\\]|\\.)*"\];$')
        attr_re = re.compile(r"^(graph|node|edge) \[\w+=\w+\];$")
        declared, edges = set(), []
        for line in lines[1:-1]:
            if attr_re.match(line):
                continue
            m = node_re.match(line)
            if m:
                declared.add(m.group(1))
                continue
            m = edge_re.match(line)
            assert m, f"unparseable statement: {line!r}"
            edges.append((m.group(1), m.group(2)))
        for a, b in edges:
            assert a in declared and b in declared
        # a binary tree over L leaves has L-1 internal nodes, 2(L-1) edges
        n_leaves = len(iris_model.leaves)
        assert len(declared) == 2 * n_leaves - 1
        assert len(edges) == 2 * (n_leaves - 1)

    def test_leaf_labels_mention_priors(self, toy_hybrid_model):
        text = export_dot(toy_hybrid_model)
        for leaf in toy_hybrid_model.leaves:
            assert f"prior {leaf.prior:.4g}" in text

    def test_criterion_labels_present(self, iris_model):
        text = export_dot(iris_model)
        splits = np.flatnonzero(iris_model.tree.feature >= 0)
        assert splits.size
        for i in splits:
            assert f'"{iris_model.criterion(i).label()}"' in text


def small_model_doc():
    """s = a ? leaf 0 : (x <= 5 ? leaf 1 : leaf 2), as a model document."""
    def leaf(prior, x):
        return {"prior": prior, "sample_count": 4 * prior,
                "distributions": {"x": {"dirac": x},
                                  "s": {"domain": ["a", "b", "c"], "p": [0.2, 0.3, 0.5]}}}

    return {
        "version": 1,
        "schema": [{"name": "x", "kind": "numeric"},
                   {"name": "s", "kind": "symbolic", "domain": ["a", "b", "c"]}],
        "config": LearnerConfig().to_json(),
        "nodes": [{"type": "split", "var": "s", "op": "eq", "value": "a", "left": 1, "right": 2},
                  {"type": "leaf", "leaf": 0},
                  {"type": "split", "var": "x", "op": "le", "value": 5.0, "left": 3, "right": 4},
                  {"type": "leaf", "leaf": 1},
                  {"type": "leaf", "leaf": 2}],
        "leaves": [leaf(0.5, 1.0), leaf(0.25, 2.0), leaf(0.25, 6.0)],
    }


def deep_chain_doc(depth=1200):
    """x <= depth ? (x <= depth - 1 ? (...) : leaf) : leaf, ``depth`` splits
    deep: deeper than the default recursion limit."""
    doc = small_model_doc()
    leaf = doc["leaves"][0]
    doc["leaves"] = [{**leaf, "prior": 1 / (depth + 1)} for _ in range(depth + 1)]
    doc["nodes"] = []
    for i in range(depth):
        doc["nodes"] += [{"type": "split", "var": "x", "op": "le", "value": depth - i,
                          "left": 2 * i + 2, "right": 2 * i + 1},
                         {"type": "leaf", "leaf": i}]
    doc["nodes"].append({"type": "leaf", "leaf": depth})
    return doc


def _nested_threshold(doc):
    # x <= 7 below x <= 5: its right child is (7, 5], an empty region
    doc["nodes"][3] = {"type": "split", "var": "x", "op": "le", "value": 7.0,
                       "left": 5, "right": 6}
    doc["nodes"] += [{"type": "leaf", "leaf": 1}, {"type": "leaf", "leaf": 3}]
    doc["leaves"][1]["prior"] = 0.125
    doc["leaves"].append(dict(doc["leaves"][1]))


MALFORMED = {
    "self-loop": lambda d: d["nodes"][2].update(left=2),
    "cycle-to-root": lambda d: d["nodes"][2].update(right=0),
    "distributions-list": lambda d: d["leaves"][0].update(distributions=[]),
    "nan-prior": lambda d: d["leaves"][0].update(prior=float("nan")),
    "inf-sample-count": lambda d: d["leaves"][0].update(sample_count=float("inf")),
    "zero-sample-count": lambda d: d["leaves"][0].update(sample_count=0),
    "nan-threshold": lambda d: d["nodes"][2].update(value=float("nan")),
    "version-true": lambda d: d.update(version=True),
    "duplicate-schema-name": lambda d: d["schema"].append({"name": "x", "kind": "numeric"}),
    # leaf -3 aliases leaf 0, so leaf 0 is reached twice and leaf 1 never
    "negative-leaf-index": lambda d: d["nodes"][3].update(leaf=-3),
    "nested-threshold-empty-region": _nested_threshold,
    # s = a below the branch where s != a: the left child is empty
    "excluded-value-empty-region": lambda d: d["nodes"][2].update(op="eq", var="s", value="a"),
    # an entry that the root does not reach would be lost by dumps
    "unreached-leaf-entry": lambda d: d["nodes"].append({"type": "leaf", "leaf": 0}),
    "unreached-split-entry": lambda d: d["nodes"].append(
        {"type": "split", "var": "x", "op": "le", "value": 3.0, "left": 3, "right": 4}),
    "nan-config": lambda d: d["config"].update(epsilon=float("nan"),
                                               min_impurity_improvement=float("nan")),
    "dirac-and-hinges": lambda d: d["leaves"][0]["distributions"]["x"].update(
        hinges=[[0, 0.5], [1, 1]]),
    "dirac-string": lambda d: d["leaves"][0]["distributions"].update(x={"dirac": "1.5"}),
    "hinge-strings": lambda d: d["leaves"][0]["distributions"].update(
        x={"hinges": [["0", 0.5], ["1", 1]]}),
    # a repeated x is a step, which only merged marginals have
    "repeated-hinge": lambda d: d["leaves"][0]["distributions"].update(
        x={"hinges": [[0, 0.5], [1, 0.7], [1, 0.8], [2, 1]]}),
    "ragged-hinge": lambda d: d["leaves"][1]["distributions"].update(
        x={"hinges": [[0, 0.5], [1]]}),
    # a string must not be read as a list of characters
    "hinges-string": lambda d: d["leaves"][0]["distributions"].update(x={"hinges": "zzz"}),
    "hinges-empty": lambda d: d["leaves"][2]["distributions"].update(x={"hinges": []}),
    "dirac-list": lambda d: d["leaves"][1]["distributions"].update(x={"dirac": [1, 2]}),
    "p-wrong-length": lambda d: d["leaves"][2]["distributions"]["s"].update(p=[0.5, 0.5]),
    "nan-probability": lambda d: d["leaves"][1]["distributions"]["s"].update(
        p=[float("nan"), 0.5, 0.5]),
    # tuple("abc") would equal the domain ("a", "b", "c")
    "domain-string": lambda d: d["leaves"][1]["distributions"]["s"].update(domain="abc"),
}


def _single_leaf(doc):
    doc["nodes"] = [{"type": "leaf", "leaf": 0}]
    doc["leaves"] = doc["leaves"][:1]
    return doc


def _number_labels(doc):
    # labels are strings; the numbers 0, 1, 2 would be written back as numbers
    doc["schema"][1]["domain"] = [0, 1, 2]
    for leaf in doc["leaves"]:
        leaf["distributions"]["s"]["domain"] = [0, 1, 2]
    doc["nodes"][0]["value"] = 0


# each of these documents holds a non-number where a number belongs, or a
# non-list or non-string where a list of strings belongs
MALFORMED.update({
    "prior-string": lambda d: d["leaves"][0].update(prior="0.5"),
    "prior-true": lambda d: _single_leaf(d)["leaves"][0].update(prior=True),
    "prior-huge-int": lambda d: d["leaves"][0].update(prior=10 ** 400),
    "sample-count-true": lambda d: d["leaves"][0].update(sample_count=True),
    "sample-count-string": lambda d: d["leaves"][0].update(sample_count="2"),
    "p-strings": lambda d: d["leaves"][1]["distributions"]["s"].update(p=["0.2", "0.3", "0.5"]),
    "p-booleans": lambda d: d["leaves"][1]["distributions"]["s"].update(p=[True, False, False]),
    "dirac-true": lambda d: d["leaves"][0]["distributions"].update(x={"dirac": True}),
    "hinges-booleans": lambda d: d["leaves"][0]["distributions"].update(
        x={"hinges": [[True, True]]}),
    "threshold-string": lambda d: d["nodes"][2].update(value="5"),
    "threshold-true": lambda d: d["nodes"][2].update(value=True),
    "threshold-huge-int": lambda d: d["nodes"][2].update(value=10 ** 400),
    "epsilon-true": lambda d: d["config"].update(epsilon=True),
    "min-impurity-improvement-true": lambda d: d["config"].update(min_impurity_improvement=True),
    "max-depth-true": lambda d: d["config"].update(max_depth=True),
    "max-depth-float": lambda d: d["config"].update(max_depth=1.5),
    "min-samples-leaf-huge-int": lambda d: d["config"].update(min_samples_leaf=10 ** 400),
    # a string must not be read as its characters
    "targets-string": lambda d: d["config"].update(targets="xs"),
    "targets-numbers": lambda d: d["config"].update(targets=[1]),
    "targets-repeated": lambda d: d["config"].update(targets=["s", "s"]),
    "config-list": lambda d: d.update(config=[]),
    "schema-domain-string": lambda d: d["schema"][1].update(domain="abc"),
    "domain-numbers": _number_labels,
})


def _locations(node, prefix=()):
    """The path of every value inside a JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _locations(value, prefix + (key,))


MUTATIONS = {
    "drop": None,
    "nan": lambda v: float("nan"),
    "string": lambda v: "zzz",
    "empty-list": lambda v: [],
    # on a hinge list this repeats the first hinge: a step no leaf may have
    "repeat-first": lambda v: v[:1] + v if isinstance(v, list) else v,
    "true": lambda v: True,
    "numeric-string": lambda v: "0.5",
    "huge-int": lambda v: 10 ** 400,
}


class TestMalformedModels:
    def test_base_document_loads(self):
        model = loads(json.dumps(small_model_doc()))
        assert len(model.leaves) == 3

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_rejected(self, case):
        doc = small_model_doc()
        MALFORMED[case](doc)
        with pytest.raises(ModelFormatError):
            loads(json.dumps(doc))

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_cli_exits_1_with_an_error_line(self, case, tmp_path, capsys):
        doc = small_model_doc()
        MALFORMED[case](doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["query", "--model", str(path), "--q", "s = a"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_errors_name_the_leaf_and_variable(self):
        doc = small_model_doc()
        doc["leaves"][2]["distributions"]["x"] = {"hinges": [[5.5, 0.2], [6, 0.1], [7, 1]]}
        with pytest.raises(ModelFormatError, match=r"^leaves\[2\]\.x: hinge F values"):
            loads(json.dumps(doc))
        doc = small_model_doc()
        doc["leaves"][1]["distributions"]["s"]["p"] = [0.2, 0.3, 0.6]
        with pytest.raises(ModelFormatError, match=r"^leaves\[1\]\.s: probabilities"):
            loads(json.dumps(doc))

    def test_loaded_distributions_are_read_only_views(self):
        doc = small_model_doc()
        hinges = [[5.5, 0.2], [6, 0.5], [7, 1]]
        doc["leaves"][2]["distributions"]["x"] = {"hinges": hinges}
        leaves = loads(json.dumps(doc)).leaves
        assert leaves[2].distributions["x"] == PiecewiseLinearCDF(hinges)
        assert leaves[0].distributions["x"] == PiecewiseLinearCDF([[1.0, 1.0]])
        for leaf in leaves:
            x, s = leaf.distributions["x"], leaf.distributions["s"]
            for arr in (x.x, x.F, s.p):
                with pytest.raises(ValueError):
                    arr[0] = 0.5
        assert leaves[2].distributions["x"].cdf_left(6.0) == 0.5

    def test_one_hinge_loads_as_the_point_mass(self):
        doc = small_model_doc()
        doc["leaves"][0]["distributions"]["x"] = {"hinges": [[1.0, 1]]}
        model = loads(json.dumps(doc))
        assert model.leaves[0].distributions["x"] == Dirac(1.0)
        assert dumps(model) == dumps(loads(json.dumps(small_model_doc())))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_documents_raise_only_model_format_error(self, tmp_path_factory, data):
        doc = small_model_doc()
        doc["leaves"][2]["distributions"]["x"] = {"hinges": [[5.5, 0.2], [6, 0.5], [7, 1]]}
        for _ in range(data.draw(st.integers(1, 3))):
            path = data.draw(st.sampled_from(list(_locations(doc))))
            name = data.draw(st.sampled_from(sorted(MUTATIONS)))
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if MUTATIONS[name] is None:
                del parent[path[-1]]
            else:
                parent[path[-1]] = MUTATIONS[name](parent[path[-1]])
        text = json.dumps(doc)
        try:
            loads(text)
            loaded = True
        except ModelFormatError:
            loaded = False
        # the same document through the CLI boundary, in process
        path = tmp_path_factory.mktemp("mutated") / "model.json"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["query", "--model", str(path), "--q", "s = a"])
        assert code in (0, 1)
        assert loaded or code == 1
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert err.getvalue().startswith("error: ")

    def test_cli_exits_1_without_traceback(self, tmp_path):
        doc = small_model_doc()
        MALFORMED["self-loop"](doc)
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(doc))
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "probtree.cli", "query", "--model", str(path),
             "--q", "s = a"], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr


class TestDeepChain:
    """A 1200-deep chain: every model path walks it without recursion."""

    def test_round_trips(self):
        assert sys.getrecursionlimit() < 1200
        model = loads(json.dumps(deep_chain_doc()))
        text = dumps(model)
        again = loads(text)
        assert dumps(again) == text
        paths = reference_paths(model)
        assert reference_paths(again) == paths
        # the shallowest leaf is the right child of the root, the deepest two
        # lie below all 1200 splits
        assert paths[0]["x"] == (1200, math.inf)
        assert paths[1200]["x"] == (-math.inf, 1)
        lines = export_dot(again).splitlines()
        assert sum(" -> " in line for line in lines) == 2400
        assert sum("[label=" in line and " -> " not in line for line in lines) == 2401

    def test_regions_match_the_walk(self):
        assert_regions_match_the_walk(loads(json.dumps(deep_chain_doc())))

    def test_cli_commands(self, tmp_path, capsys):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(deep_chain_doc()))
        assert cli.main(["query", "--model", str(path), "--q", "s = a",
                         "--e", "x in [0, 600]"]) == 0
        assert capsys.readouterr().out.startswith("P(q | e) = 0.2")
        dot = tmp_path / "chain.dot"
        assert cli.main(["export", "--model", str(path), "--dot", str(dot)]) == 0
        assert dot.read_text().count(" -> ") == 2400
        assert cli.main(["sample", "--model", str(path), "-n", "5"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 6
