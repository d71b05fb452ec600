"""A model is node arrays and one packed leaf store.

``model_io.loads`` fills the tree's arrays and the leaf table straight from
the document: it builds no leaf, path interval or distribution object, and
the leaf table reads no leaf object. ``model.leaves`` and their
distributions are views built when first read. These tests keep it that
way, by construction counts, by what a loaded model holds, and by reading
the source. They also check the leaf table's path regions against the
reference walk of ``conftest.reference_paths``.
"""

import ast
import gc
import pathlib
import types

import pytest

from probtree import (Interval, Leaf, LearnerConfig, Multinomial, PiecewiseLinearCDF, dumps,
                      learn, loads)

from conftest import assert_regions_match_the_walk, reference_paths
from test_inference import REFERENCE_MODELS

LEAFTABLE = (pathlib.Path(__file__).resolve().parent.parent
             / "src" / "probtree" / "leaftable.py")
OBJECTS = (Leaf, Interval, PiecewiseLinearCDF, Multinomial)


def held_objects(root) -> list[str]:
    """The names of the OBJECTS classes of everything reachable from
    ``root`` through instance data, not through classes or modules."""
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, OBJECTS):
            found.append(type(obj).__name__)
        stack.extend(gc.get_referents(obj))
    return found


def test_loads_builds_no_tree_leaf_or_distribution_objects(iris, monkeypatch):
    text = dumps(learn(iris, LearnerConfig(min_samples_leaf=0.05)))
    built = []
    for cls in OBJECTS:
        def counting(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            built.append(_cls.__name__)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    model = loads(text)
    assert built == []
    assert held_objects(model) == []
    monkeypatch.undo()
    assert len(model.leaves) == 15 and model.tree.feature[0] >= 0


def test_dumps_writes_from_the_store(iris):
    text = dumps(learn(iris, LearnerConfig(min_samples_leaf=0.05)))
    model = loads(text)
    assert dumps(model) == text
    assert held_objects(model) == []  # no leaf or tree views were built


def attribute_reads(source: str, names) -> list[str]:
    """``name:line`` of every read of an attribute called one of ``names``."""
    return [f"{node.attr}:{node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in names]


def test_leaf_table_reads_no_leaf_objects():
    source = LEAFTABLE.read_text(encoding="utf-8")
    assert attribute_reads(source, {"distributions", "path"}) == []


def test_detects_a_leaf_object_read():
    assert attribute_reads("def f(leaf):\n    return leaf.path, leaf.distributions\n",
                           {"distributions", "path"}) == ["path:2", "distributions:2"]


@pytest.mark.parametrize("fraction", [0.2, 0.05, 0.01])
def test_loaded_leaves_equal_the_learnt_ones(iris, fraction):
    model = learn(iris, LearnerConfig(min_samples_leaf=fraction))
    loaded = loads(dumps(model))
    assert len(loaded.leaves) == len(model.leaves) > 1
    assert_regions_match_the_walk(model)
    assert_regions_match_the_walk(loaded)
    assert reference_paths(loaded) == reference_paths(model)
    for a, b in zip(loaded.leaves, model.leaves):
        assert a.index == b.index
        assert a.distributions == b.distributions
        assert (a.prior, a.sample_count) == (b.prior, b.sample_count)


@pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
def test_reference_model_regions_match_the_walk(name):
    assert_regions_match_the_walk(REFERENCE_MODELS[name]())
