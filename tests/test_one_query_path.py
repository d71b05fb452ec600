"""Every posterior query reads the leaf table.

``inference.py`` answers each query from ``model.table``: all leaves at
once, as arrays. A query that reads a leaf's distribution objects, or that
loops over ``model.leaves`` in Python, brings back the per-leaf path that
the table replaced. This test keeps it out by reading the source.
"""

import ast
import pathlib

import pytest

INFERENCE = (pathlib.Path(__file__).resolve().parent.parent
             / "src" / "probtree" / "inference.py")


def per_leaf_reads(source: str) -> list[str]:
    """``what:line`` of every read of a ``.distributions`` attribute and of
    every loop or comprehension whose iterable mentions ``.leaves``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "distributions":
            found.append(f"distributions:{node.lineno}")
        if isinstance(node, (ast.For, ast.comprehension)):
            if any(isinstance(n, ast.Attribute) and n.attr == "leaves"
                   for n in ast.walk(node.iter)):
                found.append(f"leaves:{node.iter.lineno}")
    return found


def test_inference_reads_only_the_leaf_table():
    assert per_leaf_reads(INFERENCE.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source", [
    "def f(model, k):\n    return model.leaves[k].distributions\n",
    "def f(model):\n    for k, leaf in enumerate(model.leaves):\n        pass\n",
    "def f(model):\n    return {leaf.index for leaf in model.leaves}\n",
])
def test_detects_a_per_leaf_read(source):
    assert len(per_leaf_reads(source)) == 1


def test_counting_the_leaves_is_no_loop():
    assert per_leaf_reads("def f(model):\n    return len(model.leaves)\n") == []
