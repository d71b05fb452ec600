import json
import math
import pathlib

import numpy as np
import pytest

from probtree import Dataset, LearnerConfig, Variable, ingest_csv, learn, loads

DATA_DIR = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def iris():
    return ingest_csv(DATA_DIR / "iris.csv")


@pytest.fixture(scope="session")
def iris_model(iris):
    return learn(iris, LearnerConfig(min_samples_leaf=0.2))


@pytest.fixture(scope="session")
def toy_hybrid():
    """Small mixed dataset: one numeric, one symbolic column."""
    rng = np.random.default_rng(42)
    n = 200
    label = rng.integers(0, 2, n)
    x = np.where(label == 0, rng.normal(0.0, 1.0, n), rng.normal(6.0, 1.0, n))
    color = Variable("color", "symbolic", ("blue", "red"))
    schema = (Variable("x", "numeric"), color)
    return Dataset(schema, np.column_stack([x, label.astype(float)]))


@pytest.fixture(scope="session")
def toy_hybrid_model(toy_hybrid):
    return learn(toy_hybrid, LearnerConfig(min_samples_leaf=0.25))


def random_discrete_dataset(rng, max_vars=4, max_domain=4, max_rows=200):
    nvar = int(rng.integers(2, max_vars + 1))
    doms = [int(rng.integers(2, max_domain + 1)) for _ in range(nvar)]
    schema = tuple(
        Variable(f"v{j}", "symbolic", tuple(f"c{i}" for i in range(doms[j])))
        for j in range(nvar))
    n = int(rng.integers(10, max_rows + 1))
    values = np.column_stack(
        [rng.integers(0, doms[j], n).astype(float) for j in range(nvar)])
    return Dataset(schema, values)


def random_plf(rng, max_hinges=12, zero_start=True):
    """Random valid piecewise-linear CDF (plateaus allowed)."""
    k = int(rng.integers(2, max_hinges + 1))
    x = np.sort(rng.uniform(-10, 10, k))
    while np.any(np.diff(x) <= 1e-9):
        x = np.sort(rng.uniform(-10, 10, k))
    steps = rng.random(k - 1)
    if k > 2 and rng.random() < 0.3:
        steps[rng.integers(0, k - 1)] = 0.0  # force a plateau
    F = np.concatenate(([0.0], np.cumsum(steps)))
    if F[-1] == 0:
        F[-1] = 1.0
    F = F / F[-1]
    if not zero_start:
        F = 0.1 + 0.9 * F
    F[-1] = 1.0
    from probtree import PiecewiseLinearCDF
    return PiecewiseLinearCDF(np.column_stack([x, F]))


def hand_model(schema, tree, leaves, config=None):
    """A hand-made model, written as a model document and loaded with
    ``loads``. ``tree`` is a leaf index or ``(name, value, left, right)``, a
    split on variable ``name`` at a threshold (numeric) or a label
    (symbolic); its nodes are numbered in preorder, left child first, as
    ``learn`` numbers them. ``leaves`` holds ``(prior, sample_count,
    distributions)`` by leaf index, with distribution objects."""
    numeric = {var.name: var.numeric for var in schema}
    nodes, stack = [], [(tree, None)]  # (item, (parent entry, side) or None)
    while stack:
        item, slot = stack.pop()
        if slot is not None:
            slot[0][slot[1]] = len(nodes)
        if isinstance(item, int):
            nodes.append({"type": "leaf", "leaf": item})
            continue
        name, value, left, right = item
        nodes.append({"type": "split", "var": name, "op": "le" if numeric[name] else "eq",
                      "value": value})
        stack += (right, (nodes[-1], "right")), (left, (nodes[-1], "left"))
    doc = {"version": 1, "schema": [var.to_json() for var in schema],
           "config": (config or LearnerConfig()).to_json(), "nodes": nodes,
           "leaves": [{"prior": prior, "sample_count": count,
                       "distributions": {name: d.to_json() for name, d in dists.items()}}
                      for prior, count, dists in leaves]}
    return loads(json.dumps(doc))


def reference_paths(model) -> list[dict]:
    """Each leaf's path by leaf index: the regions that the splits above it
    leave, narrowed down from the root of ``model.tree`` one split at a
    time. A numeric region is a pair ``(lo, hi)`` of the x with
    ``lo < x <= hi``, a symbolic one a frozenset of value indices. Only the
    variables that some split above the leaf tests appear. It is the rule
    that ``model.table.regions`` must match, worked out apart from it."""
    t, schema = model.tree, model.schema
    out, stack = [None] * len(model.table.prior), [(0, {})]
    while stack:
        i, path = stack.pop()
        if t.feature[i] < 0:
            out[int(t.leaf[i])] = path
            continue
        var, v = schema[int(t.feature[i])], float(t.value[i])
        if var.numeric:
            lo, hi = path.get(var.name, (-math.inf, math.inf))
            left, right = (lo, min(hi, v)), (max(lo, v), hi)
        else:
            prev = path.get(var.name, frozenset(range(len(var.domain))))
            left = prev & frozenset([int(v)])
            right = prev - left
        stack += ((int(t.right[i]), {**path, var.name: right}),
                  (int(t.left[i]), {**path, var.name: left}))
    return out


def assert_regions_match_the_walk(model):
    """``model.table.regions`` at row k equals leaf k's path of
    ``reference_paths``, where a variable no split above the leaf tests has
    the whole line or every value."""
    paths = reference_paths(model)
    for var in model.schema:
        region = model.table.regions[var.name]
        if var.numeric:
            got = list(zip(*(a.tolist() for a in region)))
            want = [path.get(var.name, (-math.inf, math.inf)) for path in paths]
        else:
            every = frozenset(range(len(var.domain)))
            got = [frozenset(np.flatnonzero(row).tolist()) for row in region]
            want = [path.get(var.name, every) for path in paths]
        assert got == want, var.name


def accepts_row(path, schema, row) -> bool:
    """Whether ``row`` meets every constraint of a leaf's ``path`` from
    ``reference_paths``: the partition oracle, independent of the node
    arrays' routing and of the leaf table."""
    for name, constraint in path.items():
        j = next(i for i, v in enumerate(schema) if v.name == name)
        if isinstance(constraint, tuple):
            lo, hi = constraint
            if not lo < float(row[j]) <= hi:
                return False
        elif int(row[j]) not in constraint:
            return False
    return True
