import pathlib

import numpy as np
import pytest

from probtree import Dataset, Interval, LearnerConfig, Variable, ingest_csv, learn

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


def accepts_row(leaf, schema, row) -> bool:
    """Whether ``row`` meets every constraint of the leaf's path: the
    partition oracle, independent of the node arrays that route rows."""
    for name, constraint in leaf.path.items():
        j = next(i for i, v in enumerate(schema) if v.name == name)
        if isinstance(constraint, Interval):
            if not constraint.contains(float(row[j])):
                return False
        elif int(row[j]) not in constraint:
            return False
    return True
