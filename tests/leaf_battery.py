"""The leaf battery: a fixed set of models, each printed as its name, the
sha256 of its ``dumps`` document and the sha256 of its ``export_dot`` text.

A change that must keep every model's leaves runs this script at the parent
commit and with the change, and diffs the two outputs:

    PYTHONPATH=src python tests/leaf_battery.py > battery.txt

It is a script, not a collected test: its 46 models take about ten seconds
to learn on a 2-core Xeon, and its output only means something next to
another commit's.
"""

from __future__ import annotations

import hashlib
import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from gen import LABELS, NUMERIC, SYMBOLIC, Mixture  # noqa: E402
from probtree import (Dataset, LearnerConfig, Variable, dumps, export_dot,  # noqa: E402
                      ingest_csv, learn)


def toy_hybrid() -> Dataset:
    """The ``toy_hybrid`` fixture of ``tests/conftest.py``."""
    rng = np.random.default_rng(42)
    n = 200
    label = rng.integers(0, 2, n)
    x = np.where(label == 0, rng.normal(0.0, 1.0, n), rng.normal(6.0, 1.0, n))
    schema = (Variable("x", "numeric"), Variable("color", "symbolic", ("blue", "red")))
    return Dataset(schema, np.column_stack([x, label.astype(float)]))


def random_hybrid(seed: int) -> Dataset:
    """A weighted set of 1-3 numeric columns with ties and 1-3 symbolic
    columns of 1-9 labels that follow the first numeric column."""
    rng = np.random.default_rng([seed, 26])
    n = int(rng.integers(50, 600))
    schema, cols = [], []
    for j in range(int(rng.integers(1, 4))):
        schema.append(Variable(f"x{j}", "numeric"))
        cols.append(np.round(rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 3), n), 1))
    for j in range(int(rng.integers(1, 4))):
        k = int(rng.integers(1, 10))
        schema.append(Variable(f"s{j}", "symbolic", tuple(f"v{i}" for i in range(k))))
        noisy = cols[0] + rng.normal(0.0, 2.0, n)
        cols.append(np.clip(np.floor((noisy - noisy.min()) / np.ptp(noisy) * k), 0, k - 1))
    return Dataset(tuple(schema), np.column_stack(cols), rng.uniform(0.1, 3.0, n))


def benchmark_rows(seed: int, n: int) -> Dataset:
    schema = tuple([Variable(name, "numeric") for name in NUMERIC]
                   + [Variable(name, "symbolic", LABELS) for name in SYMBOLIC])
    return Dataset(schema, Mixture(seed).rows(n, 0))


def models():
    """``(name, model)`` for each model of the battery, in a fixed order."""
    iris = ingest_csv(ROOT / "tests" / "data" / "iris.csv")
    for m in (0.9, 0.4, 0.2, 0.1, 0.05, 0.02, 2):
        yield f"iris {m}", learn(iris, LearnerConfig(min_samples_leaf=m))
    yield "iris species", learn(iris, LearnerConfig(min_samples_leaf=0.05, targets=("species",)))
    hybrid = toy_hybrid()
    for m in (0.25, 0.02):
        yield f"toy_hybrid {m}", learn(hybrid, LearnerConfig(min_samples_leaf=m))
    for seed in range(30):
        m = (0.05, 0.02, 3)[seed % 3]
        yield f"random hybrid {seed} {m}", learn(random_hybrid(seed),
                                                 LearnerConfig(min_samples_leaf=m))
    for seed in (1, 2, 3):
        for n, m in ((20_000, 0.002), (50_000, 0.01)):
            yield f"gen {seed} {n} {m}", learn(benchmark_rows(seed, n),
                                               LearnerConfig(min_samples_leaf=m))


def main() -> None:
    for name, model in models():
        digests = (hashlib.sha256(text.encode()).hexdigest()
                   for text in (dumps(model), export_dot(model)))
        print(name, *digests, flush=True)


if __name__ == "__main__":
    main()
