"""Seeded synthetic data: a latent 8-cluster mixture over 4 numeric and 2
symbolic columns (5 labels each).

The generator is the benchmark's own; the program under test only ever sees
the rows it produces (as CSV files or as ``probtree.Dataset`` objects).
"""

from __future__ import annotations

import csv

import numpy as np

NUMERIC = ("x0", "x1", "x2", "x3")
SYMBOLIC = ("s0", "s1")
LABELS = ("a", "b", "c", "d", "e")
COLUMNS = NUMERIC + SYMBOLIC
CLUSTERS = 8


class Mixture:
    """Cluster parameters drawn once from the workload seed."""

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng([seed, 0])
        self.weights = rng.dirichlet(np.full(CLUSTERS, 20.0))
        # every numeric column has the same evenly spaced cluster means and
        # spreads; the seed decides which cluster gets which, so models of
        # different seeds differ in detail but cost about the same to build
        self.means = np.column_stack([rng.permutation(np.linspace(-5.0, 5.0, CLUSTERS))
                                      for _ in NUMERIC])
        self.sds = np.column_stack([rng.permutation(np.linspace(0.6, 1.6, CLUSTERS))
                                    for _ in NUMERIC])
        # every label keeps at least 2% in every cluster, so any sample of a
        # thousand rows or more shows the whole domain
        self.label_p = 0.9 * rng.dirichlet(np.full(len(LABELS), 0.7),
                                           size=(CLUSTERS, len(SYMBOLIC))) + 0.02

    def rows(self, n: int, stream: int) -> np.ndarray:
        """``n`` rows as floats; symbolic cells hold label indices.

        ``stream`` separates independent draws (training set, holdout, ...).
        """
        rng = np.random.default_rng([self.seed, 1, stream])
        z = rng.choice(CLUSTERS, size=n, p=self.weights)
        num = self.means[z] + self.sds[z] * rng.standard_normal((n, len(NUMERIC)))
        sym = np.empty((n, len(SYMBOLIC)))
        u = rng.random((n, len(SYMBOLIC)))
        for j in range(len(SYMBOLIC)):
            cum = np.cumsum(self.label_p[z, j], axis=1)
            sym[:, j] = np.minimum((u[:, j:j + 1] > cum).sum(axis=1), len(LABELS) - 1)
        return np.hstack([num, sym])


def write_csv(rows: np.ndarray, path) -> None:
    """Write rows with the column header; numbers at full precision."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(COLUMNS)
        k = len(NUMERIC)
        for r in rows.tolist():
            w.writerow([repr(v) for v in r[:k]] + [LABELS[int(v)] for v in r[k:]])
