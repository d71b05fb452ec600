"""A numeric column without evidence is read straight from the leaf table.

``NumericColumn.conditioned(leaf, None)`` gathers the leaves' stored hinges,
which is what the full crop evaluates them to, and ``mode`` gathers each
leaf's steepest point and density, derived once per column. Queries whose
evidence leaves a numeric column free must take these reads and never the
crop path.
"""

import math

import numpy as np
import pytest

from probtree import (Interval, expectation_query, make_assignment, mpe,
                      posterior_distributions, sample)
from probtree import inference, leaftable
from probtree.leaftable import NumericColumn, steepest

from test_inference import REFERENCE_MODELS


def numeric_columns(model):
    return [model.table.column(var.name) for var in model.schema if var.numeric]


def full_crop(column, leaf):
    """Each leaf's CDF cropped to its own support, evaluated here: the crop's
    hinges are the leaf's first hinge, the ones inside and (last, 1), and
    ``np.interp`` evaluates it at every hinge."""
    owner, x, F = [], [], []
    for i, k in enumerate(leaf):
        xs = column.x[column.first[k]:column.last[k] + 1]
        Fs = np.concatenate([column.F[column.first[k]:column.last[k]], [1.0]])
        owner += [i] * len(xs)
        x.append(xs)
        F.append(np.interp(xs, xs, Fs))
    return np.array(owner, dtype=np.intp), np.concatenate(x), np.concatenate(F)


def random_subsets(rng, n_leaves, count=20):
    """All leaves, then non-empty random subsets, as a query keeps them."""
    yield np.arange(n_leaves)
    for _ in range(count):
        keep = np.flatnonzero(rng.random(n_leaves) < rng.random())
        yield keep if keep.size else np.array([int(rng.integers(n_leaves))])


@pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
def test_free_column_is_the_full_crop(name):
    model = REFERENCE_MODELS[name]()
    rng = np.random.default_rng(len(name))
    everything = Interval(-math.inf, math.inf)
    for column in numeric_columns(model):
        for keep in random_subsets(rng, len(model.table.prior)):
            got = column.conditioned(keep, None)
            for want in (full_crop(column, keep), column.conditioned(keep, everything)):
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (column.name, keep)


def test_the_battery_has_point_masses():
    model = REFERENCE_MODELS["diracs"]()
    column = model.table.column("x")
    assert np.count_nonzero(column.first == column.last) == 2


@pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
def test_mode_is_the_steepest_piece_of_the_free_column(name):
    model = REFERENCE_MODELS[name]()
    rng = np.random.default_rng(len(name) + 1)
    for column in numeric_columns(model):
        for keep in random_subsets(rng, len(model.table.prior)):
            got, want = column.mode(keep), steepest(*column.conditioned(keep, None))
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes(), (column.name, keep)
        point, density = column.modes
        with pytest.raises(ValueError):
            point[0] = 0.0
        with pytest.raises(ValueError):
            density[0] = 0.0


class Counter:
    def __init__(self):
        self.calls = 0

    def wrap(self, f):
        def counted(*args, **kwargs):
            self.calls += 1
            return f(*args, **kwargs)
        return counted


@pytest.mark.parametrize("name", ["iris", "thresholds", "diracs"])
def test_free_columns_take_no_crop(name, monkeypatch):
    model = REFERENCE_MODELS[name]()
    mpe(model)  # derives the modes
    counter = Counter()
    for owner, attr in [(NumericColumn, "cdf"), (NumericColumn, "crop"),
                        (leaftable, "steepest"), (inference, "steepest")]:
        monkeypatch.setattr(owner, attr, counter.wrap(getattr(owner, attr)))
    symbolic = [var for var in model.schema if var.symbolic]
    evidence = [None, {}] + [make_assignment(model.schema, {var.name: var.domain[:1]})
                             for var in symbolic]
    target = next(var.name for var in model.schema if var.numeric)
    for e in evidence:
        posterior_distributions(model, e)
        mpe(model, e)
        expectation_query(model, target, e)
        sample(model, 20, np.random.default_rng(0), e)
    assert counter.calls == 0
    # the counters count: numeric evidence takes the crop path
    x = model.table.column(target)
    mpe(model, {target: Interval(float(x.x[0]), float(x.x[-1]))})
    assert counter.calls > 0
