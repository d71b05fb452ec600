"""A numeric column without evidence is read straight from the leaf table.

``NumericColumn.conditioned(leaf, None)`` gathers the leaves' stored hinges,
which is what the full crop evaluates them to; ``mode`` gathers each leaf's
steepest point and density, and ``merge_terms`` filters the column's order of
x, both derived once per column. Queries whose evidence leaves a numeric
column free must take these reads and never the crop path, and the merged
marginal must be the one that merging the gathered hinges gives.
"""

import functools
import importlib.util
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probtree import (Dataset, Interval, LearnerConfig, Variable, expectation_query, learn,
                      make_assignment, mpe, posterior_distributions, sample)
from probtree import inference, leaftable
from probtree.inference import _merge_numeric, _mixture
from probtree.leaftable import NumericColumn, steepest

from test_inference import REFERENCE_MODELS

GEN = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"


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
    # merged marginals and modes read no gathered hinges either; sample does
    gathers = Counter()
    monkeypatch.setattr(NumericColumn, "conditioned", gathers.wrap(NumericColumn.conditioned))
    for e in evidence:
        posterior_distributions(model, e)
        mpe(model, e)
        expectation_query(model, target, e)
    assert gathers.calls == 0
    for e in evidence:
        sample(model, 20, np.random.default_rng(0), e)
    assert counter.calls == 0 and gathers.calls > 0
    # the counters count: numeric evidence takes the crop path
    x = model.table.column(target)
    e = {target: Interval(float(x.x[0]), float(x.x[-1]))}
    mpe(model, e)
    assert counter.calls > 0
    gathers.calls = 0
    posterior_distributions(model, e)
    expectation_query(model, target, e)
    assert gathers.calls == 2


@functools.cache
def merge_model(name):
    """A reference model, or ``"gen"``: the 380-leaf model that the
    benchmark's query workloads ask, learnt from 20k rows of its generator."""
    if name != "gen":
        return REFERENCE_MODELS[name]()
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    schema = ([Variable(c, "numeric") for c in gen.NUMERIC]
              + [Variable(c, "symbolic", gen.LABELS) for c in gen.SYMBOLIC])
    data = Dataset(schema, gen.Mixture(1).rows(20_000, 0))
    return learn(data, LearnerConfig(min_samples_leaf=0.002))


def free_merge(column, weight):
    return _mixture(*column.merge_terms(weight))


def assert_same_bits(got, want):
    assert got.x.tobytes() == want.x.tobytes() and got.F.tobytes() == want.F.tobytes()


def kept_weights(rng, n_leaves, fraction, spread):
    """A non-empty random subset of the leaves and positive weights on it,
    which span ``spread`` in the exponent; zero on every other leaf."""
    keep = np.flatnonzero(rng.random(n_leaves) < fraction)
    if not keep.size:
        keep = np.array([int(rng.integers(n_leaves))])
    weight = np.zeros(n_leaves)
    weight[keep] = np.exp(-spread * rng.random(len(keep)))
    return keep, weight


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(REFERENCE_MODELS) + ["gen"]), data=st.data(),
       seed=st.integers(0, 2 ** 32 - 1), fraction=st.floats(0.0, 1.0),
       spread=st.floats(0.0, 700.0))
def test_free_merge_is_the_merge_of_the_gathered_hinges(name, data, seed, fraction, spread):
    model = merge_model(name)
    column = data.draw(st.sampled_from(numeric_columns(model)))
    keep, weight = kept_weights(np.random.default_rng(seed), len(column.first), fraction, spread)
    assert_same_bits(free_merge(column, weight),
                     _merge_numeric(weight[keep], *column.conditioned(keep, None)))


def packed_column(rng, n_leaves, size, span):
    """``n_leaves`` leaf CDFs of ``size`` hinges each, drawn from the
    integers below ``span`` so that leaves share hinges; a leaf's first
    hinge holds an atom half of the time."""
    x = np.concatenate([np.sort(rng.choice(span, size, replace=False))
                        for _ in range(n_leaves)]).astype(float)
    F = np.sort(rng.random((n_leaves, size)), axis=1)
    F[:, -1] = 1.0
    F[rng.random(n_leaves) < 0.5, 0] = 0.0
    first = np.arange(n_leaves) * size
    infinite = np.full(n_leaves, math.inf)
    return NumericColumn("x", x, F.ravel(), first, first + size - 1, (-infinite, infinite))


# grids whose indices take each width of the evidence path's counting sort
@pytest.mark.parametrize("n_leaves, size, span, dtype", [(6, 30, 200, np.uint8),
                                                         (8, 200, 1000, np.uint16),
                                                         (400, 250, 200_000, np.uint32)])
def test_free_merge_on_wide_grids(n_leaves, size, span, dtype):
    rng = np.random.default_rng(size)
    column = packed_column(rng, n_leaves, size, span)
    for fraction in (1.0, 0.9):
        keep, weight = kept_weights(rng, n_leaves, fraction, 5.0)
        got = free_merge(column, weight)
        want = _merge_numeric(weight[keep], *column.conditioned(keep, None))
        assert_same_bits(got, want)
        grid = column.merge_terms(weight)[0]
        assert np.min_scalar_type(len(grid)) == dtype and len(np.unique(got.x)) == len(grid)


def test_signed_zeros_take_the_sign_of_the_first_kept_leaf():
    # leaf 0 holds 0.0, leaf 1 -0.0, and leaf 2 0.0 with an atom on it
    x = np.array([-1.0, 0.0, 1.0, -0.0, 2.0, 0.0, 3.0])
    F = np.array([0.0, 0.5, 1.0, 0.0, 1.0, 0.25, 1.0])
    infinite = np.full(3, math.inf)
    column = NumericColumn("x", x, F, np.array([0, 3, 5]), np.array([2, 4, 6]),
                           (-infinite, infinite))
    for keep, negative in [([0, 1, 2], False), ([1, 2], True), ([0, 1], False), ([1], True),
                           ([2], False)]:
        weight = np.zeros(3)
        weight[keep] = 1.0 / len(keep)
        got = free_merge(column, weight)
        want = _merge_numeric(weight[keep], *column.conditioned(np.array(keep), None))
        assert got.x.tobytes() == want.x.tobytes() and got.F.tobytes() == want.F.tobytes()
        # evidence on x keeps each leaf's hinge at zero, so the merge with
        # evidence takes the same sign
        for given in (Interval(-0.5, 2.5), Interval(-1.0, 3.0), Interval(-2.0, 0.5)):
            merged = _merge_numeric(weight[keep], *column.conditioned(np.array(keep), given))
            for marginal in (got, merged):
                zero = marginal.x[marginal.x == 0.0]
                assert zero.size and np.signbit(zero).tolist() == [negative] * zero.size, keep


@pytest.mark.parametrize("seed", range(5))
def test_signed_zeros_on_wide_grids(seed):
    # 300 leaves of hinges from -3..3 with zeros of either sign: enough
    # hinges that np.unique's quicksort may move a zero of the other sign
    # first; with or without evidence on x the grid keeps the first
    rng = np.random.default_rng(seed)
    x = np.concatenate([np.sort(rng.choice(np.arange(-3.0, 4.0), 3, replace=False))
                        for _ in range(300)])
    x[x == 0.0] *= rng.choice([-1.0, 1.0], np.count_nonzero(x == 0.0))
    F = np.tile([0.0, 0.5, 1.0], 300)
    infinite = np.full(300, math.inf)
    first = np.arange(0, 900, 3)
    column = NumericColumn("x", x, F, first, first + 2, (-infinite, infinite))
    for keep in random_subsets(rng, 300):
        weight = np.zeros(300)
        weight[keep] = rng.uniform(0.5, 1.0, len(keep))
        weight /= weight.sum()
        for given in (None, Interval(-10.0, 10.0), Interval(-0.5, 2.5)):
            owner, hinges, F = column.conditioned(keep, given)
            merged = _merge_numeric(weight[keep], owner, hinges, F)
            first_zero = hinges[hinges == 0.0][:1]
            assert np.signbit(merged.x[merged.x == 0.0]).tolist() == np.signbit(first_zero).tolist()
        assert_same_bits(free_merge(column, weight), _merge_numeric(
            weight[keep], *column.conditioned(keep, None)))


def test_the_order_is_derived_once_and_read_only():
    column = numeric_columns(REFERENCE_MODELS["iris"]())[0]
    weight = np.full(len(column.first), 1.0 / len(column.first))
    column.merge_terms(weight)
    order = column._order
    column.merge_terms(weight)
    assert column._order is order
    for a in order:
        with pytest.raises(ValueError):
            a[0] = 0
