"""``sample`` inverts its uniforms with guide tables (``leaftable.Guide``)
and must draw, bit for bit, what the binary-lifting search drew before, which
``reference_sample`` keeps: the leaf of each row by ``Generator.choice``, then
each variable's quantile or label per block of rows. The stand-in generator
hands out uniforms where a guide could go wrong: on its grid points b/M, on
hinge and plateau values of F, at 0 and at the largest double below 1.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probtree import (Interval, PiecewiseLinearCDF, Variable, ZeroEvidenceError,
                      leaf_posterior, sample)
from probtree import inference
from probtree.leaftable import GUIDE_ENTRIES, Guide, first_at_least
from probtree.multinomial import Multinomial

from conftest import hand_model
from reference_sample import reference_sample
from test_free_columns import merge_model
from test_inference import (REFERENCE_MODELS, evidence_of_each_kind, random_chain_model,
                            uniform_mixture_model)

MODELS = sorted(REFERENCE_MODELS) + ["gen"]


def signed_zero_model():
    """Leaf 0's x has its first hinge at -0.0 with an atom there; leaf 1's
    has an interior hinge at -0.0 that ends a plateau; leaf 2's x rises from
    -1e-308 to -0.0, so that its interpolation at u just below 1 rounds to
    +0.0, which the clamp to the piece's end turns into -0.0:
    ``np.minimum(+0.0, -0.0)`` returns its second argument."""
    x, c = Variable("x", "numeric"), Variable("c", "symbolic", ("a", "b", "z"))
    return hand_model((x, c), ("c", "a", 0, ("c", "b", 1, 2)), [
        (0.4, 1, {"x": PiecewiseLinearCDF([[-0.0, 0.25], [1.0, 1.0]]),
                  "c": Multinomial(c, [1.0, 0.0, 0.0])}),
        (0.4, 1, {"x": PiecewiseLinearCDF([[-1.0, 0.0], [-0.5, 0.5], [-0.0, 0.5], [2.0, 1.0]]),
                  "c": Multinomial(c, [0.0, 1.0, 0.0])}),
        (0.2, 1, {"x": PiecewiseLinearCDF([[-1e-308, 0.0], [-0.0, 1.0]]),
                  "c": Multinomial(c, [0.0, 0.0, 1.0])}),
    ])


def evidence_sets(model):
    """The model's evidence sets: none, one of each kind (an interval and a
    point on a numeric variable, a value set on a symbolic one) and, when it
    has positive probability, all three at once."""
    sets = [None] + [e for _, e in evidence_of_each_kind(np.random.default_rng(3), model)]
    joint = {name: c for e in sets[1:] for name, c in e.items()}
    try:
        leaf_posterior(model, joint)
        sets.append(joint)
    except ZeroEvidenceError:
        pass
    return sets


@functools.cache
def model_and_evidence(name):
    """A model of ``MODELS`` and its evidence sets."""
    model = merge_model(name)
    return model, evidence_sets(model)


def assert_same_draws(model, n, rng, e):
    """``sample`` and the reference from two equal generators ``rng()``:
    the same value bytes, and the same generator state after."""
    got_rng, want_rng = rng(), rng()
    got = sample(model, n, got_rng, e).values
    want = reference_sample(model, n, want_rng, e).values
    assert got.tobytes() == want.tobytes(), (n, e)
    if isinstance(got_rng, np.random.Generator):
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(MODELS + ["random chain"]), depth=st.integers(1, 40),
       which=st.integers(0, 4), seed=st.integers(0, 2 ** 32 - 1),
       n=st.one_of(st.integers(1, 300), st.integers(8185, 8200), st.integers(1, 30_000)))
def test_draws_are_the_reference_draws(name, depth, which, seed, n):
    if name == "random chain":
        model = random_chain_model(np.random.default_rng(seed), depth)
        sets = evidence_sets(model)
    else:
        model, sets = model_and_evidence(name)
    e = sets[which % len(sets)]
    assert_same_draws(model, n, lambda: np.random.default_rng(seed), e)


class Uniforms:
    """A stand-in for ``numpy.random.Generator``: ``random`` hands out the
    values of ``pool`` in a shuffled cycle, and ``choice`` inverts the
    cumulative weights as ``test_leaf_draw_is_the_rule_of_choice`` shows
    ``Generator.choice`` does."""

    def __init__(self, pool, seed):
        self.pool, self.at = np.random.default_rng(seed).permutation(pool), 0

    def random(self, size):
        out = self.pool[(self.at + np.arange(size)) % len(self.pool)]
        self.at += size
        return out

    def choice(self, k, size, p):
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        return cdf.searchsorted(self.random(size), side="right")


def awkward_uniforms(model, e):
    """Every grid point b/M of a guide (M divides ``GUIDE_ENTRIES``), 0, the
    largest double below 1, the cumulative posterior of the leaves, every F
    of the conditioned numeric leaves (hinges and plateaus) and every
    cumulative label mass over its leaf's total, with their neighbours."""
    posterior = leaf_posterior(model, e)
    keep = np.flatnonzero(posterior)
    values = [np.arange(GUIDE_ENTRIES) / GUIDE_ENTRIES, np.cumsum(posterior[keep])]
    for var in model.schema:
        leaves = model.table.column(var.name).conditioned(keep, (e or {}).get(var.name))
        if var.numeric:
            values.append(leaves[2])
        else:
            cum = np.cumsum(leaves, axis=1)
            values.append((cum / cum[:, -1:]).ravel())
    u = np.concatenate(values)
    u = np.concatenate([u, np.nextafter(u, -1.0), np.nextafter(u, 2.0),
                        [0.0, np.nextafter(1.0, 0.0)]])
    return np.unique(u[(u >= 0.0) & (u < 1.0)])


@pytest.mark.parametrize("n", [1, 100, 8193, 50_000])
@pytest.mark.parametrize("name", MODELS)
def test_draws_at_awkward_uniforms(name, n):
    model, sets = model_and_evidence(name)
    for j, e in enumerate(sets):
        pool = awkward_uniforms(model, e)
        assert_same_draws(model, n, lambda: Uniforms(pool, j), e)


@pytest.mark.parametrize("n", [1, 7, 5000])
def test_signed_zeros_one_kept_leaf_and_dirac_leaves(n):
    """A first hinge at -0.0 keeps its sign, above and at its atom; so does
    an interior -0.0 at the end of a plateau. One kept leaf, and leaves that
    are point masses, by evidence or by the model."""
    cases = [(signed_zero_model(), None), (signed_zero_model(), {"c": frozenset({0})}),
             (signed_zero_model(), {"c": frozenset({1})}),
             (signed_zero_model(), {"c": frozenset({2})}),
             (signed_zero_model(), {"x": Interval(-0.0, 0.0)}),
             (uniform_mixture_model(), {"c": frozenset({1})}),
             (merge_model("diracs"), None),
             (merge_model("diracs"), {"x": Interval(1.0, 1.0)})]
    for j, (model, e) in enumerate(cases):
        pool = awkward_uniforms(model, e)
        assert_same_draws(model, n, lambda: Uniforms(pool, j), e)
    # one kept leaf, so the x draws take the same four uniforms: below the
    # atom at -0.0, at 0, at the atom, above it
    drawn = sample(signed_zero_model(), 4, Uniforms([0.1, 0.0, 0.25, 0.5], 0),
                   {"c": frozenset({0})}).column("x")
    assert sorted(np.signbit(drawn).tolist()) == [False, True, True, True]
    assert drawn[~np.signbit(drawn)] == pytest.approx(1 / 3)
    top = [np.nextafter(1.0, 0.0), 1.0 - 2.0 ** -52]
    drawn = sample(signed_zero_model(), 2, Uniforms(top, 0), {"c": frozenset({2})}).column("x")
    assert drawn.tolist() == [0.0, 0.0] and np.signbit(drawn).all()


WEIGHTS = {
    "one leaf": lambda rng: np.ones(1),
    "7000 leaves": lambda rng: rng.random(7000),
    "down to 1e-300": lambda rng: np.exp(-690.0 * rng.random(50)),
    "tiny next to large": lambda rng: np.where(rng.random(40) < 0.5, 1e-300, rng.random(40)),
}


@pytest.mark.parametrize("kind", sorted(WEIGHTS))
def test_leaf_draw_is_the_rule_of_choice(kind):
    """``sample`` draws its leaves as ``Generator.choice(len(w), size=n,
    p=w)`` does: the uniforms, drawn in blocks of 8192, inverted against
    ``cumsum(w) / cumsum(w)[-1]``, searching to the right. If numpy
    changes ``choice``, this test names the cause of changed draws."""
    for seed in range(25):
        rng = np.random.default_rng(seed)
        w = WEIGHTS[kind](rng)
        w = w / w.sum()
        n = int(rng.integers(1, 20_000))
        want_rng, got_rng = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
        want = want_rng.choice(len(w), size=n, p=w)
        cdf = np.cumsum(w)
        cdf /= cdf[-1]
        u = np.concatenate([got_rng.random(min(8192, n - a)) for a in range(0, n, 8192)])
        assert np.array_equal(cdf.searchsorted(u, side="right"), want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        guide = Guide(cdf, np.zeros(1, dtype=np.intp), np.full(1, len(w) - 1), n, strict=True)
        assert np.array_equal(guide.find(0, u), want)


def rising_ranges(rng, count):
    """``count`` ranges of 1 to 40 rising values in [0, 1], with repeats
    (plateaus), some starting above 0, each ending at 1."""
    parts = []
    for _ in range(count):
        v = np.sort(rng.choice(np.arange(9) / 8, int(rng.integers(1, 40))) if rng.random() < 0.5
                    else rng.random(int(rng.integers(1, 40))))
        parts.append(np.append(v, 1.0))
    sizes = np.array([len(p) for p in parts])
    first = np.cumsum(sizes) - sizes
    return np.concatenate(parts), first, first + sizes - 1


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("scaled", [False, True])
@pytest.mark.parametrize("rows", [1, 50, 4000, 100_000])
def test_guide_finds_what_the_search_finds(strict, scaled, rows):
    """At grid points, at random, and where the threshold meets a row of a
    range or its neighbours; only the largest ``rows`` make a guide."""
    rng = np.random.default_rng(rows + 2 * strict + scaled)
    a, first, last = rising_ranges(rng, 60)
    scale = rng.uniform(0.5, 1.0, len(first)) if scaled else np.ones(len(first))
    guide = Guide(a, first, last, rows, scale=scale if scaled else None, strict=strict)
    assert (guide.M > 1) == (rows == 100_000)
    assert guide.M == 1 or len(first) * (guide.M + 1) <= min(rows // 8, GUIDE_ENTRIES)
    owner = np.repeat(np.arange(len(first)), last - first + 1)
    on_rows = a / scale[owner]
    u = np.concatenate([np.arange(GUIDE_ENTRIES) / GUIDE_ENTRIES, rng.random(5000),
                        on_rows, np.nextafter(on_rows, 0.0), np.nextafter(on_rows, 1.0),
                        [0.0, np.nextafter(1.0, 0.0)]])
    k = np.concatenate([rng.integers(0, len(first), GUIDE_ENTRIES + 5000),
                        np.tile(owner, 3), [0, len(first) - 1]])
    k, u = k[u < 1.0], u[u < 1.0]
    t = u * scale[k] if scaled else u
    want = first_at_least(a, first[k], last[k], np.nextafter(t, np.inf) if strict else t)
    assert np.array_equal(guide.find(k, u), want)


def test_guide_sizes_follow_rows_and_leaves(monkeypatch):
    """On the benchmark's 380-leaf model a 100k-row draw guides every
    variable within ``GUIDE_ENTRIES`` entries; a 1000-row draw, with fewer
    rows per leaf, searches each leaf's range whole."""
    built = []

    class Recorded(Guide):
        def __init__(self, a, first, *args, **kw):
            super().__init__(a, first, *args, **kw)
            built.append((len(first), self.M, len(self.table)))

    monkeypatch.setattr(inference, "Guide", Recorded)
    model, sets = model_and_evidence("gen")
    e = sets[3]  # a value set
    sample(model, 100_000, np.random.default_rng(0), e)
    assert len(built) == 1 + len(model.schema)
    assert all(M > 1 and entries <= GUIDE_ENTRIES for _, M, entries in built)
    built.clear()
    sample(model, 1000, np.random.default_rng(0), e)
    assert all(M == 1 for ranges, M, _ in built if ranges > 1)
