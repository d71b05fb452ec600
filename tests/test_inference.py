import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probtree import (AssignmentError, DataError, Dataset, Dirac, DistributionError, Interval,
                      LearnerConfig, Multinomial, PiecewiseLinearCDF, TreeModel, Variable,
                      ZeroEvidenceError, event_probability, expectation_query,
                      ingest_csv, leaf_posterior, learn, log_likelihood,
                      make_assignment, mpe, posterior_distributions, sample)
from probtree.inference import MAX_SAMPLE_COUNT, _merge_numeric
from probtree.leaftable import LeafTable

from conftest import hand_model, reference_paths


def uniform_mixture_model():
    """Two equally weighted leaves: x uniform on [0,1] and on [1,2]."""
    c = Variable("c", "symbolic", ("a", "b"))
    schema = (Variable("x", "numeric"), c)
    return hand_model(schema, ("c", "a", 0, 1), [
        (0.5, 2, {"x": PiecewiseLinearCDF([[0, 0], [1, 1]]), "c": Multinomial(c, [1.0, 0.0])}),
        (0.5, 2, {"x": PiecewiseLinearCDF([[1, 0], [2, 1]]), "c": Multinomial(c, [0.0, 1.0])}),
    ])

def dirac_model():
    """x <= 1.5 ? (c = a ? leaf 0 : leaf 1) : leaf 2, with priors 1/4, 1/4,
    1/2. Leaves 0 and 1 hold x = Dirac(1) and c certain to be a and b;
    leaf 2 holds x uniform on [2, 4] and c uniform."""
    x, c = Variable("x", "numeric"), Variable("c", "symbolic", ("a", "b"))
    return hand_model((x, c), ("x", 1.5, ("c", "a", 0, 1), 2), [
        (0.25, 1, {"x": Dirac(1.0), "c": Multinomial(c, [1.0, 0.0])}),
        (0.25, 1, {"x": Dirac(1.0), "c": Multinomial(c, [0.0, 1.0])}),
        (0.5, 2, {"x": PiecewiseLinearCDF([[2, 0], [4, 1]]), "c": Multinomial(c, [0.5, 0.5])}),
    ])


class TestDiracLeaves:
    """Evidence on a numeric variable whose leaves are point masses."""

    def test_point_evidence_at_the_dirac(self):
        model = dirac_model()
        e = make_assignment(model.schema, {"x": 1.0})
        for prune in (True, False):
            assert leaf_posterior(model, e, prune=prune).tolist() == [0.5, 0.5, 0.0]
        assert event_probability(model, {"c": frozenset({0})}, e) == 0.5
        assert event_probability(model, {"x": Interval(0.5, 2.0)}, e) == 1.0
        post = posterior_distributions(model, e)
        # every surviving component is the same Dirac
        assert post["x"] == Dirac(1.0)
        assert post["c"].p.tolist() == [0.5, 0.5]
        assert expectation_query(model, "x", e) == (1.0, 1.0, 1.0)
        # leaves 0 and 1 tie at 0.5; the lower index wins
        assert mpe(model, e) == ({"x": 1.0, "c": "a"}, 0.5)
        out = sample(model, 2000, np.random.default_rng(0), e)
        assert np.all(out.column("x") == 1.0)
        assert abs(np.mean(out.column("c") == 0) - 0.5) < 5 * math.sqrt(0.25 / 2000)

    def test_interval_containing_the_dirac(self):
        model = dirac_model()
        e = make_assignment(model.schema, {"x": (0.5, 3.0)})
        # factors 1, 1 and P(2 <= x <= 3 | leaf 2) = 1/2 give equal weights
        assert leaf_posterior(model, e) == pytest.approx([1 / 3] * 3, abs=1e-15)
        assert event_probability(model, {"x": Interval(0.0, 2.0)}, e) == pytest.approx(2 / 3)
        assert event_probability(model, {"c": frozenset({0})}, e) == pytest.approx(1 / 2)
        post = posterior_distributions(model, e)
        # the Dirac mass at the first hinge stays there: a plateau up to 2
        assert post["x"].x.tolist() == [1.0, 2.0, 3.0]
        assert post["x"].F == pytest.approx([2 / 3, 2 / 3, 1.0])
        assert post["c"].p == pytest.approx([0.5, 0.5])
        mean, lo, hi = expectation_query(model, "x", e)
        assert mean == pytest.approx(1 / 3 + 1 / 3 + 2.5 / 3)
        assert lo <= mean <= hi
        # leaf 2 scores 1/3 * slope 1 * 1/2 against 1/3 for the Dirac leaves
        world, score = mpe(model, e)
        assert world == {"x": 1.0, "c": "a"} and score == pytest.approx(1 / 3)
        x = sample(model, 3000, np.random.default_rng(1), e).column("x")
        assert np.all((x == 1.0) | ((x >= 2.0) & (x <= 3.0)))
        assert abs(np.mean(x == 1.0) - 2 / 3) < 5 * math.sqrt(2 / 9 / 3000)

    def test_interval_excluding_the_dirac(self):
        model = dirac_model()
        # overlaps the Dirac leaves' path x <= 1.5, so only the factor is 0
        e = make_assignment(model.schema, {"x": (1.2, 3.0)})
        for prune in (True, False):
            assert leaf_posterior(model, e, prune=prune).tolist() == [0.0, 0.0, 1.0]
        assert event_probability(model, {"c": frozenset({0})}, e) == 0.5
        assert event_probability(model, {"x": Interval(0.0, 1.9)}, e) == 0.0
        post = posterior_distributions(model, e)
        assert post["x"] == PiecewiseLinearCDF([[2, 0], [3, 1]])
        assert expectation_query(model, "x", e)[0] == 2.5
        assert mpe(model, e) == ({"x": 2.5, "c": "a"}, 0.5)
        x = sample(model, 500, np.random.default_rng(2), e).column("x")
        assert np.all((x >= 2.0) & (x <= 3.0))

    def test_nan_bounds_rejected(self):
        model = dirac_model()
        for iv in (Interval(math.nan, 3.0), Interval(0.0, math.nan)):
            with pytest.raises(AssignmentError, match="'x'"):
                leaf_posterior(model, {"x": iv})
            with pytest.raises(AssignmentError, match="'x'"):
                event_probability(model, {"x": iv})
            with pytest.raises(AssignmentError, match="'x'"):
                event_probability(model, {"c": frozenset({0})}, {"x": iv})

    def test_interval_excluding_every_leaf(self):
        model = dirac_model()
        e = make_assignment(model.schema, {"x": (0.0, 0.5)})
        for query in (lambda: leaf_posterior(model, e),
                      lambda: posterior_distributions(model, e),
                      lambda: mpe(model, e)):
            with pytest.raises(ZeroEvidenceError):
                query()


from conftest import DATA_DIR, random_discrete_dataset, random_plf


# -- malformed constraints: each is an AssignmentError, never another exception --

REAL = st.one_of(st.floats(allow_nan=False), st.integers(-5, 5))
INVERTED = st.lists(REAL, min_size=2, max_size=2, unique=True).map(
    lambda b: sorted(b, reverse=True))
# neither a real number nor a string that make_assignment reads as a finite one
NOT_A_NUMBER = st.one_of(st.sampled_from(["", "abc", "1_0", "nan", "-inf", "0x1"]),
                         st.booleans(), st.none(), st.binary(max_size=2),
                         st.just(math.nan), st.just(10 ** 400))


def bad_intervals(bound):
    return st.one_of(st.builds(Interval, bound, st.one_of(REAL, bound)),
                     st.builds(Interval, REAL, bound),
                     INVERTED.map(lambda b: Interval(*b)))


# raw constraints on x (numeric) and c (symbolic, two values), as the
# queries take them: an Interval of real numbers, a set of value indices
RAW_X = st.one_of(bad_intervals(st.one_of(NOT_A_NUMBER, st.text(max_size=3))),
                  REAL, st.text(max_size=2), st.none(), INVERTED.map(tuple),
                  st.just(frozenset({0})))
NOT_AN_INDEX = st.one_of(st.text(max_size=2), st.floats(), st.booleans(), st.none(),
                         st.binary(max_size=2), st.integers(max_value=-1),
                         st.integers(min_value=2), st.just(10 ** 30))
RAW_C = st.one_of(
    # the bad item first, so that True or 1.0 is not merged into an equal 1
    st.builds(lambda bad, good, kind: kind([bad]) | kind(good), NOT_AN_INDEX,
              st.sets(st.integers(0, 1)), st.sampled_from([set, frozenset])),
    st.sampled_from([frozenset(), set(), (0,), [1], "a", 0, None, b"a", Interval(0.0, 1.0)]))

# user-level values as make_assignment takes them
USER_X = st.one_of(NOT_A_NUMBER, st.just(math.inf), bad_intervals(NOT_A_NUMBER),
                   INVERTED.map(tuple), INVERTED,
                   st.lists(REAL, max_size=4).filter(lambda b: len(b) != 2).map(tuple),
                   st.tuples(NOT_A_NUMBER, REAL), st.just(frozenset({0})))
NOT_A_LABEL = st.one_of(st.integers(), st.floats(), st.booleans(), st.none(),
                        st.binary(max_size=2), st.builds(Interval, REAL, REAL),
                        st.text(max_size=2).filter(lambda t: t not in ("a", "b")))
USER_C = st.one_of(NOT_A_LABEL, st.just([]),
                   st.builds(lambda good, bad: [*good, bad],
                             st.lists(st.sampled_from(["a", "b"]), max_size=2), NOT_A_LABEL))


def with_a_good_constraint(name, bad, good, where):
    """``{name: bad}`` alone (``where`` 0), or next to the good constraint
    on the other variable, after it (1) or before it (2)."""
    other = "c" if name == "x" else "x"
    return [{name: bad}, {name: bad, other: good[other]}, {other: good[other], name: bad}][where]


# sample counts that are not integers from 1 to the largest index
BAD_N = st.one_of(st.integers(max_value=0), st.integers(min_value=MAX_SAMPLE_COUNT + 1),
                  st.booleans(), st.none(), st.text(max_size=2), st.floats(),
                  st.sampled_from([np.int64(0), np.float64(3.0), 2.5, [3], b"3",
                                   np.uint64(2 ** 64 - 1)]))
# assignments that are not mappings, of names to good constraints or not
NOT_A_MAPPING = st.one_of(
    st.lists(st.sampled_from([("x", Interval(0.0, 1.0)), ("x", 1), ("c", frozenset({0})),
                              ("c", "a")]), max_size=2),
    st.lists(st.sampled_from(["x", "c"]), max_size=2).map(tuple),
    st.sets(st.sampled_from(["x", "c"])), st.text(max_size=2), st.integers(),
    st.booleans(), st.just(Interval(0.0, 1.0)))
# confidence levels that are not real numbers
NOT_A_LEVEL = st.one_of(st.text(max_size=3), st.none(), st.booleans(), st.binary(max_size=2),
                        st.sampled_from([[0.5], (0.5,), complex(0.5), {0.5: 1}]))


GOOD_RAW = {"x": Interval(0.0, 2.0), "c": frozenset({0, 1})}
GOOD_USER = {"x": (0.0, 2.0), "c": ["a", "b"]}
WHERE = st.integers(0, 2)


class TestMalformedConstraints:
    @settings(max_examples=400, deadline=None)
    @given(bad=st.one_of(st.tuples(st.just("x"), RAW_X), st.tuples(st.just("c"), RAW_C)),
           where=WHERE)
    @example(bad=("c", {"a"}), where=0)
    @example(bad=("c", {1.0}), where=0)
    @example(bad=("c", {1.5}), where=0)
    @example(bad=("c", {True}), where=0)
    @example(bad=("x", Interval("0", "1")), where=0)
    @example(bad=("x", Interval(None, None)), where=0)
    def test_queries(self, bad, where):
        model = uniform_mixture_model()
        a = with_a_good_constraint(*bad, GOOD_RAW, where)
        for query in (lambda: leaf_posterior(model, a),
                      lambda: leaf_posterior(model, a, False),
                      lambda: event_probability(model, a),
                      lambda: event_probability(model, {"c": frozenset({0})}, a),
                      lambda: posterior_distributions(model, a),
                      lambda: expectation_query(model, "x", a),
                      lambda: mpe(model, a),
                      lambda: sample(model, 5, np.random.default_rng(0), a)):
            with pytest.raises(AssignmentError, match=f"'{bad[0]}'"):
                query()

    @settings(max_examples=400, deadline=None)
    @given(bad=st.one_of(st.tuples(st.just("x"), USER_X), st.tuples(st.just("c"), USER_C)),
           where=WHERE)
    @example(bad=("c", None), where=0)
    @example(bad=("c", 5), where=0)
    @example(bad=("c", b"a"), where=0)
    def test_make_assignment(self, bad, where):
        model = uniform_mixture_model()
        with pytest.raises(AssignmentError, match=f"'{bad[0]}'"):
            make_assignment(model.schema, with_a_good_constraint(*bad, GOOD_USER, where))


class TestMalformedArguments:
    """A bad sample count, an assignment that is not a mapping and a
    confidence level that is not a real number each raise only their own
    typed error, before any work."""

    @settings(max_examples=300, deadline=None)
    @given(bad=st.one_of(st.tuples(st.just("n"), BAD_N),
                         st.tuples(st.just("assignment"), NOT_A_MAPPING),
                         st.tuples(st.just("theta"), NOT_A_LEVEL)))
    @example(bad=("n", 2.5))
    @example(bad=("n", "3"))
    @example(bad=("n", True))
    @example(bad=("n", 2 ** 63))
    @example(bad=("n", 10 ** 30))
    @example(bad=("assignment", [("x", Interval(0.0, 1.0))]))
    @example(bad=("theta", "0.9"))
    def test_typed_errors(self, bad):
        model = uniform_mixture_model()
        kind, value = bad
        if kind == "n":
            error, calls = AssignmentError, [
                lambda: sample(model, value, np.random.default_rng(0)),
                lambda: sample(model, value, np.random.default_rng(0), {"c": frozenset({0})})]
        elif kind == "assignment":
            error, calls = AssignmentError, [
                lambda: leaf_posterior(model, value),
                lambda: event_probability(model, value),
                lambda: event_probability(model, {"c": frozenset({0})}, value),
                lambda: posterior_distributions(model, value),
                lambda: expectation_query(model, "x", value),
                lambda: mpe(model, value),
                lambda: sample(model, 5, np.random.default_rng(0), value),
                lambda: make_assignment(model.schema, value)]
        else:
            error, calls = DistributionError, [
                lambda: expectation_query(model, "x", theta=value),
                lambda: expectation_query(model, "x", {"x": Interval(0.5, 1.5)}, value),
                lambda: PiecewiseLinearCDF([[0, 0], [1, 1]]).confidence_interval(value)]
        for call in calls:
            with pytest.raises(error) as raised:
                call()
            assert type(raised.value) is error

    def test_numpy_integers_and_levels_are_accepted(self):
        model = uniform_mixture_model()
        assert len(sample(model, np.int64(3), np.random.default_rng(0))) == 3
        assert (expectation_query(model, "x", theta=np.float64(0.5))
                == expectation_query(model, "x", theta=0.5))
        assert expectation_query(model, "x", theta=1) == expectation_query(model, "x", theta=1.0)


def brute_force_event(model, q, e):
    """Enumerate all symbolic worlds and sum leaf-mixture mass."""
    doms = [range(len(v.domain)) for v in model.schema]

    def world_mass(world):
        total = 0.0
        for leaf in model.leaves:
            p = leaf.prior
            for var, idx in zip(model.schema, world):
                p *= leaf.distributions[var.name].p[idx]
            total += p
        return total

    def satisfies(world, a):
        return all(world[[v.name for v in model.schema].index(name)] in vals
                   for name, vals in a.items())

    pe = pq = 0.0
    for world in itertools.product(*doms):
        m = world_mass(world)
        if satisfies(world, e):
            pe += m
            if satisfies(world, q):
                pq += m
    return pq, pe


class TestLeafPosterior:
    def test_empty_evidence_returns_priors(self, iris_model):
        post = leaf_posterior(iris_model)
        assert np.allclose(post, [l.prior for l in iris_model.leaves])

    def test_normalized(self, iris_model):
        e = make_assignment(iris_model.schema, {"petal_length": (1.0, 3.0)})
        post = leaf_posterior(iris_model, e)
        assert post.sum() == pytest.approx(1.0)
        assert np.all(post >= 0)

    def test_path_contradicting_evidence_gets_zero(self, toy_hybrid_model):
        model = toy_hybrid_model
        for k, path in enumerate(reference_paths(model)):
            hi = path.get("x", (None, math.inf))[1]
            if math.isfinite(hi):
                e = {"x": Interval(hi + 1.0, hi + 1.0)}
                post = leaf_posterior(model, e)
                assert post[k] == 0.0
                return
        pytest.skip("no bounded numeric path in this tree")

    def test_pruning_matches_unpruned(self, iris_model, toy_hybrid_model):
        cases = [
            (iris_model, {"species": ["setosa"]}),
            (iris_model, {"petal_width": (0.0, 1.0)}),
            (toy_hybrid_model, {"x": (-1.0, 2.0), "color": ["blue"]}),
        ]
        for model, spec in cases:
            e = make_assignment(model.schema, spec)
            assert np.allclose(leaf_posterior(model, e, prune=True),
                               leaf_posterior(model, e, prune=False),
                               atol=1e-12)

    def test_zero_probability_evidence_raises(self, toy_hybrid_model):
        e = make_assignment(toy_hybrid_model.schema, {"x": (1e6, 1e6 + 1)})
        with pytest.raises(ZeroEvidenceError) as exc:
            leaf_posterior(toy_hybrid_model, e)
        assert "x" in str(exc.value)

    def test_unknown_variable_rejected(self, iris_model):
        with pytest.raises(AssignmentError, match="'bogus'"):
            leaf_posterior(iris_model, {"bogus": Interval(0, 1)})
        with pytest.raises(AssignmentError, match="'bogus'"):
            event_probability(iris_model, {"bogus": frozenset([0])})
        with pytest.raises(AssignmentError, match="'bogus'"):
            expectation_query(iris_model, "bogus")


class TestEventProbability:
    def test_certain_event(self, iris_model):
        q = make_assignment(iris_model.schema, {"petal_length": (-1e9, 1e9)})
        assert event_probability(iris_model, q) == pytest.approx(1.0)

    def test_query_equal_to_evidence(self, iris_model):
        a = make_assignment(iris_model.schema, {"species": ["versicolor"]})
        assert event_probability(iris_model, a, a) == pytest.approx(1.0)

    def test_disjoint_query_and_evidence(self, iris_model):
        q = make_assignment(iris_model.schema, {"species": ["setosa"]})
        e = make_assignment(iris_model.schema, {"species": ["virginica"]})
        assert event_probability(iris_model, q, e) == 0.0

    def test_marginal_species_frequencies(self, iris_model):
        # equal class priors in the training data
        for label in ("setosa", "versicolor", "virginica"):
            q = make_assignment(iris_model.schema, {"species": [label]})
            assert event_probability(iris_model, q) == pytest.approx(1 / 3, abs=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_discrete_dataset(rng, max_vars=3, max_domain=3, max_rows=60)
        model = learn(ds, LearnerConfig(min_samples_leaf=2))
        names = [v.name for v in model.schema]
        for _ in range(10):
            q = {names[j]: frozenset(
                    rng.choice(len(model.schema[j].domain),
                               size=rng.integers(1, len(model.schema[j].domain) + 1),
                               replace=False).tolist())
                 for j in rng.choice(len(names), 2, replace=False)}
            e_name = names[int(rng.integers(len(names)))]
            e = {e_name: frozenset(range(len(model.variable(e_name).domain)))}
            pq, pe = brute_force_event(model, q, e)
            if pe == 0:
                continue
            assert event_probability(model, q, e) == pytest.approx(pq / pe, abs=1e-9)

    def test_chain_rule(self, iris_model):
        a = make_assignment(iris_model.schema, {"petal_length": (1.0, 4.0)})
        b = make_assignment(iris_model.schema, {"sepal_width": (2.5, 3.5)})
        ab = {**a, **b}
        p_ab = event_probability(iris_model, ab)
        p_a = event_probability(iris_model, a)
        p_b_given_a = event_probability(iris_model, b, a)
        assert p_ab == pytest.approx(p_a * p_b_given_a, abs=1e-9)

    def test_marginalization_over_partition(self, iris_model):
        cuts = [(-1e9, 3.0), (3.0, 5.0), (5.0, 1e9)]
        e = make_assignment(iris_model.schema, {"species": ["virginica"]})
        total = 0.0
        for lo, hi in cuts:
            q = make_assignment(iris_model.schema, {"petal_length": (lo, hi)})
            total += event_probability(iris_model, q, e)
        # bins overlap only at zero-mass boundary points
        assert total == pytest.approx(1.0, abs=1e-9)


class TestPosteriorDistributions:
    def test_mixture_of_uniforms(self):
        # uniform on [0,1] and [1,2] mix to uniform on [0,2]
        model = uniform_mixture_model()
        post = posterior_distributions(model)
        merged = post["x"]
        assert isinstance(merged, PiecewiseLinearCDF)
        assert merged.cdf(0.5) == pytest.approx(0.25)
        assert merged.cdf(1.0) == pytest.approx(0.5)
        assert merged.cdf(1.5) == pytest.approx(0.75)

    def test_conditioning_restricts_support(self, toy_hybrid_model):
        e = make_assignment(toy_hybrid_model.schema, {"x": (0.0, 1.0)})
        post = posterior_distributions(toy_hybrid_model, e)
        lo, hi = post["x"].support
        assert lo >= 0.0 and hi <= 1.0

    def test_symbolic_posterior_shifts(self, toy_hybrid_model):
        base = posterior_distributions(toy_hybrid_model)["color"]
        low = posterior_distributions(
            toy_hybrid_model,
            make_assignment(toy_hybrid_model.schema, {"x": (-2.0, 1.5)}))["color"]
        # low x values were generated under the "blue" label
        assert low.p[0] > base.p[0]

    def test_evidence_variable_posterior_consistent(self, iris_model):
        e = make_assignment(iris_model.schema, {"petal_length": (2.0, 5.0)})
        post = posterior_distributions(iris_model, e)["petal_length"]
        assert post.interval_probability(2.0, 5.0) == pytest.approx(1.0, abs=1e-9)


def random_leaf_cdf(rng):
    """A step-free CDF on integer hinges in [-4, 4], so that components share
    hinges: a point mass, or several hinges with or without an atom at the
    first."""
    k = int(rng.integers(1, 6))
    x = np.sort(rng.choice(np.arange(-4.0, 5.0), k, replace=False))
    F = np.sort(rng.random(k))
    if k > 1 and rng.random() < 0.3:
        F[0] = 0.0
    F[-1] = 1.0
    return PiecewiseLinearCDF(np.column_stack([x, F]))


def merged(w, comps):
    """``_merge_numeric`` of the components ``comps`` with weights ``w``,
    packed as ``NumericColumn.conditioned`` packs a column's leaves."""
    owner = np.repeat(np.arange(len(comps)), [len(d.x) for d in comps])
    return _merge_numeric(np.asarray(w, dtype=float), owner,
                          np.concatenate([d.x for d in comps]),
                          np.concatenate([d.F for d in comps]))


def assert_is_the_mixture(merged_cdf, w, comps):
    """The merged CDF and its left limit equal ``sum_k w_k F_k`` within
    1e-12 at every hinge and between hinges, and so does the mean."""
    grid = np.unique(np.concatenate([d.x for d in comps]))
    for g in np.concatenate([grid, (grid[1:] + grid[:-1]) / 2]):
        assert merged_cdf.cdf(g) == pytest.approx(
            sum(wk * d.cdf(g) for wk, d in zip(w, comps)), abs=1e-12)
        assert merged_cdf.cdf_left(g) == pytest.approx(
            sum(wk * d.cdf_left(g) for wk, d in zip(w, comps)), abs=1e-12)
    mean = sum(wk * d.expectation() for wk, d in zip(w, comps))
    assert abs(merged_cdf.expectation() - mean) <= 1e-12


class TestMergedMarginal:
    """Numeric posterior marginals are the exact mixture CDF."""

    def test_equals_the_mixture(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            comps = [random_leaf_cdf(rng) for _ in range(int(rng.integers(1, 6)))]
            w = rng.random(len(comps)) + 0.01
            w /= w.sum()
            assert_is_the_mixture(merged(w, comps), w, comps)

    def test_nearly_coinciding_hinges(self):
        # steep pieces between hinges 1e-6 to 1e-12 apart, among ordinary
        # ones: a plain running sum of the slopes keeps their rounding
        # error in every later slope
        rng = np.random.default_rng(4)
        for _ in range(50):
            comps = []
            for _ in range(int(rng.integers(2, 8))):
                x = np.sort(rng.uniform(-5.0, 5.0, int(rng.integers(2, 7))))
                j = int(rng.integers(0, len(x) - 1))
                x = np.insert(x, j + 1, x[j] + 10.0 ** -rng.integers(6, 13))
                F = np.sort(rng.random(len(x)))
                F[-1] = 1.0
                comps.append(PiecewiseLinearCDF(np.column_stack([x, F])))
            w = rng.random(len(comps)) + 0.01
            w /= w.sum()
            assert_is_the_mixture(merged(w, comps), w, comps)

    def test_atoms_stay_at_their_hinges(self):
        m = merged([0.5, 0.5], [PiecewiseLinearCDF([[0, .5], [1, 1]]),
                                PiecewiseLinearCDF([[2, .5], [3, 1]])])
        assert m.x.tolist() == [0.0, 1.0, 2.0, 2.0, 3.0]
        assert m.F.tolist() == [0.25, 0.5, 0.5, 0.75, 1.0]
        assert m.expectation() == 1.25

    def test_mean_matches_expectation_query(self, iris_model, toy_hybrid_model):
        for model, spec in ((iris_model, {"petal_width": (0.2, 1.5)}),
                            (iris_model, {"species": ["virginica", "setosa"]}),
                            (toy_hybrid_model, {"x": (-1.0, 7.0)})):
            e = make_assignment(model.schema, spec)
            marginals = posterior_distributions(model, e)
            for var in model.schema:
                if var.numeric:
                    mean = expectation_query(model, var.name, e)[0]
                    assert marginals[var.name].expectation() == pytest.approx(mean, abs=1e-12)

    def test_one_leaf_integer_model(self):
        values = np.random.default_rng(0).integers(0, 10, 5000).astype(float)
        model = learn(Dataset((Variable("x", "numeric"),), values[:, None]),
                      LearnerConfig(max_depth=0, epsilon=0))
        e = make_assignment(model.schema, {"x": (0, 3)})
        assert event_probability(model, e) == pytest.approx(0.3992, abs=1e-12)
        marginal = posterior_distributions(model, e)["x"]
        want = np.mean(values == 0) / np.mean(values <= 3)
        assert marginal.F[0] == pytest.approx(want, abs=1e-12)
        assert round(want, 4) == 0.2630


class TestExpectationQuery:
    def test_uniform_mixture_mean(self):
        model = uniform_mixture_model()
        mean, lo, hi = expectation_query(model, "x")
        assert mean == pytest.approx(1.0)
        assert lo <= mean <= hi

    def test_exact_mixture_mean(self):
        # each leaf has a point mass of 0.5 at its first hinge; the mean of a
        # merged CDF that spreads those masses over the gap would be 1.125
        c = Variable("c", "symbolic", ("a", "b"))
        schema = (Variable("x", "numeric"), c)
        model = hand_model(schema, ("c", "a", 0, 1), [
            (0.5, 2, {"x": PiecewiseLinearCDF([[0, .5], [1, 1]]),
                      "c": Multinomial(c, [1.0, 0.0])}),
            (0.5, 2, {"x": PiecewiseLinearCDF([[2, .5], [3, 1]]),
                      "c": Multinomial(c, [0.0, 1.0])}),
        ])
        mean, lo, hi = expectation_query(model, "x")
        assert mean == pytest.approx(1.25, abs=1e-12)
        assert lo <= mean <= hi

    def test_symbolic_target_rejected(self, iris_model):
        with pytest.raises(AssignmentError):
            expectation_query(iris_model, "species")

    def test_evidence_moves_expectation(self, toy_hybrid_model):
        schema = toy_hybrid_model.schema
        m_all, _, _ = expectation_query(toy_hybrid_model, "x")
        m_blue, _, _ = expectation_query(
            toy_hybrid_model, "x", make_assignment(schema, {"color": ["blue"]}))
        m_red, _, _ = expectation_query(
            toy_hybrid_model, "x", make_assignment(schema, {"color": ["red"]}))
        assert m_blue < m_all < m_red


class TestMpe:
    def test_returns_valid_world(self, iris_model):
        world, score = mpe(iris_model)
        assert set(world) == {v.name for v in iris_model.schema}
        assert world["species"] in ("setosa", "versicolor", "virginica")
        assert score > 0

    def test_respects_evidence(self, iris_model):
        e = make_assignment(iris_model.schema, {"species": ["virginica"]})
        world, _ = mpe(iris_model, e)
        assert world["species"] == "virginica"

    def test_numeric_evidence_point_is_kept(self, iris_model):
        e = make_assignment(iris_model.schema, {"petal_length": 4.2})
        world, _ = mpe(iris_model, e)
        assert world["petal_length"] == pytest.approx(4.2)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_enumerated_argmax(self, seed):
        rng = np.random.default_rng(100 + seed)
        ds = random_discrete_dataset(rng, max_vars=3, max_domain=3, max_rows=80)
        model = learn(ds, LearnerConfig(min_samples_leaf=2))
        world, score = mpe(model)
        names = [v.name for v in model.schema]

        best = -1.0
        for combo in itertools.product(*[range(len(v.domain))
                                         for v in model.schema]):
            mass = sum(l.prior * np.prod([l.distributions[n].p[i]
                                          for n, i in zip(names, combo)])
                       for l in model.leaves)
            best = max(best, mass)
        assert score == pytest.approx(best, abs=1e-12)


def per_row_log_likelihood(model, data):
    """Reference for ``log_likelihood``: each row descends the tree alone
    and is scored with scalar ``density`` or ``p[i]`` and ``math.log``,
    summed in row order."""
    total, finite, zero = 0.0, 0, 0
    for row in data.values:
        leaf = model.descend(row)
        logp = math.log(leaf.prior)
        for j, var in enumerate(model.schema):
            dist = leaf.distributions[var.name]
            f = dist.p[int(row[j])] if var.symbolic else dist.density(float(row[j]))
            if f <= 0.0:
                logp = None
                break
            logp += math.log(f)
        if logp is None:
            zero += 1
        else:
            total += logp
            finite += 1
    return (total / finite if finite else math.nan), zero / len(data)


def assert_matches_per_row(model, data):
    avg, zero_frac = log_likelihood(model, data)
    ref_avg, ref_zero = per_row_log_likelihood(model, data)
    assert zero_frac == ref_zero
    if math.isnan(ref_avg):
        assert math.isnan(avg)
    else:
        assert avg == pytest.approx(ref_avg, rel=1e-12, abs=0.0)
    return avg, zero_frac


def hinge_model():
    """c = a ? leaf 0 : leaf 1. Leaf 0: x has an atom at its first hinge
    and a plateau on [1, 2]; d's third label has mass 0. Leaf 1: x = Dirac(3)."""
    x = Variable("x", "numeric")
    c = Variable("c", "symbolic", ("a", "b"))
    d = Variable("d", "symbolic", ("u", "v", "w"))
    return hand_model((x, c, d), ("c", "a", 0, 1), [
        (0.75, 3, {"x": PiecewiseLinearCDF([[0, 0.1], [1, 0.3], [2, 0.3], [4, 1]]),
                   "c": Multinomial(c, [1.0, 0.0]), "d": Multinomial(d, [0.5, 0.5, 0.0])}),
        (0.25, 1, {"x": Dirac(3.0), "c": Multinomial(c, [0.0, 1.0]),
                   "d": Multinomial(d, [0.2, 0.3, 0.5])}),
    ])


def random_chain_model(rng, depth):
    """A chain of ``depth`` random decision nodes over numeric x, y and
    symbolic c, each with a leaf on a random side. Each leaf's mass lies
    inside its path: random PLFs or Diracs (some at integers, some on a
    path threshold), and histograms of c with zeros, at least on the values
    that the path excludes. A chain much deeper than 60 can run out of room
    for a split."""
    schema = (Variable("x", "numeric"), Variable("y", "numeric"),
              Variable("c", "symbolic", ("a", "b", "c", "d")))
    # the chain's region below the last split: (lo, hi] of x and y, the
    # admitted values of c; each split leaves both sides a value, so no
    # region is empty
    region = {"x": (-math.inf, math.inf), "y": (-math.inf, math.inf),
              "c": np.ones(4, dtype=bool)}
    splits, regions = [], []
    for _ in range(depth):
        left, right = dict(region), dict(region)
        numeric = [var for var in schema[:2]  # those with room for a threshold
                   if np.nextafter(region[var.name][0], math.inf) < region[var.name][1]]
        if region["c"].sum() > 1 and (rng.random() < 0.3 or not numeric):
            v = int(rng.choice(np.flatnonzero(region["c"])))
            split = "c", schema[2].domain[v]
            left["c"], right["c"] = (region["c"] & (np.arange(4) == v),
                                     region["c"] & (np.arange(4) != v))
        else:
            var = numeric[int(rng.integers(0, len(numeric)))]
            lo, hi = region[var.name]
            t = max(float(rng.uniform(max(lo, -10.0), min(hi, 10.0))),
                    float(np.nextafter(lo, math.inf)))
            split = var.name, t
            left[var.name], right[var.name] = (lo, t), (t, hi)
        leaf_left = bool(rng.random() < 0.5)
        splits.append((split, leaf_left))
        regions.append(left if leaf_left else right)
        region = right if leaf_left else left
    regions.append(region)

    priors = rng.dirichlet(np.ones(depth + 1))
    leaves = []
    for prior, path in zip(priors, regions):
        dists = {var.name: _plf_inside(rng, *path[var.name]) for var in schema[:2]}
        p = rng.random(4) * (rng.random(4) < 0.7) * path["c"]
        p[rng.choice(np.flatnonzero(path["c"]))] += 0.1
        dists["c"] = Multinomial(schema[2], p / p.sum())
        leaves.append((float(prior), 1, dists))
    node = depth  # the chain's last leaf; leaf k hangs off split k
    for k, (split, leaf_left) in reversed(list(enumerate(splits))):
        node = (*split, *((k, node) if leaf_left else (node, k)))
    return hand_model(schema, node, leaves)


def _plf_inside(rng, lo, hi):
    """A random PLF or Dirac with its mass in (lo, hi]; on a finite hi, its
    last hinge or the Dirac falls on hi at times."""
    a, b = (lo if lo > -math.inf else -12.0), (hi if hi < math.inf else 12.0)
    on_hi = hi < math.inf and rng.random() < 0.3
    if rng.random() >= 0.25:
        plf = random_plf(rng, zero_start=bool(rng.random() < 0.5))
        x = a + (b - a) * (plf.x + 10.0) / 20.0
        if on_hi:
            x[-1] = b
        if x[0] > a and np.all(np.diff(x) > 0):  # a narrow region may merge hinges
            return PiecewiseLinearCDF(np.column_stack([x, plf.F]))
    ints = [v for v in range(-3, 4) if a < v <= b]
    return Dirac(b if on_hi or not ints else float(rng.choice(ints)))


def rows_on_hinges(rng, model, n):
    """Rows whose numeric cells are uniform, or hinges and Dirac values of
    the model, or their nearest neighbours."""
    points = np.unique(np.concatenate(
        [np.atleast_1d(d.x if isinstance(d, PiecewiseLinearCDF) else d.value)
         for leaf in model.leaves for name, d in leaf.distributions.items()
         if model.variable(name).numeric]))
    points = np.concatenate([points, np.nextafter(points, -np.inf),
                             np.nextafter(points, np.inf)])
    columns = []
    for var in model.schema:
        if var.symbolic:
            columns.append(rng.integers(0, len(var.domain), n).astype(float))
        else:
            columns.append(np.where(rng.random(n) < 0.5, rng.choice(points, n),
                                    rng.uniform(-12, 12, n)))
    return Dataset(model.schema, np.column_stack(columns))


class TestLogLikelihood:
    def test_single_row_density(self, toy_hybrid_model):
        model = toy_hybrid_model
        row = np.array([0.5, 0.0])
        expected = 0.0
        for leaf in model.leaves:
            expected += (leaf.prior * leaf.distributions["x"].density(0.5)
                         * leaf.distributions["color"].p[0])
        schema = model.schema
        ds = Dataset(schema, row.reshape(1, -1))
        avg, zero_frac = log_likelihood(model, ds)
        assert avg == pytest.approx(math.log(expected))
        assert zero_frac == 0.0

    def test_out_of_support_rows_counted(self, toy_hybrid_model):
        ds = Dataset(toy_hybrid_model.schema,
                     np.array([[1e6, 0.0], [0.5, 0.0]]))
        avg, zero_frac = log_likelihood(toy_hybrid_model, ds)
        assert zero_frac == 0.5
        assert math.isfinite(avg)

    def test_all_rows_outside_support(self, toy_hybrid_model):
        ds = Dataset(toy_hybrid_model.schema, np.array([[1e6, 0.0]]))
        avg, zero_frac = log_likelihood(toy_hybrid_model, ds)
        assert zero_frac == 1.0
        assert math.isnan(avg)

    def test_symbolic_domain_must_match(self, toy_hybrid_model):
        x, color = toy_hybrid_model.schema
        recoded = Variable("color", "symbolic", ("red", "blue"))
        ds = Dataset((x, recoded), np.array([[0.5, 0.0]]))
        with pytest.raises(AssignmentError):
            log_likelihood(toy_hybrid_model, ds)

    def test_zero_rows_rejected(self, toy_hybrid_model):
        ds = Dataset(toy_hybrid_model.schema, np.empty((0, 2)))
        with pytest.raises(AssignmentError, match="without rows"):
            log_likelihood(toy_hybrid_model, ds)

    def test_training_data_has_full_support(self, iris, iris_model):
        avg, zero_frac = log_likelihood(iris_model, iris)
        assert zero_frac == 0.0
        assert math.isfinite(avg)

    def test_density_rules_at_hinges(self):
        model = hinge_model()
        below, above = np.nextafter(0.0, -1.0), np.nextafter(4.0, 5.0)
        # (x, c, d) and the density of x in its leaf, by the rules of density
        cases = [(0.0, 0, 0, 0.2),     # first hinge: right piece
                 (1.0, 0, 1, 0.0),     # interior hinge opening the plateau
                 (1.5, 0, 0, 0.0),     # on the plateau
                 (2.0, 0, 1, 0.35),    # interior hinge closing the plateau
                 (4.0, 0, 0, 0.35),    # last hinge: left piece
                 (below, 0, 0, 0.0),   # just below the support
                 (above, 0, 0, 0.0),   # just above it
                 (3.0, 1, 2, 1.0),     # at the Dirac
                 (np.nextafter(3.0, 4.0), 1, 0, 0.0)]
        for x, c, d, density in cases:
            dist = model.leaves[c].distributions["x"]
            assert dist.density(x) == pytest.approx(density, abs=1e-15)
            ds = Dataset(model.schema, np.array([[x, c, d]]))
            avg, zero_frac = assert_matches_per_row(model, ds)
            assert zero_frac == (density == 0.0)
        # a label of mass 0 zeroes an otherwise positive row
        ds = Dataset(model.schema, np.array([[0.5, 0, 2], [0.5, 0, 1]]))
        avg, zero_frac = assert_matches_per_row(model, ds)
        assert zero_frac == 0.5
        assert avg == pytest.approx(math.log(0.75 * 0.2 * 1.0 * 0.5))
        rows = np.array([[x, c, d] for x, c, d, _ in cases])
        assert_matches_per_row(model, Dataset(model.schema, rows))

    def test_dirac_leaves(self):
        model = dirac_model()
        rows = np.array([[1.0, 0], [1.0, 1], [np.nextafter(1.0, 2.0), 0], [0.5, 1],
                         [2.0, 0], [4.0, 1], [1.5, 0], [3.0, 1]])
        avg, zero_frac = assert_matches_per_row(model, Dataset(model.schema, rows))
        assert zero_frac == 3 / 8

    def test_every_row_zero(self):
        model = hinge_model()
        rows = np.array([[1.5, 0, 0], [-1.0, 0, 1], [2.5, 1, 0]])
        avg, zero_frac = assert_matches_per_row(model, Dataset(model.schema, rows))
        assert zero_frac == 1.0 and math.isnan(avg)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_per_row_on_random_chains(self, seed):
        rng = np.random.default_rng(seed)
        depth = 60 if seed % 4 == 0 else int(rng.integers(1, 10))
        model = random_chain_model(rng, depth)
        data = rows_on_hinges(rng, model, 400)
        assert_matches_per_row(model, data)
        assert_matches_per_row(model, Dataset(model.schema, data.values[:1]))

    def test_matches_per_row_on_learnt_models(self, iris, toy_hybrid_model):
        for msl in (0.1, 0.02, 2):
            assert_matches_per_row(learn(iris, LearnerConfig(min_samples_leaf=msl)), iris)
        rng = np.random.default_rng(3)
        assert_matches_per_row(toy_hybrid_model,
                               rows_on_hinges(rng, toy_hybrid_model, 500))


class TestSample:
    def test_schema_and_size(self, iris_model):
        rng = np.random.default_rng(0)
        out = sample(iris_model, 500, rng)
        assert out.schema == iris_model.schema
        assert len(out) == 500

    def test_respects_evidence(self, iris_model):
        rng = np.random.default_rng(1)
        e = make_assignment(iris_model.schema,
                            {"species": ["setosa"], "petal_length": (1.0, 2.0)})
        out = sample(iris_model, 300, rng, e)
        sp = iris_model.variable("species")
        assert np.all(out.column("species") == sp.index_of("setosa"))
        pl = out.column("petal_length")
        assert np.all((pl >= 1.0) & (pl <= 2.0))

    def test_marginal_frequencies(self, iris_model):
        rng = np.random.default_rng(2)
        out = sample(iris_model, 30_000, rng)
        freq = np.bincount(out.column("species").astype(int), minlength=3) / 30_000
        assert np.allclose(freq, [1 / 3, 1 / 3, 1 / 3], atol=0.02)


# -- the per-leaf loop that the leaf table replaced, kept as the reference -----


def _reference_path_compatible(path, e):
    for name, constraint in e.items():
        cond = path.get(name)
        if cond is None:
            continue
        if isinstance(constraint, Interval):
            # the floats x of [a, b] with lo < x <= hi: from the first float above lo
            lo, hi = cond
            if max(constraint.lower, math.nextafter(lo, math.inf)) > min(constraint.upper, hi):
                return False
        elif not (constraint & cond):
            return False
    return True


def _reference_mass(dist, constraint):
    if isinstance(constraint, Interval):
        return dist.interval_probability(constraint.lower, constraint.upper)
    return dist.event_probability(constraint)


def reference_leaf_posterior(model, e, prune=True):
    """One leaf at a time: skip a leaf whose path contradicts ``e``, else
    multiply its prior by the density at a point or the mass of each
    constraint, with the scalar distribution methods."""
    weights = np.zeros(len(model.leaves))
    for leaf, path in zip(model.leaves, reference_paths(model)):
        if prune and not _reference_path_compatible(path, e):
            continue
        w = leaf.prior
        for name, constraint in e.items():
            dist = leaf.distributions[name]
            if isinstance(constraint, Interval) and constraint.is_point:
                w *= dist.density(constraint.lower)
            else:
                w *= _reference_mass(dist, constraint)
            if w == 0.0:
                break
        weights[leaf.index] = w
    total = weights.sum()
    if total <= 0.0:
        raise ZeroEvidenceError("evidence has zero probability")
    return weights / total


def reference_conditioner(e):
    """``condition(dist, name)``: a leaf's distribution of ``name`` conditioned
    on ``e``, where a zero mass raises DistributionError. Every leaf shares
    the one point mass of a point constraint."""
    points = {name: Dirac(c.lower) for name, c in e.items()
              if isinstance(c, Interval) and c.is_point}

    def condition(dist, name):
        constraint = e.get(name)
        if constraint is None:
            return dist
        if name in points:
            return points[name]
        if isinstance(constraint, Interval):
            return dist.crop(constraint.lower, constraint.upper)
        return dist.condition(constraint)

    return condition


def reference_conditioned(model, e, names):
    """The leaves with positive posterior: their posteriors as floats, and
    for each such leaf its distributions of ``names`` conditioned on ``e``."""
    posterior = reference_leaf_posterior(model, e)
    condition = reference_conditioner(e)
    weights, dists = [], []
    for k in np.flatnonzero(posterior):
        leaf = model.leaves[k]
        weights.append(float(posterior[k]))
        dists.append({name: condition(leaf.distributions[name], name) for name in names})
    return weights, dists


def reference_event_probability(model, q, e):
    """Each surviving leaf's posterior times the query masses of its
    distributions conditioned on ``e``, added one leaf at a time."""
    weights, dists = reference_conditioned(model, e, list(q))
    total = 0.0
    for factor, d in zip(weights, dists):
        for name, constraint in q.items():
            factor *= _reference_mass(d[name], constraint)
        total += factor
    return min(1.0, max(0.0, total))


def reference_merge(components):
    """Positively weighted step-free CDFs as their mixture CDF, each
    component evaluated on the union of their hinges; a grid point above the
    first where some components have their first-hinge atom becomes a step."""
    xs = np.unique(np.concatenate([d.x for _, d in components]))
    F = np.zeros_like(xs)
    for w, d in components:
        F += w * d.cdf_vec(xs)
    first = xs.searchsorted([d.x[0] for _, d in components])
    atoms = np.bincount(first, weights=[w * d.F[0] for w, d in components],
                        minlength=len(xs))
    step = np.flatnonzero(atoms[1:] > 0.0) + 1
    xs = np.insert(xs, step, xs[step])
    F = np.insert(F, step, (F - atoms)[step])
    F = np.maximum.accumulate(F / F[-1])
    F[-1] = 1.0
    return PiecewiseLinearCDF(np.column_stack([xs, F]))


def reference_posterior_distributions(model, e):
    """Each variable's mixture of the surviving leaves' conditioned
    distributions, added one leaf at a time."""
    weights, dists = reference_conditioned(model, e, [var.name for var in model.schema])
    out = {}
    for var in model.schema:
        comps = [(w, d[var.name]) for w, d in zip(weights, dists)]
        if var.numeric:
            out[var.name] = reference_merge(comps)
        else:
            p = np.zeros(len(var.domain))
            for w, d in comps:
                p += w * d.p
            out[var.name] = Multinomial(var, p / p.sum())
    return out


def reference_expectation_query(model, target, e, theta=0.95):
    """The mixture of the leaves' conditioned means, and the confidence
    interval of the merged CDF widened to contain it."""
    comps = [(w, d[target]) for w, d in zip(*reference_conditioned(model, e, [target]))]
    mean = sum(w * d.expectation() for w, d in comps)
    l, u = reference_merge(comps).confidence_interval(theta)
    return mean, min(l, mean), max(u, mean)


def reference_max_density_point(dist):
    """The midpoint of the steepest piece (leftmost on ties) and its slope,
    or a point mass's value with unit density."""
    if len(dist.x) == 1:
        return float(dist.x[0]), 1.0
    x, F = dist.x, dist.F
    slopes = (F[1:] - F[:-1]) / (x[1:] - x[:-1])
    k = int(slopes.argmax())
    return float((x[k] + x[k + 1]) / 2.0), float(slopes[k])


def reference_mpe(model, e):
    """Each surviving leaf's best world and score, kept when it beats the
    best of the leaves before it."""
    weights, dists = reference_conditioned(model, e, [var.name for var in model.schema])
    best = None
    for score, d in zip(weights, dists):
        world = {}
        for var in model.schema:
            dist = d[var.name]
            if var.symbolic:
                idx = dist.argmax()
                world[var.name] = var.domain[idx]
                score *= float(dist.p[idx])
            else:
                world[var.name], f = reference_max_density_point(dist)
                score *= f
        if score > 0.0 and (best is None or score > best[1]):
            best = (world, score)
    return best


def assert_matches_the_reference(model, e):
    """``posterior_distributions``, ``mpe`` and ``expectation_query`` against
    the reference loop: symbolic marginals, worlds and scores bit for bit,
    numeric marginals on the same grid and means and intervals within
    1e-12."""
    got, want = posterior_distributions(model, e), reference_posterior_distributions(model, e)
    for var in model.schema:
        g, w = got[var.name], want[var.name]
        if var.symbolic:
            assert g.p.tobytes() == w.p.tobytes(), (var.name, e)
        else:
            assert g.x.tobytes() == w.x.tobytes(), (var.name, e)
            assert np.abs(g.F - w.F).max() <= 1e-12, (var.name, e)
            assert np.allclose(expectation_query(model, var.name, e),
                               reference_expectation_query(model, var.name, e),
                               rtol=0.0, atol=1e-12), (var.name, e)
    assert mpe(model, e) == reference_mpe(model, e), e


def threshold_model():
    """x <= 2 ? (c = a ? leaf 0 : leaf 1) : (y <= 0 ? leaf 2 : leaf 3), with
    paths from the tree. Leaf 0's x has an atom at its first hinge
    and its last hinge on the threshold 2; leaf 1's x is the point mass at 2;
    leaf 2's y ends on the threshold 0, where leaf 3's open region starts;
    leaf 3's y is a point mass."""
    x, y = Variable("x", "numeric"), Variable("y", "numeric")
    c = Variable("c", "symbolic", ("a", "b", "c"))

    def leaf(prior, xd, yd, p):
        return prior, 1, {"x": xd, "y": yd, "c": Multinomial(c, p)}

    return hand_model((x, y, c), ("x", 2.0, ("c", "a", 0, 1), ("y", 0.0, 2, 3)), [
        leaf(0.3, PiecewiseLinearCDF([[0, 0.25], [1, 0.5], [2, 1]]),
             PiecewiseLinearCDF([[-1, 0], [1, 1]]), [1.0, 0.0, 0.0]),
        leaf(0.2, Dirac(2.0), PiecewiseLinearCDF([[-2, 0.5], [0, 0.75], [3, 1]]),
             [0.0, 0.4, 0.6]),
        leaf(0.25, PiecewiseLinearCDF([[2.5, 0.1], [4, 1]]),
             PiecewiseLinearCDF([[-3, 0], [-1, 0], [0, 1]]), [0.2, 0.3, 0.5]),
        leaf(0.25, PiecewiseLinearCDF([[3, 0], [3.5, 0.5], [6, 1]]), Dirac(0.5),
             [0.5, 0.5, 0.0]),
    ])


def _points(model, name):
    """Every hinge and finite path bound of ``name``, the midpoints between
    them, a point beyond each end, and both infinities."""
    xs = set()
    for leaf, path in zip(model.leaves, reference_paths(model)):
        xs.update(leaf.distributions[name].x.tolist())
        xs.update(b for b in path.get(name, ()) if math.isfinite(b))
    xs = sorted(xs)
    return (xs + [(a + b) / 2 for a, b in zip(xs, xs[1:])]
            + [xs[0] - 1, xs[-1] + 1, -math.inf, math.inf])


def _constraint(rng, model, var):
    if var.symbolic:
        k = len(var.domain)
        size = int(rng.integers(1, k + 1))
        return frozenset(rng.choice(k, size=size, replace=False).tolist())
    pts = _points(model, var.name)
    a, b = sorted(float(v) for v in rng.choice(pts, 2))
    return Interval(a, a) if rng.random() < 0.3 else Interval(a, b)


def _assignment(rng, model, names):
    return {name: _constraint(rng, model, model.variable(name)) for name in names}


REFERENCE_MODELS = {
    "hinges": hinge_model,
    "diracs": dirac_model,
    "thresholds": threshold_model,
    "chain": lambda: random_chain_model(np.random.default_rng(5), 12),
    "iris": lambda: learn(ingest_csv(DATA_DIR / "iris.csv"),
                          LearnerConfig(min_samples_leaf=0.05)),
}


class TestMatchesThePerLeafLoop:
    """Every posterior query gives the reference loop's answers, on hinges,
    point masses and path thresholds: ``leaf_posterior`` and
    ``event_probability`` bit for bit, the others as
    ``assert_matches_the_reference`` says."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
    def test_bitwise(self, name):
        model = REFERENCE_MODELS[name]()
        names = [v.name for v in model.schema]
        rng = np.random.default_rng(len(name))
        assert_matches_the_reference(model, {})
        answered = 0
        for _ in range(400):
            e_names = rng.choice(names, size=int(rng.integers(1, len(names) + 1)), replace=False)
            e = _assignment(rng, model, e_names)
            # half of the queries constrain an evidence variable again
            q_names = (e_names[:int(rng.integers(1, len(e_names) + 1))] if rng.random() < 0.5
                       else rng.choice(names, size=int(rng.integers(1, 3)), replace=False))
            q = _assignment(rng, model, q_names)
            try:
                want = reference_leaf_posterior(model, e)
            except ZeroEvidenceError:
                with pytest.raises(ZeroEvidenceError):
                    leaf_posterior(model, e)
                continue
            kept = [_reference_path_compatible(path, e) for path in reference_paths(model)]
            assert model.table.compatible(e).tolist() == kept, e
            answered += 1
            got = leaf_posterior(model, e)
            assert got.tobytes() == want.tobytes(), e
            unpruned = leaf_posterior(model, e, prune=False)
            assert unpruned.tobytes() == reference_leaf_posterior(model, e, False).tobytes()
            assert unpruned.tobytes() == got.tobytes(), e
            assert (event_probability(model, q, e).hex()
                    == reference_event_probability(model, q, e).hex()), (q, e)
            if answered % 3 == 0:
                assert_matches_the_reference(model, e)
        assert answered >= 100

    def test_query_on_evidence_variables(self):
        model = threshold_model()
        schema = model.schema
        cases = [({"x": 1.0}, {"x": (0.5, 2.0)}),            # point evidence
                 ({"x": (0.0, 2.0)}, {"x": (0.0, 1.0)}),      # bounds on hinges
                 ({"x": (0.5, 3.0)}, {"x": (1.0, 2.5)}),
                 ({"y": (-2.0, 0.0)}, {"y": (-1.0, 0.0)}),    # the open threshold 0
                 ({"c": ["b", "c"]}, {"c": ["c"]}),           # value sets
                 ({"c": ["a", "b"], "x": (1.0, 2.0)}, {"c": ["b"], "x": (2.0, 2.0)})]
        for e, q in cases:
            e, q = make_assignment(schema, e), make_assignment(schema, q)
            assert (event_probability(model, q, e).hex()
                    == reference_event_probability(model, q, e).hex()), (q, e)
            assert_matches_the_reference(model, e)

    def test_point_on_an_open_threshold(self):
        # y = 0 is the last hinge of leaf 2 and outside leaf 3's region (0, inf)
        model = threshold_model()
        e = make_assignment(model.schema, {"y": 0.0})
        got = leaf_posterior(model, e)
        assert got.tobytes() == reference_leaf_posterior(model, e).tobytes()
        assert got[3] == 0.0 and got[2] > 0.0

    def test_pruning_zeroes_a_contradicting_leaf_whatever_its_factors(self):
        # leaf 1's histogram gives mass to a, which its path c != a excludes;
        # no learnt tree has such a leaf, so only here do the two settings differ
        c = Variable("c", "symbolic", ("a", "b"))
        schema = (Variable("x", "numeric"), c)
        model = hand_model(schema, ("c", "a", 0, 1), [
            (0.5, 1, {"x": Dirac(0.0), "c": Multinomial(c, [1.0, 0.0])}),
            (0.5, 1, {"x": Dirac(1.0), "c": Multinomial(c, [0.5, 0.5])})])
        e = {"c": frozenset({0})}
        assert leaf_posterior(model, e).tolist() == [1.0, 0.0]
        assert leaf_posterior(model, e, prune=False) == pytest.approx([2 / 3, 1 / 3])
        for prune in (True, False):
            assert (leaf_posterior(model, e, prune).tobytes()
                    == reference_leaf_posterior(model, e, prune).tobytes())


def evidence_of_each_kind(rng, model):
    """An interval and a point on numeric variables and a value set on a
    symbolic one, each of positive probability."""
    numeric = [v for v in model.schema if v.numeric]
    symbolic = [v for v in model.schema if v.symbolic]
    for kind, pool in (("interval", numeric), ("point", numeric), ("set", symbolic)):
        for _ in range(200):
            var = pool[int(rng.integers(len(pool)))]
            if kind == "set":
                c = _constraint(rng, model, var)
            else:
                pts = [p for p in _points(model, var.name) if math.isfinite(p)]
                a, b = sorted(float(v) for v in rng.choice(pts, 2, replace=False))
                c = Interval(a, a) if kind == "point" else Interval(a, b)
            try:
                reference_leaf_posterior(model, {var.name: c})
            except ZeroEvidenceError:
                continue
            yield kind, {var.name: c}
            break


class TestSampleFollowsTheConditionedLeaves:
    n = 50_000

    @pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
    def test_draws(self, name):
        model = REFERENCE_MODELS[name]()
        rng = np.random.default_rng(len(name))
        names = [v.name for v in model.schema]
        kinds = []
        for kind, e in evidence_of_each_kind(rng, model):
            kinds.append(kind)
            out = sample(model, self.n, np.random.default_rng(7), e)
            # every row comes from one kept leaf: each value in its support
            _, dists = reference_conditioned(model, e, names)
            fits = np.ones((self.n, len(dists)), dtype=bool)
            for var in model.schema:
                v = out.column(var.name)
                if var.symbolic:
                    p = np.array([d[var.name].p for d in dists])
                    fits &= p[:, v.astype(int)].T > 0.0
                else:
                    lo, hi = np.array([d[var.name].support for d in dists]).T
                    fits &= (v[:, None] >= lo) & (v[:, None] <= hi)
            assert fits.any(axis=1).all(), e
            (var_name, c), = e.items()
            v = out.column(var_name)
            if isinstance(c, Interval):
                assert np.all((v >= c.lower) & (v <= c.upper)), e
            else:
                assert set(np.unique(v).astype(int)) <= c, e
            # the draws follow the posterior marginals
            marginals = posterior_distributions(model, e)
            bound = math.sqrt(math.log(2 / 1e-9) / (2 * self.n))  # DKW at 1e-9
            for var in model.schema:
                v, m = np.sort(out.column(var.name)), marginals[var.name]
                if var.symbolic:
                    freq = np.bincount(v.astype(int), minlength=len(var.domain)) / self.n
                    assert np.all(np.abs(freq - m.p) <= 5 * np.sqrt(m.p * (1 - m.p) / self.n) + 1e-12)
                    continue
                pts = np.unique(np.concatenate([m.x, np.quantile(v, np.linspace(0, 1, 201))]))
                right = v.searchsorted(pts, side="right") / self.n
                left = v.searchsorted(pts, side="left") / self.n
                gap = max(max(abs(right[i] - m.cdf(p)), abs(left[i] - m.cdf_left(p)))
                          for i, p in enumerate(pts))
                assert gap <= bound, (var.name, e, gap)
        assert kinds == ["interval", "point", "set"]


class TestLeafTable:
    def test_a_stepped_leaf_cdf_is_rejected_when_read(self):
        # a repeated hinge x is a step, which only merged marginals may have
        # (loads rejects it), so leaf 0's hinges go into the table directly
        model = hinge_model()
        t = model.table
        stepped = (np.array([0.0, 1.0, 1.0, 2.0, 3.0]), np.array([0.2, 0.4, 0.6, 1.0, 1.0]),
                   np.array([0, 4]), np.array([3, 4]))  # leaf 1 keeps its Dirac(3)
        table = LeafTable(t.prior, t.sample_count, {**t.store, "x": stepped}, t.regions)
        model = TreeModel(model.schema, model.tree, table, model.config)
        assert leaf_posterior(model, {"d": frozenset({0})}).sum() == pytest.approx(1.0)
        with pytest.raises(DataError, match="strictly increasing"):
            leaf_posterior(model, {"x": Interval(0.5, 1.5)})

    def test_arrays_are_read_only(self, toy_hybrid_model):
        table = toy_hybrid_model.table
        x, color = table.column("x"), table.column("color")
        for a in (table.prior, x.x, x.F, x.region[0], color.p, color.admissible):
            with pytest.raises(ValueError):
                a[0] = 0
