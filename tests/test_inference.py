import itertools
import math

import numpy as np
import pytest

from probtree import (AssignmentError, DataError, Dataset, DecisionNode, Dirac,
                      Interval, Leaf, LearnerConfig, Multinomial,
                      PiecewiseLinearCDF, SplitCriterion, TreeModel, Variable,
                      ZeroEvidenceError, event_probability, expectation_query,
                      leaf_posterior, learn, log_likelihood, make_assignment,
                      mpe, posterior_distributions, sample)
from probtree.inference import _merge_numeric
from probtree.learner import EQUALS, THRESHOLD


def uniform_mixture_model():
    """Two equally weighted leaves: x uniform on [0,1] and on [1,2]."""
    c = Variable("c", "symbolic", ("a", "b"))
    schema = (Variable("x", "numeric"), c)
    leaves = [
        Leaf(0, 0.5, {"x": PiecewiseLinearCDF([[0, 0], [1, 1]]),
                      "c": Multinomial(c, [1.0, 0.0])}, {"c": frozenset({0})}, 2),
        Leaf(1, 0.5, {"x": PiecewiseLinearCDF([[1, 0], [2, 1]]),
                      "c": Multinomial(c, [0.0, 1.0])}, {"c": frozenset({1})}, 2),
    ]
    root = DecisionNode(SplitCriterion(c, EQUALS, value_index=0), *leaves)
    return TreeModel(schema, root, leaves, LearnerConfig())

def dirac_model():
    """x <= 1.5 ? (c = a ? leaf 0 : leaf 1) : leaf 2, with priors 1/4, 1/4,
    1/2. Leaves 0 and 1 hold x = Dirac(1) and c certain to be a and b;
    leaf 2 holds x uniform on [2, 4] and c uniform."""
    x, c = Variable("x", "numeric"), Variable("c", "symbolic", ("a", "b"))
    low = Interval(-math.inf, 1.5, lower_open=True)
    leaves = [
        Leaf(0, 0.25, {"x": Dirac(1.0), "c": Multinomial(c, [1.0, 0.0])},
             {"x": low, "c": frozenset({0})}, 1),
        Leaf(1, 0.25, {"x": Dirac(1.0), "c": Multinomial(c, [0.0, 1.0])},
             {"x": low, "c": frozenset({1})}, 1),
        Leaf(2, 0.5, {"x": PiecewiseLinearCDF([[2, 0], [4, 1]]),
                      "c": Multinomial(c, [0.5, 0.5])},
             {"x": Interval(1.5, math.inf, True, True)}, 2),
    ]
    root = DecisionNode(SplitCriterion(x, THRESHOLD, threshold=1.5),
                        DecisionNode(SplitCriterion(c, EQUALS, value_index=0),
                                     leaves[0], leaves[1]),
                        leaves[2])
    return TreeModel((x, c), root, leaves, LearnerConfig())


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

    def test_open_bounds_rejected(self):
        model = dirac_model()
        for iv in (Interval(1.0, 2.0, lower_open=True), Interval(1.0, 3.0, upper_open=True)):
            with pytest.raises(AssignmentError, match="'x'"):
                make_assignment(model.schema, {"x": iv})
            with pytest.raises(AssignmentError, match="'x'"):
                leaf_posterior(model, {"x": iv})
            with pytest.raises(AssignmentError, match="'x'"):
                event_probability(model, {"x": iv})
            with pytest.raises(AssignmentError, match="'x'"):
                event_probability(model, {"c": frozenset({0})}, {"x": iv})

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


from conftest import random_discrete_dataset, random_plf


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
        for leaf in model.leaves:
            constraint = leaf.path.get("x")
            if isinstance(constraint, Interval) and math.isfinite(constraint.upper):
                e = {"x": Interval(constraint.upper + 1.0,
                                   constraint.upper + 1.0)}
                post = leaf_posterior(model, e)
                assert post[leaf.index] == 0.0
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
        with pytest.raises(DataError):
            leaf_posterior(iris_model, {"bogus": Interval(0, 1)})


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


class TestMergedMarginal:
    """Numeric posterior marginals are the exact mixture CDF."""

    def test_equals_the_mixture(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            comps = [random_leaf_cdf(rng) for _ in range(int(rng.integers(1, 6)))]
            w = rng.random(len(comps)) + 0.01
            w /= w.sum()
            merged = _merge_numeric(list(zip(w, comps)))
            grid = np.unique(np.concatenate([d.x for d in comps]))
            for g in np.concatenate([grid, (grid[1:] + grid[:-1]) / 2]):
                assert merged.cdf(g) == pytest.approx(
                    sum(wk * d.cdf(g) for wk, d in zip(w, comps)), abs=1e-12)
                assert merged.cdf_left(g) == pytest.approx(
                    sum(wk * d.cdf_left(g) for wk, d in zip(w, comps)), abs=1e-12)
            mean = sum(wk * d.expectation() for wk, d in zip(w, comps))
            assert abs(merged.expectation() - mean) <= 1e-12

    def test_atoms_stay_at_their_hinges(self):
        merged = _merge_numeric([(0.5, PiecewiseLinearCDF([[0, .5], [1, 1]])),
                                 (0.5, PiecewiseLinearCDF([[2, .5], [3, 1]]))])
        assert merged.x.tolist() == [0.0, 1.0, 2.0, 2.0, 3.0]
        assert merged.F.tolist() == [0.25, 0.5, 0.5, 0.75, 1.0]
        assert merged.expectation() == 1.25

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
        leaves = [
            Leaf(0, 0.5, {"x": PiecewiseLinearCDF([[0, .5], [1, 1]]),
                          "c": Multinomial(c, [1.0, 0.0])}, {"c": frozenset({0})}, 2),
            Leaf(1, 0.5, {"x": PiecewiseLinearCDF([[2, .5], [3, 1]]),
                          "c": Multinomial(c, [0.0, 1.0])}, {"c": frozenset({1})}, 2),
        ]
        root = DecisionNode(SplitCriterion(c, EQUALS, value_index=0), *leaves)
        model = TreeModel(schema, root, leaves, LearnerConfig())
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
    leaves = [
        Leaf(0, 0.75, {"x": PiecewiseLinearCDF([[0, 0.1], [1, 0.3], [2, 0.3], [4, 1]]),
                       "c": Multinomial(c, [1.0, 0.0]),
                       "d": Multinomial(d, [0.5, 0.5, 0.0])}, {"c": frozenset({0})}, 3),
        Leaf(1, 0.25, {"x": Dirac(3.0), "c": Multinomial(c, [0.0, 1.0]),
                       "d": Multinomial(d, [0.2, 0.3, 0.5])}, {"c": frozenset({1})}, 1),
    ]
    root = DecisionNode(SplitCriterion(c, EQUALS, value_index=0), *leaves)
    return TreeModel((x, c, d), root, leaves, LearnerConfig())


def random_chain_model(rng, depth):
    """A chain of ``depth`` random decision nodes over numeric x, y and
    symbolic c, each with a leaf on a random side. Leaves hold random PLFs
    or Diracs at integers, and histograms of c with zeros."""
    schema = (Variable("x", "numeric"), Variable("y", "numeric"),
              Variable("c", "symbolic", ("a", "b", "c", "d")))
    priors = rng.dirichlet(np.ones(depth + 1))
    leaves = []
    for k, prior in enumerate(priors):
        dists = {}
        for var in schema[:2]:
            if rng.random() < 0.25:
                dists[var.name] = Dirac(float(rng.integers(-3, 4)))
            else:
                dists[var.name] = random_plf(rng, zero_start=bool(rng.random() < 0.5))
        p = rng.random(4) * (rng.random(4) < 0.7)
        p[rng.integers(0, 4)] += 0.1
        dists["c"] = Multinomial(schema[2], p / p.sum())
        leaves.append(Leaf(k, float(prior), dists, {}, 1))
    node = leaves[-1]
    for leaf in reversed(leaves[:-1]):
        if rng.random() < 0.3:
            crit = SplitCriterion(schema[2], EQUALS, value_index=int(rng.integers(0, 4)))
        else:
            crit = SplitCriterion(schema[int(rng.integers(0, 2))], THRESHOLD,
                                  threshold=float(rng.uniform(-10, 10)))
        sides = (leaf, node) if rng.random() < 0.5 else (node, leaf)
        node = DecisionNode(crit, *sides)
    return TreeModel(schema, node, leaves, LearnerConfig())


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
