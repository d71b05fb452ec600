import itertools
import math

import numpy as np
import pytest

from probtree import (AssignmentError, DataError, Dataset, DecisionNode,
                      Interval, Leaf, LearnerConfig, Multinomial,
                      PiecewiseLinearCDF, SplitCriterion, TreeModel, Variable,
                      ZeroEvidenceError, event_probability, expectation_query,
                      leaf_posterior, learn, log_likelihood, make_assignment,
                      mpe, posterior_distributions, sample)
from probtree.learner import EQUALS


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

from conftest import random_discrete_dataset


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

    def test_training_data_has_full_support(self, iris, iris_model):
        avg, zero_frac = log_likelihood(iris_model, iris)
        assert zero_frac == 0.0
        assert math.isfinite(avg)


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
