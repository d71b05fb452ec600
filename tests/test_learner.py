import numpy as np
import pytest

from probtree import (DataError, Dataset, Dirac, Interval, Leaf, LearnerConfig,
                      Multinomial, PiecewiseLinearCDF, SplitCriterion,
                      TreeModel, Variable, impurity_improvement, learn)
from probtree.learner import (EQUALS, THRESHOLD, _best_numeric_split,
                              _best_symbolic_split, _Scope)

from conftest import random_discrete_dataset


def two_symbol_dataset():
    """Four rows where v0 perfectly predicts v1."""
    v0 = Variable("v0", "symbolic", ("a", "b"))
    v1 = Variable("v1", "symbolic", ("x", "y"))
    values = np.array([[0, 0], [0, 0], [1, 1], [1, 1]], dtype=float)
    return Dataset((v0, v1), values)


class TestImpurityImprovement:
    def test_perfect_symbolic_split(self):
        ds = two_symbol_dataset()
        cand = SplitCriterion(ds.schema[0], EQUALS, value_index=0)
        # scoring only v1: relative entropy drops from 1 to 0
        assert impurity_improvement(ds, cand, scope=["v1"]) == pytest.approx(1.0)

    def test_both_variables_scored(self):
        ds = two_symbol_dataset()
        cand = SplitCriterion(ds.schema[0], EQUALS, value_index=0)
        # each variable improves by 1, averaged with weight 1/|sym|^2 = 1/4
        assert impurity_improvement(ds, cand) == pytest.approx(0.5)

    def test_perfect_numeric_split(self):
        schema = (Variable("c", "symbolic", ("a", "b")), Variable("x", "numeric"))
        values = np.array([[0, 0], [0, 0], [1, 10], [1, 10]], dtype=float)
        ds = Dataset(schema, values)
        cand = SplitCriterion(schema[0], EQUALS, value_index=0)
        assert impurity_improvement(ds, cand, scope=["x"]) == pytest.approx(1.0)

    def test_useless_split_scores_zero(self):
        schema = (Variable("c", "symbolic", ("a", "b")), Variable("x", "numeric"))
        values = np.array([[0, 1], [1, 1], [0, 5], [1, 5]], dtype=float)
        ds = Dataset(schema, values)
        cand = SplitCriterion(schema[0], EQUALS, value_index=0)
        assert impurity_improvement(ds, cand, scope=["x"]) == pytest.approx(0.0)

    def test_one_sided_split_rejected(self):
        ds = two_symbol_dataset()
        cand = SplitCriterion(ds.schema[0], THRESHOLD)  # matches() never true
        object.__setattr__(cand, "threshold", -1.0)
        with pytest.raises(DataError):
            impurity_improvement(ds, cand)


def random_mixed_dataset(rng, weighted):
    n = int(rng.integers(20, 120))
    schema, cols = [], []
    for j in range(int(rng.integers(1, 4))):
        schema.append(Variable(f"x{j}", "numeric"))
        cols.append(np.round(rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 3), n), 1))
    for j in range(int(rng.integers(1, 4))):
        k = int(rng.integers(1, 6))
        schema.append(Variable(f"s{j}", "symbolic", tuple(f"v{i}" for i in range(k))))
        cols.append(rng.integers(0, k, n).astype(float))
    weights = rng.uniform(0.1, 3.0, n) if weighted else None
    return Dataset(tuple(schema), np.column_stack(cols), weights)


def reference_improvement(ds, left, scope):
    """Masked two-pass scoring: bincount entropy, mean-then-variance MSE."""
    w, total = ds.weights, ds.weights.sum()
    sides = [(w[left].sum(), left), (w[~left].sum(), ~left)]
    everything = np.ones(len(ds), dtype=bool)

    def entropy(j, mask):
        k = len(ds.schema[j].domain)
        if k == 1:
            return 0.0
        c = np.bincount(ds.values[mask, j].astype(int), weights=w[mask], minlength=k)
        p = c[c > 0] / c.sum()
        return -(p * np.log(p)).sum() / np.log(k)

    def mse(j, mask):
        x, ww = ds.values[mask, j], w[mask]
        mean = (ww * x).sum() / ww.sum()
        return (ww * (x - mean) ** 2).sum() / ww.sum()

    out = 0.0
    sym = [j for j in scope if ds.schema[j].symbolic]
    num = [j for j in scope if ds.schema[j].numeric]
    if sym:
        gains = [entropy(j, everything) - sum(ws * entropy(j, m) for ws, m in sides) / total
                 for j in sym if entropy(j, everything) > 1e-12]
        out += sum(gains) / len(sym) ** 2
    if num:
        gains = [1 - sum(ws * mse(j, m) for ws, m in sides) / total / mse(j, everything)
                 for j in num if mse(j, everything) > 1e-12]
        out += sum(gains) / len(num) ** 2
    return out


class TestScorerReference:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_masked_two_pass(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_mixed_dataset(rng, weighted=seed % 2 == 1)
        names = [v.name for v in ds.schema]
        scopes = [list(range(len(names))),
                  sorted(rng.choice(len(names), int(rng.integers(1, len(names) + 1)),
                                    replace=False).tolist())]
        checked = 0
        for _ in range(20):
            j = int(rng.integers(len(names)))
            var, col = ds.schema[j], ds.values[:, j]
            if var.numeric:
                cand = SplitCriterion(var, THRESHOLD, threshold=float(rng.choice(col)))
            else:
                cand = SplitCriterion(var, EQUALS, value_index=int(rng.choice(col)))
            left = cand.matches(col)
            if left.all() or not left.any():
                continue
            for scope in scopes:
                got = impurity_improvement(ds, cand, scope=[names[i] for i in scope])
                assert got == pytest.approx(reference_improvement(ds, left, scope),
                                            rel=0, abs=1e-12)
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("seed", range(20))
    def test_search_scores_match_reference(self, seed):
        # the best candidate of each variable, as the search scores it
        # (prefix sums for numeric, per-value groups for symbolic)
        rng = np.random.default_rng(1000 + seed)
        ds = random_mixed_dataset(rng, weighted=seed % 2 == 1)
        everything = list(range(len(ds.schema)))
        scope = _Scope(ds.schema, everything, ds.values, ds.weights)
        for j, var in enumerate(ds.schema):
            found = (_best_numeric_split(scope, j, 2.0) if var.numeric else
                     _best_symbolic_split(scope, j, {}, 2.0))
            if found is None:
                continue
            imp, crit = found
            left = crit.matches(ds.values[:, j])
            assert imp == pytest.approx(reference_improvement(ds, left, everything),
                                        rel=0, abs=1e-12)


class TestConfig:
    def test_fraction_bounds(self):
        with pytest.raises(DataError):
            LearnerConfig(min_samples_leaf=1.5)
        with pytest.raises(DataError):
            LearnerConfig(min_samples_leaf=-0.1)

    def test_absolute_minimum(self):
        with pytest.raises(DataError):
            LearnerConfig(min_samples_leaf=0)

    @pytest.mark.parametrize("field", ["epsilon", "min_impurity_improvement"])
    def test_nan_rejected(self, field):
        with pytest.raises(DataError, match=field):
            LearnerConfig(**{field: float("nan")})

    def test_resolve_fraction_is_ceiling(self):
        assert LearnerConfig(min_samples_leaf=0.1).resolve_min_weight(15) == 2.0

    def test_resolve_absolute(self):
        assert LearnerConfig(min_samples_leaf=7).resolve_min_weight(150) == 7.0

    def test_json_round_trip(self):
        cfg = LearnerConfig(min_samples_leaf=5, epsilon=0.01,
                            targets=("species",), max_depth=3)
        assert LearnerConfig.from_json(cfg.to_json()) == cfg


class TestLearn:
    def test_empty_dataset(self):
        schema = (Variable("x", "numeric"),)
        with pytest.raises(DataError):
            learn(Dataset(schema, np.zeros((1, 1))).subset(np.array([], int)))

    def test_overflowing_squares_rejected(self):
        # 1.3**1499 is about 1e170, whose square overflows
        x = 1.3 ** np.arange(1500.0)
        schema = (Variable("s", "symbolic", ("a",)), Variable("big", "numeric"))
        data = Dataset(schema, np.column_stack([np.zeros(1500), x]))
        with pytest.raises(DataError, match="'big'"):
            learn(data, LearnerConfig(min_samples_leaf=1))
        # here x*x stays finite, but its sum over 1000 rows does not
        data = Dataset(schema[1:], np.full((1000, 1), 1e153))
        with pytest.raises(DataError, match="'big'"):
            learn(data, LearnerConfig(min_samples_leaf=1))

    def test_ninety_percent_single_leaf(self, iris):
        model = learn(iris, LearnerConfig(min_samples_leaf=0.9))
        assert len(model.leaves) == 1
        assert isinstance(model.root, Leaf)

    def test_forty_percent_two_leaves(self, iris):
        model = learn(iris, LearnerConfig(min_samples_leaf=0.4))
        assert len(model.leaves) == 2

    def test_max_depth_zero(self, iris):
        model = learn(iris, LearnerConfig(min_samples_leaf=0.1, max_depth=0))
        assert len(model.leaves) == 1

    def test_priors_sum_to_one(self, iris_model, toy_hybrid_model):
        for model in (iris_model, toy_hybrid_model):
            assert sum(l.prior for l in model.leaves) == pytest.approx(1.0, abs=1e-12)

    def test_refinement_grows_monotonically(self, iris):
        sizes = [len(learn(iris, LearnerConfig(min_samples_leaf=f)).leaves)
                 for f in (0.9, 0.4, 0.2, 0.1)]
        assert sizes == sorted(sizes)
        assert sizes[-1] > 1

    def test_pure_node_stops(self):
        schema = (Variable("c", "symbolic", ("a", "b")), Variable("x", "numeric"))
        values = np.array([[0, 5.0], [0, 5.0], [0, 5.0], [0, 5.0]])
        model = learn(Dataset(schema, values), LearnerConfig(min_samples_leaf=1))
        assert len(model.leaves) == 1
        assert model.leaves[0].distributions["x"] == Dirac(5.0)

    def test_constant_column_becomes_dirac(self, iris):
        model = learn(iris, LearnerConfig(min_samples_leaf=0.9))
        leaf = model.leaves[0]
        assert isinstance(leaf.distributions["sepal_length"], PiecewiseLinearCDF)
        assert isinstance(leaf.distributions["species"], Multinomial)

    def test_variable_tie_break_lowest_index(self):
        # v0 and v1 are identical, so their best splits tie exactly
        v0 = Variable("v0", "symbolic", ("a", "b"))
        v1 = Variable("v1", "symbolic", ("a", "b"))
        values = np.array([[0, 0], [0, 0], [1, 1], [1, 1]], dtype=float)
        model = learn(Dataset((v0, v1), values), LearnerConfig(min_samples_leaf=1))
        assert model.root.criterion.variable.name == "v0"

    def test_threshold_at_midpoint(self):
        schema = (Variable("x", "numeric"), Variable("c", "symbolic", ("a", "b")))
        values = np.array([[1, 0], [2, 0], [8, 1], [9, 1]], dtype=float)
        model = learn(Dataset(schema, values), LearnerConfig(min_samples_leaf=1))
        assert model.root.criterion.threshold == pytest.approx(5.0)

    def test_min_impurity_improvement_blocks_split(self, iris):
        model = learn(iris, LearnerConfig(min_samples_leaf=0.1,
                                          min_impurity_improvement=10.0))
        assert len(model.leaves) == 1

    def test_weighted_rows_shift_prior(self):
        schema = (Variable("c", "symbolic", ("a", "b")),)
        values = np.array([[0.0], [1.0]])
        ds = Dataset(schema, values, weights=np.array([3.0, 1.0]))
        model = learn(ds, LearnerConfig(min_samples_leaf=1))
        priors = {model.schema[0].domain[int(l.distributions["c"].argmax())]:
                  l.prior for l in model.leaves}
        assert priors == pytest.approx({"a": 0.75, "b": 0.25})


class TestDiscriminative:
    def test_matches_classification_tree(self):
        # features x, target label: the best class-separating threshold is
        # x <= 2.5 even though x's own spread would prefer a different cut
        x = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 100.0])
        lab = np.array([0, 0, 0, 1, 1, 1], dtype=float)
        schema = (Variable("x", "numeric"), Variable("label", "symbolic", ("n", "p")))
        ds = Dataset(schema, np.column_stack([x, lab]))
        model = learn(ds, LearnerConfig(min_samples_leaf=1, targets=("label",)))
        assert model.root.criterion.threshold == pytest.approx(2.5)
        # both children are class-pure, so no further splits happen
        assert len(model.leaves) == 2
        for leaf in model.leaves:
            assert leaf.distributions["label"].entropy_rel() == 0.0

    def test_target_never_split_on(self, iris):
        model = learn(iris, LearnerConfig(min_samples_leaf=0.1,
                                          targets=("species",)))
        stack, seen = [model.root], set()
        while stack:
            node = stack.pop()
            if isinstance(node, Leaf):
                continue
            seen.add(node.criterion.variable.name)
            stack.extend([node.left, node.right])
        assert "species" not in seen
        assert len(model.leaves) >= 3

    def test_unknown_target(self, iris):
        with pytest.raises(DataError):
            learn(iris, LearnerConfig(targets=("petal_mass",)))

    def test_all_variables_as_targets(self, iris):
        with pytest.raises(DataError):
            learn(iris, LearnerConfig(targets=tuple(v.name for v in iris.schema)))


class TestPartition:
    """Each training row must reach exactly one leaf, and that leaf's
    path constraints must accept it."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_discrete(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_discrete_dataset(rng)
        model = learn(ds, LearnerConfig(min_samples_leaf=2))
        self._check(model, ds)

    def test_iris(self, iris, iris_model):
        self._check(iris_model, iris)

    def test_hybrid(self, toy_hybrid, toy_hybrid_model):
        self._check(toy_hybrid_model, toy_hybrid)

    @staticmethod
    def _check(model: TreeModel, ds: Dataset):
        counts = np.zeros(len(model.leaves))
        for row in ds.values:
            accepting = [l.index for l in model.leaves
                         if l.accepts_row(model.schema, row)]
            assert len(accepting) == 1
            leaf = model.descend(row)
            assert leaf.index == accepting[0]
            counts[leaf.index] += 1
        assert np.all(counts > 0)
        min_w = model.config.resolve_min_weight(ds.total_weight)
        if len(model.leaves) > 1:
            assert np.all(counts >= min_w)


class TestPaths:
    def test_numeric_paths_are_half_open(self):
        rng = np.random.default_rng(0)
        schema = (Variable("x", "numeric"),)
        values = np.concatenate([rng.normal(0, 1, 50), rng.normal(10, 1, 50)])
        ds = Dataset(schema, values.reshape(-1, 1))
        model = learn(ds, LearnerConfig(min_samples_leaf=0.3))
        crit = model.root.criterion
        assert crit.kind == THRESHOLD
        left, right = model.root.left, model.root.right
        while not isinstance(left, Leaf):
            left = left.left
        while not isinstance(right, Leaf):
            right = right.right
        liv, riv = left.path["x"], right.path["x"]
        assert liv.contains(crit.threshold) and liv.upper <= crit.threshold
        assert not riv.contains(crit.threshold) and riv.lower >= crit.threshold

    def test_symbolic_paths_partition_domain(self, iris_model):
        species_sets = [l.path.get("species") for l in iris_model.leaves]
        if all(s is None for s in species_sets):
            pytest.skip("no symbolic split in this tree")
        full = frozenset(range(3))
        constrained = [s if s is not None else full for s in species_sets]
        assert frozenset().union(*constrained) == full
