import json
import math
from dataclasses import fields

import numpy as np
import pytest

from probtree import (DataError, Dataset, Dirac, LearnerConfig, Multinomial, PiecewiseLinearCDF,
                      SplitCriterion, TreeModel, Variable, dumps, impurity_improvement, learn)
from probtree import learner
from probtree.multinomial import entropy_rel
from probtree.learner import _best_numeric_split, _best_symbolic_split, _Scope

from conftest import accepts_row, random_discrete_dataset, reference_paths
from reference_train import (ReferenceScope, reference_best_numeric_split,
                             reference_best_symbolic_split, reference_entropy_rel)


def two_symbol_dataset():
    """Four rows where v0 perfectly predicts v1."""
    v0 = Variable("v0", "symbolic", ("a", "b"))
    v1 = Variable("v1", "symbolic", ("x", "y"))
    values = np.array([[0, 0], [0, 0], [1, 1], [1, 1]], dtype=float)
    return Dataset((v0, v1), values)


class TestImpurityImprovement:
    def test_perfect_symbolic_split(self):
        ds = two_symbol_dataset()
        cand = SplitCriterion(ds.schema[0], 0)
        # scoring only v1: relative entropy drops from 1 to 0
        assert impurity_improvement(ds, cand, scope=["v1"]) == pytest.approx(1.0)

    def test_both_variables_scored(self):
        ds = two_symbol_dataset()
        cand = SplitCriterion(ds.schema[0], 0)
        # each variable improves by 1, averaged with weight 1/|sym|^2 = 1/4
        assert impurity_improvement(ds, cand) == pytest.approx(0.5)

    def test_perfect_numeric_split(self):
        schema = (Variable("c", "symbolic", ("a", "b")), Variable("x", "numeric"))
        values = np.array([[0, 0], [0, 0], [1, 10], [1, 10]], dtype=float)
        ds = Dataset(schema, values)
        cand = SplitCriterion(schema[0], 0)
        assert impurity_improvement(ds, cand, scope=["x"]) == pytest.approx(1.0)

    def test_useless_split_scores_zero(self):
        schema = (Variable("c", "symbolic", ("a", "b")), Variable("x", "numeric"))
        values = np.array([[0, 1], [1, 1], [0, 5], [1, 5]], dtype=float)
        ds = Dataset(schema, values)
        cand = SplitCriterion(schema[0], 0)
        assert impurity_improvement(ds, cand, scope=["x"]) == pytest.approx(0.0)

    def test_one_sided_split_rejected(self):
        schema = (Variable("x", "numeric"), Variable("c", "symbolic", ("a", "b", "c")))
        ds = Dataset(schema, np.array([[0, 0], [1, 1], [2, 0]], dtype=float))
        for cand in (SplitCriterion(schema[0], -1.0), SplitCriterion(schema[0], 2.0),
                     SplitCriterion(schema[1], 2)):  # no row holds "c"
            with pytest.raises(DataError, match="one side empty"):
                impurity_improvement(ds, cand)

    def test_unknown_names_rejected(self):
        ds = two_symbol_dataset()
        with pytest.raises(DataError, match="'v2'"):
            impurity_improvement(ds, SplitCriterion(ds.schema[0], 0),
                                 scope=["v1", "v2"])
        stranger = Variable("v2", "symbolic", ("a", "b"))
        with pytest.raises(DataError, match="'v2'"):
            impurity_improvement(ds, SplitCriterion(stranger, 0))


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
                cand = SplitCriterion(var, float(rng.choice(col)))
            else:
                cand = SplitCriterion(var, int(rng.choice(col)))
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
                     _best_symbolic_split(scope, j, 2.0))
            if found is None:
                continue
            imp, value = found
            left = SplitCriterion(var, value).matches(ds.values[:, j])
            assert imp == pytest.approx(reference_improvement(ds, left, everything),
                                        rel=0, abs=1e-12)


class TestSplitCriterion:
    """A split is a variable and a value, a threshold or a domain index,
    and the library builds no split that a tree could not hold."""

    def test_a_split_is_a_variable_and_a_value(self):
        assert [f.name for f in fields(SplitCriterion)] == ["variable", "value"]
        for name in ("THRESHOLD", "EQUALS"):
            assert not hasattr(learner, name)

    @pytest.mark.parametrize("value", [0.5, -1, 3, 3.0, -0.5, math.nan, math.inf, "1", None,
                                       True, 10**400])
    def test_a_symbolic_value_must_index_the_domain(self, iris, value):
        species = iris.schema[iris.column_index("species")]
        with pytest.raises(DataError, match="index of its domain"):
            SplitCriterion(species, value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "1", None, False])
    def test_a_numeric_value_must_be_a_finite_threshold(self, iris, value):
        with pytest.raises(DataError, match="finite threshold"):
            SplitCriterion(iris.schema[0], value)

    @pytest.mark.parametrize("value", [1, 1.0, np.float64(1.0), np.int64(1)])
    def test_a_whole_float_is_an_index(self, iris, value):
        species = iris.schema[iris.column_index("species")]
        crit = SplitCriterion(species, value)
        assert crit.label() == "species = versicolor"
        col = iris.values[:, iris.column_index("species")]
        assert np.array_equal(crit.matches(col), col == 1)
        assert 0 < impurity_improvement(iris, crit) < 1

    def test_a_numeric_split_labels_its_threshold(self, iris):
        crit = SplitCriterion(iris.schema[0], 1)
        assert crit.label() == f"{iris.schema[0].name} <= 1"
        assert crit.matches(0.5) and not crit.matches(1.5)

    def test_one_child_path_rule(self, iris, monkeypatch):
        # learn, route and matches all go through goes_left, and walking a
        # row down the model's criteria reaches the leaf that route finds
        calls = []
        rule = learner.goes_left
        monkeypatch.setattr(learner, "goes_left", lambda *a: calls.append(1) or rule(*a))
        model = learn(iris, LearnerConfig(min_samples_leaf=0.05))
        splits = np.flatnonzero(model.tree.feature >= 0)
        assert len(calls) == len(splits) > 5
        leaf = model.route(iris.values)
        assert len(calls) > len(splits)
        t = model.tree
        for row, k in zip(iris.values, leaf):
            i = 0
            while t.feature[i] >= 0:
                i = t.left[i] if model.criterion(i).matches(row[t.feature[i]]) else t.right[i]
            assert t.leaf[i] == k
        assert len(calls) > len(splits) + len(iris)


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

    def test_missing_json_fields_take_the_defaults(self):
        assert LearnerConfig.from_json({}) == LearnerConfig()
        assert LearnerConfig.from_json({"epsilon": 0.2}) == LearnerConfig(epsilon=0.2)

    def test_repeated_target_rejected(self):
        with pytest.raises(DataError, match="species"):
            LearnerConfig(targets=("species", "species"))


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
        assert model.tree.feature.tolist() == [-1]

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
        assert model.criterion(0).variable.name == "v0"

    def test_threshold_at_midpoint(self):
        schema = (Variable("x", "numeric"), Variable("c", "symbolic", ("a", "b")))
        values = np.array([[1, 0], [2, 0], [8, 1], [9, 1]], dtype=float)
        model = learn(Dataset(schema, values), LearnerConfig(min_samples_leaf=1))
        assert model.criterion(0).value == pytest.approx(5.0)

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
        assert model.criterion(0).value == pytest.approx(2.5)
        # both children are class-pure, so no further splits happen
        assert len(model.leaves) == 2
        for leaf in model.leaves:
            assert leaf.distributions["label"].entropy_rel() == 0.0

    def test_target_never_split_on(self, iris):
        model = learn(iris, LearnerConfig(min_samples_leaf=0.1,
                                          targets=("species",)))
        seen = {model.schema[f].name for f in model.tree.feature if f >= 0}
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
        paths = reference_paths(model)
        for row in ds.values:
            accepting = [k for k, path in enumerate(paths)
                         if accepts_row(path, model.schema, row)]
            assert len(accepting) == 1
            leaf = model.descend(row)
            assert leaf.index == accepting[0]
            counts[leaf.index] += 1
        assert np.all(counts > 0)
        min_w = model.config.resolve_min_weight(ds.total_weight)
        if len(model.leaves) > 1:
            assert np.all(counts >= min_w)


class TestPaths:
    def test_nodes_in_preorder_left_first(self, iris):
        # leaf indices and the model file's node order depend on it
        model = learn(iris, LearnerConfig(min_samples_leaf=0.05))
        t, seen, stack = model.tree, [], [0]
        while stack:
            i = stack.pop()
            if t.feature[i] >= 0:
                stack += t.right[i], t.left[i]
            else:
                seen.append(int(t.leaf[i]))
        assert seen == list(range(len(model.leaves))) and len(seen) > 5
        nodes = json.loads(dumps(model))["nodes"]
        splits = [(i, n) for i, n in enumerate(nodes) if n["type"] == "split"]
        assert splits and all(n["left"] == i + 1 for i, n in splits)
        assert [n["leaf"] for n in nodes if n["type"] == "leaf"] == seen

    def test_numeric_paths_are_half_open(self):
        rng = np.random.default_rng(0)
        schema = (Variable("x", "numeric"),)
        values = np.concatenate([rng.normal(0, 1, 50), rng.normal(10, 1, 50)])
        ds = Dataset(schema, values.reshape(-1, 1))
        model = learn(ds, LearnerConfig(min_samples_leaf=0.3))
        crit, t = model.criterion(0), model.tree
        assert crit.variable.numeric
        left, right = t.left[0], t.right[0]
        while t.feature[left] >= 0:
            left = t.left[left]
        while t.feature[right] >= 0:
            right = t.right[right]
        paths = reference_paths(model)
        (llo, lhi), (rlo, rhi) = paths[t.leaf[left]]["x"], paths[t.leaf[right]]["x"]
        assert llo < crit.value == lhi
        assert crit.value <= rlo < rhi

    def test_symbolic_paths_partition_domain(self, iris_model):
        species_sets = [path.get("species") for path in reference_paths(iris_model)]
        if all(s is None for s in species_sets):
            pytest.skip("no symbolic split in this tree")
        full = frozenset(range(3))
        constrained = [s if s is not None else full for s in species_sets]
        assert frozenset().union(*constrained) == full


class TestSearchKeepsTheReferenceBits:
    """The numeric search gathers prefix statistics in sorted order, keeps
    class counts label-major and scores boundaries in blocks; the reference
    scatters one group per row and scores every boundary at once. Both
    must give the same improvement and threshold, bit for bit; so must the
    symbolic search and its reference, which keeps one statistic apart
    from the next."""

    @staticmethod
    def node(rng, n, labels=(1, 3, 5, 9), weighted=True):
        schema, cols = [], []
        for j, spread in enumerate((3.0, 0.5, 0.0)):  # ties, heavy ties, constant
            schema.append(Variable(f"x{j}", "numeric"))
            cols.append(np.round(rng.normal(0.0, 2.0, n), 1) if spread == 3.0
                        else np.round(rng.normal(0.0, 2.0, n) * spread) if spread
                        else np.full(n, 1.5))
        for j, k in enumerate(labels):
            schema.append(Variable(f"s{j}", "symbolic", tuple(f"v{i}" for i in range(k))))
            # labels that follow x0, so the scores do not all tie
            cols.append(np.clip((cols[0] + rng.normal(0, 1, n)) * k / 8 + k / 2, 0,
                                k - 1).astype(int).astype(float))
        schema.append(Variable("y", "numeric"))
        cols.append(rng.normal(cols[0] * 0.5, 1.0))
        weights = rng.uniform(0.1, 3.0, n) if weighted else np.ones(n)
        return tuple(schema), np.column_stack(cols), weights

    def check(self, schema, values, weights, scope, min_weight, symbolic=False):
        new = _Scope(schema, scope, values, weights)
        ref = ReferenceScope(schema, scope, values, weights)
        assert new.parent_h == ref.parent_h
        search, reference = ((_best_symbolic_split, reference_best_symbolic_split) if symbolic
                             else (_best_numeric_split, reference_best_numeric_split))
        checked = 0
        for j, var in enumerate(schema):
            if var.symbolic != symbolic:
                continue
            got, want = search(new, j, min_weight), reference(ref, j, min_weight)
            assert (got is None) == (want is None), var.name
            if got is not None:
                assert got == want, var.name
                checked += 1
        return checked

    @pytest.mark.parametrize("seed", range(6))
    def test_random_nodes(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.choice([40, 700, 3 * learner._BLOCK]))
        schema, values, weights = self.node(rng, n, weighted=seed % 2 == 0)
        everything = list(range(len(schema)))
        targets = [j for j, v in enumerate(schema) if v.symbolic][-2:] + [len(schema) - 1]
        assert self.check(schema, values, weights, everything, 2.0) > 0
        assert self.check(schema, values, weights, targets, n / 10) > 0

    def test_eight_labels_and_more(self):
        # numpy sums 8 terms or more pairwise, 7 or fewer in sequence; the
        # entropies themselves are compared in the next test
        rng = np.random.default_rng(7)
        for k in (7, 8, 9, 12, 31):
            schema, values, weights = self.node(rng, 2000, labels=(k,))
            values[:, 0] += rng.uniform(-0.05, 0.05, 2000)
            assert self.check(schema, values, weights, [3], 1.0) > 0

    @pytest.mark.parametrize("weighted", [True, False])
    @pytest.mark.parametrize("k", [1, 2, 5, 7, 8, 9, 16, 31])
    def test_symbolic_search(self, k, weighted):
        # the search takes each value's rest in one batched product over the
        # statistics' rows and one product per label block, the reference in
        # one product per statistic; a BLAS kernel that sums in another order
        # (one product over all rows does, from 5 labels) moves the last bits
        rng = np.random.default_rng(100 + k)
        schema, values, weights = self.node(rng, 700, labels=(k, 3), weighted=weighted)
        targets = [j for j, v in enumerate(schema) if v.symbolic] + [len(schema) - 1]
        everything = list(range(len(schema)))
        assert self.check(schema, values, weights, everything, 1.0, symbolic=True) > 0
        assert self.check(schema, values, weights, targets, 70.0, symbolic=True) > 0

    @pytest.mark.parametrize("k", [1, 2, 5, 7, 8, 9, 16, 31, 200])
    def test_entropy_of_label_major_counts(self, k):
        # the scores above can round a last-bit change of an entropy away,
        # so the entropies are compared too, on label-major counts and on
        # the transposed view that the symbolic search passes
        rng = np.random.default_rng(k)
        counts = rng.uniform(0, 3, (500, k)) * (rng.random((500, k)) < 0.7)
        want = reference_entropy_rel(counts)
        assert np.array_equal(entropy_rel(np.ascontiguousarray(counts.T)), want)
        assert np.array_equal(entropy_rel(counts.T), want)
        assert entropy_rel(counts[0]) == want[0]

    def test_more_boundaries_than_one_block(self):
        rng = np.random.default_rng(11)
        n = 2 * learner._BLOCK + 500
        schema, values, weights = self.node(rng, n)
        values[:, 0] = rng.permutation(n)  # n distinct values, n - 1 boundaries
        assert self.check(schema, values, weights, list(range(len(schema))), 1.0) > 0

    def test_tie_across_a_block_edge_takes_the_lowest_position(self):
        # labels A^p B^(n-2p) A^p over x = 0..n-1: cutting after row p or
        # before row n-p give mirrored sides with the same counts, so the
        # two scores tie exactly, in blocks 0 and 2
        n, p = 2 * learner._BLOCK + 100, 50
        schema = (Variable("x", "numeric"), Variable("c", "symbolic", ("A", "B")))
        label = np.ones(n)
        label[:p] = label[-p:] = 0
        values = np.column_stack([np.arange(n, dtype=float), label])
        weights = np.ones(n)
        imp, t = _best_numeric_split(_Scope(schema, [1], values, weights), 0, 1.0)
        assert t == p - 0.5
        assert (imp, t) == reference_best_numeric_split(
            ReferenceScope(schema, [1], values, weights), 0, 1.0)
        mirror, crit = SplitCriterion(schema[0], n - p - 0.5), SplitCriterion(schema[0], t)
        data = Dataset(schema, values)
        assert impurity_improvement(data, mirror, ["c"]) == impurity_improvement(data, crit, ["c"])
