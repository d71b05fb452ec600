"""Tree induction over mixed symbolic/numeric data.

Generative mode scores candidate splits on all variables with a combined
relative impurity (normalized entropy for symbolic, relative MSE reduction
for numeric); discriminative mode restricts scoring to a target subset and
candidates to the remaining features, which reduces to ordinary CART.
Each leaf stores a prior weight and independent univariate distributions
over every variable, so the whole tree forms a mixture model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import Assignment, DataError, Dataset, Interval, Variable, is_number
from .leaftable import LeafTable
from .multinomial import Multinomial, entropy_rel
from .plcdf import build_quantile_dataset, cdf_learn

_PURE = 1e-12  # impurity at or below this counts as zero

THRESHOLD = "threshold"
EQUALS = "equals"


@dataclass(frozen=True)
class SplitCriterion:
    """Decision-node test: numeric ``x <= threshold`` or symbolic ``x == value``."""

    variable: Variable
    kind: str
    threshold: float = math.nan  # numeric splits
    value_index: int = -1        # symbolic splits

    def matches(self, cell):
        """Whether a cell, or each cell of an array, takes the left branch."""
        if self.kind == THRESHOLD:
            return cell <= self.threshold
        return cell == self.value_index

    def label(self) -> str:
        if self.kind == THRESHOLD:
            return f"{self.variable.name} <= {self.threshold:g}"
        return f"{self.variable.name} = {self.variable.domain[self.value_index]}"


@dataclass
class DecisionNode:
    criterion: SplitCriterion
    left: "DecisionNode | Leaf"   # criterion satisfied
    right: "DecisionNode | Leaf"  # otherwise


@dataclass
class Leaf:
    """Terminal node: mixture component with per-variable distributions."""

    index: int
    prior: float
    distributions: dict
    path: Assignment
    sample_count: float

    def accepts_row(self, schema, row) -> bool:
        for name, constraint in self.path.items():
            j = next(i for i, v in enumerate(schema) if v.name == name)
            if isinstance(constraint, Interval):
                if not constraint.contains(float(row[j])):
                    return False
            elif int(row[j]) not in constraint:
                return False
        return True


@dataclass
class TreeModel:
    """Learnt tree with its leaves; immutable after construction. ``table``
    is the leaf table that queries read, packed from the leaves."""

    schema: tuple[Variable, ...]
    root: "DecisionNode | Leaf"
    leaves: list[Leaf]
    config: "LearnerConfig"

    def descend(self, row) -> Leaf:
        node = self.root
        while isinstance(node, DecisionNode):
            j = self._index[node.criterion.variable.name]
            node = node.left if node.criterion.matches(float(row[j])) else node.right
        return node

    def __post_init__(self):
        self._index = {v.name: j for j, v in enumerate(self.schema)}
        self.table = LeafTable(self.schema, self.leaves)

    def variable(self, name: str) -> Variable:
        for v in self.schema:
            if v.name == name:
                return v
        raise DataError(f"unknown variable {name!r}")

    def parameter_count(self) -> int:
        return sum(d.parameter_count() for leaf in self.leaves
                   for d in leaf.distributions.values())


@dataclass(frozen=True)
class LearnerConfig:
    """Hyperparameters for tree induction.

    ``min_samples_leaf``: float in (0, 1] is a fraction of total training
    weight (ceiling-rounded); an int >= 1 is an absolute weight.
    ``epsilon`` is the CDF fitting tolerance. ``targets`` switches to
    discriminative mode.
    """

    min_samples_leaf: float | int = 0.1
    min_impurity_improvement: float = 0.0
    epsilon: float = 0.05
    targets: tuple[str, ...] | None = None
    max_depth: int | None = None

    def __post_init__(self):
        m = self.min_samples_leaf
        if not is_number(m):
            raise DataError("min_samples_leaf must be a number")
        if isinstance(m, float) and not m.is_integer():
            if not 0.0 < m < 1.0:
                raise DataError("fractional min_samples_leaf must lie in (0, 1)")
        elif isinstance(m, float):
            if not (0.0 < m <= 1.0 or m >= 1.0):
                raise DataError("min_samples_leaf must be positive")
        elif m < 1:
            raise DataError("absolute min_samples_leaf must be >= 1")
        else:
            try:
                float(m)
            except OverflowError:
                raise DataError("absolute min_samples_leaf is beyond the float range") from None
        if not (is_number(self.min_impurity_improvement) and self.min_impurity_improvement >= 0):
            raise DataError("min_impurity_improvement must be a number >= 0")
        if not (is_number(self.epsilon) and self.epsilon >= 0):
            raise DataError("epsilon must be a number >= 0")
        d = self.max_depth
        if d is not None and (isinstance(d, bool) or not isinstance(d, int) or d < 0):
            raise DataError("max_depth must be an integer >= 0")
        if self.targets is not None and not all(isinstance(t, str) for t in self.targets):
            raise DataError("targets must be variable names")

    def resolve_min_weight(self, total_weight: float) -> float:
        m = self.min_samples_leaf
        if isinstance(m, float) and 0.0 < m <= 1.0:
            return float(math.ceil(m * total_weight))
        return float(m)

    def to_json(self) -> dict:
        return {
            "min_samples_leaf": self.min_samples_leaf,
            "min_impurity_improvement": self.min_impurity_improvement,
            "epsilon": self.epsilon,
            "targets": list(self.targets) if self.targets else None,
            "max_depth": self.max_depth,
        }

    @staticmethod
    def from_json(obj: dict) -> "LearnerConfig":
        targets = obj.get("targets")
        if targets is not None and not isinstance(targets, list):
            raise DataError("targets must be a list of variable names")
        return LearnerConfig(
            min_samples_leaf=obj.get("min_samples_leaf", 0.1),
            min_impurity_improvement=obj.get("min_impurity_improvement", 0.0),
            epsilon=obj.get("epsilon", 0.05),
            targets=tuple(targets) if targets else None,
            max_depth=obj.get("max_depth"),
        )


# -- impurity ----------------------------------------------------------------


def _weighted_mse(values: np.ndarray, weights: np.ndarray) -> float:
    total = weights.sum()
    mean = float((weights * values).sum() / total)
    return float((weights * (values - mean) ** 2).sum() / total)


class _Stats(NamedTuple):
    """Sufficient statistics of B row sets over the impurity scope."""

    w: np.ndarray   # (B,) total weight
    counts: dict    # symbolic scope column -> (B, k) weighted class counts
    sums: dict      # numeric scope column -> ((B,) sum w*x, (B,) sum w*x*x)

    def map(self, f) -> "_Stats":
        """Apply the same row-wise operation ``f`` to every statistic."""
        return _Stats(f(self.w), {j: f(c) for j, c in self.counts.items()},
                      {j: (f(s1), f(s2)) for j, (s1, s2) in self.sums.items()})

    def __sub__(self, other: "_Stats") -> "_Stats":
        return _Stats(self.w - other.w, {j: c - other.counts[j] for j, c in self.counts.items()},
                      {j: (s1 - other.sums[j][0], s2 - other.sums[j][1])
                       for j, (s1, s2) in self.sums.items()})


class _Scope:
    """Per-node impurity scope: its rows, parent impurities and the scorer."""

    def __init__(self, schema, scope_indices, values, weights):
        self.schema = schema
        self.values = values
        self.weights = weights
        self.total = float(weights.sum())
        self.sym = [j for j in scope_indices if schema[j].symbolic]
        self.num = [j for j in scope_indices if schema[j].numeric]
        node = self.grouped(np.zeros(len(weights), dtype=np.intp), 1)
        self.parent_h = {j: float(entropy_rel(c[0])) for j, c in node.counts.items()}
        self.parent_mse = {j: _weighted_mse(values[:, j], weights) for j in self.num}

    def grouped(self, groups: np.ndarray, n: int) -> _Stats:
        """Statistics of the rows in each of ``n`` groups (row -> group id)."""
        w = self.weights
        counts = {}
        for j in self.sym:
            k = len(self.schema[j].domain)
            cell = groups * k + self.values[:, j].astype(np.intp)
            counts[j] = np.bincount(cell, weights=w, minlength=n * k).reshape(n, k)
        sums = {}
        for j in self.num:
            wx = w * self.values[:, j]
            sums[j] = (np.bincount(groups, weights=wx, minlength=n),
                       np.bincount(groups, weights=wx * self.values[:, j], minlength=n))
        return _Stats(np.bincount(groups, weights=w, minlength=n), counts, sums)

    def all_pure(self) -> bool:
        return (all(h <= _PURE for h in self.parent_h.values())
                and all(m <= _PURE for m in self.parent_mse.values()))

    def score(self, left: _Stats, right: _Stats, total) -> np.ndarray:
        """Combined relative impurity improvement of B binary splits of rows
        of weight ``total``, given the statistics of each side.

        Per symbolic variable: parent relative entropy minus the
        weight-averaged children's. Per numeric variable: the fraction by
        which the within-population MSE shrinks. Each class of variables
        is averaged with weight 1/|class|^2; an already-pure variable
        contributes 0.
        """
        wl, wr = left.w, right.w
        improvement = np.zeros(len(wl))
        if self.sym:
            s = np.zeros(len(wl))
            for j in self.sym:
                hp = self.parent_h[j]
                if hp <= _PURE:
                    continue
                hl, hr = entropy_rel(left.counts[j]), entropy_rel(right.counts[j])
                s += hp - (wl * hl + wr * hr) / total
            improvement += s / len(self.sym) ** 2
        if self.num:
            s = np.zeros(len(wl))
            for j in self.num:
                mp = self.parent_mse[j]
                if mp <= _PURE:
                    continue
                (s1l, s2l), (s1r, s2r) = left.sums[j], right.sums[j]
                ml = np.maximum(s2l / wl - (s1l / wl) ** 2, 0.0)
                mr = np.maximum(s2r / wr - (s1r / wr) ** 2, 0.0)
                s += (mp - (wl * ml + wr * mr) / total) / mp
            improvement += s / len(self.num) ** 2
        return improvement


def impurity_improvement(data: Dataset, candidate: SplitCriterion,
                         scope=None) -> float:
    """Improvement of one candidate split over ``data``, scored on ``scope``
    (variable names; defaults to all variables)."""
    names = [v.name for v in data.schema]
    scope_idx = ([names.index(n) for n in scope] if scope is not None
                 else list(range(len(names))))
    j = names.index(candidate.variable.name)
    left = candidate.matches(data.values[:, j])
    if not left.any() or left.all():
        raise DataError("candidate split leaves one side empty")
    sc = _Scope(data.schema, scope_idx, data.values, data.weights)
    sides = sc.grouped((~left).astype(np.intp), 2)
    return float(sc.score(sides.map(lambda a: a[:1]), sides.map(lambda a: a[1:]),
                          sc.total)[0])


# -- candidate search --------------------------------------------------------


def _best_numeric_split(scope: _Scope, j: int, min_weight: float):
    """``(improvement, criterion)`` of the best threshold for numeric variable
    ``j`` among midpoints of consecutive distinct sorted values with both
    sides at least ``min_weight``, or None."""
    col = scope.values[:, j]
    order = np.argsort(col, kind="stable")
    vs = col[order]
    cw = np.cumsum(scope.weights[order])
    total = cw[-1]
    boundary = np.nonzero(vs[:-1] < vs[1:])[0]
    boundary = boundary[(cw[boundary] >= min_weight)
                        & (total - cw[boundary] >= min_weight)]
    if boundary.size == 0:
        return None
    # one group per row in sorted order, summed up: row i of ``prefix``
    # holds the statistics of the i + 1 smallest values
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    prefix = scope.grouped(rank, len(order)).map(lambda a: np.cumsum(a, axis=0, out=a))
    left, last = prefix.map(lambda a: a[boundary]), prefix.map(lambda a: a[[-1]])
    del prefix  # free the per-row sums before the right sides are built
    improvement = scope.score(left, last - left, total)
    k = int(np.argmax(improvement))  # ties keep the lowest position index
    pos = boundary[k]
    threshold = (vs[pos] + vs[pos + 1]) / 2.0
    return float(improvement[k]), SplitCriterion(scope.schema[j], THRESHOLD,
                                                 threshold=threshold)


def _best_symbolic_split(scope: _Scope, j: int, path: Assignment, min_weight: float):
    """``(improvement, criterion)`` of the best one-vs-rest value for symbolic
    variable ``j`` among the values still admissible on ``path``, or None."""
    k = len(scope.schema[j].domain)
    by_value = scope.grouped(scope.values[:, j].astype(np.intp), k)
    # each value's rest is the sum of the other values' groups rather than
    # the node minus the value, so two values that split the rows alike tie
    # exactly and the lower index wins
    rest = by_value.map(lambda a: (1.0 - np.eye(k)) @ a)
    values = np.array(sorted(path.get(scope.schema[j].name, range(k))), dtype=np.intp)
    values = values[(by_value.w[values] >= min_weight) & (rest.w[values] >= min_weight)]
    if values.size == 0:
        return None
    improvement = scope.score(by_value.map(lambda a: a[values]),
                              rest.map(lambda a: a[values]), scope.total)
    i = int(np.argmax(improvement))  # ties keep the lowest value index
    return float(improvement[i]), SplitCriterion(scope.schema[j], EQUALS,
                                                 value_index=int(values[i]))


# -- tree construction -------------------------------------------------------


def child_paths(path: Assignment, crit: SplitCriterion):
    """Path constraints of the two children of a node on ``path`` split by
    ``crit``. A symbolic constraint is the set of values still admissible.

    A child region may come out empty (an interval with ``empty`` set, or
    an empty value set); a learnt tree never has one.
    """
    var = crit.variable
    if crit.kind == THRESHOLD:
        prev = path.get(var.name, Interval(-math.inf, math.inf, True, True))
        left = prev.intersect(Interval(-math.inf, crit.threshold, lower_open=True))
        right = prev.intersect(
            Interval(crit.threshold, math.inf, lower_open=True, upper_open=True))
    else:
        prev = path.get(var.name, frozenset(range(len(var.domain))))
        left = prev & frozenset([crit.value_index])
        right = prev - left
    return {**path, var.name: left}, {**path, var.name: right}


def grow(root, split) -> "DecisionNode | Leaf":
    """Build a tree top-down from the item ``root``, depth-first, left child
    first: ``split(item, path)`` returns a Leaf, or ``(criterion, left_item,
    right_item)``, for the node ``item`` with region ``path``. The builder
    gives each child its path by ``child_paths`` and sets each leaf's."""
    top = DecisionNode(None, None, None)  # its left slot receives the root
    stack = [(root, {}, top, "left")]
    while stack:
        item, path, parent, side = stack.pop()
        node = split(item, path)
        if isinstance(node, Leaf):
            node.path = path
        else:
            crit, left, right = node
            lp, rp = child_paths(path, crit)
            node = DecisionNode(crit, None, None)
            stack += (right, rp, node, "right"), (left, lp, node, "left")
        setattr(parent, side, node)
    return top.left


def learn(data: Dataset, config: LearnerConfig | None = None) -> TreeModel:
    """Induce a tree mixture model by best splits, depth-first, left child first."""
    config = config or LearnerConfig()
    if len(data) == 0:
        raise DataError("cannot learn from an empty dataset")
    schema = data.schema
    names = [v.name for v in schema]
    if config.targets:
        unknown = set(config.targets) - set(names)
        if unknown:
            raise DataError(f"unknown target variables: {sorted(unknown)}")
        scope_idx = [names.index(n) for n in config.targets]
        candidate_idx = [j for j in range(len(names)) if j not in scope_idx]
        if not candidate_idx:
            raise DataError("discriminative mode needs at least one feature variable")
    else:
        scope_idx = list(range(len(names)))
        candidate_idx = list(range(len(names)))

    # the split scorer sums w*x*x per numeric column (an infinite x*x too)
    with np.errstate(over="ignore"):
        for var, col in zip(schema, data.values.T):
            if var.numeric and not np.isfinite(data.weights @ (col * col)):
                raise DataError(f"numeric column {var.name!r}: squared values overflow; "
                                "rescale the column")

    total_weight = data.total_weight
    min_weight = config.resolve_min_weight(total_weight)
    if total_weight < min_weight:
        raise DataError("dataset is smaller than one minimum-size leaf")

    leaves: list[Leaf] = []

    def make_leaf(values: np.ndarray, weights: np.ndarray) -> Leaf:
        dists = {}
        for j, var in enumerate(schema):
            col = values[:, j]
            if var.symbolic:
                counts = np.bincount(col.astype(int), weights=weights,
                                     minlength=len(var.domain))
                dists[var.name] = Multinomial.fit(var, counts)
            else:
                points = build_quantile_dataset(col, weights)
                dists[var.name] = cdf_learn(points, config.epsilon)
        leaf = Leaf(index=len(leaves), prior=float(weights.sum()) / total_weight,
                    distributions=dists, path={}, sample_count=float(weights.sum()))
        leaves.append(leaf)
        return leaf

    def split(item, path: Assignment):
        rows, depth = item
        values = data.values[rows]
        weights = data.weights[rows]
        if (weights.sum() < 2 * min_weight
                or (config.max_depth is not None and depth >= config.max_depth)):
            return make_leaf(values, weights)
        scope = _Scope(schema, scope_idx, values, weights)
        if scope.all_pure():
            return make_leaf(values, weights)

        best = None  # (improvement, criterion, column)
        for j in candidate_idx:
            var = schema[j]
            found = (_best_numeric_split(scope, j, min_weight) if var.numeric
                     else _best_symbolic_split(scope, j, path, min_weight))
            if found is not None and (best is None or found[0] > best[0]):
                best = (*found, j)

        if best is None or best[0] <= config.min_impurity_improvement:
            return make_leaf(values, weights)

        _, crit, j = best
        left_mask = crit.matches(values[:, j])
        return crit, (rows[left_mask], depth + 1), (rows[~left_mask], depth + 1)

    root = grow((np.arange(len(data)), 0), split)
    return TreeModel(schema=schema, root=root, leaves=leaves, config=config)
