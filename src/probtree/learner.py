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
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .data import DataError, Dataset, Variable, as_float, as_int
from .leaftable import LeafTable, regions
from .multinomial import Multinomial, entropy_rel, packed_histograms
from .plcdf import build_quantile_dataset, cdf_learn, packed_cdfs

_PURE = 1e-12  # impurity at or below this counts as zero
_BLOCK = 4096  # boundaries scored at once by the numeric split search


def goes_left(numeric, x, value):
    """The child-path rule: x takes a split's left branch if x <= value for a
    numeric variable and x == value for a symbolic one; element-wise."""
    return np.where(numeric, x <= value, x == value)


@dataclass(frozen=True)
class SplitCriterion:
    """Decision-node test of ``variable`` against ``value``: a finite threshold
    for a numeric variable, a domain index (a whole float too) for a symbolic one."""

    variable: Variable
    value: float

    def __post_init__(self):
        var, v = self.variable, as_float(self.value)
        if v is None or not (math.isfinite(v) if var.numeric
                             else v.is_integer() and 0 <= v < len(var.domain)):
            what = "a finite threshold" if var.numeric else "an index of its domain"
            raise DataError(f"a split of {var.kind} {var.name!r} needs {what}, "
                            f"got {self.value!r}")

    def matches(self, cell):
        """Whether a cell, or each cell of an array, takes the left branch."""
        return goes_left(self.variable.numeric, cell, self.value)

    def label(self) -> str:
        if self.variable.numeric:
            return f"{self.variable.name} <= {self.value:g}"
        return f"{self.variable.name} = {self.variable.domain[int(self.value)]}"


@dataclass
class Leaf:
    """Terminal node: a mixture component with per-variable distributions."""

    index: int
    prior: float
    distributions: dict
    sample_count: float


class Tree(NamedTuple):
    """A tree as node arrays, the layout of scikit-learn's ``Tree``. Node 0 is
    the root. Node i tests the schema variable ``feature[i]`` against
    ``value[i]``: by ``goes_left`` it goes to node ``left[i]``, else to
    ``right[i]``. A leaf node has feature -1 and holds leaf ``leaf[i]``."""

    feature: np.ndarray
    value: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf: np.ndarray

    @staticmethod
    def of(nodes) -> "Tree":
        """The tree of the flat list of its ``(feature, value, left, right,
        leaf)`` rows."""
        a = np.array(nodes, dtype=float).reshape(-1, 5)
        feature, left, right, leaf = a[:, [0, 2, 3, 4]].T.astype(np.intp)
        return Tree(feature, a[:, 1].copy(), left, right, leaf)


class TreeModel:
    """A learnt or loaded tree with its leaves; immutable. ``tree``
    holds the nodes as arrays and ``table`` the leaves packed, which
    queries read; ``leaves`` is an object view of the table, built when
    first read. Leaf k's path region is entry k of ``table.regions``."""

    def __init__(self, schema, tree: Tree, table: LeafTable, config: "LearnerConfig"):
        self.schema, self.tree, self.table, self.config = tuple(schema), tree, table, config

    def criterion(self, i: int) -> SplitCriterion:
        """The test of split node ``i``."""
        return SplitCriterion(self.schema[self.tree.feature[i]], float(self.tree.value[i]))

    @cached_property
    def leaves(self) -> list[Leaf]:
        t = self.table
        columns = [packed_histograms(var, t.store[var.name]) if var.symbolic
                   else packed_cdfs(*t.store[var.name]) for var in self.schema]
        names = [var.name for var in self.schema]
        return [Leaf(k, prior, dict(zip(names, dists)), count)
                for k, (prior, count, *dists) in enumerate(
                    zip(t.prior.tolist(), t.sample_count.tolist(), *columns))]

    def route(self, values: np.ndarray) -> np.ndarray:
        """Index in ``leaves`` of the leaf each row of ``values`` reaches: the
        rows not at a leaf yet step down one level of the node arrays at once."""
        t = self.tree
        numeric = np.array([var.numeric for var in self.schema])
        node, rows = np.zeros(len(values), dtype=np.intp), np.arange(len(values))
        while rows.size:
            at = node[rows]
            f = t.feature[at]
            inner = f >= 0
            rows, at, f = rows[inner], at[inner], f[inner]
            x, v = values[rows, f], t.value[at]
            node[rows] = np.where(goes_left(numeric[f], x, v), t.left[at], t.right[at])
        return t.leaf[node]

    def descend(self, row) -> Leaf:
        return self.leaves[int(self.route(np.asarray(row, dtype=float)[None])[0])]

    def variable(self, name: str) -> Variable:
        for v in self.schema:
            if v.name == name:
                return v
        raise DataError(f"unknown variable {name!r}")

    def parameter_count(self) -> int:
        """The hinges and histogram cells of all leaves."""
        return sum(len(p[0]) if isinstance(p, tuple) else p.size
                   for p in self.table.store.values())


def _table(schema, tree: Tree, prior, count, columns: dict) -> LeafTable:
    """The leaf table of ``tree``: the leaves' priors and sample counts, and
    their distributions, a list per variable name in ``columns``, packed: a
    numeric variable's hinges as ``(x, F, first, last)``, a symbolic one's
    histograms as a [leaf, k] table."""
    store = {}
    for var in schema:
        column = columns[var.name]
        if var.symbolic:
            store[var.name] = np.array([m.p for m in column], dtype=float)
            continue
        sizes = np.array([len(c.x) for c in column], dtype=np.intp)
        last = np.cumsum(sizes) - 1
        store[var.name] = (np.concatenate([c.x for c in column]),
                           np.concatenate([c.F for c in column]), last - sizes + 1, last)
    return LeafTable(prior, count, store, regions(schema, tree, len(prior))[0])


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
        m, gain, eps, d = (as_float(self.min_samples_leaf),
                           as_float(self.min_impurity_improvement), as_float(self.epsilon),
                           as_int(self.max_depth))
        if m is None or not (0.0 < m <= 1.0 or m >= 1.0 and m.is_integer()):
            raise DataError("min_samples_leaf must be a fraction in (0, 1] or a whole "
                            f"weight >= 1, got {self.min_samples_leaf!r}")
        if gain is None or not gain >= 0:
            raise DataError("min_impurity_improvement must be a number >= 0")
        if eps is None or not eps >= 0:
            raise DataError("epsilon must be a number >= 0")
        if self.max_depth is not None and (d is None or d < 0):
            raise DataError("max_depth must be an integer >= 0")
        # plain numbers, which JSON can write; an integer min_samples_leaf stays a weight
        whole = as_int(self.min_samples_leaf)
        for name, value in zip(("min_samples_leaf", "min_impurity_improvement", "epsilon",
                                "max_depth"), (m if whole is None else whole, gain, eps, d)):
            object.__setattr__(self, name, value)
        if self.targets is not None:
            if not all(isinstance(t, str) for t in self.targets):
                raise DataError("targets must be variable names")
            if len(set(self.targets)) != len(self.targets):
                raise DataError(f"targets name a variable twice: {list(self.targets)}")

    def resolve_min_weight(self, total_weight: float) -> float:
        m = self.min_samples_leaf
        if isinstance(m, float) and 0.0 < m <= 1.0:
            return float(math.ceil(m * total_weight))
        return float(m)

    def to_json(self) -> dict:
        return {**asdict(self), "targets": list(self.targets) if self.targets else None}

    @staticmethod
    def from_json(obj: dict) -> "LearnerConfig":
        """The config of ``to_json``'s object; a missing field takes its default."""
        if not isinstance(obj, dict):
            raise DataError(f"a config must be an object, not a {type(obj).__name__}")
        given = {f.name: obj[f.name] for f in fields(LearnerConfig) if f.name in obj}
        targets = given.pop("targets", None)
        if targets is not None and not isinstance(targets, list):
            raise DataError("targets must be a list of variable names")
        return LearnerConfig(**given, targets=tuple(targets) if targets else None)


# -- impurity ----------------------------------------------------------------


def _weighted_mse(values: np.ndarray, weights: np.ndarray) -> float:
    total = weights.sum()
    mean = float((weights * values).sum() / total)
    return float((weights * (values - mean) ** 2).sum() / total)


def _counts(var: Variable, col: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The weight of each value of symbolic ``var`` in its column ``col``."""
    return np.bincount(col.astype(np.intp), weights=weights, minlength=len(var.domain))


class _Scope:
    """Per-node impurity scope: its rows, parent impurities and the scorer.

    The statistics of B row sets are one ``(S, B)`` array: row 0 holds the
    weight, a symbolic scope variable the weight of each of its labels (k
    rows) and a numeric one Σw·x and Σw·x² (2 rows); ``rows[j]`` is the
    slice of scope variable j."""

    def __init__(self, schema, scope_indices, values, weights):
        self.schema = schema
        self.values = values
        self.weights = weights
        self.total = float(weights.sum())
        self.sym = [j for j in scope_indices if schema[j].symbolic]
        self.num = [j for j in scope_indices if schema[j].numeric]
        self.rows, self.size = {}, 1
        for j in scope_indices:
            width = len(schema[j].domain) if schema[j].symbolic else 2
            self.rows[j] = slice(self.size, self.size + width)
            self.size += width
        self.parent_h = {j: float(entropy_rel(_counts(schema[j], values[:, j], weights)))
                         for j in self.sym}
        self.parent_mse = {j: _weighted_mse(values[:, j], weights) for j in self.num}

    def grouped(self, groups: np.ndarray, n: int) -> np.ndarray:
        """Statistics of the rows in each of ``n`` groups (row -> group id)."""
        w = self.weights
        stats = np.empty((self.size, n))
        stats[0] = np.bincount(groups, weights=w, minlength=n)
        for j in self.sym:
            k = len(self.schema[j].domain)
            cell = self.values[:, j].astype(np.intp) * n + groups
            stats[self.rows[j]] = np.bincount(cell, weights=w, minlength=k * n).reshape(k, n)
        for j in self.num:
            wx = w * self.values[:, j]
            stats[self.rows[j]] = (np.bincount(groups, weights=wx, minlength=n),
                                   np.bincount(groups, weights=wx * self.values[:, j], minlength=n))
        return stats

    def ordered(self, order: np.ndarray) -> np.ndarray:
        """Statistics of each row on its own, the rows in the order ``order``."""
        stats = np.zeros((self.size, len(order)))
        w = np.take(self.weights, order, out=stats[0])
        for j in self.sym:
            stats[self.rows[j]][self.values[order, j].astype(np.intp), np.arange(len(w))] = w
        for j in self.num:
            x, (wx, wxx) = self.values[order, j], stats[self.rows[j]]
            np.multiply(w, x, out=wx)
            np.multiply(wx, x, out=wxx)
        return stats

    def all_pure(self) -> bool:
        return (all(h <= _PURE for h in self.parent_h.values())
                and all(m <= _PURE for m in self.parent_mse.values()))

    def score(self, left: np.ndarray, right: np.ndarray, total) -> np.ndarray:
        """Combined relative impurity improvement of B binary splits of rows
        of weight ``total``, given the statistics of each side.

        Per symbolic variable: parent relative entropy minus the
        weight-averaged children's. Per numeric variable: the fraction by
        which the within-population MSE shrinks. Each class of variables
        is averaged with weight 1/|class|^2; an already-pure variable
        contributes 0.
        """
        wl, wr = left[0], right[0]
        improvement = np.zeros(len(wl))
        if self.sym:
            s = np.zeros(len(wl))
            for j in self.sym:
                hp = self.parent_h[j]
                if hp <= _PURE:
                    continue
                r = self.rows[j]
                s += hp - (wl * entropy_rel(left[r]) + wr * entropy_rel(right[r])) / total
            improvement += s / len(self.sym) ** 2
        if self.num:
            s = np.zeros(len(wl))
            for j in self.num:
                mp = self.parent_mse[j]
                if mp <= _PURE:
                    continue
                (s1l, s2l), (s1r, s2r) = left[self.rows[j]], right[self.rows[j]]
                ml = np.maximum(s2l / wl - (s1l / wl) ** 2, 0.0)
                mr = np.maximum(s2r / wr - (s1r / wr) ** 2, 0.0)
                s += (mp - (wl * ml + wr * mr) / total) / mp
            improvement += s / len(self.num) ** 2
        return improvement


def impurity_improvement(data: Dataset, candidate: SplitCriterion,
                         scope=None) -> float:
    """Improvement of one candidate split over ``data``, scored on ``scope``
    (variable names; defaults to all variables)."""
    scope_idx = ([data.column_index(n) for n in scope] if scope is not None
                 else list(range(len(data.schema))))
    j = data.column_index(candidate.variable.name)
    left = candidate.matches(data.values[:, j])
    if not left.any() or left.all():
        raise DataError("candidate split leaves one side empty")
    sc = _Scope(data.schema, scope_idx, data.values, data.weights)
    sides = sc.grouped((~left).astype(np.intp), 2)
    return float(sc.score(sides[:, :1], sides[:, 1:], sc.total)[0])


# -- candidate search --------------------------------------------------------


def _best_numeric_split(scope: _Scope, j: int, min_weight: float):
    """``(improvement, threshold)`` of the best threshold for numeric variable
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
    # column i of ``prefix`` holds the statistics of the i + 1 smallest
    # values; blocks of boundaries are scored in turn, so that the
    # temporaries of the scorer stay small
    prefix = scope.ordered(order)
    np.cumsum(prefix, axis=1, out=prefix)
    last = prefix[:, -1:]
    scores = []
    for start in range(0, boundary.size, _BLOCK):
        left = prefix[:, boundary[start:start + _BLOCK]]
        scores.append(scope.score(left, last - left, total))
    improvement = np.concatenate(scores)
    k = int(np.argmax(improvement))  # ties keep the lowest position index
    pos = boundary[k]
    return float(improvement[k]), (vs[pos] + vs[pos + 1]) / 2.0


def _best_symbolic_split(scope: _Scope, j: int, min_weight: float):
    """``(improvement, value index)`` of the best one-vs-rest value for symbolic
    variable ``j``, or None. A value that the node's path excludes has no
    rows, so ``min_weight`` (at least 1) rules it out."""
    k = len(scope.schema[j].domain)
    by_value = scope.grouped(scope.values[:, j].astype(np.intp), k)
    # each value's rest is the sum of the other values' groups, not the node
    # minus the value, so two values that split the rows alike tie exactly
    # (the lower index wins); a row's rest is a matrix-vector product and a
    # label block's a matrix product: BLAS sums in another order for each,
    # and one product over all rows would move the last bits
    others = 1.0 - np.eye(k)
    rest = np.matmul(others, by_value[:, :, None])[:, :, 0]
    for block in (scope.rows[i] for i in scope.sym):
        rest[block] = (others @ by_value[block].T.copy()).T
    values = np.flatnonzero((by_value[0] >= min_weight) & (rest[0] >= min_weight))
    if values.size == 0:
        return None
    improvement = scope.score(by_value[:, values], rest[:, values], scope.total)
    i = int(np.argmax(improvement))  # ties keep the lowest value index
    return float(improvement[i]), int(values[i])


# -- tree construction -------------------------------------------------------


def grow(root, split) -> Tree:
    """Build a tree top-down from the item ``root``, depth-first, left child
    first, with nodes numbered in that order: ``split(item)`` returns a leaf
    index, or ``(feature, value, left_item, right_item)``, for the node
    ``item``."""
    nodes, stack = [], [(root, None)]  # (item, where its number goes in nodes)
    while stack:
        item, slot = stack.pop()
        if slot is not None:
            nodes[slot] = len(nodes) // 5
        node = split(item)
        if isinstance(node, tuple):
            stack += (node[3], len(nodes) + 3), (node[2], len(nodes) + 2)
            nodes += node[0], node[1], -1, -1, -1
        else:
            nodes += -1, 0.0, -1, -1, node
    return Tree.of(nodes)


def learn(data: Dataset, config: LearnerConfig | None = None) -> TreeModel:
    """Induce a tree mixture model by best splits, depth-first, left child first."""
    config = config or LearnerConfig()
    if len(data) == 0:
        raise DataError("cannot learn from an empty dataset")
    schema = data.schema
    if config.targets:
        scope_idx = [data.column_index(n) for n in config.targets]
        candidate_idx = [j for j in range(len(schema)) if j not in scope_idx]
        if not candidate_idx:
            raise DataError("discriminative mode needs at least one feature variable")
    else:
        scope_idx = candidate_idx = list(range(len(schema)))

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

    prior, count, columns = [], [], {var.name: [] for var in schema}

    def make_leaf(values: np.ndarray, weights: np.ndarray) -> int:
        for var, col in zip(schema, values.T):
            columns[var.name].append(
                Multinomial.fit(var, _counts(var, col, weights)) if var.symbolic
                else cdf_learn(build_quantile_dataset(col, weights), config.epsilon))
        count.append(float(weights.sum()))
        prior.append(count[-1] / total_weight)
        return len(prior) - 1

    def split(item):
        rows, depth = item
        values = data.values[rows]
        weights = data.weights[rows]
        if (weights.sum() < 2 * min_weight
                or (config.max_depth is not None and depth >= config.max_depth)):
            return make_leaf(values, weights)
        scope = _Scope(schema, scope_idx, values, weights)
        if scope.all_pure():
            return make_leaf(values, weights)

        best = None  # (improvement, value, column)
        for j in candidate_idx:
            search = _best_numeric_split if schema[j].numeric else _best_symbolic_split
            found = search(scope, j, min_weight)
            if found is not None and (best is None or found[0] > best[0]):
                best = (*found, j)

        if best is None or best[0] <= config.min_impurity_improvement:
            return make_leaf(values, weights)

        _, v, j = best
        left = goes_left(schema[j].numeric, values[:, j], v)
        return j, v, (rows[left], depth + 1), (rows[~left], depth + 1)

    tree = grow((np.arange(len(data)), 0), split)
    return TreeModel(schema, tree, _table(schema, tree, prior, count, columns), config)
