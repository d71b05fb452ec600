"""Exact posterior reasoning over a learnt tree mixture.

All operations evaluate per-leaf factors under the leaf-wise independence
assumption and mix them with the normalized leaf posterior. Leaves whose
path conditions contradict the evidence are skipped; this is exact, since
such leaves would receive weight 0 anyway.
"""

from __future__ import annotations

import math

import numpy as np

from .data import Assignment, AssignmentError, Dataset, Interval
from .learner import Leaf, TreeModel
from .multinomial import Multinomial
from .plcdf import Dirac, PiecewiseLinearCDF


class ZeroEvidenceError(ValueError):
    """Evidence has zero probability under the model."""


def _validate(model: TreeModel, a: Assignment | None, what: str) -> Assignment:
    a = a or {}
    for name, constraint in a.items():
        var = model.variable(name)
        if var.numeric:
            if not isinstance(constraint, Interval):
                raise AssignmentError(f"{what} for numeric {name!r} must be an interval")
            if constraint.lower_open or constraint.upper_open:
                raise AssignmentError(f"open interval bounds in {what} for {name!r} "
                                      "are not supported")
            if not constraint.lower <= constraint.upper:
                raise AssignmentError(f"inverted or NaN interval in {what} for {name!r}")
        else:
            if isinstance(constraint, Interval):
                raise AssignmentError(f"{what} for symbolic {name!r} must be a value set")
            if not constraint:
                raise AssignmentError(f"empty value set in {what} for {name!r}")
            if any(not 0 <= i < len(var.domain) for i in constraint):
                raise AssignmentError(f"{what} for {name!r} references out-of-domain values")
    return a


def _conditioner(e: Assignment):
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


def leaf_posterior(model: TreeModel, e: Assignment | None = None,
                   prune: bool = True) -> np.ndarray:
    """Distribution P(leaf | e), indexed like ``model.leaves``.

    Every leaf is evaluated at once from the model's leaf table: the prior
    vector times one evidence factor column per constrained variable, in
    the order of ``e``. With ``prune`` enabled, leaves whose path region
    does not overlap the evidence get weight 0 whatever their factors.
    """
    e = _validate(model, e, "evidence")
    table = model.table
    weights = table.prior.copy()
    for name, constraint in e.items():
        weights *= table.column(name).factor(table.all_leaves, constraint)
    if prune:
        weights[~table.compatible(e)] = 0.0
    total = weights.sum()
    if total <= 0.0:
        raise ZeroEvidenceError(_zero_explanation(model, e))
    return weights / total


def _zero_explanation(model: TreeModel, e: Assignment) -> str:
    parts = []
    for name, constraint in e.items():
        var = model.variable(name)
        if isinstance(constraint, Interval):
            parts.append(f"{name} in {constraint}")
        else:
            labels = sorted(var.domain[i] for i in constraint)
            parts.append(f"{name} in {{{', '.join(labels)}}}")
    detail = "; ".join(parts) if parts else "(empty)"
    return f"evidence has zero probability under the model: {detail}"


def _conditioned(model: TreeModel, e: Assignment | None, names):
    """The leaves with positive posterior P(leaf | e): their posteriors as
    floats, and for each such leaf its distributions of ``names``
    conditioned on ``e``."""
    posterior = leaf_posterior(model, e)
    condition = _conditioner(e or {})
    weights, dists = [], []
    for k in np.flatnonzero(posterior):
        leaf = model.leaves[k]
        weights.append(float(posterior[k]))
        dists.append({name: condition(leaf.distributions[name], name) for name in names})
    return weights, dists


def event_probability(model: TreeModel, q: Assignment,
                      e: Assignment | None = None) -> float:
    """Posterior query mass P(q | e): the leaf posterior times each query
    constraint's mass column over the leaves it keeps, where a variable
    with evidence takes its mass from the conditioned leaf distributions,
    summed in leaf order."""
    q = _validate(model, q, "query")
    posterior = leaf_posterior(model, e)
    e = e or {}
    keep = np.flatnonzero(posterior)
    f = posterior[keep]
    for name, constraint in q.items():
        f = f * model.table.column(name).mass(keep, constraint, e.get(name))
    return min(1.0, max(0.0, float(np.cumsum(f)[-1])))


def _merge_numeric(components) -> PiecewiseLinearCDF:
    """Positively weighted step-free components (conditioned leaf CDFs) as
    their exact mixture CDF ``sum_k w_k F_k`` on the union of their hinges.
    A grid point above the first where some components have their
    first-hinge atom becomes a step: the mixture's left limit, which leaves
    those atoms out, then its value."""
    xs = np.unique(np.concatenate([d.x for _, d in components]))
    F = np.zeros_like(xs)
    for w, d in components:
        F += w * d.cdf_vec(xs)
    first = xs.searchsorted([d.x[0] for _, d in components])
    atoms = np.bincount(first, weights=[w * d.F[0] for w, d in components],
                        minlength=len(xs))
    step = np.flatnonzero(atoms[1:] > 0.0) + 1  # F[0] itself is the atom at xs[0]
    xs = np.insert(xs, step, xs[step])
    F = np.insert(F, step, (F - atoms)[step])
    F = F / F[-1]  # guard fp drift; mixture weights sum to 1
    F = np.maximum.accumulate(F)
    F[-1] = 1.0
    return PiecewiseLinearCDF(np.column_stack([xs, F]))


def posterior_distributions(model: TreeModel, e: Assignment | None = None) -> dict:
    """Per-variable posterior marginals given evidence, as superimposed
    leaf distributions (the exact mixture CDF for numeric, histogram mixture
    for symbolic)."""
    weights, dists = _conditioned(model, e, [var.name for var in model.schema])
    out = {}
    for var in model.schema:
        comps = [(w, d[var.name]) for w, d in zip(weights, dists)]
        if var.numeric:
            out[var.name] = _merge_numeric(comps)
        else:
            p = np.zeros(len(var.domain))
            for w, d in comps:
                p += w * d.p
            out[var.name] = Multinomial(var, p / p.sum())
    return out


def expectation_query(model: TreeModel, target: str,
                      e: Assignment | None = None, theta: float = 0.95):
    """Expectation of a numeric variable with a confidence interval.

    Returns ``(mean, lower, upper)``. The mean is the exact mixture mean
    ``sum_k P(leaf k | e) * E[target | leaf k, e]``; the interval comes from
    the merged posterior CDF of the target, widened to contain the mean.
    """
    var = model.variable(target)
    if not var.numeric:
        raise AssignmentError(
            f"{target!r} is symbolic; use posterior_distributions instead")
    comps = [(w, d[target]) for w, d in zip(*_conditioned(model, e, [target]))]
    mean = sum(w * d.expectation() for w, d in comps)
    l, u = _merge_numeric(comps).confidence_interval(theta)
    return mean, min(l, mean), max(u, mean)


def _max_density_point(dist):
    """Argmax of the density and its value: the midpoint of the steepest
    piece (leftmost on ties), or a point mass's value with unit density."""
    if len(dist.x) == 1:
        return float(dist.x[0]), 1.0
    x, F = dist.x, dist.F
    slopes = (F[1:] - F[:-1]) / (x[1:] - x[:-1])
    k = int(slopes.argmax())
    return float((x[k] + x[k + 1]) / 2.0), float(slopes[k])


def mpe(model: TreeModel, e: Assignment | None = None):
    """Most probable explanation: a complete world and its score.

    The score mixes probability mass (symbolic, point masses) with density
    (continuous); it is only comparable between candidates under the same
    evidence. Ties break to the lowest leaf index.
    """
    weights, dists = _conditioned(model, e, [var.name for var in model.schema])
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
                point, f = _max_density_point(dist)
                world[var.name] = point
                score *= f
        if score > 0.0 and (best is None or score > best[1]):
            best = (world, score)
    if best is None:
        raise ZeroEvidenceError(_zero_explanation(model, e or {}))
    return best


def _route(model: TreeModel, values: np.ndarray) -> np.ndarray:
    """Index in ``model.leaves`` of the leaf each row of ``values`` reaches,
    routing all rows through each decision node at once."""
    out = np.empty(len(values), dtype=np.intp)
    stack = [(model.root, np.arange(len(values)))]
    while stack:
        node, rows = stack.pop()
        if isinstance(node, Leaf):
            out[rows] = node.index
        elif len(rows):
            crit = node.criterion
            left = crit.matches(values[rows, model._index[crit.variable.name]])
            stack.append((node.right, rows[~left]))
            stack.append((node.left, rows[left]))
    return out


def log_likelihood(model: TreeModel, data: Dataset):
    """Average per-row log-likelihood and the fraction of zero-likelihood rows.

    Each row is scored in the unique leaf reached by descending the tree:
    log prior plus log density (numeric) or log mass (symbolic), added in
    schema order. Rows with any zero factor are excluded from the average
    and counted separately; the others are summed in row order. Returns
    ``(average, zero_fraction)``; the average is NaN when every row has
    zero likelihood.
    """
    if tuple(data.schema) != tuple(model.schema):
        raise AssignmentError("dataset schema (names, kinds and symbolic domains) "
                              "does not match the model")
    if len(data) == 0:
        raise AssignmentError("cannot score a dataset without rows")
    leaf = _route(model, data.values)
    logp = np.log(model.table.prior)[leaf]
    zero = np.zeros(len(data), dtype=bool)
    for j, var in enumerate(model.schema):
        dists = model.table.column(var.name)
        column = data.values[:, j]
        if var.symbolic:
            f = dists.p[leaf, column.astype(np.intp)]
        else:
            f = dists.density(leaf, column)
        positive = f > 0.0
        zero |= ~positive
        logp += np.log(np.where(positive, f, 1.0))
    kept = logp[~zero]
    average = float(np.cumsum(kept)[-1] / len(kept)) if len(kept) else math.nan
    return average, float(zero.sum() / len(data))


def sample(model: TreeModel, n: int, rng, e: Assignment | None = None) -> Dataset:
    """Draw ``n`` complete worlds: leaf from the posterior, then each
    variable independently from its (conditioned) leaf distribution."""
    if n < 1:
        raise AssignmentError("sample count must be >= 1")
    posterior = leaf_posterior(model, e)
    condition = _conditioner(e or {})
    leaf_idx = rng.choice(len(model.leaves), size=n, p=posterior)
    values = np.empty((n, len(model.schema)))
    for k in np.unique(leaf_idx):
        leaf = model.leaves[k]
        rows = np.nonzero(leaf_idx == k)[0]
        for j, var in enumerate(model.schema):
            dist = condition(leaf.distributions[var.name], var.name)
            values[rows, j] = dist.sample(rng, len(rows))
    return Dataset(model.schema, values)
