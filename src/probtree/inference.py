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
from .plcdf import Dirac, DistributionError, PiecewiseLinearCDF


class ZeroEvidenceError(ValueError):
    """Evidence has zero probability under the model."""


def _validate(model: TreeModel, a: Assignment | None, what: str) -> Assignment:
    a = a or {}
    for name, constraint in a.items():
        var = model.variable(name)
        if var.numeric:
            if not isinstance(constraint, Interval):
                raise AssignmentError(f"{what} for numeric {name!r} must be an interval")
            if constraint.lower > constraint.upper:
                raise AssignmentError(f"inverted interval in {what} for {name!r}")
        else:
            if isinstance(constraint, Interval):
                raise AssignmentError(f"{what} for symbolic {name!r} must be a value set")
            if not constraint:
                raise AssignmentError(f"empty value set in {what} for {name!r}")
            if any(not 0 <= i < len(var.domain) for i in constraint):
                raise AssignmentError(f"{what} for {name!r} references out-of-domain values")
    return a


def _path_compatible(leaf: Leaf, e: Assignment) -> bool:
    for name, constraint in e.items():
        cond = leaf.path.get(name)
        if cond is None:
            continue
        if isinstance(constraint, Interval):
            if constraint.intersect(cond).empty:
                return False
        elif not (constraint & cond):
            return False
    return True


def _evidence_factor(dist, constraint) -> float:
    """P(e_i | leaf): interval mass, density for point evidence, or event mass."""
    if isinstance(constraint, Interval):
        if constraint.is_point:
            return dist.density(constraint.lower)
        return dist.interval_probability(constraint.lower, constraint.upper)
    return dist.event_probability(constraint)


def _condition(dist, constraint):
    """Leaf distribution conditioned on one evidence constraint, or None if
    the constrained mass is zero."""
    if constraint is None:
        return dist
    if isinstance(constraint, Interval):
        if isinstance(dist, Dirac):
            return dist if constraint.contains(dist.value) else None
        if constraint.is_point:
            return Dirac(constraint.lower) if dist.density(constraint.lower) > 0 else None
        try:
            return dist.crop(constraint.lower, constraint.upper)
        except DistributionError:
            return None
    try:
        return dist.condition(constraint)
    except DistributionError:
        return None


def leaf_posterior(model: TreeModel, e: Assignment | None = None,
                   prune: bool = True) -> np.ndarray:
    """Distribution P(leaf | e), indexed like ``model.leaves``.

    With ``prune`` enabled, leaves whose path contradicts the evidence are
    skipped without evaluating their distributions.
    """
    e = _validate(model, e, "evidence")
    weights = np.zeros(len(model.leaves))
    for k, leaf in enumerate(model.leaves):
        if prune and not _path_compatible(leaf, e):
            continue
        w = leaf.prior
        for name, constraint in e.items():
            w *= _evidence_factor(leaf.distributions[name], constraint)
            if w == 0.0:
                break
        weights[k] = w
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


def event_probability(model: TreeModel, q: Assignment,
                      e: Assignment | None = None) -> float:
    """Posterior query mass P(q | e), mixed over the leaf posterior."""
    q = _validate(model, q, "query")
    posterior = leaf_posterior(model, e)
    e = e or {}
    total = 0.0
    for k, leaf in enumerate(model.leaves):
        if posterior[k] == 0.0:
            continue
        factor = posterior[k]
        for name, constraint in q.items():
            dist = _condition(leaf.distributions[name], e.get(name))
            if dist is None:
                factor = 0.0
                break
            if isinstance(constraint, Interval):
                factor *= dist.interval_probability(constraint.lower, constraint.upper)
            else:
                factor *= dist.event_probability(constraint)
            if factor == 0.0:
                break
        total += factor
    return min(1.0, max(0.0, total))


def _merge_numeric(components) -> "PiecewiseLinearCDF | Dirac":
    """Exact mixture of piecewise-linear/Dirac components as one CDF."""
    components = [(w, d) for w, d in components if w > 0.0]
    if all(isinstance(d, Dirac) for _, d in components):
        values = {d.value for _, d in components}
        if len(values) == 1:
            return Dirac(values.pop())
    xs = np.unique(np.concatenate([
        np.asarray(d.x) if isinstance(d, PiecewiseLinearCDF) else np.array([d.value])
        for _, d in components]))
    F = np.zeros_like(xs)
    for w, d in components:
        if isinstance(d, PiecewiseLinearCDF):
            F += w * d.cdf_vec(xs)
        else:
            F += w * (xs >= d.value)
    F = F / F[-1]  # guard fp drift; mixture weights sum to 1
    F = np.maximum.accumulate(F)
    F[-1] = 1.0
    if len(xs) == 1:
        return Dirac(float(xs[0]))
    return PiecewiseLinearCDF(np.column_stack([xs, F]))


def _components(model: TreeModel, posterior: np.ndarray, e: Assignment, var) -> list:
    """``(P(leaf | e), leaf distribution of var conditioned on e)`` for every
    leaf with positive posterior."""
    comps = []
    for k, leaf in enumerate(model.leaves):
        if posterior[k] == 0.0:
            continue
        dist = _condition(leaf.distributions[var.name], e.get(var.name))
        if dist is None:
            # conditioned mass is zero although the evidence factor was
            # positive: cannot happen, the leaf weight would be zero
            raise AssertionError("inconsistent leaf conditioning")
        comps.append((float(posterior[k]), dist))
    return comps


def posterior_distributions(model: TreeModel, e: Assignment | None = None) -> dict:
    """Per-variable posterior marginals given evidence, as superimposed
    leaf distributions (merged PLF / Dirac for numeric, histogram mixture
    for symbolic)."""
    posterior = leaf_posterior(model, e)
    e = e or {}
    out = {}
    for var in model.schema:
        comps = _components(model, posterior, e, var)
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
    comps = _components(model, leaf_posterior(model, e), e or {}, var)
    mean = sum(w * d.expectation() for w, d in comps)
    l, u = _merge_numeric(comps).confidence_interval(theta)
    return mean, min(l, mean), max(u, mean)


def _max_density_point(dist):
    """Argmax of the density and its value; PLF picks the midpoint of the
    steepest piece (leftmost on ties), Dirac contributes unit mass."""
    if isinstance(dist, Dirac):
        return dist.value, 1.0
    slopes = np.diff(dist.F) / np.diff(dist.x)
    k = int(np.argmax(slopes))
    return float((dist.x[k] + dist.x[k + 1]) / 2.0), float(slopes[k])


def mpe(model: TreeModel, e: Assignment | None = None):
    """Most probable explanation: a complete world and its score.

    The score mixes probability mass (symbolic, Dirac) with density
    (continuous); it is only comparable between candidates under the same
    evidence. Ties break to the lowest leaf index.
    """
    posterior = leaf_posterior(model, e)
    e = e or {}
    best = None
    for k, leaf in enumerate(model.leaves):
        if posterior[k] == 0.0:
            continue
        score = float(posterior[k])
        world = {}
        for var in model.schema:
            dist = _condition(leaf.distributions[var.name], e.get(var.name))
            if dist is None:
                score = 0.0
                break
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
        raise ZeroEvidenceError(_zero_explanation(model, e))
    return best


def log_likelihood(model: TreeModel, data: Dataset):
    """Average per-row log-likelihood and the fraction of zero-likelihood rows.

    Each row is scored in the unique leaf reached by descending the tree:
    log prior plus log density (numeric) or log mass (symbolic). Rows with
    any zero factor are excluded from the average and counted separately.
    Returns ``(average, zero_fraction)``; the average is NaN when every
    row has zero likelihood.
    """
    if tuple(data.schema) != tuple(model.schema):
        raise AssignmentError("dataset schema (names, kinds and symbolic domains) "
                              "does not match the model")
    total, finite = 0.0, 0
    zero = 0
    for i in range(len(data)):
        row = data.values[i]
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
    average = total / finite if finite else math.nan
    return average, zero / len(data)


def sample(model: TreeModel, n: int, rng, e: Assignment | None = None) -> Dataset:
    """Draw ``n`` complete worlds: leaf from the posterior, then each
    variable independently from its (conditioned) leaf distribution."""
    if n < 1:
        raise AssignmentError("sample count must be >= 1")
    posterior = leaf_posterior(model, e)
    e = e or {}
    leaf_idx = rng.choice(len(model.leaves), size=n, p=posterior)
    conditioned = {}
    values = np.empty((n, len(model.schema)))
    for k in np.unique(leaf_idx):
        leaf = model.leaves[int(k)]
        dists = conditioned.setdefault(int(k), {
            var.name: _condition(leaf.distributions[var.name], e.get(var.name))
            for var in model.schema})
        rows = np.nonzero(leaf_idx == k)[0]
        for j, var in enumerate(model.schema):
            values[rows, j] = dists[var.name].sample(rng, len(rows))
    return Dataset(model.schema, values)
