"""Exact posterior reasoning over a learnt tree mixture.

Every query evaluates all leaves at once on the model's leaf table under the
leaf-wise independence assumption. ``leaf_posterior`` gives a leaf whose path
contradicts the evidence weight 0, which is exact; every other query calls it
once and reads the leaves it keeps, conditioned on the evidence, as arrays.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

import numpy as np

from .data import Assignment, AssignmentError, Dataset, Interval, Variable, as_float, as_int
from .leaftable import Guide, steepest
from .learner import TreeModel
from .multinomial import Multinomial
from .plcdf import PiecewiseLinearCDF, confidence_level


#: the largest sample count: the largest index of an array
MAX_SAMPLE_COUNT = int(np.iinfo(np.intp).max)


class ZeroEvidenceError(ValueError):
    """Evidence has zero probability under the model."""


def _variable(model: TreeModel, name, what: str) -> Variable:
    """The model's variable ``name``, which ``what`` names."""
    for var in model.schema:
        if var.name == name:
            return var
    raise AssignmentError(f"{what} names unknown variable {name!r}")


def _validate(model: TreeModel, a: Assignment | None, what: str) -> Assignment:
    a = {} if a is None else a
    if not isinstance(a, Mapping):
        raise AssignmentError(f"{what} must be a mapping, not a {type(a).__name__}")
    for name, constraint in a.items():
        var = _variable(model, name, what)
        if var.numeric:
            if not isinstance(constraint, Interval):
                raise AssignmentError(f"{what} for numeric {name!r} must be an interval")
            lo, hi = as_float(constraint.lower), as_float(constraint.upper)
            if lo is None or hi is None or not lo <= hi:
                raise AssignmentError(f"{what} for {name!r} must be an interval [l, u] "
                                      f"of real numbers with l <= u, got {constraint!r}")
        else:
            if not isinstance(constraint, (set, frozenset)):
                raise AssignmentError(f"{what} for symbolic {name!r} must be a value set")
            if not constraint:
                raise AssignmentError(f"empty value set in {what} for {name!r}")
            if not all(as_int(i) is not None and 0 <= i < len(var.domain) for i in constraint):
                raise AssignmentError(f"{what} for {name!r} holds values that are not "
                                      f"indices of its domain: {set(constraint)!r}")
    return a


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


def event_probability(model: TreeModel, q: Assignment,
                      e: Assignment | None = None) -> float:
    """Posterior query mass P(q | e): the leaf posterior times each query
    constraint's mass column over the leaves it keeps, where a variable
    with evidence takes its mass from the conditioned leaf distributions,
    summed in leaf order."""
    q = _validate(model, q, "query")
    posterior = leaf_posterior(model, e)
    keep = np.flatnonzero(posterior)
    f, e = posterior[keep], e or {}
    for name, constraint in q.items():
        f = f * model.table.column(name).mass(keep, constraint, e.get(name))
    return min(1.0, max(0.0, float(np.cumsum(f)[-1])))


def _running_sum(v) -> np.ndarray:
    """The sums of the first 0, 1, ..., len(v) entries of ``v``, compensated
    as in Sum2 of Ogita, Rump and Oishi: TwoSum gives the exact rounding
    error of each addition in ``np.cumsum``, and the errors' sum is added."""
    s = np.cumsum(np.concatenate(([0.0], v)))
    t = s[1:] - s[:-1]
    return np.concatenate(([0.0], s[1:] + np.cumsum((s[:-1] - (s[1:] - t)) + (v - t))))


def _merge_numeric(w, owner, x, F) -> PiecewiseLinearCDF:
    """The mixture CDF ``sum_k w_k F_k`` of step-free CDFs, packed as
    ``NumericColumn.conditioned`` returns them, on the union of their hinges:
    the terms of ``NumericColumn.merge_terms``, with the grid from a sort and
    the events in a stable counting sort by grid index, merged by
    ``_mixture``; a zero on the grid takes the sign of the first zero hinge."""
    xs, at = np.unique(x, return_inverse=True)
    xs[xs == 0.0] = x[np.argmax(x == 0.0)]  # np.unique keeps either sign
    piece = np.flatnonzero(owner[1:] == owner[:-1])  # from hinge j to hinge j + 1
    slope = w[owner[piece]] * (F[piece + 1] - F[piece]) / (x[piece + 1] - x[piece])
    # numpy sorts integers of up to 16 bits stably by radix
    events = np.concatenate([at[piece], at[piece + 1]]).astype(np.min_scalar_type(len(xs)))
    order = np.argsort(events, kind="stable")
    first = np.flatnonzero(np.diff(owner, prepend=-1))
    return _mixture(xs, events[order], np.concatenate([slope, -slope])[order],
                    at[first], w * F[first])


def _mixture(xs, events, slope, first, atom) -> PiecewiseLinearCDF:
    """The mixture CDF on the grid ``xs`` from its terms: each piece event's
    grid index and weighted slope, negative where the piece ends, in order
    of grid index; and each leaf's first hinge's grid index and atom, in
    leaf order. Between grid points it rises at the sum of the slopes of the
    events up to the left one, summed in order with compensation: a steep
    piece between nearly coinciding hinges leaves no rounding error in later
    slopes. A grid point above the first with some atoms becomes a step: the
    left limit, then the value."""
    # the slope right of each grid point: the sum of the events up to it
    rate = _running_sum(slope)[np.cumsum(np.bincount(events, minlength=len(xs)))]
    atoms = np.bincount(first, weights=atom, minlength=len(xs))
    F = _running_sum(atoms + np.concatenate(([0.0], rate[:-1] * (xs[1:] - xs[:-1]))))[1:]
    step = atoms > 0.0
    step[0] = False  # F[0] itself is the atom at xs[0]
    xs, left = np.repeat(xs, 1 + step), np.flatnonzero(step)
    G = np.repeat(F, 1 + step)
    G[left + np.arange(len(left))] = (F - atoms)[left]
    G /= F[-1]  # the weights sum to 1 up to rounding
    return PiecewiseLinearCDF(np.column_stack([xs, np.minimum(np.maximum.accumulate(G), 1.0)]))


def _marginal(column, posterior, given) -> PiecewiseLinearCDF:
    """The merged posterior CDF of a numeric column: without evidence on it
    from the column's order, otherwise from its conditioned leaves."""
    if given is None:
        return _mixture(*column.merge_terms(posterior))
    keep = np.flatnonzero(posterior)
    return _merge_numeric(posterior[keep], *column.conditioned(keep, given))


def posterior_distributions(model: TreeModel, e: Assignment | None = None) -> dict:
    """Per-variable posterior marginals given evidence, as superimposed
    leaf distributions (the exact mixture CDF for numeric, histogram mixture
    for symbolic)."""
    posterior = leaf_posterior(model, e)
    keep = np.flatnonzero(posterior)
    e, out = e or {}, {}
    for var in model.schema:
        column, given = model.table.column(var.name), e.get(var.name)
        if var.numeric:
            out[var.name] = _marginal(column, posterior, given)
        else:
            p = np.cumsum(posterior[keep, None] * column.conditioned(keep, given),
                          axis=0)[-1]  # added in leaf order
            out[var.name] = Multinomial(var, p / p.sum())
    return out


def expectation_query(model: TreeModel, target: str,
                      e: Assignment | None = None, theta: float = 0.95):
    """``(mean, lower, upper)`` of a numeric variable's merged posterior CDF:
    its mean, the mixture mean ``sum_k P(leaf k | e) * E[target | leaf k, e]``,
    and its confidence interval, widened to contain the mean."""
    theta = confidence_level(theta)
    var = _variable(model, target, "expectation target")
    if not var.numeric:
        raise AssignmentError(
            f"{target!r} is symbolic; use posterior_distributions instead")
    posterior = leaf_posterior(model, e)
    merged = _marginal(model.table.column(target), posterior, (e or {}).get(target))
    return (merged.expectation(), *merged.confidence_interval(theta))


def mpe(model: TreeModel, e: Assignment | None = None):
    """Most probable explanation: a complete world and its score.

    The score mixes probability mass (symbolic, point masses) with density
    (continuous); it is only comparable between candidates under the same
    evidence. Ties break to the lowest leaf index. A numeric variable
    without evidence reads its leaves' modes from the leaf table.
    """
    posterior = leaf_posterior(model, e)
    keep = np.flatnonzero(posterior)
    score, e, values = posterior[keep], e or {}, {}
    for var in model.schema:
        column, given = model.table.column(var.name), e.get(var.name)
        if var.symbolic:
            leaves = column.conditioned(keep, given)
            values[var.name], f = leaves.argmax(axis=1), leaves.max(axis=1)
        elif given is None:
            values[var.name], f = column.mode(keep)
        else:
            values[var.name], f = steepest(*column.conditioned(keep, given))
        score = score * f
    k = int(score.argmax())
    if not score[k] > 0.0:
        raise ZeroEvidenceError(_zero_explanation(model, e))
    return ({var.name: var.domain[values[var.name][k]] if var.symbolic
             else float(values[var.name][k]) for var in model.schema}, float(score[k]))


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
    leaf = model.route(data.values)
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


def _quantiles(owner, x, F, rows: int):
    """Quantile u < 1 of a row's leaf's packed CDF, as ``ppf`` gives it: a
    plateau maps to its left end and u <= F[0] to x[0]. No rounding takes a
    quantile past the end of its piece. Returns a function of the leaves and
    uniforms of a block of rows, guided for ``rows`` rows."""
    first = np.flatnonzero(np.diff(owner, prepend=-1))
    guide = Guide(F, first, np.append(first[1:] - 1, len(F) - 1), rows)
    # the piece that ends at each hinge: its start's x and F, its rise in F
    # and its run in x; a first hinge ends the empty piece from itself, which
    # interpolates to its own x
    start = np.arange(-1, len(x) - 1)
    start[first] = first
    rise, run = F - F[start], x - x[start]
    rise[first] = 1.0
    piece = np.stack([F, x, x[start], F[start], rise, run])

    def draw(leaf, u):
        end_F, end_x, x0, F0, dF, dx = piece.take(guide.find(leaf, u), axis=1)
        out = np.minimum(x0 + (u - F0) / dF * dx, end_x)
        np.copyto(out, end_x, where=end_F == u)  # u at a hinge: its own x
        return out
    return draw


def _labels(p, rows: int):
    """The first label of a row's leaf whose cumulative mass is above u times
    the leaf's total, as a function of the leaves and uniforms of a block of
    rows, guided for ``rows`` rows."""
    cum, k = np.cumsum(p, axis=1).ravel(), p.shape[1]
    first = np.arange(0, len(cum), k)
    guide = Guide(cum, first, first + k - 1, rows, scale=cum[first + k - 1], strict=True)
    return lambda leaf, u: guide.find(leaf, u) - leaf * k


def sample_count(n) -> int:
    """``n`` as an int if it is an integer in [1, MAX_SAMPLE_COUNT], the
    sample sizes that ``sample`` takes."""
    k = as_int(n)
    if k is None or not 1 <= k <= MAX_SAMPLE_COUNT:
        raise AssignmentError(f"sample count must be an integer in [1, {MAX_SAMPLE_COUNT}], "
                              f"got {n!r}")
    return k


def sample(model: TreeModel, n: int, rng, e: Assignment | None = None) -> Dataset:
    """Draw ``n`` complete worlds: leaf from the posterior, then each
    variable independently from its (conditioned) leaf distribution. The
    leaves take the first ``n`` uniforms of ``rng``, each inverted against
    the cumulative posterior as ``rng.choice(len(w), size=n, p=w)`` inverts
    them, then each variable in schema order the next ``n`` uniforms,
    inverted against its row's leaf. Uniforms are drawn in blocks of rows,
    which give the same stream as one draw of all."""
    n = sample_count(n)
    posterior = leaf_posterior(model, e)
    keep = np.flatnonzero(posterior)
    w, e = posterior[keep], e or {}
    columns = [model.table.column(var.name).conditioned(keep, e.get(var.name))
               for var in model.schema]
    try:
        leaf, values = np.empty(n, dtype=np.intp), np.empty((n, len(model.schema)))
    except (MemoryError, ValueError):
        raise AssignmentError(f"cannot hold {n} sampled rows in memory") from None
    block = 1 << 13  # rows drawn at once, which bounds the temporaries
    blocks = range(0, n, block)  # a range, not a list: n may be huge
    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    # the first leaf whose cumulative posterior is above u
    guide = Guide(cdf, np.zeros(1, dtype=np.intp), np.full(1, len(w) - 1), n, strict=True)
    for a in blocks:
        leaf[a:a + block] = guide.find(0, rng.random(min(block, n - a)))
    for j, (var, leaves) in enumerate(zip(model.schema, columns)):
        draw = _quantiles(*leaves, n) if var.numeric else _labels(leaves, n)
        for a in blocks:
            values[a:a + block, j] = draw(leaf[a:a + block], rng.random(min(block, n - a)))
    return Dataset(model.schema, values)
