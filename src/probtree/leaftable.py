"""The leaf table: every leaf of a model packed into read-only arrays, so
that a query evaluates all leaves in a few array operations instead of one
Python call per leaf and variable.

Its store holds per numeric variable all leaves' hinges packed together,
per symbolic variable the ``[leaf, k]`` histogram table; its regions hold
per variable each leaf's path region: the bounds ``lo``/``hi`` of the
values x with ``lo < x <= hi``, or the admissible values, which ``regions``
derives from the tree's node arrays. Every method of a column takes
``leaf``, an index array of the leaves to evaluate, and returns one value
per entry of it, or with ``conditioned`` those leaves' distributions
conditioned on the evidence, packed as arrays.

A column derives its search keys and slopes from the store the first time
a query reads it, and its leaves' modes and its order of x when first asked
for: a command that reloads a model and asks one query derives only what
that query reads.
"""

from __future__ import annotations

import math

import numpy as np

from .data import DataError, Interval


def _read_only(*arrays) -> None:
    for a in arrays:
        a.setflags(write=False)


def _keys(leaf, v) -> np.ndarray:
    """The pairs (leaf, v) as the complex numbers leaf + v·i, which numpy
    sorts and searches lexicographically; the parts are set, not computed,
    so an infinite v stays exact."""
    keys = np.empty(np.broadcast(leaf, v).shape, dtype=complex)
    keys.real, keys.imag = leaf, v
    return keys


def first_at_least(a, first, last, v) -> np.ndarray:
    """Each query's first row in ``first..last`` with a >= v, by binary
    lifting over all queries at once: a rises within a range. Where no row
    qualifies the result is past ``last``."""
    g = first.copy()
    for step in 1 << np.arange(int((last - first).max() + 1).bit_length())[::-1]:
        g += step * (a[np.minimum(g + (step - 1), last)] < v)
    return g


#: the most entries of one guide table, 64 KiB of indices
GUIDE_ENTRIES = 1 << 13


class Guide:
    """A guide table (Chen and Asau, 1974; Devroye, 1986, III.2.4) for
    inverting rising ranges at uniforms: for range k of ``a``, rows
    ``first[k]..last[k]``, and u in [0, 1), ``find`` gives the first row of
    the range with a >= t, or with a > t if ``strict``, where the threshold
    t is u, or u·scale[k] with a ``scale``: ``first_at_least`` with t, or
    with the next float above t.

    Entry [k, b] holds the answer at u = b/M for 0 < b < M, and [k, 0] and
    [k, M] the range's first and last rows. M is a power of two, so u·M and
    b/M are exact, and t does not fall as u rises: no answer at u lies before
    entry [k, floor(u·M)] or after entry [k, floor(u·M) + 1]. A row takes the
    first if a there passes the test, and otherwise searches only up to the
    second. A guide pays when its entries are few next to the ``rows`` to be
    looked up and its buckets outnumber the rows of ``a``: M is the largest
    power of two that keeps the table within an eighth of ``rows`` and
    ``GUIDE_ENTRIES``, or 1, which searches each range whole, when that
    gives fewer buckets than rows of ``a``.
    """

    def __init__(self, a, first, last, rows: int, scale=None, strict: bool = False):
        entries = min(int(rows) // 8, GUIDE_ENTRIES) // len(first) - 1
        M = 1 << max(entries.bit_length() - 1, 0)
        self.M = M = M if M * len(first) >= len(a) else 1
        self.a, self.scale, self.strict = a, scale, strict
        table = np.empty((len(first), M + 1), dtype=np.intp)
        table[:, 0], table[:, -1] = first, last
        if M > 1:
            k = np.repeat(np.arange(len(first)), M - 1)
            v = self._least(k, np.tile(np.arange(1, M) / M, len(first)))
            table[:, 1:-1] = first_at_least(a, first[k], last[k], v).reshape(-1, M - 1)
        self.table = table.ravel()

    def _least(self, k, u):
        """The least value of a that passes the test at u in range k."""
        t = u if self.scale is None else u * self.scale[k]
        return np.nextafter(t, np.inf) if self.strict else t

    def find(self, k, u) -> np.ndarray:
        """The answer for each range k (an array, or a scalar for all) and u."""
        v = self._least(k, u)
        if self.table.size == 2:  # one range, M = 1: one binary search
            lo, hi = self.table
            return lo + self.a[lo:hi + 1].searchsorted(v)
        i = k * (self.M + 1) + (u * self.M).astype(np.intp)
        g = self.table[i]
        miss = np.flatnonzero(self.a[g] < v)  # the answer lies above g
        if miss.size:
            g[miss] = first_at_least(self.a, g[miss] + 1, self.table[i[miss] + 1], v[miss])
        return g


def steepest(owner, x, F):
    """Each leaf's argmax of the density and its value, from packed hinges
    ``(owner, x, F)``: the midpoint of its steepest piece (leftmost on ties),
    or a point mass's value with unit density."""
    first = np.flatnonzero(np.diff(owner, prepend=-1))
    point, density = x[first], np.ones(len(first))
    piece = np.flatnonzero(owner[1:] == owner[:-1])
    slope = (F[piece + 1] - F[piece]) / (x[piece + 1] - x[piece])
    # by leaf, steepest first; the sort is stable, so the leftmost leads a tie
    order = np.lexsort((-slope, owner[piece]))
    leaf, lead = np.unique(owner[piece][order], return_index=True)
    k = piece[order[lead]]
    point[leaf], density[leaf] = (x[k] + x[k + 1]) / 2.0, slope[order[lead]]
    return point, density


def regions(schema, tree, n_leaves: int):
    """Each leaf's path region, from one pass over the node arrays of
    ``tree``, level by level from the root, node 0, which no node may have
    as a child; no node may have two parents.

    A numeric region ``(lo, hi)`` holds the x with ``lo < x <= hi``: lo is
    the largest threshold t whose side x > t the path takes, hi the smallest
    whose side x <= t it takes, and an infinity where there is none. A value
    split leaves the value on its left side and all others on its right.

    Returns the regions by variable name, ``(lo, hi)`` over the leaves or a
    ``[leaf, k]`` mask of the values admitted; the leaf nodes reached; and
    those of them with an empty region.
    """
    numeric = np.array([var.numeric for var in schema], dtype=bool)
    width = [2 if var.numeric else len(var.domain) for var in schema]
    off = np.cumsum([0] + width[:-1])  # each variable's first column
    owner, cols = np.repeat(np.arange(len(schema)), width), np.arange(sum(width))
    # a row per node of a level: lo and hi of each numeric variable, and 1
    # or 0 for each value of a symbolic one, admitted or not
    bounds = np.ones((1, len(cols)))
    bounds[0, off[numeric]], bounds[0, off[numeric] + 1] = -math.inf, math.inf
    nodes, done = np.zeros(1, dtype=np.intp), []
    while nodes.size:
        f = tree.feature[nodes]
        inner = f >= 0
        done.append((nodes[~inner], bounds[~inner]))
        parents, f = nodes[inner], f[inner]
        t, m = tree.value[parents], len(parents)
        nodes = np.concatenate([tree.left[parents], tree.right[parents]])
        bounds = np.concatenate([bounds[inner], bounds[inner]])  # left children, then right
        r = np.flatnonzero(numeric[f])
        c, tr = off[f[r]], t[r]
        bounds[r, c + 1] = np.minimum(bounds[r, c + 1], tr)
        bounds[r + m, c] = np.maximum(bounds[r + m, c], tr)
        r = np.flatnonzero(~numeric[f])
        v = off[f[r]] + t[r].astype(np.intp)
        bounds[r] *= (owner != f[r, None]) | (cols == v[:, None])
        bounds[r + m, v] = 0.0
    leaf_nodes, bounds = map(np.concatenate, zip(*done))
    # each leaf's row; one that no node holds gets a junk row
    at = np.zeros(n_leaves, dtype=np.intp)
    at[tree.leaf[leaf_nodes]] = np.arange(len(leaf_nodes))
    bounds, out, empty = bounds[at].T.copy(), {}, np.zeros(n_leaves, dtype=bool)
    for var, a, k in zip(schema, off, width):
        if var.numeric:
            lo, hi = bounds[a], bounds[a + 1]
            out[var.name] = region = lo, hi
            empty |= lo >= hi
        else:
            out[var.name] = mask = (bounds[a:a + k] > 0.0).T.copy()
            region = [mask]
            empty |= ~mask.any(axis=1)
        _read_only(*region)
    return out, leaf_nodes, leaf_nodes[at[empty]]


class NumericColumn:
    """All leaves' CDFs of one numeric variable and their path bounds.

    Leaf i's hinges are rows ``first[i]`` to ``last[i]`` of ``x`` and ``F``,
    and its path region ``lo < x <= hi`` is ``(lo, hi)[i]`` of ``region``.
    Leaf CDFs have no steps and end at F = 1: x rises strictly within a leaf.
    """

    def __init__(self, name: str, x, F, first, last, region):
        self.name, self.x, self.F, self.region = name, x, F, region
        self.first, self.last = first, last
        # slope of the piece ending at each hinge; a leaf's first hinge ends
        # no piece and holds a point mass's unit density instead
        dx = x[1:] - x[:-1]
        dx[first[1:] - 1] = 1.0
        if np.count_nonzero(dx <= 0.0):
            raise DataError(f"leaf CDFs of {name!r} must have strictly increasing hinges")
        self.ending = np.ones(len(x))
        np.divide(F[1:] - F[:-1], dx, out=self.ending[1:])
        self.ending[first] = 1.0
        # sorted, since each leaf's hinges are
        self.keys = _keys(np.repeat(np.arange(len(first)), last - first + 1), x)
        _read_only(self.ending, self.keys)
        self.modes = self._order = None

    def locate(self, leaf, v):
        """For each leaf and value (v is a scalar or one value per leaf): the
        row after the leaf's last hinge at or below v, found by one search of
        the exact (leaf, x) keys."""
        return self.keys.searchsorted(_keys(leaf, v), side="right")

    def density(self, leaf, v):
        """Each leaf's ``density(v)``: 0 outside its support, the right
        piece's slope at a hinge, the left piece's at the last hinge, and 1
        at a point mass's value. The hinge after v is found by a search of
        each leaf's own rows."""
        first, end = self.first[leaf], self.last[leaf]
        g = first_at_least(self.x, first, end, np.nextafter(v, math.inf))  # first x > v
        inside = (g > first) & (v <= self.x[end])
        return np.where(inside, self.ending[np.minimum(g, end)], 0.0)

    def crop(self, leaf, given: Interval | None = None):
        """Each leaf's CDF conditioned on the closed ``given`` (if any) as
        ``PiecewiseLinearCDF.crop`` builds it, as a crop ``(lo, hi, F(lo),
        base, scale)``: the support [lo, hi] and the leaf's F renormalized to
        ``(F - base) / scale``. A point gives every leaf the point mass at it."""
        first = self.first[leaf]
        full = self.x[first], self.x[self.last[leaf]], self.F[first], 0.0, 1.0
        if given is None:
            return full
        l, u = given.lower, given.upper
        if l == u:
            return l, l, 0.0, 0.0, 1.0
        fl, fu = self.cdf_left(leaf, l, full), self.cdf(leaf, u, full)
        lo, hi = np.maximum(l, full[0]), np.minimum(u, full[1])
        return lo, hi, self.cdf(leaf, lo, full), fl, fu - fl

    def conditioned(self, leaf, given: Interval | None = None):
        """Each leaf's CDF conditioned on ``given`` as packed hinges ``(owner,
        x, F)``, as ``PiecewiseLinearCDF.crop`` builds them: (lo, F(lo)), the
        hinges inside (lo, hi) and (hi, 1), or a point mass's one hinge (lo,
        1); without ``given``, the stored hinges, which the full crop gives
        their own F. ``owner`` is the position in ``leaf`` of each hinge's leaf."""
        if given is None:
            first = self.first[leaf]
            sizes = self.last[leaf] - first + 1
            owner = np.repeat(np.arange(len(leaf)), sizes)
            rows = np.arange(len(owner)) - (np.cumsum(sizes) - sizes - first)[owner]
            return owner, self.x[rows], self.F[rows]
        crop = [np.broadcast_to(c, len(leaf)) for c in self.crop(leaf, given)]
        lo, hi = crop[0], crop[1]
        start = self.locate(leaf, lo)  # the row after the last hinge at or below lo
        sizes = np.where(lo < hi, self.keys.searchsorted(_keys(leaf, hi)) - start + 2, 1)
        owner = np.repeat(np.arange(len(leaf)), sizes)
        place = np.arange(len(owner)) - (np.cumsum(sizes) - sizes)[owner]
        x = np.where(place == 0, lo[owner],
                     np.where(place == sizes[owner] - 1, hi[owner],
                              self.x[start[owner] + place - 1]))
        return owner, x, self.cdf(leaf[owner], x, [c[owner] for c in crop])

    def mode(self, leaf):
        """Each leaf's ``steepest`` point and density, which the first call
        derives for all leaves."""
        if self.modes is None:
            self.modes = steepest(np.repeat(np.arange(len(self.first)), self.last - self.first + 1),
                                  self.x, self.F)
            _read_only(*self.modes)
        return self.modes[0][leaf], self.modes[1][leaf]

    def merge_terms(self, weight):
        """The terms of the mixture ``sum_k weight_k F_k`` of the stored CDFs
        of the leaves with positive ``weight`` (one weight per leaf), as
        ``inference._mixture`` merges them: the grid (their distinct x,
        ascending); each piece event's grid index and weighted slope, which
        is negative where the piece ends; and each leaf's first hinge's grid
        index and atom ``weight * F``, in leaf order. The events come in
        order of x, then starts before ends, then piece order, which is the
        column's order that the first call derives, filtered: no sort. Of
        hinges with equal x, the grid keeps the first in leaf order."""
        if self._order is None:
            self._order = self._sorted()
        hinge, hinge_leaf, row, event_leaf, rise, run = self._order
        kept = weight > 0.0
        h = hinge[kept[hinge_leaf]]
        x = self.x[h]
        new = np.empty(len(x), dtype=bool)  # the first of each distinct x
        new[:1] = True
        np.not_equal(x[1:], x[:-1], out=new[1:])
        at = np.empty(len(self.x), dtype=np.intp)  # each kept hinge's grid index
        at[h] = np.cumsum(new) - 1
        k = np.flatnonzero(kept[event_leaf])
        leaf = np.flatnonzero(kept)
        first = self.first[leaf]
        return (x[new], at[row[k]], weight[event_leaf[k]] * rise[k] / run[k],
                at[first], weight[leaf] * self.F[first])

    def _sorted(self):
        """The column's order: its hinges stable-sorted by x, and its
        pieces' start and end events stable-sorted by x, starts before
        ends, then piece order, with each event's hinge, leaf, rise in F
        (negated for an end) and run in x."""
        leaf = np.repeat(np.arange(len(self.first)), self.last - self.first + 1)
        hinge = np.argsort(self.x, kind="stable")
        piece = np.flatnonzero(leaf[1:] == leaf[:-1])  # from hinge j to hinge j + 1
        ends = np.concatenate([piece, piece + 1])
        event = np.argsort(self.x[ends], kind="stable")
        p, row = np.concatenate([piece, piece])[event], ends[event]
        rise = self.F[p + 1] - self.F[p]
        np.negative(rise, out=rise, where=event >= len(piece))
        order = hinge, leaf[hinge], row, leaf[row], rise, self.x[p + 1] - self.x[p]
        _read_only(*order)
        return order

    def cdf(self, leaf, v, crop):
        """Each leaf's cropped CDF at v (a scalar or one value per leaf), bit
        for bit as ``np.interp`` evaluates it on the crop's hinges: the first
        ``(lo, F(lo))``, the leaf's hinges inside (lo, hi), and ``(hi, 1)``;
        0 below lo and 1 from hi on."""
        lo, hi, f_lo, base, scale = crop
        g = self.locate(leaf, v)
        right = np.minimum(g, self.last[leaf])
        xj, xg = self.x[g - 1], self.x[right]
        inner = xj > lo
        xl = np.where(inner, xj, lo)
        inner_r = xg < hi
        xr = np.where(inner_r, xg, hi)
        # outside [lo, hi), and for a point mass's crop (lo = hi), the
        # interpolation is junk that the last line discards
        with np.errstate(all="ignore"):
            fl = (np.where(inner, self.F[g - 1], f_lo) - base) / scale
            fr = np.where(inner_r, (self.F[right] - base) / scale, 1.0)
            mid = np.where(v == xl, fl, (fr - fl) / (xr - xl) * (v - xl) + fl)
        return np.where(v < lo, 0.0, np.where(v >= hi, 1.0, mid))

    def cdf_left(self, leaf, v, crop):
        """Left limit F(v-) of each leaf's cropped CDF; cropped leaf CDFs
        have no steps, so only their first hinge's atom is left out."""
        return np.where(v <= crop[0], 0.0, self.cdf(leaf, v, crop))

    def mass(self, leaf, iv: Interval, given: Interval | None = None):
        """Each leaf's ``interval_probability`` of the closed ``iv``, after
        conditioning on the closed ``given`` if there is one."""
        crop = self.crop(leaf, given)
        d = self.cdf(leaf, iv.upper, crop) - self.cdf_left(leaf, iv.lower, crop)
        return np.where(d > 0.0, np.minimum(d, 1.0), 0.0)

    def factor(self, leaf, iv: Interval):
        """Each leaf's evidence factor: the density at a point, otherwise
        the mass."""
        return self.density(leaf, iv.lower) if iv.is_point else self.mass(leaf, iv)

    def overlaps(self, iv: Interval):
        """Whether each leaf's path region (lo, hi], which is not empty,
        meets ``iv``."""
        lo, hi = self.region
        return (iv.upper > lo) & (iv.lower <= hi)


class SymbolicColumn:
    """All leaves' histograms of one symbolic variable as a ``[leaf, k]``
    table ``p``, and the values each leaf's path admits as a ``[leaf, k]``
    mask ``admissible``."""

    def __init__(self, name: str, p, admissible):
        self.name, self.p, self.admissible = name, p, admissible

    def conditioned(self, leaf, given=None):
        """Each leaf's histogram conditioned on the value set ``given``, as
        ``Multinomial.condition`` builds it, as a ``[leaf, k]`` table."""
        p = self.p[leaf]
        if given is not None:
            keep = np.zeros(p.shape[1])
            keep[list(given)] = 1.0
            p = p * keep
            p = p / p.sum(axis=1)[:, None]
        return p

    def mass(self, leaf, values, given=None):
        """Each leaf's ``event_probability`` of the value set ``values``,
        after conditioning on the value set ``given`` if there is one; the
        probabilities are added in the order of ``set(values)``."""
        p = self.conditioned(leaf, given)
        return sum(p[:, i] for i in set(values))

    factor = mass

    def overlaps(self, values):
        """Whether each leaf's path admits one of ``values``."""
        return self.admissible[:, list(values)].any(axis=1)


class LeafTable:
    """The model's leaves as arrays: the prior and sample-count vectors, the
    store and the path regions (see the module docstring), each indexed by
    leaf like ``TreeModel.leaves``."""

    def __init__(self, prior, sample_count, store: dict, regions: dict):
        self.prior = np.array(prior, dtype=float)
        self.sample_count = np.array(sample_count, dtype=float)
        self.all_leaves = np.arange(len(self.prior))
        _read_only(self.prior, self.sample_count, self.all_leaves)
        for packed in store.values():
            _read_only(*(packed if isinstance(packed, tuple) else [packed]))
        self.store, self.regions = store, regions
        self._columns = {}

    def column(self, name: str):
        """The column of variable ``name``, made when it is first read."""
        column = self._columns.get(name)
        if column is None:
            packed, region = self.store[name], self.regions[name]
            column = (NumericColumn(name, *packed, region) if isinstance(packed, tuple)
                      else SymbolicColumn(name, packed, region))
            self._columns[name] = column
        return column

    def compatible(self, e) -> np.ndarray:
        """Whether each leaf's path meets every constraint of ``e``: the
        leaves that path pruning keeps."""
        keep = np.ones(len(self.prior), dtype=bool)
        for name, constraint in e.items():
            keep &= self.column(name).overlaps(constraint)
        return keep
