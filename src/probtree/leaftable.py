"""The leaf table: every leaf of a model packed into read-only arrays, so
that a query evaluates all leaves in a few array operations instead of one
Python call per leaf and variable.

Per numeric variable it holds all leaves' hinges packed together; per
symbolic variable the ``[leaf, k]`` histogram table; per variable each
leaf's path region: the bounds ``lo``/``hi`` with their open flags, or the
admissible values. Every method takes ``leaf``, an index array of the leaves
to evaluate, and returns one value per entry of it, or with ``conditioned``
those leaves' distributions conditioned on the evidence, packed as arrays.

A model builds its table once, and the table packs each variable's column
the first time a query reads it, and the column its path regions the first
time pruning does: a command that reloads a model and asks one query packs
only what that query reads.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import chain
from operator import attrgetter

import numpy as np

from .data import DataError, Interval

_BOUNDS = attrgetter("lower", "upper", "lower_open", "upper_open")


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


def _bounds(name: str, paths):
    """Each path's interval for ``name`` as read-only arrays ``lo``, ``hi``,
    ``lo_open``, ``hi_open``; a path that leaves ``name`` free has the whole
    line, closed."""
    conds = [p.get(name) for p in paths]
    bound = [k for k, c in enumerate(conds) if c is not None]
    b = np.tile([-math.inf, math.inf, 0.0, 0.0], (len(paths), 1))
    b[bound] = np.fromiter(chain.from_iterable(map(_BOUNDS, map(conds.__getitem__, bound))),
                           dtype=float, count=4 * len(bound)).reshape(-1, 4)
    b = b.T.copy()
    region = b[0], b[1], b[2] > 0.0, b[3] > 0.0
    _read_only(*region)
    return region


class NumericColumn:
    """All leaves' CDFs of one numeric variable and their path bounds.

    Leaf i's hinges are rows ``first[i]`` to ``last[i]`` of ``x`` and ``F``.
    Leaf CDFs have no steps: x rises strictly within a leaf.
    """

    def __init__(self, name: str, leaves):
        self.name, self._leaves = name, leaves
        dists = [leaf.distributions[name] for leaf in leaves]
        xs = [d.x for d in dists]
        sizes = np.fromiter(map(len, xs), dtype=np.intp, count=len(xs))
        self.last = np.cumsum(sizes) - 1
        self.first = self.last - sizes + 1
        self.x = x = np.concatenate(xs)
        self.F = F = np.concatenate([d.F for d in dists])
        # slope of the piece ending at each hinge; a leaf's first hinge ends
        # no piece and holds a point mass's unit density instead
        dx = x[1:] - x[:-1]
        dx[self.first[1:] - 1] = 1.0
        if np.count_nonzero(dx <= 0.0):
            raise DataError(f"leaf CDFs of {name!r} must have strictly increasing hinges")
        self.ending = np.ones(len(x))
        np.divide(F[1:] - F[:-1], dx, out=self.ending[1:])
        self.ending[self.first] = 1.0
        # sorted, since each leaf's hinges are
        self.keys = _keys(np.repeat(np.arange(len(dists)), sizes), x)
        _read_only(self.last, self.first, self.x, self.F, self.ending, self.keys)

    @cached_property
    def region(self):
        """Each leaf's path interval: ``(lo, hi, lo_open, hi_open)``."""
        return _bounds(self.name, [leaf.path for leaf in self._leaves])

    def locate(self, leaf, v):
        """For each leaf and value (v is a scalar or one value per leaf): the
        row after the leaf's last hinge at or below v, found by one search of
        the exact (leaf, x) keys."""
        return self.keys.searchsorted(_keys(leaf, v), side="right")

    def density(self, leaf, v):
        """Each leaf's ``density(v)``: 0 outside its support, the right
        piece's slope at a hinge, the left piece's at the last hinge, and 1
        at a point mass's value."""
        g = self.locate(leaf, v)
        end = self.last[leaf]
        inside = (g > self.first[leaf]) & (v <= self.x[end])
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
        1). ``owner`` is the position in ``leaf`` of each hinge's leaf."""
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
        """Whether each leaf's path region meets the closed ``iv``: the
        region's ``intersect`` with it is not empty."""
        a, b = iv.lower, iv.upper
        p_lo, p_hi, p_lo_open, p_hi_open = self.region
        lo, hi = np.maximum(a, p_lo), np.minimum(b, p_hi)
        lo_open = (a <= p_lo) & p_lo_open
        hi_open = (b >= p_hi) & p_hi_open
        return (lo < hi) | ((lo == hi) & ~lo_open & ~hi_open)


class SymbolicColumn:
    """All leaves' histograms of one symbolic variable as a ``[leaf, k]``
    table, and the values each leaf's path admits as a ``[leaf, k]`` mask."""

    def __init__(self, name: str, k: int, leaves):
        self.name, self._leaves = name, leaves
        self.p = np.concatenate([leaf.distributions[name].p for leaf in leaves]).reshape(-1, k)
        _read_only(self.p)

    @cached_property
    def admissible(self):
        """Whether each leaf's path admits each value, set by one scatter of
        every (leaf, admissible value) pair; a path that leaves the
        variable free admits its whole domain."""
        n, k = self.p.shape
        whole = frozenset(range(k))
        admitted = [leaf.path.get(self.name, whole) for leaf in self._leaves]
        rows = np.repeat(np.arange(n), list(map(len, admitted)))
        mask = np.zeros((n, k), dtype=bool)
        mask[rows, np.fromiter(chain.from_iterable(admitted), dtype=np.intp,
                               count=len(rows))] = True
        _read_only(mask)
        return mask

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
    """The model's leaves as arrays: the prior vector and one column per
    variable, each indexed by leaf like ``TreeModel.leaves``."""

    def __init__(self, schema, leaves):
        self.prior = np.array([leaf.prior for leaf in leaves], dtype=float)
        self.all_leaves = np.arange(len(leaves))
        _read_only(self.prior, self.all_leaves)
        self._variables = {var.name: var for var in schema}
        self._leaves = leaves
        self._columns = {}

    def column(self, name: str):
        """The column of variable ``name``, packed when it is first read."""
        column = self._columns.get(name)
        if column is None:
            var = self._variables[name]
            column = (NumericColumn(name, self._leaves) if var.numeric
                      else SymbolicColumn(name, len(var.domain), self._leaves))
            self._columns[name] = column
        return column

    def compatible(self, e) -> np.ndarray:
        """Whether each leaf's path meets every constraint of ``e``: the
        leaves that path pruning keeps."""
        keep = np.ones(len(self.prior), dtype=bool)
        for name, constraint in e.items():
            keep &= self.column(name).overlaps(constraint)
        return keep
