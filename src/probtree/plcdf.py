"""Model-free univariate numeric distributions as piecewise-linear CDFs.

A distribution is represented by its CDF as a linear spline over hinge
points, with point masses where the CDF jumps: at the first hinge, at a
lone hinge, or at a repeated hinge x (see ``PiecewiseLinearCDF``).
Fitting works on the empirical quantile curve: samples are turned into
(value, cumulative-quantile) points and hinges are selected by recursive
splitting until the residual against a two-point chord drops below a
tolerance.
"""

from __future__ import annotations

import numbers
from itertools import chain

import numpy as np


class DistributionError(ValueError):
    """Raised for invalid distribution parameters or undefined operations."""


class ColumnError(DistributionError):
    """Entry ``entry`` of a column of leaf distributions is invalid."""

    def __init__(self, entry: int, message: str):
        super().__init__(message)
        self.entry = entry


def build_quantile_dataset(samples, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """Turn weighted samples into the empirical quantile curve
    ``(values, quantiles)``: sorted distinct values and their cumulative
    weight shares. Duplicates collapse to one point carrying the quantile
    of the last duplicate. The last quantile is exactly 1.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size == 0:
        raise DistributionError("need at least one sample")
    if not np.all(np.isfinite(samples)):
        raise DistributionError("samples must be finite")
    if weights is None:
        weights = np.ones_like(samples)
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != samples.shape or np.any(weights <= 0):
            raise DistributionError("weights must be positive and match samples")
    order = np.argsort(samples, kind="stable")
    xs = samples[order]
    cw = np.cumsum(weights[order])
    total = cw[-1]
    # keep the last occurrence of each distinct value
    keep = np.append(xs[1:] != xs[:-1], True)
    gamma = cw[keep] / total
    gamma[-1] = 1.0
    return xs[keep], gamma


class PiecewiseLinearCDF:
    """CDF defined by hinge points connected as a linear spline.

    F is 0 below the first hinge and 1 at and above the last one. Three
    rules say where point masses (atoms) sit:

    - ``F[0] > 0`` is an atom at ``x[0]``, which is what empirical
      quantile fits naturally produce;
    - a single hinge ``[[v, 1]]`` is a point mass at ``v``;
    - a repeated ``x`` is a vertical step: an atom inside the support,
      ``F(x-)`` at its first hinge and ``F(x)`` at its second. Only merged
      marginals have steps; leaf fits and their crops do not.

    The mass of a closed interval ``[l, u]`` is ``F(u) - F(l-)``.
    """

    __slots__ = ("x", "F")

    def __init__(self, hinges):
        arr = number_table(hinges, 2)
        if arr is None:
            raise DistributionError("need at least one (x, F) hinge of numbers")
        fault = _hinge_fault(arr, *_ONE_SEGMENT)
        if fault:
            raise DistributionError(fault[1])
        xF = arr.T.copy()
        xF.setflags(write=False)
        self.x, self.F = xF

    # -- evaluation ---------------------------------------------------------

    def cdf(self, x: float) -> float:
        return float(self.cdf_vec([x])[0])

    def cdf_left(self, x: float) -> float:
        """Left limit F(x-), the mass below ``x``; equal to ``cdf(x)``
        wherever there is no atom at ``x``."""
        if x <= self.x[0]:
            return 0.0
        if x <= self.x[-1]:
            # the first hinge at or above x holds F(x-) at a step, F(x) elsewhere
            j = self.x.searchsorted(x)
            if self.x[j] == x:
                return float(self.F[j])
        return self.cdf(x)

    def cdf_vec(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        out = np.interp(xs, self.x, self.F)
        out[xs < self.x[0]] = 0.0
        out[xs >= self.x[-1]] = 1.0
        return out

    def interval_probability(self, l: float, u: float) -> float:
        """Mass of the closed interval [l, u], atoms at its bounds included."""
        if l > u:
            raise DistributionError(f"inverted interval [{l:g}, {u:g}]")
        return min(1.0, max(0.0, self.cdf(u) - self.cdf_left(l)))

    def ppf(self, p: float) -> float:
        return float(self.ppf_vec(np.array([p]))[0])

    def ppf_vec(self, ps) -> np.ndarray:
        """Inverse CDF; plateaus map to their left endpoint, p <= F[0] to x[0].

        Every p must lie in [0, 1]; any other value, NaN included, raises
        DistributionError.
        """
        ps = np.asarray(ps, dtype=float)
        if ps.size and not (ps.min() >= 0.0 and ps.max() <= 1.0):
            bad = ps[~((ps >= 0.0) & (ps <= 1.0))][0]
            raise DistributionError(f"probability {bad} outside [0, 1]")
        out = np.interp(ps, self.F, self.x)
        # np.interp may pick any hinge of a plateau when p equals its level
        F = self.F
        for level in np.unique(F[1:][F[1:] == F[:-1]]):
            out[ps == level] = self.x[np.searchsorted(F, level, side="left")]
        return out

    def density(self, x: float) -> float:
        """Slope of the active piece; 0 outside the support.

        At a hinge the right piece's slope applies (the piece ending there at
        the last hinge). Atoms do not contribute, except that a point mass
        has unit density at its value: the likelihood of an exact match.
        """
        if x < self.x[0] or x > self.x[-1]:
            return 0.0
        if len(self.x) == 1:
            return 1.0
        j = int(self.x.searchsorted(x, side="right"))
        if j == len(self.x):
            j = int(self.x.searchsorted(x))  # last hinge, below a final step
        return float((self.F[j] - self.F[j - 1]) / (self.x[j] - self.x[j - 1]))

    # -- derived quantities -------------------------------------------------

    def expectation(self) -> float:
        """Mean: the atom at x[0] plus each piece's mass at its midpoint,
        which for a step is its x."""
        x, F = self.x, self.F
        return float(F[0] * x[0] + np.sum((F[1:] - F[:-1]) * ((x[1:] + x[:-1]) / 2.0)))

    def crop(self, l: float, u: float) -> "PiecewiseLinearCDF":
        """Condition on [l, u]: shift to zero and renormalize to mass 1."""
        if l > u:
            raise DistributionError(f"inverted interval [{l:g}, {u:g}]")
        fl, fu = self.cdf_left(l), self.cdf(u)
        mass = fu - fl
        if mass <= 0.0:
            raise DistributionError(f"cropping to zero-mass interval [{l:g}, {u:g}]")
        lo = max(l, float(self.x[0]))
        hi = min(u, float(self.x[-1]))
        if lo == hi:
            return Dirac(lo)
        # the hinges in (lo, hi] keep their F, so a step at hi stays one
        keep = (self.x > lo) & (self.x <= hi)
        xs = np.concatenate(([lo], self.x[keep]))
        Fs = np.concatenate(([self.cdf(lo)], self.F[keep]))
        if xs[-1] != hi:
            xs, Fs = np.append(xs, hi), np.append(Fs, fu)
        Fs = (Fs - fl) / mass
        Fs[-1] = 1.0
        return PiecewiseLinearCDF(np.column_stack([xs, Fs]))

    def sample(self, rng, n: int = 1) -> np.ndarray:
        if len(self.x) == 1:
            return np.full(n, self.x[0])  # a point mass draws no random numbers
        return self.ppf_vec(rng.random(n))

    def confidence_interval(self, theta: float):
        """Interval around the mean holding roughly ``theta`` posterior mass."""
        theta = confidence_level(theta)
        m = self.expectation()
        fm = self.cdf(m)
        l = self.ppf(min(1.0, max(0.0, fm - theta / 2.0)))
        u = self.ppf(min(1.0, max(0.0, fm + theta / 2.0)))
        return (min(l, m), max(u, m))

    @property
    def support(self):
        return (float(self.x[0]), float(self.x[-1]))

    def parameter_count(self) -> int:
        return len(self.x)

    def to_json(self) -> dict:
        return cdfs_to_json(self.x, self.F, [0], [len(self.x) - 1])[0]

    def __eq__(self, other):
        return (isinstance(other, PiecewiseLinearCDF)
                and np.array_equal(self.x, other.x)
                and np.array_equal(self.F, other.F))

    def __repr__(self):
        return f"PiecewiseLinearCDF({len(self.x)} hinges on [{self.x[0]:g}, {self.x[-1]:g}])"


def Dirac(value: float) -> PiecewiseLinearCDF:
    """Point mass at ``value``: the one-hinge CDF."""
    return PiecewiseLinearCDF([[value, 1.0]])


_NUMBER = (int, float, np.integer, np.floating)


def number_table(rows, k: int):
    """``rows`` as a float [row, k] array, or None unless there are rows and
    each is k numbers (a string or a boolean is not a number) in the float
    range."""
    if isinstance(rows, np.ndarray):
        if rows.dtype.kind not in "iuf" or rows.ndim != 2 or rows.shape[1] != k or not len(rows):
            return None
        return rows.astype(float, copy=False)
    try:  # one scan of the types of the rows and of their cells
        if (not all(issubclass(t, (list, tuple, np.ndarray)) for t in set(map(type, rows)))
                or set(map(len, rows)) != {k}):
            return None
    except TypeError:  # not a sequence
        return None
    flat = list(chain.from_iterable(rows))
    if not all(issubclass(t, _NUMBER) and t is not bool for t in set(map(type, flat))):
        return None
    try:
        return np.array(flat, dtype=float).reshape(-1, k)
    except OverflowError:
        return None


# the first and last row of a table that holds one segment
_ONE_SEGMENT = (0, -1)

_HINGE_RULES = (
    "hinges must be finite",
    "hinge x values must be non-decreasing",
    "no step at the first hinge: F[0] is its atom",
    "hinge F values must be non-decreasing",
    "hinge F values must start >= 0 and end at exactly 1",
    "leaf hinge x values must be strictly increasing",
)


def _rises(h, last):
    """Each row's rise (dx, dF) to the next row of its segment; 1 at a
    segment's last row, which has no next one and so breaks no rule."""
    d = np.empty_like(h)
    np.subtract(h[1:], h[:-1], out=d[:-1])
    d[last] = 1.0
    return d


def _hinge_fault(h, first, last, strict: bool = False):
    """Where packed hinges break the CDF rules: ``(i, rule)`` for the first
    segment ``i`` that breaks one and the first rule it breaks, or None.

    ``h`` holds the (x, F) rows of every segment in order, and segment i
    runs from row ``first[i]`` to row ``last[i]``; ``first`` and ``last``
    are index arrays, or the rows 0 and -1 for a table of one segment. In
    each segment the values are finite, x is non-decreasing with no step at
    the first hinge, and F is non-decreasing from at least 0 to exactly 1.
    ``strict`` adds the leaf rule that no x repeats.
    """
    # np.count_nonzero is a cheaper test than .any() or .all() on the few
    # hinges of one CDF, which every crop and merge builds
    if np.count_nonzero(np.isfinite(h)) == h.size:
        d = _rises(h, last)
        bad = d < 0
        bad[first, 0] |= d[first, 0] == 0
        # a segment's last row has no rise: its F slot takes the end rules
        bad[last, 1] = (h[first, 1] < 0) | (h[last, 1] != 1)
        if not (np.count_nonzero(bad) or strict and np.count_nonzero(d[:, 0] == 0)):
            return None
    # a rule is broken: mark the rows that break each one, in rule order
    rows = np.arange(len(h))
    first, last = np.atleast_1d(rows[first]), np.atleast_1d(rows[last])
    with np.errstate(invalid="ignore"):  # rises between non-finite values
        d = _rises(h, last)
    faults = np.zeros((len(_HINGE_RULES), len(h)), dtype=bool)
    faults[0] = ~np.isfinite(h).all(axis=1)
    faults[1] = d[:, 0] < 0
    faults[2, first] = d[first, 0] == 0
    faults[3] = d[:, 1] < 0
    faults[4, first] = h[first, 1] < 0
    faults[4, last] |= h[last, 1] != 1
    faults[5] = strict & (d[:, 0] == 0)
    # rows run in segment order, so the first marked row is in the first
    # segment that breaks a rule
    i = int(first.searchsorted(faults.any(axis=0).argmax(), side="right")) - 1
    rule = int(faults[:, first[i]:last[i] + 1].any(axis=1).argmax())
    return i, _HINGE_RULES[rule]


def confidence_level(theta) -> float:
    """``theta`` as a float if it is a real number in [0, 1] and no bool."""
    if isinstance(theta, bool) or not isinstance(theta, numbers.Real) or not 0.0 <= theta <= 1.0:
        raise DistributionError(f"confidence level must be a real number in [0, 1], got {theta!r}")
    return float(theta)


def cdfs_from_json(objs):
    """Leaf numeric distributions, which have no steps, from a column of
    their JSON objects: ``{"hinges": [[x, F], ...]}``, or ``{"dirac": v}``
    for the one hinge ``[v, 1]``.

    All hinges are packed into one table and checked at once, and returned
    as ``(x, F, first, last)``: entry i's hinges are rows ``first[i]`` to
    ``last[i]`` of the read-only arrays x and F. Any fault raises
    ColumnError naming the first entry that has one.
    """
    rows, sizes = [], []
    for k, obj in enumerate(objs):
        if not isinstance(obj, dict):
            raise ColumnError(k, "numeric distribution must be an object")
        if "dirac" in obj and "hinges" in obj:
            raise ColumnError(k, "numeric distribution has both 'dirac' and 'hinges'")
        if "dirac" in obj:
            if isinstance(obj["dirac"], bool) or not isinstance(obj["dirac"], (int, float)):
                raise ColumnError(k, "'dirac' must be a number")
            rows.append((obj["dirac"], 1.0))
            sizes.append(1)
        elif "hinges" in obj:
            if not isinstance(obj["hinges"], list) or not obj["hinges"]:
                raise ColumnError(k, "'hinges' must be a non-empty list")
            rows += obj["hinges"]
            sizes.append(len(obj["hinges"]))
        else:
            raise ColumnError(k, f"unrecognized numeric distribution encoding: {sorted(obj)}")
    last = np.cumsum(sizes) - 1
    first = last - sizes + 1
    h = number_table(rows, 2)
    if h is None:
        for k, (a, b) in enumerate(zip(first, last + 1)):
            if number_table(rows[a:b], 2) is None:
                raise ColumnError(k, "need (x, F) hinges of numbers")
        raise DistributionError("need (x, F) hinges of numbers")
    fault = _hinge_fault(h, first, last, strict=True)
    if fault:
        raise ColumnError(*fault)
    xF = h.T.copy()
    xF.setflags(write=False)
    return xF[0], xF[1], first, last


def cdfs_to_json(x, F, first, last) -> list[dict]:
    """The JSON objects that ``cdfs_from_json`` reads back into the packed
    hinges ``(x, F, first, last)``, one per entry."""
    x, F = x.tolist(), F.tolist()
    return [{"dirac": x[a]} if a == b else
            {"hinges": list(map(list, zip(x[a:b + 1], F[a:b + 1])))}
            for a, b in zip(first, last)]


def packed_cdfs(x, F, first, last) -> list[PiecewiseLinearCDF]:
    """The step-free CDFs of packed hinges, each with read-only views
    ``x[a:b]`` and ``F[a:b]`` of the arrays."""
    out = []
    for a, b in zip(first.tolist(), (last + 1).tolist()):
        d = PiecewiseLinearCDF.__new__(PiecewiseLinearCDF)
        d.x, d.F = x[a:b], F[a:b]
        out.append(d)
    return out


def _chord_sse(prefix, a: int, b: int, d: np.ndarray, g: np.ndarray):
    """Sum of squared residuals of points a..b against the line through
    the endpoint points, and their number, for a vector of (a, b) pairs or
    scalars; ``prefix`` holds the sums of d, g, d², dg and g² up to each point."""
    n = b - a + 1
    b1 = b + 1
    S_d, S_g, S_d2, S_dg, S_g2 = (p[b1] - p[a] for p in prefix)
    da, ga = d[a], g[a]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        m = (g[b] - ga) / (d[b] - da)
        c = ga - m * da
        m2 = 2.0 * m
        sse = (S_g2 - m2 * S_dg - 2.0 * c * S_g
               + m * m * S_d2 + m2 * c * S_d + c * c * n)
    # near-coincident abscissae can overflow the closed form; such chords
    # are certainly bad fits, so score them as infinitely costly
    return np.where(np.isfinite(sse), np.maximum(sse, 0.0), np.inf), n


def cdf_learn(points, epsilon: float) -> PiecewiseLinearCDF:
    """Fit a piecewise-linear CDF to the quantile curve ``(values, quantiles)``
    that ``build_quantile_dataset`` returns.

    Recursively splits the quantile curve at the point minimizing the
    count-weighted mean squared error of the two chord fits, until a
    subset's total squared chord residual falls below ``epsilon``. With
    epsilon = 0 every point becomes a hinge and the spline interpolates
    the curve exactly. A single point yields a point mass.
    """
    if epsilon < 0:
        raise DistributionError("epsilon must be >= 0")
    d, g = (np.asarray(a, dtype=float) for a in points)
    if d.ndim != 1 or d.shape != g.shape or d.size == 0:
        raise DistributionError("need equal-length, non-empty value and quantile arrays")
    if not np.all((g > 0.0) & (g <= 1.0)):
        raise DistributionError("quantiles must lie in (0, 1]")
    if len(d) == 1:
        return Dirac(d[0])
    if np.any(np.diff(d) <= 0):
        raise DistributionError("quantile point values must be strictly increasing")
    if np.any(np.diff(g) <= 0) or g[-1] != 1.0:
        raise DistributionError("quantiles must be strictly increasing and end at 1")

    prefix = tuple(np.concatenate(([0.0], np.cumsum(arr)))
                   for arr in (d, g, d * d, d * g, g * g))

    # each segment goes on the stack with its own chord SSE, which the scan
    # of its parent has computed as one of that candidate's two sides
    last = len(d) - 1
    hinges = {0, last}
    stack = [(0, last, _chord_sse(prefix, 0, last, d, g)[0])]
    while stack:
        a, b, sse = stack.pop()
        if b - a < 2 or sse < epsilon:
            continue
        cand = np.arange(a + 1, b)
        m = len(cand)
        sse, n = _chord_sse(prefix, np.concatenate((np.full_like(cand, a), cand)),
                            np.concatenate((cand, np.full_like(cand, b))), d, g)
        emse = (sse[:m] + sse[m:]) / (n[:m] + n[m:])
        i = int(np.argmin(emse))  # argmin keeps the smallest index on ties
        hinges.add(a + 1 + i)
        stack += (a + 1 + i, b, sse[m + i]), (a, a + 1 + i, sse[i])

    idx = sorted(hinges)
    return PiecewiseLinearCDF(np.column_stack([d[idx], g[idx]]))
