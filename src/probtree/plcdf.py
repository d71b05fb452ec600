"""Model-free univariate continuous distributions as piecewise-linear CDFs.

A distribution is represented by its CDF as a linear spline over hinge
points. Fitting works on the empirical quantile curve: samples are turned
into (value, cumulative-quantile) points and hinges are selected by
recursive splitting until the residual against a two-point chord drops
below a tolerance.
"""

from __future__ import annotations

import math

import numpy as np


class DistributionError(ValueError):
    """Raised for invalid distribution parameters or undefined operations."""


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


class Dirac:
    """All probability mass at a single point.

    Degenerate leaf populations (single sample or all samples equal)
    collapse to this; its likelihood contribution is 1 on exact match and
    0 otherwise.
    """

    __slots__ = ("value",)

    def __init__(self, value: float):
        if not math.isfinite(value):
            raise DistributionError("Dirac value must be finite")
        self.value = float(value)

    def cdf(self, x: float) -> float:
        return 1.0 if x >= self.value else 0.0

    def interval_probability(self, l: float, u: float) -> float:
        if l > u:
            raise DistributionError(f"inverted interval [{l:g}, {u:g}]")
        return 1.0 if l <= self.value <= u else 0.0

    def ppf(self, p: float) -> float:
        if not 0.0 <= p <= 1.0:
            raise DistributionError(f"probability {p} outside [0, 1]")
        return self.value

    def density(self, x: float) -> float:
        # point mass reported as unit likelihood on exact match
        return 1.0 if x == self.value else 0.0

    def expectation(self) -> float:
        return self.value

    def crop(self, l: float, u: float) -> "Dirac":
        if self.interval_probability(l, u) == 0.0:
            raise DistributionError("cropping to a zero-mass interval")
        return self

    def sample(self, rng, n: int = 1) -> np.ndarray:
        return np.full(n, self.value)

    def confidence_interval(self, theta: float):
        return (self.value, self.value)

    @property
    def support(self):
        return (self.value, self.value)

    def parameter_count(self) -> int:
        return 1

    def to_json(self) -> dict:
        return {"dirac": self.value}

    def __eq__(self, other):
        return isinstance(other, Dirac) and self.value == other.value

    def __repr__(self):
        return f"Dirac({self.value!r})"


class PiecewiseLinearCDF:
    """CDF defined by hinge points connected as a linear spline.

    F is 0 below the first hinge and 1 at and above the last one. A first
    hinge value above 0 encodes a point mass at the minimum, which is what
    empirical quantile fits naturally produce.
    """

    __slots__ = ("x", "F")

    def __init__(self, hinges):
        arr = np.asarray(hinges, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
            raise DistributionError("need at least two (x, F) hinges")
        x, F = np.ascontiguousarray(arr[:, 0]), np.ascontiguousarray(arr[:, 1])
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(F)):
            raise DistributionError("hinges must be finite")
        if np.any(np.diff(x) <= 0):
            raise DistributionError("hinge x values must be strictly increasing")
        if np.any(np.diff(F) < 0):
            raise DistributionError("hinge F values must be non-decreasing")
        if F[0] < 0 or F[-1] != 1.0:
            raise DistributionError("hinge F values must start >= 0 and end at exactly 1")
        x.setflags(write=False)
        F.setflags(write=False)
        self.x = x
        self.F = F

    # -- evaluation ---------------------------------------------------------

    def cdf(self, x: float) -> float:
        if x < self.x[0]:
            return 0.0
        if x >= self.x[-1]:
            return 1.0
        return float(np.interp(x, self.x, self.F))

    def cdf_vec(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        out = np.interp(xs, self.x, self.F)
        out[xs < self.x[0]] = 0.0
        out[xs >= self.x[-1]] = 1.0
        return out

    def interval_probability(self, l: float, u: float) -> float:
        if l > u:
            raise DistributionError(f"inverted interval [{l:g}, {u:g}]")
        return min(1.0, max(0.0, self.cdf(u) - self.cdf(l)))

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

        At a hinge the right piece's slope applies (left piece at the last
        hinge). The initial point mass, if any, does not contribute.
        """
        if x < self.x[0] or x > self.x[-1]:
            return 0.0
        j = int(np.searchsorted(self.x, x, side="right"))
        if j == len(self.x):
            j -= 1  # last hinge: use the left piece
        return float((self.F[j] - self.F[j - 1]) / (self.x[j] - self.x[j - 1]))

    # -- derived quantities -------------------------------------------------

    def expectation(self) -> float:
        """Mean: piecewise-constant-density integral plus the initial point mass."""
        slopes = np.diff(self.F) / np.diff(self.x)
        pieces = float(np.sum(slopes * (self.x[1:] ** 2 - self.x[:-1] ** 2) / 2.0))
        return pieces + float(self.F[0]) * float(self.x[0])

    def crop(self, l: float, u: float) -> "PiecewiseLinearCDF | Dirac":
        """Condition on [l, u]: shift to zero and renormalize to mass 1."""
        if l > u:
            raise DistributionError(f"inverted interval [{l:g}, {u:g}]")
        fl, fu = self.cdf(l), self.cdf(u)
        mass = fu - fl
        if mass <= 0.0:
            raise DistributionError(f"cropping to zero-mass interval [{l:g}, {u:g}]")
        lo = max(l, float(self.x[0]))
        hi = min(u, float(self.x[-1]))
        if lo == hi:
            return Dirac(lo)
        inner = (self.x > lo) & (self.x < hi)
        xs = np.concatenate(([lo], self.x[inner], [hi]))
        Fs = (self.cdf_vec(xs) - fl) / mass
        Fs[0] = (self.cdf(lo) - fl) / mass
        Fs[-1] = 1.0
        return PiecewiseLinearCDF(np.column_stack([xs, Fs]))

    def sample(self, rng, n: int = 1) -> np.ndarray:
        return self.ppf_vec(rng.random(n))

    def confidence_interval(self, theta: float):
        """Interval around the mean holding roughly ``theta`` posterior mass."""
        if not 0.0 <= theta <= 1.0:
            raise DistributionError(f"confidence level {theta} outside [0, 1]")
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
        return {"hinges": [[float(a), float(b)] for a, b in zip(self.x, self.F)]}

    def __eq__(self, other):
        return (isinstance(other, PiecewiseLinearCDF)
                and np.array_equal(self.x, other.x)
                and np.array_equal(self.F, other.F))

    def __repr__(self):
        return f"PiecewiseLinearCDF({len(self.x)} hinges on [{self.x[0]:g}, {self.x[-1]:g}])"


def numeric_from_json(obj: dict) -> "PiecewiseLinearCDF | Dirac":
    if "dirac" in obj and "hinges" in obj:
        raise DistributionError("numeric distribution has both 'dirac' and 'hinges'")
    if "dirac" in obj:
        return Dirac(obj["dirac"])
    if "hinges" in obj:
        return PiecewiseLinearCDF(obj["hinges"])
    raise DistributionError(f"unrecognized numeric distribution encoding: {sorted(obj)}")


def _chord_sse(prefix, a: int, b: int, d: np.ndarray, g: np.ndarray):
    """Sum of squared residuals of points a..b against the line through
    the endpoint points, for a vector of (a, b) pairs or scalars."""
    s1, sd, sg, sd2, sdg, sg2 = prefix
    n = b - a + 1
    S_g2 = sg2[b + 1] - sg2[a]
    S_dg = sdg[b + 1] - sdg[a]
    S_g = sg[b + 1] - sg[a]
    S_d2 = sd2[b + 1] - sd2[a]
    S_d = sd[b + 1] - sd[a]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        m = (g[b] - g[a]) / (d[b] - d[a])
        c = g[a] - m * d[a]
        sse = (S_g2 - 2.0 * m * S_dg - 2.0 * c * S_g
               + m * m * S_d2 + 2.0 * m * c * S_d + c * c * n)
    # near-coincident abscissae can overflow the closed form; such chords
    # are certainly bad fits, so score them as infinitely costly
    return np.where(np.isfinite(sse), np.maximum(sse, 0.0), np.inf), n


def cdf_learn(points, epsilon: float) -> "PiecewiseLinearCDF | Dirac":
    """Fit a piecewise-linear CDF to the quantile curve ``(values, quantiles)``
    that ``build_quantile_dataset`` returns.

    Recursively splits the quantile curve at the point minimizing the
    count-weighted mean squared error of the two chord fits, until a
    subset's total squared chord residual falls below ``epsilon``. With
    epsilon = 0 every point becomes a hinge and the spline interpolates
    the curve exactly. A single point yields a Dirac.
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

    ones = np.ones_like(d)
    prefix = tuple(np.concatenate(([0.0], np.cumsum(arr)))
                   for arr in (ones, d, g, d * d, d * g, g * g))

    hinges = {0, len(d) - 1}
    stack = [(0, len(d) - 1)]
    while stack:
        a, b = stack.pop()
        n = b - a + 1
        if n < 3:
            continue
        sse, _ = _chord_sse(prefix, a, b, d, g)
        if sse < epsilon:
            continue
        cand = np.arange(a + 1, b)
        sse_l, n_l = _chord_sse(prefix, np.full_like(cand, a), cand, d, g)
        sse_r, n_r = _chord_sse(prefix, cand, np.full_like(cand, b), d, g)
        emse = (sse_l + sse_r) / (n_l + n_r)
        i = int(cand[np.argmin(emse)])  # argmin keeps the smallest index on ties
        hinges.add(i)
        stack.append((i, b))
        stack.append((a, i))

    idx = sorted(hinges)
    return PiecewiseLinearCDF(np.column_stack([d[idx], g[idx]]))
