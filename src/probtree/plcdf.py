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

    __slots__ = ("x", "F", "_steps")

    def __init__(self, hinges):
        arr = np.asarray(hinges)
        if arr.dtype.kind not in "biuf" or arr.ndim != 2 or arr.shape[1] != 2 or not len(arr):
            raise DistributionError("need at least one (x, F) hinge of numbers")
        arr = arr.astype(float, copy=False)
        if not np.isfinite(arr).all():
            raise DistributionError("hinges must be finite")
        x, F = arr[:, 0].copy(), arr[:, 1].copy()
        if (x[1:] < x[:-1]).any():
            raise DistributionError("hinge x values must be non-decreasing")
        if len(x) > 1 and x[1] == x[0]:
            raise DistributionError("no step at the first hinge: F[0] is its atom")
        if (F[1:] < F[:-1]).any():
            raise DistributionError("hinge F values must be non-decreasing")
        if F[0] < 0 or F[-1] != 1.0:
            raise DistributionError("hinge F values must start >= 0 and end at exactly 1")
        x.setflags(write=False)
        F.setflags(write=False)
        self.x = x
        self.F = F
        # whether an x repeats: only then can an atom sit above x[0]
        self._steps = bool((x[1:] == x[:-1]).any())

    # -- evaluation ---------------------------------------------------------

    def cdf(self, x: float) -> float:
        if x < self.x[0]:
            return 0.0
        if x >= self.x[-1]:
            return 1.0
        return float(np.interp(x, self.x, self.F))

    def cdf_left(self, x: float) -> float:
        """Left limit F(x-), the mass below ``x``; equal to ``cdf(x)``
        wherever there is no atom at ``x``."""
        if x <= self.x[0]:
            return 0.0
        if self._steps and x <= self.x[-1]:
            j = self.x.searchsorted(x)  # first hinge at or above x
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
        mid = (self.x[1:] + self.x[:-1]) / 2.0
        return float(self.F[0] * self.x[0] + np.sum(np.diff(self.F) * mid))

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
        if len(self.x) == 1:
            return {"dirac": float(self.x[0])}
        return {"hinges": [[float(a), float(b)] for a, b in zip(self.x, self.F)]}

    def __eq__(self, other):
        return (isinstance(other, PiecewiseLinearCDF)
                and np.array_equal(self.x, other.x)
                and np.array_equal(self.F, other.F))

    def __repr__(self):
        return f"PiecewiseLinearCDF({len(self.x)} hinges on [{self.x[0]:g}, {self.x[-1]:g}])"


def Dirac(value: float) -> PiecewiseLinearCDF:
    """Point mass at ``value``: the one-hinge CDF."""
    return PiecewiseLinearCDF([[value, 1.0]])


def numeric_from_json(obj: dict) -> PiecewiseLinearCDF:
    """A leaf's numeric distribution, which has no steps, from its JSON."""
    if "dirac" in obj and "hinges" in obj:
        raise DistributionError("numeric distribution has both 'dirac' and 'hinges'")
    if "dirac" in obj:
        return Dirac(obj["dirac"])
    if "hinges" in obj:
        dist = PiecewiseLinearCDF(obj["hinges"])
        if dist._steps:
            raise DistributionError("leaf hinge x values must be strictly increasing")
        return dist
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
