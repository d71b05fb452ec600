"""Normalized histograms over symbolic domains."""

from __future__ import annotations

import math

import numpy as np

from .data import Variable
from .plcdf import ColumnError, DistributionError, number_table


def entropy_rel(counts) -> np.ndarray:
    """Entropy of each column of the non-negative ``counts``, shape ``(k, ...)``
    with one row per label, divided by ``log k``; an all-zero column and a
    single-value domain count as pure (0)."""
    counts = np.asarray(counts, dtype=float)
    k = len(counts)
    if k <= 1:
        return np.zeros(counts.shape[1:])
    def add(a):
        # numpy sums a contiguous axis in sequence below 8 terms and pairwise
        # from 8 on; the label sums keep that order, and so their bits
        return (a.sum(axis=0) if k < 8
                else np.ascontiguousarray(np.moveaxis(a, 0, -1)).sum(axis=-1))

    totals = add(counts)
    p = counts / np.where(totals > 0, totals, 1.0)  # an all-zero column stays 0
    logp = np.log(np.where(p > 0, p, 1.0))  # 0 where p is: log 1 is 0
    return -add(p * logp) / math.log(k)


class Multinomial:
    """Probability table aligned with a symbolic variable's domain order."""

    __slots__ = ("variable", "p")

    def __init__(self, variable: Variable, probabilities):
        if not variable.symbolic:
            raise DistributionError(f"{variable.name!r} is not symbolic")
        p = number_table([probabilities], len(variable.domain))
        if p is None:
            raise DistributionError("probability vector does not match domain size")
        if _improper(p)[0]:
            raise DistributionError(_IMPROPER)
        p = p[0]
        p.setflags(write=False)
        self.variable = variable
        self.p = p

    @staticmethod
    def fit(variable: Variable, counts) -> "Multinomial":
        """Normalize non-negative counts or weights into a distribution."""
        counts = np.asarray(counts, dtype=float)
        if np.any(counts < 0):
            raise DistributionError("counts must be non-negative")
        total = counts.sum()
        if total <= 0:
            raise DistributionError("cannot fit a multinomial from all-zero counts")
        return Multinomial(variable, counts / total)

    def entropy_rel(self) -> float:
        """Entropy normalized by the uniform distribution's entropy.

        A single-value domain is defined as perfectly pure (0).
        """
        return float(entropy_rel(self.p))

    def condition(self, admissible) -> "Multinomial":
        """Zero out inadmissible values and renormalize."""
        admissible = set(admissible)
        if not admissible:
            raise DistributionError("admissible set must be non-empty")
        mask = np.zeros_like(self.p)
        for i in admissible:
            mask[i] = 1.0
        masked = self.p * mask
        total = masked.sum()
        if total <= 0:
            raise DistributionError("conditioning on a zero-mass value set")
        return Multinomial(self.variable, masked / total)

    def event_probability(self, subset) -> float:
        return float(sum(self.p[i] for i in set(subset)))

    def argmax(self) -> int:
        """Most probable domain index; ties break to the lowest index."""
        return int(np.argmax(self.p))

    def sample(self, rng, n: int = 1) -> np.ndarray:
        """Inverse-CDF category draw; returns domain indices."""
        cum = np.cumsum(self.p)
        cum[-1] = 1.0
        return np.searchsorted(cum, rng.random(n), side="right").astype(float)

    def parameter_count(self) -> int:
        return len(self.p)

    def to_json(self) -> dict:
        return histograms_to_json(self.variable, self.p[None])[0]

    @staticmethod
    def from_json(variable: Variable, obj: dict) -> "Multinomial":
        return Multinomial(variable, histograms_from_json(variable, [obj])[0])

    def __eq__(self, other):
        return (isinstance(other, Multinomial)
                and self.variable == other.variable
                and np.array_equal(self.p, other.p))

    def __repr__(self):
        return f"Multinomial({self.variable.name}, {np.round(self.p, 4).tolist()})"


_IMPROPER = "probabilities must lie in [0, 1] and sum to 1"


def _improper(p: np.ndarray) -> np.ndarray:
    """Which rows of the [row, k] table ``p`` are not distributions: a value
    outside [0, 1], NaN included, or a sum off 1 by more than 1e-9."""
    return ~(((p >= 0.0) & (p <= 1.0)).all(axis=1) & (abs(p.sum(axis=1) - 1.0) <= 1e-9))


def histograms_from_json(variable: Variable, objs) -> np.ndarray:
    """Leaf histograms of the symbolic ``variable`` from a column of their
    JSON objects ``{"domain": [...], "p": [...]}``.

    The probabilities are packed into one read-only [leaf, k] table and
    checked at once. Any fault raises ColumnError naming the first entry
    that has one.
    """
    domain = list(variable.domain)
    rows = []
    for k, obj in enumerate(objs):
        if not isinstance(obj, dict) or obj.get("domain") != domain:
            raise ColumnError(k, f"histogram domain mismatch for {variable.name!r}")
        if "p" not in obj:
            raise ColumnError(k, "histogram has no 'p'")
        rows.append(obj["p"])
    p = number_table(rows, len(domain))
    if p is None:
        for k, row in enumerate(rows):
            if number_table([row], len(domain)) is None:
                raise ColumnError(k, "probability vector does not match domain size")
        raise DistributionError("probability vectors do not match domain size")
    bad = _improper(p)
    if bad.any():
        raise ColumnError(int(bad.argmax()), _IMPROPER)
    p.setflags(write=False)
    return p


def histograms_to_json(variable: Variable, p) -> list[dict]:
    """The JSON objects that ``histograms_from_json`` reads back into the
    [leaf, k] table ``p``, one per row."""
    domain = list(variable.domain)
    return [{"domain": domain, "p": row} for row in p.tolist()]


def packed_histograms(variable: Variable, p) -> list[Multinomial]:
    """The histograms of the rows of a [leaf, k] table, each with a
    read-only row view of it."""
    out = []
    for row in p:
        m = Multinomial.__new__(Multinomial)
        m.variable, m.p = variable, row
        out.append(m)
    return out
