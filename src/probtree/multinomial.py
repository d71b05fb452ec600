"""Normalized histograms over symbolic domains."""

from __future__ import annotations

import math

import numpy as np

from .data import Variable
from .plcdf import DistributionError


def entropy_rel(counts) -> np.ndarray:
    """Entropy of each row of ``counts`` (shape ``(..., k)``) divided by
    ``log k``; an all-zero row and a single-value domain count as pure (0)."""
    counts = np.asarray(counts, dtype=float)
    k = counts.shape[-1]
    if k <= 1:
        return np.zeros(counts.shape[:-1])
    totals = counts.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(totals > 0, counts / totals, 0.0)
        logp = np.where(p > 0, np.log(p), 0.0)
    return -(p * logp).sum(axis=-1) / math.log(k)


class Multinomial:
    """Probability table aligned with a symbolic variable's domain order."""

    __slots__ = ("variable", "p")

    def __init__(self, variable: Variable, probabilities):
        if not variable.symbolic:
            raise DistributionError(f"{variable.name!r} is not symbolic")
        p = np.asarray(probabilities, dtype=float)
        if p.shape != (len(variable.domain),):
            raise DistributionError("probability vector does not match domain size")
        if np.any(p < 0) or np.any(p > 1) or abs(p.sum() - 1.0) > 1e-9:
            raise DistributionError("probabilities must lie in [0, 1] and sum to 1")
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
        return {"domain": list(self.variable.domain), "p": [float(v) for v in self.p]}

    @staticmethod
    def from_json(variable: Variable, obj: dict) -> "Multinomial":
        if tuple(obj.get("domain", ())) != variable.domain:
            raise DistributionError(f"histogram domain mismatch for {variable.name!r}")
        return Multinomial(variable, obj["p"])

    def __eq__(self, other):
        return (isinstance(other, Multinomial)
                and self.variable == other.variable
                and np.array_equal(self.p, other.p))

    def __repr__(self):
        return f"Multinomial({self.variable.name}, {np.round(self.p, 4).tolist()})"
