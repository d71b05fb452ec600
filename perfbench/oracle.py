"""Independent evaluation of a saved model, written against the JSON format
only, so the benchmark can check the program's answers without calling it.

Evidence and queries use the benchmark's own constraint form, a dict
``{name: ("iv", lo, hi) | ("pt", x) | ("set", (label, ...))}``. Conventions
follow the model's definition: a numeric leaf distribution is a
piecewise-linear CDF ``F`` (0 below the first hinge, so ``F[0] > 0`` is a
point mass there) or a Dirac; an interval ``[l, u]`` has mass
``F(u) - F(l)``; a point has the slope of the piece to its right (the left
piece at the last hinge) as its density, and a Dirac a density of 1 on an
exact match.
"""

from __future__ import annotations

import json
import math

import numpy as np


class Oracle:
    """A saved model read from its JSON, evaluated with numpy alone."""

    def __init__(self, text: str):
        doc = json.loads(text)
        self.names = [v["name"] for v in doc["schema"]]
        self.domain = {v["name"]: tuple(v.get("domain", ())) for v in doc["schema"]}
        self.prior = np.array([leaf["prior"] for leaf in doc["leaves"]])
        # per leaf, per variable: ("plf", x, F) | ("dirac", v) | ("hist", p, domain)
        self.dist = []
        for leaf in doc["leaves"]:
            d = {}
            for name, obj in leaf["distributions"].items():
                if "p" in obj:
                    d[name] = ("hist", np.array(obj["p"], dtype=float),
                               self.domain[name])
                elif "dirac" in obj:
                    d[name] = ("dirac", float(obj["dirac"]))
                else:
                    h = np.array(obj["hinges"], dtype=float)
                    d[name] = ("plf", h[:, 0], h[:, 1])
            self.dist.append(d)
        nodes = doc["nodes"]
        n = len(nodes)
        self.is_leaf = np.array([nd["type"] == "leaf" for nd in nodes])
        self.leaf_of = np.array([nd.get("leaf", -1) for nd in nodes])
        self.var = np.array([self.names.index(nd["var"]) if "var" in nd else 0
                             for nd in nodes])
        self.le = np.array([nd.get("op") == "le" for nd in nodes])
        self.value = np.zeros(n)
        for i, nd in enumerate(nodes):
            if nd.get("op") == "le":
                self.value[i] = nd["value"]
            elif nd.get("op") == "eq":
                self.value[i] = self.domain[nd["var"]].index(nd["value"])
        self.left = np.array([nd.get("left", i) for i, nd in enumerate(nodes)])
        self.right = np.array([nd.get("right", i) for i, nd in enumerate(nodes)])

        # per leaf: the region its path admits, {var: (lo, hi)} for numeric
        # splits (lo open, hi closed) and {var: set of labels} for symbolic ones
        self.paths = [None] * len(self.prior)

        def walk(i, path):
            nd = nodes[i]
            if nd["type"] == "leaf":
                self.paths[nd["leaf"]] = path
                return
            name = nd["var"]
            if nd["op"] == "le":
                lo, hi = path.get(name, (-math.inf, math.inf))
                walk(nd["left"], {**path, name: (lo, min(hi, nd["value"]))})
                walk(nd["right"], {**path, name: (max(lo, nd["value"]), hi)})
            else:
                labels = path.get(name, frozenset(self.domain[name]))
                walk(nd["left"], {**path, name: frozenset([nd["value"]])})
                walk(nd["right"], {**path, name: labels - {nd["value"]}})
        walk(0, {})

    def path_compatible(self, k: int, e: dict) -> bool:
        """Whether leaf ``k``'s path region meets the evidence at all."""
        for name, c in e.items():
            region = self.paths[k].get(name)
            if region is None:
                continue
            if c[0] == "set":
                if not region & set(c[1]):
                    return False
            else:
                lo, hi = (c[1], c[1]) if c[0] == "pt" else (c[1], c[2])
                if hi <= region[0] or lo > region[1]:
                    return False
        return True

    @property
    def n_leaves(self) -> int:
        return len(self.prior)

    # -- routing and likelihood ---------------------------------------------

    def route(self, rows: np.ndarray) -> np.ndarray:
        """Leaf index reached by each row (symbolic cells as label indices)."""
        node = np.zeros(len(rows), dtype=int)
        idx = np.arange(len(rows))
        while not self.is_leaf[node].all():
            cell = rows[idx, self.var[node]]
            left = np.where(self.le[node], cell <= self.value[node],
                            cell == self.value[node])
            step = np.where(left, self.left[node], self.right[node])
            node = np.where(self.is_leaf[node], node, step)
        return self.leaf_of[node]

    def log_likelihood(self, rows: np.ndarray):
        """``(average, zero_fraction)`` as the model defines them."""
        leaf = self.route(rows)
        logp = np.log(self.prior[leaf])
        for k in np.unique(leaf):
            sel = leaf == k
            for j, name in enumerate(self.names):
                f = self._density(self.dist[k][name], rows[sel, j])
                with np.errstate(divide="ignore"):
                    logp[sel] += np.log(f)
        finite = np.isfinite(logp)
        avg = float(logp[finite].sum() / finite.sum()) if finite.any() else math.nan
        return avg, float((~finite).sum() / len(rows))

    @staticmethod
    def _density(d, v: np.ndarray) -> np.ndarray:
        if d[0] == "hist":
            return d[1][v.astype(int)]
        if d[0] == "dirac":
            return (v == d[1]).astype(float)
        x, F = d[1], d[2]
        j = np.searchsorted(x, v, side="right")
        j = np.where(j == len(x), len(x) - 1, j)
        jj = np.maximum(j, 1)
        slope = (F[jj] - F[jj - 1]) / (x[jj] - x[jj - 1])
        return np.where((v < x[0]) | (v > x[-1]), 0.0, slope)

    # -- constraints ----------------------------------------------------------

    @staticmethod
    def _cdf(d, t: float) -> float:
        if d[0] == "dirac":
            return 1.0 if t >= d[1] else 0.0
        x, F = d[1], d[2]
        if t < x[0]:
            return 0.0
        if t >= x[-1]:
            return 1.0
        return float(np.interp(t, x, F))

    def _mass(self, d, c) -> float:
        """P(c | leaf) for one variable; a point constraint gives a density."""
        if c[0] == "set":
            return float(sum(d[1][d[2].index(lab)] for lab in c[1]))
        if c[0] == "pt":
            return float(self._density(d, np.array([c[1]]))[0])
        if d[0] == "dirac":
            return 1.0 if c[1] <= d[1] <= c[2] else 0.0
        return min(1.0, max(0.0, self._cdf(d, c[2]) - self._cdf(d, c[1])))

    def _joint(self, d, q, e) -> float:
        """P(q and e | leaf) / P(e | leaf) on one variable, given P(e | leaf) > 0."""
        if e is None:
            return self._mass(d, q)
        if q[0] == "set":
            both = tuple(lab for lab in q[1] if lab in e[1])
            return self._mass(d, ("set", both)) / self._mass(d, e) if both else 0.0
        if e[0] == "pt" or d[0] == "dirac":
            point = e[1] if e[0] == "pt" else d[1]
            return 1.0 if q[1] <= point <= q[2] else 0.0
        lo, hi = max(q[1], e[1]), min(q[2], e[2])
        if lo > hi:
            return 0.0
        return (self._cdf(d, hi) - self._cdf(d, lo)) / (self._cdf(d, e[2]) - self._cdf(d, e[1]))

    def leaf_weights(self, e: dict) -> np.ndarray:
        """prior_k * prod_i P(e_i | leaf k), unnormalised."""
        w = self.prior.copy()
        for k, d in enumerate(self.dist):
            for name, c in e.items():
                w[k] *= self._mass(d[name], c)
        return w

    def leaf_posterior(self, e: dict) -> np.ndarray:
        w = self.leaf_weights(e)
        return w / w.sum()

    def event_probability(self, q: dict, e: dict) -> float:
        w = self.leaf_weights(e)
        num = 0.0
        for k, d in enumerate(self.dist):
            if w[k] == 0.0:
                continue
            m = w[k]
            for name, c in q.items():
                m *= self._joint(d[name], c, e.get(name))
            num += m
        return num / w.sum()

    def satisfies(self, row, e: dict) -> bool:
        """Whether a decoded row (labels for symbolic cells) meets ``e``."""
        for name, c in e.items():
            v = row[self.names.index(name)]
            if c[0] == "set" and v not in c[1]:
                return False
            if c[0] == "pt" and v != c[1]:
                return False
            if c[0] == "iv" and not c[1] <= v <= c[2]:
                return False
        return True
