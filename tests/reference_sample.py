"""Reference version of ``inference.sample``, kept to check that the guided
inversion draws the same bits: the leaf draw by ``Generator.choice``, then
per block of rows a binary-lifting search of each row's leaf for each
variable, with the quantile interpolated on the rows that need it.
"""

from __future__ import annotations

import numpy as np

from probtree.data import Dataset
from probtree.inference import leaf_posterior


def reference_first_at_least(a, first, last, v) -> np.ndarray:
    """Each query's first row in ``first..last`` with a >= v, by binary
    lifting; past ``last`` where no row qualifies."""
    g = first.copy()
    for step in 1 << np.arange(int((last - first).max() + 1).bit_length())[::-1]:
        g += step * (a[np.minimum(g + (step - 1), last)] < v)
    return g


def reference_quantile(owner, x, F, leaf, u) -> np.ndarray:
    """Quantile u < 1 of each given leaf's packed CDF, as ``ppf`` gives it."""
    first = np.flatnonzero(np.diff(owner, prepend=-1))[leaf]
    g = reference_first_at_least(
        F, first, np.flatnonzero(np.diff(owner, append=len(owner)))[leaf], u)
    i = np.flatnonzero((g > first) & (F[g] > u))
    out, a, b = x[g], g[i] - 1, g[i]
    out[i] = np.minimum(x[a] + (u[i] - F[a]) / (F[b] - F[a]) * (x[b] - x[a]), x[b])
    return out


def reference_sample(model, n: int, rng, e=None) -> Dataset:
    """``sample`` as it drew before the guide tables, for a valid ``n``."""
    posterior = leaf_posterior(model, e)
    keep = np.flatnonzero(posterior)
    w, e = posterior[keep], e or {}
    columns = [model.table.column(var.name).conditioned(keep, e.get(var.name))
               for var in model.schema]
    leaf = rng.choice(len(w), size=n, p=w)
    values = np.empty((n, len(model.schema)))
    block = 1 << 13
    for j, (var, leaves) in enumerate(zip(model.schema, columns)):
        if var.symbolic:
            cum, k = np.cumsum(leaves, axis=1).ravel(), leaves.shape[1]
        for a in range(0, n, block):
            rows = slice(a, min(a + block, n))
            u = rng.random(rows.stop - a)
            if var.numeric:
                values[rows, j] = reference_quantile(*leaves, leaf[rows], u)
            else:
                first = leaf[rows] * k
                values[rows, j] = reference_first_at_least(
                    cum, first, first + k - 1, np.nextafter(u * cum[first + k - 1], np.inf)) - first
    return Dataset(model.schema, values)
