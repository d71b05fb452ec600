"""Reference versions of the training path, kept to check that the program's
faster ones give the same bits: the row-by-row CSV reader, the per-cell CSV
writer, the numeric split scorer that scatters one group per row and scores
every boundary at once, the symbolic one that sums each statistic's rest on
its own, and the CDF fitter that makes three chord scans per hinge.
"""

from __future__ import annotations

import csv
import math
from typing import NamedTuple

import numpy as np

from probtree.data import NUMERIC, SYMBOLIC, DataError, Dataset, Variable
from probtree.plcdf import Dirac, PiecewiseLinearCDF

# -- CSV ----------------------------------------------------------------------


def reference_read_number(text: str) -> float | None:
    if "_" in text:
        return None
    try:
        v = float(text)
    except ValueError:
        return None
    return v if math.isfinite(v) else None


def reference_ingest_csv(path, schema_override: dict | None = None) -> Dataset:
    """``ingest_csv`` as one loop over the rows and one parse per cell."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            rows = list(reader)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: not a UTF-8 CSV file ({exc})") from None
    if not header:
        raise DataError(f"{path}: no column names in the first line")
    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate column names in header")
    if not rows:
        raise DataError(f"{path}: no data rows")
    ncol = len(header)
    for i, row in enumerate(rows):
        if len(row) != ncol:
            raise DataError(f"{path}: row {i + 2} has {len(row)} cells, expected {ncol}")
        for j, cell in enumerate(row):
            if cell == "":
                raise DataError(f"{path}: missing value in row {i + 2}, column {header[j]!r}")

    override = dict(schema_override or {})
    for name, kind in override.items():
        if name not in header:
            raise DataError(f"schema names column {name!r}, which {path} does not have")
        if kind not in (NUMERIC, SYMBOLIC):
            raise DataError(f"schema override for {name!r} must be 'numeric' or 'symbolic'")

    schema = []
    columns = []
    for j, name in enumerate(header):
        cells = [row[j] for row in rows]
        parsed = [reference_read_number(c) for c in cells]
        all_numeric = all(v is not None for v in parsed)
        kind = override.get(name, NUMERIC if all_numeric else SYMBOLIC)
        if kind == NUMERIC:
            if not all_numeric:
                bad = cells[next(i for i, v in enumerate(parsed) if v is None)]
                raise DataError(f"column {name!r} declared numeric but cell {bad!r} does not parse")
            schema.append(Variable(name, NUMERIC))
            columns.append(np.array(parsed, dtype=float))
        else:
            domain = tuple(sorted(set(cells)))
            var = Variable(name, SYMBOLIC, domain)
            schema.append(var)
            index = {lab: k for k, lab in enumerate(domain)}
            columns.append(np.array([index[c] for c in cells], dtype=float))
    return Dataset(tuple(schema), np.column_stack(columns))


def reference_emit_csv(dataset: Dataset, fh) -> None:
    """``emit_csv`` to an open text stream, one call per cell and row."""
    writer = csv.writer(fh)
    writer.writerow([v.name for v in dataset.schema])
    for i in range(len(dataset)):
        row = []
        for j, var in enumerate(dataset.schema):
            cell = dataset.values[i, j]
            row.append(var.domain[int(cell)] if var.symbolic else repr(float(cell)))
        writer.writerow(row)


# -- numeric split search -------------------------------------------------------

_PURE = 1e-12


def reference_entropy_rel(counts) -> np.ndarray:
    """Relative entropy of each row of label-last ``counts``."""
    counts = np.asarray(counts, dtype=float)
    k = counts.shape[-1]
    if k <= 1:
        return np.zeros(counts.shape[:-1])
    totals = counts.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(totals > 0, counts / totals, 0.0)
        logp = np.where(p > 0, np.log(p), 0.0)
    return -(p * logp).sum(axis=-1) / math.log(k)


def _weighted_mse(values, weights) -> float:
    total = weights.sum()
    mean = float((weights * values).sum() / total)
    return float((weights * (values - mean) ** 2).sum() / total)


class _Stats(NamedTuple):
    w: np.ndarray
    counts: dict  # symbolic scope column -> (B, k)
    sums: dict

    def map(self, f):
        return _Stats(f(self.w), {j: f(c) for j, c in self.counts.items()},
                      {j: (f(s1), f(s2)) for j, (s1, s2) in self.sums.items()})

    def __sub__(self, other):
        return _Stats(self.w - other.w, {j: c - other.counts[j] for j, c in self.counts.items()},
                      {j: (s1 - other.sums[j][0], s2 - other.sums[j][1])
                       for j, (s1, s2) in self.sums.items()})


class ReferenceScope:
    def __init__(self, schema, scope_indices, values, weights):
        self.schema, self.values, self.weights = schema, values, weights
        self.sym = [j for j in scope_indices if schema[j].symbolic]
        self.num = [j for j in scope_indices if schema[j].numeric]
        node = self.grouped(np.zeros(len(weights), dtype=np.intp), 1)
        self.parent_h = {j: float(reference_entropy_rel(c[0])) for j, c in node.counts.items()}
        self.parent_mse = {j: _weighted_mse(values[:, j], weights) for j in self.num}

    def grouped(self, groups, n) -> _Stats:
        w = self.weights
        counts = {}
        for j in self.sym:
            k = len(self.schema[j].domain)
            cell = groups * k + self.values[:, j].astype(np.intp)
            counts[j] = np.bincount(cell, weights=w, minlength=n * k).reshape(n, k)
        sums = {}
        for j in self.num:
            wx = w * self.values[:, j]
            sums[j] = (np.bincount(groups, weights=wx, minlength=n),
                       np.bincount(groups, weights=wx * self.values[:, j], minlength=n))
        return _Stats(np.bincount(groups, weights=w, minlength=n), counts, sums)

    def score(self, left, right, total):
        wl, wr = left.w, right.w
        improvement = np.zeros(len(wl))
        if self.sym:
            s = np.zeros(len(wl))
            for j in self.sym:
                hp = self.parent_h[j]
                if hp <= _PURE:
                    continue
                hl = reference_entropy_rel(left.counts[j])
                hr = reference_entropy_rel(right.counts[j])
                s += hp - (wl * hl + wr * hr) / total
            improvement += s / len(self.sym) ** 2
        if self.num:
            s = np.zeros(len(wl))
            for j in self.num:
                mp = self.parent_mse[j]
                if mp <= _PURE:
                    continue
                (s1l, s2l), (s1r, s2r) = left.sums[j], right.sums[j]
                ml = np.maximum(s2l / wl - (s1l / wl) ** 2, 0.0)
                mr = np.maximum(s2r / wr - (s1r / wr) ** 2, 0.0)
                s += (mp - (wl * ml + wr * mr) / total) / mp
            improvement += s / len(self.num) ** 2
        return improvement


def reference_best_numeric_split(scope: ReferenceScope, j: int, min_weight: float):
    """``(improvement, threshold)`` of the best threshold on column ``j``, or
    None: one group per row, summed up, and every boundary scored at once."""
    col = scope.values[:, j]
    order = np.argsort(col, kind="stable")
    vs = col[order]
    cw = np.cumsum(scope.weights[order])
    total = cw[-1]
    boundary = np.nonzero(vs[:-1] < vs[1:])[0]
    boundary = boundary[(cw[boundary] >= min_weight)
                        & (total - cw[boundary] >= min_weight)]
    if boundary.size == 0:
        return None
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    prefix = scope.grouped(rank, len(order)).map(lambda a: np.cumsum(a, axis=0, out=a))
    left, last = prefix.map(lambda a: a[boundary]), prefix.map(lambda a: a[[-1]])
    improvement = scope.score(left, last - left, total)
    k = int(np.argmax(improvement))
    pos = boundary[k]
    return float(improvement[k]), (vs[pos] + vs[pos + 1]) / 2.0


def reference_best_symbolic_split(scope: ReferenceScope, j: int, min_weight: float):
    """``(improvement, value index)`` of the best one-vs-rest value of
    column ``j``, or None: each statistic's rest is its own product with
    the others-matrix, as the search once computed it."""
    k = len(scope.schema[j].domain)
    by_value = scope.grouped(scope.values[:, j].astype(np.intp), k)
    others = 1.0 - np.eye(k)
    rest = by_value.map(lambda a: others @ a)
    values = np.flatnonzero((by_value.w >= min_weight) & (rest.w >= min_weight))
    if values.size == 0:
        return None
    improvement = scope.score(by_value.map(lambda a: a[values]), rest.map(lambda a: a[values]),
                              float(scope.weights.sum()))
    i = int(np.argmax(improvement))
    return float(improvement[i]), int(values[i])


# -- CDF fitting ------------------------------------------------------------------


def reference_chord_sse(prefix, a, b, d, g):
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
    return np.where(np.isfinite(sse), np.maximum(sse, 0.0), np.inf), n


def reference_cdf_learn(points, epsilon: float) -> PiecewiseLinearCDF:
    """``cdf_learn`` on a valid quantile curve, with one chord scan for the
    stop test and one for each side of the candidates."""
    d, g = (np.asarray(a, dtype=float) for a in points)
    if len(d) == 1:
        return Dirac(d[0])
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
        sse, _ = reference_chord_sse(prefix, a, b, d, g)
        if sse < epsilon:
            continue
        cand = np.arange(a + 1, b)
        sse_l, n_l = reference_chord_sse(prefix, np.full_like(cand, a), cand, d, g)
        sse_r, n_r = reference_chord_sse(prefix, cand, np.full_like(cand, b), d, g)
        emse = (sse_l + sse_r) / (n_l + n_r)
        i = int(cand[np.argmin(emse)])
        hinges.add(i)
        stack.append((i, b))
        stack.append((a, i))
    idx = sorted(hinges)
    return PiecewiseLinearCDF(np.column_stack([d[idx], g[idx]]))
