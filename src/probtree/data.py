"""Variable schemas, datasets, constraint assignments and CSV ingestion."""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

NUMERIC = "numeric"
SYMBOLIC = "symbolic"


class DataError(ValueError):
    """Raised for malformed input data or schema violations."""


class AssignmentError(ValueError):
    """Raised for malformed or contradictory variable constraints."""


@dataclass(frozen=True)
class Variable:
    """A named column: either real-valued or symbolic with a fixed label set.

    Symbolic domains are order-stable; the position of a label in ``domain``
    is its integer encoding everywhere else in the package.
    """

    name: str
    kind: str
    domain: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in (NUMERIC, SYMBOLIC):
            raise DataError(f"unknown variable kind {self.kind!r}")
        if self.kind == SYMBOLIC:
            if not self.domain:
                raise DataError(f"symbolic variable {self.name!r} needs a non-empty domain")
            if len(set(self.domain)) != len(self.domain):
                raise DataError(f"symbolic variable {self.name!r} has duplicate domain labels")
        elif self.domain:
            raise DataError(f"numeric variable {self.name!r} must not carry a domain")

    @property
    def numeric(self) -> bool:
        return self.kind == NUMERIC

    @property
    def symbolic(self) -> bool:
        return self.kind == SYMBOLIC

    def index_of(self, label: str) -> int:
        try:
            return self.domain.index(label)
        except ValueError:
            raise DataError(f"value {label!r} is not in the domain of {self.name!r}") from None

    def to_json(self) -> dict:
        d = {"name": self.name, "kind": self.kind}
        if self.symbolic:
            d["domain"] = list(self.domain)
        return d

    @staticmethod
    def from_json(obj: dict) -> "Variable":
        if not isinstance(obj["name"], str):
            raise DataError(f"variable name {obj['name']!r} is not a string")
        return Variable(obj["name"], obj["kind"], tuple(obj.get("domain", ())))


@dataclass(frozen=True)
class Interval:
    """A real interval, closed by default; open bounds arise from tree paths.

    Infinite bounds are permitted internally (path conditions of the form
    ``x <= t`` have an unbounded side); user-supplied evidence intervals
    must be finite.
    """

    lower: float
    upper: float
    lower_open: bool = False
    upper_open: bool = False

    @property
    def empty(self) -> bool:
        if self.lower > self.upper:
            return True
        if self.lower == self.upper and (self.lower_open or self.upper_open):
            return True
        return False

    @property
    def is_point(self) -> bool:
        return self.lower == self.upper and not self.lower_open and not self.upper_open

    def contains(self, x: float) -> bool:
        if x < self.lower or (x == self.lower and self.lower_open):
            return False
        if x > self.upper or (x == self.upper and self.upper_open):
            return False
        return True

    def intersect(self, other: "Interval") -> "Interval":
        if self.lower > other.lower:
            lo, lo_open = self.lower, self.lower_open
        elif self.lower < other.lower:
            lo, lo_open = other.lower, other.lower_open
        else:
            lo, lo_open = self.lower, self.lower_open or other.lower_open
        if self.upper < other.upper:
            hi, hi_open = self.upper, self.upper_open
        elif self.upper > other.upper:
            hi, hi_open = other.upper, other.upper_open
        else:
            hi, hi_open = self.upper, self.upper_open or other.upper_open
        return Interval(lo, hi, lo_open, hi_open)

    def __str__(self) -> str:
        lb = "(" if self.lower_open else "["
        ub = ")" if self.upper_open else "]"
        return f"{lb}{self.lower:g}, {self.upper:g}{ub}"


#: A constraint set: variable name -> Interval (numeric) or frozenset of
#: domain indices (symbolic). Unconstrained variables are simply absent.
Assignment = dict


def _schema_map(schema) -> dict[str, Variable]:
    return {v.name: v for v in schema}


def make_assignment(schema, constraints: dict) -> Assignment:
    """Build a validated Assignment from user-level values.

    Numeric constraints may be a number (point), a ``(l, u)`` pair, or a
    closed Interval. Symbolic constraints may be a label or an iterable of labels.
    """
    by_name = _schema_map(schema)
    out: Assignment = {}
    for name, spec in constraints.items():
        if name not in by_name:
            raise AssignmentError(f"unknown variable {name!r}")
        var = by_name[name]
        if var.numeric:
            if isinstance(spec, Interval):
                iv = spec
            elif isinstance(spec, (tuple, list)):
                iv = Interval(float(spec[0]), float(spec[1]))
            else:
                iv = Interval(float(spec), float(spec))
            if iv.lower_open or iv.upper_open:
                raise AssignmentError(f"open interval bounds for {name!r} are not supported")
            if iv.lower > iv.upper:
                raise AssignmentError(
                    f"inverted interval for {name!r}: [{iv.lower:g}, {iv.upper:g}]")
            if not (math.isfinite(iv.lower) and math.isfinite(iv.upper)):
                raise AssignmentError(f"evidence interval for {name!r} must be finite")
            out[name] = iv
        else:
            labels = [spec] if isinstance(spec, str) else list(spec)
            if not labels:
                raise AssignmentError(f"empty value set for {name!r}")
            out[name] = frozenset(_domain_index(var, v) for v in labels)
    return out


def _domain_index(var: Variable, label: str) -> int:
    try:
        return var.index_of(label)
    except DataError as exc:
        raise AssignmentError(str(exc)) from None


_STMT_EQ = re.compile(r"^\s*(\w+)\s*=\s*(\S.*?)\s*$")
_STMT_IV = re.compile(r"^\s*(\w+)\s+in\s+\[\s*([^,\]]+?)\s*,\s*([^,\]]+?)\s*\]\s*$")
_STMT_SET = re.compile(r"^\s*(\w+)\s+in\s+\{\s*(.*?)\s*\}\s*$")


def parse_assignment(text: str, schema) -> Assignment:
    """Parse the constraint grammar ``stmt (';' stmt)*``.

    ``stmt := name '=' value | name 'in' '[' num ',' num ']'
            | name 'in' '{' value (',' value)* '}'``
    """
    by_name = _schema_map(schema)
    out: Assignment = {}
    for raw in text.split(";"):
        stmt = raw.strip()
        if not stmt:
            raise AssignmentError(f"empty statement in {text!r}")
        m = _STMT_IV.match(stmt)
        if m:
            name, lo_s, hi_s = m.groups()
            var = _lookup(by_name, name)
            if not var.numeric:
                raise AssignmentError(f"interval constraint on symbolic variable {name!r}")
            lo, hi = _parse_num(lo_s), _parse_num(hi_s)
            if lo > hi:
                raise AssignmentError(f"inverted interval for {name!r}: [{lo:g}, {hi:g}]")
            _put(out, name, Interval(lo, hi))
            continue
        m = _STMT_SET.match(stmt)
        if m:
            name, body = m.groups()
            var = _lookup(by_name, name)
            if not var.symbolic:
                raise AssignmentError(f"value-set constraint on numeric variable {name!r}")
            labels = [tok.strip() for tok in body.split(",")]
            if any(not tok for tok in labels):
                raise AssignmentError(f"empty value in set for {name!r}")
            _put(out, name, frozenset(_domain_index(var, v) for v in labels))
            continue
        m = _STMT_EQ.match(stmt)
        if m:
            name, value = m.groups()
            var = _lookup(by_name, name)
            if var.numeric:
                v = _parse_num(value)
                _put(out, name, Interval(v, v))
            else:
                _put(out, name, frozenset([_domain_index(var, value)]))
            continue
        raise AssignmentError(f"cannot parse statement {stmt!r}")
    return out


def _lookup(by_name: dict, name: str) -> Variable:
    if name not in by_name:
        raise AssignmentError(f"unknown variable {name!r}")
    return by_name[name]


def _put(out: Assignment, name: str, constraint) -> None:
    if name in out:
        raise AssignmentError(f"duplicate constraint for {name!r}")
    out[name] = constraint


def _parse_num(tok: str) -> float:
    try:
        v = float(tok)
    except ValueError:
        raise AssignmentError(f"expected a number, got {tok.strip()!r}") from None
    if not math.isfinite(v):
        raise AssignmentError(f"non-finite number {tok.strip()!r}")
    return v


@dataclass(frozen=True)
class Dataset:
    """Row-major sample storage over a fixed schema.

    Symbolic cells are stored as float-encoded domain indices, numeric cells
    as finite reals. Per-row positive weights default to 1.
    """

    schema: tuple[Variable, ...]
    values: np.ndarray
    weights: np.ndarray = field(default=None)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[1] != len(self.schema):
            raise DataError("row length does not match schema length")
        weights = self.weights
        if weights is None:
            weights = np.ones(values.shape[0])
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (values.shape[0],):
            raise DataError("weights length does not match row count")
        if np.any(weights <= 0):
            raise DataError("row weights must be positive")
        if not np.all(np.isfinite(values)):
            raise DataError("dataset cells must be finite")
        for j, var in enumerate(self.schema):
            if var.symbolic:
                col = values[:, j]
                if np.any(col != np.round(col)) or np.any(col < 0) or np.any(col >= len(var.domain)):
                    raise DataError(f"symbolic column {var.name!r} has out-of-domain indices")
        values.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "schema", tuple(self.schema))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.column_index(name)]

    def column_index(self, name: str) -> int:
        for j, var in enumerate(self.schema):
            if var.name == name:
                return j
        raise DataError(f"unknown variable {name!r}")

    def subset(self, indices) -> "Dataset":
        return Dataset(self.schema, self.values[indices], self.weights[indices])

    def row_labels(self, i: int) -> list:
        """Row ``i`` with symbolic indices decoded back to labels."""
        out = []
        for j, var in enumerate(self.schema):
            cell = self.values[i, j]
            out.append(var.domain[int(cell)] if var.symbolic else float(cell))
        return out


def ingest_csv(path, schema_override: dict | None = None) -> Dataset:
    """Read an RFC-4180-style CSV with header into a typed Dataset.

    Columns where every cell parses as a finite decimal number become
    numeric; all others become symbolic with the sorted distinct values as
    domain. ``schema_override`` maps column names to "numeric"/"symbolic"
    and wins over inference.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            rows = list(reader)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
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
        parsed = [_try_number(c) for c in cells]
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


def emit_csv(dataset: Dataset, path) -> None:
    """Write a Dataset back to CSV with full-precision numeric cells."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([v.name for v in dataset.schema])
        for i in range(len(dataset)):
            row = []
            for j, var in enumerate(dataset.schema):
                cell = dataset.values[i, j]
                row.append(var.domain[int(cell)] if var.symbolic else repr(float(cell)))
            writer.writerow(row)


def load_schema_override(path) -> dict:
    """Read a sidecar JSON map {column_name: "numeric"|"symbolic"}."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise DataError("schema override must be a JSON object")
    return obj


def _try_number(cell: str):
    try:
        v = float(cell)
    except ValueError:
        return None
    return v if math.isfinite(v) else None
