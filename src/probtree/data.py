"""Variable schemas, datasets, constraint assignments and CSV ingestion."""

from __future__ import annotations

import collections
import contextlib
import csv
import itertools
import json
import math
import numbers
import re
from collections.abc import Iterable, Mapping
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
        domain = obj.get("domain", [])
        if not (isinstance(domain, list) and all(isinstance(label, str) for label in domain)):
            raise DataError(f"domain of {obj['name']!r} must be a list of strings")
        return Variable(obj["name"], obj["kind"], tuple(domain))


@dataclass(frozen=True)
class Interval:
    """The closed real interval [lower, upper]: a constraint on a numeric
    variable. A point is the interval with ``lower == upper``."""

    lower: float
    upper: float

    @property
    def is_point(self) -> bool:
        return self.lower == self.upper

    def __str__(self) -> str:
        return f"[{self.lower:g}, {self.upper:g}]"


#: A constraint set: variable name -> Interval (numeric) or frozenset of
#: domain indices (symbolic). Unconstrained variables are simply absent.
Assignment = dict


def _schema_map(schema) -> dict[str, Variable]:
    return {v.name: v for v in schema}


def make_assignment(schema, constraints: dict) -> Assignment:
    """Build a validated Assignment from user-level values.

    Numeric constraints may be a number (point), a ``(l, u)`` pair, or an
    Interval, read as its pair of bounds; a bound is a finite real number or
    a string of one. Symbolic constraints may be a label or an iterable of
    labels.
    """
    if not isinstance(constraints, Mapping):
        raise AssignmentError(f"constraints must be a mapping, not a {type(constraints).__name__}")
    by_name = _schema_map(schema)
    out: Assignment = {}
    for name, spec in constraints.items():
        if name not in by_name:
            raise AssignmentError(f"unknown variable {name!r}")
        var = by_name[name]
        if var.numeric:
            if isinstance(spec, Interval):
                spec = spec.lower, spec.upper
            elif not isinstance(spec, (tuple, list)):
                spec = spec, spec
            if len(spec) != 2:
                raise AssignmentError(f"bounds for {name!r} must be a pair, got {spec!r}")
            lo, hi = _bound(name, spec[0]), _bound(name, spec[1])
            if lo > hi:
                raise AssignmentError(f"inverted interval for {name!r}: [{lo:g}, {hi:g}]")
            out[name] = Interval(lo, hi)
        else:
            labels = (list(spec) if isinstance(spec, Iterable) and not isinstance(spec, str)
                      else [spec])
            if not all(isinstance(v, str) for v in labels):
                raise AssignmentError(f"expected a label or an iterable of labels for {name!r}, "
                                      f"got {spec!r}")
            if not labels:
                raise AssignmentError(f"empty value set for {name!r}")
            try:
                out[name] = frozenset(map(var.index_of, labels))
            except DataError as exc:  # a label outside the domain
                raise AssignmentError(str(exc)) from None
    return out


def _bound(name: str, value) -> float:
    """A numeric constraint value: a finite real number but a bool, or a
    string of one."""
    v = _read_number(value) if isinstance(value, str) else as_float(value)
    if v is None or not math.isfinite(v):
        raise AssignmentError(f"expected a finite number for {name!r}, got {value!r}")
    return v


_STMT_EQ = re.compile(r"^\s*(\w+)\s*=\s*(\S.*?)\s*$")
_STMT_IV = re.compile(r"^\s*(\w+)\s+in\s+\[\s*([^,\]]+?)\s*,\s*([^,\]]+?)\s*\]\s*$")
_STMT_SET = re.compile(r"^\s*(\w+)\s+in\s+\{\s*(.*?)\s*\}\s*$")


def parse_assignment(text: str, schema) -> Assignment:
    """Parse the constraint grammar ``stmt (';' stmt)*`` and build the
    statements' values with ``make_assignment``.

    ``stmt := name '=' value | name 'in' '[' num ',' num ']'
            | name 'in' '{' value (',' value)* '}'``
    """
    by_name = _schema_map(schema)
    specs = {}
    for raw in text.split(";"):
        stmt = raw.strip()
        if not stmt:
            raise AssignmentError(f"empty statement in {text!r}")
        if m := _STMT_IV.match(stmt):
            name, spec, kind = m[1], m.groups()[1:], NUMERIC
        elif m := _STMT_SET.match(stmt):
            name, spec, kind = m[1], [tok.strip() for tok in m[2].split(",")], SYMBOLIC
            if not all(spec):
                raise AssignmentError(f"empty value in set for {name!r}")
        elif m := _STMT_EQ.match(stmt):
            (name, spec), kind = m.groups(), None
        else:
            raise AssignmentError(f"cannot parse statement {stmt!r}")
        var = by_name.get(name)
        if var is not None and kind not in (None, var.kind):
            form = "interval" if kind == NUMERIC else "value-set"
            raise AssignmentError(f"{form} constraint on {var.kind} variable {name!r}")
        if name in specs:
            raise AssignmentError(f"duplicate constraint for {name!r}")
        specs[name] = spec
    return make_assignment(schema, specs)


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


#: Rows that the CSV reader and writer hold as strings at a time.
_CHUNK_ROWS = 4096


def ingest_csv(path, schema_override: dict | None = None) -> Dataset:
    """Read an RFC-4180-style CSV with header into a typed Dataset.

    Columns where every cell parses as a finite decimal number become
    numeric; all others become symbolic with the sorted distinct values as
    domain. ``schema_override`` maps column names to "numeric"/"symbolic"
    and wins over inference.

    The file is read ``_CHUNK_ROWS`` rows at a time, and each chunk's cells
    go into typed columns before the next chunk is read, so that only one
    chunk is held as strings. A column that stops being numeric after its
    first chunk costs a second read, with its labels kept from the start.
    Faults are reported in this order: a file that cannot be read or
    decoded, wherever in it the fault lies; the header; no data rows; the
    first ragged row or empty cell; the override; the first cell that a
    numeric override cannot read, in the first such column.
    """
    override = dict(schema_override or {})
    header, columns, n = _read_csv(path, override)
    while late := {name: SYMBOLIC for name, col in zip(header, columns) if col.late}:
        # the rare path: a column stopped being numeric after its first
        # chunk, so the file is read again with its labels kept from the start
        override.update(late)
        del columns
        header, columns, n = _read_csv(path, override)
    values = np.empty((n, len(header)))
    schema = [col.finish(name, values[:, j]) for j, (name, col) in enumerate(zip(header, columns))]
    return Dataset(tuple(schema), values)


def _read_csv(path, override: dict) -> tuple[list[str], list[_Column], int]:
    """The header, the typed ``_Column`` of each name and the row count of
    the CSV file at ``path``, read a chunk of rows at a time; every fault
    raises DataError, in the order that ``ingest_csv`` gives."""
    chunks = _csv_chunks(path)
    header = next(chunks)
    if header is None:
        raise DataError(f"{path}: empty file")
    if not header or len(set(header)) != len(header):
        collections.deque(chunks, maxlen=0)  # a read fault further on wins
        raise DataError(f"{path}: no column names in the first line" if not header
                        else f"{path}: duplicate column names in header")
    columns = [_Column(override.get(name)) for name in header]
    n, fault = 0, None
    for rows in chunks:
        if fault is None:
            fault = _read_rows(rows, n, header, columns)
        n += len(rows)
    if not n:
        raise DataError(f"{path}: no data rows")
    if fault is not None:
        raise DataError(f"{path}: {fault}")

    for name, kind in override.items():
        if name not in header:
            raise DataError(f"schema names column {name!r}, which {path} does not have")
        if kind not in (NUMERIC, SYMBOLIC):
            raise DataError(f"schema override for {name!r} must be 'numeric' or 'symbolic'")
    for name, col in zip(header, columns):
        if col.bad is not None:
            raise DataError(f"column {name!r} declared numeric but cell {col.bad!r} does not parse")
    return header, columns, n


def _csv_chunks(path):
    """The header row of the CSV file at ``path`` (None if it has none), then
    its other rows in lists of at most ``_CHUNK_ROWS``; a file that cannot
    be read or decoded raises DataError."""
    try:
        # utf-8-sig reads past a byte-order mark, which would join the first name
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            yield next(reader, None)
            while rows := list(itertools.islice(reader, _CHUNK_ROWS)):
                yield rows
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: not a UTF-8 CSV file ({exc})") from None


def _read_rows(rows, first: int, header, columns) -> str | None:
    """Add a chunk of rows, which follow ``first`` data rows, to
    ``columns``; or, without adding any, describe the first row that is
    ragged or has an empty cell (in a row, the length first)."""
    ncol, lengths = len(header), list(map(len, rows))
    ragged = (len(rows) if lengths.count(ncol) == len(rows)
              else next(i for i, n in enumerate(lengths) if n != ncol))
    cells = list(zip(*rows[:ragged]))
    empty = min(((c.index(""), j) for j, c in enumerate(cells) if "" in c), default=None)
    if empty is not None:
        return f"missing value in row {first + empty[0] + 2}, column {header[empty[1]]!r}"
    if ragged < len(rows):
        return f"row {first + ragged + 2} has {len(rows[ragged])} cells, expected {ncol}"
    for col, c in zip(columns, cells):
        col.add(c, first)
    return None


class _Column:
    """One CSV column's cells so far, in typed chunks: float arrays while
    every cell is a number, else label codes in the order in which labels
    first appeared, which ``finish`` maps to the sorted domain."""

    def __init__(self, kind: str | None):
        self.kind = kind
        self.numbers = None if kind == SYMBOLIC else []
        self.labels: dict[str, int] = {}
        self.codes: list[np.ndarray] = []
        self.bad = None  # under a numeric override, the first cell that is no number
        self.late = False  # stopped being numeric after its first chunk

    def add(self, cells, first: int) -> None:
        if self.bad is not None:
            return
        if self.numbers is not None:
            numbers = _read_numbers(cells)
            if numbers is not None:
                self.numbers.append(numbers)
                return
            if self.kind == NUMERIC:
                self.bad = next(c for c in cells if _read_number(c) is None)
                return
            self.numbers, self.late = None, first > 0
        labels = self.labels
        for label in set(cells).difference(labels):
            labels[label] = len(labels)
        self.codes.append(np.fromiter(map(labels.__getitem__, cells), np.intp, len(cells)))

    def finish(self, name: str, out: np.ndarray) -> Variable:
        """The column's Variable; its values go to ``out`` and its chunks
        are dropped."""
        if self.numbers is not None:
            var, parts = Variable(name, NUMERIC), self.numbers
        else:
            domain = tuple(sorted(self.labels))
            code = np.empty(len(domain))
            code[[self.labels[label] for label in domain]] = np.arange(len(domain))
            var, parts = Variable(name, SYMBOLIC, domain), self.codes
            for k, part in enumerate(parts):
                parts[k] = code[part]
        np.concatenate(parts, out=out)
        self.numbers = self.codes = None
        return var


def emit_csv(dataset: Dataset, out) -> None:
    """Write a Dataset back to CSV with full-precision numeric cells, to the
    file at path ``out`` or to ``out`` itself if it is an open text stream,
    ``_CHUNK_ROWS`` rows at a time."""
    with (contextlib.nullcontext(out) if hasattr(out, "write")
          else open(out, "w", newline="", encoding="utf-8")) as fh:
        writer = csv.writer(fh)
        writer.writerow([v.name for v in dataset.schema])
        for first in range(0, len(dataset), _CHUNK_ROWS):
            rows = dataset.values[first:first + _CHUNK_ROWS]
            columns = [list(map(var.domain.__getitem__, col.astype(np.intp).tolist()))
                       if var.symbolic else list(map(repr, col.tolist()))
                       for var, col in zip(dataset.schema, rows.T)]
            writer.writerows(zip(*columns) if columns else [()] * len(rows))


def load_schema_override(path) -> dict:
    """Read a sidecar JSON map {column_name: "numeric"|"symbolic"}."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: not a UTF-8 JSON file ({exc})") from None
    if not isinstance(obj, dict):
        raise DataError(f"{path}: schema override must be a JSON object")
    return obj


def is_number(value) -> bool:
    """Whether ``value`` is an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def as_float(value) -> float | None:
    """``value`` as a float if it is a real number but a bool and within the
    float range, else None."""
    if isinstance(value, (float, int, numbers.Real)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an int beyond the float range
            pass
    return None


def _read_numbers(texts) -> np.ndarray | None:
    """The finite decimal numbers that the strings ``texts`` spell, or None
    if one of them spells none. ``float`` also reads digits grouped by
    underscores (``1_0`` as 10), which no CSV cell or constraint means, so
    those are not numbers here."""
    if "_" in "".join(texts):
        return None
    try:
        numbers = np.fromiter(map(float, texts), float, len(texts))
    except ValueError:
        return None
    return numbers if np.isfinite(numbers).all() else None


def _read_number(text: str) -> float | None:
    """The finite decimal number that ``text`` spells, or None."""
    numbers = _read_numbers([text])
    return None if numbers is None else float(numbers[0])
