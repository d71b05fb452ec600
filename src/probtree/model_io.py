"""Model persistence (versioned JSON) and DOT structure export."""

from __future__ import annotations

import json
import math

from .data import Interval, Variable, is_number
from .learner import (EQUALS, THRESHOLD, DecisionNode, Leaf, LearnerConfig,
                      SplitCriterion, TreeModel, grow)
from .multinomial import histograms_from_json
from .plcdf import ColumnError, DistributionError, cdfs_from_json

FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """Raised when a model file is malformed or violates model invariants."""


def _preorder(root) -> list:
    """The nodes under ``root`` in preorder, left first, with their model-file entries."""
    out, stack = [], [(root, {}, "root")]  # (node, parent's entry, the node's key there)
    while stack:
        node, parent, key = stack.pop()
        parent[key] = len(out)
        if isinstance(node, Leaf):
            out.append((node, {"type": "leaf", "leaf": node.index}))
            continue
        crit = node.criterion
        entry = {"type": "split", "var": crit.variable.name,
                 "op": "le" if crit.kind == THRESHOLD else "eq",
                 "value": (crit.threshold if crit.kind == THRESHOLD
                           else crit.variable.domain[crit.value_index])}
        out.append((node, entry))
        stack += (node.right, entry, "right"), (node.left, entry, "left")
    return out


def dumps(model: TreeModel) -> str:
    doc = {
        "version": FORMAT_VERSION,
        "schema": [v.to_json() for v in model.schema],
        "config": model.config.to_json(),
        "nodes": [entry for _, entry in _preorder(model.root)],
        "leaves": [{
            "prior": leaf.prior,
            "sample_count": leaf.sample_count,
            "distributions": {name: d.to_json()
                              for name, d in leaf.distributions.items()},
        } for leaf in model.leaves],
    }
    return json.dumps(doc, separators=(",", ":"))


def save(model: TreeModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(model))


def loads(text: str) -> TreeModel:
    """Parse a model document, checking the model invariants: finite
    positive priors summing to 1, positive sample counts, valid
    distributions, and nodes forming a tree of non-empty regions that
    reaches every leaf exactly once."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"document: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ModelFormatError("document: not a JSON object")
    if type(doc.get("version")) is not int or doc["version"] != FORMAT_VERSION:
        raise ModelFormatError(f"version: expected {FORMAT_VERSION}, "
                               f"got {doc.get('version')!r}")

    try:
        schema = tuple(Variable.from_json(v) for v in doc["schema"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"schema: {exc}") from None
    by_name = {v.name: v for v in schema}
    if len(by_name) != len(schema):
        raise ModelFormatError("schema: duplicate variable names")

    try:
        config = LearnerConfig.from_json(doc.get("config", {}))
    except (AttributeError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"config: {exc}") from None

    leaves, columns = [], {name: [] for name in by_name}
    try:
        for k, entry in enumerate(doc["leaves"]):
            if not isinstance(entry["distributions"], dict):
                raise ModelFormatError(f"leaves[{k}]: distributions must be an object")
            for name, dj in entry["distributions"].items():
                if name not in by_name:
                    raise ModelFormatError(f"leaves[{k}]: unknown variable {name!r}")
                columns[name].append(dj)
            missing = set(by_name) - set(entry["distributions"])
            if missing:
                raise ModelFormatError(f"leaves[{k}]: missing distributions for {sorted(missing)}")
            prior, count = _json_float(entry["prior"]), _json_float(entry["sample_count"])
            if not (0 < prior < math.inf and 0 < count < math.inf):
                raise ModelFormatError(f"leaves[{k}]: prior and sample_count must be "
                                       f"finite and positive")
            # the distributions keep the document's key order; the columns fill them
            leaves.append(Leaf(index=k, prior=prior,
                               distributions=dict.fromkeys(entry["distributions"]),
                               path={}, sample_count=count))
    except ModelFormatError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"leaves: {exc}") from None

    total_prior = sum(leaf.prior for leaf in leaves)
    if not leaves or abs(total_prior - 1.0) > 1e-9:
        raise ModelFormatError(f"leaves: priors must be positive and sum to 1, got {total_prior}")

    for var in schema:
        try:
            dists = (histograms_from_json(var, columns[var.name]) if var.symbolic
                     else cdfs_from_json(columns[var.name]))
        except ColumnError as exc:
            raise ModelFormatError(f"leaves[{exc.entry}].{var.name}: {exc}") from None
        except DistributionError as exc:
            raise ModelFormatError(f"leaves: {var.name}: {exc}") from None
        for leaf, dist in zip(leaves, dists):
            leaf.distributions[var.name] = dist

    nodes = doc.get("nodes")
    if not isinstance(nodes, list) or not nodes:
        raise ModelFormatError("nodes: missing or empty")

    visited, seen_leaves = set(), set()

    def split(idx, path: dict):
        if not _is_index(idx, len(nodes)) or idx in visited:
            raise ModelFormatError(f"nodes[{idx}]: out of range or reached twice")
        visited.add(idx)
        try:
            entry = nodes[idx]
            if entry["type"] == "leaf":
                k = entry["leaf"]
                if not _is_index(k, len(leaves)) or k in seen_leaves:
                    raise ModelFormatError(f"nodes[{idx}]: leaf {k!r} out of range or "
                                           f"referenced twice")
                # a split with an empty child region empties every path below it
                if any(not r or isinstance(r, Interval) and r.empty for r in path.values()):
                    raise ModelFormatError(f"nodes[{idx}]: leaf {k} has an empty region")
                seen_leaves.add(k)
                return leaves[k]
            var, op, value = by_name[entry["var"]], entry["op"], entry["value"]
            threshold = _json_float(value)
            if op == "le" and var.numeric and math.isfinite(threshold):
                crit = SplitCriterion(var, THRESHOLD, threshold=threshold)
            elif op == "eq" and var.symbolic:
                crit = SplitCriterion(var, EQUALS, value_index=var.index_of(value))
            else:
                raise ModelFormatError(f"nodes[{idx}]: cannot split {var.kind} "
                                       f"{var.name!r} by {op!r} {value!r}")
            return crit, entry["left"], entry["right"]
        except ModelFormatError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"nodes[{idx}]: {exc}") from None

    root = grow(0, split)
    if len(seen_leaves) != len(leaves):
        raise ModelFormatError("nodes: tree does not reference every leaf exactly once")
    return TreeModel(schema=schema, root=root, leaves=leaves, config=config)


def _json_float(value) -> float:
    """A JSON number as a float, and NaN for any other value: a boolean, a
    string, or an integer beyond the float range."""
    if not is_number(value):
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.nan


def _is_index(value, n: int) -> bool:
    """Whether a JSON value is an integer (not a boolean) in [0, n)."""
    return type(value) is int and 0 <= value < n


def load(path) -> TreeModel:
    try:
        with open(path, encoding="utf-8") as fh:
            return loads(fh.read())
    except OSError as exc:
        raise ModelFormatError(f"file: cannot read {path} ({exc})") from None


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(model: TreeModel) -> str:
    """Render the tree as a Graphviz digraph.

    Decision nodes carry their criterion, edges true/false, leaves their
    prior, sample count and a per-variable expectation/argmax summary.
    """
    lines = ["digraph tree {", "  node [shape=box];"]
    for i, (node, entry) in enumerate(_preorder(model.root)):
        if isinstance(node, DecisionNode):
            lines.append(f'  n{i} [label="{_dot_escape(node.criterion.label())}"];')
            lines.append(f'  n{i} -> n{entry["left"]} [label="true"];')
            lines.append(f'  n{i} -> n{entry["right"]} [label="false"];')
            continue
        summary = []
        for var in model.schema:
            d = node.distributions[var.name]
            if var.symbolic:
                summary.append(f"{var.name}: {var.domain[d.argmax()]}")
            else:
                summary.append(f"{var.name}: {d.expectation():.4g}")
        label = (f"leaf {node.index}\\nprior {node.prior:.4g}"
                 f"\\nsamples {node.sample_count:g}\\n" + "\\n".join(summary))
        lines.append(f'  n{i} [label="{_dot_escape(label)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
