"""Model persistence (versioned JSON) and DOT structure export."""

from __future__ import annotations

import json
import math

from .data import Interval, Variable
from .learner import (EQUALS, THRESHOLD, DecisionNode, Leaf, LearnerConfig,
                      SplitCriterion, TreeModel, child_paths)
from .multinomial import histograms_from_json
from .plcdf import ColumnError, DistributionError, cdfs_from_json

FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """Raised when a model file is malformed or violates model invariants."""


def dumps(model: TreeModel) -> str:
    nodes = []

    def encode(node) -> int:
        idx = len(nodes)
        if isinstance(node, Leaf):
            nodes.append({"type": "leaf", "leaf": node.index})
            return idx
        entry = {"type": "split",
                 "var": node.criterion.variable.name,
                 "op": "le" if node.criterion.kind == THRESHOLD else "eq",
                 "value": (node.criterion.threshold
                           if node.criterion.kind == THRESHOLD
                           else node.criterion.variable.domain[node.criterion.value_index])}
        nodes.append(entry)
        entry["left"] = encode(node.left)
        entry["right"] = encode(node.right)
        return idx

    encode(model.root)
    doc = {
        "version": FORMAT_VERSION,
        "schema": [v.to_json() for v in model.schema],
        "config": model.config.to_json(),
        "nodes": nodes,
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
            prior, count = float(entry["prior"]), float(entry["sample_count"])
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

    def decode(idx, path: dict):
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
                seen_leaves.add(k)
                leaves[k].path = path
                return leaves[k]
            var, op, value = by_name[entry["var"]], entry["op"], entry["value"]
            if op == "le" and var.numeric and math.isfinite(float(value)):
                crit = SplitCriterion(var, THRESHOLD, threshold=float(value))
            elif op == "eq" and var.symbolic:
                crit = SplitCriterion(var, EQUALS, value_index=var.index_of(value))
            else:
                raise ModelFormatError(f"nodes[{idx}]: cannot split {var.kind} "
                                       f"{var.name!r} by {op!r} {value!r}")
            lp, rp = child_paths(path, crit)
            if any(not r or isinstance(r, Interval) and r.empty
                   for r in (lp[var.name], rp[var.name])):
                raise ModelFormatError(f"nodes[{idx}]: {crit.label()!r} has an empty child region")
            return DecisionNode(crit, decode(entry["left"], lp), decode(entry["right"], rp))
        except ModelFormatError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"nodes[{idx}]: {exc}") from None

    try:
        root = decode(0, {})
    except RecursionError:
        raise ModelFormatError("nodes: tree too deep to decode") from None
    if len(seen_leaves) != len(leaves):
        raise ModelFormatError("nodes: tree does not reference every leaf exactly once")
    return TreeModel(schema=schema, root=root, leaves=leaves, config=config)


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
    counter = [0]

    def emit(node) -> str:
        nid = f"n{counter[0]}"
        counter[0] += 1
        if isinstance(node, Leaf):
            summary = []
            for var in model.schema:
                d = node.distributions[var.name]
                if var.symbolic:
                    summary.append(f"{var.name}: {var.domain[d.argmax()]}")
                else:
                    summary.append(f"{var.name}: {d.expectation():.4g}")
            label = (f"leaf {node.index}\\nprior {node.prior:.4g}"
                     f"\\nsamples {node.sample_count:g}\\n" + "\\n".join(summary))
            lines.append(f'  {nid} [label="{_dot_escape(label)}"];')
            return nid
        label = _dot_escape(node.criterion.label())
        lines.append(f'  {nid} [label="{label}"];')
        left = emit(node.left)
        right = emit(node.right)
        lines.append(f'  {nid} -> {left} [label="true"];')
        lines.append(f'  {nid} -> {right} [label="false"];')
        return nid

    emit(model.root)
    lines.append("}")
    return "\n".join(lines) + "\n"
