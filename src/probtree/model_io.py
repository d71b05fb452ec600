"""Model persistence (versioned JSON) and DOT structure export."""

from __future__ import annotations

import json
import math

import numpy as np

from .data import Variable, as_float
from .leaftable import LeafTable, regions
from .learner import LearnerConfig, Tree, TreeModel
from .multinomial import histograms_from_json, histograms_to_json
from .plcdf import ColumnError, DistributionError, cdfs_from_json, cdfs_to_json

FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """Raised when a model file is malformed or violates model invariants."""


def dumps(model: TreeModel) -> str:
    """The model as a document; its nodes keep the order of the node
    arrays, which is preorder for a learnt tree."""
    nodes = []
    for f, value, left, right, k in zip(*(a.tolist() for a in model.tree)):
        var = model.schema[f]
        nodes.append({"type": "leaf", "leaf": k} if f < 0 else
                     {"type": "split", "var": var.name, "op": "le" if var.numeric else "eq",
                      "value": value if var.numeric else var.domain[int(value)],
                      "left": left, "right": right})
    t = model.table
    columns = [histograms_to_json(var, t.store[var.name]) if var.symbolic
               else cdfs_to_json(*t.store[var.name]) for var in model.schema]
    names = [var.name for var in model.schema]
    doc = {
        "version": FORMAT_VERSION,
        "schema": [v.to_json() for v in model.schema],
        "config": model.config.to_json(),
        "nodes": nodes,
        "leaves": [{"prior": prior, "sample_count": count, "distributions": dict(zip(names, dists))}
                   for prior, count, *dists in zip(t.prior.tolist(), t.sample_count.tolist(),
                                                   *columns)],
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

    prior, count, columns = [], [], {name: [] for name in by_name}
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
            p, c = _json_float(entry["prior"]), _json_float(entry["sample_count"])
            if not (0 < p < math.inf and 0 < c < math.inf):
                raise ModelFormatError(f"leaves[{k}]: prior and sample_count must be "
                                       f"finite and positive")
            prior.append(p)
            count.append(c)
    except ModelFormatError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"leaves: {exc}") from None

    total_prior = sum(prior)
    if not prior or abs(total_prior - 1.0) > 1e-9:
        raise ModelFormatError(f"leaves: priors must be positive and sum to 1, got {total_prior}")

    store = {}
    for var in schema:
        try:
            store[var.name] = (histograms_from_json(var, columns[var.name]) if var.symbolic
                               else cdfs_from_json(columns[var.name]))
        except ColumnError as exc:
            raise ModelFormatError(f"leaves[{exc.entry}].{var.name}: {exc}") from None
        except DistributionError as exc:
            raise ModelFormatError(f"leaves: {var.name}: {exc}") from None

    tree = _nodes(doc.get("nodes"), schema, len(prior))
    # the root, and every child, has one parent: the walk from the root ends
    parents = np.bincount(np.concatenate([[0], tree.left, tree.right]) + 1)[1:]
    if (parents > 1).any():
        raise ModelFormatError(f"nodes[{(parents > 1).argmax()}]: out of range or reached twice")
    region, leaf_nodes, empty = regions(schema, tree, len(prior))
    if 2 * len(leaf_nodes) - 1 != len(tree.feature):
        raise ModelFormatError("nodes: some entries are not reached from the root")
    refs = np.bincount(tree.leaf[leaf_nodes], minlength=len(prior))
    if refs.max() > 1:
        k = refs.argmax()
        i = np.sort(leaf_nodes[tree.leaf[leaf_nodes] == k])[1]
        raise ModelFormatError(f"nodes[{i}]: leaf {k} out of range or referenced twice")
    if refs.min() < 1:
        raise ModelFormatError("nodes: tree does not reference every leaf exactly once")
    if empty.size:
        i = empty.min()
        raise ModelFormatError(f"nodes[{i}]: leaf {tree.leaf[i]} has an empty region")
    return TreeModel(schema, tree, LeafTable(prior, count, store, region), config)


def _nodes(nodes, schema, n_leaves: int) -> Tree:
    """The node arrays of a document's ``nodes`` list, each entry checked on
    its own: a leaf in range, or a split that its variable can take whose
    children are in range."""
    if not isinstance(nodes, list) or not nodes:
        raise ModelFormatError("nodes: missing or empty")
    index = {var.name: j for j, var in enumerate(schema)}
    numeric = [var.numeric for var in schema]
    rows = []
    for i, entry in enumerate(nodes):
        try:
            if entry["type"] == "leaf":
                k = entry["leaf"]
                if not _is_index(k, n_leaves):
                    raise ModelFormatError(f"nodes[{i}]: leaf {k!r} out of range or "
                                           f"referenced twice")
                rows += -1, 0.0, -1, -1, k
                continue
            j, op, value = index[entry["var"]], entry["op"], entry["value"]
            if op == "le" and numeric[j] and math.isfinite(t := _json_float(value)):
                pass
            elif op == "eq" and not numeric[j]:
                t = schema[j].index_of(value)
            else:
                var = schema[j]
                raise ModelFormatError(f"nodes[{i}]: cannot split {var.kind} "
                                       f"{var.name!r} by {op!r} {value!r}")
            left, right = entry["left"], entry["right"]
            if not (_is_index(left, len(nodes)) and _is_index(right, len(nodes))):
                child = right if _is_index(left, len(nodes)) else left
                raise ModelFormatError(f"nodes[{child}]: out of range or reached twice")
            rows += j, t, left, right, -1
        except ModelFormatError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"nodes[{i}]: {exc}") from None
    return Tree.of(rows)


def _json_float(value) -> float:
    """A JSON number as a float, and NaN for any other value: a boolean, a
    string, or an integer beyond the float range."""
    v = as_float(value)
    return math.nan if v is None else v


def _is_index(value, n: int) -> bool:
    """Whether a JSON value is an integer (not a boolean) in [0, n)."""
    return type(value) is int and 0 <= value < n


def load(path) -> TreeModel:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ModelFormatError(f"file: cannot read {path} ({exc})") from None
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"file: {path} is not UTF-8 text ({exc})") from None
    return loads(text)


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(model: TreeModel) -> str:
    """Render the tree as a Graphviz digraph.

    Decision nodes carry their criterion, edges true/false, leaves their
    prior, sample count and a per-variable expectation/argmax summary.
    """
    lines = ["digraph tree {", "  node [shape=box];"]
    tree = model.tree
    for i, (left, right, k) in enumerate(zip(tree.left, tree.right, tree.leaf)):
        if tree.feature[i] >= 0:
            lines.append(f'  n{i} [label="{_dot_escape(model.criterion(i).label())}"];')
            lines.append(f'  n{i} -> n{left} [label="true"];')
            lines.append(f'  n{i} -> n{right} [label="false"];')
            continue
        leaf = model.leaves[k]
        summary = []
        for var in model.schema:
            d = leaf.distributions[var.name]
            if var.symbolic:
                summary.append(f"{var.name}: {var.domain[d.argmax()]}")
            else:
                summary.append(f"{var.name}: {d.expectation():.4g}")
        label = (f"leaf {leaf.index}\\nprior {leaf.prior:.4g}"
                 f"\\nsamples {leaf.sample_count:g}\\n" + "\\n".join(summary))
        lines.append(f'  n{i} [label="{_dot_escape(label)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
