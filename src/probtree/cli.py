"""Command-line surface: train, query, likelihood, sample, export, eval.

Exit codes: 0 success, 1 data/model errors, 2 flag errors, 3 zero-probability
evidence.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import experiments
from .data import (AssignmentError, DataError, Dataset, emit_csv, ingest_csv,
                   load_schema_override, parse_assignment)
from .inference import (ZeroEvidenceError, event_probability,
                        expectation_query, log_likelihood, mpe, sample)
from .learner import LearnerConfig, learn
from .model_io import ModelFormatError, export_dot, load, save
from .plcdf import DistributionError

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2
EXIT_ZERO_EVIDENCE = 3


def _parse_min_samples(text: str):
    try:
        if "." in text or "e" in text.lower():
            v = float(text)
        else:
            return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid min-samples-leaf {text!r}") from None
    if not 0.0 < v < 1.0:
        raise argparse.ArgumentTypeError("fractional min-samples-leaf must lie in (0, 1)")
    return v


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="probtree",
                                     description="Tree-structured joint distributions "
                                                 "over mixed tabular data")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="learn a model from a CSV file")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-samples-leaf", type=_parse_min_samples, default=0.1)
    p.add_argument("--min-impurity-improvement", type=float, default=0.0)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--targets", help="comma-separated target variables "
                                     "(discriminative mode)")
    p.add_argument("--schema", help="sidecar JSON with column kind overrides")
    p.add_argument("--max-depth", type=int)
    p.add_argument("--seed", type=int, help="accepted for interface symmetry; "
                                            "training is deterministic")

    p = sub.add_parser("query", help="posterior probability, expectation or MPE")
    p.add_argument("--model", required=True)
    p.add_argument("--q", help="query constraints")
    p.add_argument("--e", help="evidence constraints")
    p.add_argument("--expect", help="numeric variable to report E(var | e)")
    p.add_argument("--confidence", type=float, default=0.95)
    p.add_argument("--mpe", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("likelihood", help="average log-likelihood of a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("sample", help="draw samples from the model")
    p.add_argument("--model", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--e", help="evidence constraints")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output CSV (default: stdout)")

    p = sub.add_parser("export", help="export the tree structure")
    p.add_argument("--model", required=True)
    p.add_argument("--dot", required=True)

    p = sub.add_parser("eval", help="run a built-in experiment")
    p.add_argument("--experiment", required=True, choices=["toy", "regression", "uci"])
    p.add_argument("--data", help="CSV dataset (uci experiment)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--fractions", default="0.2,0.1,0.05,0.02,0.01")
    p.add_argument("--out", help="report JSON (default: stdout)")
    return parser


def _cmd_train(args) -> int:
    override = load_schema_override(args.schema) if args.schema else None
    data = ingest_csv(args.data, override)
    targets = tuple(t.strip() for t in args.targets.split(",")) if args.targets else None
    config = LearnerConfig(min_samples_leaf=args.min_samples_leaf,
                           min_impurity_improvement=args.min_impurity_improvement,
                           epsilon=args.epsilon, targets=targets,
                           max_depth=args.max_depth)
    model = learn(data, config)
    save(model, args.out)
    avg, zero = log_likelihood(model, data)
    print(f"leaves: {len(model.leaves)}")
    print(f"model size: {model.parameter_count()} parameters")
    print(f"train avg log-likelihood: {avg:.6g} (zero fraction {zero:.4g})")
    return EXIT_OK


def _cmd_query(args) -> int:
    model = load(args.model)
    e = parse_assignment(args.e, model.schema) if args.e else {}
    if args.expect:
        mean, lo, hi = expectation_query(model, args.expect, e, args.confidence)
        if args.json:
            print(json.dumps({"mean": mean, "lower": lo, "upper": hi,
                              "confidence": args.confidence}))
        else:
            print(f"E({args.expect} | e) = {mean:.6g}, "
                  f"{args.confidence:g}-confidence interval [{lo:.6g}, {hi:.6g}]")
        return EXIT_OK
    if args.mpe:
        world, score = mpe(model, e)
        if args.json:
            print(json.dumps({"world": world, "score": score}))
        else:
            parts = ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                              for k, v in world.items())
            print(f"MPE: {parts}")
            print(f"score (mixed mass/density, comparable only under the same "
                  f"evidence): {score:.6g}")
        return EXIT_OK
    if not args.q:
        print("query needs one of --q, --expect or --mpe", file=sys.stderr)
        return EXIT_USAGE
    q = parse_assignment(args.q, model.schema)
    p = event_probability(model, q, e)
    print(json.dumps({"probability": p}) if args.json else f"P(q | e) = {p:.10g}")
    return EXIT_OK


def _cmd_likelihood(args) -> int:
    model = load(args.model)
    data = ingest_csv(args.data, {v.name: v.kind for v in model.schema})
    avg, zero = log_likelihood(model, _in_domain(data, model.schema))
    if args.json:
        print(json.dumps({"avg_loglik": avg, "zero_fraction": zero}))
    else:
        print(f"avg log-likelihood: {avg:.6g}")
        print(f"zero-likelihood fraction: {zero:.4g}")
    return EXIT_OK


def _in_domain(data: Dataset, schema) -> Dataset:
    """``data`` with each symbolic column re-encoded, label by label, into
    the domain of the same-named variable of ``schema``; a label outside
    that domain raises DataError."""
    if [v.name for v in data.schema] != [v.name for v in schema]:
        raise DataError("data columns do not match the model's variables")
    values = data.values.copy()
    for j, (read, var) in enumerate(zip(data.schema, schema)):
        if var.symbolic:
            codes = np.array([var.index_of(label) for label in read.domain], dtype=float)
            values[:, j] = codes[data.values[:, j].astype(int)]
    return Dataset(schema, values, data.weights)


def _cmd_sample(args) -> int:
    if args.n < 1:
        print("sample count must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    model = load(args.model)
    e = parse_assignment(args.e, model.schema) if args.e else None
    rng = np.random.default_rng(args.seed)
    drawn = sample(model, args.n, rng, e)
    if args.out:
        emit_csv(drawn, args.out)
    else:
        print(",".join(v.name for v in drawn.schema))
        for i in range(len(drawn)):
            print(",".join(lbl if isinstance(lbl, str) else repr(lbl)
                           for lbl in drawn.row_labels(i)))
    return EXIT_OK


def _cmd_export(args) -> int:
    model = load(args.model)
    with open(args.dot, "w", encoding="utf-8") as fh:
        fh.write(export_dot(model))
    return EXIT_OK


def _cmd_eval(args) -> int:
    fractions = tuple(float(f) for f in args.fractions.split(","))
    if args.experiment == "toy":
        data = experiments.gen_gaussian_toy(args.n, args.seed)
        report = experiments.run_likelihood_sweep(data, fractions, args.seed)
        report["experiment"] = "toy"
    elif args.experiment == "regression":
        report = experiments.run_regression_experiment(n=args.n, seed=args.seed,
                                                       fractions=fractions)
        report["experiment"] = "regression"
    else:
        if not args.data:
            print("--data is required for the uci experiment", file=sys.stderr)
            return EXIT_USAGE
        data = ingest_csv(args.data)
        report = experiments.run_likelihood_sweep(data, fractions, args.seed)
        report["experiment"] = "uci"
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


_COMMANDS = {
    "train": _cmd_train,
    "query": _cmd_query,
    "likelihood": _cmd_likelihood,
    "sample": _cmd_sample,
    "export": _cmd_export,
    "eval": _cmd_eval,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ZeroEvidenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ZERO_EVIDENCE
    except (DataError, AssignmentError, DistributionError, ModelFormatError,
            OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
