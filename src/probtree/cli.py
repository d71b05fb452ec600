"""Command-line surface: train, query, likelihood, sample, export, eval.

Exit codes: 0 success, 1 data/model errors, 2 flag errors, 3 zero-probability
evidence.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields

import numpy as np

from . import experiments
from .data import (AssignmentError, DataError, Dataset, emit_csv, ingest_csv,
                   load_schema_override, parse_assignment)
from .inference import (MAX_SAMPLE_COUNT, ZeroEvidenceError, event_probability,
                        expectation_query, log_likelihood, mpe, sample)
from .learner import LearnerConfig, learn
from .model_io import ModelFormatError, export_dot, load, save
from .plcdf import DistributionError, confidence_level

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2
EXIT_ZERO_EVIDENCE = 3


def _parse_min_samples(text: str):
    """An argparse type: a number, an int unless written with a point or an
    exponent, that ``LearnerConfig`` takes as ``min_samples_leaf``."""
    try:
        v = float(text) if "." in text or "e" in text.lower() else int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid min-samples-leaf {text!r}") from None
    try:
        LearnerConfig(min_samples_leaf=v)
    except DataError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return v


def _int_at_least(low: int, what: str):
    """An argparse type: an integer of at least ``low``."""
    def parse(text: str) -> int:
        try:
            v = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {what} {text!r}") from None
        if v < low:
            raise argparse.ArgumentTypeError(f"{what} must be >= {low}")
        return v
    return parse


_parse_seed = _int_at_least(0, "seed")


def _parse_confidence(text: str) -> float:
    try:
        return confidence_level(float(text))
    except ValueError as exc:  # DistributionError is one
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_targets(text: str):
    return tuple(t.strip() for t in text.split(",")) if text else None


def _parse_fractions(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(f) for f in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid fractions {text!r}: need "
                                         "comma-separated numbers") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="probtree",
                                     description="Tree-structured joint distributions "
                                                 "over mixed tabular data")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="learn a model from a CSV file")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-samples-leaf", type=_parse_min_samples)
    p.add_argument("--min-impurity-improvement", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--targets", type=_parse_targets, help="comma-separated target variables "
                                                          "(discriminative mode)")
    p.add_argument("--schema", help="sidecar JSON with column kind overrides")
    p.add_argument("--max-depth", type=int)
    p.set_defaults(run=_cmd_train, **asdict(LearnerConfig()))

    p = sub.add_parser("query", help="posterior probability, expectation or MPE")
    p.add_argument("--model", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--q", help="query constraints")
    mode.add_argument("--expect", help="numeric variable to report E(var | e)")
    mode.add_argument("--mpe", action="store_true")
    p.add_argument("--e", help="evidence constraints")
    p.add_argument("--confidence", type=_parse_confidence, default=0.95)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_query)

    p = sub.add_parser("likelihood", help="average log-likelihood of a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_likelihood)

    p = sub.add_parser("sample", help="draw samples from the model")
    p.add_argument("--model", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--e", help="evidence constraints")
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.add_argument("--out", help="output CSV (default: stdout)")
    p.set_defaults(run=_cmd_sample)

    p = sub.add_parser("export", help="export the tree structure")
    p.add_argument("--model", required=True)
    p.add_argument("--dot", required=True)
    p.set_defaults(run=_cmd_export)

    p = sub.add_parser("eval", help="run a built-in experiment")
    p.add_argument("--experiment", required=True, choices=["toy", "regression", "uci"])
    p.add_argument("--data", help="CSV dataset (uci experiment)")
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.add_argument("--n", type=_int_at_least(2, "sample size"), default=1000)
    p.add_argument("--fractions", type=_parse_fractions, default="0.2,0.1,0.05,0.02,0.01")
    p.add_argument("--out", help="report JSON (default: stdout)")
    p.set_defaults(run=_cmd_eval)
    return parser


def _cmd_train(args) -> int:
    config = LearnerConfig(**{f.name: getattr(args, f.name) for f in fields(LearnerConfig)})
    override = load_schema_override(args.schema) if args.schema else None
    data = ingest_csv(args.data, override)
    model = learn(data, config)
    save(model, args.out)
    avg, zero = log_likelihood(model, data)
    print(f"leaves: {len(model.table.prior)}")
    print(f"model size: {model.parameter_count()} parameters")
    print(f"train avg log-likelihood: {avg:.6g} (zero fraction {zero:.4g})")
    return EXIT_OK


def _cmd_query(args) -> int:
    if args.q is None and not args.expect and not args.mpe:
        print("error: query needs one of --q, --expect or --mpe", file=sys.stderr)
        return EXIT_USAGE
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
    if not 1 <= args.n <= MAX_SAMPLE_COUNT:
        print(f"error: sample count must lie in [1, {MAX_SAMPLE_COUNT}]", file=sys.stderr)
        return EXIT_USAGE
    model = load(args.model)
    e = parse_assignment(args.e, model.schema) if args.e else None
    rng = np.random.default_rng(args.seed)
    emit_csv(sample(model, args.n, rng, e), args.out or sys.stdout)
    return EXIT_OK


def _cmd_export(args) -> int:
    model = load(args.model)
    with open(args.dot, "w", encoding="utf-8") as fh:
        fh.write(export_dot(model))
    return EXIT_OK


def _cmd_eval(args) -> int:
    if args.experiment == "regression":
        report = experiments.run_regression_experiment(n=args.n, seed=args.seed,
                                                       fractions=args.fractions)
    elif args.experiment == "uci" and not args.data:
        print("error: --data is required for the uci experiment", file=sys.stderr)
        return EXIT_USAGE
    else:
        data = (ingest_csv(args.data) if args.experiment == "uci"
                else experiments.gen_gaussian_toy(args.n, args.seed))
        report = experiments.run_likelihood_sweep(data, args.fractions, args.seed)
    report["experiment"] = args.experiment
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ZeroEvidenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ZERO_EVIDENCE
    except (DataError, AssignmentError, DistributionError, ModelFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
