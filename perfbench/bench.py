"""The probtree benchmark: one workload in one process; set up, time, check,
report.

Run from the root of a checkout::

    python3 perfbench/bench.py --workload WORKLOAD --seed N --seconds S --trace {0,1}

with WORKLOAD one of ``train``, ``query``, ``marginals``, ``score-sample``
and ``cli-session``. The last line of standard output is the JSON result.
With ``--trace 0`` it holds the end-to-end metrics; with ``--trace 1`` the
per-layer metrics of a separate run with spans installed around the
program's public calls. The exit code is 0 only if every output check
passed.
"""

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

# one BLAS/OpenMP thread, set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if not os.path.isfile(os.path.join(ROOT, "src", "probtree", "__init__.py")):
    sys.exit("perfbench: src/probtree not found; run from the root of a checkout")

WORK = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
SETUP_REPS = 3

sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import probtree as pt  # noqa: E402
import probtree.cli  # noqa: E402
from gen import COLUMNS, LABELS, NUMERIC, SYMBOLIC, Mixture, write_csv  # noqa: E402
from oracle import Oracle  # noqa: E402
from tracer import LAYERS, Tracer, delta  # noqa: E402

IMPORT_S = perf_counter() - STARTED

SCHEMA = tuple([pt.Variable(c, "numeric") for c in NUMERIC]
               + [pt.Variable(c, "symbolic", LABELS) for c in SYMBOLIC])


def quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=float), q))


class Checks:
    """Collects failed output checks; the run is correct if none failed."""

    def __init__(self):
        self.failures = []
        self.count = 0
        self.failed_ops = 0  # commands that exited with an error code

    def exit_code(self, rc: int, what: str) -> None:
        self.failed_ops += rc != 0
        self.expect(rc == 0, f"{what} exited {rc}")

    def expect(self, ok: bool, what: str) -> None:
        self.count += 1
        if not ok and len(self.failures) < 20:
            self.failures.append(what)

    def close(self, a: float, b: float, tol: float, what: str) -> None:
        self.expect(abs(a - b) <= tol * max(1.0, abs(b)), f"{what}: {a!r} vs {b!r}")


# -- evidence ------------------------------------------------------------------

EVIDENCE_KINDS = ("empty", "set", "interval", "point", "mixed")
WIDTHS = (0.05, 0.3, 1.0, 3.0)  # numeric evidence widths, in column sds


def draw_evidence(rows: np.ndarray, oracle: Oracle, rng, count: int):
    """``count`` (kind, evidence, query) triples built from held-out rows.

    The make-up is fixed: kinds, interval widths, label-set sizes and the
    constrained columns cycle in a set order, and only the held-out rows the
    values come from are drawn at random. Every evidence set has positive
    probability under the model.
    """
    sds = rows[:, :len(NUMERIC)].std(axis=0)
    k = len(NUMERIC)
    out = []
    for i in range(count):
        kind = EVIDENCE_KINDS[i % len(EVIDENCE_KINDS)]
        step = i // len(EVIDENCE_KINDS)
        # the constrained column and the width or set size cycle so that
        # every column meets every width and size
        num, sym = NUMERIC[step % k], SYMBOLIC[step % len(SYMBOLIC)]
        width = float(sds[step % k]) * WIDTHS[(step + step // k) % len(WIDTHS)]
        two_labels = (step + step // len(SYMBOLIC)) % 2
        for _ in range(1000):
            row = rows[int(rng.integers(len(rows)))]
            e = {}
            if kind in ("set", "mixed"):
                labels = {LABELS[int(row[k + step % len(SYMBOLIC)])]}
                if two_labels:
                    labels.add(LABELS[(LABELS.index(min(labels)) + 1) % len(LABELS)])
                e[sym] = ("set", tuple(sorted(labels)))
            if kind in ("interval", "mixed"):
                x = float(row[step % k])
                e[num] = ("iv", x - width / 2, x + width / 2)
            if kind == "point":
                e[num] = ("pt", float(row[step % k]))
            if oracle.leaf_weights(e).sum() > 0.0:
                break
        else:
            raise RuntimeError(f"no evidence of kind {kind} with positive probability")
        other = rows[int(rng.integers(len(rows)))]
        if i % 2:
            j = (step + 1) % len(SYMBOLIC)
            q = {SYMBOLIC[j]: ("set", (LABELS[int(other[k + j])],))}
        else:
            j = (step + 1) % k
            q = {NUMERIC[j]: ("iv", float(other[j] - sds[j]), float(other[j] + sds[j]))}
        out.append((kind, e, q))
    return out


def describe(oracle: Oracle, text: str, evidence=()) -> dict:
    """Model size, and the mean share of leaves that path pruning keeps for
    each evidence kind."""
    info = {"leaves": oracle.n_leaves, "model_bytes": len(text)}
    for kind in EVIDENCE_KINDS:
        kept = [sum(oracle.path_compatible(k, e) for k in range(oracle.n_leaves))
                for kd, e, _ in evidence if kd == kind]
        if kept:
            info[f"kept_share_{kind}"] = round(statistics.fmean(kept) / oracle.n_leaves, 4)
    return info


def to_spec(constraints: dict) -> dict:
    """Benchmark constraints as ``make_assignment`` values."""
    return {name: (c[1] if c[0] == "pt" else (c[1], c[2]) if c[0] == "iv" else list(c[1]))
            for name, c in constraints.items()}


def to_text(constraints: dict) -> str:
    """Benchmark constraints in the CLI's constraint grammar."""
    parts = []
    for name, v in constraints.items():
        if v[0] == "pt":
            parts.append(f"{name} = {v[1]!r}")
        elif v[0] == "iv":
            parts.append(f"{name} in [{v[1]!r}, {v[2]!r}]")
        else:
            parts.append(f"{name} in {{{', '.join(v[1])}}}")
    return "; ".join(parts)


def outside(values: np.ndarray, e: dict) -> int:
    """How many rows (symbolic cells as label indices) miss the evidence."""
    ok = np.ones(len(values), dtype=bool)
    for name, c in e.items():
        col = values[:, COLUMNS.index(name)]
        if c[0] == "set":
            ok &= np.isin(col, [LABELS.index(lab) for lab in c[1]])
        elif c[0] == "pt":
            ok &= col == c[1]
        else:
            ok &= (c[1] <= col) & (col <= c[2])
    return int((~ok).sum())


def check_sample(checks: Checks, oracle: Oracle, values: np.ndarray, e: dict,
                 what: str) -> None:
    """Every drawn row satisfies ``e``, and the frequency of every label of
    every symbolic column that ``e`` leaves free is within 5 standard errors
    of its posterior probability ``P(label | e)``."""
    bad = outside(values, e)
    checks.expect(bad == 0, f"{what}: {bad} sampled rows outside the evidence {e}")
    n = len(values)
    for name in SYMBOLIC:
        if name in e:
            continue
        col = values[:, COLUMNS.index(name)]
        for j, lab in enumerate(LABELS):
            p = oracle.event_probability({name: ("set", (lab,))}, e)
            freq = float(np.count_nonzero(col == j)) / n
            se = math.sqrt(max(p * (1.0 - p), 1e-12) / n)
            checks.expect(abs(freq - p) <= 5.0 * se,
                          f"{what}: frequency of {name}={lab} is {freq:.5f}, P = {p:.5f}")


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = probtree.cli.main(argv)
    return rc, out.getvalue()


class Timings:
    """Wall time of each operation by kind and by its key within a round
    (the same key recurs once per round), and with a tracer the span
    deltas."""

    def __init__(self, kinds, tracer):
        self.times = {k: {} for k in kinds}
        self.spans = {k: [] for k in kinds}
        self.tracer = tracer

    def __call__(self, kind: str, key, fn):
        before = self.tracer.snapshot() if self.tracer else None
        t0 = perf_counter()
        result = fn()
        self.times[kind].setdefault(key, []).append(perf_counter() - t0)
        if self.tracer:
            self.spans[kind].append(delta(before, self.tracer.snapshot()))
        return result

    def flat(self, kind: str):
        return [t for ts in self.times[kind].values() for t in ts]

    def round_s(self, kind: str) -> float:
        """The kind's time in one round: the sum over its keys of each key's
        median over rounds. A spike in one round moves no median."""
        return sum(statistics.median(ts) for ts in self.times[kind].values())

    def ops_per_round(self) -> int:
        return sum(len(keys) for keys in self.times.values())


# -- workloads -------------------------------------------------------------------


class Workload:
    """``prepare`` makes the inputs and ``inspect`` reads the set-up's
    result, both untimed; ``setup`` is the program's own set-up work, timed
    as ``setup_s``. ``round`` runs each operation of the mix once; ``finish``
    checks the first round's results."""

    kinds = ()

    def prepare(self, seed: int) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def inspect(self) -> None:
        pass

    def round(self, timed: Timings, checks: Checks, first: dict) -> None:
        raise NotImplementedError

    def finish(self, first: dict, checks: Checks) -> None:
        pass

    def run(self, seconds: float, tracer, checks: Checks) -> Timings:
        """Whole rounds until ``seconds`` have passed. Later rounds must
        give the same results as the first."""
        timed = Timings(self.kinds, tracer)
        first = {}
        start = perf_counter()
        while not first or perf_counter() - start < seconds:
            self.round(timed, checks, first)
        self.finish(first, checks)
        return timed


def same(a, b) -> bool:
    """Bitwise equality of two operation results."""
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


def remember(first: dict, key, result, checks: Checks, what: str) -> None:
    if key in first:
        checks.expect(same(result, first[key]), f"repeated {what} differs")
    else:
        first[key] = result


class Train(Workload):
    """``probtree train`` in process on a 50k-row mixed CSV."""

    rows_n = 50_000
    min_samples_leaf = 0.01
    kinds = ("train",)

    def prepare(self, seed: int) -> None:
        self.rows = Mixture(seed).rows(self.rows_n, 0)
        self.csv = os.path.join(WORK, "train.csv")
        self.model = os.path.join(WORK, "train.json")
        write_csv(self.rows, self.csv)

    def setup(self) -> None:
        # read the CSV once, so the first timed command finds it in the
        # file cache like the later ones
        pt.ingest_csv(self.csv)

    def round(self, timed, checks, first) -> None:
        argv = ["train", "--data", self.csv, "--out", self.model,
                "--min-samples-leaf", repr(self.min_samples_leaf)]
        rc, out = timed("train", 0, lambda: run_cli(argv))
        checks.exit_code(rc, "train")
        with open(self.model, encoding="utf-8") as fh:
            remember(first, "train", (out, fh.read()), checks, "train command")

    def finish(self, first, checks) -> None:
        out, text = first["train"]
        self.check(text, out, checks)

    def check(self, text: str, out: str, checks: Checks) -> None:
        oracle = Oracle(text)
        n = self.rows_n
        leaf = oracle.route(self.rows)
        counts = np.bincount(leaf, minlength=oracle.n_leaves)
        checks.expect(bool(np.all(np.abs(oracle.prior - counts / n) <= 1e-12)),
                      "a leaf prior differs from its share of training rows")
        checks.expect(int(counts.min()) >= math.ceil(self.min_samples_leaf * n),
                      f"a leaf holds {counts.min()} rows, below the minimum")
        avg, zero = oracle.log_likelihood(self.rows)
        lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
        checks.expect(int(lines["leaves"]) == oracle.n_leaves, "printed leaf count")
        # the CLI prints 6 significant digits
        printed = float(lines["train avg log-likelihood"].split(" ")[0])
        checks.close(printed, avg, 5e-6, "printed train log-likelihood")
        model = pt.loads(text)
        got, got_zero = pt.log_likelihood(model, pt.ingest_csv(self.csv))
        checks.close(got, avg, 1e-9, "train log-likelihood")
        checks.expect(got_zero == zero, "train zero fraction")
        checks.expect(pt.dumps(model) == text, "dumps(loads(text)) != text")
        self.info = describe(oracle, text)


class ModelWorkload(Workload):
    """A ~380-leaf model trained and saved in set-up, from 20k rows of the
    generator, with held-out rows and a pool of evidence sets."""

    train_n = 20_000
    hold_n = 1_000
    pool = 100
    min_samples_leaf = 0.002

    def prepare(self, seed: int) -> None:
        self.seed = seed
        mix = Mixture(seed)
        self.train = pt.Dataset(SCHEMA, mix.rows(self.train_n, 0))
        self.hold_rows = mix.rows(self.hold_n, 1)
        self.path = os.path.join(WORK, "model.json")

    def setup(self) -> None:
        self.model = pt.learn(self.train,
                              pt.LearnerConfig(min_samples_leaf=self.min_samples_leaf))
        pt.save(self.model, self.path)

    def inspect(self) -> None:
        with open(self.path, encoding="utf-8") as fh:
            self.text = fh.read()
        self.oracle = Oracle(self.text)
        rng = np.random.default_rng([self.seed, 2])
        self.evidence = draw_evidence(self.hold_rows, self.oracle, rng, self.pool)
        self.info = describe(self.oracle, self.text, self.evidence)

    def call(self, kind: str, e, q):
        ev = pt.make_assignment(SCHEMA, to_spec(e))
        if kind == "leaf_posterior":
            return pt.leaf_posterior(self.model, ev)
        if kind == "event_probability":
            return pt.event_probability(self.model, pt.make_assignment(SCHEMA, to_spec(q)), ev)
        if kind == "posterior_distributions":
            return pt.posterior_distributions(self.model, ev)
        return pt.mpe(self.model, ev)

    def round(self, timed, checks, first) -> None:
        for i, (_, e, q) in enumerate(self.evidence):
            for kind in self.kinds:
                result = timed(kind, i, lambda: self.call(kind, e, q))
                remember(first, (kind, i), result, checks, kind)


class Query(ModelWorkload):
    """``leaf_posterior`` and ``event_probability``, about 1 to 2 ms each,
    on 100 evidence sets."""

    kinds = ("leaf_posterior", "event_probability")

    def finish(self, first, checks) -> None:
        o = self.oracle
        for i, (_, e, q) in enumerate(self.evidence):
            post = first["leaf_posterior", i]
            checks.expect(bool(np.all(np.abs(post - o.leaf_posterior(e)) <= 1e-9)),
                          f"leaf_posterior {i}")
            if i < 10:
                unpruned = pt.leaf_posterior(self.model, pt.make_assignment(SCHEMA, to_spec(e)),
                                             prune=False)
                checks.expect(np.array_equal(post, unpruned), f"pruned != unpruned {i}")
            checks.close(first["event_probability", i], o.event_probability(q, e), 1e-9,
                         f"event_probability {i}")


class Marginals(ModelWorkload):
    """``posterior_distributions`` and ``mpe``, about 15 to 25 ms each, on
    50 evidence sets."""

    pool = 50
    kinds = ("posterior_distributions", "mpe")

    def finish(self, first, checks) -> None:
        o = self.oracle
        for i, (_, e, _) in enumerate(self.evidence):
            marg = first["posterior_distributions", i]
            for var in SCHEMA:
                d, c = marg[var.name], e.get(var.name)
                if var.symbolic:
                    checks.close(float(d.p.sum()), 1.0, 1e-9, f"marginal {var.name} sum")
                    lab = LABELS[int(np.argmax(d.p))]
                    checks.close(float(d.p[LABELS.index(lab)]),
                                 o.event_probability({var.name: ("set", (lab,))}, e),
                                 1e-9, f"marginal {var.name}={lab} {i}")
                elif c is not None:
                    lo, hi = d.support
                    upper = c[1] if c[0] == "pt" else c[2]
                    checks.expect(c[1] <= lo and hi <= upper,
                                  f"marginal {var.name} support {lo, hi} outside {c}")
            world, score = first["mpe", i]
            row = [world[v.name] for v in SCHEMA]
            checks.expect(score > 0.0 and o.satisfies(row, e), f"mpe {i}")


class ScoreSample(ModelWorkload):
    """``log_likelihood`` of 20k held-out rows, and ``sample`` of 100k rows
    under each of 8 evidence sets; both kinds take about half a round."""

    hold_n = 20_000
    sample_n = 100_000
    pool = 10  # two of each evidence kind; the 8 non-empty ones are sampled under
    kinds = ("log_likelihood", "sample")

    def inspect(self) -> None:
        super().inspect()
        self.hold = pt.Dataset(SCHEMA, self.hold_rows)
        self.sampled = [e for kind, e, _ in self.evidence if kind != "empty"]

    def round(self, timed, checks, first) -> None:
        ll = timed("log_likelihood", 0, lambda: pt.log_likelihood(self.model, self.hold))
        remember(first, "log_likelihood", ll, checks, "log_likelihood")
        for j, e in enumerate(self.sampled):
            ev = pt.make_assignment(SCHEMA, to_spec(e))
            rng = np.random.default_rng([self.seed, 3, j])
            drawn = timed("sample", j, lambda: pt.sample(self.model, self.sample_n, rng, ev))
            remember(first, ("sample", j), drawn.values, checks, "sample")

    def finish(self, first, checks) -> None:
        expected = self.oracle.log_likelihood(self.hold_rows)
        ll = first["log_likelihood"]
        checks.close(ll[0], expected[0], 1e-9, "held-out log-likelihood")
        checks.expect(ll[1] == expected[1], "held-out zero fraction")
        for j, e in enumerate(self.sampled):
            values = first["sample", j]
            checks.expect(len(values) == self.sample_n, "sample size")
            check_sample(checks, self.oracle, values, e, f"sample {j}")


class CliSession(ModelWorkload):
    """Rounds of in-process CLI commands, each of which reloads the saved
    model; all four commands take about 100 ms."""

    sample_n = 1_000
    pool = 5  # one of each evidence kind, so that a run holds several rounds
    kinds = ("query", "mpe", "likelihood", "sample")

    def prepare(self, seed: int) -> None:
        super().prepare(seed)
        for j, name in enumerate(SYMBOLIC):
            present = set(self.hold_rows[:, len(NUMERIC) + j].astype(int).tolist())
            if len(present) != len(LABELS):
                raise RuntimeError(f"holdout column {name} misses a label")
        self.holdout = os.path.join(WORK, "holdout.csv")
        write_csv(self.hold_rows, self.holdout)
        self.samples = os.path.join(WORK, "sample.csv")

    def inspect(self) -> None:
        super().inspect()
        self.expected_ll = self.oracle.log_likelihood(self.hold_rows)

    def argv(self, cmd: str, e: dict, q: dict, i: int):
        ev = ["--e", to_text(e)] if e else []
        if cmd == "query":
            return ["query", "--model", self.path, "--q", to_text(q), "--json"] + ev
        if cmd == "mpe":
            return ["query", "--model", self.path, "--mpe", "--json"] + ev
        if cmd == "likelihood":
            return ["likelihood", "--model", self.path, "--data", self.holdout, "--json"]
        return ["sample", "--model", self.path, "-n", str(self.sample_n), "--seed",
                str(i), "--out", self.samples] + ev

    def round(self, timed, checks, first) -> None:
        for i, (_, e, q) in enumerate(self.evidence):
            for cmd in self.kinds:
                argv = self.argv(cmd, e, q, i)
                rc, out = timed(cmd, i, lambda: run_cli(argv))
                checks.exit_code(rc, cmd)
                if cmd == "sample":
                    with open(self.samples, encoding="utf-8") as fh:
                        out = fh.read()
                remember(first, (cmd, i), out, checks, cmd)

    def finish(self, first, checks) -> None:
        for i, (_, e, q) in enumerate(self.evidence):
            for cmd in self.kinds:
                self.check(cmd, first[cmd, i], e, q, checks)

    def check(self, cmd, out, e, q, checks: Checks) -> None:
        o = self.oracle
        if cmd == "sample":
            rows = list(csv.reader(io.StringIO(out, newline="")))[1:]
            checks.expect(len(rows) == self.sample_n, "sample row count")
            k = len(NUMERIC)
            values = np.array([[float(v) for v in r[:k]] + [LABELS.index(v) for v in r[k:]]
                               for r in rows])
            check_sample(checks, o, values, e, "sample command")
            return
        try:
            doc = json.loads(out)
        except ValueError:
            checks.expect(False, f"{cmd} printed no JSON: {out[:80]!r}")
            return
        if cmd == "query":
            checks.close(doc["probability"], o.event_probability(q, e), 1e-9, "cli probability")
        elif cmd == "mpe":
            row = [doc["world"][name] for name in o.names]
            checks.expect(doc["score"] > 0 and o.satisfies(row, e), "cli mpe world")
        else:
            checks.close(doc["avg_loglik"], self.expected_ll[0], 1e-9, "cli log-likelihood")
            checks.expect(doc["zero_fraction"] == self.expected_ll[1], "cli zero fraction")


WORKLOADS = {"train": Train, "query": Query, "marginals": Marginals,
             "score-sample": ScoreSample, "cli-session": CliSession}


# -- reporting ------------------------------------------------------------------


def layer_totals(spans):
    """Summed self time per layer over a list of span deltas."""
    out = {layer: 0.0 for layer in LAYERS}
    for _, _, self_time in spans:
        for layer, v in self_time.items():
            out[layer] += v
    return out


def end_to_end(workload: str, timed: Timings) -> tuple[dict, dict]:
    """(gated metrics, named figures) from an untraced run.

    ``op_ms`` is the mean time per operation of the workload's mix: the
    time of one round, with each operation at its median over rounds,
    divided by the operations in a round.
    """
    kinds = timed.times
    round_s = {kind: timed.round_s(kind) for kind in kinds}
    gated = {"op_ms": (1e3 * sum(round_s.values()) / timed.ops_per_round(), "ms")}
    named = {}
    for kind in kinds:
        named[f"{kind}_p50_ms"] = (1e3 * statistics.median(timed.flat(kind)), "ms")
        named[f"{kind}_round_share"] = (round_s[kind] / sum(round_s.values()), "1")
    if workload == "train":
        named["train_rows_per_s"] = (Train.rows_n / round_s["train"], "rows/s")
    elif workload in ("query", "marginals"):
        queries = [t for k in kinds for t in timed.flat(k)]
        named.update(
            queries_per_s=(timed.ops_per_round() / sum(round_s.values()), "queries/s"),
            query_p50_ms=(1e3 * quantile(queries, 0.5), "ms"),
            query_p90_ms=(1e3 * quantile(queries, 0.9), "ms"))
    elif workload == "score-sample":
        named.update(
            score_rows_per_s=(ScoreSample.hold_n / round_s["log_likelihood"], "rows/s"),
            sample_rows_per_s=(ScoreSample.sample_n * len(kinds["sample"]) / round_s["sample"],
                               "rows/s"))
    else:
        commands = [t for k in kinds for t in timed.flat(k)]
        named.update(cli_p50_ms=(1e3 * quantile(commands, 0.5), "ms"),
                     cli_p90_ms=(1e3 * quantile(commands, 0.9), "ms"))
    return gated, named


def per_layer(workload: str, timed: Timings, setup_spans) -> tuple[dict, dict]:
    """(per-layer metrics common to all workloads, the workload's own figures).

    Per-operation figures average over all operations of the timed phase.
    """
    op_spans = [s for ss in timed.spans.values() for s in ss]
    op_times = [t for k in timed.times for t in timed.flat(k)]
    n_ops = len(op_spans)
    totals = layer_totals(op_spans)
    calls = {}
    for _, c, _ in op_spans:
        for k, v in c.items():
            calls[k] = calls.get(k, 0) + v
    gated = {f"{layer}.ms_per_op": (1e3 * totals[layer] / n_ops, "ms")
             for layer in LAYERS if layer != "model_io"}
    gated["other.ms_per_op"] = (1e3 * (sum(op_times) - sum(totals.values())) / n_ops, "ms")
    # model_io: per model written or read; the in-memory workloads write
    # their one model in set-up
    io_spans = op_spans if workload in ("train", "cli-session") else setup_spans
    io_models = sum(c.get("cli.save", 0) + c.get("cli.load", 0) + c.get("probtree.save", 0)
                    for _, c, _ in io_spans)
    gated["model_io.ms_per_model"] = (1e3 * layer_totals(io_spans)["model_io"] / io_models, "ms")
    gated["plcdf.built_per_op"] = (calls.get("PiecewiseLinearCDF.__init__", 0) / n_ops, "count")
    gated["multinomial.built_per_op"] = (calls.get("Multinomial.__init__", 0) / n_ops, "count")

    def med(spans, *keys, scale=1.0):
        """Median over operations of the summed wall time of ``keys``."""
        return scale * statistics.median(sum(s[0].get(k, 0.0) for k in keys) for s in spans)

    def other(spans, times, keys):
        return statistics.median(t - sum(s[0].get(k, 0.0) for k in keys)
                                 for t, s in zip(times, spans))

    sp = timed.spans
    if workload == "train":
        sp, times = sp["train"], timed.flat("train")
        learn = med(sp, "cli.learn")
        fit = med(sp, "learner.build_quantile_dataset", "learner.cdf_learn", "Multinomial.fit")
        named = {
            "data.ingest_csv_s": (med(sp, "cli.ingest_csv"), "s"),
            "learner.learn_s": (learn, "s"),
            "learner.leaf_fit_s": (fit, "s"),
            "learner.split_search_s": (learn - fit, "s"),
            "plcdf.quantile_build_s": (med(sp, "learner.build_quantile_dataset"), "s"),
            "plcdf.cdf_learn_s": (med(sp, "learner.cdf_learn"), "s"),
            "model_io.dumps_s": (med(sp, "cli.save"), "s"),
            "inference.train_loglik_s": (med(sp, "cli.log_likelihood"), "s"),
            "cli.train_other_s": (other(sp, times, ("cli.ingest_csv", "cli.learn", "cli.save",
                                                     "cli.log_likelihood")), "s"),
        }
    elif workload in ("query", "marginals"):
        named = {f"inference.{kind}_ms": (med(sp[kind], f"probtree.{kind}", scale=1e3), "ms")
                 for kind in timed.times}
        named["plcdf.plf_built_per_query"] = (gated["plcdf.built_per_op"][0], "count")
    elif workload == "score-sample":
        named = {
            "inference.log_likelihood_us_per_row": (
                med(sp["log_likelihood"], "probtree.log_likelihood",
                    scale=1e6 / ScoreSample.hold_n), "us"),
            "inference.sample_us_per_row": (
                med(sp["sample"], "probtree.sample", scale=1e6 / ScoreSample.sample_n), "us"),
            "plcdf.ppf_vec_s": (med(sp["sample"], "PiecewiseLinearCDF.ppf_vec"), "s"),
        }
    else:
        ops = ("cli.event_probability", "cli.mpe", "cli.log_likelihood", "cli.sample")
        io_keys = ("cli.ingest_csv", "cli.emit_csv", "cli.parse_assignment")
        named = {
            "model_io.loads_ms": (med(op_spans, "cli.load", scale=1e3), "ms"),
            "plcdf.plf_built_per_command": (gated["plcdf.built_per_op"][0], "count"),
            "multinomial.built_per_command": (gated["multinomial.built_per_op"][0], "count"),
            "inference.command_op_ms": (med(op_spans, *ops, scale=1e3), "ms"),
            "data.cli_csv_io_ms": (1e3 * totals["data"] / n_ops, "ms"),
            "cli.command_other_ms": (
                1e3 * other(op_spans, op_times, ops + io_keys + ("cli.load",)), "ms"),
        }
    return gated, named


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.makedirs(WORK, exist_ok=True)
    try:
        return measure(args)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(WORK))  # only once no other run uses it


def measure(args) -> int:
    wl = WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None
    wl.prepare(args.seed)
    setup_times, setup_spans = [], []
    for rep in range(SETUP_REPS):
        if tracer and rep == SETUP_REPS - 1:
            tracer.install()
            before = tracer.snapshot()
        t0 = perf_counter()
        wl.setup()
        setup_times.append(perf_counter() - t0)
    if tracer:
        setup_spans = [delta(before, tracer.snapshot())]
    setup_s = IMPORT_S + statistics.median(setup_times)
    wl.inspect()

    checks = Checks()
    timed = wl.run(args.seconds, tracer, checks)
    if tracer:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = sum(len(timed.flat(k)) for k in timed.times)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print(f"python {platform.python_version()} numpy {np.__version__} nproc {os.cpu_count()}")
    print(f"imports {IMPORT_S:.3f} s; set-up repetitions (s): "
          f"{', '.join(f'{t:.3f}' for t in setup_times)}")
    for key, value in getattr(wl, "info", {}).items():
        print(f"info: {key} {value}")
    print(f"checks made {checks.count}, failed {len(checks.failures)}")
    for f in checks.failures:
        print(f"CHECK FAILED: {f}")
    if tracer:
        metrics, named = per_layer(args.workload, timed, setup_spans)
        # compare with op_ms of an untraced run for the tracing overhead
        named["traced_op_ms"] = end_to_end(args.workload, timed)[0]["op_ms"]
    else:
        metrics, named = end_to_end(args.workload, timed)
        metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB"), **metrics}
    for name, (v, unit) in {**named, **metrics}.items():
        print(f"{name} = {v:.6g} {unit}")
    print(f"operations attempted {attempted}, failed {checks.failed_ops}")
    correct = not checks.failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": checks.failed_ops,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
