"""Tests of the benchmark's own output checks.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Each workload runs one round at a reduced size. Its checks must pass on the
program as it is, and must fail when one output is perturbed.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
REPO = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(REPO, "tests"))

import bench  # noqa: E402
from oracle import Oracle  # noqa: E402

pt = bench.pt


class SmallTrain(bench.Train):
    rows_n = 3_000
    min_samples_leaf = 0.05


class SmallModel:
    train_n = 3_000
    min_samples_leaf = 0.02


class SmallQuery(SmallModel, bench.Query):
    pool = 10


class SmallMarginals(SmallModel, bench.Marginals):
    pool = 10


class SmallScoreSample(SmallModel, bench.ScoreSample):
    hold_n = 1_000
    sample_n = 4_000


class SmallCli(SmallModel, bench.CliSession):
    pool = 5


@pytest.fixture(autouse=True)
def workdir(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "WORK", str(tmp_path))


def run_once(wl, seed=3):
    checks = bench.Checks()
    wl.prepare(seed)
    wl.setup()
    wl.inspect()
    wl.run(0.0, None, checks)
    return checks


@pytest.mark.parametrize("cls", [SmallTrain, SmallQuery, SmallMarginals, SmallScoreSample,
                                 SmallCli])
def test_checks_pass_on_the_program(cls):
    checks = run_once(cls())
    assert checks.count > 0
    assert checks.failures == []


def test_prior_off_by_1e_6_fails():
    wl = SmallTrain()
    run_once(wl)
    with open(wl.model, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["leaves"][0]["prior"] += 1e-6
    doc["leaves"][1]["prior"] -= 1e-6
    _, out = bench.run_cli(["train", "--data", wl.csv, "--out", wl.model,
                            "--min-samples-leaf", repr(wl.min_samples_leaf)])
    checks = bench.Checks()
    wl.check(json.dumps(doc, separators=(",", ":")), out, checks)
    assert any("prior" in f for f in checks.failures)


def test_probability_off_by_1e_6_fails(monkeypatch):
    original = pt.event_probability
    monkeypatch.setattr(pt, "event_probability", lambda *a: original(*a) + 1e-6)
    checks = run_once(SmallQuery())
    assert any(f.startswith("event_probability") for f in checks.failures)


def test_cli_probability_off_by_1e_6_fails(monkeypatch):
    original = pt.cli.event_probability
    monkeypatch.setattr(pt.cli, "event_probability", lambda *a: original(*a) + 1e-6)
    checks = run_once(SmallCli())
    assert any(f.startswith("cli probability") for f in checks.failures)


def test_sampled_row_outside_the_evidence_fails(monkeypatch):
    original = pt.sample

    def sample(model, n, rng, e):
        drawn = original(model, n, rng, e)
        values = drawn.values.copy()
        name, c = next(iter(e.items()))
        if isinstance(c, frozenset):
            bad = min(set(range(len(model.variable(name).domain))) - c)
        else:
            bad = c.upper + 1.0
        values[0, drawn.column_index(name)] = bad
        return pt.Dataset(drawn.schema, values)

    monkeypatch.setattr(pt, "sample", sample)
    checks = run_once(SmallScoreSample())
    assert any(f.startswith("sample ") and "outside the evidence" in f
               for f in checks.failures)


@pytest.mark.parametrize("cls", [SmallScoreSample, SmallCli])
def test_sampler_that_draws_leaves_by_prior_fails(cls, monkeypatch):
    """Leaves drawn by prior among those the evidence admits, instead of by
    P(leaf | e): every row still satisfies the evidence, and the frequency
    check must tell. (On ``cli-session`` the patched posterior also moves the
    ``query`` probabilities.)"""
    posterior = pt.inference.leaf_posterior

    def by_prior(model, e=None, prune=True):
        admitted = posterior(model, e, prune) > 0.0
        w = np.where(admitted, [leaf.prior for leaf in model.leaves], 0.0)
        return w / w.sum()

    monkeypatch.setattr(pt.inference, "leaf_posterior", by_prior)
    checks = run_once(cls())
    assert any("frequency of s" in f for f in checks.failures)
    assert not any("outside the evidence" in f for f in checks.failures)


def test_event_probability_matches_brute_force():
    from conftest import random_discrete_dataset
    from test_acceptance import brute_force

    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(20):
        ds = random_discrete_dataset(rng, max_vars=4, max_domain=4, max_rows=200)
        model = pt.learn(ds, pt.LearnerConfig(min_samples_leaf=2))
        oracle = Oracle(pt.dumps(model))
        for _ in range(5):
            a, b = rng.choice(len(model.schema), 2, replace=False)
            sets = []
            for j in (a, b):
                k = len(model.schema[j].domain)
                sets.append(frozenset(rng.choice(k, int(rng.integers(1, k + 1)),
                                                 replace=False).tolist()))
            q = {model.schema[a].name: sets[0]}
            e = {model.schema[b].name: sets[1]}
            pq, pe = brute_force(model, q, e)
            if pe == 0.0:
                continue

            def labels(c):
                return {n: ("set", tuple(model.variable(n).domain[i] for i in s))
                        for n, s in c.items()}
            got = oracle.event_probability(labels(q), labels(e))
            assert abs(got - pq / pe) <= 1e-9
            checked += 1
    assert checked >= 50


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/bench.py", "--workload", "train",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
