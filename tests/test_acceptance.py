"""End-to-end acceptance gate.

Each test covers one release criterion, prints a single PASS/FAIL line
with the measured numbers, and enforces a runtime budget.
"""

import itertools
import json
import time

import numpy as np
import pytest

from probtree import (Dataset, LearnerConfig, PiecewiseLinearCDF, Variable,
                      ZeroEvidenceError, build_quantile_dataset, cdf_learn,
                      dumps, event_probability, leaf_posterior, learn,
                      make_assignment)
from probtree.experiments import (run_cdf_fit_experiment,
                                  run_likelihood_sweep,
                                  run_regression_experiment)

from conftest import random_discrete_dataset, random_plf


def report(capsys, num: int, title: str, passed: bool, detail: str):
    with capsys.disabled():
        status = "PASS" if passed else "FAIL"
        print(f"criterion {num} [{status}] {title}: {detail}")
    assert passed, f"criterion {num} ({title}): {detail}"


def budget(num, title, started, limit, capsys):
    elapsed = time.monotonic() - started
    report(capsys, num, f"{title} runtime", elapsed < limit,
           f"{elapsed:.1f}s (budget {limit:.0f}s)")


def brute_force(model, q, e):
    names = [v.name for v in model.schema]

    def satisfies(world, a):
        return all(world[names.index(n)] in vals for n, vals in a.items())

    pq = pe = 0.0
    for world in itertools.product(*[range(len(v.domain))
                                     for v in model.schema]):
        mass = sum(l.prior * np.prod([l.distributions[n].p[i]
                                      for n, i in zip(names, world)])
                   for l in model.leaves)
        if satisfies(world, e):
            pe += mass
            if satisfies(world, q):
                pq += mass
    return pq, pe


def random_hybrid_dataset(rng):
    n = int(rng.integers(30, 150))
    n_num = int(rng.integers(1, 3))
    n_sym = int(rng.integers(1, 3))
    schema, cols = [], []
    for j in range(n_num):
        schema.append(Variable(f"x{j}", "numeric"))
        cols.append(rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 3), n))
    for j in range(n_sym):
        k = int(rng.integers(2, 4))
        schema.append(Variable(f"s{j}", "symbolic",
                               tuple(f"v{i}" for i in range(k))))
        cols.append(rng.integers(0, k, n).astype(float))
    return Dataset(tuple(schema), np.column_stack(cols))


def random_evidence(rng, model):
    e = {}
    for var in model.schema:
        if rng.random() < 0.5:
            continue
        if var.numeric:
            lo = float(rng.uniform(-8, 6))
            e[var.name] = (lo, lo + float(rng.uniform(0.5, 6)))
        else:
            k = len(var.domain)
            size = int(rng.integers(1, k + 1))
            picked = rng.choice(k, size=size, replace=False)
            e[var.name] = [var.domain[i] for i in picked]
    return make_assignment(model.schema, e)


def test_criterion_1_oracle_equivalence(capsys):
    started = time.monotonic()
    rng = np.random.default_rng(0)
    worst = 0.0
    checked = 0
    for _ in range(50):
        ds = random_discrete_dataset(rng, max_vars=4, max_domain=4, max_rows=200)
        model = learn(ds, LearnerConfig(min_samples_leaf=2))
        names = [v.name for v in model.schema]
        for _ in range(10):
            picked = rng.choice(len(names), 2, replace=False)

            def rand_constraint(j):
                k = len(model.schema[j].domain)
                size = int(rng.integers(1, k + 1))
                return frozenset(rng.choice(k, size=size, replace=False).tolist())

            q = {names[picked[0]]: rand_constraint(picked[0])}
            e = {names[picked[1]]: rand_constraint(picked[1])}
            pq, pe = brute_force(model, q, e)
            if pe == 0.0:
                continue
            got = event_probability(model, q, e)
            worst = max(worst, abs(got - pq / pe))
            checked += 1
    report(capsys, 1, "oracle equivalence", worst <= 1e-9,
           f"{checked} q/e pairs over 50 datasets, max |error| = {worst:.2e} "
           f"(tolerance 1e-9)")
    budget(1, "oracle equivalence", started, 30.0, capsys)


def test_criterion_2_interpolation(capsys):
    started = time.monotonic()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 501))
        samples = rng.normal(rng.uniform(-10, 10), rng.uniform(0.1, 5), n)
        pts = build_quantile_dataset(samples)
        fit = cdf_learn(pts, 0.0)
        if not isinstance(fit, PiecewiseLinearCDF):
            continue
        d, g = pts
        worst = max(worst, float(np.max(np.abs(fit.cdf_vec(d) - g))))
    report(capsys, 2, "epsilon-zero interpolation", worst <= 1e-12,
           f"100 sample sets, max residual = {worst:.2e} (tolerance 1e-12)")
    budget(2, "epsilon-zero interpolation", started, 10.0, capsys)


def test_criterion_3_distribution_invariants(capsys):
    started = time.monotonic()
    rng = np.random.default_rng(2)
    u = rng.random(1_000_000)
    worst_integral = worst_round = worst_sigma = 0.0
    crop_ok = True
    for _ in range(1000):
        plf = random_plf(rng)
        lo, hi = plf.support
        # monotone CDF
        xs = np.sort(rng.uniform(lo - 1, hi + 1, 40))
        assert np.all(np.diff(plf.cdf_vec(xs)) >= 0)
        # density integrates to 1 (midpoint rule is exact per linear piece)
        grid = np.union1d(np.linspace(lo, hi, 257), plf.x)
        dens = np.array([plf.density(float(v))
                         for v in (grid[:-1] + grid[1:]) / 2])
        worst_integral = max(worst_integral,
                             abs(float(np.sum(dens * np.diff(grid))) - 1.0))
        # ppf/cdf round trip
        ps = rng.uniform(0.0, 1.0, 32)
        worst_round = max(worst_round,
                          float(np.max(np.abs(plf.cdf_vec(plf.ppf_vec(ps)) - ps))))
        # crop idempotence
        a, b = lo + 0.2 * (hi - lo), lo + 0.9 * (hi - lo)
        if plf.interval_probability(a, b) > 0.0:
            c1 = plf.crop(a, b)
            if hasattr(c1, "x"):
                c2 = c1.crop(a, b)
                crop_ok &= bool(np.array_equal(c1.x, c2.x)
                                and np.array_equal(c1.F, c2.F))
        # expectation against a shared-stream Monte-Carlo draw
        draws = plf.ppf_vec(u)
        se = float(draws.std()) / 1000.0
        dev = abs(plf.expectation() - float(draws.mean()))
        worst_sigma = max(worst_sigma, dev / se if se > 0 else 0.0)
    ok = (worst_integral <= 1e-6 and worst_round <= 1e-9
          and crop_ok and worst_sigma <= 3.0)
    report(capsys, 3, "distribution invariants", ok,
           f"1000 PLFs: max density-integral error {worst_integral:.2e} "
           f"(tol 1e-6), max round-trip error {worst_round:.2e} (tol 1e-9), "
           f"crop idempotent {crop_ok}, worst MC deviation "
           f"{worst_sigma:.2f} sigma (limit 3)")
    budget(3, "distribution invariants", started, 60.0, capsys)


def test_criterion_4_epsilon_ordering(capsys):
    started = time.monotonic()
    rep = run_cdf_fit_experiment(n=1000, holdout=500, seed=0,
                                 epsilons=(0.01, 0.05))
    fine, coarse = rep["fits"]
    truth = rep["true_avg_loglik"]
    ordered = fine["avg_loglik"] > coarse["avg_loglik"]
    close = abs(fine["avg_loglik"] - truth) <= 0.10 * abs(truth)
    report(capsys, 4, "held-out likelihood ordering by epsilon",
           ordered and close,
           f"LL(eps=0.01) = {fine['avg_loglik']:.4f} > LL(eps=0.05) = "
           f"{coarse['avg_loglik']:.4f}: {ordered}; within 10% of truth "
           f"{truth:.4f}: {close}")
    budget(4, "held-out likelihood ordering", started, 10.0, capsys)


def test_criterion_5_regression_mae(capsys):
    started = time.monotonic()
    rep = run_regression_experiment(n=1000, seed=6,
                                    fractions=(0.2, 0.1, 0.05, 0.02, 0.01))
    rows = rep["rows"]
    dominates = all(r["jpt_mae"] <= r["cart_mae"] for r in rows)
    final = rows[-1]["jpt_mae"]
    summary = ", ".join(f"{r['fraction']:g}: {r['jpt_mae']:.3f} vs "
                        f"{r['cart_mae']:.3f}" for r in rows)
    report(capsys, 5, "regression MAE vs classification-tree baseline",
           dominates and final < 2.0,
           f"generative<=baseline at all fractions: {dominates} ({summary}); "
           f"1% MAE = {final:.3f} < 2.0")
    budget(5, "regression MAE", started, 60.0, capsys)


def test_criterion_6_iris_likelihood_sweep(capsys, iris):
    started = time.monotonic()
    rep = run_likelihood_sweep(iris, fractions=(0.9, 0.4, 0.2, 0.1), seed=1)
    rows = rep["rows"]
    train = [r["train_loglik"] for r in rows]
    test = [r["test_loglik"] for r in rows]
    increasing = (all(a < b for a, b in zip(train, train[1:]))
                  and all(a < b for a, b in zip(test, test[1:])))
    base = rows[0]
    baseline_ok = base["leaves"] == 1 and -6.5 <= base["train_loglik"] <= -4.5
    report(capsys, 6, "iris likelihood sweep", increasing and baseline_ok,
           f"train LL {['%.3f' % v for v in train]} and test LL "
           f"{['%.3f' % v for v in test]} strictly increasing: {increasing}; "
           f"90% model has {base['leaves']} leaf, train LL "
           f"{base['train_loglik']:.3f} in [-6.5, -4.5]: {baseline_ok}")
    budget(6, "iris likelihood sweep", started, 30.0, capsys)


def test_criterion_7_pruning_equivalence(capsys):
    started = time.monotonic()
    rng = np.random.default_rng(3)
    exact = True
    checked = 0
    while checked < 100:
        ds = random_hybrid_dataset(rng)
        model = learn(ds, LearnerConfig(min_samples_leaf=0.15))
        e = random_evidence(rng, model)
        try:
            pruned = leaf_posterior(model, e, prune=True)
            full = leaf_posterior(model, e, prune=False)
        except ZeroEvidenceError:
            continue
        exact &= bool(np.array_equal(pruned, full))
        checked += 1
    report(capsys, 7, "path-pruning equivalence", exact,
           f"{checked} model/evidence pairs, pruned == unpruned bitwise: {exact}")
    budget(7, "path-pruning equivalence", started, 30.0, capsys)


def test_criterion_8_partition_property(capsys, iris):
    started = time.monotonic()
    cases = [(iris, LearnerConfig(min_samples_leaf=f))
             for f in (0.9, 0.4, 0.2, 0.1)]
    rng = np.random.default_rng(4)
    cases += [(random_hybrid_dataset(rng), LearnerConfig(min_samples_leaf=0.2))
              for _ in range(10)]
    ok = True
    rows = 0
    for ds, cfg in cases:
        model = learn(ds, cfg)
        for row in ds.values:
            accepting = [l.index for l in model.leaves
                         if l.accepts_row(model.schema, row)]
            ok &= len(accepting) == 1 and model.descend(row).index == accepting[0]
            rows += 1
    report(capsys, 8, "partition property", ok,
           f"{rows} rows over {len(cases)} trained models each reach exactly "
           f"one accepting leaf, matching tree descent: {ok}")
    budget(8, "partition property", started, 60.0, capsys)


def test_criterion_9_determinism(capsys, iris):
    started = time.monotonic()

    def run_all():
        fit = run_cdf_fit_experiment(n=1000, holdout=500, seed=0,
                                     epsilons=(0.01, 0.05))
        reg = run_regression_experiment(n=1000, seed=6,
                                        fractions=(0.2, 0.1, 0.05, 0.02, 0.01))
        sweep = run_likelihood_sweep(iris, fractions=(0.9, 0.4, 0.2, 0.1),
                                     seed=1)
        model = learn(iris, LearnerConfig(min_samples_leaf=0.2))
        return (json.dumps([fit, reg, sweep], sort_keys=True).encode(),
                dumps(model).encode())

    (report1, model1), (report2, model2) = run_all(), run_all()
    same = report1 == report2 and model1 == model2
    report(capsys, 9, "byte-identical determinism", same,
           f"repeated runs: reports identical {report1 == report2}, "
           f"serialized model identical {model1 == model2}")
    budget(9, "determinism", started, 120.0, capsys)
