import math

import numpy as np
import pytest

from probtree import LearnerConfig, learn
from probtree.experiments import (GaussianMixture1D, gen_gaussian_toy,
                                  run_cdf_fit_experiment,
                                  run_likelihood_sweep,
                                  run_regression_experiment)

from conftest import reference_paths


def constraints_disjoint(a, b):
    if isinstance(a, tuple):  # the x with lo < x <= hi
        return max(a[0], b[0]) >= min(a[1], b[1])
    return not (a & b)


class TestGaussianToy:
    def test_schema(self):
        ds = gen_gaussian_toy(100, 0)
        names = [v.name for v in ds.schema]
        assert names == ["X", "Y", "color"]
        color = ds.schema[2]
        assert set(color.domain) == {"Red", "Blue"}

    def test_label_frequencies_balanced(self):
        ds = gen_gaussian_toy(10_000, 1)
        freq = np.bincount(ds.column("color").astype(int), minlength=2) / len(ds)
        assert np.allclose(freq, [0.5, 0.5], atol=0.02)

    def test_cluster_means(self):
        ds = gen_gaussian_toy(20_000, 2)
        color = ds.schema[2]
        red = ds.column("color") == color.index_of("Red")
        assert ds.column("X")[red].mean() == pytest.approx(2.0, abs=0.05)
        assert ds.column("X")[~red].mean() == pytest.approx(7.0, abs=0.05)

    def test_deterministic(self):
        a, b = gen_gaussian_toy(50, 3), gen_gaussian_toy(50, 3)
        assert np.array_equal(a.values, b.values)

    def test_leaf_regions_are_disjoint_rectangles(self):
        ds = gen_gaussian_toy(1000, 0)
        model = learn(ds, LearnerConfig(min_samples_leaf=0.1))
        paths = reference_paths(model)
        assert len(paths) > 1
        for i, a in enumerate(paths):
            for b in paths[i + 1:]:
                shared = set(a) & set(b)
                assert any(constraints_disjoint(a[n], b[n]) for n in shared)


class TestGaussianMixture1D:
    def test_logpdf_integrates_to_one(self):
        mix = GaussianMixture1D()
        xs = np.linspace(-15, 15, 20_001)
        total = np.trapezoid(np.exp(mix.logpdf(xs)), xs)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_sample_moments(self):
        mix = GaussianMixture1D()
        rng = np.random.default_rng(0)
        xs = mix.sample(rng, 200_000)
        true_mean = sum(w * m for w, m in zip((0.3, 0.4, 0.3), (-4.0, 0.0, 5.0)))
        assert xs.mean() == pytest.approx(true_mean, abs=0.02)


class TestCdfFitExperiment:
    def test_report_shape(self):
        report = run_cdf_fit_experiment(n=400, holdout=200, seed=0,
                                        epsilons=(0.01, 0.05))
        assert set(report) >= {"true_avg_loglik", "fits"}
        assert [f["epsilon"] for f in report["fits"]] == [0.01, 0.05]
        for fit in report["fits"]:
            assert fit["hinges"] >= 2
            assert math.isfinite(fit["avg_loglik"])

    def test_smaller_epsilon_fits_better(self):
        report = run_cdf_fit_experiment(n=1000, holdout=500, seed=0,
                                        epsilons=(0.01, 0.05))
        fine, coarse = report["fits"]
        assert fine["hinges"] >= coarse["hinges"]
        assert fine["avg_loglik"] > coarse["avg_loglik"]


class TestRegressionExperiment:
    def test_rows_and_determinism(self):
        kw = dict(n=300, fractions=(0.2, 0.05), seed=0, n_test=100)
        a = run_regression_experiment(**kw)
        b = run_regression_experiment(**kw)
        assert a == b
        assert [r["fraction"] for r in a["rows"]] == [0.2, 0.05]
        for row in a["rows"]:
            assert row["jpt_mae"] > 0 and row["cart_mae"] > 0
            assert row["jpt_leaves"] >= 1

    def test_finer_trees_fit_noisy_sine_better(self):
        report = run_regression_experiment(n=1000, fractions=(0.2, 0.01), seed=6)
        coarse, fine = report["rows"]
        assert fine["jpt_leaves"] > coarse["jpt_leaves"]
        assert fine["jpt_mae"] < coarse["jpt_mae"]


class TestLikelihoodSweep:
    def test_row_fields_and_split(self, iris):
        report = run_likelihood_sweep(iris, fractions=(0.9, 0.4), seed=1)
        assert report["n_train"] + report["n_test"] == len(iris)
        assert report["n_test"] == round(0.1 * len(iris))
        for row in report["rows"]:
            assert row["leaves"] >= 1
            assert row["model_size"] > 0
            assert math.isfinite(row["train_loglik"])

    def test_more_leaves_fit_training_data_better(self, iris):
        report = run_likelihood_sweep(iris, fractions=(0.9, 0.1), seed=1)
        one, many = report["rows"]
        assert many["leaves"] > one["leaves"]
        assert many["train_loglik"] > one["train_loglik"]
