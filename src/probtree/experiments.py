"""Desk-scale experiment harness: toy clusters, CDF-fit comparison on a
Gaussian mixture, x*sin(x) regression against a CART baseline, and
likelihood sweeps over min-samples fractions."""

from __future__ import annotations

import math

import numpy as np

from .data import Dataset, Interval, Variable
from .inference import ZeroEvidenceError, expectation_query, log_likelihood
from .learner import LearnerConfig, TreeModel, learn
from .plcdf import build_quantile_dataset, cdf_learn

# Toy cluster configuration: two bivariate Gaussians labeled by color.
TOY_MEANS = ((2.0, 2.0), (7.0, 6.0))
TOY_SIGMAS = ((1.0, 0.8), (1.2, 1.0))
TOY_WEIGHTS = (0.5, 0.5)
TOY_LABELS = ("Red", "Blue")

# Fixed 1-D three-Gaussian mixture used for the CDF-fit comparison.
MIX_WEIGHTS = (0.3, 0.4, 0.3)
MIX_MEANS = (-4.0, 0.0, 5.0)
MIX_SIGMAS = (1.0, 0.8, 1.5)

# x*sin(x) regression: noise on y, range of x, half-width of the evidence window.
XSINX_NOISE_SIGMA = 1.0
XSINX_RANGE = (0.0, 10.0)
XSINX_DELTA = 0.05


def gen_gaussian_toy(n: int, seed: int) -> Dataset:
    """Two labeled, approximately normal 2-D clusters (columns X, Y, color)."""
    if n < 2:
        raise ValueError("need at least two samples")
    rng = np.random.default_rng(seed)
    comp = rng.choice(len(TOY_WEIGHTS), size=n, p=TOY_WEIGHTS)
    x = np.empty(n)
    y = np.empty(n)
    for k, ((mx, my), (sx, sy)) in enumerate(zip(TOY_MEANS, TOY_SIGMAS)):
        rows = comp == k
        m = int(rows.sum())
        x[rows] = rng.normal(mx, sx, m)
        y[rows] = rng.normal(my, sy, m)
    color = Variable("color", "symbolic", tuple(sorted(TOY_LABELS)))
    labels = np.array([color.index_of(TOY_LABELS[k]) for k in comp], dtype=float)
    schema = (Variable("X", "numeric"), Variable("Y", "numeric"), color)
    return Dataset(schema, np.column_stack([x, y, labels]))


class GaussianMixture1D:
    """Reference mixture with exact log-density, for likelihood comparisons."""

    weights, means, sigmas = (np.array(a) for a in (MIX_WEIGHTS, MIX_MEANS, MIX_SIGMAS))

    def sample(self, rng, n: int) -> np.ndarray:
        comp = rng.choice(len(self.weights), size=n, p=self.weights)
        return rng.normal(self.means[comp], self.sigmas[comp])

    def logpdf(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)[:, None]
        dens = (self.weights / (self.sigmas * math.sqrt(2 * math.pi))
                * np.exp(-0.5 * ((xs - self.means) / self.sigmas) ** 2))
        return np.log(dens.sum(axis=1))


def run_cdf_fit_experiment(n: int = 1000, holdout: int = 500, seed: int = 0,
                           epsilons=(0.01, 0.05)) -> dict:
    """Fit piecewise-linear CDFs at several tolerances to mixture samples
    and score them on held-out data against the true mixture density.

    Held-out points with zero fitted density are excluded from the average
    and reported as a fraction.
    """
    mixture = GaussianMixture1D()
    rng = np.random.default_rng(seed)
    train = mixture.sample(rng, n)
    test = mixture.sample(rng, holdout)
    points = build_quantile_dataset(train)
    report = {"n_train": n, "n_holdout": holdout, "seed": seed,
              "true_avg_loglik": float(np.mean(mixture.logpdf(test))),
              "fits": []}
    for eps in epsilons:
        plf = cdf_learn(points, eps)
        dens = np.array([plf.density(float(v)) for v in test])
        nz = dens > 0
        avg = float(np.mean(np.log(dens[nz]))) if nz.any() else math.nan
        report["fits"].append({
            "epsilon": eps,
            "hinges": plf.parameter_count(),
            "avg_loglik": avg,
            "zero_fraction": float(1.0 - nz.mean()),
        })
    return report


def _xsinx_sample(rng, n: int):
    x = rng.uniform(XSINX_RANGE[0], XSINX_RANGE[1], n)
    y = x * np.sin(x) + rng.normal(0.0, XSINX_NOISE_SIGMA, n)
    return x, y


def _jpt_predict(model: TreeModel, x0: float) -> float:
    """E(y | x around x0); the evidence window widens on zero-mass gaps."""
    width = XSINX_DELTA
    while True:
        e = {"x": Interval(x0 - width, x0 + width)}
        try:
            mean, _, _ = expectation_query(model, "y", e, theta=0.95)
            return mean
        except ZeroEvidenceError:
            width *= 2.0
            if width > (XSINX_RANGE[1] - XSINX_RANGE[0]):
                raise


def run_regression_experiment(n: int = 1000, fractions=(0.2, 0.1, 0.05, 0.02, 0.01),
                              seed: int = 0, n_test: int = 300) -> dict:
    """x*sin(x) regression: generative tree vs discriminative CART baseline.

    For each min-samples fraction, both models are trained on the same
    noisy sample and scored by MAE of their conditional-mean predictions
    on a held-out sample from the same process.
    """
    rng = np.random.default_rng(seed)
    x, y = _xsinx_sample(rng, n)
    xt, yt = _xsinx_sample(rng, n_test)
    schema = (Variable("x", "numeric"), Variable("y", "numeric"))
    train = Dataset(schema, np.column_stack([x, y]))
    report = {"n": n, "n_test": n_test, "noise_sigma": XSINX_NOISE_SIGMA,
              "x_range": list(XSINX_RANGE), "delta": XSINX_DELTA, "seed": seed,
              "rows": []}
    for frac in fractions:
        gen = learn(train, LearnerConfig(min_samples_leaf=frac))
        cart = learn(train, LearnerConfig(min_samples_leaf=frac, targets=("y",)))
        jpt_pred = np.array([_jpt_predict(gen, float(v)) for v in xt])
        means = np.array([leaf.distributions["y"].expectation() for leaf in cart.leaves])
        cart_pred = means[cart.route(np.column_stack([xt, np.zeros(n_test)]))]
        report["rows"].append({
            "fraction": frac,
            "jpt_mae": float(np.mean(np.abs(jpt_pred - yt))),
            "cart_mae": float(np.mean(np.abs(cart_pred - yt))),
            "jpt_leaves": len(gen.table.prior),
            "cart_leaves": len(cart.table.prior),
        })
    return report


def run_likelihood_sweep(data: Dataset, fractions=(0.9, 0.4, 0.2, 0.1),
                         seed: int = 0) -> dict:
    """Train/test likelihood and model size across min-samples fractions.

    Uses a seeded 90/10 split; model size counts stored parameters (hinges
    plus histogram bins) across all leaves.
    """
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(data))
    n_test = max(1, len(data) // 10)
    test = data.subset(perm[:n_test])
    train = data.subset(perm[n_test:])
    report = {"n_train": len(train), "n_test": len(test), "seed": seed,
              "epsilon": LearnerConfig.epsilon, "rows": []}
    for frac in fractions:
        model = learn(train, LearnerConfig(min_samples_leaf=frac))
        train_ll, train_zero = log_likelihood(model, train)
        test_ll, test_zero = log_likelihood(model, test)
        report["rows"].append({
            "fraction": frac,
            "leaves": len(model.table.prior),
            "model_size": model.parameter_count(),
            "train_loglik": train_ll,
            "train_zero_fraction": train_zero,
            "test_loglik": test_ll,
            "test_zero_fraction": test_zero,
        })
    return report
