import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probtree import (Dirac, DistributionError, LearnerConfig,
                      PiecewiseLinearCDF, build_quantile_dataset, cdf_learn,
                      learn)

from probtree.plcdf import ColumnError, cdfs_from_json, packed_cdfs

from conftest import random_plf
from reference_train import reference_cdf_learn

UNIFORM = PiecewiseLinearCDF([[0.0, 0.0], [1.0, 1.0]])


class TestBuildQuantileDataset:
    def test_equal_weights(self):
        values, quantiles = build_quantile_dataset([1, 2, 3, 4])
        assert values.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert quantiles.tolist() == [0.25, 0.5, 0.75, 1.0]

    def test_single_sample(self):
        values, quantiles = build_quantile_dataset([5])
        assert (values.tolist(), quantiles.tolist()) == ([5.0], [1.0])

    def test_duplicate_collapse(self):
        values, quantiles = build_quantile_dataset([2, 2, 3])
        assert (values.tolist(), quantiles.tolist()) == ([2.0, 3.0], [2 / 3, 1.0])

    def test_weighted(self):
        values, quantiles = build_quantile_dataset([1, 2], weights=[3, 1])
        assert (values.tolist(), quantiles.tolist()) == ([1.0, 2.0], [0.75, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(DistributionError):
            build_quantile_dataset([])

    def test_nonfinite_rejected(self):
        with pytest.raises(DistributionError):
            build_quantile_dataset([1.0, math.nan])

    def test_last_quantile_exact_one(self):
        rng = np.random.default_rng(0)
        _, quantiles = build_quantile_dataset(rng.random(373), weights=rng.random(373) + 0.1)
        assert quantiles[-1] == 1.0


class TestCdfLearn:
    def test_linear_data_two_hinges(self):
        v = np.linspace(0.1, 1.0, 20)
        plf = cdf_learn((v, v), 0.01)
        assert plf.parameter_count() == 2

    def test_epsilon_zero_interpolates(self):
        pts = build_quantile_dataset([1, 2, 3, 4])
        plf = cdf_learn(pts, 0.0)
        assert plf.parameter_count() == 4
        for value, quantile in zip(*pts):
            assert plf.cdf(value) == pytest.approx(quantile, abs=1e-12)

    def test_single_point_is_dirac(self):
        d = cdf_learn(([5.0], [1.0]), 0.05)
        assert d == Dirac(5.0)

    def test_negative_epsilon(self):
        with pytest.raises(DistributionError):
            cdf_learn(([1.0], [1.0]), -0.1)

    @pytest.mark.parametrize("points", [
        ([], []),
        ([1.0, 2.0], [1.0]),
        ([2.0, 1.0], [0.5, 1.0]),
        ([1.0, 2.0], [0.5, 0.5]),
        ([1.0, 2.0], [0.5, 0.9]),
        ([1.0, 2.0], [0.0, 1.0]),
        ([1.0], [1.5]),
    ])
    def test_malformed_points_rejected(self, points):
        with pytest.raises(DistributionError):
            cdf_learn(points, 0.05)

    def test_near_coincident_values_warn_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plf = cdf_learn(build_quantile_dataset([0.0, 5e-324, 1.0, 2.0]), 0.0)
        assert plf.parameter_count() == 4

    def test_residual_dominance(self):
        # total squared residual is non-increasing as epsilon decreases
        rng = np.random.default_rng(5)
        pts = build_quantile_dataset(rng.standard_normal(300))
        d, g = pts
        prev = None
        for eps in (0.5, 0.1, 0.02, 0.005, 0.0):
            plf = cdf_learn(pts, eps)
            res = float(np.sum((plf.cdf_vec(d) - g) ** 2))
            if prev is not None:
                assert res <= prev + 1e-12
            prev = res
        assert prev == pytest.approx(0.0, abs=1e-20)

    @pytest.mark.parametrize("seed", range(12))
    def test_same_hinges_as_three_scans_per_hinge(self, seed):
        # one chord scan per split, with each side's SSE kept for the stop
        # test of that side, against a scan for the stop test and one per side
        rng = np.random.default_rng(seed)
        n = int(rng.choice([2, 3, 7, 60, 800, 4000]))
        centers = rng.choice([-4.0, 0.0, 1.0, 6.0], n)
        samples = centers + rng.standard_normal(n) * rng.choice([0.01, 1.0, 3.0])
        if seed % 3 == 0:
            samples = np.round(samples, 1)  # ties
        weights = rng.uniform(0.1, 3.0, n) if seed % 2 else None
        pts = build_quantile_dataset(samples, weights)
        for eps in (0.0, 1e-9, 1e-4, 0.01, 0.05, 0.5):
            got, want = cdf_learn(pts, eps), reference_cdf_learn(pts, eps)
            assert np.array_equal(got.x, want.x) and np.array_equal(got.F, want.F), eps

    def test_tied_candidates_split_at_the_lowest(self):
        # a point-symmetric curve: cutting at the second or the fifth point
        # scores the same, and the second wins
        pts = (np.arange(6.0), np.array([1.0, 2.0, 3.0, 14.0, 15.0, 16.0]) / 16)
        for eps in (1e-6, 0.1, 0.15):
            got, want = cdf_learn(pts, eps), reference_cdf_learn(pts, eps)
            assert np.array_equal(got.x, want.x) and np.array_equal(got.F, want.F)
        assert cdf_learn(pts, 0.15).x.tolist() == [0.0, 1.0, 5.0]

    def test_same_hinges_on_near_coincident_values(self):
        pts = build_quantile_dataset([0.0, 5e-324, 1e-323, 1.0, 1.0 + 2e-16, 2.0, 7.0])
        for eps in (0.0, 1e-3):
            got, want = cdf_learn(pts, eps), reference_cdf_learn(pts, eps)
            assert np.array_equal(got.x, want.x) and np.array_equal(got.F, want.F)

    def test_finer_epsilon_better_holdout_likelihood(self):
        from probtree.experiments import GaussianMixture1D
        mix = GaussianMixture1D()
        rng = np.random.default_rng(11)
        train, test = mix.sample(rng, 1000), mix.sample(rng, 400)
        pts = build_quantile_dataset(train)
        lls = []
        for eps in (0.01, 0.05):
            plf = cdf_learn(pts, eps)
            dens = np.array([plf.density(float(v)) for v in test])
            lls.append(np.mean(np.log(dens[dens > 0])))
        assert lls[0] > lls[1]


class TestEvaluation:
    def test_uniform_midpoint(self):
        assert UNIFORM.cdf(0.5) == 0.5

    def test_below_support_zero(self):
        assert UNIFORM.cdf(-0.1) == 0.0

    def test_at_and_above_last_hinge_one(self):
        assert UNIFORM.cdf(1.0) == 1.0
        assert UNIFORM.cdf(7.0) == 1.0

    def test_interval_probability(self):
        assert UNIFORM.interval_probability(0.25, 0.75) == pytest.approx(0.5)
        assert UNIFORM.interval_probability(2.0, 3.0) == 0.0
        assert UNIFORM.interval_probability(-5.0, 5.0) == 1.0

    def test_interval_probability_inverted(self):
        with pytest.raises(DistributionError):
            UNIFORM.interval_probability(1.0, 0.0)


class TestPpf:
    def test_uniform(self):
        assert UNIFORM.ppf(0.5) == 0.5

    def test_boundaries(self):
        assert UNIFORM.ppf(0.0) == 0.0
        assert UNIFORM.ppf(1.0) == 1.0

    def test_out_of_range(self):
        with pytest.raises(DistributionError):
            UNIFORM.ppf(1.5)

    def test_plateau_left_endpoint(self):
        plf = PiecewiseLinearCDF([[0, 0], [1, 0.5], [2, 0.5], [3, 1]])
        assert plf.ppf(0.5) == 1.0

    @pytest.mark.parametrize("hinges, ps, expected", [
        # interior plateau
        ([[0, 0], [1, 0.5], [2, 0.5], [3, 1]], [0.0, 0.0, 0.5, 1.0], [0, 0, 1, 3]),
        # point mass at the minimum, then a plateau
        ([[0, 0.2], [1, 0.6], [2, 0.6], [3, 1]], [0.0, 0.2, 0.6, 1.0], [0, 0, 1, 3]),
        # plateau starting at F = 0
        ([[0, 0], [1, 0], [2, 1]], [0.0, 0.0, 0.0, 1.0], [0, 0, 0, 2]),
        # plateau at F = 1
        ([[0, 0], [1, 1], [2, 1]], [0.0, 0.0, 1.0, 1.0], [0, 0, 1, 1]),
    ])
    def test_plateau_left_endpoint_vec(self, hinges, ps, expected):
        assert PiecewiseLinearCDF(hinges).ppf_vec(ps).tolist() == expected

    @pytest.mark.parametrize("p", [-1e-12, 1.5, math.nan, math.inf])
    def test_vec_out_of_range(self, p):
        with pytest.raises(DistributionError):
            UNIFORM.ppf_vec([0.5, p])
        with pytest.raises(DistributionError):
            UNIFORM.ppf(p)

    def test_vec_matches_scalar_reference(self):
        def reference(plf, p):
            j = int(np.searchsorted(plf.F, p, side="left"))
            if j == 0 or plf.F[j] == p:
                return plf.x[j]
            f0, f1, x0, x1 = plf.F[j - 1], plf.F[j], plf.x[j - 1], plf.x[j]
            return x0 + (p - f0) * (x1 - x0) / (f1 - f0)

        rng = np.random.default_rng(3)
        for _ in range(200):
            plf = random_plf(rng, zero_start=bool(rng.integers(0, 2)))
            ps = np.concatenate((rng.random(32), plf.F, [0.0]))
            want = np.array([reference(plf, p) for p in ps])
            got = plf.ppf_vec(ps)
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)
            hits = np.isin(ps, plf.F)
            assert np.array_equal(got[hits], want[hits])

    def test_roundtrip_on_increasing_regions(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            plf = random_plf(rng)
            ps = rng.uniform(0.0, 1.0, 64)
            xs = plf.ppf_vec(ps)
            back = plf.cdf_vec(xs)
            # on plateaus ppf maps to the left endpoint, where cdf equals p
            assert np.all(np.abs(back - ps) < 1e-9)


class TestDensity:
    def test_uniform_width_two(self):
        plf = PiecewiseLinearCDF([[0, 0], [2, 1]])
        assert plf.density(1.0) == 0.5

    def test_outside_support(self):
        assert UNIFORM.density(-1.0) == 0.0
        assert UNIFORM.density(2.0) == 0.0

    def test_hinge_uses_right_piece(self):
        plf = PiecewiseLinearCDF([[0, 0], [1, 0.25], [2, 1]])
        assert plf.density(1.0) == 0.75
        assert plf.density(2.0) == 0.75  # last hinge: left piece

    def test_integrates_to_one(self):
        # midpoint rule on a hinge-refined grid is exact for a step density
        rng = np.random.default_rng(2)
        for _ in range(20):
            plf = random_plf(rng)
            lo, hi = plf.support
            grid = np.union1d(np.linspace(lo, hi, 1001), plf.x)
            mids = (grid[:-1] + grid[1:]) / 2.0
            dens = np.array([plf.density(float(v)) for v in mids])
            integral = float(np.sum(dens * np.diff(grid)))
            assert integral == pytest.approx(1.0, abs=1e-9)


class TestCrop:
    def test_uniform_half(self):
        c = UNIFORM.crop(0.0, 0.5)
        assert np.allclose(c.x, [0.0, 0.5]) and np.allclose(c.F, [0.0, 1.0])

    def test_full_support_identity(self):
        c = UNIFORM.crop(0.0, 1.0)
        assert c == UNIFORM

    def test_crop_of_crop_is_single_crop(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            plf = random_plf(rng)
            lo, hi = plf.support
            a, b = lo + 0.1 * (hi - lo), lo + 0.8 * (hi - lo)
            c, d = lo + 0.3 * (hi - lo), lo + 0.95 * (hi - lo)
            try:
                once = plf.crop(max(a, c), min(b, d))
                twice = plf.crop(a, b).crop(c, d)
            except DistributionError:
                continue  # zero-mass sub-interval
            assert np.allclose(once.x, twice.x, atol=1e-12)
            assert np.allclose(once.F, twice.F, atol=1e-9)

    def test_crop_idempotent(self):
        plf = PiecewiseLinearCDF([[0, 0], [1, 0.2], [3, 0.9], [4, 1]])
        c1 = plf.crop(0.5, 3.5)
        c2 = c1.crop(0.5, 3.5)
        assert np.array_equal(c1.x, c2.x) and np.array_equal(c1.F, c2.F)

    def test_zero_mass_rejected(self):
        with pytest.raises(DistributionError):
            UNIFORM.crop(2.0, 3.0)

    def test_boundaries_evaluate_to_0_and_1(self):
        plf = PiecewiseLinearCDF([[0, 0], [1, 0.2], [3, 0.9], [4, 1]])
        c = plf.crop(0.5, 3.5)
        assert c.cdf(0.5) == 0.0
        assert c.cdf(3.5) == 1.0


class TestExpectation:
    def test_uniform(self):
        assert UNIFORM.expectation() == pytest.approx(0.5)

    def test_symmetric(self):
        plf = PiecewiseLinearCDF([[-2, 0], [-1, 0.4], [1, 0.6], [2, 1]])
        assert plf.expectation() == pytest.approx(0.0, abs=1e-12)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(6)
        u = rng.random(200_000)
        for _ in range(20):
            plf = random_plf(rng, zero_start=bool(rng.integers(0, 2)))
            xs = plf.ppf_vec(u)
            se = xs.std() / math.sqrt(len(xs))
            assert abs(plf.expectation() - xs.mean()) < 3 * se + 1e-12


class TestSample:
    def test_uniform_mean(self):
        rng = np.random.default_rng(7)
        xs = UNIFORM.sample(rng, 100_000)
        assert abs(xs.mean() - 0.5) < 0.01

    def test_dirac_constant(self):
        rng = np.random.default_rng(8)
        assert np.all(Dirac(3.0).sample(rng, 100) == 3.0)

    def test_ks_statistic(self):
        rng = np.random.default_rng(9)
        plf = random_plf(rng)
        xs = np.sort(plf.sample(rng, 100_000))
        emp = np.arange(1, len(xs) + 1) / len(xs)
        ks = np.max(np.abs(plf.cdf_vec(xs) - emp))
        assert ks < 0.01


class TestConfidenceInterval:
    def test_uniform_half(self):
        assert UNIFORM.confidence_interval(0.5) == pytest.approx((0.25, 0.75))

    def test_theta_zero_degenerate(self):
        l, u = UNIFORM.confidence_interval(0.0)
        assert l == u == pytest.approx(0.5)

    def test_theta_one_full_support(self):
        assert UNIFORM.confidence_interval(1.0) == (0.0, 1.0)

    def test_contains_mean_and_mass(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            plf = random_plf(rng)
            theta = float(rng.random())
            m = plf.expectation()
            l, u = plf.confidence_interval(theta)
            assert l <= m <= u
            # theta mass centred at the mean's quantile, clamped to [0, 1]
            fm = plf.cdf(m)
            want = min(1.0, fm + theta / 2) - max(0.0, fm - theta / 2)
            assert plf.interval_probability(l, u) == pytest.approx(want, abs=1e-9)


class TestDirac:
    def test_mass_and_ppf(self):
        d = Dirac(2.0)
        assert d.cdf(1.9) == 0.0 and d.cdf(2.0) == 1.0
        assert d.interval_probability(1.0, 3.0) == 1.0
        assert d.interval_probability(3.0, 4.0) == 0.0
        assert d.ppf(0.3) == 2.0

    def test_density_exact_match_convention(self):
        d = Dirac(2.0)
        assert d.density(2.0) == 1.0
        assert d.density(2.0000001) == 0.0


class TestInvariants:
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200),
           st.sampled_from([0.0, 0.001, 0.01, 0.05, 0.5]))
    @settings(max_examples=100, deadline=None)
    def test_fit_is_valid_distribution(self, samples, eps):
        pts = build_quantile_dataset(samples)
        dist = cdf_learn(pts, eps)
        if len(dist.x) == 1:
            return
        assert np.all(np.diff(dist.x) > 0)
        assert np.all(np.diff(dist.F) >= 0)
        assert dist.F[-1] == 1.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_cdf_monotone(self, seed):
        rng = np.random.default_rng(seed)
        plf = random_plf(rng, zero_start=bool(rng.integers(0, 2)))
        xs = np.sort(rng.uniform(*plf.support, 50))
        vals = plf.cdf_vec(xs)
        assert np.all(np.diff(vals) >= 0)

    def test_json_encoding(self):
        assert UNIFORM.to_json() == {"hinges": [[0.0, 0.0], [1.0, 1.0]]}
        assert Dirac(2.5).to_json() == {"dirac": 2.5}


# atoms of 0.2 at 0, 0.3 at 1 (a step) and 0.2 at 3 (a final step)
STEPPED = PiecewiseLinearCDF([[0.0, 0.2], [1.0, 0.4], [1.0, 0.7], [2.0, 0.8],
                              [3.0, 0.8], [3.0, 1.0]])


class TestAtoms:
    """Point masses at the first hinge, at a lone hinge and at a step."""

    def test_closed_interval_counts_first_hinge_atom(self):
        plf = PiecewiseLinearCDF([[0, .5], [1, 1]])
        assert plf.interval_probability(0, 1) == 1.0
        assert plf.interval_probability(0, 0) == 0.5
        assert plf.crop(0, 0.5).F.tolist() == [0.5 / 0.75, 1.0]

    def test_left_limit_is_cdf_where_no_atom(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            plf = random_plf(rng, zero_start=bool(rng.integers(0, 2)))
            for x in np.concatenate([plf.x[1:], rng.uniform(-12, 12, 20)]):
                assert plf.cdf_left(x) == plf.cdf(x)
            assert plf.cdf_left(plf.x[0]) == 0.0

    def test_bound_at_first_hinge_equals_bound_below(self, iris):
        for fraction in (0.4, 0.1, 0.02, 2):
            model = learn(iris, LearnerConfig(min_samples_leaf=fraction))
            for leaf in model.leaves:
                for var in model.schema[:4]:
                    d = leaf.distributions[var.name]
                    for u in np.append(d.x, d.x[-1] + 1.0):
                        assert (d.interval_probability(d.x[0], u)
                                == d.interval_probability(d.x[0] - 1e-9, u))

    def test_step(self):
        assert (STEPPED.cdf_left(1.0), STEPPED.cdf(1.0)) == (0.4, 0.7)
        assert (STEPPED.cdf_left(3.0), STEPPED.cdf(3.0)) == (0.8, 1.0)
        assert (STEPPED.cdf_left(0.0), STEPPED.cdf(0.0)) == (0.0, 0.2)
        assert STEPPED.cdf_left(0.5) == STEPPED.cdf(0.5) == pytest.approx(0.3)
        assert STEPPED.interval_probability(1.0, 1.0) == pytest.approx(0.3)
        assert STEPPED.interval_probability(2.0, 3.0) == pytest.approx(0.2)
        assert STEPPED.ppf_vec(np.array([0.5, 0.7, 0.9])).tolist() == [1.0, 1.0, 3.0]

    def test_step_expectation(self):
        # pieces of mass 0.2 on [0, 1] and 0.1 on [1, 2]
        want = 0.2 * 0 + 0.2 * 0.5 + 0.3 * 1 + 0.1 * 1.5 + 0.2 * 3
        assert STEPPED.expectation() == pytest.approx(want, abs=1e-15)

    def test_step_density_never_divides_by_zero(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert STEPPED.density(1.0) == pytest.approx(0.1)
            assert STEPPED.density(3.0) == 0.0  # the plateau ending below the step
            assert Dirac(2.0).density(2.0) == 1.0

    def test_crop_keeps_steps(self):
        c = STEPPED.crop(1.0, 3.0)
        assert c.x.tolist() == [1.0, 2.0, 3.0, 3.0]
        assert c.F == pytest.approx([0.5, 2 / 3, 2 / 3, 1.0])
        c = STEPPED.crop(0.5, 1.0)
        assert c.x.tolist() == [0.5, 1.0, 1.0]
        assert c.F == pytest.approx([0.0, 0.1 / 0.4, 1.0])

    def test_one_hinge_is_the_point_mass(self):
        d = PiecewiseLinearCDF([[2.0, 1.0]])
        assert d == Dirac(2.0)
        assert d.to_json() == {"dirac": 2.0}
        assert (d.expectation(), d.confidence_interval(0.9)) == (2.0, (2.0, 2.0))
        assert d.crop(1.0, 3.0) == d
        assert (d.support, d.parameter_count()) == ((2.0, 2.0), 1)

    @pytest.mark.parametrize("hinges", [
        [],
        [[0.0, 0.5]],
        [[0.0, 0.2], [0.0, 0.5], [1.0, 1.0]],
        [[1.0, 0.5], [0.0, 1.0]],
        [[math.nan, 1.0]],
        [[0.0, 0.5], [1.0]],
    ], ids=["empty", "lone-hinge-below-1", "step-at-first-hinge", "decreasing-x", "nan",
            "ragged"])
    def test_malformed_rejected(self, hinges):
        with pytest.raises(DistributionError):
            PiecewiseLinearCDF(hinges)


HINGE_VALUES = st.tuples(st.sampled_from([-1.0, 0.0, 1.0, 2.0, math.inf, math.nan]),
                         st.sampled_from([-0.5, 0.0, 0.5, 1.0, 1.5, math.nan]))


class TestPackedColumn:
    @given(st.lists(st.lists(HINGE_VALUES, min_size=1, max_size=4), min_size=1, max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_column_reports_what_the_constructor_reports(self, entries):
        """A packed column fails at its first entry that the constructor,
        plus the leaf rule of no repeated x, rejects, with the same rule."""
        expected = None
        for k, hinges in enumerate(entries):
            try:
                PiecewiseLinearCDF(hinges)
                if any(a[0] == b[0] for a, b in zip(hinges, hinges[1:])):
                    expected = (k, "leaf hinge x values must be strictly increasing")
            except DistributionError as exc:
                expected = (k, str(exc))
            if expected:
                break
        column = [{"hinges": [list(h) for h in hinges]} for hinges in entries]
        try:
            cdfs = packed_cdfs(*cdfs_from_json(column))
        except ColumnError as exc:
            assert (exc.entry, str(exc)) == expected
        else:
            assert expected is None
            assert cdfs == [PiecewiseLinearCDF(hinges) for hinges in entries]

    @pytest.mark.parametrize("hinges, rule", [
        ([[0.0, 0.5], [math.inf, 1.0]], "finite"),
        ([[0.0, 0.5], [2.0, 0.7], [1.0, 1.0]], "x values must be non-decreasing"),
        ([[0.0, 0.5], [0.0, 0.7], [1.0, 1.0]], "no step at the first hinge"),
        ([[0.0, 0.5], [1.0, 0.4], [2.0, 1.0]], "F values must be non-decreasing"),
        ([[0.0, -0.5], [1.0, 1.0]], "start >= 0"),
        ([[0.0, 0.5], [1.0, 0.9]], "end at exactly 1"),
        ([[0.0, 0.5], [1.0, 0.7], [1.0, 0.8], [2.0, 1.0]], "strictly increasing"),
    ])
    def test_each_rule_located_between_valid_entries(self, hinges, rule):
        valid = [{"hinges": [[0.0, 0.5], [1.0, 1.0]]}, {"dirac": 2.0}]
        with pytest.raises(ColumnError, match=rule) as info:
            cdfs_from_json(valid + [{"hinges": hinges}] + valid)
        assert info.value.entry == 2
        if rule != "strictly increasing":
            with pytest.raises(DistributionError, match=rule):
                PiecewiseLinearCDF(hinges)

    def test_dirac_is_the_one_hinge_entry(self):
        x, F, first, last = cdfs_from_json(
            [{"dirac": 2}, {"hinges": [[0, 0.5], [1, 1]]}, {"dirac": 3.5}])
        assert (x.tolist(), F.tolist()) == ([2.0, 0.0, 1.0, 3.5], [1.0, 0.5, 1.0, 1.0])
        assert (first.tolist(), last.tolist()) == ([0, 1, 3], [0, 2, 3])
        assert packed_cdfs(x, F, first, last) == [
            Dirac(2.0), PiecewiseLinearCDF([[0, 0.5], [1, 1]]), Dirac(3.5)]

    @pytest.mark.parametrize("entry", [
        "zzz", {}, {"dirac": 1.0, "hinges": [[1.0, 1.0]]}, {"dirac": "1"}, {"dirac": [1, 2]},
        {"hinges": "zzz"}, {"hinges": []}, {"hinges": [[0, 0.5], [1]]},
        {"hinges": [[0, 0.5], ["1", 1]]},
    ])
    def test_unparsable_entry_named(self, entry):
        with pytest.raises(ColumnError) as info:
            cdfs_from_json([{"dirac": 0.0}, {"hinges": [[0, 0.5], [1, 1]]}, entry, {"dirac": 1}])
        assert info.value.entry == 2
