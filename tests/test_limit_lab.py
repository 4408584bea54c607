import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conewalk import cone_linalg as cl
from conewalk.errors import ConfigError, DegenerateDataError, UnsupportedFieldError
from conewalk.harness import run_experiment, validate_config
from conewalk.limit_lab import (
    CLT,
    Moments,
    chi2_cdf,
    empirical_cov,
    fit_loglog,
    ks_2samp,
    ks_distance,
    mardia_tests,
    moment_identity_rhs,
    normal_cdf,
    normalize_clt,
    t_squared_limit,
)
from conewalk.radial_laws import RadialLaw, moments

TWO_POINT = {"kind": "two_point", "a": 1.0, "b": 2.0, "p_a": 0.5}


class TestChi2Cdf:
    def test_at_zero(self):
        for p in (1, 2, 7):
            assert chi2_cdf(p, 0.0) == 0.0

    def test_two_dof_exponential(self):
        assert chi2_cdf(2, 2.0) == pytest.approx(1 - math.exp(-1), abs=1e-10)

    def test_one_dof_erf(self):
        assert chi2_cdf(1, 1.0) == pytest.approx(math.erf(1 / math.sqrt(2)), abs=1e-10)

    def test_invalid_dof(self):
        with pytest.raises(ValueError):
            chi2_cdf(0, 1.0)


class TestKsDistance:
    def test_single_point_against_uniform(self):
        assert ks_distance([0.5], lambda x: np.clip(x, 0, 1)) == pytest.approx(0.5)

    def test_exact_quantiles(self):
        n = 64
        sample = (np.arange(1, n + 1) - 0.5) / n
        assert ks_distance(sample, lambda x: np.clip(x, 0, 1)) == pytest.approx(1 / (2 * n))

    def test_normal_sample_within_dkw_band(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal(100000)
        assert ks_distance(x, normal_cdf) <= 0.0061

    def test_empty_sample(self):
        with pytest.raises(ValueError):
            ks_distance([], normal_cdf)

    def test_two_sample(self):
        rng = np.random.default_rng(43)
        d, p = ks_2samp(rng.standard_normal(5000), rng.standard_normal(5000))
        assert p > 1e-3


class TestNormalize:
    MD = moments(RadialLaw.two_point(1.0, 2.0, 0.5))

    def test_centering(self):
        out = normalize_clt("CLT2", np.array([100 * 2.5]), 100, 10**5, self.MD)
        assert out[0] == 0.0

    def test_clt1_hand_value(self):
        out = normalize_clt("CLT1", np.array([260.0]), 100, 4, self.MD)
        assert out[0] == pytest.approx(0.05656854249492375, abs=1e-12)

    def test_clt1_complex_takes_real_dimension(self):
        # a q = 1 walk in C^p is the real walk in R^(2p)
        mdc = moments(RadialLaw.two_point(1.0, 2.0, 0.5, field=cl.COMPLEX))
        raw = np.array([240.0, 250.0, 266.0])
        assert np.array_equal(normalize_clt("CLT1", raw, 100, 5, mdc),
                              normalize_clt("CLT1", raw, 100, 10, self.MD))

    def test_clt4_reduces_to_clt2_for_scalars(self):
        raw = np.array([240.0, 250.0, 266.0])
        a = normalize_clt("CLT2", raw, 100, 7.0, self.MD)
        b = normalize_clt("CLT4", raw, 100, 7.0, self.MD)
        assert np.array_equal(a, b)

    def test_matrix_kinds_vectorize(self):
        law = RadialLaw.point_mass(np.eye(2))
        md = moments(law)
        raw = np.stack([np.eye(2) * 50, np.eye(2) * 49])
        out = normalize_clt("CLT3", raw, 50, 100.0, md)
        assert out.shape == (2, 3)
        assert np.allclose(out[0], 0.0)

    def test_kind_shape_mismatch(self):
        with pytest.raises(ValueError):
            normalize_clt("CLT1", np.zeros((3, 2, 2)), 10, 5, self.MD)
        law = RadialLaw.point_mass(np.eye(2))
        with pytest.raises(ValueError):
            normalize_clt("CLT3", np.zeros(5), 10, 5, moments(law))
        for kind in ("CLT1", "CLT2", "CLT4"):
            for raw in (np.full(3, 2.0), np.full(2, 2.0)):  # (2,) broadcasts against 2 x 2
                with pytest.raises(ValueError):
                    normalize_clt(kind, raw, 10, 5, moments(law))
        for kind in ("CLT1", "CLT2"):
            with pytest.raises(ValueError):
                normalize_clt(kind, np.zeros((3, 2, 2)), 10, 5, moments(law))
        with pytest.raises(ValueError):
            normalize_clt("CLT9", np.zeros(5), 10, 5, self.MD)


FIELD = st.sampled_from(cl.FIELDS)
SIZE = st.floats(1e-3, 1e3)
# q = 1 laws of every kind, over both fields
Q1_LAWS = st.one_of(
    st.builds(RadialLaw.point_mass, SIZE, FIELD),
    st.builds(lambda atoms, w, field: RadialLaw.finite_mixture(atoms, np.divide(w, sum(w)),
                                                               field),
              st.lists(SIZE, min_size=2, max_size=2), st.lists(SIZE, min_size=2, max_size=2),
              FIELD),
    st.builds(RadialLaw.two_point, SIZE, SIZE, st.floats(0.0, 1.0), FIELD),
    st.builds(RadialLaw.log_normal, st.floats(-3.0, 3.0), st.floats(0.01, 2.0), FIELD),
    st.builds(lambda lo, width, field: RadialLaw.uniform(lo, lo + width, field),
              st.floats(0.0, 10.0), SIZE, FIELD),
    st.builds(lambda c, dof, field: RadialLaw.wishart_root([[c]], dof, field),
              SIZE, st.integers(1, 10), FIELD),
)


class TestCltRecords:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(Q1_LAWS)
    def test_q1_limits_are_the_matrix_limits_at_q1(self, law):
        # CLT2 and CLT4 share m4 - s2^2, the covariance of vec(s^2) at q = 1,
        # and CLT3's 2 s2^2 is T2(s2) at q = 1
        md = moments(law)
        assert abs(CLT["CLT4"].var(md) - md.sigma2_image_cov[0, 0]) <= 1e-12 * md.m4
        assert CLT["CLT2"].var(md) == CLT["CLT4"].var(md)
        assert CLT["CLT3"].var(md) == pytest.approx(t_squared_limit([[md.m2]])[0, 0],
                                                    rel=1e-15, abs=0.0)


class TestTSquared:
    def test_identity_covariance(self):
        out = t_squared_limit(np.eye(2))
        assert np.allclose(out, 2 * np.eye(3), atol=1e-12)

    def test_rank_one(self):
        out = t_squared_limit(np.diag([1.0, 0.0]))
        expect = np.zeros((3, 3))
        expect[0, 0] = 2.0
        assert np.allclose(out, expect, atol=1e-12)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((2, 2))
        s2 = g @ g.T
        out = t_squared_limit(s2)
        assert np.array_equal(out, out.T)

    def test_complex_refused(self):
        with pytest.raises(UnsupportedFieldError):
            t_squared_limit(np.eye(2), field=cl.COMPLEX)

    def test_wishart_oracle(self):
        # covariance of vec(w) for w = g g^T with g ~ N(0, sigma2)
        rng = np.random.default_rng(6)
        s2 = np.array([[1.0, 0.3], [0.3, 0.7]])
        root = cl.psd_sqrt(s2)
        g = rng.standard_normal((200000, 2)) @ root
        w = np.einsum("ni,nj->nij", g, g)
        vec = cl.vectorize_herm(w, cl.REAL)
        emp = np.cov(vec.T)
        assert np.max(np.abs(emp - t_squared_limit(s2))) <= 0.03


class TestMomentIdentity:
    MD = moments(RadialLaw.two_point(1.0, 2.0, 0.5))

    def test_single_step(self):
        assert moment_identity_rhs(1, 50, self.MD) == pytest.approx(
            self.MD.m4 - self.MD.sigma4)

    def test_hand_value(self):
        assert moment_identity_rhs(20, 50, self.MD) == pytest.approx(140.0)

    def test_complex_field_takes_real_dimension(self):
        # over C the identity holds at the real dimension m = 2p
        mdc = moments(RadialLaw.two_point(1.0, 2.0, 0.5, field=cl.COMPLEX))
        assert moment_identity_rhs(10, 2, mdc) == pytest.approx(303.75)
        assert moment_identity_rhs(20, 5, mdc) == moment_identity_rhs(20, 10, self.MD)

    def test_large_p_limit(self):
        val = moment_identity_rhs(20, 1e15, self.MD)
        assert val == pytest.approx(20 * (self.MD.m4 - self.MD.sigma4), rel=1e-9)


class TestEmpiricalCov:
    def test_two_point_formula(self):
        x = np.array([1.0, 0.0, 2.0])
        y = np.array([0.0, 1.0, 0.0])
        mean, cov = empirical_cov(np.stack([x, y]))
        evals = np.linalg.eigvalsh(cov)
        assert evals[-1] == pytest.approx(np.sum((x - y) ** 2) / 2)
        assert np.allclose(evals[:-1], 0.0, atol=1e-12)

    def test_gaussian_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((100000, 3))
        mean, cov = empirical_cov(x)
        se = 4 * np.sqrt(2.0 / 100000)
        assert np.max(np.abs(cov - np.eye(3))) <= se + 0.002

    def test_shift_invariance(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((50, 3))
        _, cov1 = empirical_cov(x)
        _, cov2 = empirical_cov(x + np.array([5.0, -2.0, 11.0]))
        assert np.allclose(cov1, cov2, atol=1e-12)

    def test_needs_two(self):
        with pytest.raises(ValueError):
            empirical_cov(np.zeros((1, 3)))


class TestMoments:
    def test_merge_matches_one_block(self):
        # blocks of unequal size merged in order give the one-block moments,
        # row by row for a 2-d sample
        rng = np.random.default_rng(10)
        x = rng.standard_normal((3, 1000)) * [[1.0], [1e-3], [1e3]] + 1e4
        merged = Moments.pooled(Moments.of(x[:, a:b])
                                for a, b in ((0, 1), (1, 300), (300, 1000)))
        whole = Moments.of(x)
        assert merged.count == 1000
        assert np.allclose(merged.mean, whole.mean, rtol=1e-15)
        assert np.allclose(merged.M2, whole.M2, rtol=1e-12)
        assert np.allclose(merged.se, np.std(x, axis=1) / np.sqrt(1000), rtol=1e-12)

    def test_constant_sample_is_exact(self):
        # the sum of 0.1s rounds, yet a constant sample keeps its value as
        # mean and has M2 = 0 and se = 0
        m = Moments.pooled([Moments.of(np.full(7, 0.1)), Moments.of(np.full(2000, 0.1))])
        assert (m.count, m.mean, m.M2, m.se) == (2007, 0.1, 0.0, 0.0)
        assert np.mean(np.full(2000, 0.1)) != 0.1

    def test_spread_far_below_the_mean(self):
        # a one-pass sum(x^2)/n - mean^2 loses a spread of 1e-9 around 8
        x = 8.0 + 1e-9 * np.random.default_rng(11).standard_normal(20000)
        m = Moments.pooled(Moments.of(b) for b in np.split(x, 4))
        assert m.se == pytest.approx(np.std(x) / np.sqrt(x.size), rel=1e-6)
        assert np.mean(x * x) - np.mean(x) ** 2 <= 1e-15


class TestMardia:
    def test_skewness_matches_pairwise_definition(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((300, 2)) ** 2
        res = mardia_tests(x)
        xc = x - x.mean(axis=0)
        s = xc.T @ xc / len(x)
        sinv = np.linalg.inv(s)
        b1 = np.mean((xc @ sinv @ xc.T) ** 3)
        assert res.skew_stat == pytest.approx(len(x) * b1 / 6, rel=1e-10)

    def test_null_calibration(self):
        rng = np.random.default_rng(10)
        rejections = 0
        trials = 200
        for _ in range(trials):
            res = mardia_tests(rng.standard_normal((1500, 3)))
            if res.skew_pvalue < 0.01:
                rejections += 1
        # expect about 1% rejections at level 0.01
        assert rejections <= 0.04 * trials

    def test_skewed_alternative(self):
        rng = np.random.default_rng(11)
        res = mardia_tests(np.exp(rng.standard_normal((20000, 3))))
        assert res.skew_pvalue < 1e-6

    def test_degenerate_data(self):
        with pytest.raises(DegenerateDataError):
            mardia_tests(np.ones((500, 2)))

    def test_sample_count_precondition(self):
        with pytest.raises(ValueError):
            mardia_tests(np.random.default_rng(0).standard_normal((30, 2)))


class TestRateFit:
    def test_exact_power_law(self):
        ns = [16, 32, 64, 128, 256]
        dists = [1.0 * n ** (-0.5) for n in ns]
        fit = fit_loglog(ns, dists, noise_floor=1e-6)
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert all(fit.included)

    def test_noise_floor_exclusion(self):
        ns = [16, 32, 64, 128]
        dists = [0.5, 0.25, 0.001, 0.001]
        fit = fit_loglog(ns, dists, noise_floor=0.01)
        assert fit.included == (True, True, False, False)
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)

    def test_all_flagged_gives_none(self):
        fit = fit_loglog([16, 32, 64, 128], [1e-4] * 4, noise_floor=0.01)
        assert fit.slope is None

    def test_positive_distances_required(self):
        with pytest.raises(ValueError):
            fit_loglog([1, 2, 3, 4], [0.1, 0.0, 0.1, 0.1], 0.01)


class TestScan:
    """The berry-esseen-scan family: KS distance to chi-square_p over an
    n-grid, with the 3 / sqrt(replicates) noise floor."""

    @staticmethod
    def scan(law, n_grid, replicates, seed, **extra):
        cfg, _ = validate_config({"experiment": "berry-esseen-scan", "seed": seed,
                                  "law": law, "p": 3, "n_grid": n_grid,
                                  "replicates": replicates, **extra})
        return run_experiment(cfg).aggregates

    def test_noise_floor_path(self):
        agg = self.scan(TWO_POINT, [64, 128, 256, 512], 150, 12)
        assert agg["slope"] is None
        assert agg["included_points"] == 0

    def test_skewed_law_has_negative_slope(self):
        agg = self.scan({"kind": "log_normal", "log_mean": 0.0, "log_sd": 1.0},
                        [16, 64, 256, 1024], 20000, 13,
                        method="polar")
        assert agg["slope"] is not None and agg["slope"] <= -0.3

    def test_grid_size_precondition(self):
        with pytest.raises(ConfigError, match="n_grid"):
            self.scan(TWO_POINT, [16, 32, 64], 100, 14)

    def test_noise_floor_scales_with_replicates(self):
        # quadrupling the replicate count halves the 3/sqrt(reps) floor
        f1 = self.scan(TWO_POINT, [8, 16, 32, 64], 100, 15)
        f2 = self.scan(TWO_POINT, [8, 16, 32, 64], 400, 15)
        assert f2["noise_floor"] == pytest.approx(f1["noise_floor"] / 2)
