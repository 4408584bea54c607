import math

import numpy as np
import pytest

from conewalk import bessel
from conewalk import cone_linalg as cl
from conewalk.bessel import (
    BesselParam,
    bessel_character_1d,
    convolve_points,
    kappa_exact,
    kappa_mu,
    paired_composition_diffs,
    sample_contraction,
)
from conewalk.experiments import EXPERIMENTS
from conewalk.harness import validate_config
from conewalk.limit_lab import ks_2samp, ks_distance
from conewalk.orbit_sampler import (
    GroupWalkConfig,
    cone_block,
    haar_block,
    run_cone_walks,
    run_group_walks,
    sample_stiefel_frame,
    tr_squared,
)
from conewalk.radial_laws import RadialLaw, law_from_spec, moments

MIX2 = RadialLaw.finite_mixture(
    [np.diag([1.0, 0.5]), np.diag([0.5, 1.0])], [0.5, 0.5])


class TestParam:
    def test_rho_values(self):
        assert BesselParam(3.0, 1, 1).rho == pytest.approx(1.5)
        assert BesselParam(5.0, 2, 1).rho == pytest.approx(2.5)
        assert BesselParam(5.0, 2, 2).rho == pytest.approx(4.0)

    def test_existence_range(self):
        BesselParam(0.51, 1, 1)  # rho - 1 = 0.5
        with pytest.raises(ValueError):
            BesselParam(0.5, 1, 1)
        with pytest.raises(ValueError):
            BesselParam(3.0, 2, 3)

    def test_lemma_range_gate(self):
        BesselParam(3.0, 1, 1).require_lemma_range()
        with pytest.raises(ValueError):
            BesselParam(2.9, 1, 1).require_lemma_range()

    @pytest.mark.parametrize("q, d", [(1, 1), (1, 2), (2, 1), (3, 2)])
    def test_index_must_be_finite(self, q, d):
        # mu -> inf has one meaning: from about 9e307 on nu = 2 mu / d - q
        # is inf, and such an index is refused at every q
        BesselParam(1e307, q, d)
        for mu in (1e308, math.inf):
            with pytest.raises(ValueError, match="not a finite"):
                BesselParam(mu, q, d)


class TestContractionSampler:
    def test_uniform_case(self):
        # mu = rho makes the density flat on (-1, 1)
        rng = np.random.default_rng(1)
        n = 100000
        v = sample_contraction(BesselParam(1.5, 1, 1), rng, n)
        assert np.all(np.abs(v) < 1)
        assert abs(v.mean()) <= 3 * np.sqrt(1 / 3 / n)
        var_se = np.std(v**2) / np.sqrt(n)
        assert abs(v.var() - 1 / 3) <= 3 * var_se

    def test_sign_symmetry_matrix_case(self):
        rng = np.random.default_rng(2)
        n = 40000
        v = sample_contraction(BesselParam(6.0, 2, 1), rng, n)
        se = np.max(np.std(v, axis=0)) / np.sqrt(n)
        assert np.max(np.abs(v.mean(axis=0))) <= 4 * se

    def test_beta_marginal(self):
        # v^2 is Beta(1/2, mu - 1/2)
        from scipy.stats import beta

        rng = np.random.default_rng(3)
        n = 30000
        v = sample_contraction(BesselParam(5.0, 1, 1), rng, n)
        ks = ks_distance(v**2, beta(0.5, 4.5).cdf)
        assert ks <= 0.011

    def test_below_rho_rejected(self):
        # no density exists at mu <= rho - 1 (here rho - 1 = 1/2)
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            sample_contraction(BesselParam(0.5, 1, 1), rng, 4)

    def test_beta_marginal_below_rho(self):
        # rho - 1 < mu = 1.2 < rho: v^2 is still Beta(1/2, mu - 1/2)
        from scipy.stats import beta

        rng = np.random.default_rng(5)
        n = 30000
        v = sample_contraction(BesselParam(1.2, 1, 1), rng, n)
        assert ks_distance(v**2, beta(0.5, 0.7).cdf) <= 0.011

    def test_near_boundary_draws_inside_ball(self):
        # q = 2 complex, rho - 1 = 3 < mu = 3.2: the mass piles up within
        # far less than an ulp of the boundary, so "inside" holds up to
        # rounding; the law still has E tr(v v*) = q^2 d / (2 mu)
        rng = np.random.default_rng(27)
        n = 50000
        v = sample_contraction(BesselParam(3.2, 2, 2), rng, n)
        assert np.all(np.isfinite(v))
        sing = np.linalg.eigvalsh(cl.herm_part(v @ np.conj(np.swapaxes(v, -1, -2))))
        assert np.max(sing) <= 1.0 + 1e-12
        tr = np.sum(sing, axis=-1)
        assert abs(tr.mean() - 1.25) <= 4 * tr.std() / np.sqrt(n)

    @pytest.mark.parametrize("q, d, p", [(2, 1, 5), (2, 2, 3), (3, 1, 7)])
    def test_integer_index_matches_qr_block(self, q, d, p):
        # at mu = p d / 2 the contraction draw is the top block of a Haar
        # frame; the oracle takes it from QR.  (2, 2, 3) is mu = rho - 1,
        # outside the existence range: there the Wishart part is singular
        # and only haar_block's integer route reaches it
        field = cl.REAL if d == 1 else cl.COMPLEX
        n = 20000
        rng = np.random.default_rng(100 + p)
        if p * d / 2 > d * (q - 0.5):
            v = sample_contraction(BesselParam(p * d / 2, q, d), rng, n)
        else:
            v = haar_block(p - q, q, field, rng, n)
        ref = sample_stiefel_frame(p, q, field, np.random.default_rng(200 + p), n)[:, :q, :]
        for stat in (lambda x: np.sum(np.abs(x) ** 2, axis=(-2, -1)),
                     lambda x: x[:, 0, 0].real,
                     lambda x: np.abs(np.linalg.det(x))):
            _, pvalue = ks_2samp(stat(v), stat(ref))
            assert pvalue >= 1e-3

    @pytest.mark.parametrize("mu, q, d", [(2.8, 2, 1), (4.3, 2, 2), (3.8, 3, 1)])
    def test_mean_square_norm(self, mu, q, d):
        # E tr(v v*) = q^2 d / (2 mu) at any index
        rng = np.random.default_rng(31)
        n = 200000
        v = sample_contraction(BesselParam(mu, q, d), rng, n)
        tr = np.sum(np.abs(v) ** 2, axis=(-2, -1))
        assert abs(tr.mean() - q * q * d / (2 * mu)) <= 4 * tr.std() / np.sqrt(n)

    @pytest.mark.parametrize("mu, d", [(0.75, 1), (1.5, 1), (2.5, 1), (3.3, 1),
                                       (1.5, 2), (2.5, 2), (3.3, 2)])
    def test_walk_draw_matches_contraction(self, mu, d):
        # the q = 1 draw of every walk and check is Re v at the real
        # dimension m = 2 mu, over R and C alike (m = 3 and m = 5 take closed
        # forms), against the whole v of haar_block's general path at
        # nu = 2 mu / d - 1.  mu = 0.75 lies outside the complex existence
        # range mu > 1
        n = 20000
        param = BesselParam(mu, 1, d)
        w = sample_contraction(param, np.random.default_rng(41), n)
        assert w.shape == (n,) and w.dtype == np.float64
        block = haar_block(param.nu, 1, param.field, np.random.default_rng(40), n)
        _, pvalue = ks_2samp(w, block[:, 0, 0].real)
        assert pvalue >= 1e-3

    def test_gaussian_branch_boundary(self):
        rng = np.random.default_rng(6)
        v = sample_contraction(BesselParam(2.0, 1, 1), rng, 1000)
        assert np.all(np.abs(v) < 1)


class TestConvolve:
    def test_zero_left_argument_collapses(self):
        rng = np.random.default_rng(7)
        param = BesselParam(4.0, 2, 1)
        s = np.array([[1.0, 0.3], [0.3, 0.7]])
        t = convolve_points(np.zeros((2, 2)), s, param, rng, 200)
        assert np.max(cl.frob_norm(np.conj(np.swapaxes(t, -1, -2)) @ t - s @ s)) <= 1e-9

    def test_q1_reads_only_radii(self):
        # at q = 1 the step reads |r| and |s| alone: any phase of a factor
        # gives the same bits, and the draws are real
        param = BesselParam(3.0, 1, 2)
        t = [convolve_points(r, [[0.5]], param, np.random.default_rng(21), 500)
             for r in ([[0.8j]], [[0.8]], [[-0.8]])]
        assert t[0].shape == (500, 1, 1) and t[0].dtype == np.float64
        assert np.array_equal(t[0], t[1]) and np.array_equal(t[0], t[2])

    def test_q1_stacked_points(self):
        # a (size, 1, 1) stack of factors steps point by point
        param = BesselParam(2.5, 1, 1)
        r = np.array([0.3, 1.0, 2.0])[:, None, None]
        t = convolve_points(r, np.ones((3, 1, 1)), param, np.random.default_rng(22), 3)
        v = sample_contraction(param, np.random.default_rng(22), 3)
        assert np.array_equal(t[:, 0, 0], cl.cone_step(r[:, 0, 0], 1.0, v))

    def test_unit_points_second_moment(self):
        # E[t^2] = 2 exactly when r = s = 1, any index
        rng = np.random.default_rng(8)
        n = 100000
        t = cl.cone_step(1.0, 1.0, cone_block(BesselParam(4.0, 1, 1).nu, 1, cl.REAL, rng, n))
        se = np.std(t**2) / np.sqrt(n)
        assert abs(np.mean(t**2) - 2.0) <= 3 * se

    def test_group_case_against_sphere_walk(self):
        # p = 3 lift: |x + Y| for fixed unit x and Y uniform on the sphere
        rng = np.random.default_rng(9)
        n = 50000
        t = cl.cone_step(1.0, 1.0, cone_block(BesselParam(1.5, 1, 1).nu, 1, cl.REAL, rng, n))
        g = np.random.default_rng(10).standard_normal((n, 3))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        ref = np.sqrt((1 + g[:, 0]) ** 2 + g[:, 1] ** 2 + g[:, 2] ** 2)
        _, pvalue = ks_2samp(t, ref)
        assert pvalue >= 1e-3

    def test_support_bound_and_commutativity_complex(self):
        rng = np.random.default_rng(11)
        param = BesselParam(6.0, 2, 2)
        r = np.array([[1.0, 0.2 + 0.1j], [0.2 - 0.1j, 0.6]])
        s = np.array([[0.4, 0.0], [0.0, 1.1]])
        t_rs = convolve_points(r, s, param, rng, 20000)
        bound = cl.frob_norm(r) + cl.frob_norm(s)
        assert np.max(cl.frob_norm(t_rs)) <= bound + 1e-8
        t_sr = convolve_points(s, r, param, rng, 20000)
        # tr t^2 = ||R||_F^2 for the drawn factors R
        _, pvalue = ks_2samp(cl.frob_norm(t_rs) ** 2, cl.frob_norm(t_sr) ** 2)
        assert pvalue >= 1e-3

    def test_m1_subadditivity(self):
        rng = np.random.default_rng(12)
        law = RadialLaw.two_point(1.0, 2.0, 0.5)
        md = moments(law)
        n = 50000
        s1 = law.sample_scalar(rng, n)
        s2 = law.sample_scalar(rng, n)
        v = cone_block(BesselParam(3.0, 1, 1).nu, 1, cl.REAL, rng, n)
        t = np.sqrt(np.maximum(s1**2 + s2**2 + 2 * s1 * s2 * v, 0.0))
        se = np.std(t) / np.sqrt(n)
        assert np.mean(t) <= 2 * md.m1 + 4 * se


class TestSemigroup:
    # the large-index rule t = sqrt(r^2 + s^2) is the cone step at v = 0
    def test_pythagorean(self):
        assert cl.cone_step(3.0, 4.0, 0.0) == pytest.approx(5.0)

    def test_identity_element(self):
        s = np.array([[1.0, 0.2], [0.2, 0.5]])
        zero = np.zeros((2, 2))
        t = cl.cone_step(zero, s, zero)
        assert np.allclose(t.T @ t, s @ s, atol=1e-10)

    def test_commutes_exactly(self):
        r = np.array([[1.0, 0.1], [0.1, 0.4]])
        s = np.array([[0.5, 0.0], [0.0, 2.0]])
        zero = np.zeros((2, 2))
        assert np.array_equal(cl.cone_step(r, s, zero), cl.cone_step(s, r, zero))


class TestKappa:
    def test_plan_takes_block_size(self):
        # kappa blocks as every family does, at the config's block_size
        cfg, _ = validate_config({"experiment": "kappa", "seed": 1, "mu_grid": [2.5, 6.0],
                                  "n_samples": 20000, "block_size": 8192})
        plan = EXPERIMENTS["kappa"].plan(cfg)
        assert [(t["cell"], t["size"]) for t in plan] == [
            (cell, size) for cell in (0, 1) for size in (8192, 8192, 3616)]

    @pytest.mark.parametrize("mu, q, d, n", [(6.0, 1, 1, 10**6 + 1), (1.5, 1, 1, 1234),
                                             (2.7, 2, 1, 1234), (8.0, 2, 2, 1234)])
    def test_one_batch_of_proposals(self, monkeypatch, mu, q, d, n):
        # a block's weights come from one call of the proposal sampler, in
        # both branches and past the 1e6 draws at which it used to split
        calls = []
        propose = bessel._propose

        def spy(e, q_, field, rng, k):
            calls.append(k)
            return propose(e, q_, field, rng, k)

        monkeypatch.setattr(bessel, "_propose", spy)
        assert kappa_mu(BesselParam(mu, q, d), n, np.random.default_rng(0)).count == n
        assert calls == [n]

    def test_below_rho_refused(self):
        # the importance weights det(I - v*v)^(mu - rho) are unbounded there
        with pytest.raises(ValueError, match="kappa"):
            kappa_mu(BesselParam(1.2, 1, 1), 10, np.random.default_rng(0))

    def test_exponent_zero_exact(self):
        rng = np.random.default_rng(13)
        est = kappa_mu(BesselParam(1.5, 1, 1), 50000, rng)
        assert est.count == 50000
        assert est.mean == pytest.approx(2.0, abs=1e-12)
        # the length of (-1, 1)
        assert kappa_exact(BesselParam(1.5, 1, 1)) == pytest.approx(2.0, rel=1e-14)

    def test_closed_form_value(self):
        rng = np.random.default_rng(14)
        est = kappa_mu(BesselParam(2.5, 1, 1), 400000, rng)
        assert abs(est.mean - 4.0 / 3.0) <= 4 * est.se
        # integral of (1 - t^2) over (-1, 1); the unit disc's area at d = 2
        assert kappa_exact(BesselParam(2.5, 1, 1)) == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert kappa_exact(BesselParam(2.0, 1, 2)) == pytest.approx(math.pi, rel=1e-14)

    @pytest.mark.parametrize("mu", [1e8, 1e12])
    @pytest.mark.parametrize("q, d", [(1, 1), (1, 2), (2, 1), (3, 2)])
    def test_exact_at_large_index(self, mu, q, d):
        # each Gamma ratio is a Pochhammer symbol: two log-gammas near
        # mu log mu would cancel and lose about 1e-7 of it at mu = 1e8
        import mpmath as mp

        with mp.workdps(40):
            half = mp.mpf(d) / 2
            ref = mp.pi ** (half * q * q) * mp.fprod(
                mp.gamma(mu - half * (q + j)) / mp.gamma(mu - half * j) for j in range(q))
        assert abs(kappa_exact(BesselParam(mu, q, d)) / float(ref) - 1.0) <= 1e-12

    def test_against_exact(self):
        # Hua's closed form against the importance-sampling estimate, at
        # q = 1 and at matrix indices over R and C
        rng = np.random.default_rng(15)
        for mu, q, d in ((6.0, 1, 1), (3.5, 1, 2), (5.0, 2, 1), (8.0, 2, 2), (6.0, 3, 1)):
            param = BesselParam(mu, q, d)
            est = kappa_mu(param, 400000, rng)
            assert abs(est.mean - kappa_exact(param)) <= 4 * est.se, (mu, q, d)


class TestBesselWalk:
    # the index-mu walk is the walk engine at nu = BesselParam.nu
    def test_zero_law(self):
        rng = np.random.default_rng(16)
        traj = run_cone_walks(RadialLaw.point_mass(0.0), BesselParam(4.0, 1, 1).nu,
                              (3, 6), rng, 100)
        assert np.all(traj == 0)

    def test_two_step_second_moment(self):
        # m2 additivity at n = 2 for the unit point law: E[S_2^2] = 2
        rng = np.random.default_rng(17)
        n = 100000
        traj = run_cone_walks(RadialLaw.point_mass(1.0), BesselParam(3.0, 1, 1).nu,
                              (2,), rng, n)
        vals = traj[0]
        se = np.std(vals) / np.sqrt(n)
        assert abs(np.mean(vals) - 2.0) <= 4 * se

    @pytest.mark.parametrize("q,p", [(1, 3), (2, 6)])
    def test_matches_group_walk(self, q, p):
        rng = np.random.default_rng(18)
        law = RadialLaw.two_point(1.0, 2.0, 0.5) if q == 1 else MIX2
        n = 10000
        gcfg = GroupWalkConfig(p=p, q=q, field=cl.REAL, n_steps=5,
                               checkpoints=(5,), law=law, method="direct")
        bt = run_cone_walks(law, BesselParam(p / 2.0, q, 1).nu, (5,), rng, n)
        gt = run_group_walks(gcfg, rng, n)
        _, pvalue = ks_2samp(tr_squared(bt)[0], tr_squared(gt)[0])
        assert pvalue >= 1e-3

    def test_single_walk(self):
        rng = np.random.default_rng(19)
        traj = run_cone_walks(MIX2, BesselParam(5.0, 2, 1).nu, (3,), rng, 1)
        assert traj.shape == (1, 1, 2, 2)

    def test_checkpoint_validation(self):
        # the engine reads q and field from the law, so only the
        # checkpoints are left to refuse
        for checkpoints in ((), (0,), (3, 2), (2, 2)):
            with pytest.raises(ValueError):
                run_cone_walks(RadialLaw.point_mass(1.0), BesselParam(3.0, 1, 1).nu,
                               checkpoints, np.random.default_rng(20), 4)


class TestCharacter:
    def test_value_at_zero(self):
        for mu in (0.7, 1.5, 4.0):
            assert bessel_character_1d(mu, 0.0, 1.0) == pytest.approx(1.0)

    def test_spherical_closed_form(self):
        # mu = 3/2 gives sin(x)/x, which vanishes at pi
        assert abs(bessel_character_1d(1.5, math.pi, 1.0)) <= 1e-10
        x = 0.73
        assert bessel_character_1d(1.5, x, 1.0) == pytest.approx(
            math.sin(x) / x, rel=1e-12)

    def test_against_mpmath_reference(self):
        # 50-digit 0F1 as the oracle.  The error is measured against the
        # oscillation envelope min(1, Gamma(mu) (2/x)^(mu-1) |H_{mu-1}(x)|),
        # |H|^2 = J^2 + Y^2, since |j| <= 1 for mu >= 1/2 and the zeros of
        # j admit no relative accuracy
        import mpmath as mp

        rng = np.random.default_rng(20)
        xs = np.concatenate([rng.uniform(0.01, 200.0, 60), [1e-3, 12.0, 49.9, 200.0]])
        with mp.workdps(50):
            for mu in (0.52, 0.6, 1.5, 3.7, 9.3, 40.0):
                mine = bessel_character_1d(mu, xs, 1.0)
                nu = mp.mpf(mu) - 1
                for x, val in zip(xs, mine):
                    ref = mp.hyp0f1(mu, -mp.mpf(x) ** 2 / 4)
                    env = min(mp.mpf(1), mp.gamma(mu) * (2 / mp.mpf(x)) ** nu
                              * mp.sqrt(mp.besselj(nu, x) ** 2 + mp.bessely(nu, x) ** 2))
                    assert abs(val - ref) <= 1e-11 * env, (mu, x)

    def test_series_in_the_nan_band(self):
        # where scipy's hyp0f1 is NaN (small x from about mu = 88 on, most x
        # at mu = 300) the character is its power series; 40-digit oracle
        import mpmath as mp
        from scipy import special

        xs = np.linspace(1e-3, 60.0, 20001)
        with mp.workdps(40):
            for mu in (90.0, 100.0, 120.0, 300.0, 1000.0):
                band = xs[~np.isfinite(special.hyp0f1(mu, -0.25 * xs * xs))]
                assert band.size > 0, mu
                band = band[np.linspace(0, band.size - 1, 25).astype(int)]
                mine = bessel_character_1d(mu, band, 1.0)
                for x, val in zip(band, mine):
                    assert abs(val - mp.hyp0f1(mu, -mp.mpf(x) ** 2 / 4)) <= 1e-15, (mu, x)

    def test_eval_is_vectorized(self):
        out = bessel_character_1d(2.0, np.array([0.0, 1.0, 20.0]), 0.5)
        assert out.shape == (3,)

    def test_range_error(self):
        # finite at mu = 100, x = 2000; where float64 0F1 is not finite the
        # value is refused, never returned
        assert np.isfinite(bessel_character_1d(100.0, 2000.0, 1.0))
        with pytest.raises(ValueError, match="not finite"):
            bessel_character_1d(300.0, np.array([1.0, 200.0]), 1.0)
        with pytest.raises(ValueError):
            bessel_character_1d(-1.0, 1.0, 1.0)

    def test_multiplicativity(self):
        rng = np.random.default_rng(21)
        n = 30000
        mu, r1, r2, s = 4.0, 1.0, 2.0, 0.7
        t = cl.cone_step(r1, r2, cone_block(BesselParam(mu, 1, 1).nu, 1, cl.REAL, rng, n))
        phi = bessel_character_1d(mu, t, s)
        target = (bessel_character_1d(mu, r1, s)
                  * bessel_character_1d(mu, r2, s))
        se = np.std(phi) / np.sqrt(n)
        assert abs(np.mean(phi) - target) <= 4 * se


class TestRootLipschitz:
    def test_single_step_gap_is_zero(self):
        rng = np.random.default_rng(22)
        law = RadialLaw.two_point(1.0, 2.0, 0.5)
        diffs = paired_composition_diffs(law, BesselParam(10.0, 1, 1), 1, 10.0, 2000, rng)
        assert np.all(diffs == 0.0)

    def test_zero_law_gap_is_zero(self):
        rng = np.random.default_rng(23)
        diffs = paired_composition_diffs(RadialLaw.point_mass(0.0),
                                         BesselParam(10.0, 1, 1), 5, 10.0, 2000, rng)
        assert np.all(diffs == 0.0)

    def test_lemma_range_enforced(self):
        rng = np.random.default_rng(24)
        with pytest.raises(ValueError):
            paired_composition_diffs(RadialLaw.point_mass(1.0),
                                     BesselParam(2.0, 1, 1), 4, 10.0, 100, rng)

    def test_matrix_path_matches_scalar_path(self):
        rng = np.random.default_rng(25)
        law = MIX2
        diffs = paired_composition_diffs(law, BesselParam(40.0, 2, 1), 6, 6.0,
                                         4000, rng)
        assert diffs.shape == (4000,)
        assert np.all(np.isfinite(diffs))


class TestDegeneration:
    def test_weak_law_at_fast_growing_index(self):
        # for a point law and mu = n^3 the normalized square concentrates:
        # P(||(S_n^2 - n x^2) / n|| > 0.1) stays below 1%
        rng = np.random.default_rng(26)
        n = 64
        x = np.diag([1.0, 0.5])
        law = RadialLaw.point_mass(x)
        traj = run_cone_walks(law, BesselParam(float(n**3), 2, 1).nu, (n,), rng, 2000)
        dev = cl.frob_norm(traj[0] - n * (x @ x)) / n
        assert np.mean(dev > 0.1) <= 0.01

    def test_clt2_acceptance_holds_for_large_index_walks(self):
        # the scalar normal limit also holds for the index-mu engine
        from conewalk.limit_lab import normal_cdf, normalize_clt

        rng = np.random.default_rng(27)
        law = RadialLaw.two_point(1.0, 2.0, 0.5)
        md = moments(law)
        n, reps = 100, 20000
        traj = run_cone_walks(law, BesselParam(1e5, 1, 1).nu, (n,), rng, reps)
        z = normalize_clt("CLT2", traj[0], n, 1e5, md)
        sd = math.sqrt(md.m4 - md.sigma4)
        assert ks_distance(z, lambda t: normal_cdf(t, sd)) <= 0.02
