import json

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conewalk import cone_linalg as cl
from conewalk import experiments
from conewalk.errors import ConfigError
from conewalk.limit_lab import ks_2samp
from conewalk.radial_laws import (
    MomentData,
    RadialLaw,
    _law_spec,
    _std_entries,
    law_from_spec,
    moments,
)

RNG = lambda seed=0: np.random.default_rng(seed)  # noqa: E731

MIX6_SPEC = {
    "kind": "finite_mixture",
    "field": "real",
    "atoms_squared": [
        [[0.95, 0.0], [0.0, 0.5]], [[0.05, 0.0], [0.0, 0.5]],
        [[0.5, 0.0], [0.0, 0.95]], [[0.5, 0.0], [0.0, 0.05]],
        [[0.5, 0.35], [0.35, 0.5]], [[0.5, -0.35], [-0.35, 0.5]],
    ],
    "weights": [1 / 6] * 6,
}
# the q = 3 wishart_root scale of the benchmark's matrix walks
SCALE_Q3 = [[0.5, 0.1, 0.0], [0.1, 0.4, 0.0], [0.0, 0.0, 0.3]]


def gram_of(s):
    """L*L of each drawn factor L: the squared radial part s^2."""
    return np.einsum("nki,nkj->nij", np.conj(s), s)


class TestSampling:
    def test_point_mass_constant(self):
        law = RadialLaw.point_mass(np.diag([2.0]))
        out = law.sample(RNG(), 100)
        assert np.all(out == 2.0)

    def test_two_point_frequency(self):
        law = RadialLaw.two_point(1.0, 2.0, 0.5)
        n = 100000
        x = law.sample_scalar(RNG(1), n)
        freq = np.mean(x == 1.0)
        assert abs(freq - 0.5) <= 3 * np.sqrt(0.25 / n)

    @pytest.mark.parametrize("p_a", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("size", [None, 0, 1, 8192, (3, 4)], ids=str)
    def test_two_point_draw_matches_where(self, size, p_a):
        # the table lookup gives the bits, dtype and shape of np.where on
        # the same uniforms, and leaves the generator in the same state
        law = RadialLaw.two_point(0.7, 1.9, p_a)
        rng, ref_rng = (np.random.Generator(np.random.Philox(7)) for _ in range(2))
        out = law.sample_scalar(rng, size)
        ref = np.where(ref_rng.random(size) < p_a, 0.7, 1.9)
        assert (out.dtype, out.shape, out.tobytes()) == (ref.dtype, ref.shape, ref.tobytes())
        np.testing.assert_equal(rng.bit_generator.state, ref_rng.bit_generator.state)

    def test_wishart_root_mean_identity(self):
        # brute-force check: the mean of the drawn Gram matrix L*L = s^2 is
        # dof * scale
        law = RadialLaw.wishart_root(np.eye(2), dof=5)
        s = law.sample(RNG(2), 20000)
        gram = gram_of(s)
        mean_sq = np.mean(gram, axis=0)
        se = 3 * np.std(gram[:, 0, 0]) / np.sqrt(20000)
        assert np.allclose(mean_sq, 5 * np.eye(2), atol=4 * se)

    def test_all_samples_psd(self):
        rng = RNG(3)
        laws = [
            RadialLaw.two_point(1, 2, 0.25),
            RadialLaw.log_normal(0.0, 0.5),
            RadialLaw.uniform(0.0, 2.0),
            RadialLaw.wishart_root(np.array([[1.0, 0.3], [0.3, 0.8]]), 4),
            law_from_spec(MIX6_SPEC),
        ]
        for law in laws:
            s = law.sample(rng, 500)
            # a wishart_root draw is a factor L of s^2; the others are s
            for mat in (gram_of(s),) if law.kind == "wishart_root" else (s, gram_of(s)):
                wmin = np.min(np.linalg.eigvalsh(mat))
                assert wmin >= -1e-10 * (1 + float(np.max(np.abs(mat))))

    def test_scalar_requires_q1(self):
        law = law_from_spec(MIX6_SPEC)
        with pytest.raises(ValueError):
            law.sample_scalar(RNG(), 3)


class TestWishartFactor:
    @pytest.mark.parametrize("field", cl.FIELDS)
    @pytest.mark.parametrize("q", [2, 3])
    def test_gram_has_the_wishart_law(self, q, field):
        # the Gram matrix L*L of the Bartlett factor times the scale's
        # factor against G*G for an independent dof x q Gaussian block G
        # whose rows have covariance scale
        scale = np.array(SCALE_Q3)[:q, :q] + (0.1j * np.triu(np.ones((q, q)), 1)
                                             if field == cl.COMPLEX else 0.0)
        scale = cl.herm_part(scale)
        law = RadialLaw.wishart_root(scale, q + 1, field=field)
        n = 6000
        w = gram_of(law.sample(RNG(61), n))
        g = _std_entries(RNG(62), (n, q + 1, q), field) @ cl.psd_sqrt(scale)
        ref = gram_of(g)
        for stat in (cl.trace_herm, lambda x: cl.trace_herm(x @ x),
                     lambda x: np.linalg.det(x).real):
            _, pvalue = ks_2samp(stat(w), stat(ref))
            assert pvalue >= 1e-3


class TestMoments:
    def test_two_point_hand_values(self):
        md = moments(RadialLaw.two_point(1.0, 2.0, 0.5))
        assert md.m2 == pytest.approx(2.5)   # (1 + 4) / 2
        assert md.m4 == pytest.approx(8.5)   # (1 + 16) / 2
        assert md.sigma2[0, 0] == pytest.approx(2.5)
        assert md.sigma2_image_cov[0, 0] == pytest.approx(8.5 - 2.5**2)

    def test_point_mass_norm_powers(self):
        atom = np.array([[1.0, 0.5], [0.5, 2.0]])
        law = RadialLaw.point_mass(atom)
        md = moments(law)
        h = cl.frob_norm(atom)
        for k, val in ((1, md.m1), (2, md.m2), (3, md.m3), (4, md.m4)):
            assert val == pytest.approx(h**k)
        assert np.allclose(md.sigma2, atom @ atom, atol=1e-12)
        assert np.allclose(md.sigma2_image_cov, 0.0, atol=1e-12)

    def test_mixture_average_of_squares(self):
        law = RadialLaw.finite_mixture(
            [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], [0.5, 0.5])
        md = moments(law)
        assert np.allclose(md.sigma2, 0.5 * np.eye(2), atol=1e-12)

    def test_mix6_metadata(self):
        md = moments(law_from_spec(MIX6_SPEC))
        assert np.allclose(md.sigma2, 0.5 * np.eye(2), atol=1e-12)
        expect = np.diag([0.45**2 / 3, 0.45**2 / 3, 2 * 0.35**2 / 3])
        assert np.allclose(md.sigma2_image_cov, expect, atol=1e-12)

    @pytest.mark.parametrize("law", [
        RadialLaw.two_point(1.0, 2.0, 0.3),
        RadialLaw.uniform(0.5, 2.0),
        RadialLaw.log_normal(0.1, 0.4),
        law_from_spec(MIX6_SPEC),
        RadialLaw.wishart_root(np.array([[1.0, 0.3], [0.3, 0.6]]), 3),
        RadialLaw.wishart_root(np.array([[1.0, 0.3 + 0.2j], [0.3 - 0.2j, 0.6]]), 3,
                               field=cl.COMPLEX),
        RadialLaw.wishart_root(np.array(SCALE_Q3), 4),
    ], ids=["two_point", "uniform", "log_normal", "mixture", "wishart_q2_real",
            "wishart_q2_complex", "wishart_q3_real"])
    def test_monte_carlo_agrees_with_analytic(self, law):
        md = moments(law)
        rng = RNG(44)
        n = 100000
        s = law.sample(rng, n)
        h = cl.frob_norm(s)
        for k, val in ((1, md.m1), (2, md.m2), (3, md.m3), (4, md.m4)):
            est = np.mean(h**k)
            se = np.std(h**k) / np.sqrt(n)
            assert abs(est - val) <= 4 * se + 1e-12
        vec = cl.vectorize_herm(gram_of(s), law.field)
        cov = np.cov(vec.T).reshape(vec.shape[1], vec.shape[1])
        se_cov = 4 * np.max(np.std(vec, axis=0))**2 / np.sqrt(n) + 1e-4
        assert np.max(np.abs(cov - md.sigma2_image_cov)) <= 4 * se_cov

    def test_wishart_root_monte_carlo_metadata(self):
        # tr(G* G) is chi-square with dof*q = 8 degrees of freedom, whose
        # mean is 8 and second moment 8 * 10, exactly
        law = RadialLaw.wishart_root(np.eye(2), 4)
        md = moments(law)
        assert md.m2 == 8
        assert md.m4 == 80
        assert cl.trace_herm(md.sigma2) == md.m2

    def test_invariants_rejected(self):
        with pytest.raises(ValueError):
            MomentData(q=1, field=cl.REAL, m1=2.0, m2=1.0, m3=1.0, m4=1.0,
                       sigma2=np.array([[1.0]]),
                       sigma2_image_cov=np.array([[0.0]]))
        with pytest.raises(ValueError):
            MomentData(q=1, field=cl.REAL, m1=1.0, m2=2.0, m3=1.0, m4=1.0,
                       sigma2=np.array([[2.0]]),
                       sigma2_image_cov=np.array([[0.0]]))


def _psd_with_spectrum(seed, w, field):
    """A PSD matrix of eigenvalues w in a random orthonormal basis of the field."""
    q = len(w)
    g = RNG(seed).standard_normal((2, q, q))
    u, _ = np.linalg.qr(g[0] if field == cl.REAL else g[0] + 1j * g[1])
    return cl.herm_part((u * np.asarray(w)) @ np.conj(u.T))


def _mp_half_moments(law):
    """m1 and m3 of a wishart_root law by 30-digit quadrature of
    (2/sqrt(pi)) int_0^inf L(u^2) S(u^2) du, S = S1 and S1^2 + S2."""
    d = cl.field_dim(law.field)
    with mpmath.workdps(30):
        k = mpmath.mpf(d * law.dof) / 2
        theta = [2 * mpmath.mpf(float(x)) / d for x in np.linalg.eigvalsh(law.scale) if x > 0]

        def integrand(u, power):
            t = u * u
            s1 = mpmath.fsum(k * x / (1 + x * t) for x in theta)
            s2 = mpmath.fsum(k * x**2 / (1 + x * t) ** 2 for x in theta)
            lap = mpmath.fprod((1 + x * t) ** -k for x in theta)
            return lap * (s1 if power == 1 else s1 * s1 + s2)

        u0 = 1 / mpmath.sqrt(k * mpmath.fsum(theta))
        nodes = [0, u0 / 8, u0 / 2, u0, 2 * u0, 8 * u0, mpmath.inf]
        c = 2 / mpmath.sqrt(mpmath.pi)
        return tuple(float(c * mpmath.quad(lambda u: integrand(u, pw), nodes))
                     for pw in (1, 3))


SEEDS = st.integers(0, 2**32 - 1)
DIMS = st.sampled_from([1, 2, 3])
FIELD = st.sampled_from(cl.FIELDS)
DOFS = st.integers(1, 10**4)
# eigenvalues from 1e-8 to 1e4, with zeros for singular scales
SPECTRA = st.lists(st.one_of(st.just(0.0), st.floats(1e-8, 1e4)), min_size=3, max_size=3)
# derandomized: every run draws the same examples, like the kernel tests
PROPS = settings(max_examples=100, deadline=None, derandomize=True)


class TestWishartClosedForms:
    @PROPS
    @given(DIMS, FIELD, DOFS, st.floats(1e-6, 1e6))
    def test_isotropic_gamma_ratios(self, q, field, dof, c):
        # at Sigma = c I, ||s||^2 = (2c/d) Gamma(d dof q / 2)
        dof, d = max(dof, q), cl.field_dim(field)
        md = moments(RadialLaw.wishart_root(c * np.eye(q), dof, field=field))
        with mpmath.workdps(30):
            k, theta = mpmath.mpf(d * dof * q) / 2, 2 * mpmath.mpf(c) / d
            ratio = [float(theta ** (j / 2) * mpmath.gamma(k + j / 2) / mpmath.gamma(k))
                     for j in (1, 3)]
        assert md.m1 == pytest.approx(ratio[0], rel=1e-13)
        assert md.m3 == pytest.approx(ratio[1], rel=1e-13)

    @PROPS
    @given(SEEDS, DIMS, FIELD, DOFS, SPECTRA, st.floats(1e-6, 1e6))
    def test_scaling(self, seed, q, field, dof, w, c):
        assume(sum(w[:q]) > 0)
        dof, sigma = max(dof, q), _psd_with_spectrum(seed, w[:q], field)
        md = moments(RadialLaw.wishart_root(sigma, dof, field=field))
        scaled = moments(RadialLaw.wishart_root(c * sigma, dof, field=field))
        for j, a, b in ((1, md.m1, scaled.m1), (2, md.m2, scaled.m2),
                        (3, md.m3, scaled.m3), (4, md.m4, scaled.m4)):
            assert b == pytest.approx(c ** (j / 2) * a, rel=1e-13)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(SEEDS, DIMS, FIELD, DOFS, SPECTRA)
    def test_half_moments_match_mpmath(self, seed, q, field, dof, w):
        assume(sum(w[:q]) > 0)
        dof, sigma = max(dof, q), _psd_with_spectrum(seed, w[:q], field)
        law = RadialLaw.wishart_root(sigma, dof, field=field)
        md = moments(law)
        m1, m3 = _mp_half_moments(law)
        assert md.m1 == pytest.approx(m1, rel=1e-12)
        assert md.m3 == pytest.approx(m3, rel=1e-12)

    def test_zero_scale(self):
        md = moments(RadialLaw.wishart_root(np.zeros((2, 2)), 3))
        assert (md.m1, md.m2, md.m3, md.m4) == (0, 0, 0, 0)


class TestSpecs:
    def test_round_trip(self):
        # the canonical spec is read back unchanged
        spec = _law_spec("law", MIX6_SPEC)[0]
        assert _law_spec("law", spec)[0] == spec
        law = law_from_spec(spec)
        assert law.q == 2

    def test_scalar_shorthand(self):
        law = law_from_spec({"kind": "point_mass", "atom": 2.0})
        assert law.q == 1
        assert law.sample_scalar(RNG(), 3).tolist() == [2.0, 2.0, 2.0]

    def test_bad_specs(self):
        with pytest.raises(ConfigError):
            law_from_spec({"kind": "nope"})
        with pytest.raises(ConfigError):
            law_from_spec({"kind": "two_point", "a": 1.0, "b": 2.0})
        with pytest.raises(ConfigError):
            law_from_spec({"kind": "two_point", "a": -1.0, "b": 2.0, "p_a": 0.5})
        with pytest.raises(ConfigError):
            law_from_spec({"kind": "finite_mixture",
                           "atoms": [[[1.0]]], "weights": [0.5]})

    def test_laws_are_built_once_and_read_only(self):
        # every block of a config shares one law per process and spec
        spec = _law_spec("law", MIX6_SPEC)[0]
        law = experiments._law_of(spec)
        assert experiments._law_of(json.loads(json.dumps(spec))) is law
        for arr in (law.atoms, law.weights, law.cdf):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        weights = np.array([0.25, 0.75])
        RadialLaw.finite_mixture([np.eye(1), 2 * np.eye(1)], weights)
        weights[0] = 0.5  # the caller's array is copied, not frozen
        for drawn in (law.sample(RNG(), 4),
                      experiments._law_of({"kind": "point_mass", "field": "real",
                                           "atom": [[1.0]], "q": 1}).sample(RNG(), 4)):
            drawn[0] = 0.0

    def test_moments_are_computed_once_per_spec(self, monkeypatch):
        # validate, every block and reduce read one MomentData per spec
        from conewalk.harness import run_experiment, validate_config

        calls = []
        monkeypatch.setattr(experiments, "_BUILT_LAWS", {})
        monkeypatch.setattr(experiments, "moments", lambda law: calls.append(law) or moments(law))
        raw = {"experiment": "clt-check", "name": "once", "seed": 5, "kind": "CLT4",
               "engine": "bessel", "mu": 50.0, "n_steps": 2, "law": MIX6_SPEC,
               "replicates": 400, "block_size": 100}
        cfg, warnings = validate_config(raw)
        run_experiment(cfg, workers=1, warnings=warnings)
        assert len(calls) == 1
        assert experiments._moments_of(cfg["law"]) is experiments._moments_of(
            json.loads(json.dumps(cfg["law"])))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            RadialLaw.finite_mixture([np.eye(1), 2 * np.eye(1)], [0.6, 0.5])

    def test_wishart_dof_bound(self):
        with pytest.raises(ValueError):
            RadialLaw.wishart_root(np.eye(3), 2)
