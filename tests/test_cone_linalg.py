import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conewalk import cone_linalg as cl
from conewalk.errors import ConeViolationError, NumericalFailureError, UnsupportedFieldError
from conewalk.orbit_sampler import cone_block


def rand_herm(rng, q, field):
    g = rng.standard_normal((q, q))
    if field == cl.COMPLEX:
        g = g + 1j * rng.standard_normal((q, q))
    return cl.herm_part(g)


def rand_psd(rng, q, field):
    g = rng.standard_normal((q + 2, q))
    if field == cl.COMPLEX:
        g = (g + 1j * rng.standard_normal((q + 2, q))) / np.sqrt(2)
    return cl.herm_part(np.conj(g.T) @ g)


def gram(r):
    """R*R of a (stacked) factor R."""
    return np.conj(np.swapaxes(r, -1, -2)) @ r


def pivoted_triangular(r):
    """Whether every matrix of the stack is U P* for a permutation P and an
    upper triangular U with a real diagonal of at least 0."""
    q = r.shape[-1]
    for mat in r.reshape(-1, q, q):
        if not any(np.all(np.tril(mat[:, perm], -1) == 0)
                   and np.all(np.diagonal(mat[:, perm]).imag == 0)
                   and np.all(np.diagonal(mat[:, perm]).real >= 0)
                   for perm in map(list, itertools.permutations(range(q)))):
            return False
    return True


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(cl.psd_sqrt(np.eye(3)), np.eye(3), atol=1e-12)

    def test_diagonal(self):
        assert np.allclose(cl.psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]),
                           atol=1e-12)

    def test_eigenbasis_hand_value(self):
        # eigenvalues 1, 3 with the (1, -1), (1, 1) basis give entries
        # (sqrt(3) +/- 1) / 2
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        s3 = np.sqrt(3.0)
        expect = np.array([[(s3 + 1) / 2, (s3 - 1) / 2],
                           [(s3 - 1) / 2, (s3 + 1) / 2]])
        assert np.allclose(cl.psd_sqrt(a), expect, atol=1e-12)

    @pytest.mark.parametrize("field", cl.FIELDS)
    def test_square_recovers_input(self, field):
        rng = np.random.default_rng(202)
        for q in (1, 2, 3, 4):
            for _ in range(125):
                a = rand_psd(rng, q, field)
                root = cl.psd_sqrt(a)
                err = cl.frob_norm(root @ root - a)
                assert err <= 1e-8 * (1 + cl.frob_norm(a))
                assert np.min(np.linalg.eigvalsh(root)) >= -1e-10


class TestClamp:
    def test_clamps_tiny_negative(self):
        out = cl.clamp_psd(np.diag([1.0, -1e-14]))
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-13)

    def test_rejects_violation(self):
        with pytest.raises(ConeViolationError):
            cl.clamp_psd(np.diag([1.0, -0.5]))

    def test_idempotent_on_psd(self):
        rng = np.random.default_rng(303)
        for _ in range(50):
            a = rand_psd(rng, 3, cl.REAL)
            assert np.allclose(cl.clamp_psd(a), a, atol=1e-12)


class TestVectorize:
    def test_basis_values(self):
        assert np.allclose(cl.vectorize_herm(np.eye(2), cl.REAL), [1, 1, 0])
        offdiag = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(cl.vectorize_herm(offdiag, cl.REAL),
                           [0, 0, np.sqrt(2)])

    @pytest.mark.parametrize("field", cl.FIELDS)
    def test_isometry_and_roundtrip(self, field):
        rng = np.random.default_rng(404)
        for q in (1, 2, 3, 4):
            for _ in range(125):
                a = rand_herm(rng, q, field)
                b = rand_herm(rng, q, field)
                va = cl.vectorize_herm(a, field)
                vb = cl.vectorize_herm(b, field)
                assert va.shape == (cl.herm_vec_dim(q, field),)
                inner = np.trace(np.conj(a.T) @ b).real
                assert abs(va @ vb - inner) <= 1e-10 * (1 + abs(inner))
                assert abs(np.linalg.norm(va) - cl.frob_norm(a)) <= 1e-10
                back = cl.devectorize_herm(va, q, field)
                assert cl.frob_norm(back - a) <= 1e-12 * (1 + cl.frob_norm(a))

    def test_unsupported_field(self):
        with pytest.raises(UnsupportedFieldError):
            cl.vectorize_herm(np.eye(2), "quaternion")


class TestScalars:
    def test_frob_norm(self):
        assert cl.frob_norm(np.diag([3.0, 4.0])) == pytest.approx(5.0)

    def test_trace_real(self):
        a = np.array([[2.0, 1j], [-1j, 3.0]])
        assert cl.trace_herm(a) == pytest.approx(5.0)


class TestConeStep:
    def test_scalar_form(self):
        a = np.array([0.0, 1.0, 2.0, 1.0])
        s = np.array([1.5, 1.0, 0.5, 1.0])
        v = np.array([0.3, -1.0, 0.2 + 0.9j, 0.5])
        t = cl.cone_step(a, s, v)
        assert np.array_equal(t, np.sqrt(np.maximum(a * a + s * s + 2 * a * s * v.real, 0)))
        assert t[1] == 0.0  # a = s and v = -1 cancel exactly

    @pytest.mark.parametrize("q, field", [
        pytest.param(q, field, id=field if q == 3 else f"q2-{field}")
        for q in (3, 2) for field in cl.FIELDS])
    def test_matrix_form_squares_to_the_update(self, q, field):
        rng = np.random.default_rng(606)
        for _ in range(20):
            a = cl.psd_sqrt(rand_psd(rng, q, field))
            s = cl.psd_sqrt(rand_psd(rng, q, field))
            g = rand_herm(rng, q, field) + 0.3 * rand_herm(rng, q, field) @ rand_herm(
                rng, q, field)
            v = g / (1.0 + np.linalg.norm(g, 2))  # a strict contraction
            t = cl.cone_step(a, s, v)
            svr = s @ v @ a
            expect = a @ a + s @ s + svr + np.conj(svr.T)
            assert cl.frob_norm(gram(t) - expect) <= 1e-10 * (1 + cl.frob_norm(expect))
            assert pivoted_triangular(t)

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("field", cl.FIELDS)
    def test_unbatched_points_with_batched_v(self, q, field):
        # convolve_points and the axioms checks step one pair of points a, s
        # with a batch of v
        rng = np.random.default_rng(608)
        a = cl.psd_sqrt(rand_psd(rng, q, field))
        s = cl.psd_sqrt(rand_psd(rng, q, field))
        g = np.stack([rand_herm(rng, q, field) @ rand_herm(rng, q, field)
                      for _ in range(200)])
        v = g / (1.0 + np.linalg.norm(g, 2, axis=(1, 2)))[:, None, None]
        t = cl.cone_step(a, s, v)
        sva = np.matmul(np.matmul(s, v), a)
        expect = np.matmul(a, a) + np.matmul(s, s) + sva + np.conj(np.swapaxes(sva, -1, -2))
        assert t.shape == (200, q, q)
        assert np.max(cl.frob_norm(gram(t) - expect) / cl.frob_norm(expect)) <= 1e-13

    def test_unitary_v_takes_nearly_singular_steps(self):
        # at p = q the block v is a Haar unitary and T = (v a + s)*(v a + s)
        # is often close to singular; the pivoted factor keeps R*R = T
        rng = np.random.default_rng(609)
        for field in cl.FIELDS:
            a = cl.psd_sqrt(rand_psd(rng, 2, field))
            s = a @ np.diag([1.0, -1.0 + 1e-9]) if field == cl.REAL else a
            v = cone_block(0, 2, field, rng, 4000)
            v[0] = -np.eye(2)
            t = cl.cone_step(a, s, v)
            sva = np.conj(np.swapaxes(s, -1, -2)) @ v @ a
            expect = gram(a) + gram(s) + sva + np.conj(np.swapaxes(sva, -1, -2))
            err = cl.frob_norm(gram(t) - expect) / (1 + cl.frob_norm(expect))
            assert np.max(err) <= 1e-14

    def test_one_by_one_matrices_match_the_scalar_form(self):
        rng = np.random.default_rng(607)
        a, s = rng.uniform(0, 2, 50), rng.uniform(0, 2, 50)
        v = rng.uniform(-1, 1, 50)
        t = cl.cone_step(a[:, None, None], s[:, None, None], v[:, None, None])
        assert np.allclose(t[:, 0, 0], cl.cone_step(a, s, v), rtol=1e-12, atol=1e-12)


# -- property tests of the spectral kernels -----------------------------------
# psd_sqrt and clamp_psd take one LAPACK eigendecomposition per matrix;
# psd_factor, the cone step's factor, takes none


def with_spectrum(seed, w, field):
    """U diag(w) U* with U a Haar unitary drawn from the seed."""
    rng = np.random.default_rng(seed)
    q = len(w)
    g = rng.standard_normal((q, q))
    if field == cl.COMPLEX:
        g = g + 1j * rng.standard_normal((q, q))
    u, r = np.linalg.qr(g)
    u = u * (np.diag(r) / np.abs(np.diag(r)))
    return cl.herm_part((u * np.asarray(w, dtype=np.float64)) @ np.conj(u.T))


def eigh_root(a):
    w, u = np.linalg.eigh(cl.herm_part(a))
    return (u * np.sqrt(np.maximum(w, 0.0))) @ np.conj(u.T)


SEEDS = st.integers(0, 2**32 - 1)
DIMS = st.sampled_from([1, 2, 3, 4])
FIELD = st.sampled_from(cl.FIELDS)
# eigenvalues of well-conditioned input: within a factor 1e3 of each other
WELL = st.floats(1e-3, 1.0)
SCALES = st.floats(1e-6, 1e6)
# derandomized: every run draws the same examples, like the seeded rest of
# the suite
PROPS = settings(max_examples=150, deadline=None, derandomize=True)


class TestSpectralProperties:
    @PROPS
    @given(SEEDS, DIMS, FIELD, st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
           SCALES)
    def test_sqrt_squares_back(self, seed, q, field, w, scale):
        # near-singular input included: squaring back is the check there,
        # as the root itself is not Lipschitz at 0
        a = with_spectrum(seed, scale * np.array(w[:q]), field)
        root = cl.psd_sqrt(a)
        assert cl.frob_norm(root @ root - a) <= 1e-13 * cl.frob_norm(a) + 1e-300
        assert np.min(np.linalg.eigvalsh(root)) >= -1e-14 * np.sqrt(scale)

    @PROPS
    @given(SEEDS, DIMS, FIELD, st.lists(WELL, min_size=4, max_size=4), SCALES)
    def test_matches_eigh_on_well_conditioned_input(self, seed, q, field, w, scale):
        a = with_spectrum(seed, scale * np.array(w[:q]), field)
        ref = eigh_root(a)
        assert cl.frob_norm(cl.psd_sqrt(a) - ref) <= 1e-12 * cl.frob_norm(ref)

    @PROPS
    @given(SEEDS, DIMS, FIELD, st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
           st.floats(0.05, 0.95), SCALES)
    @example(seed=193, q=2, field=cl.REAL, w=[0.0, 0.0], frac=0.5, scale=1.0)
    def test_clamps_inside_tolerance(self, seed, q, field, w, frac, scale):
        tol = cl.EPS_PSD
        pos = scale * np.array(w[:q - 1])
        neg = -frac * tol * (1.0 + np.linalg.norm(pos))
        a = with_spectrum(seed, np.append(pos, neg), field)
        clamped = with_spectrum(seed, np.append(pos, 0.0), field)
        root = cl.psd_sqrt(a)
        assert np.min(np.linalg.eigvalsh(root)) >= -1e-14 * (1.0 + np.sqrt(scale))
        err = cl.frob_norm(root @ root - clamped)
        assert err <= 1e-13 * cl.frob_norm(clamped) + 2.0 * abs(neg)
        assert cl.frob_norm(cl.clamp_psd(a) - clamped) <= (
            1e-13 * cl.frob_norm(clamped) + 2.0 * abs(neg))

    @PROPS
    @given(SEEDS, DIMS, FIELD, st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
           st.floats(1.05, 100.0), SCALES)
    @example(seed=824, q=2, field=cl.COMPLEX, w=[0.0, 0.0], factor=1.06, scale=1.0)
    def test_rejects_outside_tolerance(self, seed, q, field, w, factor, scale):
        # ||a||_F <= ||pos|| + |neg|, so |neg| is past the threshold
        tol = cl.EPS_PSD
        pos = scale * np.array(w[:q - 1])
        neg = -factor * tol * (1.0 + np.linalg.norm(pos)) / (1.0 - factor * tol)
        a = with_spectrum(seed, np.append(pos, neg), field)
        for kernel in (cl.psd_sqrt, cl.clamp_psd):
            with pytest.raises(ConeViolationError):
                kernel(a)

    @pytest.mark.parametrize("field", cl.FIELDS)
    def test_degenerate_two_by_two(self, field):
        dtype = cl.field_dtype(field)
        rank1 = np.outer([1.0, 2.0j if field == cl.COMPLEX else 2.0],
                         np.conj([1.0, 2.0j if field == cl.COMPLEX else 2.0]))
        for a in (np.zeros((2, 2)), 3.0 * np.eye(2), rank1):
            a = a.astype(dtype)
            assert cl.frob_norm(cl.psd_sqrt(a) - eigh_root(a)) <= 1e-15 * (1 + cl.frob_norm(a))
        assert np.array_equal(cl.psd_sqrt(np.zeros((2, 2), dtype)), np.zeros((2, 2)))

    @PROPS
    @given(SEEDS, DIMS, FIELD, st.integers(0, 4))
    def test_vectorize_round_trip(self, seed, q, field, batch):
        rng = np.random.default_rng(seed)
        shape = (batch, q, q) if batch else (q, q)
        a = rng.standard_normal(shape)
        if field == cl.COMPLEX:
            a = a + 1j * rng.standard_normal(shape)
        a = cl.herm_part(a)
        vec = cl.vectorize_herm(a, field)
        assert vec.shape == shape[:-2] + (cl.herm_vec_dim(q, field),)
        back = cl.devectorize_herm(vec, q, field)
        assert np.all(cl.frob_norm(back - a) <= 1e-15 * (1 + cl.frob_norm(a)))
        assert np.allclose(np.linalg.norm(vec, axis=-1), cl.frob_norm(a), rtol=1e-14)


def composition_stack(q, field):
    """150 nearly diagonal PD matrices, then 150 Gram matrices."""
    rng = np.random.default_rng(902)
    near = [np.diag(np.arange(1.0, q + 1)) + 1e-6 * rand_herm(rng, q, field)
            for _ in range(150)]
    return np.stack(near + [rand_psd(rng, q, field) for _ in range(150)])


class TestEigensolver:
    # psd_sqrt and clamp_psd take LAPACK's eigh, psd_factor no eigensolver

    @pytest.mark.parametrize("q", [3, 4])
    @pytest.mark.parametrize("field", cl.FIELDS)
    def test_result_does_not_depend_on_the_stack(self, q, field):
        # each matrix's root and factor are its own bits, whatever else
        # its stack holds and in whatever order
        a = composition_stack(q, field)
        odd = np.stack([np.diag(np.arange(q, dtype=np.float64)).astype(a.dtype), 1e6 * a[0]])

        def results(stack):
            return cl.psd_sqrt(stack), cl.clamp_psd(stack), cl.psd_factor(stack)

        def bits(arrays):
            return [np.ascontiguousarray(x).tobytes() for x in arrays]

        whole = bits(results(a))
        assert bits(x[::-1] for x in results(a[::-1])) == whole
        assert bits(np.concatenate(x) for x in zip(results(a[:150]), results(a[150:]))) == whole
        assert bits(x[:300] for x in results(np.concatenate([a, odd]))) == whole
        # a lone matrix: unbatched for the eigh kernels; a stack of one for
        # psd_factor, as an unbatched complex matrix takes numpy's scalar
        # arithmetic, whose last bits differ
        alone = [(cl.psd_sqrt(a[i]), cl.clamp_psd(a[i]), cl.psd_factor(a[i:i + 1])[0])
                 for i in range(0, 300, 10)]
        assert bits(np.stack(x) for x in zip(*alone)) == bits(x[::10] for x in results(a))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", cl.FIELDS)
    def test_non_finite_input_raises(self, bad, field):
        for q in (3, 2):
            a = composition_stack(q, field)[:4].copy()
            for i, j in ((0, 0), (0, q - 1), (1, q - 1)):
                b = a.copy()
                b[2, i, j] = b[2, j, i] = bad
                for kernel in (cl.psd_sqrt, cl.clamp_psd, cl.psd_factor):
                    with np.errstate(invalid="ignore"), pytest.raises(NumericalFailureError):
                        kernel(b)
                with np.errstate(invalid="ignore"), pytest.raises(NumericalFailureError):
                    cl.cone_step(b, a, np.zeros_like(a))


# -- property tests of the factor step ----------------------------------------


def rand_factor(rng, q, field, rank, scale):
    """A q x q factor of rank ``rank``: a Gaussian q x rank block times a
    Gaussian rank x q block."""
    def gauss(shape):
        g = rng.standard_normal(shape)
        return g + 1j * rng.standard_normal(shape) if field == cl.COMPLEX else g
    return scale * (gauss((q, rank)) @ gauss((rank, q)))


SINGULAR = st.sampled_from(["drawn", "diag10", "zero"])


def factor_of(kind, rng, q, field, rank, scale):
    """A drawn factor of the given rank, the singular atom diag(1, 0, ...),
    or zero."""
    if kind == "diag10":
        return np.diag(np.eye(q)[0]).astype(cl.field_dtype(field))
    if kind == "zero":
        return np.zeros((q, q), dtype=cl.field_dtype(field))
    return rand_factor(rng, q, field, rank, scale)


def step_gram(a, s, v):
    """T = a*a + s*s + s* v a + (s* v a)* by matmul."""
    sva = np.conj(np.swapaxes(s, -1, -2)) @ v @ a
    return gram(a) + gram(s) + sva + np.conj(np.swapaxes(sva, -1, -2))


class TestFactorStep:
    @PROPS
    @given(SEEDS, st.sampled_from([2, 3]), FIELD, SINGULAR, SINGULAR,
           st.integers(0, 3), st.integers(0, 3), st.sampled_from([0, 0.5, 1.0, 2.5, 6.0]),
           SCALES)
    @example(seed=0, q=2, field=cl.REAL, kind_a="diag10", kind_s="diag10", rank_a=2,
             rank_s=2, excess=0, scale=1.0)
    @example(seed=0, q=3, field=cl.COMPLEX, kind_a="zero", kind_s="diag10", rank_a=3,
             rank_s=3, excess=1.0, scale=1.0)
    def test_factor_squares_to_the_update(self, seed, q, field, kind_a, kind_s, rank_a,
                                          rank_s, excess, scale):
        # factors of any rank, the singular atom and zero among them, with
        # v from the walks' sampler: a Haar unitary at nu = 0 (p = q), else
        # a contraction at nu = q - 1 + excess
        rng = np.random.default_rng(seed)
        a = factor_of(kind_a, rng, q, field, min(rank_a, q), scale)
        s = factor_of(kind_s, rng, q, field, min(rank_s, q), scale)
        v = cone_block(q - 1 + excess if excess else 0, q, field, rng, 64)
        t = cl.cone_step(a, s, v)
        expect = step_gram(a, s, v)
        assert t.shape == (64, q, q) and t.dtype == cl.field_dtype(field)
        assert pivoted_triangular(t)
        tol = q * cl.EPS_PSD * (1.0 + cl.frob_norm(expect))
        assert np.all(cl.frob_norm(gram(t) - expect) <= tol)

    @PROPS
    @given(SEEDS, st.sampled_from([2, 3]), FIELD, SINGULAR, SINGULAR, st.integers(0, 3),
           SCALES)
    def test_zero_v_adds_the_grams(self, seed, q, field, kind_a, kind_s, rank, scale):
        rng = np.random.default_rng(seed)
        a = factor_of(kind_a, rng, q, field, min(rank, q), scale)
        s = factor_of(kind_s, rng, q, field, q, scale)
        t = cl.cone_step(a, s, np.zeros((5, q, q), dtype=cl.field_dtype(field)))
        expect = gram(a) + gram(s)
        tol = q * cl.EPS_PSD * (1.0 + cl.frob_norm(expect))
        assert np.all(cl.frob_norm(gram(t) - expect) <= tol)
        assert pivoted_triangular(t)

    @PROPS
    @given(SEEDS, st.sampled_from([2, 3]), FIELD,
           st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2), st.floats(10.0, 100.0),
           SCALES)
    @example(seed=0, q=2, field=cl.REAL, w=[0.0, 0.0], factor=10.0, scale=1.0)
    def test_rejects_well_outside_tolerance(self, seed, q, field, w, factor, scale):
        # an eigenvalue of T well below -EPS_PSD (1 + ||T||_F) raises, in
        # psd_factor and in a step whose v is no contraction
        pos = scale * np.array(w[:q - 1])
        neg = -factor * cl.EPS_PSD * (1.0 + np.linalg.norm(pos)) / (1.0 - factor * cl.EPS_PSD)
        with pytest.raises(ConeViolationError):
            cl.psd_factor(with_spectrum(seed, np.append(pos, neg), field))
        # T = -a*a, far below the tolerance at a scale of at least 1e-2
        a = rand_factor(np.random.default_rng(seed), q, field, 1, max(scale, 1e-2))
        with pytest.raises(ConeViolationError):
            cl.cone_step(a, a, -1.5 * np.eye(q)[None])

    @PROPS
    @given(SEEDS, st.sampled_from([2, 3]), FIELD, st.integers(1, 3), st.integers(1, 3),
           st.sampled_from([0, 0.5, 1.0, 2.5, 6.0]), st.floats(1e-8, 1e-6))
    def test_small_scales_keep_relative_accuracy(self, seed, q, field, rank_a, rank_s,
                                                 excess, scale):
        # the zero-row bound is relative to ||T||_F: radii of 1e-8 to 1e-6
        # give ||T||_F far inside the absolute tolerance EPS_PSD (1 + ||T||_F),
        # and R*R still matches T to rounding
        rng = np.random.default_rng(seed)
        a = rand_factor(rng, q, field, min(rank_a, q), scale)
        s = rand_factor(rng, q, field, min(rank_s, q), scale)
        v = cone_block(q - 1 + excess if excess else 0, q, field, rng, 64)
        t = cl.cone_step(a, s, v)
        bound = 1e-12 * (cl.frob_norm(a) + cl.frob_norm(s)) ** 2
        assert np.all(cl.frob_norm(gram(t) - step_gram(a, s, v)) <= bound)

    @pytest.mark.parametrize("field", cl.FIELDS)
    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("scale", [1e-300, 1e-16, 1e-12, 1.0, 1e200, 1e300])
    def test_any_scale_squares_back(self, q, field, scale):
        # neither a small ||T||_F nor one whose square overflows float64
        # costs R*R its relative accuracy
        m = scale * np.stack([0.1 * np.eye(q) + 0.9 * np.ones((q, q))]
                             + [with_spectrum(seed, [1.0, 0.5, 0.1][:q], field)
                                for seed in range(8)])
        r = cl.psd_factor(m)
        assert np.all(cl.frob_norm(gram(r / np.sqrt(scale)) - m / scale) <= 1e-14)

    def test_off_diagonal_in_a_zero_row_raises(self):
        # [[0, 1], [1, 0]] has zero pivots but is not PSD
        with pytest.raises(ConeViolationError):
            cl.psd_factor(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.array_equal(cl.psd_factor(np.diag([0.0, 4.0])), [[0.0, 2.0], [0.0, 0.0]])

    @pytest.mark.parametrize("field", cl.FIELDS)
    @pytest.mark.parametrize("q", [2, 3])
    def test_non_finite_factors_raise(self, q, field):
        rng = np.random.default_rng(903)
        a = np.stack([rand_factor(rng, q, field, q, 1.0) for _ in range(3)])
        v = cone_block(2.0, q, field, rng, 3)
        for bad in (np.nan, np.inf):
            for which in range(3):
                args = [a.copy(), a.copy(), v.copy()]
                args[which][1, 0, q - 1] = bad
                with np.errstate(invalid="ignore", over="ignore"), \
                        pytest.raises(NumericalFailureError):
                    cl.cone_step(*args)
