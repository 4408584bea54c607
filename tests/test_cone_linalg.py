import numpy as np
import pytest

from conewalk import cone_linalg as cl
from conewalk.errors import ConeViolationError, UnsupportedFieldError


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


class TestEig:
    def test_identity(self):
        w, u = cl.eig_herm(np.eye(2))
        assert np.allclose(w, [1.0, 1.0])
        recon = u @ np.diag(w) @ u.T
        assert np.linalg.norm(recon - np.eye(2)) <= 1e-10 * (1 + np.sqrt(2))

    def test_diagonal(self):
        w, _ = cl.eig_herm(np.diag([3.0, -1.0]))
        assert np.allclose(w, [-1.0, 3.0])

    def test_hand_characteristic_polynomial(self):
        # det(A - t I) = (2-t)^2 - 1 gives t in {1, 3}; eigenvectors
        # solve (A - t)v = 0: (1, -1)/sqrt(2) and (1, 1)/sqrt(2)
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        w, u = cl.eig_herm(a)
        assert np.allclose(w, [1.0, 3.0], atol=1e-12)
        s = 1 / np.sqrt(2)
        assert np.allclose(u[:, 0], [s, -s], atol=1e-12)
        assert np.allclose(u[:, 1], [s, s], atol=1e-12)

    @pytest.mark.parametrize("field", cl.FIELDS)
    def test_reconstruction_and_unitarity(self, field):
        rng = np.random.default_rng(101)
        for q in (1, 2, 3, 4, 8):
            for _ in range(25):
                a = rand_herm(rng, q, field)
                w, u = cl.eig_herm(a)
                assert np.all(np.diff(w) >= -1e-14)
                recon = u @ np.diag(w) @ np.conj(u.T)
                assert cl.frob_norm(recon - a) <= 1e-10 * (1 + cl.frob_norm(a))
                assert cl.frob_norm(np.conj(u.T) @ u - np.eye(q)) <= 1e-12


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
        out = cl.clamp_psd(np.diag([1.0, -1e-14]), tol=1e-10)
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-13)

    def test_rejects_violation(self):
        with pytest.raises(ConeViolationError):
            cl.clamp_psd(np.diag([1.0, -0.5]), tol=1e-10)

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

    @pytest.mark.parametrize("field", cl.FIELDS)
    def test_matrix_form_squares_to_the_update(self, field):
        rng = np.random.default_rng(606)
        for _ in range(20):
            a = cl.psd_sqrt(rand_psd(rng, 3, field))
            s = cl.psd_sqrt(rand_psd(rng, 3, field))
            g = rand_herm(rng, 3, field) + 0.3 * rand_herm(rng, 3, field) @ rand_herm(
                rng, 3, field)
            v = g / (1.0 + np.linalg.norm(g, 2))  # a strict contraction
            t = cl.cone_step(a, s, v)
            svr = s @ v @ a
            expect = a @ a + s @ s + svr + np.conj(svr.T)
            assert cl.frob_norm(t @ t - expect) <= 1e-10 * (1 + cl.frob_norm(expect))
            assert np.min(cl.eig_herm(t)[0]) >= 0.0

    def test_one_by_one_matrices_match_the_scalar_form(self):
        rng = np.random.default_rng(607)
        a, s = rng.uniform(0, 2, 50), rng.uniform(0, 2, 50)
        v = rng.uniform(-1, 1, 50)
        t = cl.cone_step(a[:, None, None], s[:, None, None], v[:, None, None])
        assert np.allclose(t[:, 0, 0], cl.cone_step(a, s, v), rtol=1e-12, atol=1e-12)
