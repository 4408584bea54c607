import numpy as np
import pytest
from scipy import special, stats

from conewalk import cone_linalg as cl
from conewalk.bessel import BesselParam
from conewalk.errors import NumericalFailureError
from conewalk.limit_lab import ks_2samp, moment_identity_rhs
from conewalk.orbit_sampler import (
    GroupWalkConfig,
    _cholesky_solve,
    cone_block,
    haar_block,
    radial_projection_coeff,
    run_cone_walks,
    run_group_walks,
    sample_radial_matrix,
    sample_stiefel_frame,
    tr_squared,
)
from conewalk.radial_laws import RadialLaw, _std_entries, moments


class TestStiefelFrame:
    @pytest.mark.parametrize("field", cl.FIELDS)
    def test_orthonormal_columns(self, field):
        rng = np.random.default_rng(1)
        q = sample_stiefel_frame(7, 3, field, rng, 200)
        gram = np.conj(np.swapaxes(q, -1, -2)) @ q
        err = np.max(cl.frob_norm(gram - np.eye(3)))
        assert err <= 1e-12

    @pytest.mark.parametrize("field", cl.FIELDS)
    @pytest.mark.parametrize("p", [3, 5, 50])
    def test_cholesky_frame_is_the_qr_frame(self, p, field):
        # the frame is the QR frame of the same Gaussian draw with the
        # R-diagonal phase forced positive, the convention that makes the
        # factorization unique
        for chunk in range(10):
            g = _std_entries(np.random.default_rng(chunk), (10_000, p, 2), field)
            frame = sample_stiefel_frame(p, 2, field, np.random.default_rng(chunk), 10_000)
            qmat, r = np.linalg.qr(g)
            diag = np.diagonal(r, axis1=-2, axis2=-1)
            ref = qmat * np.conj(diag / np.abs(diag))[..., None, :]
            assert np.max(np.abs(frame - ref)) <= 1e-12
            gram = np.conj(np.swapaxes(frame, -1, -2)) @ frame
            assert np.max(np.abs(gram - np.eye(2))) <= 1e-14

    @pytest.mark.parametrize("field", cl.FIELDS)
    @pytest.mark.parametrize("p", [1, 2, 7, 64])
    def test_q1_frame_is_the_qr_frame(self, p, field):
        # at q = 1 the frame is g / ||g||, the positive-phase QR frame of
        # the same draw up to rounding, and a unit column
        g = _std_entries(np.random.default_rng(p), (5000, p, 1), field)
        frame = sample_stiefel_frame(p, 1, field, np.random.default_rng(p), 5000)
        qmat, r = np.linalg.qr(g)
        ref = qmat * np.conj(r / np.abs(r))
        assert frame.dtype == g.dtype and frame.shape == g.shape
        assert np.max(np.abs(frame - ref)) <= 1e-14
        assert np.max(np.abs(np.linalg.norm(frame, axis=1) - 1.0)) <= 1e-15

    @pytest.mark.parametrize("field", cl.FIELDS)
    def test_zero_column_gives_the_qr_frame(self, field):
        # QR takes a zero column to e_1 (no reflection, phase 1); so does
        # the q = 1 frame
        class Zeros:
            def standard_normal(self, shape):
                return np.zeros(shape)

        frame = sample_stiefel_frame(3, 1, field, Zeros(), 2)
        assert frame.dtype == cl.field_dtype(field)
        assert frame[:, :, 0].tolist() == [[1.0, 0.0, 0.0]] * 2
        qmat, r = np.linalg.qr(np.zeros((1, 3, 1), dtype=cl.field_dtype(field)))
        assert r[0, 0, 0] == 0.0 and np.array_equal(qmat[0, :, 0], frame[0, :, 0])

    @pytest.mark.parametrize("field", cl.FIELDS)
    def test_square_frame_is_unitary(self, field):
        # at p == q the frame is a Haar unitary
        v = sample_stiefel_frame(2, 2, field, np.random.default_rng(8), 100_000)
        gram = np.conj(np.swapaxes(v, -1, -2)) @ v
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-14

    def test_sign_symmetry_p1(self):
        rng = np.random.default_rng(2)
        n = 40000
        q = sample_stiefel_frame(1, 1, cl.REAL, rng, n)[:, 0, 0]
        assert set(np.unique(np.round(q, 12))) == {-1.0, 1.0}
        assert abs(np.mean(q == 1.0) - 0.5) <= 3 * np.sqrt(0.25 / n)

    def test_haar_invariance_under_permutation(self):
        # a fixed permutation of rows must leave the entry law unchanged
        rng = np.random.default_rng(3)
        n = 10000
        q = sample_stiefel_frame(5, 2, cl.REAL, rng, n)
        perm = [4, 0, 1, 2, 3]
        pq = q[:, perm, :]
        _, pvalue = ks_2samp(np.abs(q[:, 0, 0]), np.abs(pq[:, 0, 0]))
        assert pvalue >= 1e-3


class TestStiefelBlock:
    # the top q x q block of a Haar frame in F^p is cone_block at nu = p - q
    @pytest.mark.parametrize("field", cl.FIELDS)
    def test_matches_direct_qr_block(self, field):
        rng = np.random.default_rng(4)
        n = 20000
        block = cone_block(7 - 2, 2, field, rng, n)
        frames = sample_stiefel_frame(7, 2, field, rng, n)
        direct = frames[:, :2, :]
        for stat in (lambda v: np.abs(v[:, 0, 0]),
                     lambda v: np.abs(np.linalg.det(v)),
                     lambda v: np.sum(np.abs(v) ** 2, axis=(1, 2))):
            _, pvalue = ks_2samp(stat(block), stat(direct))
            assert pvalue >= 1e-3

    def test_square_case_is_unitary(self):
        rng = np.random.default_rng(5)
        v = cone_block(0, 3, cl.REAL, rng, 100)
        gram = np.swapaxes(v, -1, -2) @ v
        assert np.max(cl.frob_norm(gram - np.eye(3))) <= 1e-10

    def test_projection_coeff_matches_block(self):
        # the one q = 1 sampler: cone_block draws Re v at the real dimension
        # m = d p of a group walk (one real draw over C too; m = 3 and m = 5
        # take closed forms) against the whole v of haar_block's general
        # path.  The index-mu cases are test_bessel's
        # test_walk_draw_matches_contraction
        rng = np.random.default_rng(6)
        n = 20000
        for field, p in ((cl.REAL, 3), (cl.REAL, 5), (cl.REAL, 9),
                         (cl.COMPLEX, 1), (cl.COMPLEX, 3), (cl.COMPLEX, 4)):
            w = cone_block(p - 1, 1, field, rng, n)
            assert w.shape == (n,) and w.dtype == np.float64
            block = (haar_block(p - 1, 1, field, rng, n) if p > 1
                     else sample_stiefel_frame(1, 1, field, rng, n))
            _, pvalue = ks_2samp(w, block[:, 0, 0].real)
            assert pvalue >= 1e-3, f"{field} p={p}"


def _projection_cdf(m):
    """Exact CDF of w = Re v at q = 1 and real dimension m: the density
    (1 - w^2)^((m - 3)/2) on (-1, 1), and the atoms -1 and 1 at m = 1."""
    if m == 1:
        return lambda w: np.where(w < -1.0, 0.0, np.where(w < 1.0, 0.5, 1.0))
    if m == 3:
        return lambda w: (1.0 + w) / 2.0
    if m == 5:
        return lambda w: (2.0 + 3.0 * w - w**3) / 4.0
    return lambda w: 0.5 + np.sign(w) / 2.0 * special.betainc(0.5, (m - 1) / 2.0, w * w)


def _ks_pvalue(sample, cdf):
    """One-sample KS p-value of sample against cdf.  The distance is taken
    at both one-sided limits of each sample point, so the atoms of the
    m = 1 law count; there the continuous law's p-value is conservative."""
    x = np.sort(sample)
    after = np.searchsorted(x, x, side="right") / x.size
    before = np.searchsorted(x, x, side="left") / x.size
    dist = max(np.max(np.abs(after - cdf(x))),
               np.max(np.abs(before - cdf(np.nextafter(x, -np.inf)))))
    return stats.kstwo.sf(dist, x.size)


class _FixedUniforms:
    """Stands in for a generator whose uniform draws are the given values."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def uniform(self, low, high, size):
        return self.u.copy()


class TestProjectionCoeff:
    # every q = 1 closed form of radial_projection_coeff against the exact
    # law at its real dimension m = d p: the sign at m = 1, the uniform at
    # m = 3, the inverse CDF at m = 5 (p = 5 over R and 5/2 over C) and the
    # chi-square form elsewhere, at integer and real m
    @pytest.mark.parametrize("field, p", [(cl.REAL, 1), (cl.REAL, 3), (cl.REAL, 5),
                                          (cl.COMPLEX, 2.5), (cl.COMPLEX, 1), (cl.REAL, 4),
                                          (cl.REAL, 7.4), (cl.COMPLEX, 5)])
    def test_exact_law(self, field, p):
        m = cl.field_dim(field) * p
        w = radial_projection_coeff(p, field, np.random.Generator(np.random.Philox(31)), 200_000)
        assert w.dtype == np.float64 and np.all(np.abs(w) <= 1.0)
        assert _ks_pvalue(w, _projection_cdf(m)) >= 1e-3

    def test_m5_tangent_form_is_the_sine_form(self):
        # 4 h / (1 + h^2) at h = tan(arcsin(u)/6) is 2 sin(arcsin(u)/3) up
        # to rounding: within 4 ulp on a Philox batch and at the ends and
        # centre of (-1, 1), and never past |w| = 1
        n = 2_000_000
        u = np.random.Generator(np.random.Philox(32)).uniform(-1.0, 1.0, n)
        w = radial_projection_coeff(5, cl.REAL, np.random.Generator(np.random.Philox(32)), n)
        edges = [-1.0, -0.5, 0.0, 1e-300, -1e-300, np.nextafter(1.0, 0.0)]
        u = np.concatenate([u, edges])
        w = np.concatenate([w, radial_projection_coeff(5, cl.REAL, _FixedUniforms(edges), 6)])
        ref = 2.0 * np.sin(np.arcsin(u) / 3.0)
        assert np.all(np.abs(w - ref) <= 4 * np.spacing(np.abs(ref)))
        assert np.all(np.abs(w) <= 1.0)


# q, field and nu of the Haar-block law checks: an integer nu <= q - 1
# (W = G2*G2), a real nu near q - 1 and an integer nu > q - 1 (Bartlett W)
HAAR_CASES = [(q, field, nu) for q in (2, 3) for field in cl.FIELDS
              for nu in (1, q - 0.5, q + 3)]


def _haar(nu, q, field, seed, n=50_000):
    return haar_block(nu, q, field, np.random.Generator(np.random.Philox(seed)), n)


def _sq_norms(x):
    return np.sum(np.abs(x) ** 2, axis=-1)


class TestHaarBlock:
    # v = G1 R^-1 takes the columns of G1 in order through the Cholesky
    # factor R, but its law is that of G1 (G1*G1 + W)^(-1/2): exchangeable
    # columns and rows, invariant under v -> v O, with E v*v = q/(q + nu) I
    @pytest.mark.parametrize("q, field, nu", HAAR_CASES)
    def test_columns_and_rows_are_exchangeable(self, q, field, nu):
        a, b = _haar(nu, q, field, 31), _haar(nu, q, field, 32)
        for first, last in ((a[:, :, 0], b[:, :, -1]), (a[:, 0, :], b[:, -1, :])):
            _, pvalue = ks_2samp(_sq_norms(first), _sq_norms(last))
            assert pvalue >= 1e-3

    @pytest.mark.parametrize("q, field, nu", HAAR_CASES)
    def test_right_unitary_invariance(self, q, field, nu):
        g = _std_entries(np.random.default_rng(33), (q, q), field)
        o, r = np.linalg.qr(g)
        a, b = _haar(nu, q, field, 34), _haar(nu, q, field, 35) @ o
        for stat in (lambda v: np.abs(v[:, 0, 0]) ** 2, lambda v: v[:, q - 1, 0].real,
                     lambda v: _sq_norms(v[:, :, q - 1])):
            _, pvalue = ks_2samp(stat(a), stat(b))
            assert pvalue >= 1e-3

    @pytest.mark.parametrize("q, field, nu", HAAR_CASES)
    def test_mean_gram(self, q, field, nu):
        v = _haar(nu, q, field, 36, 100_000)
        x = (np.conj(np.swapaxes(v, -1, -2)) @ v).reshape(len(v), -1)
        target = (q / (q + nu) * np.eye(q)).ravel()
        for part in (np.real, np.imag):
            se = np.std(part(x), axis=0) / np.sqrt(len(v))
            diff = np.abs(np.mean(part(x), axis=0) - part(target))
            assert np.all(diff <= 4.5 * se + 1e-15)

    @pytest.mark.parametrize("field", cl.FIELDS)
    @pytest.mark.parametrize("q", [2, 3])
    def test_contraction_near_the_edge(self, q, field):
        # at nu = 1 and as nu -> q - 1 the Wishart part is (nearly) singular
        for nu in (1, q - 1 + 1e-3):
            v = _haar(nu, q, field, 37, 100_000)
            assert np.max(np.linalg.norm(v, 2, axis=(1, 2))) <= 1.0 + 1e-9

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gram_raises(self, bad):
        # one entry of one matrix of the stack: of G1, or of W off the diagonal
        for where in ("g", "w"):
            g = _std_entries(np.random.default_rng(38), (4, 2, 2), cl.COMPLEX)
            cols = [[np.ones(4)], [np.zeros(4, complex), np.ones(4)]]
            if where == "g":
                g[2, 0, 1] = bad
            else:
                cols[1][0][2] = bad
            with np.errstate(invalid="ignore"), pytest.raises(NumericalFailureError):
                _cholesky_solve(g, cols)

    def test_singular_gram_raises(self):
        g = _std_entries(np.random.default_rng(39), (4, 2, 2), cl.REAL)
        cols = [[np.ones(4)], [np.zeros(4), np.ones(4)]]
        assert np.all(np.isfinite(_cholesky_solve(g, cols)))
        g[1] = 0.0
        cols[0][0][1] = cols[1][1][1] = 0.0
        with pytest.raises(NumericalFailureError):
            _cholesky_solve(g, cols)


class TestRadialMatrix:
    def test_point_mass_radial_part_exact(self):
        rng = np.random.default_rng(7)
        atom = np.array([[1.0, 0.4], [0.4, 0.8]])
        law = RadialLaw.point_mass(atom)
        x = sample_radial_matrix(law, 6, rng, 1000)
        radial = cl.psd_sqrt(np.swapaxes(x, -1, -2) @ x)
        assert np.max(cl.frob_norm(radial - atom)) <= 1e-10

    def test_unit_sphere_coordinate_moment(self):
        # delta_1 lift is uniform on the sphere: E[x_1^2] = 1/p
        rng = np.random.default_rng(8)
        p, n = 6, 50000
        law = RadialLaw.point_mass(1.0)
        x = sample_radial_matrix(law, p, rng, n)[:, :, 0]
        est = np.mean(x[:, 0] ** 2)
        se = np.std(x[:, 0] ** 2) / np.sqrt(n)
        assert abs(est - 1 / p) <= 4 * se

    def test_zero_atom(self):
        rng = np.random.default_rng(9)
        x = sample_radial_matrix(RadialLaw.point_mass(0.0), 4, rng, 10)
        assert np.all(x == 0)

    def test_mixture_radial_part_hits_an_atom(self):
        rng = np.random.default_rng(30)
        atoms = [np.diag([1.0, 0.5]), np.diag([0.5, 1.0])]
        law = RadialLaw.finite_mixture(atoms, [0.5, 0.5])
        x = sample_radial_matrix(law, 7, rng, 1000)
        radial = cl.psd_sqrt(np.swapaxes(x, -1, -2) @ x)
        dist = np.minimum(cl.frob_norm(radial - atoms[0]),
                          cl.frob_norm(radial - atoms[1]))
        assert np.max(dist) <= 1e-10


class TestGroupWalk:
    def _cfg(self, **kw):
        defaults = dict(p=3, q=1, field=cl.REAL, n_steps=4, checkpoints=(4,),
                        law=RadialLaw.point_mass(1.0), method="direct")
        defaults.update(kw)
        return GroupWalkConfig(**defaults)

    def test_zero_law_gives_zero_trajectory(self):
        rng = np.random.default_rng(13)
        cfg = self._cfg(law=RadialLaw.point_mass(0.0), method="direct")
        traj = run_group_walks(cfg, rng, 50)
        assert np.all(traj == 0)

    @pytest.mark.parametrize("method", ["direct", "polar"])
    def test_simple_walk_exact_enumeration(self, method):
        # p = q = 1 with unit steps is the +/-1 walk; at n = 4 the folded
        # endpoint takes values 0, 2, 4 with probabilities 6/16, 8/16, 2/16
        rng = np.random.default_rng(14)
        n = 40000
        cfg = self._cfg(p=1, method=method)
        traj = run_group_walks(cfg, rng, n)
        norms = np.sqrt(traj[0])
        for value, prob in ((0.0, 6 / 16), (2.0, 8 / 16), (4.0, 2 / 16)):
            freq = np.mean(np.abs(norms - value) < 1e-9)
            se = np.sqrt(prob * (1 - prob) / n)
            assert abs(freq - prob) <= 4 * se, (method, value)

    def test_second_moment_identity_q1(self):
        # E ||S_20||^2 = 20 * m2 = 50 for the (1, 2; 1/2) two-point law
        rng = np.random.default_rng(15)
        n = 100000
        law = RadialLaw.two_point(1.0, 2.0, 0.5)
        cfg = self._cfg(p=7, n_steps=20, checkpoints=(20,), law=law, method="polar")
        traj = run_group_walks(cfg, rng, n)
        vals = traj[0]
        se = np.std(vals) / np.sqrt(n)
        assert abs(np.mean(vals) - 50.0) <= 3 * se

    def test_second_moment_identity_q2(self):
        rng = np.random.default_rng(16)
        law = RadialLaw.finite_mixture(
            [np.diag([1.0, 0.5]), np.diag([0.5, 1.0])], [0.5, 0.5])
        md = moments(law)
        cfg = GroupWalkConfig(p=9, q=2, field=cl.REAL, n_steps=6,
                              checkpoints=(6,), law=law, method="polar")
        traj = run_group_walks(cfg, rng, 50000)
        tr = tr_squared(traj)[0]
        se = np.std(tr) / np.sqrt(tr.size)
        assert abs(np.mean(tr) - 6 * md.m2) <= 4 * se

    # every branch polar serves: q = 1, the square QR block (p = q), the
    # G2* G2 Wishart of integer nu = p - q <= q - 1 (q = 2, p = 3 and
    # q = 3, p = 4), and the Bartlett Wishart (q = 2, p = 6 and q = 3, p = 8)
    @pytest.mark.parametrize("q,p", [(1, 5), (2, 6), (2, 2), (2, 3), (3, 4), (3, 8)])
    def test_polar_equals_direct_in_law(self, q, p):
        rng = np.random.default_rng(17)
        n = 10000
        for field in cl.FIELDS:
            if q == 1:
                law = RadialLaw.two_point(1.0, 2.0, 0.5, field=field)
            else:
                atoms = [np.diag(np.linspace(1.0, 0.5, q)), np.diag(np.linspace(0.5, 1.0, q))]
                law = RadialLaw.finite_mixture(atoms, [0.5, 0.5], field=field)
            base = dict(p=p, q=q, field=field, n_steps=4, checkpoints=(4,), law=law)
            t_direct = run_group_walks(GroupWalkConfig(method="direct", **base), rng, n)
            t_polar = run_group_walks(GroupWalkConfig(method="polar", **base), rng, n)
            _, pvalue = ks_2samp(tr_squared(t_direct)[0], tr_squared(t_polar)[0])
            assert pvalue >= 1e-3, field

    @pytest.mark.parametrize("field", cl.FIELDS)
    @pytest.mark.parametrize("q,p", [(1, 2), (1, 3), (1, 5), (2, 4), (2, 6), (3, 6)])
    def test_polar_route_is_index_mu_walk(self, q, p, field):
        # the polar group walk at p is the index-mu walk at mu = d p / 2:
        # one engine at nu = p - q, the same draws in the same order
        if q == 1:
            law = RadialLaw.two_point(1.0, 2.0, 0.5, field=field)
        else:
            law = RadialLaw.wishart_root(np.eye(q), q + 1, field=field)
        d = cl.field_dim(field)
        cfg = GroupWalkConfig(p=p, q=q, field=field, n_steps=5, checkpoints=(2, 5),
                              law=law, method="polar")
        group = run_group_walks(cfg, np.random.default_rng(22), 400)
        nu = BesselParam(d * p / 2.0, q, d).nu
        index_mu = run_cone_walks(law, nu, (2, 5), np.random.default_rng(22), 400)
        assert index_mu.tobytes() == group.tobytes()

    def test_fourth_moment_identity(self):
        # E[(||S_n||^2 - n s2)^2] = n (m4 - s2^2) + 2 n (n-1) s2^2 / p
        rng = np.random.default_rng(18)
        law = RadialLaw.two_point(1.0, 2.0, 0.5)
        md = moments(law)
        n_steps, p, reps = 10, 20, 200000
        cfg = self._cfg(p=p, n_steps=n_steps, checkpoints=(n_steps,), law=law,
                        method="polar")
        traj = run_group_walks(cfg, rng, reps)
        y = (traj[0] - n_steps * md.m2) ** 2
        se = np.std(y) / np.sqrt(reps)
        assert abs(np.mean(y) - moment_identity_rhs(n_steps, p, md)) <= 4 * se

    def test_multiple_checkpoints(self):
        # row k is the walk stopped at checkpoint k: a fresh walk run to it
        # at the same seed draws the same steps
        cfg = self._cfg(n_steps=6, checkpoints=(2, 4, 6))
        traj = run_group_walks(cfg, np.random.default_rng(19), 100)
        assert traj.shape == (3, 100)
        for row, step in zip(traj, cfg.checkpoints):
            fresh = run_group_walks(self._cfg(n_steps=step, checkpoints=(step,)),
                                    np.random.default_rng(19), 100)
            assert row.tobytes() == fresh[0].tobytes()

    def test_single_walk_wrapper(self):
        rng = np.random.default_rng(20)
        traj = run_group_walks(self._cfg(), rng, 1)
        assert traj.shape == (1, 1)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflow_raises(self):
        rng = np.random.default_rng(21)
        cfg = self._cfg(law=RadialLaw.point_mass(1e200), n_steps=4)
        with pytest.raises(NumericalFailureError):
            run_group_walks(cfg, rng, 8)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            self._cfg(checkpoints=(5,))
        with pytest.raises(ValueError):
            self._cfg(checkpoints=())
        with pytest.raises(ValueError):
            GroupWalkConfig(p=1, q=2, field=cl.REAL, n_steps=2, checkpoints=(2,),
                            law=RadialLaw.point_mass(np.eye(2)))
        with pytest.raises(ValueError):
            self._cfg(law=RadialLaw.point_mass(np.eye(2)))
        # polar is the default route at every p; there is no third method
        assert GroupWalkConfig(p=3, q=1, field=cl.REAL, n_steps=2, checkpoints=(2,),
                               law=RadialLaw.point_mass(1.0)).method == "polar"
        with pytest.raises(ValueError, match="direct"):
            self._cfg(method="auto")
