"""Dense hermitian linear algebra on small q x q matrices.

Conventions used throughout the package:

* matrices are numpy arrays of shape (..., q, q); float64 over the real
  field, complex128 over the complex field; leading axes are batch axes;
* hermitian arrays are kept exactly hermitian via :func:`herm_part`
  (A <- (A + A*)/2), which makes diagonals exactly real;
* PSD input is checked and clamped by whichever kernel reads it
  (:func:`clamp_psd`, :func:`psd_sqrt`):
  eigenvalues below -EPS_PSD*(1+||a||_F) raise
  :class:`ConeViolationError`, the other negative ones are clamped to zero,
  and non-finite input raises :class:`NumericalFailureError`;
* a spectral function U f(w) U* costs one pass of :func:`_eigh`, a cyclic
  Jacobi eigensolver that rotates a whole stack at once, with no
  eigenvector phase convention (the result does not depend on the
  phases); at q = 2 the square root takes none, as it has a closed form
  in the trace and the discriminant (the Haar block takes no root at all);
* products of stacked 2 x 2 matrices are written out (:func:`_mul2`),
  since matmul makes one BLAS call per matrix; the cone step's products
  take this form at q = 2;
* :func:`vectorize_herm` maps hermitian matrices isometrically to real
  coordinate vectors: diagonal entries first, then off-diagonal real
  parts scaled by sqrt(2) (row-major upper triangle), then, over the
  complex field, the off-diagonal imaginary parts scaled by sqrt(2).
  The inner product of coordinate vectors equals Re tr(a* b).
"""

from __future__ import annotations

import numpy as np

from .errors import ConeViolationError, NumericalFailureError, UnsupportedFieldError

REAL = "real"
COMPLEX = "complex"
FIELDS = (REAL, COMPLEX)

# relative PSD clamping tolerance: the cone-valued formulas used in this
# package are exactly PSD in exact arithmetic, so larger violations mean bugs
EPS_PSD = 1e-10


def field_dim(field: str) -> int:
    """Real dimension d of the base field (1 for R, 2 for C)."""
    check_field(field)
    return 1 if field == REAL else 2


def field_dtype(field: str):
    check_field(field)
    return np.float64 if field == REAL else np.complex128


def check_field(field: str) -> None:
    if field not in FIELDS:
        raise UnsupportedFieldError(f"unsupported field {field!r}; expected one of {FIELDS}")


def herm_part(a: np.ndarray) -> np.ndarray:
    """Hermitian part (a + a*)/2 of a stacked square array."""
    a = np.asarray(a)
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


def frob_norm(a: np.ndarray) -> np.ndarray | float:
    """Hilbert-Schmidt norm, batched over leading axes."""
    a = np.asarray(a)
    out = np.sqrt(np.sum(np.abs(a) ** 2, axis=(-2, -1)))
    return float(out) if out.ndim == 0 else out


def trace_herm(a: np.ndarray) -> np.ndarray | float:
    """Real trace of a (stacked) hermitian array."""
    a = np.asarray(a)
    out = np.trace(a, axis1=-2, axis2=-1).real
    return float(out) if np.ndim(out) == 0 else out


def clamp_psd(a: np.ndarray) -> np.ndarray:
    """Project a hermitian array onto the PSD cone.

    Eigenvalues in [-EPS_PSD*(1+||a||_F), 0) are clamped to zero; anything
    below that raises ConeViolationError.
    """
    a = herm_part(np.asarray(a))
    w, u = _eigh(a)
    _check_cone(np.min(w, axis=-1), a)
    return _assemble(np.maximum(w, 0.0), u)


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """PSD square root of a (stacked) hermitian array.

    Checks and clamps the spectrum like :func:`clamp_psd`, so the input
    need only be PSD within tolerance.  The root is that of the hermitian
    part (a + a*)/2, taken first: the cone step's square is hermitian only
    up to rounding, since its entries (i, j) and (j, i) add the same terms
    in different orders.  One Jacobi eigendecomposition of the stack, none
    at q = 2.
    """
    a = herm_part(np.asarray(a))
    if a.shape[-1] == 2:
        return _psd_sqrt_2x2(a)
    w, u = _eigh(a)
    _check_cone(np.min(w, axis=-1), a)
    return _assemble(np.sqrt(np.maximum(w, 0.0)), u)


def cone_step(a, s, v):
    """One move of a cone walk: t = sqrt(a^2 + s^2 + s v a + a v* s).

    Every walk makes this move, with v the top block of a Haar frame at
    Wishart index nu (:func:`orbit_sampler.cone_block`): an integer for
    the group walk, a real one for the index-mu walk.  When v has fewer
    than two axes this is the q = 1 form on scalars or (n,) batches,
    sqrt(max(a^2 + s^2 + 2 a s Re v, 0));
    otherwise a, s and v are (stacked) q x q matrices and the square is
    hermitized and clamped into the PSD cone as its root is taken.
    """
    if np.ndim(v) < 2:
        return np.sqrt(np.maximum(a * a + s * s + 2.0 * a * s * np.real(v), 0.0))
    mul = _mul2 if np.shape(v)[-1] == 2 else np.matmul
    sva = mul(mul(s, v), a)
    return psd_sqrt(mul(a, a) + mul(s, s) + sva + np.swapaxes(np.conj(sva), -1, -2))


def _mul2(x, y):
    """x @ y over an inner axis of length 2, written out one output column
    at a time; batched and unbatched operands broadcast as in matmul.

    On stacks of 2 x 2 matrices matmul makes one BLAS call per matrix,
    about 8x the cost of this over the complex field.
    """
    shape = np.broadcast_shapes(x.shape[:-2], y.shape[:-2]) + (x.shape[-2], y.shape[-1])
    out = np.empty(shape, dtype=np.result_type(x, y))
    for j in range(y.shape[-1]):
        out[..., j] = x[..., :, 0] * y[..., None, 0, j] + x[..., :, 1] * y[..., None, 1, j]
    return out


# Jacobi sweeps after which a matrix that has not converged is a failure;
# of 20,000 Gaussian draws no 3 x 3 matrix took more than 4, no 4 x 4 one
# more than 6
_MAX_SWEEPS = 12
# a matrix has converged once its off-diagonal mass sum |a_ij|^2 (i < j) is
# at most eps^2 times its squared Frobenius norm
_OFF_TOL2 = np.finfo(np.float64).eps ** 2
# floor of a rotation's denominator: with entries scaled into [-1, 1] only a
# negligible off-diagonal entry meets it, and it keeps h^2 |x|^2 finite
_TINY = 2.0**-500


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues w and eigenvectors u of a stack of hermitian arrays, with
    a = u diag(w) u*; w is not sorted.

    Cyclic Jacobi over the whole stack at once.  The real diagonal and the
    upper triangle of a, the only entries read, are held one entry per
    contiguous (n,) row, so rotation (p, r) reaches every matrix through a
    few ufunc calls.  Each matrix is first scaled by a power of two, which
    is exact, so that its largest entry lies in [1/2, 1).  A matrix whose
    off-diagonal mass is at or below tolerance rotates by t = 0, exactly the
    identity, so its result does not depend on the rest of the stack.
    """
    q = a.shape[-1]
    flat = a.reshape((-1, q, q))
    rows, cols = np.triu_indices(q, 1)
    pairs = list(zip(rows.tolist(), cols.tolist()))
    slot = {}
    for m, (i, j) in enumerate(pairs):
        slot[i, j] = slot[j, i] = m
    diag = np.array(np.diagonal(flat, axis1=1, axis2=2).real.T, order="C")
    off = np.array(flat[:, rows, cols].T, order="C")
    cplx = np.iscomplexobj(off)
    conj = np.conj if cplx else _same
    entries = [diag, off.real, off.imag] if cplx else [diag, off]
    big = np.abs(np.concatenate(entries)).max(axis=0)
    if not np.all(np.isfinite(big)):
        raise NumericalFailureError("hermitian eigensolver: input is not finite", payload=a)
    # below 2^-1000 the scale stops at 2^1000, a finite factor
    expo = np.maximum(np.frexp(big)[1], -1000)
    scale = np.ldexp(1.0, -expo)
    diag *= scale
    off *= scale
    u = np.zeros((q, q, flat.shape[0]), dtype=a.dtype)
    for i in range(q):
        u[i, i] = 1.0
    for sweep in range(_MAX_SWEEPS + 1):
        mass = _abs2(off).sum(axis=0)
        live = mass > _OFF_TOL2 * ((diag * diag).sum(axis=0) + 2.0 * mass)
        if not np.any(live):
            break
        if sweep == _MAX_SWEEPS:
            raise NumericalFailureError(
                f"hermitian eigensolver: no convergence in {_MAX_SWEEPS} Jacobi sweeps",
                payload=a)
        for m, (p, r) in enumerate(pairs):
            x = off[m]
            g2 = _abs2(x)
            dif = diag[r] - diag[p]
            # the rotation's tangent t = 2|x| sign(dif) / (|dif| + sqrt(dif^2 + 4|x|^2))
            # is h |x|; a converged matrix takes h = 0
            h = np.copysign(2.0 / np.maximum(np.abs(dif) + np.sqrt(dif * dif + 4.0 * g2), _TINY),
                            dif)
            h *= live
            c = 1.0 / np.sqrt(1.0 + h * h * g2)
            tx = h * g2
            diag[p] -= tx
            diag[r] += tx
            # the rotation's (p, r) entry s x / |x|, and its (r, p) entry -conj(z)
            z = (c * h) * x
            zc = conj(z)
            x[...] = 0.0
            for k in range(q):
                if k == p or k == r:
                    continue
                # a[k, p], a[k, r] <- c a[k, p] - conj(z) a[k, r], z a[k, p] + c a[k, r],
                # where off holds a[k, j] for k < j and its conjugate for k > j
                xp, xr = off[slot[k, p]], off[slot[k, r]]
                if k < p:
                    new = c * xp - zc * xr
                    xr *= c
                    xr += z * xp
                elif k > r:
                    new = c * xp - z * xr
                    xr *= c
                    xr += zc * xp
                else:
                    new = c * xp - z * conj(xr)
                    xr *= c
                    xr += z * conj(xp)
                xp[...] = new
            for k in range(q):
                up, ur = u[k, p], u[k, r]
                new = c * up - zc * ur
                ur *= c
                ur += z * up
                up[...] = new
    w = np.ldexp(diag, expo).T.reshape(a.shape[:-1])
    return w, np.moveaxis(u, -1, 0).reshape(a.shape)


def _same(x: np.ndarray) -> np.ndarray:
    return x


def _abs2(x: np.ndarray) -> np.ndarray:
    """|x|^2 elementwise, without the square root of np.abs."""
    return x * x if not np.iscomplexobj(x) else x.real * x.real + x.imag * x.imag


def _check_cone(wmin: np.ndarray, a: np.ndarray) -> None:
    """Raise ConeViolationError where the smallest eigenvalue of a is below
    -EPS_PSD*(1+||a||_F); the norm is taken only when some eigenvalue is
    negative."""
    if np.any(wmin < 0.0) and np.any(wmin < -EPS_PSD * (1.0 + frob_norm(a))):
        raise ConeViolationError(
            f"eigenvalue {float(np.min(wmin)):.6e} below -EPS_PSD*(1+||a||_F)"
            f" with EPS_PSD={EPS_PSD:.1e}",
            payload=a,
        )


def _psd_sqrt_2x2(m: np.ndarray) -> np.ndarray:
    """Closed form of :func:`psd_sqrt` on hermitian 2 x 2 stacks.

    With eigenvalues lo <= hi from the trace and the discriminant,
    sqrt(M) = r_lo I + k (M - lo I), r = sqrt(max(w, 0)), with the divided
    difference k = (r_hi - r_lo) / (hi - lo) taken as 1/(r_hi + r_lo) where
    lo >= 0, free of cancellation; below 0, where r_lo = 0, the plain
    quotient has none.  At hi == lo, M is a multiple of I and k is unused.
    """
    m00, m11, m01 = m[..., 0, 0].real, m[..., 1, 1].real, np.abs(m[..., 0, 1])
    mid = 0.5 * (m00 + m11)
    rad = np.hypot(0.5 * (m00 - m11), m01)
    hi = mid + rad
    # a NaN or infinite entry makes hi NaN or infinite
    if not np.all(np.isfinite(hi)):
        raise NumericalFailureError("2 x 2 PSD root: input is not finite", payload=m)
    # with a positive trace hi has no cancellation, and lo = det/hi (taken
    # as LAPACK's dlaev2 does) cancels only through a large off-diagonal
    # entry, unlike mid - rad: it keeps ill-conditioned, nearly diagonal
    # input accurate
    pos = mid > 0
    safe_hi = np.where(pos, hi, 1.0)
    lo = np.where(pos, (m00 / safe_hi) * m11 - (m01 / safe_hi) * m01, mid - rad)
    _check_cone(lo, m)
    r_lo = np.sqrt(np.maximum(lo, 0.0))
    r_hi = np.sqrt(np.maximum(hi, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.where(lo >= 0.0, 1.0 / (r_hi + r_lo), (r_hi - r_lo) / (hi - lo))
    k = np.where(np.isfinite(k), k, 0.0)
    out = k[..., None, None] * m
    shift = r_lo - k * lo
    out[..., 0, 0] += shift
    out[..., 1, 1] += shift
    return out


def _assemble(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Rebuild U diag(w) U* for stacked spectra/bases."""
    return herm_part((u * w[..., None, :]) @ np.conj(np.swapaxes(u, -1, -2)))


def herm_vec_dim(q: int, field: str) -> int:
    """Dimension of the coordinate vector: q + d*q*(q-1)/2."""
    return q + field_dim(field) * (q * (q - 1)) // 2


def vectorize_herm(a: np.ndarray, field: str) -> np.ndarray:
    """Isometric real coordinates of a (stacked) hermitian array.

    <vec(a), vec(b)> = Re tr(a* b) for all hermitian a, b.
    """
    check_field(field)
    a = np.asarray(a)
    q = a.shape[-1]
    rows, cols = np.triu_indices(q, 1)
    parts = [np.diagonal(a, axis1=-2, axis2=-1).real]
    if q > 1:
        off = a[..., rows, cols]
        parts.append(np.sqrt(2.0) * off.real)
        if field == COMPLEX:
            parts.append(np.sqrt(2.0) * off.imag)
    return np.concatenate([np.asarray(p, dtype=np.float64) for p in parts], axis=-1)


def devectorize_herm(vec: np.ndarray, q: int, field: str) -> np.ndarray:
    """Inverse of :func:`vectorize_herm`."""
    check_field(field)
    vec = np.asarray(vec, dtype=np.float64)
    rows, cols = np.triu_indices(q, 1)
    noff = len(rows)
    out = np.zeros(vec.shape[:-1] + (q, q), dtype=field_dtype(field))
    idx = np.arange(q)
    out[..., idx, idx] = vec[..., :q]
    if q > 1:
        upper = vec[..., q:q + noff] / np.sqrt(2.0)
        if field == COMPLEX:
            upper = upper + 1j * (vec[..., q + noff:q + 2 * noff] / np.sqrt(2.0))
        out[..., rows, cols] = upper
        out[..., cols, rows] = np.conj(upper)
    return out


def herm_basis(q: int, field: str) -> np.ndarray:
    """Stack of the orthonormal basis matrices matching the vec ordering."""
    return devectorize_herm(np.eye(herm_vec_dim(q, field)), q, field)
