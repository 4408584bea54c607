"""Dense hermitian linear algebra on small q x q matrices.

Conventions used throughout the package:

* matrices are numpy arrays of shape (..., q, q); float64 over the real
  field, complex128 over the complex field; leading axes are batch axes;
* hermitian arrays are kept exactly hermitian via :func:`herm_part`
  (A <- (A + A*)/2), which makes diagonals exactly real;
* a walk carries a factor R of its Gram matrix T = R*R, not a root:
  :func:`cone_step` builds the next Gram matrix one entry at a time over
  the whole stack, each entry a contiguous (n,) row (matmul makes one
  BLAS call per small matrix), and returns its :func:`psd_factor`, the
  semidefinite Cholesky factor with diagonal pivoting, with no
  eigensolver;
* PSD input is checked by whichever kernel reads it: a Cholesky pivot or
  an eigenvalue below -EPS_PSD*(1+||a||_F) raises
  :class:`ConeViolationError`, smaller violations are clamped (a pivot at
  or below EPS_PSD*||a||_F gives a zero row), and non-finite input raises
  :class:`NumericalFailureError`;
* :func:`psd_sqrt` and :func:`clamp_psd` take one ``np.linalg.eigh``
  pass; only config-time matrices go through them;
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


def field_of_dim(d: int) -> str:
    """The base field of real dimension d, the inverse of :func:`field_dim`."""
    return REAL if d == 1 else COMPLEX


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
    w, u = _psd_spectrum(a)
    return _assemble(w, u)


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """PSD square root of a (stacked) hermitian array, that of its
    hermitian part; the spectrum is checked and clamped as in
    :func:`clamp_psd`."""
    w, u = _psd_spectrum(a)
    return _assemble(np.sqrt(w), u)


def _psd_spectrum(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clamped eigenvalues and eigenvectors of the hermitian part of a."""
    a = herm_part(np.asarray(a))
    if not np.all(np.isfinite(a)):
        raise NumericalFailureError("hermitian eigensolver: input is not finite", payload=a)
    w, u = np.linalg.eigh(a)
    wmin = w[..., 0]
    if np.any(wmin < 0.0) and np.any(wmin < -EPS_PSD * (1.0 + frob_norm(a))):
        raise ConeViolationError(
            f"eigenvalue {float(np.min(wmin)):.6e} below -EPS_PSD*(1+||a||_F)"
            f" with EPS_PSD={EPS_PSD:.1e}",
            payload=a,
        )
    return np.maximum(w, 0.0), u


def _assemble(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Rebuild U diag(w) U* for stacked spectra/bases."""
    return herm_part((u * w[..., None, :]) @ np.conj(np.swapaxes(u, -1, -2)))


def cone_step(a, s, v):
    """One move of a cone walk, on factors: a factor R, R*R = T, of

        T = a*a + s*s + s* v a + (s* v a)*.

    Every walk makes this move, with v the top block of a Haar frame at
    Wishart index nu (:func:`orbit_sampler.cone_block`): an integer for
    the group walk, a real one for the index-mu walk.  a and s may be any
    factors of the Gram matrices of the state and the increment (the
    radial parts themselves among them): the law of v is invariant under
    v -> W1 v W2 for unitaries W1, W2, so T has the law of
    r^2 + s0^2 + s0 v r + r v* s0 for the radial parts r = (a*a)^(1/2) and
    s0 = (s*s)^(1/2), whichever factors are given.  When v has fewer than
    two axes this is the q = 1 form on scalars or (n,) batches,
    sqrt(max(a^2 + s^2 + 2 a s Re v, 0)); otherwise a, s and v are
    (stacked) q x q matrices, T is built one entry at a time, and R is
    its :func:`psd_factor`.
    """
    if np.ndim(v) < 2:
        return np.sqrt(np.maximum(a * a + s * s + 2.0 * a * s * np.real(v), 0.0))
    shape = np.broadcast_shapes(np.shape(a), np.shape(s), np.shape(v))
    dtype = np.result_type(a, s, v)
    a, s, v = (_entries(x) for x in (a, s, v))
    q = len(v)
    conj = np.conj if np.issubdtype(dtype, np.complexfloating) else same
    ah, sh = ([[conj(m[k][i]) for k in range(q)] for i in range(q)] for m in (a, s))
    z = [[_dot(sh[i], v[:, m]) for m in range(q)] for i in range(q)]  # s* v
    x = [[_dot(z[i], a[:, j]) for j in range(q)] for i in range(q)]  # s* v a
    t = [[_dot(ah[i], a[:, j]) + _dot(sh[i], s[:, j]) + x[i][j] + conj(x[j][i]) if i <= j
          else None for j in range(q)] for i in range(q)]
    return _factor(t, shape, dtype)


def psd_factor(m: np.ndarray) -> np.ndarray:
    """A factor R, R*R = m within tolerance, of a (stacked) hermitian
    array m, read from its real diagonal and upper triangle: the
    semidefinite Cholesky factor with diagonal pivoting, R = U P* for a
    permutation P and an upper triangular U with a real diagonal of at
    least 0, U*U = P* m P.

    Each step takes as pivot the largest diagonal entry left in the Schur
    complement (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, Sec. 10.3), so that a nearly singular m, as where v is unitary
    (p = q), loses no accuracy to a small early pivot.  A pivot below
    -EPS_PSD*(1+||m||_F) raises ConeViolationError; one at or below
    EPS_PSD*||m||_F gives U a zero row, unless the rest of its row is larger
    than EPS_PSD*(1+||m||_F), which raises too (so [[0, 1], [1, 0]] does).
    Non-finite input raises NumericalFailureError; large finite input runs.
    """
    m = np.asarray(m)
    return _factor(_entries(m), m.shape, m.dtype)


def _factor(t: list, shape: tuple, dtype) -> np.ndarray:
    """:func:`psd_factor` of the hermitian T of shape ``shape`` read from
    the real parts of its diagonal entries t[i][i] and its upper entries
    t[i][j], i < j, each an array over the batch axes or a scalar.  Step j
    makes row j of R: matrix by matrix it takes the pivot column c among
    the columns that no earlier step took, then subtracts the row's outer
    product from the Schur complement t."""
    q = len(t)
    t = [[np.real(t[i][m]) if i == m else t[i][m] for m in range(q)] for i in range(q)]
    conj = np.conj if np.issubdtype(dtype, np.complexfloating) else same

    def entry(i, m):
        return t[i][m] if i <= m else conj(t[m][i])

    with np.errstate(over="ignore"):
        norm = np.sqrt(sum(abs2(entry(i, m)) for i in range(q) for m in range(q)))
    if not np.all(np.isfinite(norm)):  # non-finite entries, or |t_ij|^2 past the float range
        e = np.abs([entry(i, m) for i in range(q) for m in range(q)])
        big = np.max(e, axis=0)
        if not np.all(np.isfinite(big)):
            raise NumericalFailureError("PSD factor: input is not finite", payload=None)
        norm = big * np.sqrt(np.sum((e / np.where(big > 0.0, big, 1.0)) ** 2, axis=0))
    tol = EPS_PSD * (1.0 + norm)  # a pivot below -tol, or a zero row's entry past tol, raises
    r = np.zeros((q, q) + shape[:-2], dtype)
    free = [True] * q
    for j in range(q):
        piv, c = -np.inf, 0
        for k in range(q):
            diag = np.where(free[k], t[k][k], -np.inf)
            take = diag > piv
            piv, c = np.where(take, diag, piv), np.where(take, k, c)
        if np.any(piv < -tol):
            raise ConeViolationError(f"pivot {float(np.min(piv)):.6e} below -EPS_PSD*(1+||T||_F)"
                                     f" with EPS_PSD={EPS_PSD:.1e}", payload=None)
        root = np.sqrt(np.maximum(piv, 0.0))
        pick = [c == k for k in range(q)]
        if j == q - 1:  # one free column is left: the pivot's
            for m in range(q):
                r[j, m] = np.where(pick[m], root, 0.0)
            break
        low = piv <= EPS_PSD * norm  # relative to T's scale: a zero row
        any_low = np.any(low)
        with np.errstate(divide="ignore"):
            inv = np.where(low, 0.0, 1.0 / root)
        for m in range(q):
            row = entry(0, m)
            for k in range(1, q):
                row = np.where(pick[k], entry(k, m), row)
            row = np.where(free[m], row, 0.0)
            if any_low and np.any(low & (np.abs(row) > tol)):
                raise ConeViolationError("a zero pivot's row holds more than"
                                         " EPS_PSD*(1+||T||_F): T is not PSD", payload=None)
            r[j, m] = np.where(pick[m], root, row * inv)
        free = [free[m] & ~pick[m] for m in range(q)]
        for i in range(q):
            t[i][i] = t[i][i] - abs2(r[j, i])
            for m in range(i + 1, q):
                t[i][m] = t[i][m] - conj(r[j, i]) * r[j, m]
    return np.moveaxis(r, (0, 1), (-2, -1))


def _entries(x) -> np.ndarray:
    """x with its matrix axes first and its batch axes contiguous, so that
    entry [k][j] is one contiguous row (a scalar when x is unbatched)."""
    return np.ascontiguousarray(np.moveaxis(np.asarray(x), (-2, -1), (0, 1)))


def _dot(xs, ys):
    """The sum of x * y over the pairs, added in order from the first."""
    prods = [x * y for x, y in zip(xs, ys)]
    return sum(prods[1:], prods[0])


def same(x: np.ndarray) -> np.ndarray:
    """x itself: the conjugate over R."""
    return x


def abs2(x: np.ndarray) -> np.ndarray:
    """|x|^2 elementwise, without the square root of np.abs."""
    return x * x if not np.iscomplexobj(x) else x.real * x.real + x.imag * x.imag


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
