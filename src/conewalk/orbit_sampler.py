"""Walk engine: radial random matrices on p x q space and walks on the PSD cone.

A radial random matrix with radial part s is X = Q s, where Q is a Haar
frame on the Stiefel manifold of orthonormal q-frames in F^p.  The group
walk S_n = X_1 + ... + X_n is tracked either

* directly, accumulating the running p x q sum ("direct"), or
* through its radial part alone ("polar"): conditionally on the past, the
  radial part a of S_{n-1} couples to the new increment only through
  v = U* Q, the top q x q block of a Haar frame, giving the exact update
  a^2 <- a^2 + s^2 + a v s + s v* a.  The walk carries a factor R of
  S_n* S_n = R*R, not the root a, and the increment's factor L from
  :meth:`RadialLaw.sample`: the law of v is bi-unitarily invariant, so
  the update on factors, the cone step :func:`cone_linalg.cone_step`, has
  the same law and needs one Cholesky step, no root.  It costs O(q^3)
  per step regardless of p, which makes dimensions like p = 1e5 feasible.

The block v is G1 R^(-1), with R the Cholesky factor of G1*G1 + W and
W ~ Wishart(I_q, nu) at nu = p - q (:func:`haar_block`): a closed form in
O(q^3), with no eigensolver.  At the real nu = 2 mu / d - q it is
the contraction of the index-mu walk of :mod:`bessel`.  So the polar
group walk at p is the index-mu walk at mu = d p / 2, and both run on one
engine keyed by nu, :func:`run_cone_walks`, with v drawn by
:func:`cone_block`, as in every check.  "direct" is the literal
construction and serves as the oracle in equivalence tests.  Every walk
runs through the one checkpointed driver :func:`drive_walk`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cone_linalg as cl
from .errors import NumericalFailureError
from .radial_laws import RadialLaw, bartlett_columns, std_entries

# the two walk routes; polar is the default at every p
METHODS = ("direct", "polar")


def sample_stiefel_frame(p: int, q: int, field: str, rng: np.random.Generator,
                         size: int) -> np.ndarray:
    """size Haar-distributed orthonormal q-frames in F^p, shape (size, p, q).

    Gaussian matrix G followed by thin QR with the R-diagonal phase forced
    positive, which makes the factorization unique and the law exactly
    invariant under left multiplication by any fixed unitary.  At q = 1
    that frame is g / ||g||, taken without QR; a zero column gives e_1, as
    in QR.
    """
    if p < q:
        raise ValueError("stiefel frame requires p >= q")
    g = std_entries(rng, (size, p, q), field)
    if q == 1:
        norm = np.linalg.norm(g, axis=1, keepdims=True)
        zero = norm[:, 0, 0] == 0.0
        g[zero, 0, 0] = norm[zero] = 1.0
        g /= norm
        return g
    qmat, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    mod = np.abs(diag)
    safe = np.where(mod > 0, mod, 1.0)
    phase = np.where(mod > 0, diag / safe, 1.0)
    return qmat * np.conj(phase)[..., None, :]


def haar_block(nu: float, q: int, field: str, rng: np.random.Generator,
               n: int) -> np.ndarray:
    """n draws, shape (n, q, q), of v = G1 R^{-1}: G1 a standard Gaussian
    q x q block, R the upper Cholesky factor (positive real diagonal) of
    M = G1*G1 + W, W ~ Wishart(I_q, nu) independent.  At nu = p - q, v is
    the top block of a Haar q-frame in F^p; at a real nu > q - 1 its density
    on the contraction ball is proportional to det(I - v*v)^(d (nu-q+1)/2 - 1)
    (Muirhead, Aspects of Multivariate Statistical Theory, 1982, Thm 3.2.14),
    the index-mu contraction density at nu = 2 mu / d - q.  Any R = f(M)
    with R*R = M gives v that law:
    * (G1, M) has density proportional to etr(-M/2) det(M - G1*G1)^(d (nu-q+1)/2 - 1);
    * under G1 = v R, det(M - G1*G1) = det(M) det(I - v*v), with Jacobian
      det(M)^(d q / 2), so v is independent of M with the density above,
      for the symmetric root and the Cholesky factor alike;
    * at an integer 0 < nu <= q - 1, W = G2*G2 for a Gaussian nu x q block
      G2, and v is the top block of the positive-diagonal QR frame of
      [G1; G2], which is Haar.
    Otherwise W = A A* for the lower Bartlett factor A, drawn row by row,
    A[i, i]^2 ~ chi-square(nu - i) (gamma over C).  :func:`cone_block` calls
    this at q >= 2 only; at q = 1 it is the oracle of the walks' sampler.
    """
    if not (nu > q - 1 or (nu == int(nu) and nu >= 1)):
        raise ValueError(f"Wishart degrees of freedom nu={nu} need nu > q - 1 = {q - 1} "
                         "or a positive integer")
    g1 = std_entries(rng, (n, q, q), field)
    if nu > q - 1:
        # column i of A*, with W = (A*)* A*: conj(A[i, :i]) above A[i, i]
        cols = bartlett_columns(nu, q, field, rng, n)
    else:
        g2 = std_entries(rng, (n, int(nu), q), field)
        cols = [list(g2[:, :, i].T) for i in range(q)]
    return _cholesky_solve(g1, cols)


def _cholesky_solve(g: np.ndarray, cols: list) -> np.ndarray:
    """g R^{-1} for the upper Cholesky factor R of M = g*g + h*h, over
    (n, q, q) stacks; cols[i] holds the leading (n,) rows of column i of h,
    zero below and no more than in column i + 1.  Step j reads row j of M
    (its real diagonal and upper triangle only), makes the pivot R[j, j]
    (NumericalFailureError unless finite and above 0) and row j of R, then
    column j of v by forward substitution in v R = g."""
    q = g.shape[-1]
    conj = np.conj if np.iscomplexobj(g) else cl.same
    rows = [[*g[:, :, j].T, *cols[j]] for j in range(q)]
    r, v = {}, np.empty_like(g)
    for j in range(q):
        piv = sum(map(cl.abs2, rows[j])) - sum(cl.abs2(r[k, j]) for k in range(j))
        if not np.all((piv > 0.0) & (piv < np.inf)):
            raise NumericalFailureError("Haar block: G1*G1 + W is not finite positive definite",
                                        payload=g)
        inv = 1.0 / np.sqrt(piv)
        for m in range(j + 1, q):
            r[j, m] = inv * (sum(conj(a) * b for a, b in zip(rows[j], rows[m]))
                             - sum(conj(r[k, j]) * r[k, m] for k in range(j)))
        v[:, :, j] = inv[:, None] * (g[:, :, j] - sum(v[:, :, k] * r[k, j][:, None]
                                                      for k in range(j)))
    return v


def radial_projection_coeff(p: float, field: str, rng: np.random.Generator,
                            size) -> np.ndarray:
    """Real part w of the q = 1 Haar block in F^p, all the q = 1 cone step
    reads, as an array of size draws (a count or a shape).

    Its density (1 - w^2)^((m - 3)/2) on (-1, 1) depends only on the real
    dimension m = d p, so the index-mu walk draws it too, at m = 2 mu.
    m = 1 is a random sign, m = 3 is uniform, m = 5 is the inverse CDF
    2 sin(arcsin(u)/3), taken as 4 h / (1 + h^2) at h = tan(arcsin(u)/6),
    and otherwise w = g / sqrt(g^2 + c) with c ~ chi-square(m - 1).
    """
    m = cl.field_dim(field) * p
    if m == 1:
        return np.sign(rng.standard_normal(size))
    if m == 3:
        return rng.uniform(-1.0, 1.0, size)
    if m == 5:
        # the tangent form: numpy has SIMD loops for float64 tan and arcsin,
        # not for sin
        h = rng.uniform(-1.0, 1.0, size)
        np.arcsin(h, out=h)
        h /= 6.0
        np.tan(h, out=h)
        den = h * h
        den += 1.0
        h *= 4.0
        h /= den
        return h
    g = rng.standard_normal(size)
    c = rng.chisquare(m - 1, size)
    c += g * g
    g /= np.sqrt(c, out=c)
    return g


def cone_block(nu: float, q: int, field: str, rng: np.random.Generator,
               n: int) -> np.ndarray:
    """The v of n cone steps at Wishart index nu, for every walk and check:
    at q = 1 the (n,) real parts Re v, all that the q = 1 step reads, drawn
    at the real dimension m = d (nu + 1); at nu = 0 (p = q) a Haar unitary
    from QR, the whole frame; otherwise (n, q, q) draws of :func:`haar_block`."""
    if q == 1:
        return radial_projection_coeff(nu + 1, field, rng, n)
    if nu == 0:
        return sample_stiefel_frame(q, q, field, rng, n)
    return haar_block(nu, q, field, rng, n)


def sample_radial_matrix(law: RadialLaw, p: int, rng: np.random.Generator,
                         size: int) -> np.ndarray:
    """size radial random matrices X = Q L, shape (size, p, q), with Q Haar
    and L independent, the factor :meth:`RadialLaw.sample` draws; Q is
    drawn first.

    By construction X*X equals L*L, the drawn Gram matrix s^2, exactly;
    X = (Q W) s for the unitary W of L's polar decomposition L = W s, and
    Q W is Haar.  :func:`sample_stiefel_frame` refuses p < q.
    """
    return sample_stiefel_frame(p, law.q, law.field, rng, size) @ law.sample(rng, size)


@dataclass(frozen=True)
class GroupWalkConfig:
    """Parameters of a group-case radial walk."""

    p: int
    q: int
    field: str
    n_steps: int
    law: RadialLaw
    checkpoints: tuple[int, ...]
    method: str = "polar"

    def __post_init__(self):
        cl.check_field(self.field)
        if self.q < 1 or self.p < self.q:
            raise ValueError("walks require p >= q >= 1")
        if self.law.q != self.q or self.law.field != self.field:
            raise ValueError("law dimensions do not match the walk")
        cps = checkpoint_tuple(self.checkpoints, self.n_steps)
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        object.__setattr__(self, "checkpoints", cps)


def checkpoint_tuple(checkpoints, n_steps: int) -> tuple[int, ...]:
    """Walk checkpoints as a nonempty, sorted, unique tuple in [1, n_steps]."""
    cps = tuple(int(c) for c in checkpoints)
    if not cps or list(cps) != sorted(set(cps)):
        raise ValueError("checkpoints must be nonempty, sorted, unique")
    if cps[0] < 1 or cps[-1] > n_steps:
        raise ValueError("checkpoints must lie in [1, n_steps]")
    return cps


def drive_walk(state, step, record, checkpoints: tuple[int, ...]) -> np.ndarray:
    """Checkpointed walk driver shared by every walk.

    Applies ``state = step(state)`` up to the last checkpoint (no further,
    so nothing is drawn that no checkpoint reads) and stacks
    ``record(state)`` at each checkpoint along a new leading axis.
    Overflow inside the loop is not warned about; a non-finite recorded
    value raises NumericalFailureError instead.
    """
    values = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, checkpoints[-1] + 1):
            state = step(state)
            if k == checkpoints[len(values)]:
                values.append(record(state))
    out = np.stack(values)
    if not np.all(np.isfinite(out)):
        raise NumericalFailureError("walk accumulation overflowed", payload=None)
    return out


def zero_radial(q: int, field: str, n: int) -> np.ndarray:
    """State of n walks at S_0 = 0: (n,) reals for q = 1, else (n, q, q)."""
    return np.zeros(n) if q == 1 else np.zeros((n, q, q), dtype=cl.field_dtype(field))


def square_radial(a: np.ndarray) -> np.ndarray:
    """S_n* S_n from the walk's state: a * a for q = 1 batches, else a*a
    of the factor a, made exactly hermitian."""
    if a.ndim == 1:
        return a * a
    return cl.herm_part(np.einsum("...ki,...kj->...ij", np.conj(a), a))


def tr_squared(values: np.ndarray) -> np.ndarray:
    """tr(S_n* S_n) per checkpoint and replicate of a walk's record, always
    real: a q = 1 record, of shape (checkpoints, replicates), is ||S_n||^2."""
    if values.ndim == 2:
        return values
    return np.trace(values, axis1=-2, axis2=-1).real


def run_cone_walks(law: RadialLaw, nu: float, checkpoints, rng: np.random.Generator,
                   replicates: int) -> np.ndarray:
    """Simulate a batch of independent walks on the PSD cone, up to the
    last checkpoint, with steps from law and v from :func:`cone_block` at
    Wishart index nu: the polar group walk at nu = p - q and the index-mu
    walk at nu = 2 mu / d - q; the record is :func:`square_radial`'s.

    S_0 = 0, and each step draws the increment's factor s (its radial
    part at q = 1), then v, and moves the state's factor a to
    cone_step(s, a, v), a factor of s*s + a*a + a* v s + s* v* a.
    """
    q, field, n = law.q, law.field, replicates
    cps = checkpoint_tuple(checkpoints, math.inf)
    draw_s = law.sample_scalar if q == 1 else law.sample

    def step(a):
        s = draw_s(rng, n)
        return cl.cone_step(s, a, cone_block(nu, q, field, rng, n))

    return drive_walk(zero_radial(q, field, n), step, square_radial, cps)


def run_group_walks(cfg: GroupWalkConfig, rng: np.random.Generator,
                    replicates: int) -> np.ndarray:
    """Simulate a batch of independent group-case walks, with the record of
    :func:`run_cone_walks`: the polar route is that engine at nu = p - q,
    and the direct route keeps one running p x q sum of radial matrices
    X = Q L from :func:`sample_radial_matrix`, at every q.
    """
    n, p, q, field, law = replicates, cfg.p, cfg.q, cfg.field, cfg.law
    if cfg.method == "polar":
        return run_cone_walks(law, p - q, cfg.checkpoints, rng, n)

    def step(x):
        x += sample_radial_matrix(law, p, rng, n)
        return x

    def record(x):
        gram = cl.herm_part(np.swapaxes(np.conj(x), -1, -2) @ x)
        return gram[:, 0, 0].real if q == 1 else gram

    return drive_walk(np.zeros((n, p, q), dtype=cl.field_dtype(field)), step, record,
                      cfg.checkpoints)
