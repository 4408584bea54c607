"""General-index convolution on the PSD cone.

The convolution of two point masses at r and s is the law of

    t = sqrt(r^2 + s^2 + s v r + r v* s)

with v drawn from the density proportional to det(I - v v*)^(mu - rho) on
the contraction ball D_q = {v : v*v < I}, rho = d(q - 1/2) + 1.  The big
index mu interpolates the group cases mu = p d / 2; as mu -> infinity the
convolution degenerates to the deterministic semigroup rule
t = sqrt(r^2 + s^2).

The move itself is :func:`cone_linalg.cone_step`, which takes factors of
r^2 and s^2 (r and s themselves among them) and returns a factor R of
t^2 = R*R, its pivoted Cholesky factor: the law of v is invariant under
v -> W1 v W2 for unitaries W1, W2, so any factors give t^2 its law, and
no square root is taken.  The density above is the law of G1 R^(-1), R
the Cholesky factor of G1*G1 + W, for a Gaussian block G1 and
W ~ Wishart(I_q, nu) at the real nu = 2 mu / d - q (Muirhead 1982,
Thm 3.2.14; Roesler, Compositio Math. 143, 2007), drawn by
:func:`orbit_sampler.haar_block`; the group walk takes the integer
nu = p - q.  So the index-mu walk is the walk engine
:func:`orbit_sampler.run_cone_walks` at ``BesselParam.nu``, the group
walk at p being its case mu = d p / 2.  The sampler is exact and
rejection-free over the whole existence range mu > rho - 1.  Close to
mu = rho - 1 the density piles up at the boundary of D_q, and a draw may
round onto it.  Every walk and check draws v by
:func:`orbit_sampler.cone_block`, which at q = 1 draws only Re v, all a
q = 1 step reads, from :func:`orbit_sampler.radial_projection_coeff`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import cone_linalg as cl
from .limit_lab import Moments
from .orbit_sampler import cone_block, drive_walk, square_radial, zero_radial
from .radial_laws import RadialLaw


@dataclass(frozen=True)
class BesselParam:
    """Index triple (mu, q, d) with the critical index rho = d(q-1/2)+1.

    The convolution exists for mu > rho - 1; the large-index comparison
    bounds additionally need mu >= 2 rho, which callers of those bounds
    assert via require_lemma_range().
    """

    mu: float
    q: int
    d: int

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError("d must be 1 (real) or 2 (complex)")
        if self.q < 1:
            raise ValueError("q must be positive")
        if not self.mu > self.rho - 1:
            raise ValueError(
                f"mu={self.mu} outside the existence range mu > rho-1 = {self.rho - 1}")
        if not math.isfinite(self.nu):
            raise ValueError(f"mu={self.mu} too large: the sampler's index "
                             "nu = 2 mu / d - q is not a finite float64 number")

    @property
    def rho(self) -> float:
        return self.d * (self.q - 0.5) + 1.0

    @property
    def field(self) -> str:
        return cl.field_of_dim(self.d)

    @property
    def nu(self) -> float:
        """Wishart degrees of freedom 2 mu / d - q of the contraction sampler."""
        return 2.0 * self.mu / self.d - self.q

    def require_lemma_range(self) -> None:
        if self.mu < 2 * self.rho:
            raise ValueError(
                f"mu={self.mu} below the comparison-bound range mu >= 2*rho = {2 * self.rho}")


def sample_contraction(param: BesselParam, rng: np.random.Generator,
                       size: int) -> np.ndarray:
    """size draws of v by the walks' cone_block at param.nu; (size,) Re v at q = 1."""
    return cone_block(param.nu, param.q, param.field, rng, size)


def _propose(e, q, field, rng, k):
    """k importance-sampling proposals for :func:`kappa_mu`: Gaussian with
    coordinate variance 1/(2e) for e >= 1/2, else uniform on the Frobenius
    ball of radius sqrt(q), which encloses D_q; (k,) for q = 1."""
    dim = cl.field_dim(field) * q * q
    if e >= 0.5:
        shape = k if q == 1 else (k, q, q)
        x = rng.standard_normal(shape)
        if field != cl.REAL:
            x = x + 1j * rng.standard_normal(shape)
        return 1.0 / math.sqrt(2.0 * e) * x
    # uniform on the Frobenius ball of radius sqrt(q) enclosing D_q
    x = rng.standard_normal((k, dim))
    radius = math.sqrt(q) * rng.random(k) ** (1.0 / dim)
    x *= (radius / np.sqrt(np.sum(x * x, axis=1)))[:, None]
    z = x[:, :q * q] if field == cl.REAL else x[:, :q * q] + 1j * x[:, q * q:]
    return z[:, 0] if q == 1 else z.reshape(k, q, q)


def _ball_stats(v, q):
    """(membership of D_q, log det(I - v v*), tr(v v*)) per candidate."""
    if q == 1:
        lam = np.abs(v) ** 2
        in_ball = lam < 1.0
        logdet = np.log1p(-np.where(in_ball, lam, 0.0))
        return in_ball, logdet, lam
    m = np.einsum("...ij,...kj->...ik", v, np.conj(v))
    lam = np.linalg.eigvalsh(cl.herm_part(m))
    lam = np.maximum(lam, 0.0)
    in_ball = lam[..., -1] < 1.0
    safe = np.where(in_ball[..., None], lam, 0.0)
    logdet = np.sum(np.log1p(-safe), axis=-1)
    return in_ball, logdet, np.sum(lam, axis=-1)


def convolve_points(r: np.ndarray, s: np.ndarray, param: BesselParam,
                    rng: np.random.Generator, size: int) -> np.ndarray:
    """size draws, shape (size, q, q), from the convolution of point masses
    at r and s, each as a factor R of t^2 = R*R; r and s may be given as
    any factors of r^2 and s^2; at q = 1 the walks' scalar step reads |r|, |s|."""
    r, s = (np.asarray(x, dtype=cl.field_dtype(param.field)) for x in (r, s))
    v = sample_contraction(param, rng, size)
    if param.q > 1:
        return cl.cone_step(r, s, v)
    return cl.cone_step(np.abs(r[..., 0, 0]), np.abs(s[..., 0, 0]), v)[:, None, None]


def kappa_mu(param: BesselParam, n_samples: int, rng: np.random.Generator) -> Moments:
    """Importance-sampling estimate of the normalization constant.

    kappa = integral over D_q of det(I - v*v)^(mu-rho) dv.  The sampler
    never needs it; this exists for validation against :func:`kappa_exact`.
    Returns the moments of the n_samples importance weights: their mean is
    the estimate, and its standard error is ``se``.  Below mu = rho the
    weights det(I - v*v)^(mu-rho) are unbounded, so such indices are refused.
    """
    e = param.mu - param.rho
    if e < 0:
        raise ValueError(f"kappa estimation requires mu >= rho (mu={param.mu}, rho={param.rho})")
    q, field = param.q, param.field
    dim = cl.field_dim(field) * q * q
    if e >= 0.5:
        const = (math.pi / e) ** (dim / 2.0)
    else:
        # the volume of the Frobenius ball of radius sqrt(q), through poch
        # as in kappa_exact: at q = 1 that ball is D_1, every weight at
        # mu = rho is 1, and the estimate equals the closed form to the bit
        const = (math.pi ** (dim / 2.0) * q ** (dim / 2.0)
                 * special.poch(dim / 2.0 + 1.0, -dim / 2.0))

    in_ball, logdet, tr = _ball_stats(_propose(e, q, field, rng, n_samples), q)
    log_w = e * (logdet + tr) if e >= 0.5 else e * logdet
    m = Moments.of(np.where(in_ball, np.exp(log_w), 0.0))
    # scaled once, so weights that are all exactly 1 (mu = rho) give const
    return Moments(m.count, const * m.mean, const * const * m.M2)


def kappa_exact(param: BesselParam) -> float:
    """kappa = integral over D_q of det(I - v*v)^(mu-rho) dv in closed form,

        pi^(d q^2/2) prod_{j<q} Gamma(mu - d q/2 - j d/2) / Gamma(mu - j d/2),

    by Hua's integral (Faraut & Koranyi, Analysis on Symmetric Cones, 1994).
    Every Gamma argument is positive over the existence range mu > rho - 1.
    Each ratio is the Pochhammer symbol (mu - j d/2)_(-d q/2), which keeps
    its accuracy at large mu, where the two log-gammas would cancel.
    """
    mu, q, d = param.mu, param.q, param.d
    return float(math.pi ** (0.5 * d * q * q) * math.prod(
        special.poch(mu - 0.5 * j * d, -0.5 * d * q) for j in range(q)))


# -- one-dimensional characters ---------------------------------------------


def bessel_character_1d(mu: float, r, s) -> np.ndarray | float:
    """The q = 1 character value j_{mu-1}(r s) = 0F1(mu; -(r s)^2 / 4).

    Evaluated by scipy.special.hyp0f1.  That returns NaN at some arguments
    of large index: in a narrow band of small r s from about mu = 88 on, and
    for most r s from about mu = 300.  There the value is the power series,
    the Taylor expansion scipy itself takes at small arguments.  Where that
    cancels too (its largest term above 1e3), the argument raises ValueError.
    """
    if mu <= 0:
        raise ValueError("character requires mu > 0")
    x = np.asarray(r, dtype=np.float64) * np.asarray(s, dtype=np.float64)
    if np.any(x < 0):
        raise ValueError("character arguments must be nonnegative")
    out = np.array(special.hyp0f1(mu, -0.25 * x * x), dtype=np.float64)
    bad = ~np.isfinite(out)
    if np.any(bad):
        total, largest = _hyp0f1_series(mu, -0.25 * x[bad] * x[bad])
        if np.any(largest > 1e3):
            raise ValueError(f"0F1(mu; -x^2/4) is not finite in float64 and its series "
                             f"cancels at mu={mu}, x={float(np.min(x[bad][largest > 1e3])):.6g}")
        out[bad] = total
    return float(out) if x.ndim == 0 else out


def _hyp0f1_series(mu, z):
    """The first 60 terms of 0F1(mu; z) = sum_k z^k / ((mu)_k k!) summed, and
    the size of the largest.  With that at most 1e3 the rest is negligible:
    the 60th term is below 1e-26 for mu in [1/2, 1e5]."""
    term = np.ones_like(z)
    total = np.ones_like(z)
    largest = np.ones_like(z)
    for k in range(60):
        term = term * z / ((mu + k) * (k + 1.0))
        total += term
        largest = np.maximum(largest, np.abs(term))
    return total, largest


# -- large-index comparison -------------------------------------------------


def paired_composition_diffs(law: RadialLaw, param: BesselParam, n: int, cap: float,
                             reps: int, rng: np.random.Generator) -> np.ndarray:
    """Per-replicate f(S_n with index-mu composition) - f(S_n with the
    semigroup composition), both walks fed the same increments, for the
    test function f(x) = min(tr x^2, cap).  f is root-Lipschitz:
    |f(sqrt(a)) - f(sqrt(b))| <= sqrt(q) ||a - b||.  The increments are
    the law's factors L, and each walk records x^2 = L*L summed (the
    semigroup walk) or R*R of its state's factor R."""
    param.require_lemma_range()
    q = param.q
    # every increment is drawn before any v
    if q == 1:
        s = law.sample_scalar(rng, (reps, n))
        bullet_sq = np.sum(s * s, axis=1)
    else:
        s = law.sample(rng, reps * n).reshape(reps, n, q, q)
        bullet_sq = cl.herm_part(np.einsum("rnki,rnkj->rij", np.conj(s), s))
    increments = iter(np.moveaxis(s, 1, 0))

    def step(a):
        return cl.cone_step(a, next(increments), cone_block(param.nu, q, param.field, rng, reps))

    def f(x2):
        return np.minimum(x2 if q == 1 else cl.trace_herm(x2), cap)

    star_sq = drive_walk(zero_radial(q, param.field, reps), step, square_radial, (n,))[0]
    return np.asarray(f(star_sq) - f(bullet_sq), dtype=np.float64)
