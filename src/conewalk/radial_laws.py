"""Catalogue of sampleable radial laws on the PSD cone with moment metadata.

A law is a probability measure on the cone of PSD q x q matrices; scalar
laws embed as 1 x 1 matrices so the q = 1 case and the matrix case share
one interface.  Every shipped variant has a finite fourth moment.

Moment conventions: m_k is the k-th moment of the Hilbert-Schmidt norm,
sigma2 is the matrix-valued second moment E[s^2], and sigma2_image_cov is
the covariance of vec(s^2) in the orthonormal hermitian coordinates of
:mod:`cone_linalg` (the limit covariance of the large-index CLTs).

Each law kind's config fields are a table here, read by :mod:`config`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cone_linalg as cl
from .config import FIELD, REQUIRED, List, Row, matrix, nested, to_matrix
from .errors import ConfigError

_SCALAR_KINDS = ("two_point", "log_normal", "uniform")

# trapezoid nodes y = log u over [-40, 40] for the half-integer Wishart moments
_HALF_STEP = 1.0 / 16.0
_HALF_Y = np.arange(-640, 641) * _HALF_STEP


@dataclass(frozen=True)
class MomentData:
    """Exact moment metadata of a radial law."""

    q: int
    field: str
    m1: float
    m2: float
    m3: float
    m4: float
    sigma2: np.ndarray
    sigma2_image_cov: np.ndarray

    def __post_init__(self):
        slack = 1e-9 * (1.0 + self.m2 + self.m4)
        if self.m1**2 > self.m2 + slack or self.m2**2 > self.m4 + slack:
            raise ValueError("moment data violates Cauchy-Schwarz ordering")
        if abs(cl.trace_herm(self.sigma2) - self.m2) > 1e-8 * (1.0 + self.m2):
            raise ValueError("tr(sigma2) != m2")
        wmin = float(np.linalg.eigvalsh(cl.herm_part(self.sigma2))[0])
        if wmin < -1e-9 * (1.0 + self.m2):
            raise ValueError("sigma2 is not PSD")

    @property
    def sigma4(self) -> float:
        """(m2)^2; the sigma^4 appearing in the q = 1 moment identities."""
        return self.m2**2


@dataclass(frozen=True)
class RadialLaw:
    """A sampleable radial law.  Use the classmethod constructors."""

    kind: str
    q: int
    field: str
    atom: np.ndarray | None = None
    atoms: np.ndarray | None = None
    weights: np.ndarray | None = None
    # normalized CDF of weights, built once: each draw is one searchsorted
    cdf: np.ndarray | None = None
    a: float | None = None
    b: float | None = None
    p_a: float | None = None
    log_mean: float | None = None
    log_sd: float | None = None
    lo: float | None = None
    hi: float | None = None
    scale: np.ndarray | None = None
    # factor C of scale (C*C = scale), taken once: each draw's Bartlett
    # factor is multiplied by it
    scale_factor: np.ndarray | None = None
    dof: int | None = None

    def __post_init__(self):  # shared by every block of its configs: read-only
        for val in vars(self).values():
            if isinstance(val, np.ndarray):
                val.flags.writeable = False

    # -- constructors ------------------------------------------------------

    @classmethod
    def point_mass(cls, atom, field: str = cl.REAL) -> "RadialLaw":
        atom = cl.clamp_psd(to_matrix(atom, field))
        return cls(kind="point_mass", q=atom.shape[-1], field=field, atom=atom)

    @classmethod
    def finite_mixture(cls, atoms, weights, field: str = cl.REAL) -> "RadialLaw":
        # one clamp for the whole stack: each atom's bits are those of its own clamp
        atoms = cl.clamp_psd(np.stack([to_matrix(s, field) for s in atoms]))
        weights = np.array(weights, dtype=np.float64)
        if weights.shape != (atoms.shape[0],):
            raise ValueError("weights must match the number of atoms")
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1 within 1e-12")
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        return cls(kind="finite_mixture", q=atoms.shape[-1], field=field,
                   atoms=atoms, weights=weights, cdf=cdf)

    @classmethod
    def two_point(cls, a: float, b: float, p_a: float, field: str = cl.REAL) -> "RadialLaw":
        if a < 0 or b < 0:
            raise ValueError("two_point atoms must be nonnegative")
        if not 0.0 <= p_a <= 1.0:
            raise ValueError("p_a must be a probability")
        return cls(kind="two_point", q=1, field=field, a=float(a), b=float(b), p_a=float(p_a))

    @classmethod
    def log_normal(cls, log_mean: float, log_sd: float, field: str = cl.REAL) -> "RadialLaw":
        if log_sd <= 0:
            raise ValueError("log_sd must be positive")
        return cls(kind="log_normal", q=1, field=field,
                   log_mean=float(log_mean), log_sd=float(log_sd))

    @classmethod
    def uniform(cls, lo: float, hi: float, field: str = cl.REAL) -> "RadialLaw":
        if lo < 0 or hi <= lo:
            raise ValueError("uniform law requires 0 <= lo < hi")
        return cls(kind="uniform", q=1, field=field, lo=float(lo), hi=float(hi))

    @classmethod
    def wishart_root(cls, scale, dof: int, field: str = cl.REAL) -> "RadialLaw":
        scale = cl.clamp_psd(to_matrix(scale, field))
        q = scale.shape[-1]
        if dof < q:
            raise ValueError("wishart_root requires dof >= q")
        return cls(kind="wishart_root", q=q, field=field, scale=scale,
                   scale_factor=cl.psd_factor(scale), dof=int(dof))

    # -- sampling ----------------------------------------------------------

    def sample_scalar(self, rng: np.random.Generator, size) -> np.ndarray:
        """Draw radii as a float array of shape size (q = 1 laws only)."""
        if self.q != 1:
            raise ValueError("scalar sampling requires q = 1")
        if self.kind == "point_mass":
            return np.full(size, float(self.atom[0, 0].real))
        if self.kind == "finite_mixture":
            return self.atoms[:, 0, 0].real[self._mixture_index(rng, size)]
        if self.kind == "two_point":
            # the table (b, a) read at the bytes of u < p_a: np.where on a
            # random mask mispredicts its branches
            hit = np.less(rng.random(size), self.p_a)
            return np.array((self.b, self.a)).take(hit.view(np.uint8))
        if self.kind == "log_normal":
            return np.exp(rng.normal(self.log_mean, self.log_sd, size))
        if self.kind == "uniform":
            return rng.uniform(self.lo, self.hi, size)
        if self.kind == "wishart_root":
            return np.sqrt(float(self.scale[0, 0].real)
                           * _bartlett_diag(self.dof, self.field, rng, size))
        raise ValueError(f"unknown law kind {self.kind!r}")

    def _mixture_index(self, rng: np.random.Generator, size) -> np.ndarray:
        # the draws and stream state of rng.choice(len(w), size, p=w), which
        # rebuilds and checks the CDF on every call
        return self.cdf.searchsorted(rng.random(size), side="right")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw factors L of the increments' Gram matrices, shape
        (size, q, q): L*L = s^2 for a draw s of the law.  For the atom and
        scalar kinds L is s itself; for wishart_root it is the upper
        Bartlett factor of a Wishart(I_q, dof) draw times the scale's
        factor, with no root per draw.  Every walk and check reads only
        L*L, whose law does not depend on the factor (see
        :func:`cone_linalg.cone_step`)."""
        if self.kind == "point_mass":
            return np.broadcast_to(self.atom, (size,) + self.atom.shape).copy()
        if self.kind == "finite_mixture":
            return self.atoms[self._mixture_index(rng, size)]
        if self.kind in _SCALAR_KINDS:
            out = self.sample_scalar(rng, size)[:, None, None]
            return out if self.field == cl.REAL else out.astype(np.complex128)
        if self.kind == "wishart_root":
            u = np.zeros((size, self.q, self.q), dtype=cl.field_dtype(self.field))
            for i, col in enumerate(bartlett_columns(self.dof, self.q, self.field, rng, size)):
                u[:, :i + 1, i] = np.stack(col, axis=-1)
            return (u.reshape(-1, self.q) @ self.scale_factor).reshape(u.shape)
        raise ValueError(f"unknown law kind {self.kind!r}")


def law_from_spec(spec: dict) -> RadialLaw:
    """The law of a JSON law spec (the harness law sub-schema), read by
    its kind's table in _LAWS.  A refusal is a ConfigError naming law or
    law.<field>."""
    return law_spec("law", spec)[1]


def moments(law: RadialLaw) -> MomentData:
    """Exact moment metadata of every law in the catalogue."""
    if law.kind == "point_mass":
        return _atomic_moments(law, law.atom[None, ...], np.array([1.0]))
    if law.kind == "finite_mixture":
        return _atomic_moments(law, law.atoms, law.weights)
    if law.kind in _SCALAR_KINDS:
        mk = _scalar_raw_moments(law)
        sigma2 = np.array([[mk[2]]])
        img = np.array([[mk[4] - mk[2] ** 2]])
        return MomentData(q=1, field=law.field, m1=mk[1], m2=mk[2], m3=mk[3], m4=mk[4],
                          sigma2=sigma2 if law.field == cl.REAL else sigma2.astype(np.complex128),
                          sigma2_image_cov=img)
    if law.kind == "wishart_root":
        return _wishart_moments(law)
    raise ValueError(f"unknown law kind {law.kind!r}")


# -- helpers ---------------------------------------------------------------


def std_entries(rng: np.random.Generator, shape, field: str) -> np.ndarray:
    """I.i.d. standard entries with E|g|^2 = 1 over the given field."""
    if field == cl.REAL:
        return rng.standard_normal(shape)
    re = rng.standard_normal(shape)
    return (re + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _bartlett_diag(dof: float, field: str, rng: np.random.Generator, n) -> np.ndarray:
    """Squared Bartlett diagonal: chi-square(dof) over R, gamma(dof) over C."""
    return rng.chisquare(dof, n) if field == cl.REAL else rng.gamma(dof, 1.0, n)


def bartlett_columns(dof: float, q: int, field: str, rng: np.random.Generator,
                     n: int) -> list:
    """The columns of an upper Bartlett factor U of W ~ Wishart(I_q, dof),
    W = U*U, drawn one at a time: column i is i standard entries, taken
    conjugate, above U[i, i] = sqrt(_bartlett_diag(dof - i)), each a (n,)
    row."""
    cols = []
    for i in range(q):
        diag = np.sqrt(_bartlett_diag(dof - i, field, rng, n))
        cols.append([*np.conj(std_entries(rng, (n, i), field)).T, diag])
    return cols


def _scalar_raw_moments(law: RadialLaw) -> dict[int, float]:
    ks = (1, 2, 3, 4)
    if law.kind == "two_point":
        return {k: law.p_a * law.a**k + (1 - law.p_a) * law.b**k for k in ks}
    if law.kind == "log_normal":
        return {k: float(np.exp(k * law.log_mean + 0.5 * k**2 * law.log_sd**2)) for k in ks}
    if law.kind == "uniform":
        lo, hi = law.lo, law.hi
        return {k: (hi ** (k + 1) - lo ** (k + 1)) / ((k + 1) * (hi - lo)) for k in ks}
    raise ValueError(law.kind)


def _atomic_moments(law: RadialLaw, atoms: np.ndarray, weights: np.ndarray) -> MomentData:
    sq = np.einsum("nij,njk->nik", atoms, atoms)
    norms = cl.frob_norm(atoms)
    mk = [float(np.sum(weights * norms**k)) for k in (1, 2, 3, 4)]
    sigma2 = cl.herm_part(np.einsum("n,nij->ij", weights, sq))
    vec = cl.vectorize_herm(sq, law.field)
    mean_vec = weights @ vec
    img = np.einsum("n,ni,nj->ij", weights, vec, vec) - np.outer(mean_vec, mean_vec)
    img = 0.5 * (img + img.T)
    return MomentData(q=law.q, field=law.field, m1=mk[0], m2=mk[1], m3=mk[2], m4=mk[3],
                      sigma2=sigma2, sigma2_image_cov=img)


def _wishart_moments(law: RadialLaw) -> MomentData:
    """Moments of s = W^(1/2) with W = s^2 ~ Wishart_q(Sigma, dof) over the
    field (Muirhead 1982, Sec. 3.2), Sigma = law.scale."""
    d, dof, sigma = cl.field_dim(law.field), law.dof, law.scale
    sigma2 = dof * sigma
    m2 = float(cl.trace_herm(sigma2))
    m4 = m2**2 + (2.0 / d) * dof * float(cl.frob_norm(sigma)) ** 2
    e_sigma = cl.herm_basis(law.q, law.field) @ sigma
    img = (2.0 / d) * dof * np.einsum("aij,bji->ab", e_sigma, e_sigma).real
    img = 0.5 * (img + img.T)
    # ||s||^2 = tr W is a sum of Gamma(d dof / 2) variables of scales theta_i
    theta = (2.0 / d) * np.maximum(np.linalg.eigvalsh(sigma), 0.0)
    m1, m3 = _half_moments(theta, d * dof / 2.0, m2)
    return MomentData(q=law.q, field=law.field, m1=m1, m2=m2, m3=m3, m4=m4,
                      sigma2=sigma2, sigma2_image_cov=img)


def _half_moments(theta: np.ndarray, k: float, mean: float) -> tuple[float, float]:
    """E X^(1/2) and E X^(3/2) of X = sum_i theta_i Gamma_i(k), E X = mean.

    With L(t) = E exp(-t X) = prod_i (1 + theta_i t)^-k they are
    (2/sqrt(pi)) int_0^inf -L'(u^2) du and (2/sqrt(pi)) int_0^inf L''(u^2) du,
    taken by the trapezoid rule in y = log u around u = mean^(-1/2).  In y
    the integrands are analytic and decay exponentially at both ends, so
    the rule converges geometrically in the step.
    """
    y = _HALF_Y - 0.5 * np.log(mean or 1.0)  # mean 0: theta = 0, both vanish
    tu = np.exp(2.0 * y)[:, None] * theta
    w = theta / (1.0 + tu)
    s1 = k * w.sum(axis=1)
    s2 = k * (w * w).sum(axis=1)
    weight = np.exp(y - k * np.log1p(tu).sum(axis=1)) * (2.0 / np.sqrt(np.pi) * _HALF_STEP)
    return float(weight @ s1), float(weight @ (s1 * s1 + s2))


# -- law-kind tables -------------------------------------------------------


def _payload_q(cfg: dict) -> int:
    """The size of the payload of a law read so far, its first field after
    kind and field: a square matrix or a list of them, so the length of
    its first entry is the size either way; 1 at a scalar law."""
    payload = list(cfg.values())[2]
    return len(payload[0]) if isinstance(payload, list) else 1


# each law kind's fields, between kind and field and a last q that defaults
# to the size of the payload (_build holds a declared q to it); a matrix
# payload may be given squared
_LAWS = {kind: (FIELD, *rows, Row("q", int, _payload_q)) for kind, rows in {
    "point_mass": (Row("atom", matrix),),
    "finite_mixture": (Row("atoms", List(matrix), REQUIRED,
                           lambda atoms: len({len(a) for a in atoms}) == 1,
                           "must be a nonempty list of matrices of one size"),
                       Row("weights", List(float))),
    "two_point": (Row("a", float), Row("b", float), Row("p_a", float)),
    "log_normal": (Row("log_mean", float), Row("log_sd", float)),
    "uniform": (Row("lo", float), Row("hi", float)),
    "wishart_root": (Row("scale", matrix), Row("dof", int)),
}.items()}
KINDS = tuple(_LAWS)
_KIND = Row("kind", str, REQUIRED, lambda v: v in KINDS,
            f"unknown law kind: must be one of {KINDS}")


def law_spec(name: str, val) -> tuple[dict, RadialLaw]:
    """The canonical law spec val, read by its kind's table, and its law,
    built to hold the spec to the RadialLaw constructors' range checks.
    Matrices are hermitized, never rebuilt through an eigenbasis, so the
    spec read again is itself."""
    return nested(name, val, _KIND, _LAWS, _build)


def _build(spec: dict) -> RadialLaw:
    """The law of a spec read by its kind's table: each parameter passed by
    name, and a payload given squared as its PSD root (a list of atoms as
    one stack).  A declared q must be the payload's size."""
    field, args = spec["field"], {}
    for key, val in spec.items():
        if key == "atoms_squared":
            args["atoms"] = cl.psd_sqrt(np.stack([to_matrix(s, field) for s in val]))
        elif key.endswith("_squared"):
            args[key.removesuffix("_squared")] = cl.psd_sqrt(to_matrix(val, field))
        elif key not in ("kind", "field", "q"):
            args[key] = val
    law = getattr(RadialLaw, spec["kind"])(**args, field=field)
    if law.q != spec["q"]:
        raise ConfigError("q", f"declared q={spec['q']} but payload implies q={law.q}")
    return law
