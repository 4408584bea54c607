"""Catalogue of sampleable radial laws on the PSD cone with moment metadata.

A law is a probability measure on the cone of PSD q x q matrices; scalar
laws embed as 1 x 1 matrices so the q = 1 case and the matrix case share
one interface.  Every shipped variant has a finite fourth moment.

Moment conventions: m_k is the k-th moment of the Hilbert-Schmidt norm,
sigma2 is the matrix-valued second moment E[s^2], and sigma2_image_cov is
the covariance of vec(s^2) in the orthonormal hermitian coordinates of
:mod:`cone_linalg` (the limit covariance of the large-index CLTs).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from . import cone_linalg as cl
from .errors import ConeViolationError, ConfigError

# the parameters of each kind besides "kind", "q" and "field"; a matrix
# law's payload comes first, plain or squared under "<key>_squared"
_PARAMS = {
    "point_mass": ("atom", "atom_squared"),
    "finite_mixture": ("atoms", "atoms_squared", "weights"),
    "two_point": ("a", "b", "p_a"),
    "log_normal": ("log_mean", "log_sd"),
    "uniform": ("lo", "hi"),
    "wishart_root": ("scale", "scale_squared", "dof"),
}
KINDS = tuple(_PARAMS)
_SCALAR_KINDS = ("two_point", "log_normal", "uniform")
_NUMBER_KEYS = ("a", "b", "p_a", "log_mean", "log_sd", "lo", "hi")

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
    # PSD root of scale, taken once: each draw multiplies by it
    scale_root: np.ndarray | None = None
    dof: int | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def point_mass(cls, atom, field: str = cl.REAL) -> "RadialLaw":
        atom = _as_psd_atom(atom, field)
        return cls(kind="point_mass", q=atom.shape[-1], field=field, atom=atom)

    @classmethod
    def finite_mixture(cls, atoms, weights, field: str = cl.REAL) -> "RadialLaw":
        # one clamp for the whole stack: each atom's bits are those of its own clamp
        atoms = cl.clamp_psd(np.stack([_to_matrix(s, field) for s in atoms]))
        weights = np.asarray(weights, dtype=np.float64)
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
        scale = _as_psd_atom(scale, field)
        q = scale.shape[-1]
        if dof < q:
            raise ValueError("wishart_root requires dof >= q")
        return cls(kind="wishart_root", q=q, field=field, scale=scale,
                   scale_root=cl.psd_sqrt(scale), dof=int(dof))

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
            u = rng.random(size)
            return np.where(u < self.p_a, self.a, self.b)
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
        """Draw PSD matrices of shape (size, q, q)."""
        if self.kind == "point_mass":
            return np.broadcast_to(self.atom, (size,) + self.atom.shape).copy()
        if self.kind == "finite_mixture":
            return self.atoms[self._mixture_index(rng, size)]
        if self.kind in _SCALAR_KINDS:
            out = self.sample_scalar(rng, size)[:, None, None]
            return out if self.field == cl.REAL else out.astype(np.complex128)
        if self.kind == "wishart_root":
            g = _std_entries(rng, (size, self.dof, self.q), self.field)
            g = g @ self.scale_root
            gram = cl.herm_part(np.swapaxes(np.conj(g), -1, -2) @ g)
            return cl.psd_sqrt(gram)
        raise ValueError(f"unknown law kind {self.kind!r}")


def law_from_spec(spec: dict) -> RadialLaw:
    """Build a law from its JSON description (the harness law sub-schema).

    Matrix-valued entries accept either "atom"/"atoms"/"scale" (the matrix
    itself) or the squared variants "atom_squared"/"atoms_squared" (the PSD
    square root is taken at parse time).  Scalars are accepted for q = 1.
    """
    if not isinstance(spec, dict):
        raise ConfigError("law", "law spec must be an object")
    kind = spec.get("kind")
    if kind not in KINDS:
        raise ConfigError("law.kind", f"unknown law kind {kind!r}; expected one of {KINDS}")
    _check_params(spec, kind)
    field = spec.get("field", cl.REAL)
    try:
        if kind == "point_mass":
            atom = _matrix_from_spec(spec, "atom", field)
            return RadialLaw.point_mass(atom, field=field)
        if kind == "finite_mixture":
            if "atoms_squared" in spec:
                atoms = cl.psd_sqrt(np.stack([_to_matrix(s, field)
                                              for s in spec["atoms_squared"]]))
            elif "atoms" in spec:
                atoms = [_to_matrix(s, field) for s in spec["atoms"]]
            else:
                raise ConfigError("law.atoms", "finite_mixture needs 'atoms' or 'atoms_squared'")
            return RadialLaw.finite_mixture(atoms, spec["weights"], field=field)
        if kind == "two_point":
            return RadialLaw.two_point(spec["a"], spec["b"], spec["p_a"], field=field)
        if kind == "log_normal":
            return RadialLaw.log_normal(spec["log_mean"], spec["log_sd"], field=field)
        if kind == "uniform":
            return RadialLaw.uniform(spec["lo"], spec["hi"], field=field)
        if kind == "wishart_root":
            scale = _matrix_from_spec(spec, "scale", field)
            return RadialLaw.wishart_root(scale, spec["dof"], field=field)
    except KeyError as exc:
        raise ConfigError(f"law.{exc.args[0]}", "missing required law parameter") from exc
    except ValueError as exc:
        raise ConfigError("law", str(exc)) from exc
    except ConeViolationError as exc:
        raise ConfigError(f"law.{_matrix_key(spec)}", f"must be PSD: {exc}") from exc
    raise ConfigError("law.kind", f"unhandled law kind {kind!r}")


def normalize_matrix_spec(value, field: str):
    """Validated, hermitized echo of a matrix config entry.

    Idempotent (hermitizing a hermitian matrix is exact), so canonical
    configs containing matrices round-trip byte-identically.
    """
    return _matrix_to_json(_to_matrix(value, field), field)


def normalize_law_spec(spec: dict) -> dict:
    """Canonical JSON form of a law spec: validated, defaults filled,
    matrix payloads hermitized but never reconstructed through an
    eigenbasis (so canonicalization is idempotent)."""
    law = law_from_spec(spec)  # full validation
    kind = spec["kind"]
    field = spec.get("field", cl.REAL)
    out = {"kind": kind, "q": law.q, "field": field}
    if spec.get("q", law.q) != law.q:
        raise ConfigError("law.q", f"declared q={spec['q']} but payload implies q={law.q}")
    for key in _PARAMS[kind]:
        if key not in spec:
            continue
        if key == "weights":
            out[key] = [float(w) for w in spec[key]]
        elif key in _NUMBER_KEYS:
            out[key] = float(spec[key])
        elif key == "dof":
            out[key] = spec[key]
        elif kind == "finite_mixture":
            out[key] = [normalize_matrix_spec(s, field) for s in spec[key]]
        else:
            out[key] = normalize_matrix_spec(spec[key], field)
    return out


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


def _check_params(spec: dict, kind: str) -> None:
    """Refuse a key the kind does not take, a field outside FIELDS, a q or
    dof that is not an integer and a number or weight that is not finite."""
    for key, val in spec.items():
        name = f"law.{key}"
        if key not in ("kind", "q", "field", *_PARAMS[kind]):
            raise ConfigError(name, "unknown field")
        if f"{key}_squared" in spec:
            raise ConfigError(name, f"give {key} or {key}_squared, not both")
        if key == "field" and val not in cl.FIELDS:
            raise ConfigError(name, f"expected one of {cl.FIELDS}, got {val!r}")
        if key in ("q", "dof"):
            _typed(name, val, int)
        elif key == "weights":
            for i, w in enumerate(_typed(name, val, list)):
                _typed(f"{name}[{i}]", w, float)
        elif key in _NUMBER_KEYS:
            _typed(name, val, float)


def _is_finite_number(x) -> bool:
    # NaN compares false, and an int too large for a float compares exactly
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _typed(field: str, val, kind):
    """val read as kind, else ConfigError naming field: a float is a finite
    int or float within float range, and an int is such an int that is not
    a bool."""
    if kind is int and isinstance(val, int) and _is_finite_number(val):
        return val
    if kind is float and _is_finite_number(val):
        return float(val)
    if kind in (int, float):
        name = "an integer" if kind is int else "a finite number"
        raise ConfigError(field, f"expected {name}, got {val!r}")
    if not isinstance(val, kind):
        raise ConfigError(field, f"expected {kind.__name__}, got {type(val).__name__}")
    return val


def _as_psd_atom(s, field: str) -> np.ndarray:
    mat = _to_matrix(s, field)
    return cl.clamp_psd(mat)


def _to_matrix(s, field: str) -> np.ndarray:
    arr = np.asarray(s)
    if np.iscomplexobj(arr):
        if field == cl.REAL:
            raise ValueError("complex entries in a real-field matrix")
    elif field == cl.COMPLEX:
        arr = np.asarray(arr, dtype=np.float64)
        # JSON form of complex matrices: entries as [re, im] pairs
        if arr.ndim == 3 and arr.shape[-1] == 2:
            arr = arr[..., 0] + 1j * arr[..., 1]
    arr = arr.astype(cl.field_dtype(field))
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return cl.herm_part(arr)


def _matrix_key(spec: dict) -> str:
    """The key a matrix law's payload came under: the plain or the squared one."""
    key = _PARAMS[spec["kind"]][0]
    return f"{key}_squared" if f"{key}_squared" in spec else key


def _matrix_from_spec(spec: dict, key: str, field: str) -> np.ndarray:
    if f"{key}_squared" in spec:
        return cl.psd_sqrt(_to_matrix(spec[f"{key}_squared"], field))
    return _to_matrix(spec[key], field)


def _matrix_to_json(mat: np.ndarray, field: str):
    if field == cl.REAL:
        return [[float(x) for x in row] for row in np.asarray(mat).real]
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(mat)]


def _std_entries(rng: np.random.Generator, shape, field: str) -> np.ndarray:
    """I.i.d. standard entries with E|g|^2 = 1 over the given field."""
    if field == cl.REAL:
        return rng.standard_normal(shape)
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)


def _bartlett_diag(dof: float, field: str, rng: np.random.Generator, n) -> np.ndarray:
    """Squared Bartlett diagonal: chi-square(dof) over R, gamma(dof) over C."""
    return rng.chisquare(dof, n) if field == cl.REAL else rng.gamma(dof, 1.0, n)


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
