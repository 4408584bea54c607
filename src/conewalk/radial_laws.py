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

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import cone_linalg as cl
from .errors import ConeViolationError, ConfigError

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
        atom = cl.clamp_psd(_to_matrix(atom, field))
        return cls(kind="point_mass", q=atom.shape[-1], field=field, atom=atom)

    @classmethod
    def finite_mixture(cls, atoms, weights, field: str = cl.REAL) -> "RadialLaw":
        # one clamp for the whole stack: each atom's bits are those of its own clamp
        atoms = cl.clamp_psd(np.stack([_to_matrix(s, field) for s in atoms]))
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
        scale = cl.clamp_psd(_to_matrix(scale, field))
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
            for i, col in enumerate(_bartlett_columns(self.dof, self.q, self.field, rng, size)):
                u[:, :i + 1, i] = np.stack(col, axis=-1)
            return (u.reshape(-1, self.q) @ self.scale_factor).reshape(u.shape)
        raise ValueError(f"unknown law kind {self.kind!r}")


def law_from_spec(spec: dict) -> RadialLaw:
    """The law of a JSON law spec (the harness law sub-schema), read by
    its kind's table in _LAWS.  A refusal is a ConfigError naming law or
    law.<field>."""
    return _law_spec("law", spec)[1]


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


def _matrix_from_spec(spec: dict, key: str, field: str) -> np.ndarray:
    if f"{key}_squared" in spec:
        return cl.psd_sqrt(_to_matrix(spec[f"{key}_squared"], field))
    return _to_matrix(spec[key], field)


def _std_entries(rng: np.random.Generator, shape, field: str) -> np.ndarray:
    """I.i.d. standard entries with E|g|^2 = 1 over the given field."""
    if field == cl.REAL:
        return rng.standard_normal(shape)
    re = rng.standard_normal(shape)
    return (re + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _bartlett_diag(dof: float, field: str, rng: np.random.Generator, n) -> np.ndarray:
    """Squared Bartlett diagonal: chi-square(dof) over R, gamma(dof) over C."""
    return rng.chisquare(dof, n) if field == cl.REAL else rng.gamma(dof, 1.0, n)


def _bartlett_columns(dof: float, q: int, field: str, rng: np.random.Generator,
                      n: int) -> list:
    """The columns of an upper Bartlett factor U of W ~ Wishart(I_q, dof),
    W = U*U, drawn one at a time: column i is i standard entries, taken
    conjugate, above U[i, i] = sqrt(_bartlett_diag(dof - i)), each a (n,)
    row."""
    cols = []
    for i in range(q):
        diag = np.sqrt(_bartlett_diag(dof - i, field, rng, n))
        cols.append([*np.conj(_std_entries(rng, (n, i), field)).T, diag])
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


# -- config reader -----------------------------------------------------------
#
# Every config field is declared once, as a _Row(name, kind, default,
# condition, message) of a table, and _read reads any table: each family's
# and each axioms check's in experiments.py, and each law kind's in _LAWS,
# matrix entries included.  Rules that tie fields together stay as code.


_REQUIRED = object()  # the default of a field that must be given


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
        if isinstance(val, int) and not isinstance(val, bool):  # too long to echo
            # digits without str, which refuses 4,300: the bit length gives them or one less
            digits = int(math.log10(2) * (abs(val).bit_length() - 1)) + 1
            digits += abs(val) >= 10**digits
            raise ConfigError(field, f"expected {name}, got an integer of "
                                     f"{digits} digits, past the float64 range")
        raise ConfigError(field, f"expected {name}, got {val!r}")
    if not isinstance(val, kind):
        raise ConfigError(field, f"expected {kind.__name__}, got {type(val).__name__}")
    return val


class _Row(NamedTuple):
    """One config field.  kind is int, float, str, list or dict (read by
    _typed), a _List, or a reader kind(name, value, cfg) of a structured
    value; default is _REQUIRED, a value, or a function of the fields read
    before it; a value that fails cond is a ConfigError saying msg."""

    name: str
    kind: object
    default: object = _REQUIRED
    cond: Callable | None = None
    msg: str = ""


class _List(NamedTuple):
    """The kind of a list whose entries are read by kind and each held to
    cond, an error naming its entry name[i]."""

    kind: object
    cond: Callable | None = None
    msg: str = ""


def _read(raw: dict, rows, **cfg) -> dict:
    """cfg with the field of each row read from raw, in order.  A field
    that is absent or null takes its default; a matrix, or a list of
    them, may be given as its square under name_squared, but not both."""
    for name, kind, default, cond, msg in rows:
        if _matrix in (kind, getattr(kind, "kind", None)) \
                and raw.get(f"{name}_squared") is not None:
            if raw.get(name) is not None:
                raise ConfigError(name, f"give {name} or {name}_squared, not both")
            name += "_squared"
        if raw.get(name) is not None:
            cfg[name] = _value(name, raw[name], kind, cond, msg, cfg)
        elif default is _REQUIRED:
            raise ConfigError(name, "missing required field")
        else:
            cfg[name] = default(cfg) if callable(default) else default
    return cfg


def _declared(rows) -> set:
    """Each row's name, and name_squared of a matrix row (or list of them):
    _read leaves the twin it does not read absent or null."""
    return {r.name for r in rows} | {f"{r.name}_squared" for r in rows
                                     if _matrix in (r.kind, getattr(r.kind, "kind", None))}


def _value(name: str, val, kind, cond, msg: str, cfg: dict):
    """val read by kind and held to cond, else a ConfigError naming name."""
    if isinstance(kind, _List):
        val = [_value(f"{name}[{i}]", v, *kind, cfg)
               for i, v in enumerate(_typed(name, val, list))]
    elif isinstance(kind, type):
        val = _typed(name, val, kind)
    else:
        val = kind(name, val, cfg)
    if cond is not None and not cond(val):
        raise ConfigError(name, msg)
    return val


def _nested(name: str, val, selector: _Row, tables: dict, rules: Callable) -> tuple:
    """(spec, rules(spec)) of the object val: spec is its selector field,
    then the fields of the table that the selector's value names in
    tables, with no field left over; rules holds spec to its cross-field
    rules.  Errors name their field under name, as name.field; a
    ValueError of rules that is not a ConfigError names name itself."""
    raw = _typed(name, val, dict)
    try:
        spec = _read(raw, (selector,))
        spec = _read(raw, tables[spec[selector.name]], **spec)
        unknown = sorted(set(raw) - _declared((selector, *tables[spec[selector.name]])))
        if unknown:
            raise ConfigError(unknown[0], "unknown field")
        checked = rules(spec)
    except ConfigError as exc:
        raise ConfigError(f"{name}.{exc.field}", exc.message) from exc
    except ValueError as exc:  # a RadialLaw constructor's range check
        raise ConfigError(name, str(exc)) from exc
    return spec, checked


def _at_least(k):
    return (lambda v: v >= k), f"must be >= {k}"


def _one_of(options):
    return (lambda v: v in options), f"must be one of {options}"


_POSITIVE = (lambda v: v > 0), "must be positive"
_NONEMPTY = bool, "must be nonempty"


def _field(d: int) -> str:
    return cl.REAL if d == 1 else cl.COMPLEX


def _dims(cfg: dict) -> tuple[int, str]:
    """(q, field) of the fields read so far: their q with its field or d,
    else their law's, else 1 with their field (a law's) or real."""
    if "q" in cfg:
        return cfg["q"], cfg["field"] if "field" in cfg else _field(cfg["d"])
    if "law" in cfg:
        return cfg["law"]["q"], cfg["law"]["field"]
    return 1, cfg.get("field", cl.REAL)


def _matrix(name: str, val, cfg: dict) -> list:
    """The JSON echo of the hermitian part of a PSD matrix over the field
    of the fields read so far: a list of rows of finite numbers, over C of
    numbers or of [re, im] pairs, or at q = 1 the one number alone; after
    a q it is q x q.  Read under name_squared it is the square of a PSD
    matrix, and its root is taken to check it."""
    q, field = _dims(cfg)
    rows = (_value(name, val, _List(_List(_entry)), None, "", cfg) if isinstance(val, list)
            else [[_typed(name, val, float)]])
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ConfigError(name, "expected a square matrix")
    if "q" in cfg and len(rows) != q:
        raise ConfigError(name, f"expected a {q}x{q} matrix")
    if len({isinstance(x, list) for row in rows for x in row}) > 1:
        raise ConfigError(name, "entries must be all numbers or all [re, im] pairs")
    mat = _to_matrix(rows, field)
    if not np.all(np.isfinite(mat)):
        raise ConfigError(name, "entries too large: the hermitian part overflows")
    squared = name.split("[")[0].endswith("_squared")
    try:
        (cl.psd_sqrt if squared else cl.clamp_psd)(mat)
    except ConeViolationError as exc:
        raise ConfigError(name, f"must be PSD: {exc}") from exc
    return (mat.real if field == cl.REAL else np.stack([mat.real, mat.imag], -1)).tolist()


def _entry(name: str, val, cfg: dict):
    """A matrix entry: a finite number, or over C an [re, im] pair."""
    if isinstance(val, list) and _dims(cfg)[1] == cl.COMPLEX:
        return _value(name, val, _List(float), lambda v: len(v) == 2,
                      "must be an [re, im] pair", cfg)
    return _typed(name, val, float)


def _payload_q(cfg: dict) -> int:
    """The size of the payload of a law read so far, its first field after
    kind and field: a square matrix or a list of them, so the length of
    its first entry is the size either way; 1 at a scalar law."""
    payload = list(cfg.values())[2]
    return len(payload[0]) if isinstance(payload, list) else 1


_FIELD = _Row("field", str, cl.REAL, *_one_of(cl.FIELDS))
# each law kind's fields, between kind and field and a last q that defaults
# to the size of the payload (_build holds a declared q to it); a matrix
# payload may be given squared
_LAWS = {kind: (_FIELD, *rows, _Row("q", int, _payload_q)) for kind, rows in {
    "point_mass": (_Row("atom", _matrix),),
    "finite_mixture": (_Row("atoms", _List(_matrix), _REQUIRED,
                            lambda atoms: len({len(a) for a in atoms}) == 1,
                            "must be a nonempty list of matrices of one size"),
                       _Row("weights", _List(float))),
    "two_point": (_Row("a", float), _Row("b", float), _Row("p_a", float)),
    "log_normal": (_Row("log_mean", float), _Row("log_sd", float)),
    "uniform": (_Row("lo", float), _Row("hi", float)),
    "wishart_root": (_Row("scale", _matrix), _Row("dof", int)),
}.items()}
KINDS = tuple(_LAWS)
_KIND = _Row("kind", str, _REQUIRED, lambda v: v in KINDS,
             f"unknown law kind: must be one of {KINDS}")


def _law_spec(name: str, val) -> tuple[dict, RadialLaw]:
    """The canonical law spec val, read by its kind's table, and its law,
    built to hold the spec to the RadialLaw constructors' range checks.
    Matrices are hermitized, never rebuilt through an eigenbasis, so the
    spec read again is itself."""
    return _nested(name, val, _KIND, _LAWS, _build)


def _build(spec: dict) -> RadialLaw:
    """The law of a spec read by its kind's table: each parameter passed by
    name, and a payload given squared as its PSD root (a list of atoms as
    one stack).  A declared q must be the payload's size."""
    field, args = spec["field"], {}
    for key, val in spec.items():
        if key == "atoms_squared":
            args["atoms"] = cl.psd_sqrt(np.stack([_to_matrix(s, field) for s in val]))
        elif key.endswith("_squared"):
            args[key.removesuffix("_squared")] = cl.psd_sqrt(_to_matrix(val, field))
        elif key not in ("kind", "field", "q"):
            args[key] = val
    law = getattr(RadialLaw, spec["kind"])(**args, field=field)
    if law.q != spec["q"]:
        raise ConfigError("q", f"declared q={spec['q']} but payload implies q={law.q}")
    return law
