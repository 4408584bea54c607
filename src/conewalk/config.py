"""The one reader of config values.

Every config field is declared once, as a Row(name, kind, default,
condition, message) of a table, and read reads any table, matrix entries
included.  Each table sits beside what it describes: each family's and
each axioms check's in :mod:`experiments`, each law kind's in
:mod:`radial_laws` and the head fields in :mod:`harness`.  Rules that tie
fields together stay as code there.  A refusal is a ConfigError naming
its field.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import cone_linalg as cl
from .errors import ConeViolationError, ConfigError

REQUIRED = object()  # the default of a field that must be given


def canonical_json(cfg: dict) -> str:
    """cfg's one JSON text: compact, keys sorted, no NaN.  It is hashed
    into a run's config_sha256 and keys the law cache."""
    return json.dumps(cfg, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _is_finite_number(x) -> bool:
    # NaN compares false, and an int too large for a float compares exactly
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def typed(field: str, val, kind):
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


class Row(NamedTuple):
    """One config field.  kind is int, float, str, list or dict (read by
    typed), a List, or a reader kind(name, value, cfg) of a structured
    value; default is REQUIRED, a value, or a function of the fields read
    before it; a value that fails cond is a ConfigError saying msg."""

    name: str
    kind: object
    default: object = REQUIRED
    cond: Callable | None = None
    msg: str = ""


class List(NamedTuple):
    """The kind of a list whose entries are read by kind and each held to
    cond, an error naming its entry name[i]."""

    kind: object
    cond: Callable | None = None
    msg: str = ""


def read(raw: dict, rows, **cfg) -> dict:
    """cfg with the field of each row read from raw, in order.  A field
    that is absent or null takes its default; a matrix, or a list of
    them, may be given as its square under name_squared, but not both."""
    for name, kind, default, cond, msg in rows:
        if matrix in (kind, getattr(kind, "kind", None)) \
                and raw.get(f"{name}_squared") is not None:
            if raw.get(name) is not None:
                raise ConfigError(name, f"give {name} or {name}_squared, not both")
            name += "_squared"
        if raw.get(name) is not None:
            cfg[name] = value(name, raw[name], kind, cond, msg, cfg)
        elif default is REQUIRED:
            raise ConfigError(name, "missing required field")
        else:
            cfg[name] = default(cfg) if callable(default) else default
    return cfg


def declared(rows) -> set:
    """Each row's name, and name_squared of a matrix row (or list of them):
    read leaves the twin it does not read absent or null."""
    return {r.name for r in rows} | {f"{r.name}_squared" for r in rows
                                     if matrix in (r.kind, getattr(r.kind, "kind", None))}


def value(name: str, val, kind, cond, msg: str, cfg: dict):
    """val read by kind and held to cond, else a ConfigError naming name."""
    if isinstance(kind, List):
        val = [value(f"{name}[{i}]", v, *kind, cfg)
               for i, v in enumerate(typed(name, val, list))]
    elif isinstance(kind, type):
        val = typed(name, val, kind)
    else:
        val = kind(name, val, cfg)
    if cond is not None and not cond(val):
        raise ConfigError(name, msg)
    return val


def nested(name: str, val, selector: Row, tables: dict, rules: Callable) -> tuple:
    """(spec, rules(spec)) of the object val: spec is its selector field,
    then the fields of the table that the selector's value names in
    tables, with no field left over; rules holds spec to its cross-field
    rules.  Errors name their field under name, as name.field; a
    ValueError of rules that is not a ConfigError names name itself."""
    raw = typed(name, val, dict)
    try:
        spec = read(raw, (selector,))
        spec = read(raw, tables[spec[selector.name]], **spec)
        unknown = sorted(set(raw) - declared((selector, *tables[spec[selector.name]])))
        if unknown:
            raise ConfigError(unknown[0], "unknown field")
        checked = rules(spec)
    except ConfigError as exc:
        raise ConfigError(f"{name}.{exc.field}", exc.message) from exc
    except ValueError as exc:  # a RadialLaw constructor's range check
        raise ConfigError(name, str(exc)) from exc
    return spec, checked


def at_least(k):
    return (lambda v: v >= k), f"must be >= {k}"


def one_of(options):
    return (lambda v: v in options), f"must be one of {options}"


POSITIVE = (lambda v: v > 0), "must be positive"
NONEMPTY = bool, "must be nonempty"
FIELD = Row("field", str, cl.REAL, *one_of(cl.FIELDS))


def dims(cfg: dict) -> tuple[int, str]:
    """(q, field) of the fields read so far: their q with its field or d,
    else their law's, else 1 with their field (a law's) or real."""
    if "q" in cfg:
        return cfg["q"], cfg["field"] if "field" in cfg else cl.field_of_dim(cfg["d"])
    if "law" in cfg:
        return cfg["law"]["q"], cfg["law"]["field"]
    return 1, cfg.get("field", cl.REAL)


def matrix(name: str, val, cfg: dict) -> list:
    """The JSON echo of the hermitian part of a PSD matrix over the field
    of the fields read so far: a list of rows of finite numbers, over C of
    numbers or of [re, im] pairs, or at q = 1 the one number alone; after
    a q it is q x q.  Read under name_squared it is the square of a PSD
    matrix, and its root is taken to check it."""
    q, field = dims(cfg)
    rows = (value(name, val, List(List(entry)), None, "", cfg) if isinstance(val, list)
            else [[typed(name, val, float)]])
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ConfigError(name, "expected a square matrix")
    if "q" in cfg and len(rows) != q:
        raise ConfigError(name, f"expected a {q}x{q} matrix")
    if len({isinstance(x, list) for row in rows for x in row}) > 1:
        raise ConfigError(name, "entries must be all numbers or all [re, im] pairs")
    mat = to_matrix(rows, field)
    if not np.all(np.isfinite(mat)):
        raise ConfigError(name, "entries too large: the hermitian part overflows")
    squared = name.split("[")[0].endswith("_squared")
    try:
        (cl.psd_sqrt if squared else cl.clamp_psd)(mat)
    except ConeViolationError as exc:
        raise ConfigError(name, f"must be PSD: {exc}") from exc
    return (mat.real if field == cl.REAL else np.stack([mat.real, mat.imag], -1)).tolist()


def entry(name: str, val, cfg: dict):
    """A matrix entry: a finite number, or over C an [re, im] pair."""
    if isinstance(val, list) and dims(cfg)[1] == cl.COMPLEX:
        return value(name, val, List(float), lambda v: len(v) == 2,
                     "must be an [re, im] pair", cfg)
    return typed(name, val, float)


def to_matrix(s, field: str) -> np.ndarray:
    """The hermitian part of the square matrix s over field, else ValueError."""
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


def matrix_from_spec(spec: dict, key: str, field: str) -> np.ndarray:
    """The matrix under key of a read spec, or the PSD root of key_squared."""
    if f"{key}_squared" in spec:
        return cl.psd_sqrt(to_matrix(spec[f"{key}_squared"], field))
    return to_matrix(spec[key], field)
