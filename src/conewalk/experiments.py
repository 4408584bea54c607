"""Experiment families run by the batch harness.

Every family implements the same four hooks:

* validate(raw, cfg) -> (cfg, list of warnings): cfg is raw read by :mod:`config`
                        through the family's fields table, held here to its cross-field rules
* plan(cfg)          -> list of block tasks (pure function of the config)
* run_block(cfg, t)  -> picklable partial result
* reduce(cfg, cells) -> dict with columns, rows, aggregates, checks and an
                        optional plot table and replicate text; cells[c]
                        lists the partials of cell c in task order

Replicates are grouped into fixed-size blocks; block i draws from the
random stream keyed by (cell, block, role) under the master seed, so
results are independent of worker count and schedule.  Reduction happens
in task order, which pins floating-point summation order.
"""

from __future__ import annotations

import functools
import json
import math
import re
import sys
from typing import Callable, NamedTuple

import numpy as np
from scipy import special

from . import cone_linalg as cl
from . import limit_lab as lab
from .bessel import (
    BesselParam,
    bessel_character_1d,
    convolve_points,
    kappa_exact,
    kappa_mu,
    paired_composition_diffs,
    sample_contraction,
)
from .config import (
    FIELD,
    NONEMPTY,
    POSITIVE,
    REQUIRED,
    List,
    Row,
    at_least,
    dims,
    matrix,
    matrix_from_spec,
    nested,
    one_of,
    read,
    value,
)
from .errors import ConfigError, DegenerateDataError
from .orbit_sampler import (
    METHODS,
    GroupWalkConfig,
    checkpoint_tuple,
    run_cone_walks,
    run_group_walks,
    tr_squared,
)
from .radial_laws import MomentData, RadialLaw, law_from_spec, law_spec, moments

DEFAULT_BLOCK_SIZE = 8192
MAX_REPLICATE_ROWS = 2_000_000
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")  # output files are named after it


def _task_rng(cfg, task, role=0) -> np.random.Generator:
    """Counter-based stream of one block task: the config's master seed
    plus a (cell, block, role) key."""
    seq = np.random.SeedSequence(entropy=int(cfg["seed"]),
                                 spawn_key=(int(task["cell"]), int(task["block"]), int(role)))
    return np.random.Generator(np.random.Philox(seq))


def plan_blocks(cell_sizes, block_size: int) -> list[dict]:
    """Block tasks in (cell, block) order: each cell's replicate count is
    split into full blocks of block_size and one remainder block."""
    tasks = []
    for cell, reps in enumerate(cell_sizes):
        full, rem = divmod(int(reps), int(block_size))
        sizes = [block_size] * full + ([rem] if rem else [])
        tasks += [{"cell": cell, "block": i, "size": s} for i, s in enumerate(sizes)]
    return tasks


def _pooled(parts, key="m") -> lab.Moments:
    """The moments under key of block partials, merged in task order."""
    return lab.Moments.pooled(p[key] for p in parts)


def diff_over_se(diff, se):
    """A difference in standard errors; at se == 0 an exact match counts as
    0 and any other difference as infinitely many, of the difference's sign."""
    if se > 0:
        return diff / se
    return 0.0 if diff == 0 else math.copysign(math.inf, diff)


def _held(mean, target, se, max_se, **where):
    """|mean - target| and the check fields of a mean held to its target
    within max_se standard errors se; where names the check."""
    diff = abs(mean - target)
    ratio = diff_over_se(diff, se)
    return diff, {**where, "diff_over_se": ratio, "max_se": max_se, "pass": ratio <= max_se}


def _no_rules(raw, cfg):
    """The validate hook of a family with no cross-field rules."""
    return cfg, []


# each canonical spec's [law, moments or None until read], keyed by its JSON
_BUILT_LAWS: dict[str, list] = {}


def _spec_key(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True, allow_nan=False)


def _built(spec: dict) -> list:
    """[law, moments or None] of a canonical spec, built once per process;
    a law field's reader keeps the law it built to check the spec."""
    key = _spec_key(spec)
    if key not in _BUILT_LAWS:
        _BUILT_LAWS[key] = [law_from_spec(spec), None]
    return _BUILT_LAWS[key]


def _law_of(spec: dict) -> RadialLaw:
    return _built(spec)[0]


def _moments_of(spec: dict) -> MomentData:
    """The exact moments of a canonical spec's law, computed once per process."""
    entry = _built(spec)
    if entry[1] is None:
        entry[1] = law_moments(entry[0])
    return entry[1]


def law_moments(law: RadialLaw) -> MomentData:
    """The law's exact moments, computed afresh; the families read them
    once per spec through _moments_of."""
    return moments(law)


def _walks(spec, law, checkpoints, rng, size):
    """A batch of walks of law recorded at checkpoints, the one place a
    config becomes a walk: the index-mu walk of a spec with a mu, else
    the group walk at its p by its method."""
    if "mu" in spec:
        nu = BesselParam(spec["mu"], law.q, cl.field_dim(law.field)).nu
        return run_cone_walks(law, nu, checkpoints, rng, size)
    wcfg = GroupWalkConfig(p=spec["p"], q=law.q, field=law.field, n_steps=checkpoints[-1],
                           law=law, checkpoints=tuple(checkpoints), method=spec["method"])
    return run_group_walks(wcfg, rng, size)


def _support_partial(t, r, s, slack):
    """Points t of the convolution of r and s beyond ||r|| + ||s|| + slack."""
    excess = cl.frob_norm(t) - (cl.frob_norm(r) + cl.frob_norm(s))
    return {"violations": int(np.count_nonzero(excess > slack)),
            "max_excess": float(np.max(excess))}


def _support_totals(parts):
    return sum(p["violations"] for p in parts), max(p["max_excess"] for p in parts)


# -- config tables -----------------------------------------------------------
#
# Each family, and each axioms check, declares its fields once as a table of
# Row(name, kind, default, condition, message), read by config.read.
# Rules that tie fields together stay as code in the family's validate.


def _count(name: str, k: int) -> Row:
    """A required integer field of at least k."""
    return Row(name, int, REQUIRED, *at_least(k))


def _law(name: str, val, cfg: dict) -> dict:
    """The canonical law spec; after a q, its dimensions must match."""
    spec, law = law_spec(name, val)
    q, field = dims(cfg)
    if "q" in cfg and (spec["q"], spec["field"]) != (q, field):
        raise ConfigError(name, f"law dimensions must match q = {q}, field = {field}")
    _BUILT_LAWS.setdefault(_spec_key(spec), [law, None])
    return spec


def _moment_law(name: str, val, cfg: dict) -> dict:
    """A law whose run reads its moments: m1..m4 and m2^2 must be finite
    float64 numbers."""
    spec = _law(name, val, cfg)
    try:
        with np.errstate(all="ignore"):
            md = _moments_of(spec)
        finite = all(map(math.isfinite, (md.m1, md.m2, md.m3, md.m4, md.sigma4)))
    except (OverflowError, ValueError):  # a float power, or MomentData's checks
        finite = False
    if not finite:
        raise ConfigError(name, "its moments m1..m4 or m2^2 overflow float64")
    return spec


def _index(name: str, val, cfg: dict) -> float:
    """The index mu: positive, and in the existence range mu > rho - 1 of
    the dimensions read before it."""
    mu = value(name, val, float, *POSITIVE, cfg)
    q, field = dims(cfg)
    try:
        BesselParam(mu, q, cl.field_dim(field))
    except ValueError as exc:
        raise ConfigError(name, str(exc)) from exc
    return mu


_COMMON = (
    Row("name", str, lambda cfg: cfg["experiment"], _NAME.fullmatch,
        "must be a plain file name: [A-Za-z0-9][A-Za-z0-9._-]*"),
    Row("seed", int, REQUIRED, lambda v: 0 <= v < 2**64, "must be a 64-bit seed"),
    Row("block_size", int, DEFAULT_BLOCK_SIZE, *at_least(1)),
)
_Q = Row("q", int, 1, *at_least(1))
_D = Row("d", int, 1, lambda v: v in (1, 2), "must be 1 or 2")
_MU = Row("mu", _index)
_LAW = Row("law", _law)
_MOMENT_LAW = Row("law", _moment_law)
_SCALAR_LAW = Row("law", _moment_law, REQUIRED, lambda spec: spec["q"] == 1,
                  "must be a q = 1 law")
_POINTS = (Row("r", matrix), Row("s", matrix))
_MAX_SE = Row("max_se", float, 4.0, *POSITIVE)
_LEVEL = Row("level", float, 1e-3, lambda v: 0 < v < 1, "must lie in (0, 1)")
_SLACK = Row("slack", float, 1e-8, *at_least(0))
_METHOD = Row("method", str, "polar", *one_of(METHODS))
_WALK = (
    _count("n_steps", 1),
    Row("checkpoints", List(int), lambda cfg: [cfg["n_steps"]]),
    _MOMENT_LAW,
    _count("replicates", 1),
    Row("emit", str, "aggregate", *one_of(("aggregate", "replicates"))),
    _MAX_SE,
)


def _walk_rules(raw, cfg):
    """The walk families' cross-field rules: a group walk's p >= q,
    checkpoints within n_steps, and the cap on replicate emission."""
    if "p" in cfg and cfg["p"] < cfg["q"]:
        raise ConfigError("p", "matrix walks require p >= q")
    try:
        cps = checkpoint_tuple(cfg["checkpoints"], cfg["n_steps"])
    except ValueError as exc:
        raise ConfigError("checkpoints",
                          "must be sorted unique integers in [1, n_steps]") from exc
    if cfg["emit"] == "replicates" and cfg["replicates"] * len(cps) > MAX_REPLICATE_ROWS:
        raise ConfigError("emit", f"replicate emission capped at {MAX_REPLICATE_ROWS} rows")
    return cfg, []


# -- walk families -----------------------------------------------------------


class WalkGroupExperiment:
    name = "walk-group"
    columns = ["step", "replicates", "mean_tr_sq", "se_mean", "expected_tr_sq",
               "abs_diff", "diff_over_se", "pass"]
    fields = _COMMON + (_count("p", 1), _Q, FIELD, _METHOD) + _WALK

    validate = staticmethod(_walk_rules)

    @staticmethod
    def plan(cfg):
        return plan_blocks([cfg["replicates"]], cfg["block_size"])

    @staticmethod
    def run_block(cfg, task):
        traj = _walks(cfg, _law_of(cfg["law"]), cfg["checkpoints"], _task_rng(cfg, task),
                      task["size"])
        return _walk_partial(cfg, task, traj)

    @staticmethod
    def reduce(cfg, cells):
        md = _moments_of(cfg["law"])
        cps = cfg["checkpoints"]
        [partials] = cells
        m = _pooled(partials)
        count, mean, se = m.count, m.mean, m.se
        rows = []
        checks = []
        for k, step in enumerate(cps):
            expected = step * md.m2
            diff, check = _held(mean[k], expected, se[k], cfg["max_se"],
                                check="m2-additivity", step=step)
            rows.append([step, count, float(mean[k]), float(se[k]), float(expected),
                         float(diff), float(check["diff_over_se"]), check["pass"]])
            checks.append(check)
        out = {
            "columns": WalkGroupExperiment.columns,
            "rows": rows,
            "aggregates": {"replicates": count,
                           "mean_tr_sq": [float(x) for x in mean],
                           "expected_tr_sq": [float(s * md.m2) for s in cps]},
            "checks": checks,
            "plot": {"columns": ["step", "mean_tr_sq", "se_mean"],
                     "rows": [[s, float(mean[k]), float(se[k])] for k, s in enumerate(cps)]},
        }
        if cfg["emit"] == "replicates":
            out["replicate_text"] = [p["rows"][k] for k in range(len(cps)) for p in partials]
        return out


class WalkBesselExperiment:
    name = "walk-bessel"
    columns = WalkGroupExperiment.columns
    fields = _COMMON + (_Q, _D, _MU) + _WALK

    validate = staticmethod(_walk_rules)
    plan = WalkGroupExperiment.plan
    run_block = WalkGroupExperiment.run_block
    reduce = WalkGroupExperiment.reduce


def _walk_partial(cfg, task, traj):
    """A walk block's moments and, when it emits replicates, its rows of
    the replicate CSV; the walk families plan one cell, so the block's
    first replicate is block * block_size."""
    tr = tr_squared(traj)
    part = {"m": lab.Moments.of(tr)}
    if cfg["emit"] == "replicates":
        part["rows"] = _replicate_rows(cfg["checkpoints"], task["block"] * cfg["block_size"], tr)
    return part


def _replicate_rows(steps, lo, tr) -> list[str]:
    """The ``step,replicate,tr_squared`` lines of a (checkpoints, size)
    block of tr S_n^2 whose first replicate is lo, one string per
    checkpoint, each value in repr's shortest round-trip form (the bytes
    a float cell gets in the CSV)."""
    index = [f",{i}," for i in range(lo, lo + tr.shape[1])]
    out = []
    for step, row in zip(steps, tr):
        pieces = [str(step), None, None, "\n"] * len(index)
        pieces[1::4] = index
        pieces[2::4] = map(repr, row.tolist())
        out.append("".join(pieces))
    return out


# -- convolution family ------------------------------------------------------


class ConvolveExperiment:
    name = "convolve"
    columns = ["replicates", "mean_tr_t2", "se_mean", "expected_tr_t2",
               "diff_over_se", "support_violations", "max_norm_excess", "pass"]
    fields = _COMMON + (_Q, _D, _MU, *_POINTS, _count("replicates", 1), _SLACK, _MAX_SE)

    validate = staticmethod(_no_rules)
    plan = WalkGroupExperiment.plan

    @staticmethod
    def run_block(cfg, task):
        r = matrix_from_spec(cfg, "r", cl.field_of_dim(cfg["d"]))
        s = matrix_from_spec(cfg, "s", cl.field_of_dim(cfg["d"]))
        param = BesselParam(cfg["mu"], cfg["q"], cfg["d"])
        t = convolve_points(r, s, param, _task_rng(cfg, task), task["size"])
        return {"m": lab.Moments.of(cl.frob_norm(t) ** 2),
                **_support_partial(t, r, s, cfg["slack"])}

    @staticmethod
    def reduce(cfg, cells):
        r = matrix_from_spec(cfg, "r", cl.field_of_dim(cfg["d"]))
        s = matrix_from_spec(cfg, "s", cl.field_of_dim(cfg["d"]))
        [partials] = cells
        m = _pooled(partials)
        count, mean, se = m.count, m.mean, m.se
        expected = float(cl.trace_herm(r @ r) + cl.trace_herm(s @ s))
        _, held = _held(mean, expected, se, cfg["max_se"], check="m2-point-additivity")
        violations, max_excess = _support_totals(partials)
        ok = held["pass"] and violations == 0
        rows = [[count, mean, se, expected, held["diff_over_se"], violations, max_excess, ok]]
        checks = [
            held,
            {"check": "support-bound", "violations": violations,
             "max_excess": max_excess, "pass": violations == 0},
        ]
        return {"columns": ConvolveExperiment.columns, "rows": rows,
                "aggregates": {"mean_tr_t2": mean, "expected_tr_t2": expected,
                               "support_violations": violations},
                "checks": checks}


# -- kappa family ------------------------------------------------------------


class KappaExperiment:
    name = "kappa"
    columns = ["mu", "q", "d", "branch", "n_samples", "estimate", "std_error",
               "reference", "abs_diff", "diff_over_se", "pass"]
    fields = _COMMON + (_Q, _D, Row("mu_grid", List(_index), REQUIRED, *NONEMPTY),
                        _count("n_samples", 1), _MAX_SE)

    @staticmethod
    def validate(raw, cfg):
        for i, m in enumerate(cfg["mu_grid"]):
            param = BesselParam(m, cfg["q"], cfg["d"])
            if m < param.rho:
                raise ConfigError(f"mu_grid[{i}]", f"mu={m} below rho={param.rho}: the kappa "
                                  "importance sampler's weights det(I - v*v)^(mu - rho) "
                                  "are unbounded there; it needs mu >= rho")
            if kappa_exact(param) < sys.float_info.min:
                raise ConfigError(f"mu_grid[{i}]", f"kappa at mu={m} underflows float64, "
                                  "where an estimate of 0 would match it vacuously")
        return cfg, []

    @staticmethod
    def plan(cfg):
        return plan_blocks([cfg["n_samples"]] * len(cfg["mu_grid"]), cfg["block_size"])

    @staticmethod
    def run_block(cfg, task):
        param = BesselParam(cfg["mu_grid"][task["cell"]], cfg["q"], cfg["d"])
        return kappa_mu(param, task["size"], _task_rng(cfg, task))

    @staticmethod
    def reduce(cfg, cells):
        rows = []
        checks = []
        for mu, parts in zip(cfg["mu_grid"], cells):
            m = lab.Moments.pooled(parts)
            count, mean, se = m.count, m.mean, m.se
            param = BesselParam(mu, cfg["q"], cfg["d"])
            branch = "gaussian-is" if mu - param.rho >= 0.5 else "ball-is"
            ref = kappa_exact(param)
            # at large mu the weights differ from 1 by rounding alone, and se
            # can fall below the estimate's own float64 rounding
            diff, check = _held(mean, ref, max(se, 2 * cfg["q"] * math.ulp(ref)), cfg["max_se"],
                                check="kappa-quadrature", mu=mu)
            checks.append(check)
            rows.append([mu, cfg["q"], cfg["d"], branch, count, mean, se,
                         ref, diff, check["diff_over_se"], check["pass"]])
        return {"columns": KappaExperiment.columns, "rows": rows,
                "aggregates": {"estimates": [r[5] for r in rows]},
                "checks": checks,
                "plot": {"columns": ["mu", "estimate", "std_error"],
                         "rows": [[r[0], r[5], r[6]] for r in rows]}}


# -- clt-check family --------------------------------------------------------


class CltCheckExperiment:
    name = "clt-check"
    scalar_columns = ["kind", "engine", "n_steps", "index", "replicates",
                      "sample_mean", "sample_var", "limit_var",
                      "ks_distance", "ks_threshold", "pass"]
    matrix_columns = ["coord_i", "coord_j", "empirical", "target", "se",
                      "abs_diff", "diff_over_se", "pass"]
    fields = _COMMON + (
        Row("kind", str, REQUIRED, *one_of(tuple(lab.CLT))),
        Row("engine", str, "group", *one_of(("group", "bessel"))),
        _MOMENT_LAW,
        _count("n_steps", 1),
        _count("replicates", 2),
        _MAX_SE,
        _LEVEL._replace(name="mardia_level"),
        Row("ks_threshold", float, lambda cfg: 3.0 / math.sqrt(cfg["replicates"]), *POSITIVE),
    )
    engine_fields = {"group": (_count("p", 1), _METHOD), "bessel": (_MU,)}

    @staticmethod
    def validate(raw, cfg):
        cfg = read(raw, CltCheckExperiment.engine_fields[cfg["engine"]], **cfg)
        md = _moments_of(cfg["law"])
        kind, clt = cfg["kind"], lab.CLT[cfg["kind"]]
        n, index = cfg["n_steps"], cfg.get("p", cfg.get("mu"))
        if cfg["engine"] == "group" and md.q > 1 and index < md.q:
            raise ConfigError("p", "matrix walks require p >= q")
        if clt.cov is None and md.q != 1:
            raise ConfigError("kind", f"{kind} is a q = 1 statistic")
        if clt.group_only and cfg["engine"] != "group":
            raise ConfigError("engine", f"{kind} is stated for the group walk")
        if clt.real_only and md.field != cl.REAL:
            raise ConfigError("law.field", f"{kind} is stated for the real field")
        if md.q > 1:
            dim = cl.herm_vec_dim(md.q, md.field)
            if cfg["replicates"] <= 10 * dim * dim:
                raise ConfigError("replicates", "the Mardia tests need more than "
                                  f"10 dim^2 = {10 * dim * dim} replicates")
        else:
            # the statistic of a unit deviation, and the variance it is held to
            with np.errstate(all="ignore"):
                scale, var = clt.normalize(1.0, n, index, md), clt.var(md)
            if not (0.0 < scale < math.inf and 0.0 < var < math.inf):
                raise ConfigError("law", f"{kind}'s scale {scale:.3g} and limit variance "
                                  f"{var:.3g} must be positive finite float64 numbers")
        warnings = clt.regime(n, index)
        if clt.fixed_index_dof is not None:
            gap = lab.chi2_normal_gap(clt.fixed_index_dof(index, md))
            if gap > cfg["ks_threshold"]:
                dof = "p" if md.field == cl.REAL else "2p"
                warnings.append(f"regime: chi-square gap D_p = {gap:.3g} > ks_threshold "
                                f"= {cfg['ks_threshold']:.3g}; at fixed p = {index} the "
                                f"statistic tends to the standardized chi-square({dof}) law, "
                                "so the N(0,1) check cannot pass for any n")
        return cfg, warnings

    plan = WalkGroupExperiment.plan

    @staticmethod
    def run_block(cfg, task):
        n = cfg["n_steps"]
        traj = _walks(cfg, _law_of(cfg["law"]), (n,), _task_rng(cfg, task), task["size"])
        index = cfg.get("p", cfg.get("mu"))
        return lab.normalize_clt(cfg["kind"], traj[0], n, index, _moments_of(cfg["law"]))

    @staticmethod
    def reduce(cfg, cells):
        md = _moments_of(cfg["law"])
        [partials] = cells
        stat = np.concatenate(partials, axis=0)
        if stat.ndim == 1:
            return CltCheckExperiment._reduce_scalar(cfg, md, stat)
        return CltCheckExperiment._reduce_matrix(cfg, md, stat)

    @staticmethod
    def _reduce_scalar(cfg, md, stat):
        clt = lab.CLT[cfg["kind"]]
        limit_var = clt.var(md)
        ks = lab.ks_distance(stat, lambda t: lab.normal_cdf(t, math.sqrt(limit_var)))
        ok = ks <= cfg["ks_threshold"]
        index = cfg.get("p", cfg.get("mu"))
        rows = [[cfg["kind"], cfg["engine"], cfg["n_steps"], index, stat.size,
                 float(stat.mean()), float(stat.var()), limit_var,
                 ks, cfg["ks_threshold"], ok]]
        checks = [{"check": "ks-to-limit", "ks": ks,
                   "threshold": cfg["ks_threshold"], "pass": ok}]
        aggregates = {"ks_distance": ks, "limit_var": limit_var,
                      "sample_var": float(stat.var())}
        if clt.fixed_index_dof is not None:
            m = clt.fixed_index_dof(index, md)
            aggregates["sup_chi2_distance"] = lab.ks_distance(
                stat, lambda t: lab.standardized_chi2_cdf(m, t))
        return {"columns": CltCheckExperiment.scalar_columns, "rows": rows,
                "aggregates": aggregates, "checks": checks}

    @staticmethod
    def _reduce_matrix(cfg, md, stat):
        mean, cov = lab.empirical_cov(stat)
        target = lab.CLT[cfg["kind"]].cov(md)
        centered = stat - mean
        n = stat.shape[0]
        rows = []
        worst = 0.0
        all_ok = True
        for i in range(stat.shape[1]):
            for j in range(i, stat.shape[1]):
                prod = centered[:, i] * centered[:, j]
                se = float(np.std(prod, ddof=1) / math.sqrt(n))
                diff, held = _held(float(cov[i, j]), float(target[i, j]), se, cfg["max_se"])
                worst = max(worst, held["diff_over_se"])
                all_ok &= held["pass"]
                rows.append([i, j, float(cov[i, j]), float(target[i, j]),
                             se, diff, float(held["diff_over_se"]), held["pass"]])
        mardia = {"check": "mardia", "skew_pvalue": None, "kurt_pvalue": None,
                  "level": cfg["mardia_level"], "pass": False}
        try:
            mr = lab.mardia_tests(stat)
        except DegenerateDataError as exc:
            # e.g. a one-step walk of a law with few atoms takes few values
            mardia["reason"] = str(exc)
        else:
            mardia |= {"skew_pvalue": mr.skew_pvalue, "kurt_pvalue": mr.kurt_pvalue,
                       "pass": (mr.skew_pvalue >= cfg["mardia_level"]
                                and mr.kurt_pvalue >= cfg["mardia_level"])}
        checks = [
            {"check": "covariance", "max_diff_over_se": worst,
             "max_se": cfg["max_se"], "pass": all_ok},
            mardia,
        ]
        return {"columns": CltCheckExperiment.matrix_columns, "rows": rows,
                "aggregates": {"mean": [float(x) for x in mean],
                               "max_diff_over_se": worst,
                               "mardia_skew_pvalue": mardia["skew_pvalue"],
                               "mardia_kurt_pvalue": mardia["kurt_pvalue"]},
                "checks": checks}


# -- distribution-function scan ----------------------------------------------


class BerryEsseenScanExperiment:
    name = "berry-esseen-scan"
    columns = ["n", "replicates", "ks_distance", "noise_floor", "included"]
    fields = _COMMON + (
        _SCALAR_LAW,
        _count("p", 1),
        Row("n_grid", List(int, *at_least(1)), REQUIRED,
            lambda v: len(v) >= 4 and v == sorted(set(v)), "needs >= 4 sorted unique points"),
        _count("replicates", 4),
        _METHOD,
        Row("slope_threshold", float, None),
    )

    @staticmethod
    def validate(raw, cfg):
        # the run scales ||S_n||^2 by m / (n m2), m = d p, at every n
        with np.errstate(all="ignore"):
            scales = cl.field_dim(cfg["law"]["field"]) * float(cfg["p"]) / (
                np.asarray(cfg["n_grid"], dtype=float) * _moments_of(cfg["law"]).m2)
        if not np.all((scales > 0) & (scales < math.inf)):
            raise ConfigError("law", "the scale m/(n m2), m = d p, is not a positive finite "
                              "number at every n of n_grid")
        return cfg, []

    @staticmethod
    def plan(cfg):
        return plan_blocks([cfg["replicates"]] * len(cfg["n_grid"]), cfg["block_size"])

    @staticmethod
    def run_block(cfg, task):
        law = _law_of(cfg["law"])
        n = cfg["n_grid"][task["cell"]]
        traj = _walks(cfg, law, (n,), _task_rng(cfg, task), task["size"])
        # m ||S_n||^2 / (n s2) against chi-square(m), m = d p
        m = cl.field_dim(law.field) * cfg["p"]
        return traj[0] * (m / (n * _moments_of(cfg["law"]).m2))

    @staticmethod
    def reduce(cfg, cells):
        m = cl.field_dim(_law_of(cfg["law"]).field) * cfg["p"]
        dists = [lab.ks_distance(np.concatenate(parts), lambda t: lab.chi2_cdf(m, t))
                 for parts in cells]
        fit = lab.fit_loglog(cfg["n_grid"], dists, 3.0 / math.sqrt(cfg["replicates"]))
        rows = [[n, cfg["replicates"], d, fit.noise_floor, inc]
                for n, d, inc in zip(fit.ns, fit.distances, fit.included)]
        checks = []
        if cfg["slope_threshold"] is not None:
            ok = fit.slope is not None and fit.slope <= cfg["slope_threshold"]
            checks.append({"check": "slope", "slope": fit.slope,
                           "threshold": cfg["slope_threshold"], "pass": ok})
        ks_se = 1.0 / math.sqrt(cfg["replicates"])
        plot_rows = [[math.log(n), math.log(d), ks_se / d]
                     for n, d in zip(fit.ns, fit.distances)]
        return {"columns": BerryEsseenScanExperiment.columns, "rows": rows,
                "aggregates": {"slope": fit.slope, "slope_se": fit.slope_se,
                               "noise_floor": fit.noise_floor,
                               "included_points": int(sum(fit.included))},
                "checks": checks,
                "plot": {"columns": ["log_n", "log_ks", "log_ks_err"],
                         "rows": plot_rows}}


# -- moment identity ---------------------------------------------------------


class MomentIdentityExperiment:
    name = "moment-identity"
    columns = ["n", "p", "replicates", "empirical", "se", "expected",
               "abs_diff", "diff_over_se", "pass"]
    fields = _COMMON + (
        _SCALAR_LAW,
        Row("grid", List(List(int), lambda v: len(v) == 2 and min(v) >= 1,
                         "entries must be [n, p] pairs with n, p >= 1"), REQUIRED, *NONEMPTY),
        _count("replicates", 2),
        _METHOD,
        _MAX_SE,
    )

    validate = staticmethod(_no_rules)

    @staticmethod
    def plan(cfg):
        return plan_blocks([cfg["replicates"]] * len(cfg["grid"]), cfg["block_size"])

    @staticmethod
    def run_block(cfg, task):
        law = _law_of(cfg["law"])
        n, p = cfg["grid"][task["cell"]]
        traj = _walks({**cfg, "p": p}, law, (n,), _task_rng(cfg, task), task["size"])
        y = (traj[0] - n * _moments_of(cfg["law"]).m2) ** 2
        return lab.Moments.of(y)

    @staticmethod
    def reduce(cfg, cells):
        md = _moments_of(cfg["law"])
        rows = []
        checks = []
        for (n, p), parts in zip(cfg["grid"], cells):
            m = lab.Moments.pooled(parts)
            count, mean, se = m.count, m.mean, m.se
            expected = lab.moment_identity_rhs(n, p, md)
            diff, check = _held(mean, expected, se, cfg["max_se"],
                                check="moment-identity", n=n, p=p)
            rows.append([n, p, count, mean, se, expected, diff, check["diff_over_se"],
                         check["pass"]])
            checks.append(check)
        return {"columns": MomentIdentityExperiment.columns, "rows": rows,
                "aggregates": {"grid": cfg["grid"],
                               "empirical": [r[3] for r in rows],
                               "expected": [r[5] for r in rows]},
                "checks": checks}


# -- axiom checks ------------------------------------------------------------


class _Check(NamedTuple):
    """One axioms check.  fields is its table; rules(spec) checks the
    canonical spec's cross-field rules; run(spec, size, stream) gives
    a block partial, where stream(role) is the block's random stream for
    that role; reduce(spec, parts) gives the row's (statistic, reference,
    se, diff_over_se, threshold) and the check's fields, "pass" among
    them."""

    fields: tuple
    run: Callable
    reduce: Callable
    rules: Callable = lambda spec: None


def _param(spec):
    return BesselParam(spec["mu"], spec["q"], spec["d"])


def _run_support_bound(spec, k, stream):
    rng = stream()
    q, field = spec["q"], cl.field_of_dim(spec["d"])
    # varied cone geometry: Bartlett factors of Wishart draws of mean 1.5 I and 0.8 I
    r, s = (RadialLaw.wishart_root(c * np.eye(q) / (q + 2), q + 2, field).sample(rng, k)
            for c in (1.5, 0.8))
    t = convolve_points(r, s, _param(spec), rng, k)
    return _support_partial(t, r, s, spec["slack"])


def _reduce_support_bound(spec, parts):
    violations, max_excess = _support_totals(parts)
    return (max_excess, 0.0, math.nan, math.nan, spec["slack"]), \
        {"violations": violations, "max_excess": max_excess, "pass": violations == 0}


def _run_commutativity(spec, k, stream):
    param = _param(spec)
    r = matrix_from_spec(spec, "r", param.field)
    s = matrix_from_spec(spec, "s", param.field)
    t_rs = convolve_points(r, s, param, stream(0), k)
    t_sr = convolve_points(s, r, param, stream(1), k)
    return {"a": cl.frob_norm(t_rs) ** 2, "b": cl.frob_norm(t_sr) ** 2}


def _reduce_two_sample_ks(spec, parts):
    """The p-value of the two-sample KS test between the samples a and b."""
    _, pvalue = lab.ks_2samp(np.concatenate([p["a"] for p in parts]),
                             np.concatenate([p["b"] for p in parts]))
    return (pvalue, spec["level"], math.nan, math.nan, spec["level"]), \
        {"pvalue": pvalue, "level": spec["level"], "pass": pvalue >= spec["level"]}


def _diff_over_se_row(spec, m, target):
    """Row values and check fields of a mean held to its target within
    max_se standard errors."""
    _, held = _held(m.mean, target, m.se, spec["max_se"])
    return (m.mean, target, m.se, held["diff_over_se"], spec["max_se"]), held


def _run_m2_additivity(spec, k, stream):
    traj = _walks(spec, _law_of(spec["law"]), (spec["n_steps"],), stream(), k)
    return {"m": lab.Moments.of(tr_squared(traj)[0])}


def _reduce_m2_additivity(spec, parts):
    m2 = _moments_of(spec["law"]).m2
    return _diff_over_se_row(spec, _pooled(parts), spec["n_steps"] * m2)


def _run_m1_subadd(spec, k, stream):
    rng = stream()
    s1 = _law_of(spec["law"]).sample(rng, k)
    s2 = _law_of(spec["law2"]).sample(rng, k)
    h = cl.frob_norm(convolve_points(s1, s2, _param(spec), rng, k))
    return {"m": lab.Moments.of(h)}


def _reduce_m1_subadd(spec, parts):
    m = _pooled(parts)
    mean, se = m.mean, m.se
    bound = _moments_of(spec["law"]).m1 + _moments_of(spec["law2"]).m1
    ratio = diff_over_se(mean - bound, se)
    return (mean, bound, se, ratio, spec["max_se"]), \
        {"excess_over_se": ratio, "max_se": spec["max_se"],
         "pass": mean <= bound + spec["max_se"] * se}


def _run_group_consistency(spec, k, stream):
    law, p, cps = _law_of(spec["law"]), spec["p"], (spec["n_steps"],)
    group = _walks({"p": p, "method": "direct"}, law, cps, stream(0), k)
    bessel = _walks({"mu": 0.5 * spec["d"] * p}, law, cps, stream(1), k)
    return {"a": tr_squared(group)[0], "b": tr_squared(bessel)[0]}


def _run_character(spec, k, stream):
    param = BesselParam(spec["mu"], 1, 1)
    t = convolve_points([[spec["r1"]]], [[spec["r2"]]], param, stream(), k)[:, 0, 0]
    return {"m": lab.Moments.of(bessel_character_1d(spec["mu"], t, spec["s"]))}


def _reduce_character(spec, parts):
    target = (bessel_character_1d(spec["mu"], spec["r1"], spec["s"])
              * bessel_character_1d(spec["mu"], spec["r2"], spec["s"]))
    return _diff_over_se_row(spec, _pooled(parts), target)


def _run_contraction_beta(spec, k, stream):
    v = sample_contraction(BesselParam(spec["mu"], 1, 1), stream(), k)
    return {"u": v * v}


_BETA_TOP = 1.0 - 2.0**-40


def _reduce_contraction_beta(spec, parts):
    # v^2 is Beta(1/2, mu - 1/2).  Close to mu = 1/2 that law puts much of
    # its mass within a few ulps of 1, where float64 rounds the draws (47%
    # of them onto exactly 1 at mu = 0.52).  So the KS distance is taken
    # over u <= _BETA_TOP, where rounding moves the CDF by less than 1e-5;
    # the draws above it enter through their count.  With no draw above
    # it, this is the plain KS distance.
    b = spec["mu"] - 0.5
    x = np.sort(np.concatenate([p["u"] for p in parts]))
    n, k = x.size, int(np.searchsorted(x, _BETA_TOP, side="right"))
    f = special.betainc(0.5, b, x[:k])
    ks = float(max(np.max(np.arange(1, k + 1) / n - f, initial=0.0),
                   np.max(f - np.arange(k) / n, initial=0.0),
                   special.betainc(0.5, b, _BETA_TOP) - k / n))
    return (ks, 0.0, math.nan, math.nan, spec["ks_max"]), \
        {"ks": ks, "ks_max": spec["ks_max"], "pass": ks <= spec["ks_max"]}


def _run_mu_scaling(spec, k, stream):
    law = _law_of(spec["law"])
    q = spec["q"]
    out = {}
    for role, mu in ((0, spec["mu"]), (1, 4.0 * spec["mu"])):
        param = BesselParam(mu, q, spec["d"])
        diffs = paired_composition_diffs(law, param, spec["n_steps"], spec["cap"], k,
                                         stream(role))
        out[f"m{role}"] = lab.Moments.of(diffs)
    return out


def _reduce_mu_scaling(spec, parts):
    m = [_pooled(parts, f"m{role}") for role in (0, 1)]
    gaps = [abs(m[0].mean), abs(m[1].mean)]
    ses = [m[0].se, m[1].se]
    ratio = gaps[0] / gaps[1] if gaps[1] > 0 else math.inf
    return (ratio, 2.0, math.nan, math.nan, spec["ratio_hi"]), \
        {"gap_mu": gaps[0], "gap_4mu": gaps[1], "se_mu": ses[0], "se_4mu": ses[1],
         "ratio": ratio, "lo": spec["ratio_lo"], "hi": spec["ratio_hi"],
         "pass": spec["ratio_lo"] <= ratio <= spec["ratio_hi"]}


def _group_consistency_rules(spec):
    q, d, p = spec["q"], spec["d"], spec["p"]
    if q > 1 and p < q:
        raise ConfigError("p", "needs p >= q")
    try:
        BesselParam(0.5 * d * p, q, d)
    except ValueError as exc:
        raise ConfigError("p", f"mu = p d/2 = {0.5 * d * p}: {exc}") from exc


def _character_rules(spec):
    # the run's character at t s, t in [|r1 - r2|, r1 + r2], and the reference's
    r1, r2 = spec["r1"], spec["r2"]
    with np.errstate(all="ignore"):
        t = np.append(np.linspace(abs(r1 - r2), r1 + r2, 257), [r1, r2])
        try:
            chars = bessel_character_1d(spec["mu"], t, spec["s"])
        except ValueError as exc:
            raise ConfigError("mu", f"over t s, t in [|r1 - r2|, r1 + r2]: {exc}") from exc
    if not np.all(np.isfinite(chars)):
        raise ConfigError("mu", "the character is not finite over t s, t in [|r1 - r2|, r1 + r2]")


def _mu_scaling_rules(spec):
    try:
        _param(spec).require_lemma_range()
        BesselParam(4.0 * spec["mu"], spec["q"], spec["d"])
    except ValueError as exc:
        raise ConfigError("mu", f"{exc} (the check runs at mu and at 4 mu)") from exc
    if spec["ratio_lo"] > spec["ratio_hi"]:
        raise ConfigError("ratio_lo", "must be <= ratio_hi, or no ratio can pass")
    try:
        with np.errstate(all="ignore"):
            zero = _moments_of(spec["law"]).m2 == 0
    except (OverflowError, ValueError):  # moments past float64: the check runs as before
        zero = False
    if zero:
        raise ConfigError("law", "m2 = 0: both gaps are exactly 0, so their ratio says nothing")


_CHECKS = {
    "support-bound": _Check((_Q, _D, _MU, _count("draws", 1), _SLACK),
                            _run_support_bound, _reduce_support_bound),
    "commutativity": _Check((_Q, _D, _MU, _count("replicates", 8), _LEVEL, *_POINTS),
                            _run_commutativity, _reduce_two_sample_ks),
    "m2-additivity": _Check((_Q, _D, _MOMENT_LAW, _MU, _count("n_steps", 1),
                             _count("replicates", 2), _MAX_SE),
                            _run_m2_additivity, _reduce_m2_additivity),
    "m1-subadditivity": _Check((_Q, _D, _MOMENT_LAW,
                                Row("law2", _moment_law, lambda spec: spec["law"]), _MU,
                                _count("replicates", 2), _MAX_SE),
                               _run_m1_subadd, _reduce_m1_subadd),
    "group-consistency": _Check((_Q, _D, _LAW, _count("p", 1), _count("n_steps", 1),
                                 _count("replicates", 8), _LEVEL),
                                _run_group_consistency, _reduce_two_sample_ks,
                                _group_consistency_rules),
    "character": _Check((_MU, *[Row(x, float, REQUIRED, *at_least(0))
                                for x in ("r1", "r2", "s")],
                         _count("draws", 2), _MAX_SE),
                        _run_character, _reduce_character, _character_rules),
    "contraction-beta": _Check((_MU, _count("draws", 8),
                                Row("ks_max", float, REQUIRED, *POSITIVE)),
                               _run_contraction_beta, _reduce_contraction_beta),
    "mu-scaling": _Check((_Q, _D, _LAW, _MU, _count("n_steps", 2),
                          Row("cap", float, REQUIRED, *POSITIVE), _count("replicates", 2),
                          Row("ratio_lo", float, 1.0), Row("ratio_hi", float, 4.0)),
                         _run_mu_scaling, _reduce_mu_scaling, _mu_scaling_rules),
}
_CHECK = Row("check", str, REQUIRED, *one_of(tuple(_CHECKS)))


def _check_spec(name: str, val, cfg: dict) -> dict:
    """An axioms check: its name, then its check's table and rules."""
    return nested(name, val, _CHECK, {kind: check.fields for kind, check in _CHECKS.items()},
                  lambda spec: _CHECKS[spec["check"]].rules(spec))[0]


class AxiomsExperiment:
    name = "axioms"
    columns = ["check", "cell", "params", "statistic", "reference", "se",
               "diff_over_se", "threshold", "pass"]

    fields = _COMMON + (Row("checks", List(_check_spec), REQUIRED, *NONEMPTY),)

    validate = staticmethod(_no_rules)

    @staticmethod
    def plan(cfg):
        return plan_blocks([spec.get("replicates", spec.get("draws")) for spec in cfg["checks"]],
                           cfg["block_size"])

    @staticmethod
    def run_block(cfg, task):
        spec = cfg["checks"][task["cell"]]
        stream = functools.partial(_task_rng, cfg, task)
        return _CHECKS[spec["check"]].run(spec, task["size"], stream)

    @staticmethod
    def reduce(cfg, cells):
        rows = []
        checks = []
        for cell, (spec, parts) in enumerate(zip(cfg["checks"], cells)):
            kind = spec["check"]
            values, fields = _CHECKS[kind].reduce(spec, parts)
            rows.append([kind, cell, _params_str(spec), *values, fields["pass"]])
            checks.append({"check": kind, "cell": cell, **fields})
        return {"columns": AxiomsExperiment.columns, "rows": rows,
                "aggregates": {"checks_run": [s["check"] for s in cfg["checks"]]},
                "checks": checks}


def _params_str(spec) -> str:
    """The check's scalar parameters; laws, matrices, sizes and thresholds
    are left out."""
    skip = {"check", "replicates", "draws", "max_se", "level", "ks_max",
            "ratio_lo", "ratio_hi", "slack", "cap"}
    return " ".join(f"{k}={v}" for k, v in sorted(spec.items())
                    if k not in skip and not isinstance(v, (list, dict)))


EXPERIMENTS = {
    exp.name: exp
    for exp in (WalkGroupExperiment, WalkBesselExperiment, ConvolveExperiment,
                KappaExperiment, CltCheckExperiment, BerryEsseenScanExperiment,
                MomentIdentityExperiment, AxiomsExperiment)
}
