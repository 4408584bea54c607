"""Experiment families run by the batch harness.

Every family implements the same four hooks:

* validate(raw)      -> (canonical config dict, list of warnings)
* plan(cfg)          -> list of block tasks (pure function of the config)
* run_block(cfg, t)  -> picklable partial result
* reduce(cfg, parts) -> dict with columns, rows, aggregates, checks
                        and an optional plot table

Replicates are grouped into fixed-size blocks; block i draws from the
random stream keyed by (cell, block, role) under the master seed, so
results are independent of worker count and schedule.  Reduction happens
in task order, which pins floating-point summation order.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import special

from . import cone_linalg as cl
from . import limit_lab as lab
from .bessel import (
    BesselParam,
    BesselWalkConfig,
    ClippedQuadraticForm,
    bessel_character_1d,
    convolve_points,
    kappa_exact,
    kappa_mu,
    run_bessel_walks,
    sample_contraction,
)
from .errors import ConfigError
from .orbit_sampler import GroupWalkConfig, run_group_walks, wishart_sample
from .radial_laws import (
    RadialLaw,
    _matrix_from_spec,
    law_from_spec,
    moments,
    normalize_law_spec,
    normalize_matrix_spec,
)

DEFAULT_BLOCK_SIZE = 8192
MAX_REPLICATE_ROWS = 2_000_000

AXIOM_CHECKS = (
    "support-bound",
    "commutativity",
    "m2-additivity",
    "m1-subadditivity",
    "group-consistency",
    "character",
    "contraction-beta",
    "mu-scaling",
)


def rng_for(master_seed: int, cell: int, block: int, role: int = 0) -> np.random.Generator:
    """Counter-based stream: master seed plus a (cell, block, role) key."""
    seq = np.random.SeedSequence(entropy=int(master_seed),
                                 spawn_key=(int(cell), int(block), int(role)))
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


def mean_se(count, total, total_sq):
    """Sample mean and its standard error from pooled sums of x and x^2."""
    mean = total / count
    var = np.maximum(total_sq / count - mean**2, 0.0)
    return mean, np.sqrt(var / count)


def pooled_mean_se(parts, key="sum", key_sq="sum_sq"):
    """(count, mean, standard error) of block partials that hold "count"
    and the sums of x and x^2 under key and key_sq."""
    count = sum(p["count"] for p in parts)
    mean, se = mean_se(count, sum(p[key] for p in parts), sum(p[key_sq] for p in parts))
    return count, mean, se


def diff_over_se(diff, se):
    """A difference in standard errors; at se == 0 an exact match counts as
    0 and any other difference as infinitely many."""
    if se > 0:
        return diff / se
    return 0.0 if diff == 0 else math.inf


_MOMENTS_CACHE: dict[str, object] = {}


def law_moments(law: RadialLaw):
    key = json.dumps(law.to_spec(), sort_keys=True)
    if key not in _MOMENTS_CACHE:
        _MOMENTS_CACHE[key] = moments(law)
    return _MOMENTS_CACHE[key]


# -- validation helpers ------------------------------------------------------


def _req(raw: dict, field: str, kind, cond=None, msg=""):
    if field not in raw:
        raise ConfigError(field, "missing required field")
    val = raw[field]
    if kind is int and isinstance(val, bool):
        raise ConfigError(field, "expected an integer")
    if kind is float and isinstance(val, (int, float)) and not isinstance(val, bool):
        val = float(val)
    elif not isinstance(val, kind):
        raise ConfigError(field, f"expected {kind.__name__}, got {type(val).__name__}")
    if cond is not None and not cond(val):
        raise ConfigError(field, msg or "invalid value")
    return val


def _opt(raw: dict, field: str, kind, default, cond=None, msg=""):
    if field not in raw or raw[field] is None:
        return default
    return _req(raw, field, kind, cond, msg)


def _law_field(raw: dict, field: str = "law") -> dict:
    if field not in raw:
        raise ConfigError(field, "missing required field")
    return normalize_law_spec(raw[field])


def _common(raw: dict, experiment: str) -> dict:
    cfg = {
        "experiment": experiment,
        "schema_version": 1,
        "name": _opt(raw, "name", str, experiment),
        "seed": _req(raw, "seed", int, lambda v: 0 <= v < 2**64, "must be a 64-bit seed"),
        "block_size": _opt(raw, "block_size", int, DEFAULT_BLOCK_SIZE,
                           lambda v: v >= 1, "must be >= 1"),
    }
    return cfg


def _numbers(field: str, values: list, kind) -> list:
    """List entries converted by kind (int or float); ConfigError on failure."""
    try:
        return [kind(v) for v in values]
    except (TypeError, ValueError) as exc:
        raise ConfigError(field, f"entries must be numbers ({exc})") from exc


def _checkpoints(raw, n_steps):
    cps = _numbers("checkpoints", _opt(raw, "checkpoints", list, [n_steps]), int)
    if not cps or cps != sorted(set(cps)) or cps[0] < 1 or cps[-1] > n_steps:
        raise ConfigError("checkpoints", "must be sorted unique integers in [1, n_steps]")
    return cps


# -- walk families -----------------------------------------------------------


class WalkGroupExperiment:
    name = "walk-group"
    columns = ["step", "replicates", "mean_tr_sq", "se_mean", "expected_tr_sq",
               "abs_diff", "diff_over_se", "pass"]
    replicate_columns = ["step", "replicate", "tr_squared"]

    @staticmethod
    def validate(raw):
        cfg = _common(raw, "walk-group")
        cfg["p"] = _req(raw, "p", int, lambda v: v >= 1, "must be >= 1")
        cfg["q"] = _opt(raw, "q", int, 1, lambda v: v >= 1, "must be >= 1")
        cfg["field"] = _opt(raw, "field", str, cl.REAL, lambda v: v in cl.FIELDS)
        cfg["n_steps"] = _req(raw, "n_steps", int, lambda v: v >= 1, "must be >= 1")
        cfg["checkpoints"] = _checkpoints(raw, cfg["n_steps"])
        cfg["law"] = _law_field(raw)
        cfg["replicates"] = _req(raw, "replicates", int, lambda v: v >= 1, "must be >= 1")
        cfg["method"] = _opt(raw, "method", str, "auto",
                             lambda v: v in ("auto", "direct", "polar"))
        cfg["emit"] = _opt(raw, "emit", str, "aggregate",
                           lambda v: v in ("aggregate", "replicates"))
        cfg["max_se"] = _opt(raw, "max_se", float, 4.0, lambda v: v > 0)
        if cfg["q"] > 1 and cfg["p"] < cfg["q"]:
            raise ConfigError("p", "matrix walks require p >= q")
        law = law_from_spec(cfg["law"])
        if law.q != cfg["q"] or law.field != cfg["field"]:
            raise ConfigError("law", "law dimensions must match (q, field)")
        if cfg["emit"] == "replicates" and \
                cfg["replicates"] * len(cfg["checkpoints"]) > MAX_REPLICATE_ROWS:
            raise ConfigError("emit", f"replicate emission capped at {MAX_REPLICATE_ROWS} rows")
        return cfg, []

    @staticmethod
    def plan(cfg):
        return plan_blocks([cfg["replicates"]], cfg["block_size"])

    @staticmethod
    def run_block(cfg, task):
        rng = rng_for(cfg["seed"], task["cell"], task["block"])
        law = law_from_spec(cfg["law"])
        wcfg = GroupWalkConfig(p=cfg["p"], q=cfg["q"], field=cfg["field"],
                               n_steps=cfg["n_steps"], law=law,
                               checkpoints=tuple(cfg["checkpoints"]), method=cfg["method"])
        traj = run_group_walks(wcfg, rng, task["size"])
        return _walk_partial(cfg, traj)

    @staticmethod
    def reduce(cfg, partials):
        md = law_moments(law_from_spec(cfg["law"]))
        return _walk_reduce(cfg, partials, md)


class WalkBesselExperiment:
    name = "walk-bessel"
    columns = WalkGroupExperiment.columns
    replicate_columns = WalkGroupExperiment.replicate_columns

    @staticmethod
    def validate(raw):
        cfg = _common(raw, "walk-bessel")
        cfg["mu"] = _req(raw, "mu", (int, float), lambda v: v > 0, "must be positive")
        cfg["mu"] = float(cfg["mu"])
        cfg["q"] = _opt(raw, "q", int, 1, lambda v: v >= 1)
        cfg["d"] = _opt(raw, "d", int, 1, lambda v: v in (1, 2), "must be 1 or 2")
        cfg["n_steps"] = _req(raw, "n_steps", int, lambda v: v >= 1)
        cfg["checkpoints"] = _checkpoints(raw, cfg["n_steps"])
        cfg["law"] = _law_field(raw)
        cfg["replicates"] = _req(raw, "replicates", int, lambda v: v >= 1)
        cfg["emit"] = _opt(raw, "emit", str, "aggregate",
                           lambda v: v in ("aggregate", "replicates"))
        cfg["max_se"] = _opt(raw, "max_se", float, 4.0, lambda v: v > 0)
        try:
            param = BesselParam(cfg["mu"], cfg["q"], cfg["d"])
        except ValueError as exc:
            raise ConfigError("mu", str(exc)) from exc
        law = law_from_spec(cfg["law"])
        if law.q != cfg["q"] or law.field != param.field:
            raise ConfigError("law", "law dimensions must match (q, d)")
        if cfg["emit"] == "replicates" and \
                cfg["replicates"] * len(cfg["checkpoints"]) > MAX_REPLICATE_ROWS:
            raise ConfigError("emit", f"replicate emission capped at {MAX_REPLICATE_ROWS} rows")
        return cfg, []

    plan = WalkGroupExperiment.plan

    @staticmethod
    def run_block(cfg, task):
        rng = rng_for(cfg["seed"], task["cell"], task["block"])
        law = law_from_spec(cfg["law"])
        wcfg = BesselWalkConfig(param=BesselParam(cfg["mu"], cfg["q"], cfg["d"]),
                                law=law, n_steps=cfg["n_steps"],
                                checkpoints=tuple(cfg["checkpoints"]))
        traj = run_bessel_walks(wcfg, rng, task["size"])
        return _walk_partial(cfg, traj)

    @staticmethod
    def reduce(cfg, partials):
        md = law_moments(law_from_spec(cfg["law"]))
        return _walk_reduce(cfg, partials, md)


def _walk_partial(cfg, traj):
    tr = traj.tr_squared()
    part = {
        "count": tr.shape[1],
        "sum_tr": tr.sum(axis=1),
        "sum_tr2": (tr * tr).sum(axis=1),
    }
    if cfg["emit"] == "replicates":
        part["raw_tr"] = tr
    return part


def _walk_reduce(cfg, partials, md):
    cps = cfg["checkpoints"]
    count = sum(p["count"] for p in partials)
    sum_tr = np.sum([p["sum_tr"] for p in partials], axis=0)
    sum_tr2 = np.sum([p["sum_tr2"] for p in partials], axis=0)
    mean, se = mean_se(count, sum_tr, sum_tr2)
    rows = []
    checks = []
    for k, step in enumerate(cps):
        expected = step * md.m2
        diff = abs(mean[k] - expected)
        ratio = diff_over_se(diff, se[k])
        ok = ratio <= cfg["max_se"]
        rows.append([step, count, float(mean[k]), float(se[k]), float(expected),
                     float(diff), float(ratio), ok])
        checks.append({"check": "m2-additivity", "step": step,
                       "diff_over_se": float(ratio), "max_se": cfg["max_se"], "pass": ok})
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
        raw = np.concatenate([p["raw_tr"] for p in partials], axis=1)
        rep_rows = []
        for k, step in enumerate(cps):
            for i in range(count):
                rep_rows.append([step, i, float(raw[k, i])])
        out["replicate_columns"] = WalkGroupExperiment.replicate_columns
        out["replicate_rows"] = rep_rows
    return out


# -- convolution family ------------------------------------------------------


class ConvolveExperiment:
    name = "convolve"
    columns = ["replicates", "mean_tr_t2", "se_mean", "expected_tr_t2",
               "diff_over_se", "support_violations", "max_norm_excess", "pass"]

    @staticmethod
    def validate(raw):
        cfg = _common(raw, "convolve")
        cfg["q"] = _opt(raw, "q", int, 1, lambda v: v >= 1)
        cfg["d"] = _opt(raw, "d", int, 1, lambda v: v in (1, 2))
        cfg["mu"] = float(_req(raw, "mu", (int, float), lambda v: v > 0))
        field = cl.REAL if cfg["d"] == 1 else cl.COMPLEX
        for key in ("r", "s"):
            used = _canonical_matrix_entry(raw, key, field, cfg, f"{key}")
            mat = _matrix_from_spec(cfg, key, field)
            if mat.shape != (cfg["q"], cfg["q"]):
                raise ConfigError(used, f"expected a {cfg['q']}x{cfg['q']} matrix")
            cl.clamp_psd(mat)  # PSD validation only
        cfg["replicates"] = _req(raw, "replicates", int, lambda v: v >= 1)
        cfg["slack"] = _opt(raw, "slack", float, 1e-8, lambda v: v >= 0)
        cfg["max_se"] = _opt(raw, "max_se", float, 4.0, lambda v: v > 0)
        try:
            BesselParam(cfg["mu"], cfg["q"], cfg["d"])
        except ValueError as exc:
            raise ConfigError("mu", str(exc)) from exc
        return cfg, []

    plan = WalkGroupExperiment.plan

    @staticmethod
    def run_block(cfg, task):
        rng = rng_for(cfg["seed"], task["cell"], task["block"])
        field = cl.REAL if cfg["d"] == 1 else cl.COMPLEX
        r = _matrix_from_spec(cfg, "r", field)
        s = _matrix_from_spec(cfg, "s", field)
        param = BesselParam(cfg["mu"], cfg["q"], cfg["d"])
        t = convolve_points(r, s, param, rng, task["size"])
        tr = cl.trace_herm(t @ t)
        excess = cl.frob_norm(t) - (cl.frob_norm(r) + cl.frob_norm(s))
        return {"count": task["size"], "sum_tr": float(np.sum(tr)),
                "sum_tr2": float(np.sum(tr * tr)),
                "violations": int(np.count_nonzero(excess > cfg["slack"])),
                "max_excess": float(np.max(excess))}

    @staticmethod
    def reduce(cfg, partials):
        field = cl.REAL if cfg["d"] == 1 else cl.COMPLEX
        r = _matrix_from_spec(cfg, "r", field)
        s = _matrix_from_spec(cfg, "s", field)
        count, mean, se = pooled_mean_se(partials, "sum_tr", "sum_tr2")
        expected = float(cl.trace_herm(r @ r) + cl.trace_herm(s @ s))
        ratio = diff_over_se(abs(mean - expected), se)
        violations = sum(p["violations"] for p in partials)
        max_excess = max(p["max_excess"] for p in partials)
        ok = ratio <= cfg["max_se"] and violations == 0
        rows = [[count, mean, se, expected, ratio, violations, max_excess, ok]]
        checks = [
            {"check": "m2-point-additivity", "diff_over_se": ratio,
             "max_se": cfg["max_se"], "pass": ratio <= cfg["max_se"]},
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

    @staticmethod
    def validate(raw):
        cfg = _common(raw, "kappa")
        cfg["q"] = _opt(raw, "q", int, 1, lambda v: v >= 1)
        cfg["d"] = _opt(raw, "d", int, 1, lambda v: v in (1, 2))
        grid = _req(raw, "mu_grid", list, lambda v: len(v) >= 1, "must be nonempty")
        cfg["mu_grid"] = _numbers("mu_grid", grid, float)
        cfg["n_samples"] = _req(raw, "n_samples", int, lambda v: v >= 1)
        cfg["max_se"] = _opt(raw, "max_se", float, 4.0, lambda v: v > 0)
        for m in cfg["mu_grid"]:
            try:
                param = BesselParam(m, cfg["q"], cfg["d"])
            except ValueError as exc:
                raise ConfigError("mu_grid", str(exc)) from exc
            if m < param.rho:
                raise ConfigError("mu_grid", f"mu={m} below rho={param.rho}: the kappa "
                                  "importance sampler's weights det(I - v*v)^(mu - rho) "
                                  "are unbounded there; it needs mu >= rho")
        return cfg, []

    @staticmethod
    def plan(cfg):
        return plan_blocks([cfg["n_samples"]] * len(cfg["mu_grid"]),
                           max(cfg["block_size"], 10**5))

    @staticmethod
    def run_block(cfg, task):
        rng = rng_for(cfg["seed"], task["cell"], task["block"])
        param = BesselParam(cfg["mu_grid"][task["cell"]], cfg["q"], cfg["d"])
        est, se = kappa_mu(param, task["size"], rng)
        # convert back to raw sums so blocks merge exactly
        mean = est
        var = (se**2) * task["size"]
        return {"cell": task["cell"], "count": task["size"],
                "sum": mean * task["size"],
                "sum_sq": (var + mean**2) * task["size"]}

    @staticmethod
    def reduce(cfg, partials):
        rows = []
        checks = []
        for cell, mu in enumerate(cfg["mu_grid"]):
            parts = [p for p in partials if p["cell"] == cell]
            count, mean, se = pooled_mean_se(parts)
            param = BesselParam(mu, cfg["q"], cfg["d"])
            branch = "gaussian-is" if mu - param.rho >= 0.5 else "ball-is"
            ref = kappa_exact(param)
            diff = abs(mean - ref)
            ratio = diff_over_se(diff, se)
            ok = ratio <= cfg["max_se"]
            checks.append({"check": "kappa-quadrature", "mu": mu,
                           "diff_over_se": ratio, "max_se": cfg["max_se"], "pass": ok})
            rows.append([mu, cfg["q"], cfg["d"], branch, count, mean, se,
                         ref, diff, ratio, ok])
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

    @staticmethod
    def validate(raw):
        cfg = _common(raw, "clt-check")
        cfg["kind"] = _req(raw, "kind", str, lambda v: v in lab.CLT_KINDS,
                           f"must be one of {lab.CLT_KINDS}")
        cfg["engine"] = _opt(raw, "engine", str, "group",
                             lambda v: v in ("group", "bessel"))
        cfg["law"] = _law_field(raw)
        law = law_from_spec(cfg["law"])
        cfg["n_steps"] = _req(raw, "n_steps", int, lambda v: v >= 1)
        cfg["replicates"] = _req(raw, "replicates", int, lambda v: v >= 2)
        cfg["max_se"] = _opt(raw, "max_se", float, 4.0, lambda v: v > 0)
        cfg["mardia_level"] = _opt(raw, "mardia_level", float, 1e-3, lambda v: 0 < v < 1)
        ks_default = 3.0 / math.sqrt(cfg["replicates"])
        cfg["ks_threshold"] = _opt(raw, "ks_threshold", float, ks_default, lambda v: v > 0)
        warnings = []
        if cfg["engine"] == "group":
            cfg["p"] = _req(raw, "p", int, lambda v: v >= 1)
            cfg["method"] = _opt(raw, "method", str, "auto",
                                 lambda v: v in ("auto", "direct", "polar"))
            index = cfg["p"]
        else:
            cfg["mu"] = float(_req(raw, "mu", (int, float), lambda v: v > 0))
            try:
                param = BesselParam(cfg["mu"], law.q, 1 if law.field == cl.REAL else 2)
            except ValueError as exc:
                raise ConfigError("mu", str(exc)) from exc
            index = cfg["mu"]
        if cfg["kind"] in ("CLT1", "CLT2") and law.q != 1:
            raise ConfigError("kind", f"{cfg['kind']} is a q = 1 statistic")
        if cfg["kind"] == "CLT1" and cfg["engine"] != "group":
            raise ConfigError("engine", "CLT1 is stated for the group walk")
        if cfg["kind"] == "CLT3":
            if cfg["engine"] != "group":
                raise ConfigError("engine", "the Wishart-route statistic needs the group walk")
            if law.field != cl.REAL:
                raise ConfigError("law.field", "the T^2 covariance is real-field only")
        n = cfg["n_steps"]
        if cfg["kind"] == "CLT1":
            if n / index**3 < 1.0:
                warnings.append(f"regime: n/p^3 = {n / index**3:.3g} is small; "
                                "the N(0,1) limit needs n >> p^3 with p growing")
            gap = lab.chi2_normal_gap(index)
            if gap > cfg["ks_threshold"]:
                warnings.append(f"regime: chi-square gap D_p = {gap:.3g} > ks_threshold "
                                f"= {cfg['ks_threshold']:.3g}; at fixed p = {index} the "
                                "statistic tends to the standardized chi-square(p) law, "
                                "so the N(0,1) check cannot pass for any n")
        if cfg["kind"] in ("CLT2", "CLT4") and n * n / index > 0.1:
            warnings.append(f"regime: n^2/index = {n * n / index:.3g} > 0.1; "
                            "the limit needs n^2/index -> 0")
        if cfg["kind"] == "CLT3" and n / index**4 < 1.0:
            warnings.append(f"regime: n/p^4 = {n / index**4:.3g} is small; "
                            "the normality claim needs n >> p^4")
        return cfg, warnings

    plan = WalkGroupExperiment.plan

    @staticmethod
    def run_block(cfg, task):
        rng = rng_for(cfg["seed"], task["cell"], task["block"])
        law = law_from_spec(cfg["law"])
        md = law_moments(law)
        n = cfg["n_steps"]
        if cfg["engine"] == "group":
            wcfg = GroupWalkConfig(p=cfg["p"], q=law.q, field=law.field, n_steps=n,
                                   law=law, checkpoints=(n,), method=cfg["method"])
            traj = run_group_walks(wcfg, rng, task["size"])
            index = cfg["p"]
        else:
            d = 1 if law.field == cl.REAL else 2
            wcfg = BesselWalkConfig(param=BesselParam(cfg["mu"], law.q, d),
                                    law=law, n_steps=n, checkpoints=(n,))
            traj = run_bessel_walks(wcfg, rng, task["size"])
            index = cfg["mu"]
        return {"stat": lab.normalize_clt(cfg["kind"], traj.values[0], n, index, md)}

    @staticmethod
    def reduce(cfg, partials):
        law = law_from_spec(cfg["law"])
        md = law_moments(law)
        stat = np.concatenate([p["stat"] for p in partials], axis=0)
        if stat.ndim == 1:
            return CltCheckExperiment._reduce_scalar(cfg, md, stat)
        return CltCheckExperiment._reduce_matrix(cfg, md, stat)

    @staticmethod
    def _reduce_scalar(cfg, md, stat):
        sup_chi2 = None
        if cfg["kind"] == "CLT1":
            limit_var = 1.0
            # the chi-square reference the statistic passes through before
            # the normal limit: p ||S||^2 / (n s2) = sqrt(2p) z + p
            p = cfg["p"]
            x = math.sqrt(2.0 * p) * stat + p
            sup_chi2 = lab.ks_distance(x, lambda t: lab.chi2_cdf(p, t))
        else:
            limit_var = md.m4 - md.sigma4
        sd = math.sqrt(limit_var)
        ks = lab.ks_distance(stat, lambda t: lab.normal_cdf(t, 0.0, sd))
        ok = ks <= cfg["ks_threshold"]
        index = cfg.get("p", cfg.get("mu"))
        rows = [[cfg["kind"], cfg["engine"], cfg["n_steps"], index, stat.size,
                 float(stat.mean()), float(stat.var()), limit_var,
                 ks, cfg["ks_threshold"], ok]]
        checks = [{"check": "ks-to-limit", "ks": ks,
                   "threshold": cfg["ks_threshold"], "pass": ok}]
        aggregates = {"ks_distance": ks, "limit_var": limit_var,
                      "sample_var": float(stat.var())}
        if sup_chi2 is not None:
            aggregates["sup_chi2_distance"] = sup_chi2
        return {"columns": CltCheckExperiment.scalar_columns, "rows": rows,
                "aggregates": aggregates, "checks": checks}

    @staticmethod
    def _reduce_matrix(cfg, md, stat):
        mean, cov = lab.empirical_cov(stat)
        if cfg["kind"] == "CLT3":
            target = lab.t_squared_limit(np.asarray(md.sigma2).real)
        else:
            target = np.asarray(md.sigma2_image_cov)
        centered = stat - mean
        n = stat.shape[0]
        rows = []
        worst = 0.0
        all_ok = True
        for i in range(stat.shape[1]):
            for j in range(i, stat.shape[1]):
                prod = centered[:, i] * centered[:, j]
                se = float(np.std(prod, ddof=1) / math.sqrt(n))
                diff = abs(float(cov[i, j] - target[i, j]))
                ratio = diff_over_se(diff, se)
                ok = ratio <= cfg["max_se"]
                worst = max(worst, ratio)
                all_ok &= ok
                rows.append([i, j, float(cov[i, j]), float(target[i, j]),
                             se, diff, float(ratio), ok])
        mr = lab.mardia_tests(stat)
        mardia_ok = (mr.skew_pvalue >= cfg["mardia_level"]
                     and mr.kurt_pvalue >= cfg["mardia_level"])
        checks = [
            {"check": "covariance", "max_diff_over_se": worst,
             "max_se": cfg["max_se"], "pass": all_ok},
            {"check": "mardia", "skew_pvalue": mr.skew_pvalue,
             "kurt_pvalue": mr.kurt_pvalue, "level": cfg["mardia_level"],
             "pass": mardia_ok},
        ]
        return {"columns": CltCheckExperiment.matrix_columns, "rows": rows,
                "aggregates": {"mean": [float(x) for x in mean],
                               "max_diff_over_se": worst,
                               "mardia_skew_pvalue": mr.skew_pvalue,
                               "mardia_kurt_pvalue": mr.kurt_pvalue},
                "checks": checks}


# -- distribution-function scan ----------------------------------------------


class BerryEsseenScanExperiment:
    name = "berry-esseen-scan"
    columns = ["n", "replicates", "ks_distance", "noise_floor", "included"]

    @staticmethod
    def validate(raw):
        cfg = _common(raw, "berry-esseen-scan")
        cfg["law"] = _law_field(raw)
        if law_from_spec(cfg["law"]).q != 1:
            raise ConfigError("law", "the scan is a q = 1 experiment")
        cfg["p"] = _req(raw, "p", int, lambda v: v >= 1)
        grid = _req(raw, "n_grid", list, lambda v: len(v) >= 4, "needs >= 4 points")
        cfg["n_grid"] = _numbers("n_grid", grid, int)
        if cfg["n_grid"] != sorted(set(cfg["n_grid"])) or cfg["n_grid"][0] < 1:
            raise ConfigError("n_grid", "must be sorted unique positive integers")
        cfg["replicates"] = _req(raw, "replicates", int, lambda v: v >= 4)
        cfg["method"] = _opt(raw, "method", str, "auto",
                             lambda v: v in ("auto", "direct", "polar"))
        cfg["slope_threshold"] = _opt(raw, "slope_threshold", float, None)
        return cfg, []

    @staticmethod
    def plan(cfg):
        return plan_blocks([cfg["replicates"]] * len(cfg["n_grid"]), cfg["block_size"])

    @staticmethod
    def run_block(cfg, task):
        rng = rng_for(cfg["seed"], task["cell"], task["block"])
        law = law_from_spec(cfg["law"])
        md = law_moments(law)
        n = cfg["n_grid"][task["cell"]]
        wcfg = GroupWalkConfig(p=cfg["p"], q=1, field=law.field, n_steps=n,
                               law=law, checkpoints=(n,), method=cfg["method"])
        traj = run_group_walks(wcfg, rng, task["size"])
        return {"cell": task["cell"],
                "x": traj.values[0] * (cfg["p"] / (n * md.m2))}

    @staticmethod
    def reduce(cfg, partials):
        dists = []
        for cell, n in enumerate(cfg["n_grid"]):
            x = np.concatenate([p["x"] for p in partials if p["cell"] == cell])
            dists.append(lab.ks_distance(x, lambda t: lab.chi2_cdf(cfg["p"], t)))
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

    @staticmethod
    def validate(raw):
        cfg = _common(raw, "moment-identity")
        cfg["law"] = _law_field(raw)
        if law_from_spec(cfg["law"]).q != 1:
            raise ConfigError("law", "the moment identity is a q = 1 statement")
        grid = _req(raw, "grid", list, lambda v: len(v) >= 1, "must be nonempty")
        cfg["grid"] = []
        for entry in grid:
            if not (isinstance(entry, list) and len(entry) == 2):
                raise ConfigError("grid", "entries must be [n, p] pairs")
            cfg["grid"].append(_numbers("grid", entry, int))
        cfg["replicates"] = _req(raw, "replicates", int, lambda v: v >= 2)
        cfg["method"] = _opt(raw, "method", str, "auto",
                             lambda v: v in ("auto", "direct", "polar"))
        cfg["max_se"] = _opt(raw, "max_se", float, 4.0, lambda v: v > 0)
        return cfg, []

    @staticmethod
    def plan(cfg):
        return plan_blocks([cfg["replicates"]] * len(cfg["grid"]), cfg["block_size"])

    @staticmethod
    def run_block(cfg, task):
        rng = rng_for(cfg["seed"], task["cell"], task["block"])
        law = law_from_spec(cfg["law"])
        md = law_moments(law)
        n, p = cfg["grid"][task["cell"]]
        wcfg = GroupWalkConfig(p=p, q=1, field=law.field, n_steps=n,
                               law=law, checkpoints=(n,), method=cfg["method"])
        traj = run_group_walks(wcfg, rng, task["size"])
        y = (traj.values[0] - n * md.m2) ** 2
        return {"cell": task["cell"], "count": task["size"],
                "sum": float(np.sum(y)), "sum_sq": float(np.sum(y * y))}

    @staticmethod
    def reduce(cfg, partials):
        law = law_from_spec(cfg["law"])
        md = law_moments(law)
        rows = []
        checks = []
        for cell, (n, p) in enumerate(cfg["grid"]):
            parts = [q for q in partials if q["cell"] == cell]
            count, mean, se = pooled_mean_se(parts)
            expected = lab.moment_identity_rhs(n, p, md)
            diff = abs(mean - expected)
            ratio = diff_over_se(diff, se)
            ok = ratio <= cfg["max_se"]
            rows.append([n, p, count, mean, se, expected, diff, ratio, ok])
            checks.append({"check": "moment-identity", "n": n, "p": p,
                           "diff_over_se": ratio, "max_se": cfg["max_se"], "pass": ok})
        return {"columns": MomentIdentityExperiment.columns, "rows": rows,
                "aggregates": {"grid": cfg["grid"],
                               "empirical": [r[3] for r in rows],
                               "expected": [r[5] for r in rows]},
                "checks": checks}


# -- axiom checks ------------------------------------------------------------


class AxiomsExperiment:
    name = "axioms"
    columns = ["check", "cell", "params", "statistic", "reference", "se",
               "diff_over_se", "threshold", "pass"]

    @staticmethod
    def validate(raw):
        cfg = _common(raw, "axioms")
        checks = _req(raw, "checks", list, lambda v: len(v) >= 1, "must be nonempty")
        out = []
        for idx, spec in enumerate(checks):
            if not isinstance(spec, dict) or "check" not in spec:
                raise ConfigError(f"checks[{idx}]", "each entry needs a 'check' name")
            kind = spec["check"]
            if kind not in AXIOM_CHECKS:
                raise ConfigError(f"checks[{idx}].check",
                                  f"unknown check {kind!r}; expected one of {AXIOM_CHECKS}")
            out.append(_AXIOM_VALIDATORS[kind](spec, idx))
        cfg["checks"] = out
        return cfg, []

    @staticmethod
    def plan(cfg):
        return plan_blocks([spec.get("replicates", spec.get("draws")) for spec in cfg["checks"]],
                           cfg["block_size"])

    @staticmethod
    def run_block(cfg, task):
        spec = cfg["checks"][task["cell"]]
        part = _AXIOM_RUNNERS[spec["check"]](cfg, spec, task)
        part["cell"] = task["cell"]
        return part

    @staticmethod
    def reduce(cfg, partials):
        rows = []
        checks = []
        for cell, spec in enumerate(cfg["checks"]):
            parts = [p for p in partials if p["cell"] == cell]
            row, check = _AXIOM_REDUCERS[spec["check"]](spec, parts, cell)
            rows.append(row)
            checks.append(check)
        return {"columns": AxiomsExperiment.columns, "rows": rows,
                "aggregates": {"checks_run": [s["check"] for s in cfg["checks"]]},
                "checks": checks}


def _v_dims(spec, idx, default_q=1):
    q = _opt(spec, "q", int, default_q, lambda v: v >= 1)
    d = _opt(spec, "d", int, 1, lambda v: v in (1, 2))
    return q, d


def _v_mu(spec, idx, q, d, *, need_lemma=False):
    mu = float(_req(spec, "mu", (int, float), lambda v: v > 0))
    try:
        param = BesselParam(mu, q, d)
    except ValueError as exc:
        raise ConfigError(f"checks[{idx}].mu", str(exc)) from exc
    if need_lemma and mu < 2 * param.rho:
        raise ConfigError(f"checks[{idx}].mu",
                          f"comparison bounds require mu >= 2*rho = {2 * param.rho}")
    return mu


def _validate_support_bound(spec, idx):
    q, d = _v_dims(spec, idx)
    return {"check": "support-bound", "q": q, "d": d,
            "mu": _v_mu(spec, idx, q, d),
            "draws": _req(spec, "draws", int, lambda v: v >= 1),
            "slack": _opt(spec, "slack", float, 1e-8, lambda v: v >= 0)}


def _validate_commutativity(spec, idx):
    q, d = _v_dims(spec, idx)
    field = cl.REAL if d == 1 else cl.COMPLEX
    out = {"check": "commutativity", "q": q, "d": d,
           "mu": _v_mu(spec, idx, q, d),
           "replicates": _req(spec, "replicates", int, lambda v: v >= 8),
           "level": _opt(spec, "level", float, 1e-3, lambda v: 0 < v < 1)}
    for key in ("r", "s"):
        _canonical_matrix_entry(spec, key, field, out, f"checks[{idx}].{key}")
        mat = cl.clamp_psd(_matrix_from_spec(out, key, field))
        if mat.shape != (q, q):
            raise ConfigError(f"checks[{idx}].{key}", f"expected {q}x{q}")
    return out


def _validate_m2_additivity(spec, idx):
    q, d = _v_dims(spec, idx)
    if "law" not in spec:
        raise ConfigError(f"checks[{idx}].law", "missing law")
    law = law_from_spec(spec["law"])
    if law.q != q or law.field != (cl.REAL if d == 1 else cl.COMPLEX):
        raise ConfigError(f"checks[{idx}].law", "law dimensions must match (q, d)")
    return {"check": "m2-additivity", "q": q, "d": d,
            "mu": _v_mu(spec, idx, q, d), "law": normalize_law_spec(spec["law"]),
            "n_steps": _req(spec, "n_steps", int, lambda v: v >= 1),
            "replicates": _req(spec, "replicates", int, lambda v: v >= 2),
            "max_se": _opt(spec, "max_se", float, 4.0, lambda v: v > 0)}


def _validate_m1_subadd(spec, idx):
    q, d = _v_dims(spec, idx)
    law = law_from_spec(spec["law"])
    law2 = law_from_spec(spec["law2"]) if "law2" in spec else law
    field = cl.REAL if d == 1 else cl.COMPLEX
    if law.q != q or law2.q != q or law.field != field or law2.field != field:
        raise ConfigError(f"checks[{idx}].law", "law dimensions must match (q, d)")
    return {"check": "m1-subadditivity", "q": q, "d": d,
            "mu": _v_mu(spec, idx, q, d),
            "law": normalize_law_spec(spec["law"]),
            "law2": normalize_law_spec(spec.get("law2", spec["law"])),
            "replicates": _req(spec, "replicates", int, lambda v: v >= 2),
            "max_se": _opt(spec, "max_se", float, 4.0, lambda v: v > 0)}


def _validate_group_consistency(spec, idx):
    q, d = _v_dims(spec, idx)
    p = _req(spec, "p", int, lambda v: v >= 1)
    if q > 1 and p < q:
        raise ConfigError(f"checks[{idx}].p", "needs p >= q")
    mu = p * d / 2.0
    try:
        BesselParam(mu, q, d)
    except ValueError as exc:
        raise ConfigError(f"checks[{idx}].p", f"mu = p d/2 = {mu}: {exc}") from exc
    law = law_from_spec(spec["law"])
    if law.q != q or law.field != (cl.REAL if d == 1 else cl.COMPLEX):
        raise ConfigError(f"checks[{idx}].law", "law dimensions must match (q, d)")
    return {"check": "group-consistency", "q": q, "d": d, "p": p,
            "law": normalize_law_spec(spec["law"]),
            "n_steps": _req(spec, "n_steps", int, lambda v: v >= 1),
            "replicates": _req(spec, "replicates", int, lambda v: v >= 8),
            "level": _opt(spec, "level", float, 1e-3, lambda v: 0 < v < 1)}


def _validate_character(spec, idx):
    return {"check": "character", "mu": _v_mu(spec, idx, 1, 1),
            "r1": float(_req(spec, "r1", (int, float), lambda v: v >= 0)),
            "r2": float(_req(spec, "r2", (int, float), lambda v: v >= 0)),
            "s": float(_req(spec, "s", (int, float), lambda v: v >= 0)),
            "draws": _req(spec, "draws", int, lambda v: v >= 2),
            "max_se": _opt(spec, "max_se", float, 4.0, lambda v: v > 0)}


def _validate_contraction_beta(spec, idx):
    return {"check": "contraction-beta", "mu": _v_mu(spec, idx, 1, 1),
            "draws": _req(spec, "draws", int, lambda v: v >= 8),
            "ks_max": float(_req(spec, "ks_max", (int, float), lambda v: v > 0))}


def _validate_mu_scaling(spec, idx):
    q, d = _v_dims(spec, idx)
    mu = _v_mu(spec, idx, q, d, need_lemma=True)
    law = law_from_spec(spec["law"])
    if law.q != q or law.field != (cl.REAL if d == 1 else cl.COMPLEX):
        raise ConfigError(f"checks[{idx}].law", "law dimensions must match (q, d)")
    return {"check": "mu-scaling", "q": q, "d": d, "mu": mu,
            "law": normalize_law_spec(spec["law"]),
            "n_steps": _req(spec, "n_steps", int, lambda v: v >= 2),
            "cap": float(_req(spec, "cap", (int, float), lambda v: v > 0)),
            "replicates": _req(spec, "replicates", int, lambda v: v >= 2),
            "ratio_lo": _opt(spec, "ratio_lo", float, 1.0),
            "ratio_hi": _opt(spec, "ratio_hi", float, 4.0)}


_AXIOM_VALIDATORS = {
    "support-bound": _validate_support_bound,
    "commutativity": _validate_commutativity,
    "m2-additivity": _validate_m2_additivity,
    "m1-subadditivity": _validate_m1_subadd,
    "group-consistency": _validate_group_consistency,
    "character": _validate_character,
    "contraction-beta": _validate_contraction_beta,
    "mu-scaling": _validate_mu_scaling,
}


def _run_support_bound(cfg, spec, task):
    rng = rng_for(cfg["seed"], task["cell"], task["block"])
    q, d = spec["q"], spec["d"]
    field = cl.REAL if d == 1 else cl.COMPLEX
    param = BesselParam(spec["mu"], q, d)
    k = task["size"]
    # varied cone geometry: random scaled Wishart draws for r and s
    r = cl.psd_sqrt(wishart_sample(q + 2, q, field, rng, k) * 1.5)
    s = cl.psd_sqrt(wishart_sample(q + 2, q, field, rng, k) * 0.8)
    t = cl.cone_step(r, s, sample_contraction(param, rng, k))
    excess = cl.frob_norm(t) - (cl.frob_norm(r) + cl.frob_norm(s))
    return {"count": k, "violations": int(np.count_nonzero(excess > spec["slack"])),
            "max_excess": float(np.max(excess))}


def _reduce_support_bound(spec, parts, cell):
    violations = sum(p["violations"] for p in parts)
    max_excess = max(p["max_excess"] for p in parts)
    ok = violations == 0
    row = ["support-bound", cell, _params_str(spec), max_excess, 0.0,
           math.nan, math.nan, spec["slack"], ok]
    return row, {"check": "support-bound", "cell": cell, "violations": violations,
                 "max_excess": max_excess, "pass": ok}


def _run_commutativity(cfg, spec, task):
    q, d = spec["q"], spec["d"]
    field = cl.REAL if d == 1 else cl.COMPLEX
    param = BesselParam(spec["mu"], q, d)
    r = _matrix_from_spec(spec, "r", field)
    s = _matrix_from_spec(spec, "s", field)
    rng_a = rng_for(cfg["seed"], task["cell"], task["block"], 0)
    rng_b = rng_for(cfg["seed"], task["cell"], task["block"], 1)
    t_rs = convolve_points(r, s, param, rng_a, task["size"])
    t_sr = convolve_points(s, r, param, rng_b, task["size"])
    return {"a": cl.trace_herm(t_rs @ t_rs), "b": cl.trace_herm(t_sr @ t_sr)}


def _reduce_commutativity(spec, parts, cell):
    a = np.concatenate([p["a"] for p in parts])
    b = np.concatenate([p["b"] for p in parts])
    _, pvalue = lab.ks_2samp(a, b)
    ok = pvalue >= spec["level"]
    row = ["commutativity", cell, _params_str(spec), pvalue, spec["level"],
           math.nan, math.nan, spec["level"], ok]
    return row, {"check": "commutativity", "cell": cell, "pvalue": pvalue,
                 "level": spec["level"], "pass": ok}


def _run_m2_additivity(cfg, spec, task):
    rng = rng_for(cfg["seed"], task["cell"], task["block"])
    law = law_from_spec(spec["law"])
    wcfg = BesselWalkConfig(param=BesselParam(spec["mu"], spec["q"], spec["d"]),
                            law=law, n_steps=spec["n_steps"],
                            checkpoints=(spec["n_steps"],))
    traj = run_bessel_walks(wcfg, rng, task["size"])
    tr = traj.tr_squared()[0]
    return {"count": task["size"], "sum": float(np.sum(tr)),
            "sum_sq": float(np.sum(tr * tr))}


def _reduce_m2_additivity(spec, parts, cell):
    _, mean, se = pooled_mean_se(parts)
    expected = spec["n_steps"] * law_moments(law_from_spec(spec["law"])).m2
    ratio = diff_over_se(abs(mean - expected), se)
    ok = ratio <= spec["max_se"]
    row = ["m2-additivity", cell, _params_str(spec), mean, expected, se,
           ratio, spec["max_se"], ok]
    return row, {"check": "m2-additivity", "cell": cell, "diff_over_se": ratio,
                 "max_se": spec["max_se"], "pass": ok}


def _run_m1_subadd(cfg, spec, task):
    rng = rng_for(cfg["seed"], task["cell"], task["block"])
    law1 = law_from_spec(spec["law"])
    law2 = law_from_spec(spec["law2"])
    param = BesselParam(spec["mu"], spec["q"], spec["d"])
    k = task["size"]
    s1 = law1.sample(rng, k)
    s2 = law2.sample(rng, k)
    h = cl.frob_norm(cl.cone_step(s1, s2, sample_contraction(param, rng, k)))
    return {"count": k, "sum": float(np.sum(h)), "sum_sq": float(np.sum(h * h))}


def _reduce_m1_subadd(spec, parts, cell):
    _, mean, se = pooled_mean_se(parts)
    bound = (law_moments(law_from_spec(spec["law"])).m1
             + law_moments(law_from_spec(spec["law2"])).m1)
    ok = mean <= bound + spec["max_se"] * se
    ratio = (mean - bound) / se if se > 0 else -math.inf
    row = ["m1-subadditivity", cell, _params_str(spec), mean, bound, se,
           ratio, spec["max_se"], ok]
    return row, {"check": "m1-subadditivity", "cell": cell,
                 "excess_over_se": ratio, "max_se": spec["max_se"], "pass": ok}


def _run_group_consistency(cfg, spec, task):
    law = law_from_spec(spec["law"])
    q, d, p, n = spec["q"], spec["d"], spec["p"], spec["n_steps"]
    rng_g = rng_for(cfg["seed"], task["cell"], task["block"], 0)
    rng_b = rng_for(cfg["seed"], task["cell"], task["block"], 1)
    gcfg = GroupWalkConfig(p=p, q=q, field=law.field, n_steps=n, law=law,
                           checkpoints=(n,), method="direct")
    bcfg = BesselWalkConfig(param=BesselParam(p * d / 2.0, q, d), law=law,
                            n_steps=n, checkpoints=(n,))
    gt = run_group_walks(gcfg, rng_g, task["size"])
    bt = run_bessel_walks(bcfg, rng_b, task["size"])
    return {"a": gt.tr_squared()[0], "b": bt.tr_squared()[0]}


def _reduce_group_consistency(spec, parts, cell):
    a = np.concatenate([p["a"] for p in parts])
    b = np.concatenate([p["b"] for p in parts])
    _, pvalue = lab.ks_2samp(a, b)
    ok = pvalue >= spec["level"]
    row = ["group-consistency", cell, _params_str(spec), pvalue, spec["level"],
           math.nan, math.nan, spec["level"], ok]
    return row, {"check": "group-consistency", "cell": cell, "pvalue": pvalue,
                 "level": spec["level"], "pass": ok}


def _run_character(cfg, spec, task):
    rng = rng_for(cfg["seed"], task["cell"], task["block"])
    from .bessel import convolve_points_scalar

    param = BesselParam(spec["mu"], 1, 1)
    t = convolve_points_scalar(spec["r1"], spec["r2"], param, rng, task["size"])
    phi = bessel_character_1d(spec["mu"], t, spec["s"])
    return {"count": task["size"], "sum": float(np.sum(phi)),
            "sum_sq": float(np.sum(phi * phi))}


def _reduce_character(spec, parts, cell):
    _, mean, se = pooled_mean_se(parts)
    target = (bessel_character_1d(spec["mu"], spec["r1"], spec["s"])
              * bessel_character_1d(spec["mu"], spec["r2"], spec["s"]))
    ratio = diff_over_se(abs(mean - target), se)
    ok = ratio <= spec["max_se"]
    row = ["character", cell, _params_str(spec), mean, float(target), se,
           ratio, spec["max_se"], ok]
    return row, {"check": "character", "cell": cell, "diff_over_se": ratio,
                 "max_se": spec["max_se"], "pass": ok}


def _run_contraction_beta(cfg, spec, task):
    rng = rng_for(cfg["seed"], task["cell"], task["block"])
    param = BesselParam(spec["mu"], 1, 1)
    v = sample_contraction(param, rng, task["size"])[:, 0, 0].real
    return {"u": v * v}


_BETA_TOP = 1.0 - 2.0**-40


def _reduce_contraction_beta(spec, parts, cell):
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
    ok = ks <= spec["ks_max"]
    row = ["contraction-beta", cell, _params_str(spec), ks, 0.0,
           math.nan, math.nan, spec["ks_max"], ok]
    return row, {"check": "contraction-beta", "cell": cell, "ks": ks,
                 "ks_max": spec["ks_max"], "pass": ok}


def _run_mu_scaling(cfg, spec, task):
    from .bessel import paired_composition_diffs

    law = law_from_spec(spec["law"])
    q = spec["q"]
    f = ClippedQuadraticForm(direction=np.eye(q), cap=spec["cap"])
    out = {"count": task["size"]}
    for role, mu in ((0, spec["mu"]), (1, 4.0 * spec["mu"])):
        rng = rng_for(cfg["seed"], task["cell"], task["block"], role)
        param = BesselParam(mu, q, spec["d"])
        diffs = paired_composition_diffs(law, param, spec["n_steps"], f,
                                         task["size"], rng)
        out[f"sum{role}"] = float(np.sum(diffs))
        out[f"sum_sq{role}"] = float(np.sum(diffs * diffs))
    return out


def _reduce_mu_scaling(spec, parts, cell):
    gaps = []
    ses = []
    for role in (0, 1):
        _, mean, se = pooled_mean_se(parts, f"sum{role}", f"sum_sq{role}")
        gaps.append(abs(mean))
        ses.append(se)
    ratio = gaps[0] / gaps[1] if gaps[1] > 0 else math.inf
    ok = spec["ratio_lo"] <= ratio <= spec["ratio_hi"]
    row = ["mu-scaling", cell, _params_str(spec), ratio, 2.0,
           math.nan, math.nan, spec["ratio_hi"], ok]
    return row, {"check": "mu-scaling", "cell": cell, "gap_mu": gaps[0],
                 "gap_4mu": gaps[1], "se_mu": ses[0], "se_4mu": ses[1],
                 "ratio": ratio, "lo": spec["ratio_lo"], "hi": spec["ratio_hi"],
                 "pass": ok}


_AXIOM_RUNNERS = {
    "support-bound": _run_support_bound,
    "commutativity": _run_commutativity,
    "m2-additivity": _run_m2_additivity,
    "m1-subadditivity": _run_m1_subadd,
    "group-consistency": _run_group_consistency,
    "character": _run_character,
    "contraction-beta": _run_contraction_beta,
    "mu-scaling": _run_mu_scaling,
}

_AXIOM_REDUCERS = {
    "support-bound": _reduce_support_bound,
    "commutativity": _reduce_commutativity,
    "m2-additivity": _reduce_m2_additivity,
    "m1-subadditivity": _reduce_m1_subadd,
    "group-consistency": _reduce_group_consistency,
    "character": _reduce_character,
    "contraction-beta": _reduce_contraction_beta,
    "mu-scaling": _reduce_mu_scaling,
}


def _params_str(spec) -> str:
    skip = {"check", "law", "law2", "r", "s", "r_squared", "s_squared",
            "replicates", "draws", "max_se", "level", "ks_max",
            "ratio_lo", "ratio_hi", "slack", "cap"}
    parts = [f"{k}={spec[k]}" for k in sorted(spec) if k not in skip]
    return " ".join(parts)


def _canonical_matrix_entry(raw, key, field, out, err_field) -> str:
    """Echo a matrix entry (key or key_squared) into the canonical dict
    under whichever name the input used; returns that name."""
    used = f"{key}_squared" if f"{key}_squared" in raw else key
    if used not in raw:
        raise ConfigError(err_field, "missing required matrix")
    try:
        out[used] = normalize_matrix_spec(raw[used], field)
    except ValueError as exc:
        raise ConfigError(err_field, str(exc)) from exc
    return used


EXPERIMENTS = {
    exp.name: exp
    for exp in (WalkGroupExperiment, WalkBesselExperiment, ConvolveExperiment,
                KappaExperiment, CltCheckExperiment, BerryEsseenScanExperiment,
                MomentIdentityExperiment, AxiomsExperiment)
}
