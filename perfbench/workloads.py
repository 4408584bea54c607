"""The benchmark's four workloads, generated from a seed.

Each workload is a list of configs in the harness schema.  The workload
seed only draws the configs' master seeds, so every seed runs the same
shapes, branches and work counts; only the random streams differ.  Each
config carries the verdict every one of its checks must reach, and the
number of work units it performs (``updates_per_s`` counts these).

Thresholds are the shipped acceptance configs' thresholds rescaled to
the smaller sample sizes used here, chosen so that a correct program
fails a check at a given seed with probability below about 1e-5: a
statistical check that failed now and then by chance would make the
benchmark's verdict depend on the seed rather than on the program.

This module imports nothing from numpy or conewalk, so the entry point
can build inputs before any BLAS library is loaded.
"""

from __future__ import annotations

import copy
import math
import random

WORKLOADS = ("scalar-walk", "matrix-walk", "contraction", "replicate-dump")

# q = 2 real mixture used by the demo and c02/c03/c07 configs
_MIX_Q2_REAL = {
    "kind": "finite_mixture",
    "field": "real",
    "atoms_squared": [
        [[0.95, 0.0], [0.0, 0.5]],
        [[0.05, 0.0], [0.0, 0.5]],
        [[0.5, 0.0], [0.0, 0.95]],
        [[0.5, 0.0], [0.0, 0.05]],
        [[0.5, 0.35], [0.35, 0.5]],
        [[0.5, -0.35], [-0.35, 0.5]],
    ],
    "weights": [1.0 / 6.0] * 6,
}

# q = 2 complex mixture: hermitian atoms with off-diagonal [re, im] pairs
_MIX_Q2_COMPLEX = {
    "kind": "finite_mixture",
    "field": "complex",
    "atoms_squared": [
        [[[0.9, 0.0], [0.3, 0.2]], [[0.3, -0.2], [0.6, 0.0]]],
        [[[0.4, 0.0], [0.0, -0.3]], [[0.0, 0.3], [0.8, 0.0]]],
        [[[1.2, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.2, 0.0]]],
    ],
    "weights": [1.0 / 3.0] * 3,
}

_TWO_POINT = {"kind": "two_point", "a": 1.0, "b": 2.0, "p_a": 0.5}

# the c04 support-bound grid: (q, d, mu), cheap and expensive cells alike
_SUPPORT_GRID = [
    (1, 1, 1.5), (1, 1, 1.8), (1, 1, 3.0), (1, 1, 25.0),
    (1, 2, 2.0), (1, 2, 2.3), (1, 2, 4.0), (1, 2, 25.0),
    (2, 1, 2.5), (2, 1, 2.8), (2, 1, 5.0), (2, 1, 25.0),
    (2, 2, 4.0), (2, 2, 4.3), (2, 2, 8.0), (2, 2, 25.0),
    (3, 1, 3.5), (3, 1, 3.8), (3, 1, 7.0), (3, 1, 25.0),
]


def _scalar_walk():
    return [
        # c08 shape: CLT1 at p = 5, closed-form 2 sin(arcsin(u)/3) branch.
        # At fixed p the statistic tends to a standardized chi-square(5),
        # 0.085 from N(0, 1) in sup distance, so the 0.02 KS check fails.
        ({"experiment": "clt-check", "name": "c08-clt1-p5", "kind": "CLT1",
          "engine": "group", "p": 5, "n_steps": 3000, "law": _TWO_POINT,
          "replicates": 8192, "ks_threshold": 0.02, "method": "polar"},
         {"ks-to-limit": False}, 3000 * 8192),
        # c10 shape: KS to chi-square(3) across n; p = 3 is the uniform branch
        ({"experiment": "berry-esseen-scan", "name": "c10-scan-p3",
          "law": {"kind": "log_normal", "log_mean": 0.0, "log_sd": 1.0},
          "p": 3, "n_grid": [2, 4, 8, 16, 32, 64], "replicates": 65536,
          "slope_threshold": -0.35, "method": "polar"},
         {"slope": True}, 126 * 65536),
        # c01 shape: exact second-moment identity, general chi-square branch
        ({"experiment": "moment-identity", "name": "c01-moment-identity",
          "law": _TWO_POINT, "grid": [[10, 20], [20, 50], [50, 200]],
          "replicates": 65536, "method": "polar", "max_se": 5.0},
         {"moment-identity": True}, 80 * 65536),
    ]


def _matrix_walk():
    checks_walk = {"m2-additivity": True}
    checks_clt = {"covariance": True, "mardia": True}
    return [
        # c07 shape: CLT4 on the index-mu engine at mu = 1e5
        ({"experiment": "clt-check", "name": "c07-clt4-bessel", "kind": "CLT4",
          "engine": "bessel", "mu": 100000.0, "n_steps": 64, "law": _MIX_Q2_REAL,
          "replicates": 2048, "max_se": 5.0, "mardia_level": 1e-5},
         checks_clt, 64 * 2048),
        # c09 shape: CLT3 polar group walk, Bartlett Haar block at p = 2e4
        ({"experiment": "clt-check", "name": "c09-clt3-group", "kind": "CLT3",
          "engine": "group", "p": 20000, "n_steps": 64,
          "law": {"kind": "point_mass", "field": "real",
                  "atom": [[1.0, 0.0], [0.0, 1.0]]},
          "replicates": 2048, "max_se": 5.0, "mardia_level": 1e-5,
          "method": "polar"},
         checks_clt, 64 * 2048),
        # demo walk-group: the direct route, p x q sums with QR frames
        ({"experiment": "walk-group", "name": "walk-group-direct-p50", "p": 50,
          "q": 2, "field": "real", "n_steps": 16, "checkpoints": [4, 8, 16],
          "law": _MIX_Q2_REAL, "replicates": 4096, "max_se": 5.0},
         checks_walk, 16 * 4096),
        # walk-bessel q = 2 real at mu = 10, where rejection beat Bartlett
        ({"experiment": "walk-bessel", "name": "walk-bessel-q2-mu10", "mu": 10.0,
          "q": 2, "d": 1, "n_steps": 16, "checkpoints": [4, 8, 16],
          "law": _MIX_Q2_REAL, "replicates": 4096, "max_se": 5.0},
         checks_walk, 16 * 4096),
        # complex q = 2 at large mu
        ({"experiment": "walk-bessel", "name": "walk-bessel-q2c-mu1e3",
          "mu": 1000.0, "q": 2, "d": 2, "n_steps": 16, "checkpoints": [8, 16],
          "law": _MIX_Q2_COMPLEX, "replicates": 4096, "max_se": 5.0},
         checks_walk, 16 * 4096),
        # q = 3 wishart_root law: Monte Carlo moments are set-up work
        ({"experiment": "walk-bessel", "name": "walk-bessel-q3-wishart",
          "mu": 12.0, "q": 3, "d": 1, "n_steps": 8, "checkpoints": [4, 8],
          "law": {"kind": "wishart_root", "field": "real", "dof": 4,
                  "scale": [[0.5, 0.1, 0.0], [0.1, 0.4, 0.0], [0.0, 0.0, 0.3]]},
          "replicates": 4096, "max_se": 5.0},
         checks_walk, 8 * 4096),
    ]


def _contraction():
    draws = 8192
    support = [{"check": "support-bound", "q": q, "d": d, "mu": mu,
                "draws": draws, "slack": 1e-08} for q, d, mu in _SUPPORT_GRID]
    n_kappa = 1000000
    n_beta = 65536
    n_conv = 16384
    return [
        ({"experiment": "axioms", "name": "c04-support-bound", "checks": support},
         {"support-bound": True}, draws * len(support)),
        # demo convolve shape: the one family that calls convolve_points
        ({"experiment": "convolve", "name": "convolve-q2-mu5", "q": 2, "d": 1,
          "mu": 5.0, "r": [[1.0, 0.2], [0.2, 0.5]], "s": [[0.4, 0.0], [0.0, 0.9]],
          "replicates": n_conv, "max_se": 5.0},
         {"m2-point-additivity": True, "support-bound": True}, n_conv),
        ({"experiment": "kappa", "name": "c12a-kappa", "q": 1, "d": 1,
          "mu_grid": [2.5, 6.0], "n_samples": n_kappa, "max_se": 5.0},
         {"kappa-quadrature": True}, 2 * n_kappa),
        # KS threshold 2.6 / sqrt(draws): the shipped 0.006 at 1e5 draws is 1.9
        ({"experiment": "axioms", "name": "c12b-contraction-beta",
          "checks": [{"check": "contraction-beta", "mu": 5.0, "draws": n_beta,
                      "ks_max": round(2.6 / math.sqrt(n_beta), 6)}]},
         {"contraction-beta": True}, n_beta),
    ]


def _replicate_dump():
    reps, cps = 100000, [4, 8, 16]
    return [
        ({"experiment": "walk-group", "name": "dump-walk-group", "p": 5, "q": 1,
          "n_steps": 16, "checkpoints": cps, "law": _TWO_POINT,
          "replicates": reps, "method": "polar", "emit": "replicates",
          "max_se": 5.0},
         {"m2-additivity": True}, 16 * reps),
        ({"experiment": "walk-bessel", "name": "dump-walk-bessel", "mu": 4.0,
          "q": 1, "d": 1, "n_steps": 16, "checkpoints": cps, "law": _TWO_POINT,
          "replicates": reps, "emit": "replicates", "max_se": 5.0},
         {"m2-additivity": True}, 16 * reps),
    ]


_FACTORIES = {
    "scalar-walk": _scalar_walk,
    "matrix-walk": _matrix_walk,
    "contraction": _contraction,
    "replicate-dump": _replicate_dump,
}


def build(workload: str, seed: int) -> list[dict]:
    """Configs of one workload at one seed.

    Returns a list of {"config", "expected", "work"} entries, where
    "expected" maps each check name to the verdict every check of that
    name must reach, and "work" is the config's count of cone-state
    updates (walks) or draws (sampler cells).
    """
    if workload not in _FACTORIES:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{int(seed)}")
    out = []
    for cfg, expected, work in _FACTORIES[workload]():
        cfg = copy.deepcopy(cfg)
        cfg["seed"] = rng.getrandbits(63)
        out.append({"config": cfg, "expected": dict(expected), "work": int(work)})
    return out
