"""Golden outputs: byte-level digests of scaled-down copies of every shipped
config, plus extra configs that reach each walk route and cone-step caller,
plus raw per-draw arrays of the cone kernels.

Each case is run through ``run_experiment`` and ``emit_outputs`` at
block_size 1000, so reduction merges several blocks, at one and at two
workers.  The digest is sha256 over every emitted file in name order: the
CSVs as written and the summary JSON with ``wall_time_s`` removed.  A
refactor that keeps the program's arithmetic keeps these digests.

Configs that emit only aggregates (block sums, KS distances) can absorb a
last-bit change in single draws, so ``DRAW_CASES`` also digests per-draw
arrays (dtype, shape and bytes) of point convolutions, the support-bound
``t``, Haar blocks, cone steps and Wishart-root law samples.

The digests depend on the floating-point results of numpy's BLAS/LAPACK
(``qr``, ``matmul``, ``eigh``) and are specific to the machine that
recorded them: x86-64, numpy 2.4 with its bundled OpenBLAS 0.3.31, whose
kernels are chosen by CPU model.  On another BLAS/LAPACK build or CPU
they may differ without any fault in the program; check such a case by
comparing the outputs of two checkouts on the same host.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from conewalk import cone_linalg as cl
from conewalk.bessel import BesselParam, convolve_points
from conewalk.harness import emit_outputs, run_experiment, validate_config
from conewalk.orbit_sampler import cone_block, sample_stiefel_frame
from conewalk.radial_laws import law_from_spec

REPO = Path(__file__).resolve().parents[1]
BLOCK = 1000


def _shipped(rel, **overrides):
    raw = json.loads((REPO / "configs" / rel).read_text())
    raw.update(overrides)
    return raw


def _scale_checks(rel, **overrides):
    raw = _shipped(rel)
    for spec in raw["checks"]:
        for key, val in overrides.items():
            if key in spec:
                spec[key] = val
    return raw


TWO_POINT = {"kind": "two_point", "a": 1.0, "b": 2.0, "p_a": 0.5}
MIX2 = {"kind": "finite_mixture", "field": "real",
        "atoms_squared": [[[1.0, 0.0], [0.0, 0.5]], [[0.5, 0.2], [0.2, 1.0]]],
        "weights": [0.5, 0.5]}
MIX2C = {"kind": "finite_mixture", "field": "complex",
         "atoms_squared": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
                           [[[0.6, 0.0], [0.1, 0.2]], [[0.1, -0.2], [1.0, 0.0]]]],
         "weights": [0.5, 0.5]}


def _walk_group(name, p, q, field, law, method, **extra):
    return {"experiment": "walk-group", "name": name, "seed": 4101, "p": p, "q": q,
            "field": field, "n_steps": 6, "checkpoints": [2, 6], "law": law,
            "replicates": 2500, "method": method, **extra}


def _walk_bessel(name, mu, q, d, law, **extra):
    return {"experiment": "walk-bessel", "name": name, "seed": 4102, "mu": mu,
            "q": q, "d": d, "n_steps": 6, "checkpoints": [3, 6], "law": law,
            "replicates": 2500, **extra}


def _axioms(name, *checks):
    return {"experiment": "axioms", "name": name, "seed": 4103, "checks": list(checks)}


CASES = {
    # scaled-down copies of the shipped configs
    "c01": _shipped("acceptance/c01_moment_identity.json", replicates=3000),
    "c02": _scale_checks("acceptance/c02_m2_additivity.json", replicates=2500),
    "c03": _scale_checks("acceptance/c03_group_consistency.json", replicates=2000),
    "c04": _scale_checks("acceptance/c04_support_bound.json", draws=1200),
    "c05": _scale_checks("acceptance/c05_character.json", draws=3000),
    "c06": _shipped("acceptance/c06_clt2_group.json", n_steps=20, replicates=2500),
    "c07": _shipped("acceptance/c07_cov_bessel.json", n_steps=8, replicates=2500),
    "c08": _shipped("acceptance/c08_clt1_group.json", n_steps=200, replicates=2500),
    "c09": _shipped("acceptance/c09_clt3_group.json", n_steps=10, replicates=2500),
    "c10": _shipped("acceptance/c10_berry_esseen.json", n_grid=[4, 8, 16, 32],
                    replicates=2500),
    "c11": _scale_checks("acceptance/c11_mu_scaling.json", replicates=2500),
    "c12a": _shipped("acceptance/c12a_kappa.json", n_samples=250000),
    "c12b": _scale_checks("acceptance/c12b_contraction_beta.json", draws=3000),
    "demo-convolve": _shipped("demo/convolve.json", replicates=3000),
    "demo-walk-bessel": _shipped("demo/walk_bessel.json", replicates=2500),
    "demo-walk-group": _shipped("demo/walk_group.json", replicates=2500),
    "extras-clt1": _shipped("extras/clt1_growing_p.json", n_steps=100, replicates=2500),
    # every walk route: group q = 1 and q = 2, direct and polar, real and complex
    "group-q1-direct-real": _walk_group("g1dr", 7, 1, "real", TWO_POINT, "direct"),
    "group-q1-polar-complex": _walk_group(
        "g1pc", 4, 1, "complex", {"kind": "point_mass", "field": "complex", "atom": 1.5},
        "polar"),
    "group-q1-direct-complex": _walk_group(
        "g1dc", 4, 1, "complex", {"kind": "point_mass", "field": "complex", "atom": 1.5},
        "direct"),
    "group-q2-polar-real": _walk_group("g2pr", 9, 2, "real", MIX2, "polar",
                                       emit="replicates"),
    "group-q2-polar-complex": _walk_group("g2pc", 9, 2, "complex", MIX2C, "polar"),
    "group-q2-direct-complex": _walk_group("g2dc", 5, 2, "complex", MIX2C, "direct"),
    # the q = 1 references over C, at the real dimension m = 2p
    "moment-identity-complex": {"experiment": "moment-identity", "name": "mic", "seed": 4106,
                                "law": dict(TWO_POINT, field="complex"),
                                "grid": [[10, 2], [20, 5]], "replicates": 3000},
    "clt1-complex": {"experiment": "clt-check", "name": "clt1c", "seed": 4107,
                     "kind": "CLT1", "engine": "group", "p": 5, "n_steps": 200,
                     "law": dict(TWO_POINT, field="complex"), "replicates": 2500},
    # the scalar clt-check reductions that no shipped config reaches: CLT3 at
    # q = 1, held to N(0, 2 s2^2), and CLT2 on the index-mu engine
    "clt3-q1-group": {"experiment": "clt-check", "name": "clt3q1", "seed": 4110,
                      "kind": "CLT3", "engine": "group", "p": 40, "n_steps": 8,
                      "law": TWO_POINT, "replicates": 2500},
    "clt2-q1-bessel": {"experiment": "clt-check", "name": "clt2q1b", "seed": 4111,
                       "kind": "CLT2", "engine": "bessel", "mu": 5000.0, "n_steps": 10,
                       "law": TWO_POINT, "replicates": 2500},
    # CLT4 on the scalar path at q = 1, and CLT4 as a complex matrix
    # statistic (q = 2 over C on the group engine), in their regime
    "clt4-q1-group": {"experiment": "clt-check", "name": "clt4q1", "seed": 4112,
                      "kind": "CLT4", "engine": "group", "p": 5000, "n_steps": 10,
                      "law": TWO_POINT, "replicates": 2500},
    "clt4-q2-complex-group": {"experiment": "clt-check", "name": "clt4q2c", "seed": 4113,
                              "kind": "CLT4", "engine": "group", "p": 2000, "n_steps": 8,
                              "law": MIX2C, "replicates": 2500},
    # the index-mu walk at q = 1 over C and at q = 2 over C
    "bessel-q1-complex": _walk_bessel("b1c", 3.0, 1, 2, {"kind": "point_mass",
                                                         "field": "complex", "atom": 1.0},
                                      emit="replicates"),
    "bessel-q2-complex": _walk_bessel("b2c", 6.0, 2, 2, MIX2C),
    # convolve at q = 1, and the axioms that call the cone step directly
    "convolve-q1": {"experiment": "convolve", "name": "conv1", "seed": 4104, "q": 1,
                    "d": 1, "mu": 2.5, "r": [[1.0]], "s": [[0.6]], "replicates": 3000},
    "axiom-extras": _axioms(
        "ax",
        {"check": "m1-subadditivity", "q": 2, "d": 1, "mu": 4.0, "law": MIX2,
         "replicates": 2500},
        {"check": "m1-subadditivity", "q": 1, "d": 2, "mu": 3.0,
         "law": {"kind": "point_mass", "field": "complex", "atom": 1.0},
         "replicates": 2500},
        {"check": "commutativity", "q": 2, "d": 2, "mu": 6.0,
         "r": [[[1.0, 0.0], [0.2, 0.1]], [[0.2, -0.1], [0.6, 0.0]]],
         "s": [[[0.4, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.1, 0.0]]],
         "replicates": 2500},
        {"check": "mu-scaling", "q": 2, "d": 1, "mu": 40.0, "law": MIX2, "n_steps": 4,
         "cap": 6.0, "replicates": 2500},
        {"check": "group-consistency", "q": 2, "d": 2, "p": 4, "law": MIX2C,
         "n_steps": 3, "replicates": 2000},
    ),
    # kappa at a matrix index, in both importance-sampling branches
    "kappa-q2": {"experiment": "kappa", "name": "kappa-q2", "seed": 4105, "q": 2, "d": 1,
                 "mu_grid": [2.7, 5.0], "n_samples": 250000},
    # the q = 1 references at mu = 0.52 < rho, where 47% of the draws of v
    # round onto |v| = 1
    "character-mu0.52": _axioms("char052", {"check": "character", "mu": 0.52, "r1": 1.0,
                                            "r2": 2.0, "s": 0.7, "draws": 3000}),
    # (ks_max 2.6 / sqrt(draws))
    "contraction-beta-mu0.52": _axioms("beta052", {"check": "contraction-beta", "mu": 0.52,
                                                   "draws": 3000, "ks_max": 0.047}),
}

# digests of the outputs as recorded; never regenerate them to make a refactor pass.
# The q >= 2 cases here and in DRAW_GOLDEN were recorded again once, when the
# PSD root went from two eigendecompositions to one (a closed form at q = 2),
# which changed their last bits; the q = 1 cases kept their digests.  Every
# case that draws a contraction v was recorded again once more when the
# rejection sampler gave way to the Bartlett Haar block (other random draws),
# together with c09, group-q2-polar-real and the two stiefel-q2 draw cases,
# whose q = 2 Haar-block Gram matrix and product are now written out
# elementwise (last bits).  demo-convolve was recorded again when the
# convolve family stopped re-clamping its point matrices through a second
# eigendecomposition (last bits of r and s).  c05, c12a and c12b were
# recorded again when their references became scipy.special closed forms
# (last bits of the character values, of kappa and of the Beta CDF).  Every
# case that reduces a mean and its standard error (the walks, convolve,
# kappa, moment-identity and the m2, m1, character and mu-scaling checks)
# was recorded again once when the one-pass sums of x and x^2 gave way to
# two-pass block moments merged pairwise (last bits of means and SEs).
# group-q1-polar-complex, bessel-q1-complex and c03 were recorded again when
# the q = 1 walks of both engines began to draw Re v from one real sampler
# at m = d p or m = 2 mu (other random draws over C; c03's index-mu side at
# mu = 3/2, m = 3, became a uniform draw).  The q = 2 walks that make the
# cone step or draw direct-route frames (bessel-q2-complex, c07, c09,
# demo-walk-bessel, demo-walk-group and the group-q2 cases) and the
# cone-step-q2 and convolve-q2 draw cases were recorded again when the
# q = 2 cone step's products were written out and the q = 2 < p Haar frames
# became CholeskyQR2 in place of QR (last bits).  c04, axiom-extras,
# bessel-q2-complex and the group-q2 cases, with the support-bound-q3-real
# and wishart-root-q2 draw cases, were recorded again when the eigensolver
# behind the q >= 3 roots and behind clamp_psd at every q went from LAPACK
# to a Jacobi sweep over the whole stack (last bits; the q = 2 cases move
# through clamp_psd of their atoms or scale at parse time).  When polar
# became the default route of every group walk (the "auto" method, which
# took direct at p <= 64, was removed) and every Haar frame became QR again
# (CholeskyQR2 at q = 2 < p was removed), demo-walk-group (now the polar
# route, and "polar" in its config echo), group-q2-direct-complex and the
# cone-step-q2 draw cases (QR frames) were recorded again; c03 and
# axiom-extras draw direct q = 2 frames too, but their two-sample KS
# p-values absorb the last bits.  moment-identity-complex and clt1-complex
# were recorded when the q = 1 group references began to take the real
# dimension m = d p.  bessel-q2-complex, c02, c03, c07 and demo-walk-bessel
# were recorded again when the index-mu walk became the polar group walk's
# engine at nu = 2 mu / d - q, which makes the cone step in the group
# walk's order cone_step(s, a, v) (other q >= 2 realizations, same law).
# Every case that draws a q >= 2 Haar block (axiom-extras,
# bessel-q2-complex, c02, c03, c04, c07, c09, demo-convolve,
# demo-walk-bessel, demo-walk-group and the group-q2-polar cases, with the
# convolve-q2, stiefel-q2 and support-bound-q3-real draw cases) was
# recorded again when v = G1 (G1*G1 + W)^(-1/2) gave way to v = G1 R^(-1)
# with R the Cholesky factor of G1*G1 + W (other realizations, same law).
# c05 and character-mu0.52 were recorded again when the axioms params
# column began to show the character check's s (the CSV's params cell).
# When the walks began to carry a factor R of the Gram matrix (R*R = S*S)
# in place of the PSD root, with each step one pivoted Cholesky factor of
# T and each wishart_root draw a Bartlett factor, the q >= 2 cases
# (axiom-extras, bessel-q2-complex, c02, c03, c04, c07, c09,
# demo-convolve, demo-walk-bessel, demo-walk-group and the group-q2
# cases, with the cone-step-q2, convolve-q2, support-bound-q3-real and
# wishart-root-q2 draw cases) were recorded again (other realizations of
# the same law; config-time roots now come from LAPACK's eigh); every
# q = 1 case held.  c04, axiom-extras and convolve-q1, with the
# convolve-q1-matrix draw case, were recorded again when the q = 1 checks
# began to draw Re v through cone_block, the walks' sampler, and to step
# the radii with the walks' scalar cone step (other draws over C and at
# m = 2 mu = 3; last bits elsewhere; c05, c12b and the mu0.52 cases held).
# c12a and kappa-q2 were recorded again when kappa_exact began to take each
# Gamma ratio as a Pochhammer symbol (last bits of the reference, and of
# kappa-q2's ball-branch estimate, whose constant takes the same form).
# c12a and kappa-q2 were recorded again when kappa began to block at the
# config's block_size (1000 here, where it had kept blocks of 1e5), and c04
# with the support-bound-q3-real draw case when the check's r and s became
# Bartlett factors drawn by the wishart_root law (other draws, same law).
# group-q1-direct-real and group-q1-direct-complex were recorded again when
# the q = 1 direct route began to sum radial matrices X = Q L, with the QR
# frame in place of g / |g| (the same draws; last bits); c03 walks that
# route too, and its two-sample KS p-value absorbs the last bits.
# clt3-q1-group and clt2-q1-bessel were recorded before the harness took
# over the families' table read, cell grouping and within-max_se verdict,
# so that refactor is held to the two scalar clt-check branches as well.
# c08 and the convolve-q1-matrix draw case were recorded again when the
# m = 5 draw of Re v became 4 h / (1 + h^2) at h = tan(arcsin(u)/6), the
# same inverse CDF as 2 sin(arcsin(u)/3) on the same uniform (last bits).
# group-q1-direct-complex was recorded again when the q = 1 frames became
# g / ||g|| without QR (last bits; back to its digest before the QR frame);
# group-q1-direct-real and c03 held.
# clt4-q1-group and clt4-q2-complex-group were recorded before the
# statistics' scope, normalization, limit and regime moved into one record
# per statistic, so that refactor is held to CLT4's scalar path and to a
# complex matrix statistic as well.
GOLDEN = {
    "axiom-extras": "e4237f7f0769648aeabae69c05f1b730325d7239d58a70362bf548aab738c225",
    "bessel-q1-complex": "28d2ecd693275f2ad61bcca36ec0c3d0e7ce3f786f956e318ee02241f0961386",
    "bessel-q2-complex": "eea3047ad11793981342712e0afb0310047da7be5009f452d16738ac9c45fa1d",
    "c01": "dab094f2da71e9a7e9721e2e381f5f0008bdec6db7223cfc0c00538d4baaa467",
    "c02": "c9e18a90254adab8860aa7c43621e85b2e1838eb535b6efae6327681e3c0353b",
    "c03": "4c01b41c328028e3e965b90e193f33c5ba6a2319bd86c9f1f71dfbc34c6c790b",
    "c04": "50b7e336b319efd3461ee255e2f413e109c71ec22134df5399c5ae9af9208504",
    "c05": "01a4ba48903ca952bc91bbe212643d7aba90ceaff8cbb61b6ab53cb2382ca0c6",
    "c06": "70c64ad17cc4e0f6cee93b46ed0bb32bb68fbf3b26cffdf03f6a199c5ee0e878",
    "c07": "37b600df46cc04786ff7bb6173820f42a73754ae661524cf33400bede4466af3",
    "c08": "a7aba08b60913766d5c15d048c51e2cec5875a266580801af1aece4c676a1cef",
    "c09": "9f92042655cf4aa26dfa39e82fadb50e076f88c7681cda4993d6111b82898c5d",
    "c10": "69ad9462a399ab0aac34e68d476278147643bf164659ee3a0c1b3f2df5204519",
    "c11": "3434369133bc09b75de862309d4f7d20885b290c59fbcd158edae1b71dd6f7f8",
    "c12a": "191aa222a43951d93ea39c093b820b2d330aceb3e9a5c8b26f97f479a8d1acca",
    "c12b": "9fcdecc1ccf91c6e99d70627a8dd905c96e9053396aabe10f8f404f7f37042f4",
    "character-mu0.52": "9b1e763098247c40fcacd5e30c96fce159003060b92fbc65d4854d4f590f193b",
    "contraction-beta-mu0.52": "1d8c8ed2c6d98f85edaa1a0ea90063f47e619574facf1fe66255ab0526eb956f",
    "convolve-q1": "7b078dfe890a63d4adde258f166d8a741f1d175db206d6536a80546939c85bcb",
    "demo-convolve": "c2d513f8e62d2bd0e01d69745a163545eb8fcd905e6ad8e808a339b989759882",
    "demo-walk-bessel": "cb8fa76742fa0e88c78ad10f050b40ebd385a40745c634bb4d8088a64fd5676e",
    "demo-walk-group": "e724731984a1d8bd4e016cea1c44825a812c19d8437d524088dfbc64c49014fa",
    "extras-clt1": "8e02c9ea40b7de2ca4c568f985ef9fdc310cef714a335465b07882384b070bdf",
    "group-q1-direct-complex": "455eda430f5808f9da4a6b0e4bcbd03c76fd3f4dd66ed8880e36b5da191449c3",
    "group-q1-direct-real": "70f469e09c856e76608a9bed312869b7f83338e704a6349a5036646a06ee4097",
    "group-q1-polar-complex": "1f1eb261f0ce36ea43a0adb56db7c750a7ae6545e8055ab948c819fa60e7325b",
    "group-q2-direct-complex": "02e19fdf9f638a67e8458b67a31e1a05426f6ab2597e21bc7951fa8dd9acb063",
    "group-q2-polar-complex": "b6b842547f1d81ec1aec40d30c163e1dc9ae4c9319c62dc24caf487969dd12f4",
    "group-q2-polar-real": "9c453adbeaf59b90774e2c73d635c65c6fc79d127381c942a6e38c9095cf464d",
    "kappa-q2": "055326a124e8f01579d4a59bd51fa862330e9902cbbde267750a0c791c6edcab",
    "moment-identity-complex":
        "c07da019e884e0bfba51753b724431604f58dd46515a0ff25fa879a6523e7e8b",
    "clt1-complex": "23f24ff6ec3f4e98b1e0e4b63419d3064ae45ad89a9e64c9de3ac286ebaf8cb4",
    "clt2-q1-bessel": "003f346fb227cf4e7b0a6756794c487b72500d4e31c4347c2762637f4d2a26cb",
    "clt3-q1-group": "a6dfec851e464d78d452a58a2b54817f254d71ff2f5166cfa77208f5eb776c51",
    "clt4-q1-group": "a5f2a3d38954cca528fdf8e63f12e7efe1cffcde545e0a968c149423fccba2ef",
    "clt4-q2-complex-group":
        "65b8d545d5862afba48e2f2672298b9c2c2087c16aaadbda599cc310947d8421",
}


def _digest(raw, workers, out_dir):
    raw = dict(raw, block_size=BLOCK)
    cfg, warnings = validate_config(raw)
    rec = run_experiment(cfg, workers=workers, warnings=warnings)
    paths = emit_outputs(rec, out_dir)
    h = hashlib.sha256()
    for path in sorted(paths, key=lambda p: p.name):
        data = path.read_bytes()
        if path.name.endswith(".summary.json"):
            summary = json.loads(data)
            summary.pop("wall_time_s")
            data = json.dumps(summary, sort_keys=True, indent=2).encode()
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case, workers, tmp_path):
    assert _digest(CASES[case], workers, tmp_path) == GOLDEN[case]


# -- per-draw arrays ---------------------------------------------------------

DRAWS = 2000


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _draw_convolve(q, d, mu, seed):
    rng = _rng(seed)
    g = rng.standard_normal((2, q + 1, q))
    if d == 2:
        g = g + 1j * rng.standard_normal((2, q + 1, q))
    r, s = cl.herm_part(np.swapaxes(np.conj(g), -1, -2) @ g) / (q + 1)
    return [convolve_points(r, s, BesselParam(mu, q, d), rng, DRAWS)]


def _draw_support_bound(q, d, mu, monkeypatch):
    # the support-bound check emits only counts and a maximum; record its t
    seen = []
    step = cl.cone_step

    def recording_step(a, s, v):
        t = step(a, s, v)
        seen.append(t)
        return t

    monkeypatch.setattr(cl, "cone_step", recording_step)
    raw = _axioms("sb", {"check": "support-bound", "q": q, "d": d, "mu": mu,
                         "draws": 1200})
    cfg, warnings = validate_config(dict(raw, block_size=500))
    run_experiment(cfg, workers=1, warnings=warnings)
    return seen


def _draw_stiefel(p, q, field, seed):
    return [cone_block(p - q, q, field, _rng(seed), DRAWS)]


def _draw_cone_step(q, field, seed):
    rng = _rng(seed)
    dtype = cl.field_dtype(field)
    out = []
    for scale in (1.0, 0.3):
        g = rng.standard_normal((2, DRAWS, q + 2, q)).astype(dtype)
        if field == cl.COMPLEX:
            g = g + 1j * rng.standard_normal((2, DRAWS, q + 2, q))
        a, s = scale * cl.herm_part(np.swapaxes(np.conj(g), -1, -2) @ g)
        v = sample_stiefel_frame(q + 3, q, field, rng, DRAWS)[:, :q, :]
        out.append(cl.cone_step(a, s, v))
    return out


def _draw_wishart_root(field, seed):
    scale = [[1.0, 0.3], [0.3, 0.5]] if field == cl.REAL else \
        [[[1.0, 0.0], [0.3, 0.2]], [[0.3, -0.2], [0.5, 0.0]]]
    law = law_from_spec({"kind": "wishart_root", "field": field, "scale": scale, "dof": 3})
    return [law.sample(_rng(seed), DRAWS)]


DRAW_CASES = {
    "convolve-q1-matrix": lambda mp: _draw_convolve(1, 1, 2.5, 4201),
    "convolve-q2-real": lambda mp: _draw_convolve(2, 1, 4.0, 4202),
    "convolve-q2-complex": lambda mp: _draw_convolve(2, 2, 6.0, 4203),
    "support-bound-q3-real": lambda mp: _draw_support_bound(3, 1, 12.0, mp),
    "stiefel-q2-real": lambda mp: _draw_stiefel(5, 2, cl.REAL, 4204),
    "stiefel-q2-complex-small-dof": lambda mp: _draw_stiefel(3, 2, cl.COMPLEX, 4205),
    "cone-step-q2-real": lambda mp: _draw_cone_step(2, cl.REAL, 4206),
    "cone-step-q2-complex": lambda mp: _draw_cone_step(2, cl.COMPLEX, 4207),
    "wishart-root-q2-real": lambda mp: _draw_wishart_root(cl.REAL, 4208),
    "wishart-root-q2-complex": lambda mp: _draw_wishart_root(cl.COMPLEX, 4209),
}

# digests of the per-draw arrays as recorded; never regenerate them to make a
# refactor pass
DRAW_GOLDEN = {
    "cone-step-q2-complex": "2fdbdc649dab64623d3555ed283133fa4f74111f7ac21ac40c04c9197508d644",
    "cone-step-q2-real": "4207a23c8bb671297903600957b0cf88bc8808577ecffb06eaff2a3bff9b5cda",
    "convolve-q1-matrix": "cfc71df45af10f2a82077d77eea85aa39406ff33cd5962d326d8d2fba335f5a8",
    "convolve-q2-complex": "4f9fcd359bdeab5db49ebac561dd056417b9f0609348debc72664ab9b9d45402",
    "convolve-q2-real": "a057d424f867c4a874d7a398db222a018ca813b7fd4fab690db8e1e4bb62a8f4",
    "stiefel-q2-complex-small-dof": "2450ba25ac3fae56e3b1cf4289ca166bcf8a46b7f160bdebf5b49db11abd6743",
    "stiefel-q2-real": "be879c951dc097a48ac9fb525fba8626e8767b1e9f0bfbc7fa8379d3903feec8",
    "support-bound-q3-real": "ea33662c9cdb34e38a6681bac11fa0b7f662ca131b15e9f93580a9e968f3bdb2",
    "wishart-root-q2-complex": "f98d8b15945bbb57ba31d95785258add8a561492c7ee36df9e539c2c1fec1163",
    "wishart-root-q2-real": "765bf0e32aabebbe9e6fedb7885795178e3695f6354e81e6118b29f5cdde9766",
}


def _array_digest(arrays):
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode() + b"\0" + arr.tobytes() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(DRAW_CASES))
def test_golden_draws(case, monkeypatch):
    assert _array_digest(DRAW_CASES[case](monkeypatch)) == DRAW_GOLDEN[case]
