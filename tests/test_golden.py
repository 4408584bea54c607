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
(``eigh``, ``qr``, ``matmul``) and are specific to the machine that
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
from conewalk.orbit_sampler import sample_stiefel_frame, stiefel_block
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
}

# digests of the outputs as recorded; never regenerate them to make a refactor pass.
# The q >= 2 cases here and in DRAW_GOLDEN were recorded again once, when the
# PSD root went from two eigendecompositions to one (a closed form at q = 2),
# which changed their last bits; the q = 1 cases kept their digests.
GOLDEN = {
    "axiom-extras": "d2bfb33a0964c8ae6fb5484399815b51d13dc86f1885d3d8d5f6b78ee2ce32eb",
    "bessel-q1-complex": "3b2bf1d66b765bd6b49cb48cc34475c30155842297c846589a71858fe0c1e4a6",
    "bessel-q2-complex": "9e9cdbef9de91460e0762c899c916aa6d33720921771943aff0f1a048133a0ce",
    "c01": "4e2291d018d98570858a74415f04bd64b9e7c8a7682217eeb2769fd871b0df73",
    "c02": "f521056fbd4b9bae9122ae8557eb2d3b2c25bd574fef80b8c46e2904878845e2",
    "c03": "f0bdaa7ee78e3d3d69b2980ae5e20ed1cf990ce1c160f921e6718a4c95991ddd",
    "c04": "d8d6c30b9250ceb6c961b68a384adb5df4788252bc5f6265b7391bc388c21238",
    "c05": "a3cf94a2e1f0610d284478548839775b5f006c88c314f1ba9d4b5524b178a507",
    "c06": "70c64ad17cc4e0f6cee93b46ed0bb32bb68fbf3b26cffdf03f6a199c5ee0e878",
    "c07": "8de0e6a52870c7ee3daf8e9f90b2f4c130b5d4534ef37050be2c5c03ec81d2ca",
    "c08": "f241ce0ceec44f4c7f24a3cf1bf3d78199e3507389866f7e458c7a7487106c27",
    "c09": "37e77c8288685f04e71859297519bfb6ef3b1617adc4252477b4ac8ed7e533af",
    "c10": "69ad9462a399ab0aac34e68d476278147643bf164659ee3a0c1b3f2df5204519",
    "c11": "79be1c41e8b74011a2370c313f7dcc3bd015201ef26033608a33b4876e90da99",
    "c12a": "040e29cdb14c3113d7d390dcfe22016e0b0c00c4d9fd436096199782b0d4e431",
    "c12b": "6d23dc269495fd2ad5c0c2bdd8bc28b87f678aee8333871014f2b40a92531340",
    "convolve-q1": "9f8e863c88b7fbfc4c4ae49ad63c95810db2018d94b2f0fb95d90e7b18e80103",
    "demo-convolve": "b3eeb293669217ae4aec101de500d338458bd80c54614f326de59ec72250761e",
    "demo-walk-bessel": "9f45a2d38c70813f5b6bf00ee1c3393e500f0b3fb281c29d81473b5d6b7a11e1",
    "demo-walk-group": "f119a93bcc4e3653f3642b250043520b3d531123ab7d94b9de1fa722fc2e5cc6",
    "extras-clt1": "8e02c9ea40b7de2ca4c568f985ef9fdc310cef714a335465b07882384b070bdf",
    "group-q1-direct-complex": "79bffee1089f8a06e3e08d6c388ed2a1d16c3d182bd6259a0fb8e3044b57d0d0",
    "group-q1-direct-real": "f3f1a0e996f1d9f1f50642e2c98f9c5dc514336b00876650b22116dbf3ce0ed2",
    "group-q1-polar-complex": "cbeabfac57a1fca22b3248388d4299c7d0018491af4155e14d0fe2a38068d70a",
    "group-q2-direct-complex": "96e131a03d98709b4a94f017f8f6e45e8cf2753dcf1f056b99a0b7ca367bc6bd",
    "group-q2-polar-complex": "52b767e9ce40c97785148067551c9910117c77230e3b5919b155e7d197daf21c",
    "group-q2-polar-real": "1824910f1f5538fc8eaf6baa69c79c3882507330983e6ed67c0a08140b05cc20",
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
    return [stiefel_block(p, q, field, _rng(seed), DRAWS)]


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
    "cone-step-q2-complex": "5a8c47b500bc0269f53d1e32641bbc9eb82ff211fd99c02ddc796ed0ab18b8b1",
    "cone-step-q2-real": "d9680f07fdb0c3644057014a4914b02b70f2e1675280b5f9fa7b038600fb110c",
    "convolve-q1-matrix": "49b46b999b3caec2277a3673d1e6d5979b4a2db4a369b31694925ae380ec95b0",
    "convolve-q2-complex": "3261ecea2a2141ee071bf77eef18ad7d130202966f6ae9952cf5d5d75d99eb33",
    "convolve-q2-real": "7d3aea0a712e459d9acf353f2bf1217b5b3677c080da09c28662c8c72c1b125d",
    "stiefel-q2-complex-small-dof": "02ec5329466f28d49ff4f86ffd4dc4731011d5fed560f8a8a3022f36f3054c06",
    "stiefel-q2-real": "f7e3105f7333a43bff9ebcf28e5dec261cf12a09e7ab13886bd7a043eec5fa46",
    "support-bound-q3-real": "ce83aabbac1a2f78a32ee4825656b730361b3da770c41d0351f373d34a025940",
    "wishart-root-q2-complex": "415724bb0c5173906f8d933ec395ec853af223623d088ab86837a0eea1784f4f",
    "wishart-root-q2-real": "0358355caddc8f8c760d4cf09214da1401b36ebe75d33c489e83dd5b4a3a4140",
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
