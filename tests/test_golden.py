"""Golden outputs: byte-level digests of scaled-down copies of every shipped
config, plus extra configs that reach each walk route and cone-step caller.

Each case is run through ``run_experiment`` and ``emit_outputs`` at
block_size 1000, so reduction merges several blocks, at one and at two
workers.  The digest is sha256 over every emitted file in name order: the
CSVs as written and the summary JSON with ``wall_time_s`` removed.  A
refactor that keeps the program's arithmetic keeps these digests.

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

import pytest

from conewalk.harness import emit_outputs, run_experiment, validate_config

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

# digests of the outputs as recorded; never regenerate them to make a refactor pass
GOLDEN = {
    "axiom-extras": "8f7e0ba9d179ece511d5bcbf36eebd30326f772e423be58da69d3449fd959d16",
    "bessel-q1-complex": "3b2bf1d66b765bd6b49cb48cc34475c30155842297c846589a71858fe0c1e4a6",
    "bessel-q2-complex": "ba5241663bbeb26fdc20476fcba73084a828ad10c8c4028443b35500da48149d",
    "c01": "4e2291d018d98570858a74415f04bd64b9e7c8a7682217eeb2769fd871b0df73",
    "c02": "a911fb7020a3fce362841031a523a90212a1b71d22a4883b03a1f286f209d5bc",
    "c03": "f0bdaa7ee78e3d3d69b2980ae5e20ed1cf990ce1c160f921e6718a4c95991ddd",
    "c04": "217f2d846a62c72a489c76300fbc2a1efcb26a83329be6f402f9b4af024b85a8",
    "c05": "a3cf94a2e1f0610d284478548839775b5f006c88c314f1ba9d4b5524b178a507",
    "c06": "70c64ad17cc4e0f6cee93b46ed0bb32bb68fbf3b26cffdf03f6a199c5ee0e878",
    "c07": "26beeac545be5a76d0f4eff95b09813cc29222ecfdc30623667fa1b1bfd1e81b",
    "c08": "f241ce0ceec44f4c7f24a3cf1bf3d78199e3507389866f7e458c7a7487106c27",
    "c09": "7bd6016e8f1b6a1550772ec49720b16f0ffd48c7a324f93120774db9e096aae3",
    "c10": "69ad9462a399ab0aac34e68d476278147643bf164659ee3a0c1b3f2df5204519",
    "c11": "79be1c41e8b74011a2370c313f7dcc3bd015201ef26033608a33b4876e90da99",
    "c12a": "040e29cdb14c3113d7d390dcfe22016e0b0c00c4d9fd436096199782b0d4e431",
    "c12b": "6d23dc269495fd2ad5c0c2bdd8bc28b87f678aee8333871014f2b40a92531340",
    "convolve-q1": "9f8e863c88b7fbfc4c4ae49ad63c95810db2018d94b2f0fb95d90e7b18e80103",
    "demo-convolve": "633c9b0e9feec71e30d1ddfa70251ee1f438c3544823decc7bcdd5ae83ab8d1c",
    "demo-walk-bessel": "ef0c09864f01bb6f1a23a92bd367d326c79fdeede8534cc13b5320591de5454c",
    "demo-walk-group": "49bd162714a85621ccf9d2c0aa32cfdfbf8b37a05fdc7920ec96bf3f32779cee",
    "extras-clt1": "8e02c9ea40b7de2ca4c568f985ef9fdc310cef714a335465b07882384b070bdf",
    "group-q1-direct-complex": "79bffee1089f8a06e3e08d6c388ed2a1d16c3d182bd6259a0fb8e3044b57d0d0",
    "group-q1-direct-real": "f3f1a0e996f1d9f1f50642e2c98f9c5dc514336b00876650b22116dbf3ce0ed2",
    "group-q1-polar-complex": "cbeabfac57a1fca22b3248388d4299c7d0018491af4155e14d0fe2a38068d70a",
    "group-q2-direct-complex": "90a747c612cd78154bd13462f546871c067fe303fdb484d6866d371ae8508df7",
    "group-q2-polar-complex": "9003f2771a93a92b5443fc558a55b4b4860fef3a42971131e0ebab7e9ec9d0c6",
    "group-q2-polar-real": "e62328d35de53b33ea0cae445d1ab3e790dc7d74446a22401a5f68fd61e4e487",
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
