import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conewalk import cone_linalg as cl
from conewalk import cli, config, experiments, harness, radial_laws
from conewalk.errors import ConfigError
from conewalk.experiments import EXPERIMENTS
from conewalk.config import canonical_json
from conewalk.harness import emit_outputs, run_experiment, validate_config
from conewalk.orbit_sampler import tr_squared

REPO = Path(__file__).resolve().parents[1]
TWO_POINT = {"kind": "two_point", "a": 1.0, "b": 2.0, "p_a": 0.5}
HUGE_TWO_POINT = {"kind": "two_point", "a": 1e80, "b": 2e80, "p_a": 0.5}
HUGE_LOG_NORMAL = {"kind": "log_normal", "log_mean": 200.0, "log_sd": 1.0}
HUGE_UNIFORM = {"kind": "uniform", "lo": 0.0, "hi": 1e80}
# q = 2 laws whose s^2 varies in every coordinate
MIX2 = {"kind": "finite_mixture", "atoms": [[[1.0, 0.0], [0.0, 2.0]], [[0.5, 0.1], [0.1, 1.0]]],
        "weights": [0.5, 0.5]}
MIX2C = {"kind": "finite_mixture", "field": "complex", "weights": [0.5, 0.5],
         "atoms": [[[1.0, 0.0], [0.0, 2.0]], [[[0.5, 0.0], [0.1, 0.2]], [[0.1, -0.2], [1.0, 0.0]]]]}
# atoms at 1e-100 I and 2e-100 I: the limit covariances underflow to 0
TINY_MIX2 = {"kind": "finite_mixture", "atoms": [[[1e-100, 0.0], [0.0, 1e-100]],
                                                 [[2e-100, 0.0], [0.0, 2e-100]]],
             "weights": [0.5, 0.5]}


def tiny_walk_config(**overrides):
    cfg = {
        "experiment": "walk-bessel",
        "name": "tiny-walk",
        "seed": 99,
        "mu": 3.0,
        "q": 1,
        "d": 1,
        "n_steps": 4,
        "checkpoints": [2, 4],
        "law": TWO_POINT,
        "replicates": 4000,
        "block_size": 512,
    }
    cfg.update(overrides)
    return cfg


def _matrix_json(rng, q, field):
    """A PSD matrix plus an anti-hermitian part that canonicalization drops,
    in its field's JSON form (complex entries as [re, im] pairs)."""
    g = rng.standard_normal((2, q + 1, q))
    h = rng.standard_normal((2, q, q))
    g, h = (g[0], h[0]) if field == cl.REAL else (g[0] + 1j * g[1], h[0] + 1j * h[1])
    m = np.conj(g.T) @ g + 0.1 * (h - np.conj(h.T))
    return m.tolist() if field == cl.REAL else np.stack([m.real, m.imag], -1).tolist()


def _law_json(rng, q, field):
    """A valid law spec at q over the field: of any kind at q = 1, of a
    matrix kind above it, with its matrix payload under its plain or its
    squared key."""
    def key(name):
        return name + ("_squared" if rng.random() < 0.5 else "")

    kinds = ["point_mass", "finite_mixture", "wishart_root"]
    kind = str(rng.choice(kinds + ["two_point", "log_normal", "uniform"] if q == 1 else kinds))
    law = {"kind": kind, "field": field}
    if kind == "point_mass":
        return law | {key("atom"): _matrix_json(rng, q, field)}
    if kind == "finite_mixture":
        return law | {key("atoms"): [_matrix_json(rng, q, field) for _ in range(2)],
                      "weights": [0.25, 0.75]}
    if kind == "wishart_root":
        return law | {key("scale"): _matrix_json(rng, q, field), "dof": q + int(rng.integers(3))}
    if kind == "two_point":
        return law | {"a": float(rng.uniform(0, 2)), "b": 2, "p_a": float(rng.random())}
    if kind == "log_normal":
        return law | {"log_mean": float(rng.normal()), "log_sd": float(rng.uniform(0.1, 1))}
    return law | {"lo": float(rng.uniform(0, 1)), "hi": 2}


def _random_config(rng):
    """A valid raw config of a random family, with floats, integers given
    for floats, matrices in either their plain or their squared key, and
    laws of every kind.  An axioms config runs each of the eight checks
    once."""
    q, d = int(rng.integers(1, 4)), int(rng.integers(1, 3))
    field = cl.REAL if d == 1 else cl.COMPLEX
    rho = d * (q - 0.5) + 1
    mu = rho - 1 + float(rng.exponential(5.0)) + 1e-3

    def matrix(key):
        return {key + ("_squared" if rng.random() < 0.5 else ""): _matrix_json(rng, q, field)}

    law = _law_json(rng, q, field)
    scalar_law = {"kind": "two_point", "field": field, "a": float(rng.uniform(0, 2)), "b": 2,
                  "p_a": float(rng.random())}
    n_steps = int(rng.integers(1, 20))
    walk = {"n_steps": n_steps, "law": law, "replicates": int(rng.integers(1, 10**4)),
            "checkpoints": sorted({int(c) for c in rng.integers(1, n_steps + 1, 3)})}
    p = q + int(rng.integers(0, 5))
    method = str(rng.choice(["direct", "polar"]))
    family = rng.choice(["walk-group", "walk-bessel", "convolve", "kappa", "axioms",
                         "clt-check", "berry-esseen-scan", "moment-identity"])
    raw = {"experiment": str(family), "seed": int(rng.integers(0, 2**63))}
    if family == "walk-group":
        raw |= walk | {"p": p, "q": q, "field": field, "method": method}
    elif family == "walk-bessel":
        raw |= walk | {"mu": mu, "q": q, "d": d}
    elif family == "convolve":
        raw |= {"q": q, "d": d, "mu": mu, "replicates": 100, **matrix("r"), **matrix("s")}
    elif family == "kappa":
        raw |= {"q": q, "d": d, "n_samples": 10,
                "mu_grid": [rho + float(x) for x in rng.exponential(3.0, 3)]}
    elif family == "clt-check":
        kinds = ["CLT1", "CLT2", "CLT3", "CLT4"] if q == 1 else ["CLT3", "CLT4"]
        kind = str(rng.choice(kinds if d == 1 else [k for k in kinds if k != "CLT3"]))
        if q == 1 and kind in ("CLT2", "CLT4"):
            # |s|^2 must not take one value: its variance is the limit's
            law = scalar_law | {"p_a": float(rng.uniform(0.05, 0.95))}
        elif kind == "CLT4" and law["kind"] == "point_mass":
            # s^2 must vary in every coordinate: its covariance is the limit's
            law = {"kind": "finite_mixture", "field": field, "weights": [0.25, 0.75],
                   "atoms": [_matrix_json(rng, q, field) for _ in range(2)]}
        group = kind in ("CLT1", "CLT3") or rng.random() < 0.5
        dim = cl.herm_vec_dim(q, field)
        raw |= {"kind": kind, "law": law, "n_steps": n_steps, "ks_threshold": 0.05,
                "replicates": 10 * dim * dim + int(rng.integers(1, 10**3)),
                **({"engine": "group", "p": p, "method": method} if group
                   else {"engine": "bessel", "mu": mu})}
    elif family == "berry-esseen-scan":
        raw |= {"law": scalar_law, "p": p, "method": method, "replicates": 100,
                "n_grid": sorted({int(n) for n in rng.integers(1, 100, 6)} | {100, 200, 300})}
    elif family == "moment-identity":
        raw |= {"law": scalar_law, "method": method, "replicates": 100, "max_se": 5,
                "grid": [[int(n), int(m)] for n, m in rng.integers(1, 50, (2, 2))]}
    else:
        dims = {"q": q, "d": d}
        raw["checks"] = [
            {"check": "support-bound", **dims, "mu": mu, "draws": 10, "slack": 1e-8},
            {"check": "commutativity", **dims, "mu": mu, "replicates": 100,
             **matrix("r"), **matrix("s")},
            {"check": "m2-additivity", **dims, "mu": mu, "law": law, "n_steps": n_steps,
             "replicates": 10},
            {"check": "m1-subadditivity", **dims, "mu": mu, "law": law, "law2": law,
             "replicates": 10},
            # the group walk at mu = p d / 2 needs p >= 2q for mu > rho - 1
            {"check": "group-consistency", **dims, "p": 2 * q + int(rng.integers(0, 3)),
             "law": law, "n_steps": n_steps, "replicates": 10},
            {"check": "mu-scaling", **dims, "mu": 2 * rho + float(rng.exponential(5.0)),
             "law": law, "n_steps": int(rng.integers(2, 5)), "cap": 6, "replicates": 10},
            {"check": "character", "mu": 0.5 + float(rng.exponential(3.0)) + 1e-3,
             "r1": float(rng.random()), "r2": 1, "s": float(rng.random()), "draws": 10},
            {"check": "contraction-beta", "mu": float(rng.uniform(0.51, 9.0)),
             "draws": 10, "ks_max": 0.1},
        ]
    return raw


def _tiny_group_config(rng):
    """A raw clt-check or q = 1 group-walk config of tiny size (n_steps <= 3,
    replicates <= 120) that need not be valid: p may be below q, and a
    matrix CLT may have too few replicates for its Mardia tests."""
    q, d = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    field = cl.REAL if d == 1 else cl.COMPLEX
    family = str(rng.choice(["clt-check", "walk-group", "berry-esseen-scan",
                             "moment-identity"]))
    if family != "clt-check":
        q = 1
    law = {"kind": "two_point", "field": field, "a": float(rng.uniform(0, 2)), "b": 2,
           "p_a": float(rng.uniform(0.05, 0.95))}
    if q > 1:
        atoms = [_matrix_json(rng, q, field) for _ in range(2)]
        law = {"kind": "finite_mixture", "field": field, "atoms": atoms,
               "weights": [0.5, 0.5]}
    n_steps, p = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    raw = {"experiment": family, "seed": int(rng.integers(0, 2**63)), "law": law,
           "replicates": int(rng.integers(2, 121))}
    method = {"method": str(rng.choice(["direct", "polar"]))}
    if family == "clt-check":
        engine = str(rng.choice(["group", "bessel"]))
        raw |= {"kind": str(rng.choice(["CLT1", "CLT2", "CLT3", "CLT4"])),
                "engine": engine, "n_steps": n_steps,
                **({"p": p} | method if engine == "group"
                   else {"mu": d * (q - 0.5) + float(rng.exponential(3.0))})}
    elif family == "walk-group":
        raw |= {"p": p, "field": field, "n_steps": n_steps} | method
    elif family == "berry-esseen-scan":
        raw |= {"p": p, "n_grid": [1, 2, 3, 4]} | method
    else:
        raw |= {"grid": [[n_steps, p]]} | method
    return raw


def _tiny(raw):
    """The valid config raw with its replicates, draws and n_samples capped
    at 50, or at clt-check's Mardia floor where that is higher."""
    cap = 50
    if raw["experiment"] == "clt-check":
        law = validate_config(raw)[0]["law"]
        dim = cl.herm_vec_dim(law["q"], law["field"])
        cap = max(cap, 10 * dim * dim + 1)
    for spec in (raw, *raw.get("checks", [])):
        for key in ("replicates", "draws", "n_samples"):
            if key in spec:
                spec[key] = min(spec[key], cap)
    return raw


def _at(raw, path):
    """The value at path in the config raw."""
    for key in path:
        raw = raw[key]
    return raw


def _tables(raw):
    """(path prefix, rows) of each field table that validating the valid
    config raw reads, each law's table after the table that reads it."""
    exp = EXPERIMENTS[raw["experiment"]]
    tables = [((), exp.fields)]
    if raw["experiment"] == "clt-check":
        tables.append(((), exp.engine_fields[raw.get("engine", "group")]))
    if raw["experiment"] == "axioms":
        tables += [(("checks", i), (experiments._CHECK, *experiments._CHECKS[spec["check"]].fields))
                   for i, spec in enumerate(raw["checks"])]
    for prefix, rows in tables:
        yield prefix, rows
        for row in rows:
            law = _at(raw, prefix).get(row.name)
            if row.kind in (experiments._law, experiments._moment_law) and law is not None:
                yield (*prefix, row.name), (radial_laws._KIND, *radial_laws._LAWS[law["kind"]])


def _all_tables():
    """Every field table: each family's, clt-check's engine tables, each
    axioms check's after its check name and each law kind's after kind."""
    return ({exp.fields for exp in EXPERIMENTS.values()}
            | set(EXPERIMENTS["clt-check"].engine_fields.values())
            | {(experiments._CHECK, *check.fields) for check in experiments._CHECKS.values()}
            | {(radial_laws._KIND, *rows) for rows in radial_laws._LAWS.values()})


def _number_paths(raw):
    """The path to each integer and float that the tables read from the
    valid config raw, with the kind it takes; a list's path is to its
    first entry, and a matrix's to its first number, in its plain or its
    squared key."""
    for prefix, rows in _tables(raw):
        for row in rows:
            name = row.name
            if f"{name}_squared" in _at(raw, prefix):
                name += "_squared"
            path, kind = (*prefix, name), row.kind
            while isinstance(kind, config.List):
                path, kind = (*path, 0), kind.kind
            if kind is config.matrix:
                path, kind = (*path, 0, 0), float
                if isinstance(_at(raw, path), list):  # an [re, im] pair
                    path = (*path, 0)
            kind = float if kind is experiments._index else kind
            if kind in (int, float):
                yield path, kind


def _path_name(path):
    """The field name of a path into a config, as errors give it."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:]


def _assert_exit_two(tmp_path, capsys, raw, field):
    """The CLI refuses the config raw with exit 2, naming field, and
    writes nothing."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    capsys.readouterr()
    code = cli.main([raw["experiment"], "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"config field '{field}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _mistyped(kind):
    """Values that a field of kind int or float must refuse."""
    huge = st.integers(2**1024, 2**1100) | st.integers(-2**1100, -2**1024)
    bad = (st.booleans() | st.text(max_size=4) | st.lists(st.integers(0, 9), max_size=2)
           | st.sampled_from([math.nan, math.inf, -math.inf]) | huge)
    return bad | st.floats() if kind is int else bad


class TestValidation:
    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            validate_config({"experiment": "nope", "seed": 1})

    @pytest.mark.parametrize("field, val", [("experiment", []), ("experiment", {}),
                                            ("schema_version", True),
                                            ("schema_version", 1.0)],
                             ids=["experiment-list", "experiment-dict", "version-bool",
                                  "version-float"])
    def test_head_fields_are_typed(self, field, val):
        # experiment and schema_version are read like every other field: an
        # unhashable experiment is no TypeError, and a version is an integer
        with pytest.raises(ConfigError, match="expected") as info:
            validate_config(tiny_walk_config() | {field: val})
        assert info.value.field == field

    def test_missing_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            validate_config(tiny_walk_config() | {"seed": None})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            validate_config(tiny_walk_config(bogus=1))
        # inside an axioms check too, where a misspelt max_se would
        # otherwise leave the default of 4 standard errors in force
        spec = {"check": "character", "mu": 4.0, "r1": 1, "r2": 1, "s": 1, "draws": 10,
                "maxse": 1e-9}
        with pytest.raises(ConfigError, match="unknown field") as info:
            validate_config({"experiment": "axioms", "seed": 1, "checks": [spec]})
        assert info.value.field == "checks[0].maxse"

    def test_null_matrix_twin_is_absent(self):
        # a null field counts as absent, the twin of a matrix too; a null key
        # that no table declares is still unknown
        conv = {"experiment": "convolve", "seed": 1, "q": 1, "d": 1, "mu": 2.5,
                "r": [[1.0]], "s": [[0.6]], "replicates": 10}
        assert validate_config(conv | {"r_squared": None}) == validate_config(conv)
        law = {"kind": "point_mass", "atom": [[1.0]]}
        walk = tiny_walk_config(law=law)
        assert validate_config(tiny_walk_config(law=law | {"atom_squared": None})) == \
            validate_config(walk)
        spec = {"check": "commutativity", "q": 1, "d": 1, "mu": 2.5, "r_squared": [[1.0]],
                "r": None, "s": [[0.6]], "replicates": 10}
        validate_config({"experiment": "axioms", "seed": 1, "checks": [spec]})
        for raw, field in ((conv | {"replicates_squared": None}, "replicates_squared"),
                           (conv | {"bogus": None}, "bogus"),
                           (tiny_walk_config(law=law | {"a_squared": None}), "law.a_squared")):
            with pytest.raises(ConfigError, match="unknown field") as info:
                validate_config(raw)
            assert info.value.field == field

    @pytest.mark.parametrize("name", ["sub/dir", "", "../x", ".hidden", "a b", "-x"])
    def test_name_must_be_plain_file_name(self, name):
        with pytest.raises(ConfigError) as info:
            validate_config(tiny_walk_config(name=name))
        assert info.value.field == "name"
        for ok in ("c08_clt1_sin_arcsin", "group-q2-polar-real", "run.v2"):
            assert validate_config(tiny_walk_config(name=ok))[0]["name"] == ok

    def test_bad_checkpoints(self):
        with pytest.raises(ConfigError, match="checkpoints"):
            validate_config(tiny_walk_config(checkpoints=[4, 2]))

    @pytest.mark.parametrize("field, raw", [
        ("checkpoints[0]", tiny_walk_config(checkpoints=["x"])),
        ("grid[0][0]", {"experiment": "moment-identity", "seed": 1, "law": TWO_POINT,
                        "grid": [["a", 2]], "replicates": 10}),
        ("n_grid[2]", {"experiment": "berry-esseen-scan", "seed": 1, "law": TWO_POINT,
                       "p": 3, "n_grid": [4, 8, "y", 32], "replicates": 10}),
        ("mu_grid[0]", {"experiment": "kappa", "seed": 1, "q": 1, "d": 1,
                        "mu_grid": ["z"], "n_samples": 10}),
    ], ids=["checkpoints-raw0", "grid-raw1", "n_grid-raw2", "mu_grid-raw3"])
    def test_non_numeric_list_entry(self, field, raw):
        # the error names the entry
        with pytest.raises(ConfigError, match=re.escape(field)) as info:
            validate_config(raw)
        assert info.value.field == field

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_mistyped_number_is_exit_two(self, data):
        # an integer field takes only an int that is not a bool, and a float
        # field only a finite int or float within float range; anything else
        # is a config error (exit 2) that names the entry.  The paths are
        # every int and float row of the config's tables, its laws' tables
        # included, and the first entry of each matrix
        raw = _random_config(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
        kinds = dict(_number_paths(raw))
        path = data.draw(st.sampled_from(sorted(kinds, key=str)))
        bad = data.draw(_mistyped(kinds[path]))
        raw = json.loads(json.dumps(raw))
        _at(raw, path[:-1])[path[-1]] = bad
        with pytest.raises(ConfigError) as info:
            validate_config(raw)
        assert info.value.field == _path_name(path)
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = Path(tmp) / "cfg.json"
            cfg_path.write_text(json.dumps(raw))
            with mock.patch("sys.stderr"):
                code = cli.main([raw["experiment"], "--config", str(cfg_path),
                                 "--out", str(Path(tmp) / "out")])
        assert code == 2

    def test_missing_required_field_is_named(self):
        # dropping any required field of any table is a config error that
        # names it; the generator's configs reach every table, each law
        # kind's among them
        seen = set()
        for seed in range(100):
            raw = _random_config(np.random.default_rng(seed))
            for prefix, rows in _tables(raw):
                seen.add(rows)
                for row in rows:
                    if row.default is not config.REQUIRED:
                        continue
                    bad = json.loads(json.dumps(raw))
                    for key in (row.name, f"{row.name}_squared"):
                        _at(bad, prefix).pop(key, None)
                    with pytest.raises(ConfigError, match="missing required field") as info:
                        validate_config(bad)
                    assert info.value.field == _path_name((*prefix, row.name))
        assert seen == _all_tables()

    def test_law_errors_are_config_errors(self):
        with pytest.raises(ConfigError, match="law"):
            validate_config(tiny_walk_config(law={"kind": "two_point", "a": 1}))

    @pytest.mark.parametrize("raw, field", [
        ({"experiment": "convolve", "seed": 1, "q": 1, "d": 1, "mu": 3.0, "replicates": 10,
          "r": [[-1.0]], "s": [[1.0]]}, "r"),
        (tiny_walk_config(law={"kind": "wishart_root", "scale": [[-1.0]], "dof": 2}),
         "law.scale"),
    ], ids=["convolve", "wishart_root"])
    def test_non_psd_matrix_is_config_error(self, raw, field):
        # a wrong input, not a numerical failure of the program
        with pytest.raises(ConfigError, match="must be PSD") as info:
            validate_config(raw)
        assert info.value.field == field

    @pytest.mark.parametrize("law, field", [
        (TWO_POINT | {"pa": 0.9}, "law.pa"),
        ({"kind": "wishart_root", "scale": [[1.0]], "dof": 2.5}, "law.dof"),
        ({"kind": "uniform", "lo": "0.5", "hi": 1.0}, "law.lo"),
        ({"kind": "uniform", "lo": math.nan, "hi": 1.0}, "law.lo"),
        ({"kind": "uniform", "lo": 0.0, "hi": math.inf}, "law.hi"),
        ({"kind": "uniform", "lo": 0.0, "hi": 10**400}, "law.hi"),
        ({"kind": "log_normal", "log_mean": 0.0, "log_sd": True}, "law.log_sd"),
        ({"kind": "finite_mixture", "atoms": [[[1.0]], [[2.0]]], "weights": ["0.5", 0.5]},
         "law.weights[0]"),
        (TWO_POINT | {"q": 1.0}, "law.q"),
        (TWO_POINT | {"field": "quaternion"}, "law.field"),
        ({"kind": "point_mass", "atom": [[math.nan]]}, "law.atom[0][0]"),
        ({"kind": "point_mass", "atom": [[1.0]], "atom_squared": [[1.0]]}, "law.atom"),
        ({"kind": "finite_mixture", "atoms": None, "weights": [1.0]}, "law.atoms"),
        ({"kind": "finite_mixture", "atoms": 2.5, "weights": [1.0]}, "law.atoms"),
        ({"kind": "finite_mixture", "atoms": True, "weights": [1.0]}, "law.atoms"),
        ({"kind": "finite_mixture", "weights": [1.0]}, "law.atoms"),
        ({"kind": "point_mass", "atom": {}}, "law.atom"),
        ({"kind": "point_mass", "atom": [[10**400]]}, "law.atom[0][0]"),
        ({"kind": "point_mass", "atom": [["1"]]}, "law.atom[0][0]"),
        ({"kind": "point_mass", "atom": [[True]]}, "law.atom[0][0]"),
    ], ids=["unknown-key", "fractional-dof", "string", "nan", "infinity", "huge-int", "bool",
            "string-weight", "float-q", "field", "nan-matrix", "plain-and-squared",
            "null-atoms", "number-atoms", "bool-atoms", "no-atoms", "object-matrix",
            "huge-entry", "string-entry", "bool-entry"])
    def test_bad_law_parameter(self, tmp_path, capsys, law, field):
        # a config error (exit 2) that names the law's field, never a
        # traceback or a silently accepted value
        with pytest.raises(ConfigError) as info:
            validate_config(tiny_walk_config(law=law))
        assert info.value.field == field
        _assert_exit_two(tmp_path, capsys, tiny_walk_config(law=law), field)

    @pytest.mark.parametrize("points, field, message", [
        ({"r": {}}, "r", "expected a finite number"),
        ({"r": [[10**400]]}, "r[0][0]", "expected a finite number"),
        ({"r_squared": [["1"]]}, "r_squared[0][0]", "expected a finite number"),
        ({"r": [[True]]}, "r[0][0]", "expected a finite number"),
        ({"r": [[1.0, 0.0]]}, "r", "expected a square matrix"),
        ({"r": [[1.0]], "r_squared": [[1.0]]}, "r", "give r or r_squared, not both"),
    ], ids=["object-matrix", "huge-entry", "string-entry", "bool-entry", "not-square",
            "plain-and-squared"])
    def test_bad_family_matrix(self, tmp_path, capsys, points, field, message):
        # a family's matrix is read as a law's is, by the same reader
        raw = {"experiment": "convolve", "seed": 1, "q": 1, "d": 1, "mu": 3.0,
               "replicates": 10, "s": [[1.0]], **points}
        with pytest.raises(ConfigError, match=re.escape(message)) as info:
            validate_config(raw)
        assert info.value.field == field
        _assert_exit_two(tmp_path, capsys, raw, field)

    @pytest.mark.parametrize("key, val, digits", [("p", 10**309, 310),
                                                  ("replicates", 10**400, 401),
                                                  ("p", 10**512, 513),
                                                  ("replicates", 10**5000 - 1, 5000),
                                                  ("replicates", 10**5000, 5001)],
                             ids=["p", "replicates", "p-513", "replicates-5000",
                                  "replicates-5001"])
    def test_integer_past_float64_gives_its_digit_count(self, key, val, digits):
        # the integer is not echoed: its 310 digits made a 363-character
        # message.  Its digits are not counted by str, which Python refuses
        # past 4,300 of them, nor by log10 alone, which over-counts
        # 10**k - 1 and under-counts 10**512
        spec = {"check": "group-consistency", "q": 1, "d": 2, "p": 4, "n_steps": 2,
                "law": {"kind": "point_mass", "field": "complex", "atom": 1.0},
                "replicates": 10, key: val}
        with pytest.raises(ConfigError, match=f"of {digits} digits, past the float64 range"
                           ) as info:
            validate_config({"experiment": "axioms", "seed": 1, "checks": [spec]})
        assert info.value.field == f"checks[0].{key}"
        assert f"'checks[0].{key}'" in str(info.value) and len(str(info.value)) < 120

    def test_law_error_names_its_key(self):
        spec = {"check": "m1-subadditivity", "mu": 3.0, "replicates": 10,
                "law": TWO_POINT, "law2": {"kind": "nope"}}
        with pytest.raises(ConfigError, match="unknown law kind") as info:
            validate_config({"experiment": "axioms", "seed": 1, "checks": [spec]})
        assert info.value.field == "checks[0].law2.kind"

    def test_mu_below_rho_rejected(self):
        # below the existence range mu > rho - 1 = 1/2 no walk exists
        with pytest.raises(ConfigError, match="mu"):
            validate_config(tiny_walk_config(mu=0.5))
        with pytest.raises(ConfigError, match="mu"):
            validate_config(tiny_walk_config(mu="3"))

    def test_mu_between_rho_minus_one_and_rho_accepted(self):
        cfg, _ = validate_config(tiny_walk_config(mu=1.2))
        assert cfg["mu"] == 1.2

    def test_axioms_below_rho_only_for_sampler_checks(self):
        # support-bound needs only draws, and character and contraction-beta
        # have closed-form references: all take the existence range
        # mu > rho - 1, which is mu > 1/2 at q = 1
        for spec in ({"check": "support-bound", "q": 2, "d": 1, "mu": 2.0, "draws": 10},
                     {"check": "contraction-beta", "mu": 0.52, "draws": 10, "ks_max": 0.1},
                     {"check": "character", "mu": 1.2, "r1": 1, "r2": 1, "s": 1,
                      "draws": 10}):
            validate_config({"experiment": "axioms", "seed": 1, "checks": [spec]})
        # below the existence range it is a config error, not a bare ValueError
        for spec in ({"check": "contraction-beta", "mu": 0.5, "draws": 10, "ks_max": 0.1},
                     {"check": "character", "mu": 0.3, "r1": 1, "r2": 1, "s": 1,
                      "draws": 10}):
            with pytest.raises(ConfigError, match="existence range") as info:
                validate_config({"experiment": "axioms", "seed": 1, "checks": [spec]})
            assert info.value.field == "checks[0].mu"

    @pytest.mark.parametrize("spec", [
        {"check": "m2-additivity", "mu": 3.0, "n_steps": 2, "replicates": 10},
        {"check": "m1-subadditivity", "mu": 3.0, "replicates": 10},
        {"check": "group-consistency", "p": 4, "n_steps": 2, "replicates": 10},
        {"check": "mu-scaling", "mu": 40.0, "n_steps": 4, "cap": 6.0, "replicates": 10},
    ])
    def test_axioms_missing_law(self, spec):
        with pytest.raises(ConfigError, match="missing") as info:
            validate_config({"experiment": "axioms", "seed": 1, "checks": [spec]})
        assert info.value.field == "checks[0].law"

    def test_kappa_below_rho_names_its_sampler(self):
        raw = {"experiment": "kappa", "seed": 1, "q": 1, "d": 1,
               "mu_grid": [1.2], "n_samples": 10}
        with pytest.raises(ConfigError, match="importance sampler"):
            validate_config(raw)

    def test_round_trip_is_identity(self):
        cfg, _ = validate_config(tiny_walk_config())
        again, _ = validate_config(json.loads(canonical_json(cfg)))
        assert canonical_json(cfg) == canonical_json(again)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def test_canonical_config_round_trips(self, seed):
        # validate(canonical) == canonical, byte for byte, in every family
        cfg, _ = validate_config(_random_config(np.random.default_rng(seed)))
        text = canonical_json(cfg)
        again, _ = validate_config(json.loads(text))
        assert canonical_json(again) == text

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def test_validated_config_runs(self, seed):
        # a config that validates runs to a record, in every family; what
        # cannot run is a config error (exit 2) before anything runs
        rng = np.random.default_rng(seed)
        try:
            runs = [validate_config(_tiny_group_config(rng))]
        except ConfigError:
            runs = []
        runs.append(validate_config(_tiny(_random_config(rng))))
        for cfg, warnings in runs:
            with np.errstate(all="ignore"):
                rec = run_experiment(cfg, warnings=warnings)
            assert rec.rows

    @pytest.mark.parametrize("raw", [
        {"experiment": "walk-group", "seed": 1, "p": 3, "n_steps": 2, "law": TWO_POINT,
         "replicates": 10},
        {"experiment": "clt-check", "seed": 1, "kind": "CLT2", "law": TWO_POINT, "p": 3,
         "n_steps": 4, "replicates": 10},
        {"experiment": "berry-esseen-scan", "seed": 1, "law": TWO_POINT, "p": 3,
         "n_grid": [1, 2, 3, 4], "replicates": 10},
        {"experiment": "moment-identity", "seed": 1, "law": TWO_POINT, "grid": [[2, 3]],
         "replicates": 10},
    ], ids=["walk-group", "clt-check", "berry-esseen-scan", "moment-identity"])
    def test_method_is_direct_or_polar(self, raw):
        # polar is the default route at every p; "auto" is not a method
        assert validate_config(raw)[0]["method"] == "polar"
        assert validate_config(raw | {"method": "direct"})[0]["method"] == "direct"
        with pytest.raises(ConfigError, match="direct.*polar") as info:
            validate_config(raw | {"method": "auto"})
        assert info.value.field == "method"

    @pytest.mark.parametrize("raw, field, fix", [
        ({"kind": "CLT4", "engine": "group", "p": 1, "replicates": 1000}, "p",
         {"p": 2, "law": MIX2}),
        ({"kind": "CLT3", "engine": "group", "p": 4, "replicates": 90}, "replicates",
         {"replicates": 91}),
        ({"kind": "CLT4", "engine": "bessel", "mu": 4.0, "replicates": 160,
          "law": {"kind": "point_mass", "field": "complex", "atom": [[1.0, 0.0], [0.0, 1.0]]}},
         "replicates", {"replicates": 161, "law": MIX2C}),
        ({"kind": "CLT2", "engine": "group", "p": 3, "replicates": 10,
          "law": {"kind": "point_mass", "atom": [[0.1]]}}, "law", {"law": TWO_POINT}),
        ({"kind": "CLT4", "engine": "bessel", "mu": 3.0, "replicates": 10,
          "law": TWO_POINT | {"b": 1.0}}, "law", {"law": TWO_POINT}),
        *[({"kind": kind, "engine": "group", "p": 3, "replicates": 10,
            "law": {"kind": "point_mass", "atom": atom}}, "law",
           {"law": {"kind": "point_mass", "atom": fix}})
          for kind, atom, fix in [("CLT1", 0.0, 1e-100), ("CLT1", 1e-200, 1e-100),
                                  ("CLT3", 0.0, 1e-50), ("CLT3", 1e-200, 1e-50),
                                  ("CLT3", 1e-100, 1e-50)]],
        *[({"kind": kind, "replicates": 400, "law": law} | engine, "law", {"law": MIX2})
          for kind, engine, law in [
              ("CLT3", {"engine": "group", "p": 20000}, TINY_MIX2),
              ("CLT4", {"engine": "group", "p": 20000}, TINY_MIX2),
              ("CLT4", {"engine": "bessel", "mu": 20000.0}, TINY_MIX2),
              ("CLT4", {"engine": "group", "p": 4}, {"kind": "point_mass",
                                                     "atom": [[1.0, 0.0], [0.0, 1.0]]})]],
    ], ids=["p-below-q", "clt3-mardia", "clt4-complex-mardia", "clt2-point-mass",
            "clt4-equal-two-point", "clt1-atom-0", "clt1-atom-1e-200", "clt3-atom-0",
            "clt3-atom-1e-200", "clt3-atom-1e-100", "clt3-group-tiny-q2", "clt4-group-tiny-q2",
            "clt4-bessel-tiny-q2", "clt4-point-mass-q2"])
    def test_clt_check_refuses_what_cannot_run(self, raw, field, fix):
        # a matrix walk needs p >= q, the Mardia tests of a matrix
        # statistic need more than 10 dim^2 replicates (dim 3 at q = 2 over
        # R, 4 over C), and at every q a statistic needs a positive finite
        # scale and each limit variance positive and finite: at q = 1 CLT2
        # and CLT4 a limit variance m4 - s2^2 above rounding, CLT1 the scale
        # sqrt(d p) / (n s2 sqrt(2)) and CLT3 the limit variance 2 s2^2; at
        # q = 2 each diagonal entry of CLT3's T2(s2) and of CLT4's
        # Cov vec(s^2), which underflow at atoms of 1e-100 I and vanish at a
        # point mass.  CLT3 is stated for the group walk only, so its
        # index-mu run is refused for its engine before its law
        raw = {"experiment": "clt-check", "seed": 1, "n_steps": 3,
               "law": {"kind": "point_mass", "atom": [[1.0, 0.0], [0.0, 1.0]]}} | raw
        with pytest.raises(ConfigError) as info:
            validate_config(raw)
        assert info.value.field == field
        validate_config(raw | fix)

    @pytest.mark.parametrize("kind", ["CLT2", "CLT4"])
    def test_degenerate_scalar_law_refused(self, kind):
        # the limit N(0, m4 - s2^2) needs |s|^2 not to take one value.  Over
        # the atoms 0.10, 0.11, ..., 5.00 rounding leaves m4 - s2^2 within
        # 3e-16 m4 of 0, and below 0 for 128 of them; at a relative variance
        # of 1e-13 m4 or less the law is refused, above it the config runs
        raw = {"experiment": "clt-check", "seed": 1, "kind": kind, "n_steps": 4,
               "replicates": 10}
        laws = [{"kind": "point_mass", "atom": [[float(a)]]} for a in np.arange(10, 501) / 100]
        laws += [{"kind": "two_point", "a": a, "b": a, "p_a": 0.3, "field": field}
                 for a in (0.1, 1.0, 3.7) for field in cl.FIELDS]
        laws += [{"kind": "point_mass", "atom": [[0.0]]},
                 {"kind": "two_point", "a": 1.0, "b": 1.0 + 1e-7, "p_a": 0.5}]  # 1e-14 m4
        for law in laws:
            for engine in ({"engine": "group", "p": 3}, {"engine": "bessel", "mu": 3.0}):
                with pytest.raises(ConfigError, match="limit variance") as info:
                    validate_config(raw | engine | {"law": law})
                assert info.value.field == "law"
        near = {"kind": "two_point", "a": 1.0, "b": 1.0 + 1e-6, "p_a": 0.5}  # 1e-12 m4
        cfg, _ = validate_config(raw | {"p": 3, "law": near})
        assert run_experiment(cfg).rows

    def test_tiny_scalar_law_keeps_its_verdict(self):
        # a point mass at a tiny atom scales ||S_n||^2 by the atom squared,
        # which CLT1 and CLT3 divide out: where CLT1's scale and CLT3's
        # 2 s2^2 are still positive and finite (CLT1 at 1e-100, CLT3 at
        # 1e-50) the run passes at the unit atom's KS distance
        raw = {"experiment": "clt-check", "seed": 1, "engine": "group", "p": 20, "n_steps": 4,
               "replicates": 400}
        for kind, atom in (("CLT1", 1e-100), ("CLT3", 1e-50)):
            checks = [run_experiment(validate_config(
                raw | {"kind": kind, "law": {"kind": "point_mass", "atom": a}})[0]).checks[0]
                for a in (1.0, atom)]
            assert checks[1]["pass"] and checks[1]["ks"] == pytest.approx(checks[0]["ks"])

    def test_regime_warning_clt2(self):
        raw = {
            "experiment": "clt-check", "seed": 5, "kind": "CLT2",
            "engine": "group", "p": 100, "n_steps": 100, "law": TWO_POINT,
            "replicates": 100,
        }
        _, warnings = validate_config(raw)
        assert any("n^2/index" in w for w in warnings)

    def test_singular_limit_warning(self):
        # a two-atom law's s^2 takes two values, so CLT4's limit covariance
        # has rank 1 and the Mardia check cannot pass: validation says so.
        # c07's six-atom law has a full-rank limit and stays silent
        raw = {"experiment": "clt-check", "seed": 3, "kind": "CLT4", "engine": "bessel",
               "mu": 1e4, "n_steps": 4, "replicates": 2000}
        for law, dim in ((MIX2, 3), (MIX2C, 4)):
            _, warnings = validate_config(raw | {"law": law})
            assert [w for w in warnings if w.startswith("singular limit")] == [
                f"singular limit: CLT4's limit covariance has rank 1 of {dim}, so the "
                "Mardia check cannot pass"]
        c07 = json.loads((REPO / "configs" / "acceptance" / "c07_cov_bessel.json").read_text())
        _, warnings = validate_config(c07)
        assert not any(w.startswith("singular limit") for w in warnings)

    def test_regime_warning_clt1_chi2_gap(self):
        raw = json.loads((REPO / "configs" / "acceptance" / "c08_clt1_group.json").read_text())
        _, warnings = validate_config(raw)
        assert any("chi-square gap" in w for w in warnings)
        raw = {
            "experiment": "clt-check", "seed": 5, "kind": "CLT1",
            "engine": "group", "p": 5000, "n_steps": 100, "law": TWO_POINT,
            "replicates": 100, "ks_threshold": 0.02,
        }
        _, warnings = validate_config(raw)
        assert any("n/p^3" in w for w in warnings)
        assert not any("chi-square gap" in w for w in warnings)

    def test_clt3_complex_refused(self):
        raw = {
            "experiment": "clt-check", "seed": 5, "kind": "CLT3",
            "engine": "group", "p": 100, "n_steps": 10,
            "law": {"kind": "point_mass", "field": "complex", "atom": 1.0},
            "replicates": 100,
        }
        with pytest.raises(ConfigError, match="field"):
            validate_config(raw)


class TestDeterminism:
    def test_rerun_and_worker_count_invariance(self, tmp_path):
        cfg, _ = validate_config(tiny_walk_config())
        rec1 = run_experiment(cfg, workers=1)
        rec2 = run_experiment(cfg, workers=1)
        rec4 = run_experiment(cfg, workers=4)
        assert rec1.rows == rec2.rows == rec4.rows
        out1 = emit_outputs(rec1, tmp_path / "a")
        out4 = emit_outputs(rec4, tmp_path / "b")
        csv1 = (tmp_path / "a" / "tiny-walk.csv").read_bytes()
        csv4 = (tmp_path / "b" / "tiny-walk.csv").read_bytes()
        assert csv1 == csv4
        s1 = json.loads((tmp_path / "a" / "tiny-walk.summary.json").read_text())
        s4 = json.loads((tmp_path / "b" / "tiny-walk.summary.json").read_text())
        s1.pop("wall_time_s")
        s4.pop("wall_time_s")
        assert s1 == s4

    def test_plans_once(self):
        # the harness hands each block its planned task, so a serial run of
        # a multi-block config plans once, not once more per block
        cfg, _ = validate_config(tiny_walk_config())
        exp = EXPERIMENTS[cfg["experiment"]]
        assert len(exp.plan(cfg)) > 1
        with mock.patch.object(exp, "plan", wraps=exp.plan) as spy:
            run_experiment(cfg, workers=1)
        assert spy.call_count == 1

    def test_seed_changes_results(self):
        cfg1, _ = validate_config(tiny_walk_config())
        cfg2, _ = validate_config(tiny_walk_config(seed=100))
        rec1 = run_experiment(cfg1)
        rec2 = run_experiment(cfg2)
        assert rec1.rows != rec2.rows


class TestOutputs:
    def test_replicate_emission(self, tmp_path):
        # several blocks, so reduction joins them and two or three workers fork
        cfg, _ = validate_config(tiny_walk_config(emit="replicates",
                                                  replicates=100, block_size=32))
        paths = emit_outputs(run_experiment(cfg, workers=1), tmp_path / "w1")
        rep = tmp_path / "w1" / "tiny-walk.replicates.csv"
        assert rep in paths
        lines = rep.read_text().splitlines()
        assert lines[0] == "step,replicate,tr_squared"
        fields = [line.split(",") for line in lines[1:]]
        assert [(int(step), int(i)) for step, i, _ in fields] == \
            [(step, i) for step in (2, 4) for i in range(100)]
        values = np.array([float(x) for _, _, x in fields]).reshape(2, 100)
        # the reference is each block's own trajectory, drawn again
        exp = EXPERIMENTS[cfg["experiment"]]
        with mock.patch.object(experiments, "_walk_partial",
                               wraps=experiments._walk_partial) as spy:
            for task in exp.plan(cfg):
                exp.run_block(cfg, task)
        tr = np.concatenate([tr_squared(c.args[2]) for c in spy.call_args_list], axis=1)
        assert values.dtype == tr.dtype and values.tobytes() == tr.tobytes()
        for workers in (2, 3):
            out = tmp_path / f"w{workers}"
            emit_outputs(run_experiment(cfg, workers=workers), out)
            assert (out / "tiny-walk.replicates.csv").read_bytes() == rep.read_bytes()

    # repr switches to exponent form below 1e-4 and from 1e16 on
    REPR_EDGES = [0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 0.0001, 0.1,
                  9999999999999998.0, 1e16, sys.float_info.max]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.integers(1, 10**6), min_size=1, max_size=4, unique=True),
           st.integers(1, 9), st.integers(1, 10**6), st.data())
    def test_replicate_writer_lines(self, steps, n, lo, data):
        # a block's rows, one string per checkpoint, numbered from its offset lo
        steps = sorted(steps)
        finite = st.floats(min_value=0.0, allow_infinity=False)
        xs = data.draw(st.lists(st.sampled_from(self.REPR_EDGES) | finite,
                                min_size=len(steps) * n, max_size=len(steps) * n))
        values = np.array(xs, dtype=np.float64).reshape(len(steps), n)
        text = experiments._replicate_rows(steps, lo, values)
        expected = ["".join(f"{step},{lo + i},{xs[k * n + i]!r}\n" for i in range(n))
                    for k, step in enumerate(steps)]
        assert text == expected

    def test_csv_only(self, tmp_path):
        cfg, _ = validate_config(tiny_walk_config())
        rec = run_experiment(cfg)
        paths = emit_outputs(rec, tmp_path, formats="csv")
        assert all(p.suffix == ".csv" for p in paths)

    def test_summary_schema(self, tmp_path):
        cfg, _ = validate_config(tiny_walk_config())
        rec = run_experiment(cfg)
        emit_outputs(rec, tmp_path, formats="json")
        summary = json.loads((tmp_path / "tiny-walk.summary.json").read_text())
        for key in ("schema_version", "experiment", "config", "config_sha256",
                    "seed_scheme", "aggregates", "checks", "warnings", "pass"):
            assert key in summary
        assert summary["schema_version"] == 1
        assert summary["config"]["seed"] == 99

    def test_empty_rows_still_valid(self, tmp_path):
        # a scan without slope_threshold has rows but no checks
        raw = {"experiment": "berry-esseen-scan", "seed": 3, "law": TWO_POINT,
               "p": 3, "n_grid": [4, 8, 16, 32], "replicates": 200}
        cfg, _ = validate_config(raw)
        rec = run_experiment(cfg)
        assert len(rec.rows) == 4
        assert rec.checks == []
        assert rec.passed

    def test_q1_references_near_the_existence_bound(self):
        # at mu = 0.52, 47% of the draws of v round onto |v| = 1; the KS
        # distance to the continuous Beta CDF would read 0.47 whatever the
        # sampler did (ks_max is 2.6 / sqrt(draws))
        raw = {"experiment": "axioms", "seed": 5, "checks": [
            {"check": "character", "mu": 0.52, "r1": 1.0, "r2": 2.0, "s": 0.7,
             "draws": 20000},
            {"check": "contraction-beta", "mu": 0.52, "draws": 20000, "ks_max": 0.0184}]}
        cfg, _ = validate_config(raw)
        rec = run_experiment(cfg)
        assert rec.passed, rec.checks

    def test_character_in_the_hyp0f1_nan_band(self):
        # at mu = 100 scipy's hyp0f1 is NaN for x in [0.0202, 0.0577], which
        # r s = 0.03 and the convolved t s fall in
        raw = {"experiment": "axioms", "seed": 5, "checks": [
            {"check": "character", "mu": 100.0, "r1": 1.0, "r2": 1.0, "s": 0.03,
             "draws": 20000}]}
        cfg, _ = validate_config(raw)
        rec = run_experiment(cfg)
        assert rec.passed, rec.checks

    def test_kappa_matrix_rows_checked_against_exact(self):
        # every kappa row, q >= 2 included, has a finite reference and a check
        raw = {"experiment": "kappa", "seed": 3, "q": 2, "d": 1,
               "mu_grid": [2.7, 6.0], "n_samples": 20000}
        cfg, _ = validate_config(raw)
        rec = run_experiment(cfg)
        assert all(math.isfinite(row[7]) for row in rec.rows)
        assert [c["check"] for c in rec.checks] == ["kappa-quadrature"] * 2
        assert rec.passed

    def test_empty_record_emission(self, tmp_path):
        from conewalk.harness import RunRecord

        rec = RunRecord(config={"experiment": "kappa", "name": "empty",
                                "seed": 0, "block_size": 1},
                        config_sha256="0" * 64, columns=["a", "b"], rows=[],
                        aggregates={}, checks=[], warnings=[], wall_time_s=0.0)
        paths = emit_outputs(rec, tmp_path)
        assert (tmp_path / "empty.csv").read_text() == "a,b\n"
        summary = json.loads((tmp_path / "empty.summary.json").read_text())
        assert summary["n_rows"] == 0

    def test_summary_is_strict_json(self, tmp_path):
        # non-finite numbers are null in the summary; the CSV keeps them
        def strict(const):
            raise ValueError(f"not JSON: {const}")

        zero = {"kind": "point_mass", "atom": 0.0}
        raw = {"experiment": "axioms", "seed": 8, "checks": [
            {"check": "m1-subadditivity", "q": 1, "d": 1, "mu": 3.0,
             "law": zero, "law2": zero, "replicates": 100}]}
        cfg, _ = validate_config(raw)
        emit_outputs(run_experiment(cfg), tmp_path)
        text = (tmp_path / "axioms.summary.json").read_text()
        assert json.loads(text, parse_constant=strict)["checks"][0]["excess_over_se"] == 0.0

        from conewalk.harness import RunRecord

        rec = RunRecord(config={"experiment": "kappa", "name": "inf",
                                "seed": 0, "block_size": 1},
                        config_sha256="0" * 64, columns=["a", "b"],
                        rows=[[math.inf, -math.inf]],
                        aggregates={"x": [math.inf, -math.inf, math.nan, 1.5]},
                        checks=[{"ratio": np.float64(-np.inf), "pass": False}],
                        warnings=[], wall_time_s=0.0)
        emit_outputs(rec, tmp_path)
        summary = json.loads((tmp_path / "inf.summary.json").read_text(),
                             parse_constant=strict)
        assert summary["aggregates"]["x"] == [None, None, None, 1.5]
        assert summary["checks"][0]["ratio"] is None
        assert (tmp_path / "inf.csv").read_text() == "a,b\ninf,-inf\n"

    @pytest.mark.parametrize("q, d", [(1, 1), (2, 2)])
    def test_kappa_at_large_index(self, q, d):
        # the reference keeps its accuracy where two log-gammas would cancel
        raw = {"experiment": "kappa", "seed": 5, "q": q, "d": d,
               "mu_grid": [1e8, 1e12], "n_samples": 20000}
        cfg, _ = validate_config(raw)
        rec = run_experiment(cfg)
        assert rec.passed and [c["pass"] for c in rec.checks] == [True, True]

    def test_kappa_exponent_zero_summary_value(self, tmp_path):
        raw = {"experiment": "kappa", "seed": 4, "q": 1, "d": 1,
               "mu_grid": [1.5], "n_samples": 5000}
        cfg, _ = validate_config(raw)
        rec = run_experiment(cfg)
        emit_outputs(rec, tmp_path, formats="json")
        summary = json.loads((tmp_path / "kappa.summary.json").read_text())
        assert summary["aggregates"]["estimates"][0] == pytest.approx(2.0)
        assert rec.passed

    def test_zero_law_walk_rows_are_zero(self):
        raw = {"experiment": "walk-group", "seed": 6, "p": 4, "q": 1,
               "n_steps": 3, "law": {"kind": "point_mass", "atom": 0.0},
               "replicates": 200}
        cfg, _ = validate_config(raw)
        rec = run_experiment(cfg)
        assert rec.rows[0][2] == 0.0 and rec.rows[0][4] == 0.0


class TestZeroStandardError:
    """At se == 0 an exact match is 0 standard errors away and passes; any
    other difference is infinitely many and fails, in every family."""

    def test_exact_character_passes(self):
        # at s = 0 every character value and the target are exactly 1
        raw = {"experiment": "axioms", "seed": 31, "checks": [
            {"check": "character", "mu": 4.0, "r1": 1.0, "r2": 2.0, "s": 0.0,
             "draws": 2000}]}
        cfg, _ = validate_config(raw)
        rec = run_experiment(cfg)
        assert rec.checks[0]["diff_over_se"] == 0.0
        assert rec.passed

    def test_exact_m2_additivity_passes(self):
        # one step of a point law has ||S_1||^2 = atom^2 exactly; at 0.1 the
        # sum of the 2000 equal draws rounds, but their mean must not
        for atom in (1.0, 0.1):
            raw = {"experiment": "axioms", "seed": 32, "checks": [
                {"check": "m2-additivity", "q": 1, "d": 1, "mu": 3.0,
                 "law": {"kind": "point_mass", "atom": atom}, "n_steps": 1,
                 "replicates": 2000}]}
            cfg, _ = validate_config(raw)
            rec = run_experiment(cfg)
            assert rec.checks[0]["diff_over_se"] == 0.0, atom
            assert rec.passed

    def test_nearly_constant_walk_keeps_its_standard_error(self):
        # as mu -> inf the index-mu walk of a unit point law tends to the
        # deterministic ||S_8||^2 = 8; at mu = 1e17 its spread is about
        # 2e-8, below what sum(x^2)/n - mean^2 resolves at x = 8, so a
        # one-pass variance reads se = 0 and the check infinitely many SEs off
        raw = {"experiment": "walk-bessel", "seed": 7, "mu": 1e17, "q": 1, "d": 1,
               "n_steps": 8, "law": {"kind": "point_mass", "atom": 1.0},
               "replicates": 20000}
        cfg, _ = validate_config(raw)
        rec = run_experiment(cfg)
        assert rec.rows[0][3] > 0
        assert rec.passed, rec.checks

    @pytest.mark.parametrize("q, d, mu_grid", [
        (1, 1, [1e16]), (1, 2, [1e16, 1e306]), (2, 1, [1e16, 1e20]), (3, 1, [1e26, 1e40, 1e47])])
    def test_kappa_at_rounding_level_passes(self, q, d, mu_grid):
        # from about mu = 1e15 the importance weights differ from 1 by
        # rounding alone, and se falls below the estimate's float64 rounding
        # or to 0; the verdict's floor of 2 q ulps of the reference holds it
        # to the bits the estimate can resolve, and std_error stays the SE
        raw = {"experiment": "kappa", "seed": 5, "q": q, "d": d, "mu_grid": mu_grid,
               "n_samples": 1000}
        cfg, _ = validate_config(raw)
        rec = run_experiment(cfg)
        assert rec.passed, rec.rows
        assert all(row[6] < 2 * q * math.ulp(row[7]) for row in rec.rows)

    @pytest.mark.parametrize("q, d", [(1, 1), (2, 2)])
    def test_kappa_floor_keeps_its_power(self, monkeypatch, q, d):
        # the floor acts only below float64 rounding: a reference off by
        # 1e-8 still fails where the SE resolves it
        exact = experiments.kappa_exact
        monkeypatch.setattr(experiments, "kappa_exact", lambda param: exact(param) * (1 + 1e-8))
        raw = {"experiment": "kappa", "seed": 5, "q": q, "d": d, "mu_grid": [1e8, 1e12],
               "n_samples": 20000}
        cfg, _ = validate_config(raw)
        rec = run_experiment(cfg)
        assert [c["pass"] for c in rec.checks] == [False, False]

    def test_nonzero_difference_fails(self):
        from conewalk.experiments import diff_over_se

        assert diff_over_se(0.0, 0.0) == 0.0
        assert diff_over_se(1e-12, 0.0) == math.inf
        assert not diff_over_se(1e-12, 0.0) <= 4.0
        assert diff_over_se(0.3, 0.1) == pytest.approx(3.0)

    def test_exact_m1_subadditivity_is_zero_standard_errors(self):
        # with both laws at the zero atom every draw and the bound are 0;
        # the excess is signed, so a mean below a constant bound reads -inf
        from conewalk.experiments import diff_over_se

        zero = {"kind": "point_mass", "atom": 0.0}
        raw = {"experiment": "axioms", "seed": 33, "checks": [
            {"check": "m1-subadditivity", "q": 1, "d": 1, "mu": 3.0,
             "law": zero, "law2": zero, "replicates": 100}]}
        cfg, _ = validate_config(raw)
        rec = run_experiment(cfg)
        assert rec.checks[0]["excess_over_se"] == 0.0
        assert rec.passed
        assert diff_over_se(-1e-12, 0.0) == -math.inf
        assert diff_over_se(1e-12, 0.0) == math.inf


class TestOtherFamilies:
    def test_walk_group_demo(self):
        raw = json.load(open(REPO / "configs" / "demo" / "walk_group.json"))
        raw["replicates"] = 2000
        cfg, _ = validate_config(raw)
        rec = run_experiment(cfg)
        assert rec.passed
        assert [r[0] for r in rec.rows] == [4, 8, 16]

    def test_walk_bessel_demo(self):
        raw = json.load(open(REPO / "configs" / "demo" / "walk_bessel.json"))
        raw["replicates"] = 2000
        cfg, _ = validate_config(raw)
        rec = run_experiment(cfg)
        assert rec.passed

    def test_axioms_params_column(self):
        # scalar parameters are shown, the character's s among them; laws
        # and matrices, the commutativity check's r and s among them, are not
        cfg, _ = validate_config({"experiment": "axioms", "seed": 1, "checks": [
            {"check": "character", "mu": 4.0, "r1": 1.0, "r2": 2.0, "s": 0.7, "draws": 10},
            {"check": "commutativity", "mu": 4.0, "q": 1, "r": 1.0, "s_squared": 4.0,
             "replicates": 8},
            {"check": "m1-subadditivity", "mu": 4.0, "law": TWO_POINT, "replicates": 2}]})
        assert [experiments._params_str(spec) for spec in cfg["checks"]] == \
            ["mu=4.0 r1=1.0 r2=2.0 s=0.7", "d=1 mu=4.0 q=1", "d=1 mu=4.0 q=1"]

    @pytest.mark.parametrize("d", [1, 2])
    def test_support_bound_points_keep_their_law(self, monkeypatch, d):
        # r and s are factors of Wishart draws of mean 1.5 I and 0.8 I
        seen = []
        convolve = experiments.convolve_points

        def spy(r, s, param, rng, size):
            seen.append((r, s))
            return convolve(r, s, param, rng, size)

        monkeypatch.setattr(experiments, "convolve_points", spy)
        n = 20000
        cfg, _ = validate_config({"experiment": "axioms", "seed": 12, "block_size": n,
                                  "checks": [{"check": "support-bound", "q": 2, "d": d,
                                              "mu": 5.0, "draws": n}]})
        experiments.AxiomsExperiment.run_block(cfg, experiments.AxiomsExperiment.plan(cfg)[0])
        [(r, s)] = seen
        for factor, c in ((r, 1.5), (s, 0.8)):
            gram = np.conj(np.swapaxes(factor, -1, -2)) @ factor
            dev = np.abs(gram.mean(axis=0) - c * np.eye(2))
            assert factor.shape == (n, 2, 2)
            assert np.all(dev <= 4 * np.std(gram, axis=0) / np.sqrt(n)), (c, dev)

    def test_walk_bessel_at_mu_dp_over_2_is_walk_group(self, tmp_path):
        # one engine: the walk-bessel family at mu = d p / 2 writes the
        # walk-group family's rows and replicates byte for byte
        law = {"kind": "wishart_root", "field": "complex", "dof": 3,
               "scale": [[[1.0, 0.0], [0.2, 0.1]], [[0.2, -0.1], [0.5, 0.0]]]}
        walk = {"name": "w", "seed": 11, "n_steps": 3, "checkpoints": [1, 3], "law": law,
                "replicates": 300, "block_size": 128, "emit": "replicates"}
        group = {"experiment": "walk-group", "p": 4, "q": 2, "field": "complex"} | walk
        bessel = {"experiment": "walk-bessel", "mu": 4.0, "q": 2, "d": 2} | walk
        written = []
        for raw, out in ((group, tmp_path / "group"), (bessel, tmp_path / "bessel")):
            cfg, warnings = validate_config(raw)
            paths = emit_outputs(run_experiment(cfg, warnings=warnings), out)
            written.append({p.name: p.read_bytes() for p in paths
                            if not p.name.endswith(".summary.json")})
        assert sorted(written[0]) == ["w.csv", "w.plotdata.csv", "w.replicates.csv"]
        assert written[0] == written[1]

    def test_moment_identity_family(self):
        raw = {"experiment": "moment-identity", "seed": 7, "law": TWO_POINT,
               "grid": [[5, 10]], "replicates": 20000, "method": "polar"}
        cfg, _ = validate_config(raw)
        rec = run_experiment(cfg)
        assert rec.passed
        assert rec.rows[0][0] == 5 and rec.rows[0][1] == 10

    def test_clt3_q1_limit_variance(self):
        # at q = 1 the CLT3 statistic's limit variance is the T^2 covariance
        # t_squared_limit([[s2]]) = 2 s2^2, not the CLT2 variance m4 - s2^2
        raw = {"experiment": "clt-check", "seed": 5, "kind": "CLT3", "engine": "group",
               "p": 200, "n_steps": 1000, "law": TWO_POINT, "replicates": 4000}
        cfg, warnings = validate_config(raw)
        rec = run_experiment(cfg, warnings=warnings)
        assert rec.aggregates["limit_var"] == 2 * 2.5**2
        assert rec.passed, rec.aggregates

    def test_complex_q1_references_take_real_dimension(self):
        # a q = 1 walk in C^p is the real walk in R^(2p): the moment
        # identity, the CLT1 chi-square and the Berry-Esseen scan's
        # chi-square all take m = 2p
        law = TWO_POINT | {"field": "complex"}
        runs = [
            {"experiment": "moment-identity", "seed": 7, "law": law,
             "grid": [[10, 2], [20, 5]], "replicates": 20000},
            {"experiment": "clt-check", "seed": 7, "kind": "CLT1", "engine": "group",
             "p": 5, "n_steps": 500, "law": law, "replicates": 4000},
            {"experiment": "berry-esseen-scan", "seed": 7, "law": law, "p": 3,
             "n_grid": [64, 128, 256, 512], "replicates": 4000},
        ]
        recs = [run_experiment(validate_config(raw)[0]) for raw in runs]
        assert recs[0].passed
        assert [r[5] for r in recs[0].rows] == pytest.approx([303.75, 520.0])
        assert recs[1].aggregates["sup_chi2_distance"] <= 3 / math.sqrt(4000)
        assert abs(recs[1].aggregates["sample_var"] - 1.0) <= 0.1
        assert max(r[2] for r in recs[2].rows) <= 3 / math.sqrt(4000)

    def test_berry_esseen_family_plot(self, tmp_path):
        raw = {"experiment": "berry-esseen-scan", "seed": 8,
               "law": {"kind": "log_normal", "log_mean": 0.0, "log_sd": 1.0},
               "p": 3, "n_grid": [16, 32, 64, 128], "replicates": 4000}
        cfg, _ = validate_config(raw)
        rec = run_experiment(cfg)
        paths = emit_outputs(rec, tmp_path)
        assert (tmp_path / "berry-esseen-scan.plotdata.csv") in paths


def cli_env(**extra):
    """The environment of a CLI subprocess: the tests' own, with the directory
    that the imported package came from first on PYTHONPATH."""
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    return os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, path))} | extra


class TestCli:
    def _run(self, *args):
        return subprocess.run([sys.executable, "-m", "conewalk.cli", *args],
                              capture_output=True, text=True, env=cli_env())

    def test_success_exit_zero(self, tmp_path):
        cfg = tiny_walk_config(replicates=500)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        res = self._run("walk-bessel", "--config", str(path),
                        "--out", str(tmp_path / "out"))
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "out" / "tiny-walk.csv").exists()

    def test_config_error_exit_two(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_walk_config(mu=0.1)))
        res = self._run("walk-bessel", "--config", str(path))
        assert res.returncode == 2
        assert "config error" in res.stderr

    def test_non_psd_matrix_exit_two(self, tmp_path):
        path = tmp_path / "cfg.json"
        law = {"kind": "wishart_root", "scale": [[-1.0]], "dof": 2}
        path.write_text(json.dumps(tiny_walk_config(law=law)))
        res = self._run("walk-bessel", "--config", str(path))
        assert res.returncode == 2
        assert "law.scale" in res.stderr

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_exit_two(self, tmp_path, workers):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_walk_config(replicates=32)))
        res = self._run("walk-bessel", "--config", str(path), "--workers", workers,
                        "--out", str(tmp_path / "out"))
        assert res.returncode == 2
        assert "config field '--workers'" in res.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["sub/dir", "", "../x"])
    def test_bad_name_exit_two(self, tmp_path, capsys, name):
        # a name that is not a plain file name would be written under a
        # missing directory, as a hidden file or outside --out
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_walk_config(replicates=32, name=name)))
        code = cli.main(["walk-bessel", "--config", str(path),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config field 'name'" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("raw, field", [
        ({"experiment": "clt-check", "seed": 1, "kind": "CLT4", "engine": "group", "p": 1,
          "law": {"kind": "point_mass", "atom": [[1.0, 0.0], [0.0, 1.0]]}, "n_steps": 3,
          "replicates": 1000}, "p"),
        ({"experiment": "clt-check", "seed": 1, "kind": "CLT3", "engine": "group", "p": 4,
          "law": {"kind": "point_mass", "atom": [[1.0, 0.0], [0.0, 1.0]]}, "n_steps": 3,
          "replicates": 90}, "replicates"),
        ([1, 2], "<root>"),
        ({"experiment": "moment-identity", "seed": 1, "law": TWO_POINT, "grid": [[2, 0]],
          "replicates": 10}, "grid[0]"),
        ({"experiment": "moment-identity", "seed": 1, "law": TWO_POINT,
          "grid": [[2, 3], [0, 3]], "replicates": 10}, "grid[1]"),
        ({"experiment": "axioms", "seed": 1, "checks": [
            {"check": "mu-scaling", "mu": 40.0, "law": TWO_POINT, "n_steps": 4, "cap": 6.0,
             "replicates": 10, "ratio_lo": 5.0}]}, "checks[0].ratio_lo"),
        ({"experiment": "clt-check", "seed": 1, "kind": "CLT2", "engine": "group", "p": 3,
          "n_steps": 4, "replicates": 10, "law": {"kind": "point_mass", "atom": [[0.1]]}},
         "law"),
        ({"experiment": "clt-check", "seed": 1, "kind": "CLT1", "engine": "group", "p": 3,
          "n_steps": 4, "replicates": 10, "law": {"kind": "point_mass", "atom": [[0.0]]}},
         "law"),
        ({"experiment": "clt-check", "seed": 1, "kind": "CLT3", "engine": "group", "p": 3,
          "n_steps": 4, "replicates": 10, "law": {"kind": "point_mass", "atom": [[1e-100]]}},
         "law"),
        # moments past float64: a Python float power overflows, numpy's exp gives inf
        ({"experiment": "clt-check", "seed": 1, "kind": "CLT1", "engine": "group", "p": 3,
          "n_steps": 4, "replicates": 10, "law": HUGE_TWO_POINT}, "law"),
        ({"experiment": "clt-check", "seed": 1, "kind": "CLT2", "engine": "group", "p": 3,
          "n_steps": 4, "replicates": 10, "law": HUGE_TWO_POINT}, "law"),
        ({"experiment": "clt-check", "seed": 1, "kind": "CLT4", "engine": "bessel", "mu": 3.0,
          "n_steps": 4, "replicates": 10, "law": HUGE_LOG_NORMAL}, "law"),
        # every other family and check that reads its law's moments
        ({"experiment": "walk-group", "seed": 1, "p": 3, "n_steps": 4, "replicates": 10,
          "law": HUGE_TWO_POINT}, "law"),
        ({"experiment": "walk-bessel", "seed": 1, "mu": 3.0, "n_steps": 4, "replicates": 10,
          "law": HUGE_LOG_NORMAL}, "law"),
        ({"experiment": "moment-identity", "seed": 1, "grid": [[2, 3]], "replicates": 10,
          "law": HUGE_UNIFORM}, "law"),
        ({"experiment": "berry-esseen-scan", "seed": 1, "p": 3, "n_grid": [1, 2, 3, 4],
          "replicates": 10, "law": HUGE_TWO_POINT}, "law"),
        ({"experiment": "axioms", "seed": 1, "checks": [
            {"check": "character", "mu": 3.0, "r1": 1, "r2": 1, "s": 1, "draws": 10},
            {"check": "m2-additivity", "mu": 3.0, "n_steps": 4, "replicates": 10,
             "law": HUGE_LOG_NORMAL}]}, "checks[1].law"),
        ({"experiment": "axioms", "seed": 1, "checks": [
            {"check": "m1-subadditivity", "mu": 3.0, "replicates": 10, "law": TWO_POINT,
             "law2": HUGE_UNIFORM}]}, "checks[0].law2"),
        # the character beyond float64: at the reference, and only at the top
        # (r1 + r2) s of the run's range
        ({"experiment": "axioms", "seed": 1, "checks": [
            {"check": "character", "mu": 400, "r1": 30, "r2": 30, "s": 30, "draws": 10}]},
         "checks[0].mu"),
        ({"experiment": "axioms", "seed": 1, "checks": [
            {"check": "character", "mu": 400, "r1": 2, "r2": 2, "s": 35, "draws": 10}]},
         "checks[0].mu"),
        # r1 + r2 overflows, and t s = inf * 0 is NaN
        ({"experiment": "axioms", "seed": 1, "checks": [
            {"check": "character", "mu": 3.0, "r1": 1e308, "r2": 1e308, "s": 0.0, "draws": 10}]},
         "checks[0].mu"),
        # an index whose nu = 2 mu / d - q is not a finite float64 number: a
        # q = 2 walk exited 3, a q = 1 walk ran, and the Beta test failed
        # on draws that were all exactly 0
        ({"experiment": "walk-bessel", "seed": 1, "mu": 1e308, "q": 2, "n_steps": 2,
          "replicates": 10, "law": {"kind": "point_mass", "atom": [[1.0, 0.0], [0.0, 1.0]]}},
         "mu"),
        ({"experiment": "kappa", "seed": 1, "mu_grid": [3.0, 1e308], "n_samples": 10},
         "mu_grid[1]"),
        # a kappa that underflows float64: an estimate of 0 matched it and passed
        ({"experiment": "kappa", "seed": 1, "q": 2, "d": 2, "mu_grid": [5.0, 1e100],
          "n_samples": 10}, "mu_grid[1]"),
        ({"experiment": "kappa", "seed": 1, "q": 2, "d": 1, "mu_grid": [1e306],
          "n_samples": 10}, "mu_grid[0]"),
        ({"experiment": "axioms", "seed": 1, "checks": [
            {"check": "group-consistency", "q": 1, "d": 2, "p": 10**308,
             "law": {"kind": "point_mass", "field": "complex", "atom": 1.0},
             "n_steps": 2, "replicates": 10}]}, "checks[0].p"),
        ({"experiment": "axioms", "seed": 1, "checks": [
            {"check": "mu-scaling", "mu": 5e307, "law": TWO_POINT, "n_steps": 2, "cap": 1.0,
             "replicates": 10}]}, "checks[0].mu"),
        ({"experiment": "axioms", "seed": 1, "checks": [
            {"check": "contraction-beta", "mu": 1e308, "draws": 10, "ks_max": 0.1}]},
         "checks[0].mu"),
        # a berry-esseen-scan law whose scale m / (n m2) is 0 / 0 or past
        # float64: the run divided by zero, or every KS distance read 1.0
        ({"experiment": "berry-esseen-scan", "seed": 1, "p": 3, "n_grid": [1, 2, 3, 4],
          "replicates": 10, "law": {"kind": "point_mass", "atom": 0.0}}, "law"),
        ({"experiment": "berry-esseen-scan", "seed": 1, "p": 3, "n_grid": [1, 2, 3, 4],
          "replicates": 10, "law": {"kind": "point_mass", "atom": 1e-170}}, "law"),
        ({"experiment": "berry-esseen-scan", "seed": 1, "p": 3, "n_grid": [1, 2, 3, 4],
          "replicates": 10, "law": {"kind": "two_point", "a": 0.0, "b": 0.0, "p_a": 0.5}},
         "law"),
        ({"experiment": "berry-esseen-scan", "seed": 1, "p": 3, "n_grid": [1, 2, 3, 4],
          "replicates": 10, "law": {"kind": "point_mass", "atom": 1e-160}}, "law"),
        # a zero law's gaps at mu and 4 mu are both exactly 0, and their
        # ratio failed the check vacuously
        ({"experiment": "axioms", "seed": 1, "checks": [
            {"check": "mu-scaling", "mu": 40.0, "law": {"kind": "point_mass", "atom": 0.0},
             "n_steps": 4, "cap": 6.0, "replicates": 10}]}, "checks[0].law"),
        ({"experiment": "axioms", "seed": 1, "checks": [
            {"check": "mu-scaling", "q": 2, "mu": 40.0, "n_steps": 4, "cap": 6.0,
             "law": {"kind": "point_mass", "atom": [[0.0, 0.0], [0.0, 0.0]]},
             "replicates": 10}]}, "checks[0].law"),
        # m2 = exp(-748) is 0 but m4 = exp(808) is inf in float64: the
        # zero-law rule reads m2 of moments that do not all fit
        ({"experiment": "axioms", "seed": 1, "checks": [
            {"check": "mu-scaling", "mu": 40.0, "n_steps": 4, "cap": 6.0, "replicates": 10,
             "law": {"kind": "log_normal", "log_mean": -950.0, "log_sd": 24.0}}]},
         "checks[0].law"),
    ], ids=["p-below-q", "too-few-for-mardia", "top-level-list", "grid-p-zero", "grid-n-zero",
            "mu-scaling-ratio-bounds", "clt2-point-mass", "clt1-zero-law", "clt3-atom-1e-100",
            "clt1-moments-overflow", "clt2-moments-overflow", "clt4-log-normal-moments-overflow",
            "walk-group-moments-overflow", "walk-bessel-moments-overflow",
            "moment-identity-moments-overflow", "berry-esseen-moments-overflow",
            "m2-additivity-moments-overflow", "m1-subadditivity-law2-moments-overflow",
            "character-reference-beyond-float64",
            "character-run-beyond-float64", "character-run-overflows",
            "walk-bessel-nu-inf", "kappa-nu-inf", "kappa-complex-underflow",
            "kappa-real-underflow", "group-consistency-nu-inf",
            "mu-scaling-4mu-nu-inf", "contraction-beta-nu-inf",
            "berry-esseen-zero-atom", "berry-esseen-atom-1e-170", "berry-esseen-zero-two-point",
            "berry-esseen-atom-1e-160", "mu-scaling-zero-law", "mu-scaling-q2-zero-law",
            "mu-scaling-zero-m2-infinite-m4"])
    def test_unrunnable_config_exit_two(self, tmp_path, capsys, raw, field):
        # refused before anything runs or is written
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        command = raw["experiment"] if isinstance(raw, dict) else "clt-check"
        code = cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"config field '{field}'" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("law", [HUGE_TWO_POINT, HUGE_LOG_NORMAL])
    def test_mu_scaling_reads_no_moments_past_float64(self, law):
        # the zero-law rule reads the law's m2, but the check itself needs no
        # moments, so a law whose moments overflow float64 is still accepted
        cfg, _ = validate_config({"experiment": "axioms", "seed": 1, "checks": [
            {"check": "mu-scaling", "mu": 40.0, "law": law, "n_steps": 4, "cap": 6.0,
             "replicates": 10}]})
        assert cfg["checks"][0]["law"]["kind"] == law["kind"]

    @pytest.mark.parametrize("config, out, field", [
        ("missing.json", "out", "<path>"),
        ("bad.json", "out", "<path>"),
        ("latin1.json", "out", "<path>"),
        ("a_dir", "out", "<path>"),
        ("array.json", "out", "<root>"),
        ("cfg.json", "a_file", "--out"),
        ("cfg.json", "a_file/sub", "--out"),
    ], ids=["missing-file", "invalid-json", "not-utf8", "directory", "json-array",
            "out-is-a-file", "out-under-a-file"])
    def test_unreadable_input_exit_two(self, tmp_path, capsys, config, out, field):
        # refused as config errors before anything runs or is written
        (tmp_path / "cfg.json").write_text(json.dumps(tiny_walk_config(replicates=32)))
        (tmp_path / "bad.json").write_text('{"experiment": ')
        (tmp_path / "latin1.json").write_bytes('{"name": "café"}'.encode("latin-1"))
        (tmp_path / "array.json").write_text("[1, 2]")
        (tmp_path / "a_dir").mkdir()
        (tmp_path / "a_file").write_text("keep")
        before = sorted(tmp_path.rglob("*"))
        code = cli.main(["walk-bessel", "--config", str(tmp_path / config),
                         "--out", str(tmp_path / out)])
        assert code == 2
        assert f"config error: config field '{field}'" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "a_file").read_text() == "keep"

    def test_string_law_parameter_exit_two(self, tmp_path):
        path = tmp_path / "cfg.json"
        law = {"kind": "uniform", "lo": "0.5", "hi": 1.0}
        path.write_text(json.dumps(tiny_walk_config(law=law)))
        res = self._run("walk-bessel", "--config", str(path))
        assert res.returncode == 2
        assert "law.lo" in res.stderr

    @pytest.mark.parametrize("env", ["0", "-3", "abc", "2.5"])
    def test_bad_workers_env_exit_two(self, tmp_path, env):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_walk_config(replicates=32)))
        res = subprocess.run([sys.executable, "-m", "conewalk.cli", "walk-bessel",
                              "--config", str(path), "--out", str(tmp_path / "out")],
                             capture_output=True, text=True,
                             env=cli_env(CONEWALK_WORKERS=env))
        assert res.returncode == 2
        assert "config field 'CONEWALK_WORKERS'" in res.stderr
        assert not (tmp_path / "out").exists()

    def test_subcommand_mismatch_exit_two(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_walk_config()))
        res = self._run("walk-group", "--config", str(path))
        assert res.returncode == 2

    def test_numerical_failure_exit_three(self, tmp_path):
        # group-consistency reads no moments, so it takes a law whose walk
        # overflows float64 at its first step
        cfg = {"experiment": "axioms", "seed": 1, "checks": [
            {"check": "group-consistency", "p": 4, "n_steps": 2, "replicates": 32,
             "law": {"kind": "point_mass", "atom": 1e200}}]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        res = self._run("axioms", "--config", str(path), "--out", str(tmp_path / "out"))
        assert res.returncode == 3
        assert "numerical failure: walk accumulation overflowed" in res.stderr

    def test_moment_free_checks_accept_huge_laws(self, tmp_path, capsys):
        # group-consistency reads no moments: a law whose moments overflow
        # float64 but whose walks stay finite runs
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "axioms", "seed": 1, "name": "huge",
                                    "checks": [{"check": "group-consistency", "p": 4,
                                                "n_steps": 2, "replicates": 200,
                                                "law": HUGE_LOG_NORMAL}]}))
        code = cli.main(["axioms", "--config", str(path), "--out", str(tmp_path / "out"),
                         "--workers", "1"])
        assert code == 0, capsys.readouterr().err

    def test_huge_matrix_laws_run(self, tmp_path, capsys):
        # a q = 2 walk at radii 1e100 has Gram entries near 1e200, whose
        # squares overflow float64: the factor step still runs it
        path = tmp_path / "cfg.json"
        law = {"kind": "point_mass", "atom": [[1e100, 0.0], [0.0, 1e100]]}
        path.write_text(json.dumps({"experiment": "axioms", "seed": 1, "name": "big",
                                    "checks": [{"check": "group-consistency", "q": 2, "p": 4,
                                                "n_steps": 2, "replicates": 200,
                                                "law": law}]}))
        code = cli.main(["axioms", "--config", str(path), "--out", str(tmp_path / "out"),
                         "--workers", "1"])
        assert code == 0, capsys.readouterr().err

    def test_threshold_failure_exit_four(self, tmp_path):
        cfg = {
            "experiment": "axioms", "seed": 10, "name": "impossible",
            "checks": [{"check": "contraction-beta", "mu": 5.0,
                        "draws": 2000, "ks_max": 1e-9}],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        res = self._run("axioms", "--config", str(path),
                        "--out", str(tmp_path / "out"))
        assert res.returncode == 4
        assert "FAIL" in res.stdout

    @pytest.mark.parametrize("raw", [
        {"kind": "CLT4", "engine": "bessel", "mu": 50.0, "law": MIX2},
        {"kind": "CLT3", "engine": "group", "p": 4, "law": MIX2},
    ], ids=["bessel-two-atoms", "group-two-atoms"])
    def test_singular_mardia_exit_four(self, tmp_path, capsys, raw):
        # one step of a law with two atoms takes two values,
        # so the statistic's covariance is singular: the Mardia check fails
        # with a reason and null p-values, and the run still ends in a verdict
        raw = {"experiment": "clt-check", "name": "singular", "n_steps": 1,
               "replicates": 100, "seed": 5} | raw
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        code = cli.main(["clt-check", "--config", str(path), "--out", str(tmp_path / "out"),
                         "--workers", "1"])
        assert code == 4
        assert "singular: FAIL" in capsys.readouterr().out

        def refuse(token):
            raise ValueError(token)

        summary = json.loads((tmp_path / "out" / "singular.summary.json").read_text(),
                             parse_constant=refuse)
        mardia = summary["checks"][1]
        assert mardia["check"] == "mardia" and mardia["pass"] is False
        assert mardia["reason"] == "singular empirical covariance"
        assert mardia["skew_pvalue"] is None and mardia["kurt_pvalue"] is None
        assert summary["aggregates"]["mardia_skew_pvalue"] is None

    def test_seed_override(self, tmp_path):
        cfg = tiny_walk_config(replicates=500)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        r1 = self._run("walk-bessel", "--config", str(path), "--out", str(out1))
        r2 = self._run("walk-bessel", "--config", str(path), "--seed", "123",
                       "--out", str(out2))
        assert r1.returncode == 0 and r2.returncode == 0
        assert ((out1 / "tiny-walk.csv").read_bytes()
                != (out2 / "tiny-walk.csv").read_bytes())


class TestDefaultWorkers:
    @pytest.mark.parametrize("env", ["0", "-3", "abc", "2.5"])
    def test_malformed_env_is_config_error(self, env):
        with mock.patch.dict(os.environ, {"CONEWALK_WORKERS": env}):
            with pytest.raises(ConfigError) as info:
                harness.default_workers()
        assert info.value.field == "CONEWALK_WORKERS"

    def test_env_value(self):
        with mock.patch.dict(os.environ, {"CONEWALK_WORKERS": "3"}):
            assert harness.default_workers() == 3

    def test_empty_env_means_unset(self):
        with mock.patch.dict(os.environ, {"CONEWALK_WORKERS": ""}):
            assert harness.default_workers() == len(os.sched_getaffinity(0))
