"""Rules on the package source that a run of the program cannot show."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "conewalk"


def test_no_assert_statements():
    # python -O strips assert statements, so a runtime check must raise
    paths = sorted(SRC.rglob("*.py"))
    assert paths, f"no sources under {SRC}"
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def _called_name(node):
    """Name of the function a Call node calls (``f(...)`` or ``mod.f(...)``)."""
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_steps_and_draws_take_no_root():
    # the walks carry factors of their Gram matrices: no function reached
    # from the cone step, the walk engine, the paired composition gap or a
    # law's draw calls an eigensolver or takes a matrix root.  A function
    # is reached when a reached one calls or names it; names resolve to
    # every function or method of the package that has them
    defs = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                defs.setdefault(node.name, []).append(node)
    reached, todo, named = set(), ["cone_step", "run_cone_walks", "paired_composition_diffs",
                                   "convolve_points", "sample_contraction", "sample"], set()
    while todo:
        name = todo.pop()
        reached.add(name)
        names = {getattr(node, "id", getattr(node, "attr", None))
                 for fn in defs[name] for node in ast.walk(fn)
                 if isinstance(node, (ast.Name, ast.Attribute))}
        named |= names
        todo += sorted(names & set(defs) - reached - set(todo))
    roots = {"eigh", "eigvalsh", "eig", "eigvals", "svd", "sqrtm", "psd_sqrt", "clamp_psd"}
    assert named & roots == set()
    assert {"_factor", "haar_block", "_cholesky_solve", "bartlett_columns",
            "square_radial", "sample_scalar"} <= reached


def test_no_clamp_inside_psd_sqrt():
    # psd_sqrt checks and clamps its input itself; clamp_psd first would
    # decompose every matrix twice
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and _called_name(node) == "psd_sqrt"
             and any(isinstance(arg, ast.Call) and _called_name(arg) == "clamp_psd"
                     for arg in node.args)]
    assert found == []


def test_haar_block_takes_no_root():
    # the Haar block is v = G1 R^-1 for the Cholesky factor R of its Gram
    # matrix: neither haar_block nor any function of its module that it
    # calls decomposes a spectrum or takes a matrix root or inverse
    tops = {node.name: node
            for node in ast.parse((SRC / "orbit_sampler.py").read_text()).body
            if isinstance(node, ast.FunctionDef)}
    reached, todo, called = set(), ["haar_block"], set()
    while todo:
        name = todo.pop()
        reached.add(name)
        names = {_called_name(node) for node in ast.walk(tops[name])
                 if isinstance(node, ast.Call)}
        called |= names
        todo += sorted(names & set(tops) - reached)
    assert "_cholesky_solve" in reached
    roots = {"_eigh", "eigh", "eigvalsh", "eig", "svd", "qr", "inv", "solve", "sqrtm",
             "psd_sqrt", "clamp_psd", "_assemble", "psd_inv_sqrt"}
    assert called & roots == set()


def test_one_walk_engine():
    # the polar group walk and the index-mu walk are one engine keyed by
    # nu: besides it, only the direct route and the paired composition
    # gap (its own (a, s) order, every increment drawn first) drive a walk
    found = {f"{path.stem}.{getattr(top, 'name', top.lineno)}"
             for path in sorted(SRC.rglob("*.py"))
             for top in ast.parse(path.read_text()).body
             for node in ast.walk(top)
             if isinstance(node, ast.Call) and _called_name(node) == "drive_walk"}
    assert found == {"orbit_sampler.run_cone_walks", "orbit_sampler.run_group_walks",
                     "bessel.paired_composition_diffs"}


def test_one_walk_route():
    # every config becomes a walk in one helper of experiments.py: no other
    # function there starts an engine or builds a group-walk config
    tree = ast.parse((SRC / "experiments.py").read_text())
    found = {getattr(top, "name", top.lineno)
             for top in tree.body
             for node in ast.walk(top)
             if isinstance(node, ast.Call) and _called_name(node) in
             ("run_cone_walks", "run_group_walks", "GroupWalkConfig")}
    assert found == {"_walks"}


def test_one_contraction_sampler():
    # v has one sampler per q: only cone_block draws it, through
    # radial_projection_coeff at q = 1 and haar_block otherwise
    found = {f"{path.stem}.{getattr(top, 'name', top.lineno)}:{_called_name(node)}"
             for path in sorted(SRC.rglob("*.py"))
             for top in ast.parse(path.read_text()).body
             for node in ast.walk(top)
             if isinstance(node, ast.Call)
             and _called_name(node) in ("haar_block", "radial_projection_coeff")}
    assert found == {"orbit_sampler.cone_block:haar_block",
                     "orbit_sampler.cone_block:radial_projection_coeff"}


def test_checks_step_through_convolve_points():
    # the checks draw v and step points through bessel.sample_contraction
    # and convolve_points: no function of experiments.py draws v or makes
    # the cone step itself
    tree = ast.parse((SRC / "experiments.py").read_text())
    found = {getattr(top, "name", top.lineno)
             for top in tree.body
             for node in ast.walk(top)
             if isinstance(node, ast.Call) and _called_name(node) in ("cone_step", "cone_block")}
    assert found == set()


def test_one_block_policy():
    # every family splits its cells into blocks of the config's block_size,
    # as README says: each plan_blocks call passes cfg["block_size"] unchanged
    tree = ast.parse((SRC / "experiments.py").read_text())
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _called_name(node) == "plan_blocks"]
    assert len(calls) >= 5
    assert [ast.unparse(node.args[1]) for node in calls] == ["cfg['block_size']"] * len(calls)


def test_one_frame_construction():
    # a Haar frame is QR with the R-diagonal phase made positive, built in
    # one place: sample_stiefel_frame is the only caller of np.linalg.qr
    found = [f"{path.name}:{getattr(top, 'name', top.lineno)}"
             for path in sorted(SRC.rglob("*.py"))
             for top in ast.parse(path.read_text()).body
             for node in ast.walk(top)
             if isinstance(node, ast.Call) and _called_name(node) == "qr"]
    assert found == ["orbit_sampler.py:sample_stiefel_frame"]


def test_one_radial_matrix_construction():
    # every walk's increment is X = Q L from a Haar frame: in the walk
    # module, Gaussian entries are drawn only for a frame or a Haar block
    found = {getattr(top, "name", top.lineno)
             for top in ast.parse((SRC / "orbit_sampler.py").read_text()).body
             for node in ast.walk(top)
             if isinstance(node, ast.Call) and _called_name(node) == "std_entries"}
    assert found == {"sample_stiefel_frame", "haar_block"}


def test_cone_step_has_no_matmul_operator():
    # the cone step's products are written out entry by entry at every q,
    # as matmul makes one BLAS call per small matrix: no q calls np.matmul
    tree = ast.parse((SRC / "cone_linalg.py").read_text())
    step = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "cone_step")
    found = [node.lineno for node in ast.walk(step)
             if isinstance(node, ast.MatMult)
             or isinstance(node, ast.Call) and _called_name(node) == "matmul"]
    assert found == []


def test_no_rejection_stall_error():
    # the contraction sampler is rejection-free; nothing can stall
    found = [path.name for path in sorted(SRC.rglob("*.py"))
             if "SamplerStallError" in path.read_text()]
    assert found == []


def test_line_length():
    # lines are not packed to meet a line-count target
    found = [f"{path.relative_to(SRC)}:{i}"
             for path in sorted(SRC.rglob("*.py"))
             for i, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 99]
    assert found == []


def test_one_reduction_path():
    # means and standard errors come from limit_lab.Moments: a two-pass
    # block summary merged pairwise, never a one-pass sum of squares
    found = [f"{path.relative_to(SRC)}:{i}"
             for path in sorted(SRC.rglob("*.py"))
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if re.search(r"(sum|total)_sq", line)]
    assert found == []


def _imported_names(tree):
    """(line, dotted name) of every module and module member an import brings in."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.lineno, node.module
            yield from ((node.lineno, f"{node.module}.{alias.name}") for alias in node.names)


def test_references_from_closed_forms():
    # the exact references come from scipy.special closed forms, not from
    # hand-rolled series, quadrature or arbitrary precision
    found = [f"{path.relative_to(SRC)}:{lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for lineno, name in _imported_names(ast.parse(path.read_text()))
             if name.split(".")[0] == "mpmath" or name.startswith("scipy.integrate")]
    assert found == []


def test_one_batch_convention():
    # every sampler takes a required batch size and returns the batch
    found = [f"{path.relative_to(SRC)}:{i}"
             for path in sorted(SRC.rglob("*.py"))
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if re.search(r"\bsize\b[^,()]*=\s*None\b|\bsize is (not )?None\b", line)]
    assert found == []


def test_json_dumps_refuse_nan():
    # JSON has no NaN or infinity: every dump passes allow_nan=False, so a
    # non-finite number that was not mapped to null raises, not writes
    # a token that strict parsers refuse
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and _called_name(node) in ("dump", "dumps")
             and not any(kw.arg == "allow_nan" and isinstance(kw.value, ast.Constant)
                         and kw.value.value is False for kw in node.keywords)]
    assert found == []


def test_one_field_reader():
    # configs are read through the field tables: no _req or _opt helper is
    # left, and the one reader is config.read.  In experiments.py,
    # radial_laws.py and config.py a raw config, axioms check or law spec is
    # only handed to read or listed by set() for the unknown-field check
    # outside read, and law_from_spec hands its spec straight on
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if (isinstance(node, ast.Call) and _called_name(node) in ("_req", "_opt"))
             or (isinstance(node, ast.FunctionDef) and node.name in ("_req", "_opt"))]
    readers = [path.name for path in sorted(SRC.rglob("*.py"))
               for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.FunctionDef) and node.name == "read"]
    assert readers == ["config.py"]
    for name in ("experiments.py", "radial_laws.py", "config.py"):
        tree = ast.parse((SRC / name).read_text())
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        tops = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        in_reader = set(ast.walk(tops["read"])) if "read" in tops else set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == "raw" and node not in in_reader \
                    and isinstance(node.ctx, ast.Load):
                call = parents[node]
                if not (isinstance(call, ast.Call) and call.args[:1] == [node]
                        and _called_name(call) in ("read", "set")):
                    found.append(f"{name}:{node.lineno}")
        entries = [tops[f] for f in ("law_from_spec",) if f in tops]
        for entry in entries:
            for node in ast.walk(entry):
                if isinstance(node, ast.Name) and node.id == "spec" \
                        and isinstance(node.ctx, ast.Load) \
                        and not (isinstance(parents[node], ast.Call)
                                 and node in parents[node].args):
                    found.append(f"{name}:{node.lineno}")
    assert found == []


def test_no_private_names_across_modules():
    # a module's underscore names are its own: no module imports one from
    # another conewalk module or reads one as module._name.  config.py
    # imports no conewalk module but cone_linalg and errors, so the modules
    # whose tables it reads depend on it in one direction, and no other
    # module defines one of its functions or classes again
    found, config_imports = [], set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()  # the names that bind conewalk modules here
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "conewalk"):
                names = [alias.name for alias in node.names]
                if node.module in (None, "conewalk"):
                    modules |= {alias.asname or alias.name for alias in node.names}
                found += [f"{path.name}:{node.lineno}:{name}" for name in names
                          if name.startswith("_")]
                if path.name == "config.py":
                    config_imports |= set(names) if node.module is None else {node.module}
        found += [f"{path.name}:{node.lineno}:{node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules and node.attr.startswith("_")]
    assert found == []
    assert config_imports == {"cone_linalg", "errors"}
    tops = {path.name: {node.name for node in ast.parse(path.read_text()).body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
            for path in sorted(SRC.rglob("*.py"))}
    reader = tops.pop("config.py")
    assert {"read", "Row", "List", "matrix", "to_matrix"} <= reader
    copies = {f"{name}:{top}" for name, defs in tops.items() for top in defs
              if top.lstrip("_") in reader}
    assert copies == set()


# the README's text of each default that is a function of other fields
_DEPENDENT_DEFAULTS = {"name": "experiment", "checkpoints": "[n_steps]",
                       "ks_threshold": "3/sqrt(replicates)", "law2": "law",
                       "q": "payload size"}


def _shown(row, config):
    """A table row as the README's fields tables give it: its name, and in
    parentheses its default if it has one."""
    if row.default is config.REQUIRED:
        return row.name
    if callable(row.default):
        default = _DEPENDENT_DEFAULTS[row.name]
    elif row.default is None:
        default = "null"
    elif isinstance(row.default, str):
        default = row.default
    else:
        default = f"{row.default:g}".replace("e-0", "e-")
    return f"{row.name} ({default})"


def _readme_table(header):
    """{first cell: the backquoted list in the second} of the README table
    whose first two header cells are header."""
    lines = (SRC.parents[1] / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines)
                 if [c.strip() for c in line.strip().strip("|").split("|")][:2] == header)
    table = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in line.strip("|").split("|")]
        table[cells[0]] = re.fullmatch(r"`([^`]*)`", cells[1]).group(1).split(", ")
    return table


def test_readme_lists_every_field():
    # README's fields tables give every field of every table, and its
    # default, in the tables' order: the families', the axioms checks' and
    # the law kinds'
    from conewalk import config, experiments, radial_laws

    common = experiments._COMMON
    families = {"every family": [_shown(row, config) for row in common]}
    for name, exp in experiments.EXPERIMENTS.items():
        rows = [row for row in exp.fields if row not in common]
        rows += [row for table in getattr(exp, "engine_fields", {}).values() for row in table]
        families[name] = [_shown(row, config) for row in rows]
    assert _readme_table(["experiment", "fields (default)"]) == families
    checks = {name: [_shown(row, config) for row in check.fields]
              for name, check in experiments._CHECKS.items()}
    assert _readme_table(["check", "fields (default)"]) == checks
    laws = {kind: [_shown(row, config) for row in rows]
            for kind, rows in radial_laws._LAWS.items()}
    assert _readme_table(["law kind", "fields (default)"]) == laws


def test_harness_reads_each_family_table():
    # harness.validate_config reads the family's fields table and hands the
    # result to the family's validate: no function of experiments.py reads a
    # family table itself or restates the schema version
    source = (SRC / "experiments.py").read_text()
    found = [node.lineno for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call) and _called_name(node) == "read"
             and any(isinstance(arg, ast.Attribute) and arg.attr == "fields"
                     for arg in node.args)]
    assert found == []
    assert "schema_version" not in source


def test_partials_carry_no_cell():
    # run_experiment groups the partials by their task's cell: in
    # experiments.py only a task is subscripted with "cell"
    found = [node.lineno for node in ast.walk(ast.parse((SRC / "experiments.py").read_text()))
             if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
             and node.slice.value == "cell"
             and not (isinstance(node.value, ast.Name) and node.value.id == "task")]
    assert found == []


def test_one_within_max_se_verdict():
    # every two-sided within-max_se verdict is made by _held; only the
    # one-sided m1-subadditivity bound counts standard errors itself
    found = {getattr(top, "name", top.lineno)
             for top in ast.parse((SRC / "experiments.py").read_text()).body
             for node in ast.walk(top)
             if isinstance(node, ast.Call) and _called_name(node) == "diff_over_se"}
    assert found == {"_held", "_reduce_m1_subadd"}


def test_clt_kinds_named_only_in_limit_lab():
    # each statistic's scope, normalization, limit and regime is its record
    # in limit_lab.CLT: no other module names a kind in a string constant,
    # so none can branch on one; docstrings are prose and are not counted
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "limit_lab.py":
            continue
        tree = ast.parse(path.read_text())
        docs = {id(node.body[0].value) for node in ast.walk(tree)
                if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                and ast.get_docstring(node, clean=False) is not None}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and re.search(r"CLT[1-4]", node.value) and id(node) not in docs]
    assert found == []


def test_q1_draws_take_no_select_or_sine():
    # the q = 1 step's draws run at the speed of the generator: np.where on
    # a random mask mispredicts branches, and numpy has no SIMD loop for
    # float64 sin (it has one for tan and arcsin), so the law's scalar draw
    # and the projection coefficient's call neither
    fns = [node for path in (SRC / "radial_laws.py", SRC / "orbit_sampler.py")
           for node in ast.walk(ast.parse(path.read_text()))
           if isinstance(node, ast.FunctionDef)
           and node.name in ("sample_scalar", "radial_projection_coeff")]
    assert sorted(fn.name for fn in fns) == ["radial_projection_coeff", "sample_scalar"]
    found = [f"{fn.name}:{node.lineno}" for fn in fns for node in ast.walk(fn)
             if isinstance(node, ast.Call) and _called_name(node) in ("where", "sin")]
    assert found == []


def test_each_config_rule_written_once():
    # a config's p >= q refusal is raised by the p reader alone (the
    # walks' own ValueErrors guard direct calls), and the Mardia floor
    # 10 dim^2 and the q = 1 real dimension m = d p are each written in one
    # function of limit_lab, which every other site calls; the one other
    # m = d p is the q = 1 Haar block's own parameter, in the walk sampler
    p_rule, floor, real_dim = set(), set(), set()
    for path in sorted(SRC.rglob("*.py")):
        for top in ast.parse(path.read_text()).body:
            where = f"{path.stem}.{getattr(top, 'name', top.lineno)}"
            for node in ast.walk(top):
                if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) \
                        and _called_name(node.exc) == "ConfigError" \
                        and "p >= q" in ast.unparse(node.exc):
                    p_rule.add(where)
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                    if ast.unparse(node) == "10 * dim * dim":
                        floor.add(where)
                    if isinstance(node.left, ast.Call) and _called_name(node.left) == "field_dim" \
                            and re.search(r"\bp\b", ast.unparse(node.right)):
                        real_dim.add(where)
    assert p_rule == {"experiments._walk_p"}
    assert floor == {"limit_lab.mardia_floor"}
    assert real_dim == {"limit_lab.real_dim", "orbit_sampler.radial_projection_coeff"}


def test_one_way_to_write_each_thing():
    # each public name has one import path, its module's: the package root
    # imports nothing.  A point mass is a one-atom finite_mixture, so no
    # module branches on the point_mass kind.  Compact JSON with sorted keys
    # is written once, config.canonical_json, which hashes a config and
    # keys the law cache.  Moments past float64 are caught once, in
    # experiments._float64_moments
    init = ast.parse((SRC / "__init__.py").read_text())
    assert [node.lineno for node in ast.walk(init)
            if isinstance(node, (ast.Import, ast.ImportFrom))] == []
    assert [ast.unparse(node) for node in init.body[1:]] == ["__version__ = '0.1.0'"]
    point_mass, compact, overflow = [], set(), set()
    for path in sorted(SRC.rglob("*.py")):
        for top in ast.parse(path.read_text()).body:
            where = f"{path.stem}.{getattr(top, 'name', top.lineno)}"
            for node in ast.walk(top):
                if isinstance(node, ast.Compare) and any(
                        isinstance(c, ast.Constant) and c.value == "point_mass"
                        for c in ast.walk(node)):
                    point_mass.append(f"{where}:{node.lineno}")
                if isinstance(node, ast.Call) and _called_name(node) == "dumps" \
                        and any(kw.arg == "separators" for kw in node.keywords):
                    compact.add(where)
                if isinstance(node, ast.ExceptHandler) and node.type is not None \
                        and "OverflowError" in ast.unparse(node.type):
                    overflow.add(where)
    assert point_mass == []
    assert compact == {"config.canonical_json"}
    assert overflow == {"experiments._float64_moments"}
