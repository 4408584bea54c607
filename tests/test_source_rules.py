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


def test_eigh_only_in_cone_linalg():
    # cone_linalg._eigh, a Jacobi solver over the whole stack, is the
    # package's one eigensolver: no module, cone_linalg included, calls or
    # imports an eigh (LAPACK makes one call per matrix)
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if (isinstance(node, ast.Attribute) and node.attr == "eigh")
             or (isinstance(node, ast.ImportFrom)
                 and any(alias.name == "eigh" for alias in node.names))]
    assert found == []


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


def test_one_inverse_root_caller():
    # every walk draws v through the one Haar-block sampler, the only
    # place an inverse square root is taken
    found = [f"{path.name}:{getattr(top, 'name', top.lineno)}"
             for path in sorted(SRC.rglob("*.py"))
             for top in ast.parse(path.read_text()).body
             for node in ast.walk(top)
             if isinstance(node, ast.Call) and _called_name(node) == "psd_inv_sqrt"]
    assert found == ["orbit_sampler.py:haar_block"]


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


def test_one_frame_construction():
    # a Haar frame is QR with the R-diagonal phase made positive, built in
    # one place: sample_stiefel_frame is the only caller of np.linalg.qr
    found = [f"{path.name}:{getattr(top, 'name', top.lineno)}"
             for path in sorted(SRC.rglob("*.py"))
             for top in ast.parse(path.read_text()).body
             for node in ast.walk(top)
             if isinstance(node, ast.Call) and _called_name(node) == "qr"]
    assert found == ["orbit_sampler.py:sample_stiefel_frame"]


def test_cone_step_has_no_matmul_operator():
    # at q = 2 the cone step's products are written out, as matmul makes
    # one BLAS call per 2 x 2 matrix; other q call np.matmul by name
    tree = ast.parse((SRC / "cone_linalg.py").read_text())
    step = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "cone_step")
    found = [node.lineno for node in ast.walk(step) if isinstance(node, ast.MatMult)]
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
