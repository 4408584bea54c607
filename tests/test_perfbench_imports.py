"""The benchmark's imports from conewalk resolve in the package.

perfbench/ imports conewalk's functions by name, at module level and
inside functions.  A change that moves or deletes one of them fails here,
not in the benchmark run.  The layer names that perfbench/spans.py traces
are strings, not imports, and are not checked here.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _conewalk_imports():
    """(file:line, module, name) of every name perfbench imports from conewalk."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "conewalk":
                for alias in node.names:
                    yield f"{path.name}:{node.lineno}", node.module, alias.name


def _resolves(module: str, name: str) -> bool:
    """Whether ``from module import name`` finds name: a member, or a
    submodule of a package."""
    mod = importlib.import_module(module)
    return hasattr(mod, name) or (hasattr(mod, "__path__")
                                  and importlib.util.find_spec(f"{module}.{name}") is not None)


def test_perfbench_imports_resolve():
    imports = list(_conewalk_imports())
    assert {(module, name) for _, module, name in imports} >= {
        ("conewalk.radial_laws", "law_from_spec"), ("conewalk.experiments", "law_moments"),
        ("conewalk.harness", "validate_config"), ("conewalk.orbit_sampler", "GroupWalkConfig"),
        ("conewalk.bessel", "sample_contraction")}
    missing = [f"{where}: from {module} import {name}" for where, module, name in imports
               if not _resolves(module, name)]
    assert missing == []
