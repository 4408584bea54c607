"""The benchmark's imports from conewalk resolve in the package.

perfbench/ imports conewalk's functions by name, at module level and
inside functions.  A change that moves or deletes one of them fails here,
not in the benchmark run.  The layer names that perfbench/spans.py traces
are strings, not imports: test_traced_names_resolve holds them to a list
of the names already gone.
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


def test_tracer_installs_and_restores(tmp_path):
    # perfbench's --trace 1 wraps the package's public functions, each
    # family's four hooks, RadialLaw.sample and sample_scalar and
    # bessel._propose; a run sees them, and uninstall restores every
    # attribute it patched
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    from conewalk import experiments, harness, radial_laws

    owners = [importlib.import_module("conewalk"),
              *(importlib.import_module(f"conewalk.{name}") for name in spans.MODULES),
              radial_laws.RadialLaw, *experiments.EXPERIMENTS.values()]
    before = [dict(vars(owner)) for owner in owners]
    tracer = spans.Tracer(tmp_path)
    tracer.install()
    try:
        assert experiments.law_moments is not before[owners.index(experiments)]["law_moments"]
        law = {"kind": "finite_mixture", "atoms": [[[1.0, 0.0], [0.0, 2.0]],
                                                   [[0.5, 0.1], [0.1, 1.0]]],
               "weights": [0.5, 0.5]}
        cfg, warnings = harness.validate_config(
            {"experiment": "clt-check", "seed": 1, "kind": "CLT4", "engine": "bessel",
             "mu": 50.0, "n_steps": 2, "replicates": 100, "law": law})
        harness.run_experiment(cfg, workers=1, warnings=warnings)
    finally:
        tracer.uninstall()
    changed = [f"{owner.__name__}.{name}" for owner, old in zip(owners, before)
               for name in old.keys() | vars(owner).keys()
               if old.get(name) is not vars(owner).get(name)]
    assert changed == []
    layers = set(spans.layer_totals(tracer.spans))
    assert {"harness.run_experiment", "radial_laws.sample", "limit_lab.normalize_clt",
            *(f"experiments.{hook}" for hook in spans.EXPERIMENT_HOOKS)} <= layers


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_names_resolve():
    # every layer, counted layer and alias that perfbench/spans.py names
    # resolves to a module attribute, a RadialLaw method (radial_laws) or a
    # family hook (experiments), but for the five names whose functions
    # are gone already.  A change that deletes another traced function
    # fails here, where the benchmark would read its layer as 0
    spans = _load_spans()
    from conewalk import experiments, radial_laws

    def resolves(name):
        module, attr = name.split(".", 1)
        return (hasattr(importlib.import_module(f"conewalk.{module}"), attr)
                or (module == "radial_laws" and callable(vars(radial_laws.RadialLaw).get(attr)))
                or (module == "experiments" and attr in spans.EXPERIMENT_HOOKS
                    and all(hasattr(exp, attr) for exp in experiments.EXPERIMENTS.values())))

    names = {*spans.LAYERS, *spans.COUNT_KEYS, *spans._ALIASES, *spans._ALIASES.values()}
    assert sorted(name for name in names if not resolves(name)) == [
        "bessel._sample_contraction_flat", "bessel.convolve_points_scalar",
        "bessel.run_bessel_walks", "cone_linalg.eig_herm", "orbit_sampler.stiefel_block"]
