"""One benchmark process: set-up, timed passes, verdicts, optional trace.

Usage: python3 perfbench/session.py {setup|measure} PLAN.json RESULT.json

``setup`` times a fresh interpreter's set-up (``import conewalk``,
``validate_config`` and ``plan`` of every config, and
``experiments.law_moments`` for every law) and exits.  ``measure`` does
the same set-up, one warm-up pass, then timed passes until the plan's
seconds are spent.  A pass runs every config of the workload through
``run_experiment`` and ``emit_outputs`` (or ``cli.main`` for the
``cli`` route) and is timed from the first call to the last emitted
byte.  With tracing on, half the seconds go to untraced passes, then the
kernel table runs, then the other half goes to traced passes.

Every reported time is rescaled to the reference host speed of
``calibration.py``: set-up by the reference jobs run right after it, and
each config of a pass by the reference jobs run just before and just
after it (the pass time is the sum over its configs and leaves the
reference jobs out).  The measured times and reference-job times are
kept alongside.

The entry point ``run.py`` starts this script with BLAS pinned to one
thread and ``src`` on the import path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibration

MIN_PASSES = 3
SETUP_LAYERS = ("experiments.validate", "experiments.plan", "radial_laws.moments")
# summary aggregates recorded in the verdict table
STAT_KEYS = ("ks_distance", "sup_chi2_distance", "slope", "max_diff_over_se",
             "mardia_skew_pvalue", "mardia_kurt_pvalue")


def _laws(cfg: dict) -> list[dict]:
    specs = [cfg[k] for k in ("law", "law2") if k in cfg]
    for check in cfg.get("checks", []):
        specs += [check[k] for k in ("law", "law2") if k in check]
    return specs


def set_up(plan: dict) -> list[tuple[dict, list]]:
    """Validate and plan every config and warm the law-moment cache."""
    from conewalk.experiments import EXPERIMENTS, law_moments
    from conewalk.harness import validate_config
    from conewalk.radial_laws import law_from_spec

    prepared = []
    for entry in plan["entries"]:
        cfg, warnings = validate_config(entry["config"])
        EXPERIMENTS[cfg["experiment"]].plan(cfg)
        for spec in _laws(cfg):
            law_moments(law_from_spec(spec))
        prepared.append((cfg, warnings))
    return prepared


def run_pass(plan: dict, prepared: list, out_dir: Path,
             clock: calibration.HostClock) -> tuple[float, float, list]:
    """Run every config once.

    Returns (measured seconds, seconds at the reference host speed,
    errors by config).
    """
    from conewalk import cli
    from conewalk.harness import emit_outputs, run_experiment

    errors = [None] * len(prepared)
    raw = scaled = 0.0
    clock.start()
    for i, (cfg, warnings) in enumerate(prepared):
        start = time.perf_counter()
        try:
            if plan["route"] == "cli":
                argv = [cfg["experiment"], "--config", plan["config_paths"][i],
                        "--workers", str(plan["workers"]), "--out", str(out_dir),
                        "--format", "both"]
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                if code not in (0, 4):
                    errors[i] = f"exit code {code}"
            else:
                record = run_experiment(cfg, workers=plan["workers"], warnings=warnings)
                emit_outputs(record, out_dir, formats="both")
        except Exception:  # a failed config is counted, the pass goes on
            errors[i] = traceback.format_exc()
        wall = time.perf_counter() - start
        raw += wall
        scaled += clock.scale(wall)
    return raw, scaled, errors


def judge(plan: dict, prepared: list, out_dir: Path, errors: list) -> list[dict]:
    """Verdicts, key statistics and output digest of each config in a pass."""
    outcomes = []
    for (cfg, _), entry, error in zip(prepared, plan["entries"], errors):
        name = cfg["name"]
        out = {"name": name, "error": error, "checks": [], "stats": {}, "digest": None}
        summary_path = out_dir / f"{name}.summary.json"
        if error is None and summary_path.is_file():
            summary = json.loads(summary_path.read_text(encoding="utf-8"))
            summary.pop("wall_time_s")
            out["checks"] = [{"check": c["check"], "pass": c["pass"],
                              "expected": entry["expected"].get(c["check"])}
                             for c in summary["checks"]]
            out["stats"] = {k: summary["aggregates"][k] for k in STAT_KEYS
                            if k in summary["aggregates"]}
            digest = hashlib.sha256(json.dumps(summary, sort_keys=True).encode())
            for path in sorted(out_dir.glob(f"{name}.*")):
                if path != summary_path:
                    digest.update(path.name.encode())
                    digest.update(path.read_bytes())
            out["digest"] = digest.hexdigest()
        elif error is None:
            out["error"] = "no summary written"
        outcomes.append(out)
    return outcomes


def failed(outcome: dict, reference: dict) -> bool:
    """A config run fails if it raised, if a check missed its expected
    verdict, or if its output bytes differ from the first run's."""
    return (outcome["error"] is not None
            or not outcome["checks"]
            or any(c["pass"] != c["expected"] for c in outcome["checks"])
            or outcome["digest"] != reference["digest"])


class Passes:
    """Runs passes in fresh output directories and keeps the tallies."""

    def __init__(self, plan: dict, prepared: list, tmp: Path):
        self.plan, self.prepared, self.tmp = plan, prepared, tmp
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.reference: list[dict] | None = None
        self.errors: list[str] = []
        self.raw_walls: list[float] = []
        self.clock = calibration.HostClock()

    def run(self) -> float:
        """One pass; returns its time at the reference host speed."""
        out_dir = self.tmp / f"out-{self.count}"
        out_dir.mkdir()
        self.count += 1
        raw, wall, errors = run_pass(self.plan, self.prepared, out_dir, self.clock)
        self.raw_walls.append(raw)
        outcomes = judge(self.plan, self.prepared, out_dir, errors)
        shutil.rmtree(out_dir)
        if self.reference is None:
            self.reference = outcomes
        for outcome, ref in zip(outcomes, self.reference):
            self.attempted += 1
            if failed(outcome, ref):
                self.failed += 1
                self.errors.append(f"{outcome['name']}: {outcome['error'] or outcome['checks']}")
        return wall

    def run_for(self, seconds: float) -> list[float]:
        walls = []
        deadline = time.perf_counter() + seconds
        while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
            walls.append(self.run())
        return walls


def _median_index(walls: list[float]) -> int:
    order = sorted(range(len(walls)), key=walls.__getitem__)
    return order[(len(order) - 1) // 2]


def trace_run(plan: dict, tmp: Path, result: dict) -> None:
    """Set-up and passes with the tracer on; fills result["layers"]."""
    import kernels
    from spans import Tracer, layer_metrics, layer_totals, merge_totals

    spool = tmp / "spool"
    spool.mkdir()
    tracer = Tracer(spool)
    # set-up traces only its own layers, so each one's self time is its
    # whole set-up cost (the wishart_root law's Monte Carlo moments
    # would otherwise land in the sampler and eigensolver layers)
    tracer.install(SETUP_LAYERS)
    start = time.perf_counter()
    prepared = set_up(plan)
    setup_wall = time.perf_counter() - start
    tracer.uninstall()
    setup_totals = layer_totals(tracer.spans)

    passes = Passes(plan, prepared, tmp)
    passes.run()  # warm-up
    half = plan["seconds"] / 2.0
    plain = passes.run_for(half)
    result["kernels"] = kernels.run(plan["seed"])
    result["kernel_notes"] = kernels.off_baseline(result["kernels"])

    passes.clock.restart()  # the kernel table ran since the last reference job
    first_traced = len(passes.raw_walls)
    traced, totals = [], []
    tracer.install()
    deadline = time.perf_counter() + half
    while len(traced) < MIN_PASSES or time.perf_counter() < deadline:
        tracer.reset()
        traced.append(passes.run())
        totals.append(tracer.collect())
    tracer.uninstall()

    # span times are as measured, so the median pass's own wall is too
    pick = _median_index(traced)
    parent, workers = totals[pick]
    own = merge_totals(merge_totals({}, setup_totals), parent)
    raw_pass = passes.raw_walls[first_traced + pick]
    unattributed = setup_wall + raw_pass - sum(a["self_s"] for a in own.values())
    layers = layer_metrics(merge_totals(own, workers))
    layers["unattributed.self_s"] = unattributed
    layers["trace_overhead_s"] = statistics.median(traced) - statistics.median(plain)
    result.update(layers=layers, walls=plain, traced_walls=traced,
                  raw_walls=passes.raw_walls[1:first_traced], host_times=passes.clock.jobs,
                  attempted=passes.attempted, failed=passes.failed,
                  errors=passes.errors, verdicts=passes.reference)


def measure_run(plan: dict, prepared: list, tmp: Path, result: dict) -> None:
    passes = Passes(plan, prepared, tmp)
    passes.run()  # warm-up: lazy imports, first-touch pages, reference digests
    result.update(walls=passes.run_for(plan["seconds"]), raw_walls=passes.raw_walls[1:],
                  host_times=passes.clock.jobs, attempted=passes.attempted,
                  failed=passes.failed, errors=passes.errors, verdicts=passes.reference)


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import ctypes

    import numpy as np

    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv: list[str]) -> int:
    mode, plan_path, result_path = argv
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    tmp = Path(plan["tmp"])
    result: dict = {}
    if mode == "measure" and plan["trace"]:
        trace_run(plan, tmp, result)
    else:
        start = time.perf_counter()
        prepared = set_up(plan)  # its imports load conewalk: part of set-up
        raw = time.perf_counter() - start
        host = calibration.host_time(rounds=5)
        result.update(setup_s=raw * calibration.REFERENCE_S / host, setup_raw_s=raw,
                      setup_host_s=host)
        if mode == "measure":
            measure_run(plan, prepared, tmp, result)
    if mode == "measure":
        result["env"] = environment()
        usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        result["peak_rss_mb"] = usage / 1024.0
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
