"""conewalk's benchmark: time to verdict for one workload at one seed.

Usage, from the root of a conewalk source tree:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--record FILE]

The workload's configs are generated from the seed (see workloads.py).
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer self
times and counts of a traced run plus the kernel table.  The line before
it records the environment.  ``--record FILE`` appends the full result
(environment, per-pass times, verdict table) as one JSON line, the input
of compare.py.

Times are reported at a reference host speed: a fixed reference job
(calibration.py) runs between timed configs and rescales them, so that a
shared host's drifting speed largely cancels out.  The times as measured
are printed on standard error and kept by ``--record``.

Every conewalk process runs with BLAS pinned to one thread.  The
benchmark writes only under ``.perfbench_tmp/`` in the working
directory and removes what it wrote before it exits.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import calibration
import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3  # fresh interpreters timed for setup_s, the measuring one included
CHILD_TIMEOUT_S = 170
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# replicate-dump runs through the command line with a two-process pool;
# the other workloads call the harness directly at one worker
ROUTES = {"replicate-dump": ("cli", 2)}


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _session(mode: str, plan_path: Path, tmp: Path, env: dict, tag: str) -> dict:
    result_path = tmp / f"result-{tag}.json"
    subprocess.run([sys.executable, str(HERE / "session.py"), mode, str(plan_path),
                    str(result_path)], env=env, check=True, stdout=sys.stderr,
                   timeout=CHILD_TIMEOUT_S)
    return json.loads(result_path.read_text(encoding="utf-8"))


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, check=False)
    return proc.stdout.strip() or "unknown"


def measure(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    entries = workloads.build(workload, seed)
    tmp_root = root / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_root))
    try:
        route, workers = ROUTES.get(workload, ("harness", 1))
        config_paths = []
        for entry in entries:
            path = tmp / f"{entry['config']['name']}.json"
            path.write_text(json.dumps(entry["config"]), encoding="utf-8")
            config_paths.append(str(path))
        plan = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                "route": route, "workers": workers, "tmp": str(tmp),
                "entries": entries, "config_paths": config_paths}
        plan_path = tmp / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        env = _child_env(root)
        setups = []
        if not trace:
            setups = [_session("setup", plan_path, tmp, env, f"setup{i}")
                      for i in range(SETUP_SAMPLES - 1)]
        result = _session("measure", plan_path, tmp, env, "measure")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(tmp_root.iterdir()):
            tmp_root.rmdir()
    if not trace:
        setups.append(result)
    result["setup_samples"] = [s["setup_s"] for s in setups]
    result["setup_raw_samples"] = [s["setup_raw_s"] for s in setups]
    result["work"] = sum(e["work"] for e in entries)
    result["env"].update(git_commit=_git_commit(root), workload=workload, seed=seed)
    return result


def end_to_end(result: dict) -> dict:
    wall = statistics.median(result["walls"])
    ok = (result["attempted"] - result["failed"]) / result["attempted"]
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "updates_per_s": {"value": result["work"] / wall, "unit": "1/s"},
        "setup_s": {"value": statistics.median(result["setup_samples"]), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        "ok_rate": {"value": ok, "unit": "ratio"},
    }


def per_layer(result: dict) -> dict:
    metrics = {name: {"value": val, "unit": _layer_unit(name)}
               for name, val in result["layers"].items()}
    metrics.update(result["kernels"])
    return metrics


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".yield"):
        return "ratio"
    return "bytes" if name.endswith(".bytes") else "count"


def report(result: dict, metrics: dict, out) -> None:
    """Human-readable summary: metrics, fail rate and the verdict table."""
    print(f"# {result['env']['workload']} seed={result['env']['seed']} "
          f"passes={len(result['walls'])} attempted={result['attempted']} "
          f"failed={result['failed']} "
          f"fail_rate={result['failed'] / result['attempted']:.4g}", file=out)
    print(f"  as measured: pass {statistics.median(result['raw_walls']):.4g} s, "
          f"reference job {statistics.median(result['host_times']):.4g} s "
          f"(reported times are rescaled to its reference time, "
          f"{calibration.REFERENCE_S} s)", file=out)
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}", file=out)
    for v in result["verdicts"]:
        tally = {}
        for c in v["checks"]:
            key = (c["check"], c["pass"], c["expected"])
            tally[key] = tally.get(key, 0) + 1
        got = ", ".join(f"{n}x {check}={'PASS' if ok else 'FAIL'}"
                        f" (expected {'PASS' if exp else 'FAIL'})"
                        for (check, ok, exp), n in tally.items()) or v["error"]
        stats = " ".join(f"{k}={val:.4g}" for k, val in v["stats"].items()
                         if isinstance(val, (int, float)))
        print(f"  verdict {v['name']}: {got} {stats}", file=out)
    for note in result.get("kernel_notes", []):
        print(f"  kernel row more than 2x from ROADMAP: {note}", file=out)
    for err in result["errors"][:5]:
        print(f"  failure: {err}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the full result as a JSON line")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "conewalk" / "__init__.py").is_file():
        print("error: run from the root of a conewalk source tree (no src/conewalk here)",
              file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), root)
    metrics = per_layer(result) if args.trace else end_to_end(result)
    report(result, metrics, sys.stderr)
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"trace": args.trace, "metrics": metrics, **result}) + "\n")
    print(json.dumps({"env": result["env"]}))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
