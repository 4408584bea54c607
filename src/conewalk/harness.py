"""Batch orchestration: config validation, deterministic parallel
execution over replicate blocks, and CSV/JSON persistence.

Determinism contract: a validated config plus master seed fully determines
every emitted data byte.  Work is split into fixed-size replicate blocks,
planned once; each block receives its planned task and draws from its own
counter-based stream keyed by (cell, block, role) under the master seed,
workers may execute blocks in any order, and reduction always runs in
task order.  Worker count and scheduling therefore never change results.
The only nondeterministic output field is "wall_time_s" in the JSON
summary.
"""

from __future__ import annotations

import concurrent.futures
import functools
import hashlib
import json
import math
import multiprocessing
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .experiments import EXPERIMENTS
from .radial_laws import _REQUIRED, _declared, _read, _Row

SCHEMA_VERSION = 1
# the fields that pick a family's table, read before it
_HEAD = (_Row("experiment", str, _REQUIRED, EXPERIMENTS.__contains__,
              f"unknown experiment; expected one of {sorted(EXPERIMENTS)}"),
         _Row("schema_version", int, SCHEMA_VERSION, lambda v: v == SCHEMA_VERSION,
              f"unsupported version; expected {SCHEMA_VERSION}"))


def validate_config(raw: dict) -> tuple[dict, list[str]]:
    """Validate and canonicalize a raw config dict.

    Returns (canonical config, regime warnings).  Canonical configs
    round-trip: validate(canonical) == canonical.
    """
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    head = _read(raw, _HEAD)
    exp = EXPERIMENTS[head["experiment"]]
    cfg, warnings = exp.validate(raw, _read(raw, exp.fields, **head))
    # every field of the family's table is read, and a matrix's null twin is absent
    unknown = set(raw) - set(cfg) - _declared(exp.fields)
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown field")
    return cfg, warnings


def load_config(path: str | Path) -> dict:
    """The JSON object in the file at path; anything else is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError("<path>", f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError("<path>", f"config is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    return raw


def canonical_json(cfg: dict) -> str:
    return json.dumps(cfg, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_json(cfg).encode("utf-8")).hexdigest()


@dataclass
class RunRecord:
    """Everything one experiment run produced."""

    config: dict
    config_sha256: str
    columns: list[str]
    rows: list[list]
    aggregates: dict
    checks: list[dict]
    warnings: list[str]
    wall_time_s: float
    # a walk's replicate CSV rows, step-major text chunks formatted by the
    # blocks that drew them, when it emits replicates
    replicate_text: list[str] | None = None
    plot: dict | None = None

    @property
    def name(self) -> str:
        return self.config["name"]

    @property
    def passed(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def summary(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "experiment": self.config["experiment"],
            "name": self.name,
            "config": self.config,
            "config_sha256": self.config_sha256,
            "seed_scheme": {
                "master_seed": self.config["seed"],
                "block_size": self.config["block_size"],
                "stream": "Philox(SeedSequence(master_seed, spawn_key=(cell, block, role)))",
            },
            "columns": self.columns,
            "n_rows": len(self.rows),
            "aggregates": _jsonable(self.aggregates),
            "checks": _jsonable(self.checks),
            "warnings": list(self.warnings),
            "pass": self.passed,
            "wall_time_s": self.wall_time_s,
        }


def run_experiment(cfg: dict, workers: int = 1,
                   warnings: list[str] | None = None) -> RunRecord:
    """Execute a validated config and reduce block results.

    The config is planned once and each block receives its planned task;
    blocks run in a process pool when workers > 1, whose map returns them
    in task order, so results are identical to the single-process run.
    The family reduces the partials grouped by their task's cell, each
    cell's in task order.
    """
    start = time.perf_counter()
    exp = EXPERIMENTS[cfg["experiment"]]
    tasks = exp.plan(cfg)
    run_block = functools.partial(exp.run_block, cfg)
    if workers <= 1 or len(tasks) <= 1:
        partials = list(map(run_block, tasks))
    else:
        ctx = multiprocessing.get_context("fork")
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(workers, len(tasks)), mp_context=ctx) as pool:
            partials = list(pool.map(run_block, tasks, chunksize=1))
    cells: dict[int, list] = {}
    for task, part in zip(tasks, partials):
        cells.setdefault(task["cell"], []).append(part)
    reduced = exp.reduce(cfg, list(cells.values()))
    return RunRecord(config=cfg, config_sha256=config_hash(cfg), warnings=list(warnings or []),
                     wall_time_s=time.perf_counter() - start, **reduced)


def default_workers() -> int:
    """CONEWALK_WORKERS if set and not empty, else the number of CPUs this
    process may use.  A value that is not an integer >= 1 is a ConfigError."""
    env = os.environ.get("CONEWALK_WORKERS")
    if env:
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ConfigError("CONEWALK_WORKERS", f"must be an integer >= 1, got {env!r}")
        return workers
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask outside Linux
        return os.cpu_count() or 1


# -- output emission ---------------------------------------------------------


def emit_outputs(record: RunRecord, out_dir: str | Path,
                 formats: str = "both") -> list[Path]:
    """Write the record's tables and summary; returns written paths.

    CSV holds the data rows in the documented column order; the JSON
    summary carries the config echo, aggregates and pass/fail results.
    All bytes are deterministic except the wall_time_s summary field.
    """
    if formats not in ("csv", "json", "both"):
        raise ConfigError("format", "must be csv, json or both")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    base = record.name
    if formats in ("csv", "both"):
        path = out_dir / f"{base}.csv"
        _write_csv(path, record.columns, record.rows)
        written.append(path)
        if record.replicate_text is not None:
            path = out_dir / f"{base}.replicates.csv"
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("step,replicate,tr_squared\n")
                fh.writelines(record.replicate_text)
            written.append(path)
        if record.plot is not None:
            path = out_dir / f"{base}.plotdata.csv"
            _write_csv(path, record.plot["columns"], record.plot["rows"])
            written.append(path)
    if formats in ("json", "both"):
        path = out_dir / f"{base}.summary.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record.summary(), fh, sort_keys=True, indent=2, allow_nan=False)
            fh.write("\n")
        written.append(path)
    return written


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return "nan"
    return str(value)


def _write_csv(path: Path, columns, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(v) for v in row) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, np.floating):
        obj = float(obj)
    elif isinstance(obj, np.integer):
        return int(obj)
    elif isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, float) and not math.isfinite(obj):  # not valid JSON
        return None
    return obj
