"""Kernel table: single layers timed from outside at 8192-element batches.

Each row calls conewalk's public functions (or numpy's Philox generator)
directly, repeats the call and keeps the median.  The rows reproduce the
baseline table of ROADMAP item 1; ``ROADMAP_BASELINE`` holds its numbers
so that rows more than 2x away can be flagged.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from conewalk import cone_linalg as cl
from conewalk.bessel import BesselParam, sample_contraction
from conewalk.orbit_sampler import GroupWalkConfig, radial_projection_coeff, run_group_walks
from conewalk.radial_laws import RadialLaw

BATCH = 8192

# name -> (unit, ROADMAP item 1 baseline in that unit)
ROADMAP_BASELINE = {
    "kernel.polar_step.q1_c08_p5": ("us", 430.0),
    "kernel.polar_step.q1_c10_p3": ("us", 351.0),
    "kernel.radial_projection_coeff.p5": ("ns", 19.0),
    "kernel.clamp_psd_psd_sqrt.q2_real": ("ms", 22.6),
    "kernel.clamp_psd_psd_sqrt.q3_real": ("ms", 62.5),
    "kernel.sample_contraction.q3_real_mu3.8": ("ms", 1030.0),
    "kernel.sample_contraction.q2_complex_mu4.3": ("ms", 53.0),
    "kernel.philox.uniform": ("ns", 11.0),
    "kernel.philox.normal": ("ns", 25.0),
}


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _polar_step_us(law: RadialLaw, p: int, seed: int) -> float:
    steps = 64
    cfg = GroupWalkConfig(p=p, q=1, field=cl.REAL, n_steps=steps, law=law,
                          checkpoints=(steps,), method="polar")
    rng = _rng(seed)
    return _median_time(lambda: run_group_walks(cfg, rng, BATCH), 5) / steps * 1e6


def _psd_batch(q: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((BATCH, q + 2, q))
    return np.swapaxes(g, -1, -2) @ g


def run(seed: int) -> dict:
    """Kernel rows as {name: {"value", "unit"}}, measured with tracing off."""
    rng = _rng(seed)
    rows = {
        "kernel.polar_step.q1_c08_p5": _polar_step_us(
            RadialLaw.two_point(1.0, 2.0, 0.5), 5, seed),
        "kernel.polar_step.q1_c10_p3": _polar_step_us(
            RadialLaw.log_normal(0.0, 1.0), 3, seed),
        "kernel.radial_projection_coeff.p5": _median_time(
            lambda: radial_projection_coeff(5, cl.REAL, rng, BATCH * 16), 9)
        / (BATCH * 16) * 1e9,
    }
    for q in (2, 3):
        a = _psd_batch(q, rng)
        rows[f"kernel.clamp_psd_psd_sqrt.q{q}_real"] = _median_time(
            lambda: cl.psd_sqrt(cl.clamp_psd(a)), 7) * 1e3
    for name, param, repeats in (
            ("kernel.sample_contraction.q3_real_mu3.8", BesselParam(3.8, 3, 1), 3),
            ("kernel.sample_contraction.q2_complex_mu4.3", BesselParam(4.3, 2, 2), 7)):
        rows[name] = _median_time(lambda: sample_contraction(param, rng, BATCH), repeats) * 1e3
    reps = 64
    rows["kernel.philox.uniform"] = _median_time(
        lambda: [rng.random(BATCH) for _ in range(reps)], 9) / (reps * BATCH) * 1e9
    rows["kernel.philox.normal"] = _median_time(
        lambda: [rng.standard_normal(BATCH) for _ in range(reps)], 9) / (reps * BATCH) * 1e9
    return {name: {"value": val, "unit": ROADMAP_BASELINE[name][0]}
            for name, val in rows.items()}


def off_baseline(rows: dict) -> list[str]:
    """Rows that differ from ROADMAP item 1's numbers by more than 2x."""
    notes = []
    for name, row in rows.items():
        base = ROADMAP_BASELINE[name][1]
        ratio = row["value"] / base
        if ratio > 2.0 or ratio < 0.5:
            notes.append(f"{name}: {row['value']:.4g} {row['unit']} vs ROADMAP "
                         f"{base:g} ({ratio:.2f}x)")
    return notes
