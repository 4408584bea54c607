"""The host's current speed, from a fixed reference job.

A shared host's speed drifts by a quarter or more over seconds to
minutes, for interpreter, numpy and LAPACK code alike.  The reference
job below mixes those three kinds of work and does not touch conewalk,
so its time changes only with the host.  ``session.py`` runs it between
the timed configs of a pass and rescales each config's time to the
reference speed:

    reported = measured * REFERENCE_S / (time of the reference job now)

so a reported time reads "seconds on a host that runs the reference job
in REFERENCE_S seconds", and a change to conewalk moves it while a change
in the host's speed largely cancels out.  The host's speed also wobbles
within a second, which no reference job can follow; medians over many
configs and passes average that part out.
"""

from __future__ import annotations

import statistics
import time

# the reference job's time on the host the benchmark was tuned on
# (2-vCPU Xeon VM, numpy 2.4.6, OpenBLAS 0.3.31 at one thread)
REFERENCE_S = 0.065

_PY_LOOP = 250_000
_VEC_ROUNDS = 12
_EIG_ROUNDS = 4


def reference_job() -> float:
    """Seconds the fixed reference job takes now."""
    import numpy as np  # here, so that importing this module leaves set-up untouched

    rng = np.random.Generator(np.random.Philox(20120117))
    start = time.perf_counter()
    total = 0
    for i in range(_PY_LOOP):  # interpreter-bound
        total += i * i
    for _ in range(_VEC_ROUNDS):  # elementwise numpy and RNG draws
        u = rng.random(65536)
        total += float(np.sin(np.arcsin(u) / 3.0).sum())
    for _ in range(_EIG_ROUNDS):  # batched small-matrix LAPACK
        g = rng.standard_normal((4096, 3, 3))
        total += float(np.linalg.eigh(g @ np.swapaxes(g, -1, -2))[0].sum())
    return time.perf_counter() - start


def host_time(rounds: int) -> float:
    """Median of a few reference jobs, after one untimed warm-up."""
    reference_job()
    return statistics.median(reference_job() for _ in range(rounds))


class HostClock:
    """Rescales the time of consecutive timed spans to the reference speed.

    Call ``scale`` right after each span: it runs a reference job and
    divides the span by the mean of the reference jobs just before and
    just after it.  ``restart`` forgets the last job, for when untimed
    work ran since.
    """

    def __init__(self):
        self.jobs: list[float] = []
        self._last: float | None = None

    def restart(self) -> None:
        self._last = None

    def start(self) -> None:
        """Run the reference job before the first span, if not done yet."""
        if self._last is None:
            self._last = host_time(rounds=1)

    def scale(self, seconds: float) -> float:
        after = reference_job()
        self.jobs.append(after)
        host = (self._last + after) / 2.0
        self._last = after
        return seconds * REFERENCE_S / host
