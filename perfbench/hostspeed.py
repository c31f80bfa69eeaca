"""Host-speed probe: a fixed reference computation timed next to the program.

On a shared host, core speed moves with other tenants' load (by 20-30 %
between seconds on a 2-core cloud VM): a program's wall and CPU times
move with it.
The probe runs :func:`reference` (fixed code that never changes with the
program) every :data:`GAP_S` seconds in its own process, pinned to the
core the system under test is pinned to, and records its CPU time.  The
benchmark rescales every measured interval to a nominal core on which
the reference takes :data:`NOMINAL_S` seconds: :func:`speed` over the
interval is how much faster than nominal the core ran, so a CPU time
``t`` measured there counts as ``t * speed`` nominal seconds.

    python3 perfbench/hostspeed.py

runs the probe until SIGTERM, then prints its samples as one JSON list
of ``[start, cpu_s]`` pairs (``start`` on ``time.perf_counter``, which is
the system-wide monotonic clock, so it compares with other processes').
"""

from __future__ import annotations

import bisect
import json
import os
import signal
import statistics
import sys
import time

import numpy as np

#: Seconds between two reference runs (~8 % of the pinned core).
GAP_S = 0.05
#: CPU seconds the reference takes on the nominal core.
NOMINAL_S = 0.004
#: Fewest samples a speed is taken from; shorter intervals are widened.
MIN_SAMPLES = 9

_DATA = np.random.default_rng(0).normal(size=(2, 30000))


def reference() -> int:
    """Interpreter and numpy work in about the program's proportions."""
    total = 0
    for i in range(20000):
        total += i * i % 7
    for row in _DATA:
        np.sort(row)
        np.fft.rfft(row)
        np.cumsum(row)
    return total


def speed(samples: list, lo: float, hi: float) -> float:
    """``NOMINAL_S`` over the median reference CPU time of the samples
    started in ``[lo, hi)``, widened symmetrically to at least
    :data:`MIN_SAMPLES` samples."""
    starts = [s[0] for s in samples]
    i, j = bisect.bisect_left(starts, lo), bisect.bisect_left(starts, hi)
    while j - i < MIN_SAMPLES and (i > 0 or j < len(samples)):
        i, j = max(0, i - 1), min(len(samples), j + 1)
    if i == j:
        raise ValueError("no host-speed samples")
    return NOMINAL_S / statistics.median(s[1] for s in samples[i:j])


class Probe:
    """The probe process of one benchmark run, pinned to ``cores``."""

    def __init__(self, cores: set[int]) -> None:
        import sut

        self._proc = sut.Process(
            [os.path.abspath(__file__)], sut.sut_env(), "hostspeed.log", cores
        )
        self._samples: list | None = None

    def speed(self, lo: float, hi: float) -> float:
        """:func:`speed` over ``[lo, hi)``; the first call stops the probe,
        so call it only once the run's measuring is over."""
        if self._samples is None:
            self._proc.proc.send_signal(signal.SIGTERM)
            self._samples = json.loads(self._proc.finish(timeout=30))
        return speed(self._samples, lo, hi)


def main() -> int:
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    samples = []
    while not stop:
        start = time.perf_counter()
        cpu = time.thread_time()
        reference()
        samples.append((start, time.thread_time() - cpu))
        time.sleep(GAP_S)
    print(json.dumps(samples), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
