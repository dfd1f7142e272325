"""Machine-speed calibration for the timed phase.

On a shared host the speed of the same code changes by up to 2x over tens
of seconds, as neighbours come and go. The measuring process therefore runs
a fixed probe kernel between stretches of timed work, and scales each
stretch by how fast the probe ran around it:

    scaled = raw * reference probe time / median(probe times around it)

The reference probe time is the probe's time on the reference machine (a
2-CPU Xeon VM, in its slower state), so scaled times read as seconds there.
The probe shares no code with the program, so a change to the program
never moves it. It is plain numpy in the two kinds of work that set the
program's speed, and the host moves them differently: arithmetic on short
vectors in a Python loop, as in ``matcher.query``, ``load_database`` and
the descriptor code, and passes over an array four times the size of the
L2 cache, which neighbours slow less. Each workload takes the mix whose
ratio to its own work stayed flattest across the host's fast and slow
periods (see README.md).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# seconds of one probe() call without stream passes on the reference machine
REFERENCE_S = 0.0031
# seconds of one pass over the stream array on the reference machine
REFERENCE_STREAM_S = 0.0011

_SHORT = np.arange(64.0)
_stream: np.ndarray | None = None


def probe(stream_passes: int = 0) -> float:
    """One pass of the kernel; returns a value so nothing is optimised away."""
    global _stream
    acc = 0.0
    for i in range(500):
        b = _SHORT * 1.5 + i
        acc += float(np.sqrt((b * b).sum()))
    if stream_passes:
        if _stream is None:
            _stream = np.ones(1 << 20)  # 8 MiB
        for _ in range(stream_passes):
            acc += float(_stream.sum())
    return acc


class Speed:
    """Probe times in run order; each stretch of timed program work lies
    between two consecutive probes."""

    def __init__(self, reps: int, window: int, stream_passes: int = 0) -> None:
        self.reps = reps
        self.window = window
        self.stream_passes = stream_passes
        self.reference_s = REFERENCE_S + stream_passes * REFERENCE_STREAM_S
        self.samples: list[float] = []

    def sample(self) -> int:
        """Time ``reps`` kernel passes and keep their median; returns its index.

        An untimed pass first brings the kernel back into the caches, so the
        probe does not time how much of the cache the program left it.
        """
        probe(self.stream_passes)
        times = []
        for _ in range(self.reps):
            start = time.perf_counter()
            probe(self.stream_passes)
            times.append(time.perf_counter() - start)
        self.samples.append(statistics.median(times))
        return len(self.samples) - 1

    def factor(self, index: int) -> float:
        """Scale for program time that started right after probe ``index``:
        the reference time over the median of the probes from ``window``
        before it to ``window`` after the one that closed it."""
        lo = max(0, index - self.window)
        hi = min(len(self.samples), index + 2 + self.window)
        return self.reference_s / statistics.median(self.samples[lo:hi])
