"""Host-speed probes: rescale measured times to a fixed reference host speed.

The shared hosts this benchmark runs on change speed while it runs: the
same interpreter-bound unit takes anywhere from 1x to 1.8x its fastest time,
in phases lasting seconds to a minute, with process CPU time tracking wall
time (the host runs the work slower; it does not pause it).  A run's wall
time then says more about the neighbours than about the program.

A probe is a small fixed kernel that belongs to the benchmark, not to the
program, so no change to the program moves it.  It is timed before and
after every unit; a unit's time multiplied by ``reference_s / probe time``
(the probe time averaged over the two sides) is the time the unit would have
taken on a host that runs the probe in ``reference_s``.  A change to the
program moves that figure in full; a change in host speed cancels out.

There are two kernels, each resembling the instruction mix of the
workloads it is used on:
- ``interp``: an interpreter loop over 4x4 complex numpy arithmetic and
  small Python lists, like the phase-space, zitter and wave-packet layers;
- ``blas``: a dense symmetric ``eigh`` and a matrix product at the BLAS
  thread count in force, like the ``eriksen`` studies.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

REPEATS = 3                 # kernel timings per probe; the probe reports their median

_A = np.eye(4, dtype=complex) * 0.5 + 0.01j
_V = np.arange(4.0)
_RNG = np.random.default_rng(20030657)
_SYM = _RNG.standard_normal((192, 192))
_SYM = _SYM + _SYM.T
_DENSE = _RNG.standard_normal((256, 256))


def _interp_kernel() -> float:
    acc = 0.0
    for i in range(150):
        b = _A @ _A
        c = np.exp(-0.1j * i) * b + np.outer(_V, _V)
        acc += float(abs(np.trace(c))) + float(np.sqrt(1.0 + i * i))
        acc += sum([x * 1.5 for x in range(8)]) * 1e-9
    return acc


def _blas_kernel() -> float:
    w = np.linalg.eigh(_SYM)[0]
    return float((_DENSE @ _DENSE).sum() + w.sum())


# kind -> (kernel, reference seconds per kernel call).  The reference times
# are the kernels' typical times in the host's fast phase on the 2-vCPU
# Intel Xeon host where the bounds were set (RATIONALE.md), so rescaled
# times there read close to the fast-phase wall times.
KERNELS = {
    "interp": (_interp_kernel, 0.0018),
    "blas": (_blas_kernel, 0.0050),
}


class Probe:
    """Times one kernel on demand and turns pairs of timings into scale factors."""

    def __init__(self, kind: str):
        self.kind = kind
        self.kernel, self.reference_s = KERNELS[kind]
        self.samples: list = []
        self.kernel()                       # first call pays one-off costs

    def __call__(self) -> float:
        """Seconds per kernel call now: the median of ``REPEATS`` timings."""
        times = []
        for _ in range(REPEATS):
            t0 = perf_counter()
            self.kernel()
            times.append(perf_counter() - t0)
        seconds = statistics.median(times)
        self.samples.append(seconds)
        return seconds

    def scale(self, before: float, after: float) -> float:
        """Factor that takes a time measured between two probes to the reference host."""
        return self.reference_s / (0.5 * (before + after))


class ScaledClock:
    """A stopwatch that also keeps the time rescaled to the reference host speed.

    While it runs, a real-time interval timer interrupts the measured code
    every ``interval`` seconds; the handler runs in this thread, between two
    bytecodes, and times ``probe``.  Each stretch of measured time between
    two probes is rescaled by the probes at its two ends.  The probes' own
    time is left out of both totals.  No thread or process is started.
    """

    def __init__(self, probe: Probe, interval: float = 0.25):
        self.probe = probe
        self.interval = interval
        self.seconds = self.rescaled = 0.0
        self._last = self._t0 = None
        self._previous_handler = None

    def _lap(self, *_signal_args) -> None:
        elapsed = perf_counter() - self._t0
        now = self.probe()
        self.seconds += elapsed
        self.rescaled += elapsed * self.probe.scale(self._last, now)
        self._last = now
        self._t0 = perf_counter()

    def __enter__(self) -> "ScaledClock":
        self.seconds = self.rescaled = 0.0
        self._last = self.probe()
        self._previous_handler = signal.signal(signal.SIGALRM, self._lap)
        self._t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._lap()
        signal.signal(signal.SIGALRM, self._previous_handler)
