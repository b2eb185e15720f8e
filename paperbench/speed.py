"""A clock that reads host seconds at a nominal host speed.

The benchmark's host shares its CPUs: identical work can take 1.8x
longer for seconds at a time, so raw wall clock spreads by 15-25 %
between runs minutes apart.  :class:`SpeedClock` tracks the host's
current speed with a probe: every ``PERIOD_S`` a ``SIGALRM`` handler
times a fixed pure-Python loop (no simulator code, so no change under
test can speed it up).  Each slice of host time between two probes is
divided by the slowdown of those probes relative to
``NOMINAL_PROBE_S``, and :meth:`SpeedClock.now` sums the slices: the
seconds the same work would have taken on a quiet host.  The probe
costs about 1-2 % of the run and touches no simulator state.
"""

from __future__ import annotations

import signal
from time import perf_counter

#: probe duration on a quiet host (the 2-vCPU box the benchmark was
#: defined on); it only sets the scale of the normalised seconds
NOMINAL_PROBE_S = 0.0011
PERIOD_S = 0.1
PROBE_ITERATIONS = 8000


def _probe_loop() -> int:
    table = {}
    items = []
    acc = 0
    for i in range(PROBE_ITERATIONS):
        table[i & 63] = acc
        acc += table.get((i * 7) & 63, 1) & 0xFFFF
        items.append(acc)
    return acc + len(items)


class SpeedClock:
    """Normalised seconds since :meth:`start`, kept current by probes."""

    def __init__(self) -> None:
        self.probes = [NOMINAL_PROBE_S]
        # (normalised seconds at the last probe's end, that end's host
        # time, nominal over last probe duration), replaced in one
        # assignment so a probe firing inside now() never tears a read
        self._state = (0.0, perf_counter(), 1.0)

    def _probe(self, *_signal_args) -> None:
        t0 = perf_counter()
        _probe_loop()
        t1 = perf_counter()
        dur = t1 - t0
        norm, end, _scale = self._state
        norm += (t0 - end) * NOMINAL_PROBE_S * 2 / (self.probes[-1] + dur)
        self._state = (norm, t1, NOMINAL_PROBE_S / dur)
        self.probes.append(dur)

    def start(self) -> None:
        self._probe()
        del self.probes[0]
        self._state = (0.0,) + self._state[1:]
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        norm, end, scale = self._state
        return norm + (perf_counter() - end) * scale

    def slowdown(self) -> float:
        """Median probe duration over the nominal one (1.0 = quiet)."""
        probes = sorted(self.probes)
        return probes[len(probes) // 2] / NOMINAL_PROBE_S
