"""A clock that reads seconds at a fixed reference speed of the machine.

The 2-core VM this benchmark was built on changes speed by up to 45 %, in
spells that last from under a second to minutes, for all code alike, and
process CPU time slows with it. So while the clock runs, a timer signal
interrupts the benchmark every PERIOD_S seconds (the handler runs on the
one thread, between two bytecodes) and times a short fixed integer loop
that runs no schedcheck code: the probe.
Until the next tick, wall time counts at PROBE_REF_S over the probe's last
time; the probe's own time is left out. `now()` thus reads seconds at the
speed where the probe takes PROBE_REF_S, near the VM's fast spells.

Rounds timed this way vary less than raw ones. In one 100 s test of
`analyze-large` rounds, the coefficient of variation was 4.1 % raw, 7.1 %
scaled by a probe before and after each round, and 2.7 % on this clock.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.1
PROBE_LOOPS = 24_000
PROBE_REF_S = 0.002

perf = _perf = time.perf_counter   # raw wall time
# (reference seconds up to `last`, wall time of the last tick, reference
# seconds per wall second since then): one tuple, so that a tick landing
# inside now() cannot mix two ticks' values
_state = (0.0, _perf(), 1.0)
ticks = 0          # probes taken while the clock ran
probe_s = 0.0      # wall seconds they took


def probe() -> float:
    t = _perf()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return _perf() - t


def _tick(*_) -> None:
    global _state, ticks, probe_s
    t = _perf()
    base, last, factor = _state
    base += (t - last) * factor
    factor = PROBE_REF_S / probe()
    end = _perf()
    _state = (base, end, factor)
    ticks += 1
    probe_s += end - t


def now() -> float:
    base, last, factor = _state
    return base + (_perf() - last) * factor


def start() -> None:
    """Take a first probe and tick every PERIOD_S seconds from now on."""
    _tick()
    signal.signal(signal.SIGALRM, _tick)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)
