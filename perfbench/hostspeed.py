"""Host speed probe: turns wall time into reference-speed time.

The shared host this benchmark runs on changes speed by up to 1.8x from one
second to the next, so raw wall time mostly measures the neighbours. While
the end-to-end run measures, an interval timer interrupts it every
``INTERVAL_S`` and runs a fixed probe: one Ed25519 sign and verify and a
short loop of Python dict and sha256 work, the same mix of native crypto and
interpreted code that spchain spends its time in. The probe calls only the
standard library and ``cryptography``, never spchain, so a change to spchain
cannot speed up or slow down the probe.

A measured step (a round, a history read, a ``Simulation`` build) is then
reported as

    (wall time - time spent in probes) * REFERENCE_PROBE_S / median probe time

where the median is over the probes that ran within ``WINDOW_S`` of the
step. That is the time the step would have taken on a host whose probe takes
``REFERENCE_PROBE_S``. A faster or slower spchain changes the step's wall
time and not the probe's, so it moves the reported time by the same share.
"""

from __future__ import annotations

import bisect
import hashlib
import signal
import statistics
import time
from contextlib import contextmanager

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

# probe time of a 2-vCPU x86_64 KVM guest in its fast phase (Python 3.11.7,
# cryptography 48.0.0); reported times are scaled to a host with this probe time
REFERENCE_PROBE_S = 400e-6

# time between probes, and how far before and after a step a probe may run
# and still count towards that step's speed
INTERVAL_S = 0.010
WINDOW_S = 0.010

_KEY = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
_PUBLIC = _KEY.public_key()
_MESSAGE = bytes(range(100))
_SIGNATURE = _KEY.sign(_MESSAGE)
# reused, so that a probe allocates no object the cyclic garbage collector
# counts and does not move its collections within the measured program
_TABLE: dict[int, bytes] = {}


def probe_work() -> None:
    """The fixed work a probe times."""
    _KEY.sign(_MESSAGE)
    _PUBLIC.verify(_SIGNATURE, _MESSAGE)
    for i in range(400):
        _TABLE[i % 37] = hashlib.sha256(b"%d" % i).digest()


class HostSpeed:
    """Probes taken while ``sampling`` is active, in time order."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []

    def probe(self, *_signal_args) -> None:
        start = time.perf_counter()
        probe_work()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)

    @contextmanager
    def sampling(self):
        """Probe every ``INTERVAL_S`` of wall time until the block ends."""
        previous = signal.signal(signal.SIGALRM, self.probe)
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.probe()

    def duration(self, span: tuple[float, float]) -> float:
        """Reference-speed seconds of the step that ran over ``span``."""
        start, end = span
        lo = bisect.bisect_left(self.ends, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if lo >= hi:
            raise ValueError("no probe ran near this step; was it timed outside sampling()?")
        # probes that interrupted the step are not part of its time
        inside = sum(
            max(0.0, min(e, end) - max(s, start))
            for s, e in zip(self.starts[lo:hi], self.ends[lo:hi])
        )
        probe_s = statistics.median(e - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))
        return (end - start - inside) * REFERENCE_PROBE_S / probe_s

    def factor(self) -> float:
        """Median host speed over the whole sampling, against the reference
        (above 1 means slower than the reference)."""
        return statistics.median(e - s for s, e in zip(self.starts, self.ends)) / REFERENCE_PROBE_S
