"""Time work in seconds of a reference host, by sampling the host's speed.

The benchmark runs on a few vCPUs of a shared host, and how fast they run
moves with what the host's other tenants do: on a 2-vCPU Xeon, passes of
``dtw-knn`` on unchanged code took 0.91 to 1.94 s within one minute, and
sets of runs taken minutes apart had medians up to 1.56x apart.  Wall time
alone therefore measures the neighbours as much as the program.

While a :class:`HostSpeed` is active, an interval timer (``SIGALRM``) runs
a fixed probe in the timed process every ``INTERVAL_SECONDS``.  The host's
load slows the program's kinds of work by different amounts, so the probe
mixes them: numpy operations on a 150-sample array driven from a Python
loop (a GunPoint exemplar, the classifiers' call pattern), one vectorised
pass over a 128 KiB array (the distance kernels over whole datasets), and
plain interpreter work over dicts, lists and strings with assorted small
numpy calls (the serving layer's bookkeeping).  Timed against the pass
times of ``serving-fleet``, ``dtw-knn`` and ``sweep`` while the host's
speed swung by up to 1.96x, the mix left quartile spreads of 0.041, 0.061
and 0.056, against 0.129, 0.060 and 0.074 for the first two parts alone
and 0.388, 0.137 and 0.096 unscaled.  The probe runs on the same vCPU, at
the same moments, as the work being timed, so it slows down with it.  Each
sample runs the probe once untimed and times a second run: the first run
refills the caches the timed work evicted, so the sample does not depend on
the program's memory footprint (cold probes ran about 25% slower than warm
ones inside ``dtw-knn``).  :meth:`HostSpeed.scale` is ``REFERENCE_SECONDS``
over the samples' mean (their top and bottom tenth dropped, so a probe that
was descheduled does not count).  A time multiplied by that scale is the
time the work would take on a host where the probe takes
``REFERENCE_SECONDS``.

The samples cost about 2% of the timed work and are part of it on every
commit alike.  The probe is the benchmark's own code: no change to the
program can make it faster or slower.
"""

from __future__ import annotations

import json
import signal
import statistics
import time

import numpy as np

__all__ = ["HostSpeed", "REFERENCE_SECONDS"]

#: The probe's duration on the reference host.  The figure is a convention
#: (the probe took about 250 us in a fast phase of a 2-vCPU Xeon's host and
#: up to twice that in a slow one); changing it rescales every reported time.
REFERENCE_SECONDS = 400e-6
INTERVAL_SECONDS = 0.04
#: A unit of work too short for this many timer samples is topped up with
#: probes run right after it.
MIN_SAMPLES = 20
_EXEMPLAR = np.linspace(0.0, 1.0, 150)
_NOISE = np.random.default_rng(0).normal(size=150)
_BLOCK = np.linspace(0.0, 1.0, 16384)
_RECORD = {f"key{index}": index * 0.5 for index in range(64)}
_ITEMS = [(index * 7919) % 1000 for index in range(300)]


def probe() -> float:
    """The fixed work whose duration measures the host's current speed."""
    values, total = _EXEMPLAR, 0.0
    for _ in range(24):
        values = np.abs(values - 0.5) * 1.5
        total += float(values.sum())
    total += float(np.cumsum(_BLOCK * _BLOCK)[-1])

    total += len(json.loads(json.dumps(_RECORD))) + sorted(_ITEMS)[17]
    total += len("".join(f"{key}={value:.3f};" for key, value in _RECORD.items()))
    total += len({key: 2.0 * value for key, value in _RECORD.items() if value > 3.0})
    order = np.argsort(_NOISE)
    total += float(np.cumsum(_NOISE[order])[-1]) + int(np.searchsorted(_NOISE[order], 0.1))
    total += float(np.where(_NOISE > 0.0, _NOISE, 0.0).sum()) + float(np.abs(np.diff(_NOISE)).max())
    centred = (_NOISE - _NOISE.mean()) / _NOISE.std()
    return total + float(np.dot(centred, centred))


def _timed_probe() -> float:
    probe()
    began = time.perf_counter()
    probe()
    return time.perf_counter() - began


class HostSpeed:
    """Sample the host's speed while the ``with`` block runs.

    Only one may be active at a time, and only in the main thread (it owns
    ``SIGALRM`` and the real-time interval timer while it runs).
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def sample(self) -> None:
        """Time one probe now.

        The timer calls this while the ``with`` block runs.  Work that idles
        between bursts (the open loop) calls it right after each burst
        instead, outside any ``with``: timer samples would mostly land on an
        idle vCPU, whose speed is not the one the bursts ran at.
        """
        self.samples.append(_timed_probe())

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "HostSpeed":
        for _ in range(5):
            probe()  # warm the probe's code paths before the first sample
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_SECONDS, INTERVAL_SECONDS)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        while len(self.samples) < MIN_SAMPLES:
            self.samples.append(_timed_probe())

    def scale(self) -> float:
        """Reference-host seconds per second of this host during the block."""
        ordered = sorted(self.samples)
        trim = len(ordered) // 10
        return REFERENCE_SECONDS / statistics.fmean(ordered[trim : len(ordered) - trim])
