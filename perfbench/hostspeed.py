"""A fixed reference walk that measures how fast the host is right now.

The benchmark's host shares its cores and memory with other machines.
On the host it was defined on, the simulator's speed moved by up to
1.7x within a minute, in epochs of several seconds.  The contention
hits code with a large working set hardest: in one trial, a small
L1-resident loop varied by 17% while the simulator varied by 60%.

:class:`HostSpeed` walks a 16 MiB table in a scattered order, with a
small heap and dict, in pure Python, independent of ``repro``.  Timed
between the points of a serial rep, its walk time tracked the
simulator's slowdowns with a correlation of 0.96.  Dividing each
stretch of measured wall time by the walk time at its ends therefore
cancels most of the host's contention.  Rates are then reported in
host seconds at the reference speed: seconds as they would read on a
host where the walk takes :data:`REFERENCE_S`.  A change to ``repro``
does not alter the walk, so its effect on the rates is kept whole.

Set-up time is mostly interpreter start and imports, which the walk
tracks poorly (a correlation of about 0.5 on the same host).
:func:`start_time` times a fresh isolated interpreter importing a fixed
set of standard-library modules instead; set-up times divided by it
tracked with a correlation of about 0.8, and are reported at
:data:`REFERENCE_START_S`.
"""

from __future__ import annotations

import heapq
import subprocess
import sys
import time
from array import array

#: Walk time, in seconds, of the reference host speed (a little faster
#: than the quietest walk seen on the host the benchmark was defined on).
REFERENCE_S = 0.030
_SIZE = 1 << 21  # doubles: 16 MiB, beyond the per-core caches
_STEPS = 30_000
#: Start time, in seconds, of the reference process at the reference
#: host speed (a little faster than the quickest seen on the defining
#: host).
REFERENCE_START_S = 0.100
_START_PROBE = (
    "import sys, time\n"
    "spawned_at = float(sys.argv[1])\n"
    "import argparse, concurrent.futures, dataclasses, decimal, "
    "email.parser, hashlib, heapq, inspect, json, logging, "
    "multiprocessing, random, statistics, tempfile, typing, unittest, "
    "xml.dom.minidom\n"
    "print(time.monotonic() - spawned_at)\n")


def start_time(timeout: float) -> float:
    """Seconds from spawning an isolated interpreter to the end of its
    fixed standard-library imports (``time.monotonic`` is one clock for
    every process of the machine)."""
    spawned_at = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-I", "-c", _START_PROBE, repr(spawned_at)],
        capture_output=True, text=True, check=True, timeout=timeout)
    return float(done.stdout)


class HostSpeed:
    """The reference walk; build it after any memory measurement."""

    def __init__(self):
        self.table = array("d", range(_SIZE))

    def measure(self) -> float:
        """Wall time of one walk, in seconds."""
        table, mask = self.table, _SIZE - 1
        index, total = 1, 0.0
        heap: list = []
        seen: dict = {}
        start = time.monotonic()
        for step in range(_STEPS):
            index = (index * 1103515245 + 12345) & mask
            value = table[index]
            total += value
            heapq.heappush(heap, (value, step))
            if len(heap) > 256:
                heapq.heappop(heap)
            seen[index & 1023] = total
        return time.monotonic() - start
