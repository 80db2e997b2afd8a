"""Host-speed calibration for the end-to-end timings.

On a shared machine the speed of the cores drifts by 15-30% over seconds
to minutes, because of the neighbours, and a bare loop shows it too.  A
run therefore times fixed pure-Python reference
passes, owned by the benchmark and touching no brownlab code, beside the
program, in bursts of ``BURST`` passes of each kind: before the first call
of each iteration, before each later call once ``INTERVAL_S`` has passed
since the last burst, and after the last call.  A call's raw time is
scaled by ``NOMINAL_S[kind] / median(passes of that kind in the bursts
just before and just after it)``, which turns it into seconds at the speed
the machine had when ``NOMINAL_S`` was measured.  The passes run between
calls, never inside a timed region.

There are two kinds of pass, because the drift does not slow all code
alike: it slows interpreter-bound code (a tight loop of bytecodes) about
twice as much as code that mostly copies memory.  ``compute`` is the
former, ``memory`` the latter; each workload names the kind that matches
where its time goes.

A change to the program cannot move the reference passes, so a faster
program still reads faster; only the host's own drift cancels.
"""

from __future__ import annotations

import statistics
import time

# Median time of one pass on the machine of bench/baseline.json (2 shared
# vCPUs at 2.1 GHz, Python 3.11.7).  Fixed: changing them rescales every
# end-to-end timing.
NOMINAL_S = {"compute": 0.04, "memory": 0.035}

# Passes of each kind per burst, and the least time between two bursts in
# an iteration.
BURST = 3
INTERVAL_S = 0.25

_TABLE_SIZE = 2048
_BATCH = 64
_COMPUTE_ITEMS = 80_000
_MEMORY_ITEMS = 19_000
_SNAPSHOT_EVERY = 16


def _fold(batch: list) -> int:
    return sum(key ^ value for key, value in batch)


def compute_pass(items: int = _COMPUTE_ITEMS) -> int:
    """Interpreter-bound: integer arithmetic, dict get and set, tuple and
    list allocation, and function calls."""
    table: dict = {}
    batch: list = []
    total = 0
    for i in range(items):
        key = (i * 7919) % _TABLE_SIZE
        table[key] = table.get(key, 0) + 1
        batch.append((key, i))
        if len(batch) == _BATCH:
            total += _fold(batch)
            batch = []
    return total + len(table)


def memory_pass(items: int = _MEMORY_ITEMS) -> int:
    """Copy-bound: a list of small colours grows one at a time and is
    snapshotted into a tuple every few steps, as a deep search keeps its
    best-so-far prefix."""
    values: list = []
    total = 0
    for i in range(items):
        values.append(i % 3)
        if i % _SNAPSHOT_EVERY == 0:
            total += len(tuple(values))
    return total


PASSES = {"compute": compute_pass, "memory": memory_pass}


class Probe:
    """Runs bursts of reference passes of the given kinds."""

    def __init__(self, kinds=("compute",), interval: float = INTERVAL_S,
                 passes: int = BURST):
        self.kinds = tuple(kinds)
        self.interval = interval
        self.passes = passes
        self._last = float("-inf")

    def burst(self) -> dict:
        """Run one burst; return the time of each pass, by kind."""
        times = {}
        for kind in self.kinds:
            run = PASSES[kind]
            times[kind] = []
            for _ in range(self.passes):
                started = time.perf_counter()
                run()
                times[kind].append(time.perf_counter() - started)
        self._last = time.perf_counter()
        return times

    def due(self) -> bool:
        return time.perf_counter() - self._last >= self.interval


def factor(kind: str, samples) -> float:
    """Scale from raw seconds to seconds at reference speed."""
    return NOMINAL_S[kind] / statistics.median(samples)


def factors(bursts) -> dict:
    """Scale factor of each kind from the passes of all the given bursts."""
    return {kind: factor(kind, [t for burst in bursts for t in burst[kind]])
            for kind in bursts[0]}
