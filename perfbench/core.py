"""Types shared by `run.py` and the workloads, and the calibration loop."""

from __future__ import annotations

import gc
import random
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Context:
    root: Path  # the checkout
    work: Path  # scratch directory for this workload
    seed: int
    small: bool  # reduced inputs, for the smoke test


# The calibration loop's time on the machine the benchmark was tuned on, when
# that machine was not slowed by other load.  Times are reported scaled to it.
CAL_REF_S = 0.005

# About 10 MB of frozensets of atom tuples, the shape of plankb's states and
# triples, probed in a fixed random order.  Other load on a shared host slows
# memory-bound work most; a loop that stays in cache does not track it.
_CAL_NAMES = ["b{}".format(i) for i in range(200)]
_CAL_PROBES = [
    frozenset((("on", _CAL_NAMES[i % 200], _CAL_NAMES[i // 200]),
               ("clear", _CAL_NAMES[i % 199])))
    for i in range(40_000)]
_CAL_SET = frozenset(_CAL_PROBES)
random.Random(0).shuffle(_CAL_PROBES)
del _CAL_PROBES[30_000:]


def calibrate() -> float:
    """Seconds taken by a fixed loop of set probes over the calibration
    data.  Timed next to each operation, it tells how fast the machine ran
    at that moment."""
    t0 = time.perf_counter()
    hits = 0
    for x in _CAL_PROBES:
        if x in _CAL_SET:
            hits += 1
    return time.perf_counter() - t0


class Ops:
    """Wall time of each operation of a pass, with the phase it belongs to,
    and the calibration loop's time just before each operation.  A garbage
    collection runs, untimed, before the first operation of each phase, so
    that a phase does not pay for collecting what the one before it left."""

    def __init__(self):
        self.times: list[tuple[int, str, float]] = []  # (phase, operation, s)
        self.cal: list[float] = []
        self._phase = None

    @contextmanager
    def op(self, phase: int, name: str):
        if phase != self._phase:
            gc.collect()
            self._phase = phase
        self.cal.append(calibrate())
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.times.append((phase, name, time.perf_counter() - t0))


@dataclass
class PassResult:
    ops: Ops
    work: float  # units of work done in `work_phases`, for work_per_s
    work_phases: tuple[int, ...]
    attempted: int
    failures: list[str] = field(default_factory=list)
    outputs: object = None  # must equal the warm-up pass's outputs
    # Hardware-independent counts (expansions, triples, bytes, pairs...);
    # keys with "[" are per task.
    counts: dict = field(default_factory=dict)

    def phase_s(self, phase: int) -> float:
        return sum(t for p, _, t in self.ops.times if p == phase)


def self_peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def children_peak_rss_kb() -> int:
    """Peak resident set of the largest child process waited for so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
