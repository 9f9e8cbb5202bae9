"""Speed normalisation: a fixed calibration quantum interleaved with the work.

Each vCPU of the reference box (a 2-vCPU sandbox) flips, on its own,
between a fast and a slow regime — the same loop takes 4.5 ms or 7.5 ms —
for tens of milliseconds to seconds at a time (the quantum's duration is
still 0.5 correlated with itself 100 ms later, 0.3 after 250 ms); the two
vCPUs are only 0.3 correlated with each other.  That is far more than any
bound this benchmark gates on, so

* every process of the benchmark is **pinned to one vCPU** (:func:`pin`)
  and a phase is normalised by quanta run *in the process that does the
  work*: a quantum describes only the vCPU it ran on;
* a measured phase is cut into many short *slices* of equal op count with
  a few quanta in every gap between them, so work and calibration sample
  the regimes in the same proportion, and

      normalised time = raw time of the slices * CALIB_NOMINAL_S
                        / mean duration of the phase's quanta

  (a ratio of sums; dividing slice by slice by a two-quantum estimate is
  no steadier and biased by that estimate's own noise);
* a set-up, whose build is one opaque call, is sampled by a second thread
  while it runs (:class:`Staged`).

A latency quantile is taken per slice, divided by the *local* factor
(quanta of the three gaps either side), and the median over slices is
reported, so a regime switch inside one slice cannot move it.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple, TypeVar

T = TypeVar("T")

#: Mean quantum on the reference box in its fast regime, seconds.
CALIB_NOMINAL_S = 0.0046

#: Quanta run in each gap between two slices of a phase.
QUANTA_PER_GAP = 2

#: Pause between two quanta sampled while a set-up stage runs.
SAMPLE_INTERVAL_S = 0.02

#: Share of a phase's ops run before the first measured slice.
WARMUP_SHARE = 1.0 / 11.0

#: Gaps either side of a slice whose quanta make its local factor.
LOCAL_GAPS = 3

#: A slice whose neighbouring gaps disagree by more than this had a
#: regime switch inside it; counted in ``driver.calib_unstable_segments``.
UNSTABLE_GAP_RATIO = 0.25


def pin(slot: int) -> None:
    """Pin this process to one of the vCPUs it may use: ``slot`` 0 is the
    first (the server child), -1 the last (the driver, or an in-process
    workload).  With a single vCPU there is nothing to separate."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) > 1:
        os.sched_setaffinity(0, {cpus[slot]})


def quantum() -> int:
    """The fixed pure-Python work unit (its result is returned so it is used):
    20 000 dict-store + multiply-mod iterations, a 1 024-element sort, a bisect."""
    table = {}
    x = 1
    for i in range(20_000):
        x = (x * 1103515245 + 12345) % 2147483648
        table[i & 1023] = x
    ordered = sorted(table.values())
    return bisect.bisect_left(ordered, x)


def quanta(count: int) -> List[float]:
    """Durations of ``count`` back-to-back quanta, in seconds."""
    clock = time.perf_counter
    samples = []
    for _ in range(count):
        started = clock()
        quantum()
        samples.append(clock() - started)
    return samples


def factor_of(samples: Sequence[float]) -> float:
    """How much slower than the reference the box ran while ``samples`` were taken."""
    return statistics.fmean(samples) / CALIB_NOMINAL_S


def split(lo: int, hi: int, parts: int) -> List[Tuple[int, int]]:
    """``[lo, hi)`` cut into ``parts`` contiguous ranges of near-equal size."""
    total = hi - lo
    edges = [lo + total * i // parts for i in range(parts + 1)]
    return list(zip(edges[:-1], edges[1:]))


def phase_bounds(lo: int, hi: int, slices: int) -> List[Tuple[int, int]]:
    """The warm-up range followed by ``slices`` measured ranges over ``[lo, hi)``."""
    warm = lo + max(1, int((hi - lo) * WARMUP_SHARE))
    return [(lo, warm)] + split(warm, hi, slices)


@dataclass
class Phase:
    """What one measured phase recorded: slice timings and the gaps' quanta."""

    bounds: List[Tuple[int, int]]  # measured slices only
    elapsed: List[float]
    gaps: List[List[float]] = field(default_factory=list)  # len(bounds) + 1

    @property
    def ops(self) -> int:
        return sum(hi - lo for lo, hi in self.bounds)

    @property
    def raw_seconds(self) -> float:
        return sum(self.elapsed)

    @property
    def quantum_mean(self) -> float:
        return statistics.fmean(sample for gap in self.gaps for sample in gap)

    @property
    def factor(self) -> float:
        """How much slower than the reference the box ran during this phase."""
        return self.quantum_mean / CALIB_NOMINAL_S

    @property
    def normalised_seconds(self) -> float:
        return self.raw_seconds / self.factor

    def local_factor(self, index: int) -> float:
        """The factor around slice ``index`` alone."""
        window = self.gaps[max(0, index + 1 - LOCAL_GAPS) : index + 1 + LOCAL_GAPS]
        return factor_of([sample for gap in window for sample in gap])

    @property
    def unstable_slices(self) -> int:
        count = 0
        for index in range(len(self.bounds)):
            before = statistics.fmean(self.gaps[index])
            after = statistics.fmean(self.gaps[index + 1])
            if abs(after - before) > UNSTABLE_GAP_RATIO * min(before, after):
                count += 1
        return count

    def quantile_ms(
        self,
        latencies: Sequence[float],
        kinds: Sequence[int],
        kind: int,
        q: float,
        unscaled: float = 0.0,
    ) -> Tuple[float, int]:
        """Median over slices of each slice's normalised ``q``-quantile latency, in ms.

        ``latencies[i]`` is op ``i``'s latency in seconds and ``kinds[i]``
        its kind; only ops of ``kind`` are counted.  ``unscaled`` seconds of
        every sample are a timer, which no CPU speeds up: only the rest is
        divided by the factor.  Returns the value and the number of samples
        behind it.
        """
        per_slice = []
        samples = 0
        for index, (lo, hi) in enumerate(self.bounds):
            chosen = sorted(latencies[i] for i in range(lo, hi) if kinds[i] == kind)
            if not chosen:
                continue
            samples += len(chosen)
            value = chosen[min(len(chosen) - 1, int(q * len(chosen)))]
            per_slice.append(unscaled + (value - unscaled) / self.local_factor(index))
        if not per_slice:
            return 0.0, 0
        return statistics.median(per_slice) * 1e3, samples


def measure_phase(
    lo: int,
    hi: int,
    slices: int,
    run_slice: Callable[[int, int], None],
    after_slice: Callable[[int, int], None] = lambda index, done: None,
    after_warmup: Callable[[], None] = lambda: None,
    calibrate: Callable[[int], List[float]] = quanta,
) -> Phase:
    """Run ops ``[lo, hi)``: a warm-up range, then ``slices`` timed slices.

    ``run_slice(lo, hi)`` executes those ops and returns once they have all
    completed.  ``after_warmup()`` and ``after_slice(index, ops_done)`` run
    outside the timed region (server marks, census polls).
    ``calibrate(count)`` runs the quanta of a gap — in this process unless
    another one does the work.
    """
    clock = time.perf_counter
    bounds = phase_bounds(lo, hi, slices)
    run_slice(*bounds[0])
    after_warmup()
    phase = Phase(bounds=bounds[1:], elapsed=[], gaps=[calibrate(QUANTA_PER_GAP)])
    for index, (slice_lo, slice_hi) in enumerate(phase.bounds):
        started = clock()
        run_slice(slice_lo, slice_hi)
        phase.elapsed.append(clock() - started)
        after_slice(index, slice_hi - lo)
        phase.gaps.append(calibrate(QUANTA_PER_GAP))
    return phase


class _Sampler(threading.Thread):
    """Runs one quantum every ``SAMPLE_INTERVAL_S`` while a set-up stage runs.

    The process is pinned to one vCPU, so this thread and the stage take
    turns on it: a quantum's *CPU* time is how fast that vCPU is at that
    moment, whoever holds the interpreter lock in between, and the CPU this
    thread used is exactly what it took away from the stage.
    """

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.samples: List[float] = []
        self._stop_asked = threading.Event()

    def run(self) -> None:
        cpu = time.thread_time
        while True:
            started = cpu()
            quantum()
            self.samples.append(cpu() - started)
            if self._stop_asked.wait(SAMPLE_INTERVAL_S):
                break

    def stop(self) -> None:
        self._stop_asked.set()
        self.join()


class Staged:
    """A set-up timed stage by stage, calibrated *while* each stage runs.

    An index build is one opaque call of a second or so; quanta at its two
    ends say little about the middle (the box's speed is 0.3 correlated
    with itself after 250 ms), and a set-up normalised by them alone
    spread 8-21 % between quartiles.  So a second thread samples the
    quantum all through the stage, and the stage is charged its wall time
    minus the CPU that thread used.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.raw_seconds = 0.0

    def stage(self, work: Callable[[], T]) -> T:
        sampler = _Sampler()
        started = time.perf_counter()
        sampler.start()
        try:
            return work()
        finally:
            sampler.stop()
            self.raw_seconds += time.perf_counter() - started - sum(sampler.samples)
            self.samples += sampler.samples

    @property
    def normalised_seconds(self) -> float:
        return self.raw_seconds / factor_of(self.samples)
