"""Measurement substrate: operation counters and the calibrated cost model.

Pure Python cannot exhibit the paper's nanosecond-scale memory-layout
effects, so every index in this reproduction counts the *structural* work
it performs (node visits per encoding, migrations, sampling events) in an
:class:`~repro.sim.counters.OpCounters`, and the
:class:`~repro.sim.costmodel.CostModel` converts those counters into
modeled nanoseconds using per-event costs calibrated against the paper's
own measurements (Tables 1-2, Figures 3, 5, 6, 9).  Wall-clock timings
are measured separately (``benchmarks/e2e/run.py``,
``benchmarks/bench_perf_suite.py``).
"""

from repro.sim.costmodel import CostModel, StorageDevice, storage_access_latency_us
from repro.sim.counters import OpCounters

__all__ = ["CostModel", "OpCounters", "StorageDevice", "storage_access_latency_us"]
