"""Helpers shared across suites: importing ``benchmarks/*.py`` and
counting the Python-level calls of one operation."""

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def load_bench(name):
    """Import ``benchmarks/<name>.py`` under its script-time module name."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(name, REPO_ROOT / "benchmarks" / f"{name}.py")
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # the bench modules ``import benchkit``
    spec.loader.exec_module(module)
    return module


def count_calls(call, batches=1):
    """``call()``'s result and the name of every Python function it
    enters (``sys.setprofile`` ``call`` events), after one warm-up call;
    over ``batches`` consecutive calls, the names of the one that entered
    the most.  A budget counts calls, not time, so a regrown path fails
    on any host."""
    call()
    calls, worst = [], []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    for _ in range(batches):
        calls.clear()
        sys.setprofile(profile)
        try:
            result = call()
        finally:
            sys.setprofile(None)
        if len(calls) > len(worst):
            worst = list(calls)
    return result, worst
