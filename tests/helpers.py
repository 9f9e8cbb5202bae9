"""Helpers shared by the suites that import ``benchmarks/*.py``."""

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
