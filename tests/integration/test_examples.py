"""Smoke tests: every example script imports cleanly and the fast ones run.

The heavier examples (OSM timeline, e-mail tries) are exercised by the
benchmarks; here we check that every script is importable with a ``main``
entry point and actually execute the quick ones end to end.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"
ALL_EXAMPLES = sorted(path.stem for path in EXAMPLES_DIR.glob("*.py"))
FAST_EXAMPLES = ["quickstart"]


def load_module(name):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExampleStructure:
    def test_expected_examples_present(self):
        assert "quickstart" in ALL_EXAMPLES
        assert len(ALL_EXAMPLES) >= 5

    @pytest.mark.parametrize("name", ALL_EXAMPLES)
    def test_importable_with_main(self, name):
        module = load_module(name)
        assert callable(getattr(module, "main", None)), f"{name} lacks main()"

    @pytest.mark.parametrize("name", ALL_EXAMPLES)
    def test_has_module_docstring(self, name):
        module = load_module(name)
        assert module.__doc__ and len(module.__doc__) > 50


class TestFastExamplesRun:
    @pytest.mark.parametrize("name", FAST_EXAMPLES)
    def test_runs_to_completion(self, name):
        completed = subprocess.run(
            [sys.executable, str(EXAMPLES_DIR / f"{name}.py")],
            capture_output=True,
            text=True,
            timeout=240,
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert "done" in completed.stdout.lower()
