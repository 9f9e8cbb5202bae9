"""What ``run.py --smoke`` emits is exactly what BENCHMARK.json declares."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_is_inside_the_contract(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec["paths"] == ["benchmarks/e2e"] and spec["command"][-1].startswith(spec["paths"][0])
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.fullmatch(name) for name in names)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.15  # the contract allows 0.25, the issue 0.15
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    # 4 + 22 runs per workload must fit in 3420 s: under 30 s a run.
    assert (4 + 22 * len(spec["workloads"])) * 30 <= 3420
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_smoke_emits_exactly_the_declared_names(spec, tmp_path):
    """All five workloads, untraced and traced, in under 90 s."""
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--smoke", "--seed", "5", "--json", str(out)],
        capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(out.read_text())
    assert result["correct"] and result["failed"] == 0
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    computed = set()
    for workload in (w["name"] for w in spec["workloads"]):
        emitted = {
            name.split("/", 1)[1]: entry
            for name, entry in result["metrics"].items()
            if name.startswith(workload + "/")
        }
        # One result line carries every end-to-end metric, the other every
        # per-layer metric, with the declared units and nothing else.
        assert set(emitted) == set(end_to_end) | set(per_layer), workload
        for name, entry in emitted.items():
            assert entry["unit"] == {**end_to_end, **per_layer}[name]
            assert isinstance(entry["value"], (int, float))
        assert all(emitted[name]["value"] > 0 for name in end_to_end), workload
        computed.update(result["computed"][f"{workload}/1"])
    # Every declared layer is really measured on at least one workload.
    assert computed == set(per_layer)
