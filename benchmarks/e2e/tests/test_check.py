"""The checker must catch a wrong reply, and run.py must exit non-zero on one."""

import subprocess
import sys
from pathlib import Path

import check
import opstream
from opstream import GET, PUT, SCAN

RUN = Path(__file__).resolve().parents[1] / "run.py"


def small_index_case():
    pairs = [(key, opstream.value_of(key)) for key in (0, 4, 8, 12, 16)]
    stream = opstream.IndexStream([GET, PUT, SCAN, GET], [8, 5, 4, 5])
    model = check.Model(pairs, [5])
    right = [
        opstream.value_of(8),
        True,
        [(k, opstream.value_of(k)) for k in (4, 5, 8, 12, 16)],
        opstream.value_of(5),
    ]
    return stream, model, right


def test_right_replies_pass():
    stream, model, right = small_index_case()
    verdict = check.Verdict()
    check.check_index(stream, right, model, verdict, insert_value=opstream.value_of)
    assert (verdict.attempted, verdict.failed) == (4, 0)


def test_a_wrong_value_an_unordered_scan_and_a_corrupt_expectation_fail():
    for position, wrong in ((0, 123), (2, [(8, 1), (4, 2)])):
        stream, model, replies = small_index_case()
        replies[position] = wrong
        verdict = check.Verdict()
        check.check_index(stream, replies, model, verdict, insert_value=opstream.value_of)
        assert verdict.failed == 1 and f"op {position}" in verdict.examples[0]
    stream, model, right = small_index_case()
    verdict = check.Verdict()
    check.check_index(stream, right, model, verdict, corrupt=3, insert_value=opstream.value_of)
    assert verdict.failed == 1


def test_scan_skips_keys_not_born_yet():
    model = check.Model([(0, 1), (8, 2)], later_keys=[4])
    assert model.scan(0, 5) == [(0, 1), (8, 2)]
    model.values[4] = 9
    assert model.scan(1, 5) == [(4, 9), (8, 2)]


def test_verify_failure_is_counted():
    verdict = check.Verdict()

    def broken():
        raise ValueError("leaf links broken")

    verdict.run_verify("Tree", broken)
    assert verdict.failed == 1 and "leaf links broken" in verdict.examples[0]


def test_run_exits_non_zero_on_a_corrupted_expectation():
    command = [sys.executable, str(RUN), "--workload", "btree_adapt", "--smoke", "--seed", "3"]
    good = subprocess.run(command, capture_output=True, text=True)
    assert good.returncode == 0, good.stderr
    bad = subprocess.run(command + ["--corrupt", "700"], capture_output=True, text=True)
    assert bad.returncode == 1
    assert '"correct": false' in bad.stdout.splitlines()[-1]
    assert "WRONG: op 700" in bad.stdout
