"""repeat.py's verdict: spread, quartile distance and shift, each against its limit."""

import repeat

TIMING = {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.15}
MEMORY = {"name": "bytes_per_key", "unit": "B", "better": "lower", "bound": 0.02}


def test_a_tight_set_passes_and_is_steady():
    values = [100.0, 101.0, 102.0, 103.0, 104.0]
    row = repeat.judge(TIMING, values, values)
    assert row["ok"] and row["steady"]
    assert row["spread"] == 4.0 / 102.0 and row["shift"] == 0.0


def test_one_outlier_fails_the_spread_even_when_the_quartiles_agree():
    values = [100.0, 100.5, 101.0, 101.5, 115.0]
    row = repeat.judge(TIMING, values, values)
    assert row["iqr"] < 0.15 and row["spread"] > repeat.SPREAD_LIMIT and not row["ok"]


def test_a_worse_second_median_fails_by_direction():
    first = [100.0, 101.0, 102.0, 103.0, 104.0]
    slower = [value * 0.8 for value in first]
    assert not repeat.judge(TIMING, first, slower)["ok"]  # throughput fell by 20 %
    faster = [value * 1.2 for value in first]
    assert repeat.judge(TIMING, first, faster)["ok"]  # better is never a failure


def test_a_memory_metric_is_held_to_its_own_bound():
    values = [20.0, 20.1, 20.2, 20.3, 20.9]
    row = repeat.judge(MEMORY, values, values)
    assert row["limit"] == 0.02 and not row["ok"]
