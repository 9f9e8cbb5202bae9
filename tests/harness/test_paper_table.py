"""The committed ``BENCH_PAPER.json`` against the table that writes it
(``benchmarks/bench_paper.py``) and the document that cites it."""

import json
import re

from tests.helpers import REPO_ROOT, load_bench

benchkit = load_bench("benchkit")
PAPER = load_bench("bench_paper").PAPER

#: The only committed rows without a bound: measured context a figure's
#: text cites but that no shape requires.
INFORMATIONAL = ["fig20.phase2_compactions"]

CITATION = re.compile(r"`([a-z0-9-]+)\.\*`")  # `fig15.*`
UNCHECKED = re.compile(r"unchecked\W+\w.{15,}")  # "unchecked: <a reason>"


def committed():
    return benchkit.load(REPO_ROOT / "BENCH_PAPER.json")


def prefix(entry):
    return entry["metric"].split(".")[0]


def test_every_committed_row_is_bounded_and_holds():
    rows = committed()["headline"]
    assert benchkit.check(rows) == []
    assert [entry["metric"] for entry in rows if entry["op"] is None] == INFORMATIONAL
    metrics = [entry["metric"] for entry in rows]
    assert len(set(metrics)) == len(metrics)


def test_committed_file_was_written_by_the_table_as_it_stands():
    payload = committed()
    assert list(dict.fromkeys(map(prefix, payload["headline"]))) == list(PAPER)
    # A change to the sizes a figure is judged at needs a fresh --write.
    table = {name: figure.kwargs for name, figure in PAPER.items()}
    assert payload["judged_at"] == json.loads(json.dumps(table))


def test_rows_that_run_real_threads_carry_bounds_not_equalities():
    threaded = [entry for entry in committed()["headline"] if prefix(entry) == "fig18"]
    assert threaded and all(entry["op"] in (">=", "<=") for entry in threaded)


def test_every_shape_verdict_in_experiments_md_is_a_row_set_or_says_unchecked():
    text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
    prefixes = set(map(prefix, committed()["headline"]))
    assert set(CITATION.findall(text)) <= prefixes  # no citation of rows that do not exist
    sections = re.split(r"^## ", text, flags=re.M)[1:]
    judged = [part for part in sections if part.startswith(("Figure", "Table"))]
    assert len(judged) >= 17
    for section in judged:
        title = section.splitlines()[0]
        assert CITATION.search(section) or UNCHECKED.search(section), (
            f"EXPERIMENTS.md section {title!r} cites no `<figure>.*` rows of "
            "BENCH_PAPER.json and does not say 'unchecked: <reason>'"
        )
    # The reverse: a figure with rows is a figure the document discusses.
    assert prefixes <= set(CITATION.findall(text))
