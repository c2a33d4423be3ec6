"""The `BENCH_<n>.json` files at the root form one trajectory: each records
one change against its parent, on the three workloads, with the size of
`src/` before and after.  Later readers compare across files, so every file
keeps the same core fields and the line counts chain from one file to the
next."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("brackets", "hamiltonian", "cli")
METRICS = ("ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb", "setup_s")


def _records() -> dict[int, Path]:
    found = {}
    for path in ROOT.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match:
            found[int(match.group(1))] = path
    return dict(sorted(found.items()))


RECORDS = _records()


def _load(n: int) -> dict:
    return json.loads(RECORDS[n].read_text())


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("n", list(RECORDS))
def test_record_fields(n):
    record = _load(n)
    assert record["pr"] == n
    claim = record["claim"]
    if claim is not None:
        assert isinstance(claim["workload"], str) and claim["workload"] in WORKLOADS
        assert isinstance(claim["metric"], str) and claim["metric"] in METRICS
        assert isinstance(claim["met"], bool)
    for workload in WORKLOADS:
        end_to_end = record["workloads"][workload]["end_to_end"]
        for metric in METRICS:
            for side in ("parent", "change"):
                median = end_to_end[metric][side]["median"]
                assert isinstance(median, (int, float)) and median >= 0, (workload, metric, side)
    lines = record["src_lines"]
    assert isinstance(lines["parent"], int) and isinstance(lines["change"], int)


@pytest.mark.parametrize("n", [n for n in RECORDS if n - 1 in RECORDS])
def test_line_counts_chain(n):
    """The change before this one ended at the line count this one starts
    from."""
    assert _load(n - 1)["src_lines"]["change"] == _load(n)["src_lines"]["parent"]


def test_newest_record_counts_this_tree():
    """The newest record's line count is that of the tree it ships with:
    the newlines of `src/cycvar/*.py`, as `cat src/cycvar/*.py | wc -l`
    counts them."""
    lines = sum(path.read_bytes().count(b"\n") for path in (ROOT / "src" / "cycvar").glob("*.py"))
    assert _load(max(RECORDS))["src_lines"]["change"] == lines
