"""Byte pin of the benchmark's `cli` workload output.

Builds `bench/workloads.py::Cli` for two seeds, runs its first records
in-process and compares the sha256 of their concatenated stdout with
constants recorded from an earlier build.  The golden transcript covers
chosen cases; this covers the benchmark's own drawn records (long odd
words through `times`, rotated sums through `normalize`, `tderiv`,
`euler`, ...), so a change to the letter order, the rotation choice or
the printer that moves any of those bytes fails here.  A change that means
to alter output, or changes the `cli` generator, regenerates the constants
with `PYTHONPATH=src python tests/test_cli_digest.py` and says so.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

RECORDS = 200

DIGESTS = {
    0: "e9ed59e60f0463d5fcb46ad8cca803ae8f1a8790931746351518e8864555fa1c",
    7: "d61afb0bddf23aad15f5b435f0b83f6d0f4d23aab1d008f4109f8b1ca9e3f068",
}


def cli_digest(seed: int) -> str:
    workload = workloads.Cli(seed)
    stdout = "".join(r.run()[1] for r in itertools.islice(workload.records(), RECORDS))
    return hashlib.sha256(stdout.encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(DIGESTS))
def test_cli_output_bytes(seed):
    assert cli_digest(seed) == DIGESTS[seed]


if __name__ == "__main__":
    for seed in sorted(DIGESTS):
        print(f"    {seed}: \"{cli_digest(seed)}\",")
