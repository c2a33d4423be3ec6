"""Byte pins of the benchmark's `cli` workload output and of the machine
`selftest` record.

Builds `bench/workloads.py::Cli` for two seeds, runs its first records
in-process and compares the sha256 of their concatenated stdout with
constants recorded from an earlier build.  The golden transcript covers
chosen cases; this covers the benchmark's own drawn records (long odd
words through `times`, rotated sums through `normalize`, `tderiv`,
`euler`, ...), so a change to the letter order, the rotation choice or
the printer that moves any of those bytes fails here.  A change that means
to alter output, or changes the `cli` generator, regenerates the constants
with `PYTHONPATH=src python tests/test_cli_digest.py` and says so.  The
same holds for the in-process `--output machine selftest` record at seed 0,
whose nine suites cover the whole calculus.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

import cycvar.cli  # noqa: E402

RECORDS = 200

DIGESTS = {
    0: "e9ed59e60f0463d5fcb46ad8cca803ae8f1a8790931746351518e8864555fa1c",
    7: "d61afb0bddf23aad15f5b435f0b83f6d0f4d23aab1d008f4109f8b1ca9e3f068",
}

SELFTEST_DIGEST = "7f89e3da3a9fa88d9129791e3137e92bc81acddf3d9a1e5fc1e3408d4b0ccea4"


def cli_digest(seed: int) -> str:
    workload = workloads.Cli(seed)
    stdout = "".join(r.run()[1] for r in itertools.islice(workload.records(), RECORDS))
    return hashlib.sha256(stdout.encode()).hexdigest()


def selftest_digest() -> str:
    """sha256 of `cycvar --output machine --seed 0 selftest`, run in this
    process; a failing suite (exit 3) fails here."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as done:
        cycvar.cli.main(["--output", "machine", "--seed", "0", "selftest"])
    assert done.value.code == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(DIGESTS))
def test_cli_output_bytes(seed):
    assert cli_digest(seed) == DIGESTS[seed]


def test_selftest_output_bytes():
    assert selftest_digest() == SELFTEST_DIGEST


if __name__ == "__main__":
    for seed in sorted(DIGESTS):
        print(f"    {seed}: \"{cli_digest(seed)}\",")
    print(f"SELFTEST_DIGEST = \"{selftest_digest()}\"")
