"""Benchmark for cycvar: one seeded workload, timed end to end or traced.

    python3 bench/run.py --workload brackets --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

The library is imported from `src/` next to this directory.  A run builds
its inputs from the seed (set-up), runs one untimed warm-up cycle, then
runs operations back to back (one caller, closed loop) for `--seconds`.
Each result is checked right after its operation, outside the operation's
timer; a wrong or raising operation counts as failed.

With `--trace 0` the run reports the end-to-end metrics; set-up time is the
median of several fresh interpreter launches.  With `--trace 1` the public
functions of each layer are wrapped (see tracing.py), the per-layer metrics
are reported per operation, and the same operations are replayed untraced
to give the tracing overhead.  The last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`;
the lines before it are a readable report.  A run record (and, when
traced, the spans) is written under `bench/runs/`.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import gzip
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "runs"
SETUP_LAUNCHES = 7
# The host switches between a fast and a slow state (about 1.7x apart) many
# times a second, in proportions that drift over minutes.  A fixed block of
# the benchmark's own exact arithmetic (oracle.reference_block) is timed
# every REFERENCE_EVERY_S between operations, and each timing is scaled by
# nominal / (mean of the blocks just before and after it).  The nominal time
# is a typical figure for the block on the 2-vCPU VM (Python 3.11.7) where
# this benchmark was defined.  Unscaled values are in the report and record.
REFERENCE_NOMINAL_S = 0.008
REFERENCE_EVERY_S = 0.1
DIGEST_RECORDS = 200
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
WORKLOAD_NAMES = ("brackets", "hamiltonian", "cli")


def import_library(with_cli: bool) -> float:
    """Import cycvar, and its CLI if asked, from src/; seconds taken."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import cycvar

    if with_cli:
        import cycvar.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    if Path(cycvar.__file__).resolve().parent != (SRC / "cycvar").resolve():
        raise SystemExit(f"error: cycvar was imported from {cycvar.__file__}, not from src/")
    return elapsed


def reference_sample() -> tuple[float, float]:
    """Time one reference block: (midpoint, seconds)."""
    start = time.perf_counter()
    oracle.reference_block()
    end = time.perf_counter()
    return (start + end) / 2, end - start


def scaled(timings: list[tuple[float, float]], reference: list[tuple[float, float]]) -> list[float]:
    """Each (midpoint, seconds) timing scaled to the nominal host speed, by
    the mean of the reference blocks timed just before and just after it."""
    mids = [mid for mid, _ in reference]
    out = []
    for mid, seconds in timings:
        i = bisect.bisect(mids, mid)
        near = [s for _, s in reference[max(0, i - 1): i + 1]]
        out.append(seconds * REFERENCE_NOMINAL_S * len(near) / sum(near))
    return out


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from launching a fresh interpreter to its first operation being
    ready, for SETUP_LAUNCHES launches after one unmeasured warm launch, with
    reference blocks between launches.  Returns (unscaled, scaled)."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-only", "--workload", workload, "--seed", str(seed)]
    launches, reference = [], []
    # the launches and the reference blocks share one CPU, so that the
    # blocks see the state of the CPU the launches run on
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        for launch in range(SETUP_LAUNCHES + 1):
            reference.append(reference_sample())
            start = time.perf_counter()
            with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                try:
                    _, err = proc.communicate(timeout=120)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    raise
            if line.strip() != "ready" or proc.returncode != 0:
                raise RuntimeError(f"set-up launch failed: {err.strip()}")
            if launch:
                launches.append((start + elapsed / 2, elapsed))
        reference.append(reference_sample())
    finally:
        os.sched_setaffinity(0, allowed)
    return [s for _, s in launches], scaled(launches, reference)


def execute(record, tracer=None):
    """Run one operation; an exception is its result.
    Returns (result, start, seconds)."""
    if tracer:
        tracer.begin_op(record.index)
    start = time.perf_counter()
    try:
        result = record.run()
    except Exception as exc:  # a raising operation is a failed operation
        result = exc
    latency = time.perf_counter() - start
    if tracer:
        tracer.end_op()
    return result, start, latency


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = p / 100 * (len(sorted_values) - 1)
    low = int(pos)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (pos - low)


def tail_percentile(n: int, cap: float) -> float:
    """The highest ladder percentile, at most `cap`, with at least ten samples
    beyond it.  The cap keeps the percentile fixed when a faster program
    completes more operations in the same time."""
    for p in LADDER:
        if p <= cap and n * (1 - p / 100) >= 10:
            return p
    return LADDER[-1]


def latency_metrics(seconds: list[float], cap: float) -> dict:
    ms = sorted(1000 * s for s in seconds)
    tail = tail_percentile(len(ms), cap)
    return {
        "ops_per_s": len(ms) / sum(seconds),
        "op_p50_ms": percentile(ms, 50),
        "op_tail_ms": percentile(ms, tail),
        "tail_percentile": tail,
    }


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_determinism(workload, kept) -> dict:
    """Rebuild the workload from the same seed: the input text must be the
    same, and for cli the machine output of the first records must be the
    same bytes."""
    fresh = type(workload)(workload.seed)
    records = [r for r, _ in kept]
    again = list(itertools.islice(fresh.records(), len(records)))
    text = workload.text + "\n".join(r.text for r in records)
    text_again = fresh.text + "\n".join(r.text for r in again)
    out = {"input_sha256": digest(text), "input_same": text == text_again, "records": len(records)}
    if workload.name == "cli":
        stdout = lambda result: result[1] if isinstance(result, tuple) else repr(result)
        first = "".join(stdout(result) for _, result in kept)
        second = "".join(stdout(execute(r)[0]) for r in again)
        out.update(output_sha256=digest(first), output_same=first == second)
    return out


def judge(workload, record, result, results: dict) -> str | None:
    """None when an operation's result is right, else why it is not."""
    if isinstance(result, Exception):
        return f"raised {type(result).__name__}: {result}"
    try:
        return workload.check(record, result, results)
    except Exception as exc:  # the checker crashing on a result fails it
        return f"check raised {type(exc).__name__}: {exc}"


def run(args) -> int:
    import_s = import_library(args.workload == "cli" or args.trace == 1)
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    stream = workload.records()
    if args.setup_only:
        next(stream)
        print("ready", flush=True)
        return 0
    setup_raw, setup_scaled = ([], []) if args.trace else measure_setup(args.workload, args.seed)

    failures, kept, traced = [], [], []
    previous: dict = {}

    def fail(record, reason):
        failures.append({"index": record.index, "kind": record.kind, "input": record.text, "reason": reason})

    def settle(record, result):
        """Check one result outside its operation's timer; keep only the
        previous result and the first DIGEST_RECORDS ones."""
        reason = judge(workload, record, result, previous)
        if reason:
            fail(record, reason)
        previous.clear()
        previous[record.index] = result
        if len(kept) < DIGEST_RECORDS:
            kept.append((record, result))

    for record in itertools.islice(stream, workload.cycle_length):
        settle(record, execute(record)[0])
    warmup = workload.cycle_length

    gc.collect()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    timings, reference = [], [reference_sample()]
    deadline = time.perf_counter() + args.seconds
    try:
        while time.perf_counter() < deadline:
            record = next(stream)
            result, start, latency = execute(record, tracer)
            timings.append((start + latency / 2, latency))
            if tracer:
                # checks would be traced too, so a traced run checks afterwards
                traced.append((record, result))
                continue
            settle(record, result)
            if time.perf_counter() - reference[-1][0] >= REFERENCE_EVERY_S:
                reference.append(reference_sample())
    finally:
        if tracer:
            tracer.restore()
    reference.append(reference_sample())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies = [s for _, s in timings]

    report = {}
    if tracer:
        replay = []
        for record, result in traced:
            settle(record, result)
            again, _, latency = execute(record)
            replay.append(latency)
            if again != result:
                fail(record, "traced and untraced results differ")
        overhead = sum(latencies) / sum(replay)
        layer = tracer.metrics(len(latencies), sum(latencies), import_s, overhead)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
        report["spans"] = len(tracer.spans)
    determinism = check_determinism(workload, kept)
    if not determinism["input_same"] or not determinism.get("output_same", True):
        failures.append({"index": -1, "kind": "determinism", "input": "", "reason": "same seed, different bytes"})

    n = len(latencies)
    attempted = warmup + n
    failed = len({f["index"] for f in failures})
    raw = latency_metrics(latencies, workload.tail_percentile)
    end_to_end = latency_metrics(scaled(timings, reference), workload.tail_percentile)
    tail_p = end_to_end.pop("tail_percentile")
    raw.pop("tail_percentile")
    raw["setup_s"] = statistics.median(setup_raw) if setup_raw else None
    end_to_end["peak_rss_mb"] = peak_rss_mb
    end_to_end["setup_s"] = statistics.median(setup_scaled) if setup_scaled else None
    units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
    if not tracer:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in units.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines(),
        "import_s": import_s,
        "warmup_ops": warmup,
        "timed_ops": n,
        "tail_percentile": tail_p,
        "tail_samples_beyond": round(n * (1 - tail_p / 100)),
        "fail_frac": failed / attempted,
        "setup_launches_s": setup_raw,
        "reference_blocks": len(reference),
        "reference_mean_s": statistics.mean(s for _, s in reference),
        "reference_nominal_s": REFERENCE_NOMINAL_S,
        "unscaled": raw,
        "determinism": determinism,
        "failures": failures[:20],
        "metrics": metrics,
        **report,
    }
    RUNS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RUNS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        with gzip.open(RUNS / f"{stem}-spans.jsonl.gz", "wt") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  python {record['python']}  nproc {record['nproc']}"
          f"  src lines {record['src_lines']}")
    print(f"operations: {warmup} warm-up + {n} timed, {failed} failed; tail is p{tail_p:g}"
          f" with {record['tail_samples_beyond']} samples beyond it")
    print(f"determinism: input sha256 {determinism['input_sha256'][:16]}"
          + (f", cli output sha256 {determinism['output_sha256'][:16]}" if "output_sha256" in determinism else ""))
    if tracer:
        print(f"traced: {len(tracer.spans)} spans; tracing overhead {overhead:.3f}x")
        for name, entry in metrics.items():
            print(f"  {name:<42} {entry['value']:14.6g} {entry['unit']}")
    else:
        print(f"host speed: reference block {1000 * record['reference_mean_s']:.2f} ms mean against"
              f" {1000 * REFERENCE_NOMINAL_S:.2f} ms nominal; timings are scaled to nominal")
        for name, unit in units.items():
            unscaled = f"  (unscaled {raw[name]:.6g})" if name in raw else ""
            print(f"  {name:<12} {end_to_end[name]:14.6g} {unit}{unscaled}")
        print(f"  {'fail_frac':<12} {record['fail_frac']:14.6g} ratio")
    for failure in failures[:5]:
        print(f"FAILED {failure['kind']} #{failure['index']}: {failure['reason']}  [{failure['input'][:120]}]")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of all metrics."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        print(proc.stdout, end="")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    first = results[WORKLOAD_NAMES[0]]["metrics"]
    print(f"{'metric':<42}" + "".join(f"{w:>14}" for w in WORKLOAD_NAMES) + "  unit")
    for name in first:
        row = [results[w]["metrics"][name]["value"] for w in WORKLOAD_NAMES]
        print(f"{name:<42}" + "".join(f"{v:14.6g}" for v in row) + f"  {first[name]['unit']}")
    fail = [results[w]["failed"] / results[w]["attempted"] for w in WORKLOAD_NAMES]
    print(f"{'fail_frac':<42}" + "".join(f"{v:14.6g}" for v in fail) + "  ratio")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "cycvar" / "__init__.py").is_file():
        print(f"error: no cycvar package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
