"""Benchmark of ``blowdown``: one command, end to end or per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  The command prepares the workload's inputs from the seed, runs
whole rounds of it for ``--seconds`` seconds in this one process (no threads,
no pools), checks every output, and prints one JSON object as the last line
of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones and no wrapper is
installed.  With ``--trace 1`` the first half of the time runs untraced, the
second half with the per-layer tracer installed; the metrics are the
per-layer ones plus the tracer's overhead against the untraced half.
Working files go to ``.bench_work/`` in the checkout; the spans of a traced
run and every result are kept under ``.bench_work/traces`` and
``.bench_work/results``.  See bench/README.md.
"""

import os
import time

_T_TOP = time.perf_counter()


def _process_age_s() -> float:
    """Seconds since this process started (kernel start time, 10 ms ticks)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


_AGE_AT_TOP = _process_age_s()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent


def _elapsed_since_start() -> float:
    return _AGE_AT_TOP + (time.perf_counter() - _T_TOP)


def _run(workload, stats, seconds: float, tracer=None):
    t0 = time.perf_counter()
    while True:
        workload.round(stats, tracer)
        if time.perf_counter() - t0 >= seconds:
            return


def _end_to_end(stats, setup_s: float) -> dict:
    samples = stats.samples_ms
    p90 = statistics.quantiles(samples, n=10)[8] if len(samples) > 1 else samples[0]
    return {
        "setup_s": setup_s,
        "op_ms_p50": statistics.median(samples),
        "op_ms_p90": p90,
        "items_per_s": stats.items / stats.busy_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="blowdown benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "blowdown" / "__init__.py").is_file():
        print("bench: run from a blowdown checkout (src/blowdown not found)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH), str(root / "src")]
    from workloads import WORKLOADS, Stats
    from tracer import Tracer
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    base = root / ".bench_work"
    work = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        checks = Stats()
        workload = WORKLOADS[args.workload](work, args.seed)
        workload.setup(checks)
        setup_s = _elapsed_since_start()

        stats = Stats()
        if args.trace:
            _run(workload, stats, args.seconds / 2)
            plain_per_item = stats.busy_s / stats.items
            traced = Stats()
            tracer = Tracer()
            tracer.install()
            try:
                _run(workload, traced, args.seconds / 2, tracer)
            finally:
                tracer.restore()
            tracer.write(base / "traces" / f"{args.workload}-seed{args.seed}.json")
            metrics = tracer.per_layer(len(traced.samples_ms))
            metrics["trace.overhead_pct"] = 100 * (traced.busy_s / traced.items / plain_per_item - 1)
            for key in ("attempted", "failed"):
                setattr(stats, key, getattr(stats, key) + getattr(traced, key))
            stats.errors += traced.errors
        else:
            _run(workload, stats, args.seconds)
            metrics = _end_to_end(stats, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"bench: metrics {sorted(set(units) ^ set(metrics))} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    errors = checks.errors + stats.errors
    for err in errors:
        print(f"bench: check failed: {err}", file=sys.stderr)
    result = {"correct": not errors, "attempted": stats.attempted, "failed": stats.failed,
              "metrics": metrics}
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
