"""Benchmark driver for `polarce`.

    python3 perfbench/run.py --workload paper-train --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
`src/` and the profiles from `configs/`. With `--trace 0` the last line of
standard output is a JSON object with the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics of a traced run. The lines
before it name further figures of the workload, one per line.
`--workload all` runs every workload in a child process of its own.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS thread count, pinned before numpy loads: with 2 threads the paper
# stage-1 batch time was bimodal across processes (123-131 ms in one,
# 176-221 ms in another); with 1 it held at 134-143 ms.
BLAS_THREADS = 1
SETUP_REPEATS = 3                 # set-up runs at least this often
SETUP_SECONDS = 1.0               # and until this much time has passed
MIN_ROUNDS = 3
UNTRACED_SHARE = 0.4              # traced run: share of --seconds run untraced

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("paper-train", "paper-eval", "desk-sweep")


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _rounds(workload, seconds: float, min_rounds: int = MIN_ROUNDS):
    """Repeat the workload's round for `seconds` (and at least min_rounds).

    The first round warms allocator and caches; it is checked and counted
    but its time is left out.
    """
    _, attempted, failed = workload.round()
    times = []
    deadline = time.perf_counter() + seconds
    while len(times) < min_rounds or time.perf_counter() < deadline:
        t, a, f = workload.round()
        times.append(t)
        attempted += a
        failed += f
    return times, attempted, failed


def _run(name: str, seed: int, seconds: int, trace: bool, threads: str) -> int:
    import polarce
    if Path(polarce.__file__).resolve().parent != ROOT / "src" / "polarce":
        return _fail(f"polarce imported from {polarce.__file__}, not from src/")
    import workloads
    from layers import layer_metrics, make_tracer

    cls = workloads.WORKLOADS[name]
    w = cls(ROOT, seed)
    print(f"workload {name} seed {seed} seconds {seconds} trace {int(trace)} "
          f"blas_threads {threads}")
    try:
        if trace:
            tracer = make_tracer()
            tracer.install()
            try:
                w.setup()
            finally:
                tracer.uninstall()
            base, attempted, failed = _rounds(w, UNTRACED_SHARE * seconds)
            tracer.install()
            try:
                traced, a, f = _rounds(w, (1.0 - UNTRACED_SHARE) * seconds)
            finally:
                tracer.uninstall()
            attempted, failed = attempted + a, failed + f
            times = base + traced
        else:
            setups = []
            deadline = time.perf_counter() + SETUP_SECONDS
            while len(setups) < SETUP_REPEATS or time.perf_counter() < deadline:
                w = cls(ROOT, seed)       # frees the previous set-up's state first
                t0 = time.perf_counter()
                w.setup()
                setups.append(time.perf_counter() - t0)
            times, attempted, failed = _rounds(w, seconds)
        try:
            result = w.check()
            correct = True
        except workloads.CheckError as exc:
            print(f"check failed: {exc}")
            result, correct = {"nmse": {}, "report": {}, "info": {}}, False
    finally:
        w.close()

    print(f"rounds {len(times)} attempted {attempted} failed {failed}")
    for key, (value, unit) in result["report"].items():
        print(f"metric {key} {value!r} {unit}")
    if not trace:                         # traced: among the metric lines below
        for key, value in result["nmse"].items():
            print(f"metric nmse.{key} {value!r} ratio")
    for key, value in result["info"].items():
        print(f"info {key} {value}")

    if trace:
        values = layer_metrics(tracer)
        values.update({f"nmse.{k}": v for k, v in result["nmse"].items()})
        overhead = statistics.median(traced) / statistics.median(base) - 1.0
        values["trace.overhead_pct"] = 100.0 * overhead
        print(f"metric round_s.untraced {statistics.median(base)!r} s")
        print(f"metric round_s.traced {statistics.median(traced)!r} s")
        declared = _declared("per_layer")
    else:
        values = {
            "setup_s": statistics.median(setups),
            "round_s": statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = _declared("end_to_end")
    missing = set(declared) - set(values)
    if missing:                           # a declared metric this run cannot give
        print(f"perfbench: no value for {sorted(missing)}", file=sys.stderr)
        correct = False
    metrics = {k: {"value": values.get(k, 0.0), "unit": u} for k, u in declared.items()}
    for key, m in metrics.items():
        print(f"metric {key} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _run_all(seed: int, seconds: int, trace: bool) -> int:
    """Each workload in its own process, so peak RSS belongs to it."""
    summary = {}
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(f"{name}: {line}" for line in lines[:-1]))
        summary[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        code = max(code, proc.returncode)
    print(json.dumps(summary))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        return _fail("--seconds must be at least 1")
    for rel in ("src/polarce/__init__.py", "configs/paper.json", "configs/desk.json",
                "BENCHMARK.json"):
        if not (ROOT / rel).is_file():
            return _fail(f"{rel} not found; run from a source checkout")
    if args.workload == "all":
        return _run_all(args.seed, args.seconds, bool(args.trace))

    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(ROOT / "src"))
    return _run(args.workload, args.seed, args.seconds, bool(args.trace), threads)


if __name__ == "__main__":
    sys.exit(main())
