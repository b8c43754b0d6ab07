"""Benchmark of the sublorentz package: four workloads, timed end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
``src/``.  With ``--trace 0`` it reports the end-to-end metrics: the median
set-up time of several fresh interpreters, then throughput, request latency,
result quality and peak memory of one measuring process.  With ``--trace 1``
it reports per-layer metrics from spans around the package's public
functions, plus the tracing overhead.  Every metric is printed by name with
its unit; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of the run
(result digest, failure reasons, machine, versions, per-layer call counts)
goes to ``.bench_out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import per_layer_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("verdict-sweep", "solve-solvable", "solve-cover", "loop-witness")

SETUP_RUNS = 7
# a run must end within 180 s; the first process may meet cold file caches
WARM_UP_TIMEOUT_S = 30.0
SETUP_TIMEOUT_S = 5.0
MEASURE_TIMEOUT_S = 110.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_tail_ms": "ms",
    "quality_ratio": "ratio",
    "peak_rss_mb": "MB",
}

#: Thread pools pinned for the child processes only.
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in PINNED:
        env[var] = "1"
    return env


def run_child(args: list[str], timeout: float) -> tuple[dict, float]:
    """Run ``bench/child.py`` to completion; return its JSON result and wall time."""
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out after {timeout:.0f} s: {' '.join(args)}") from exc
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"child exited with status {proc.returncode}: {' '.join(args)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"child printed no result: {' '.join(args)}")
    return json.loads(lines[-1]), wall


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    return proc.stdout.strip()


def machine() -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_revision": git_revision(),
        "pinned_threads": {var: "1" for var in PINNED},
    }


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    setup_times: list[float] = []
    setup_walls: list[float] = []
    digests = set()

    def set_up(times: int) -> None:
        for _ in range(times):
            res, wall = run_child(common + ["--setup-only"], SETUP_TIMEOUT_S)
            setup_times.append(res["setup_s"])
            setup_walls.append(wall)
            digests.add(res["inputs_digest"])

    if trace == 0:
        run_child(common + ["--setup-only"], WARM_UP_TIMEOUT_S)  # untimed: writes bytecode caches
        # half of the set-ups before the measurement and half after, so that
        # they sample two moments of a host whose speed varies over seconds
        set_up(SETUP_RUNS // 2)
    extra = ["--spans-out", str(OUT_DIR / f"spans-{workload}.npz")] if trace else []
    res, _ = run_child(common + ["--seconds", str(seconds), "--trace", str(trace), *extra],
                       MEASURE_TIMEOUT_S)
    digests.add(res["inputs_digest"])
    if trace == 0:
        set_up(SETUP_RUNS - SETUP_RUNS // 2)
    if len(digests) != 1:
        res["failures"]["inputs-differ"] = 1
        res["incorrect"] += 1
    if trace == 0:
        res["metrics"]["setup_s"] = statistics.median(setup_times)
        res["setup_runs_s"] = setup_times
        res["setup_process_walls_s"] = setup_walls
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sublorentz" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        res = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        units = per_layer_units()
    else:
        units = END_TO_END_UNITS
    metrics = {name: {"value": res["metrics"][name], "unit": unit} for name, unit in units.items()}
    failed = sum(res["failures"].values())
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine(), **{k: v for k, v in res.items() if k != "metrics"},
        "failed": failed, "failed_ratio": failed / res["attempted"], "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        tail = res["tail_percentile"]
        print(f"latencies: median of {res['rounds']} rounds for each of {res['inputs']} inputs; "
              + (f"request_tail_ms is their p{tail:g}" if tail is not None
                 else "request_tail_ms is their maximum (too few inputs for a percentile)"))
    print(f"failed_ratio = {failed}/{res['attempted']}"
          + (f" ({', '.join(f'{k}: {v}' for k, v in sorted(res['failures'].items()))})" if failed else ""))
    print(f"result digest of the first round {res['digest']}, {res['rounds']} rounds")
    print(json.dumps({
        "correct": res["incorrect"] == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
