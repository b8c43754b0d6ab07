"""One benchmark process: set up a workload, then optionally run and measure it.

    python3 bench/child.py --workload NAME --seed N [--seconds S --trace 0|1] [--setup-only]

``bench/run.py`` starts this with ``PYTHONPATH=src`` and BLAS/OpenMP pinned
to one thread, and reads the JSON object it prints as its last line.
Exit status 3 means the tracer did not bind or a declared span did not fire.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up time counts from here, before any import

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from calibration import REFERENCE_KERNEL_S, ReferenceClock, time_kernel  # noqa: E402
from stats import Tally, median, percentile, tail_percentile  # noqa: E402
from tracing import SPANS, TIME_UNITS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Failure reasons that mean an output was wrong, not merely missing.
INCORRECT = {"oracle-mismatch", "endpoint-error", "above-bound", "too-short",
             "loop-not-closed", "exit-code", "nondeterministic"}

#: Untraced runs repeat their round at least this often, for per-input medians.
MIN_ROUNDS = 3

_STEPS = ("longarc.SemidirectModel.step", "longarc.CoverModel.step", "longarc.QuaternionModel.step")
_ANTI_NORM = "longarc.AntiNorm.__call__"
_MAXIMIZE = "longarc.maximize"


class BindingError(RuntimeError):
    pass


class Runner:
    """Runs rounds of one workload and keeps what the metrics need.

    Latencies are in reference seconds (see ``calibration``), one list per
    input with one entry per round.
    """

    def __init__(self, workload, inputs, tracer=None):
        self.w = workload
        self.inputs = inputs
        self.tracer = tracer
        self.clock = ReferenceClock()
        self.tally = Tally()
        self.intervals: list[tuple[int, float, float]] = []
        self.round_digests: list[str] = []
        self.round_times: list[float] = []
        self.wall_round_times: list[float] = []
        self.latencies: list[list[float]] = [[] for _ in inputs]
        self.work: list[float] = []
        self.quality: list[float] = []
        self.evaluations = 0
        self.step_slots = 0
        self.controls = 0
        self.output_bytes = 0
        self.requests = 0

    def _timed(self, i: int, inp):
        t0 = time.perf_counter()
        result = self.w.request(inp)
        t1 = time.perf_counter()
        self.intervals.append((i, t0, t1))
        return result, t1 - t0

    def round(self) -> None:
        first = not self.round_digests
        digest = hashlib.sha256()
        wall = 0.0
        for i, inp in enumerate(self.inputs):
            if self.tracer is None:
                result, dt = self._timed(i, inp)
            else:
                with self.tracer.request_span():
                    result, dt = self._timed(i, inp)
            reason, quality = self.w.check(inp, result)
            self.tally.record(reason)
            wall += dt
            text = result.text.encode()
            digest.update(text)
            if first:
                self.work.append(result.work)
                self.quality.append(quality)
            self.evaluations += result.evaluations
            self.step_slots += result.step_slots
            self.controls += result.controls
            self.output_bytes += len(text)
            self.requests += 1
        self.round_digests.append(digest.hexdigest())
        self.wall_round_times.append(wall)

    def run_for(self, seconds: float, min_rounds: int) -> None:
        """Rounds until the next one would end after ``seconds``, but at least ``min_rounds``."""
        with self.clock:
            t0 = time.perf_counter()
            while True:
                self.round()
                elapsed = time.perf_counter() - t0
                n = len(self.round_digests)
                if n >= min_rounds and elapsed * (n + 1) / n > seconds:
                    break
        for i, a, b in self.intervals:
            self.latencies[i].append(self.clock.reference(a, b))
        self.round_times = [sum(lat[k] for lat in self.latencies) for k in range(n)]

    def record_determinism(self, reference: str) -> None:
        for d in self.round_digests:
            if d != reference:
                self.tally.reasons["nondeterministic"] += 1


def end_to_end(r: Runner) -> dict:
    """Metrics over each input's median reference latency across rounds.

    Rounds repeat the same inputs, so the median per input discards the odd
    round that the calibration did not straighten out, and the spread across
    inputs is what the workload's input mix makes of the program.
    """
    typical = [median(lat) for lat in r.latencies]
    p_tail = tail_percentile(len(typical))
    return {
        "throughput_per_s": sum(r.work) / sum(typical),
        "request_p50_ms": percentile(typical, 50.0) * 1e3,
        "request_tail_ms": (percentile(typical, p_tail) if p_tail is not None else max(typical)) * 1e3,
        "quality_ratio": float(np.mean(r.quality)),
    }


def per_layer(r: Runner, untraced: Runner, tracer: Tracer, layers: dict) -> tuple[dict, dict]:
    """Per-layer metrics of the traced runner ``r``, times in reference seconds.

    Span times are scaled by the mean kernel speed over the traced rounds,
    which follows the host's state less closely than the per-request scaling
    of the end-to-end metrics.
    """
    speed = REFERENCE_KERNEL_S * len(r.clock.durations) / sum(r.clock.durations)
    layers = {name: {"calls": v["calls"], "self_s": v["self_s"] * speed, "incl_s": v["incl_s"] * speed}
              for name, v in layers.items()}
    n = r.requests
    out = {}
    for span in SPANS:
        calls = layers[span]["calls"]
        out[f"{span}.calls"] = calls / n
        suffix, _, scale = TIME_UNITS.get(span, ("self_us", "us", 1e6))
        out[f"{span}.{suffix}"] = layers[span]["self_s"] / calls * scale if calls else 0.0

    a = tracer.arrays()
    names = tracer.names
    has_parent = a["parent"] >= 0
    parent_name = np.full(len(a["parent"]), -1)
    parent_name[has_parent] = a["name_id"][a["parent"][has_parent]]
    under_max = parent_name == names.index(_MAXIMIZE)
    steps = sum(int(np.count_nonzero(under_max & (a["name_id"] == names.index(s)))) for s in _STEPS)
    nu_calls = int(np.count_nonzero(under_max & (a["name_id"] == names.index(_ANTI_NORM))))
    out["longarc.steps_per_eval"] = steps / r.step_slots if r.step_slots else 0.0
    out["longarc.AntiNorm.calls_per_eval"] = nu_calls / r.evaluations if r.evaluations else 0.0
    integrate_s = layers["longarc.integrate"]["incl_s"]
    out["longarc.integrate.us_per_control"] = integrate_s / r.controls * 1e6 if r.controls else 0.0
    out["cli.output_bytes"] = r.output_bytes / n
    out["trace_overhead_ratio"] = median(r.round_times) / median(untraced.round_times)
    detail = {name: {"calls": v["calls"],
                     "self_us_per_call": v["self_s"] / v["calls"] * 1e6 if v["calls"] else 0.0,
                     "incl_us_per_call": v["incl_s"] / v["calls"] * 1e6 if v["calls"] else 0.0}
              for name, v in layers.items()}
    return out, detail


def check_spans(workload, layers: dict, requests: int) -> None:
    calls = {name: v["calls"] for name, v in layers.items()}
    silent = [s for s in workload.exercised if calls[s] == 0]
    if silent:
        raise BindingError(f"{workload.name}: declared spans never fired: {', '.join(silent)}")
    off = [f"{s} ({calls[s]} calls for {requests} requests)"
           for s in workload.once_per_request if calls[s] != requests]
    if off:
        raise BindingError(f"{workload.name}: expected one call per request: {'; '.join(off)}")


def traced_run(w, inputs, seconds: float, spans_out) -> tuple[Runner, Runner, dict, dict]:
    """Untraced rounds for half the time, then traced rounds for the other half."""
    untraced = Runner(w, inputs)
    untraced.run_for(seconds / 2, 1)
    tracer = Tracer()
    tracer.install()
    try:
        stale = tracer.stale_bindings()
        if stale:
            raise BindingError("tracer left bindings unwrapped: " + ", ".join(stale))
        r = Runner(w, inputs, tracer)
        r.run_for(seconds / 2, 1)
    finally:
        tracer.uninstall()
    layers = tracer.layers()
    check_spans(w, layers, r.requests)
    metrics, detail = per_layer(r, untraced, tracer, layers)
    if spans_out:
        Path(spans_out).parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(spans_out, names=np.array(tracer.names), **tracer.arrays())
    return untraced, r, metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload]
    inputs = w.make_inputs(args.seed)
    setup_wall = time.perf_counter() - STARTED
    inputs_digest = hashlib.sha256(repr(inputs).encode()).hexdigest()
    if args.setup_only:
        kernel_s = median([time_kernel() for _ in range(5)][1:])
        print(json.dumps({"inputs_digest": inputs_digest, "setup_wall_s": setup_wall,
                          "setup_s": setup_wall * REFERENCE_KERNEL_S / kernel_s}))
        return 0

    w.request(inputs[0])  # first-call set-up of numpy and the package, untimed
    out = {"inputs_digest": inputs_digest}
    if args.trace == 0:
        r = Runner(w, inputs)
        r.run_for(args.seconds, MIN_ROUNDS)
        metrics = end_to_end(r)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["tail_percentile"] = tail_percentile(len(inputs))
        out["input_latency_ms"] = [[w.label(inp), median(lat) * 1e3]
                                   for inp, lat in zip(inputs, r.latencies)]
        runners = [r]
    else:
        try:
            untraced, r, metrics, out["layers"] = traced_run(w, inputs, args.seconds, args.spans_out)
        except BindingError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        runners = [untraced, r]

    reference = runners[0].round_digests[0]
    tally = Tally()
    for runner in runners:
        runner.record_determinism(reference)
        tally.attempted += runner.tally.attempted
        tally.reasons.update(runner.tally.reasons)
    out.update({
        "digest": reference,
        "rounds": len(r.round_times),
        "round_times_s": r.round_times,
        "wall_round_times_s": r.wall_round_times,
        "inputs": len(inputs),
        "requests": r.requests,
        "attempted": tally.attempted,
        "failures": dict(tally.reasons),
        "incorrect": sum(v for k, v in tally.reasons.items() if k in INCORRECT),
        "metrics": metrics,
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
