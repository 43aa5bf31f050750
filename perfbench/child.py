"""Run one workload in this process and print its result as a JSON line.

``perfbench/run.py`` starts this script in a fresh process with a pinned
environment; run it directly only to debug a workload::

    PYTHONPATH=src python3 perfbench/child.py --workload sweep --seed 7 \\
        --seconds 25 --trace 0 --work-dir .perfbench/debug

With ``--trace 0`` the run sets up several times (``setup_s`` is the
median), then repeats passes for ``--seconds`` and reports the end-to-end
metrics; every time in them is scaled to the reference host of
``perfbench/hostspeed.py`` by the host speed sampled while it was taken.
With ``--trace 1`` it sets up once, runs untraced passes for part of the
budget, installs the span wrappers of ``perfbench/spans.py``, sets up and
runs passes again under them, and reports the per-layer metrics (wall
times, not scaled).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed
from workloads import WORKLOADS

#: An untraced run sets up at least ``SETUPS_MIN`` times and keeps going
#: until ``SETUP_SECONDS`` have passed or ``SETUPS_MAX`` set-ups ran;
#: ``setup_s`` is their median.  Cheap set-ups thus get enough repeats for a
#: steady median, and the first (cold) set-up never sets the figure.
SETUPS_MIN = 3
SETUPS_MAX = 100
SETUP_SECONDS = 3.0
#: serving-fleet gives this share of ``--seconds`` to the closed loop and
#: the rest to the open loop.
CLOSED_LOOP_SHARE = 2.0 / 3.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q`` percent at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def run_passes(
    workload, state, budget: float, tally: dict, tracer=None, scaled: bool = False
) -> tuple[list[float], list[float]]:
    """Repeat passes while another one is expected to fit in ``budget`` seconds.

    Returns each pass's wall time, and the same scaled to the reference host
    when ``scaled`` (the host speed is sampled during each pass); unscaled,
    both lists are the wall times.  Every pass's output is checked (untimed,
    and untraced when a ``tracer`` records the passes) and dropped;
    ``tally`` collects attempted/failed operations, problems and program
    counters.
    """
    seconds: list[float] = []
    wall: list[float] = []
    started = time.perf_counter()
    while True:
        index = len(seconds)
        if tracer is not None:
            tracer.active = True
            root = tracer.open("pass")
        host = HostSpeed() if scaled else None
        with host or contextlib.nullcontext():
            began = time.perf_counter()
            output = workload.run_pass(state, index)
            wall.append(time.perf_counter() - began)
        seconds.append(wall[-1] * host.scale() if host else wall[-1])
        if tracer is not None:
            tracer.close(root)
            tracer.active = False
        attempted, failed, problems = workload.check(state, output, index)
        tally["attempted"] += attempted
        tally["failed"] += failed
        tally["problems"].extend(problems)
        if hasattr(workload, "program_counters"):
            for key, value in workload.program_counters(output).items():
                tally["counters"][key] = tally["counters"].get(key, 0) + value
        del output
        if time.perf_counter() - started + statistics.fmean(wall) > budget:
            return seconds, wall


def environment() -> dict:
    from repro.distance.backends import backend_resolution
    from repro.memory import resolve_block_bytes, resolve_thread_count

    resolution = backend_resolution()
    return {
        "backend_requested": resolution.requested,
        "backend_resolved": resolution.resolved,
        "compiled_available": resolution.compiled_available,
        "memory_budget_bytes": resolve_block_bytes(),
        "repro_threads": resolve_thread_count(),
        "blas_threads": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "repro_env": sorted(name for name in os.environ if name.startswith("REPRO_")),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def untraced(workload, args, work_dir: Path, tally: dict) -> dict:
    has_open_loop = hasattr(workload, "open_loop")
    open_seconds = args.seconds * (1.0 - CLOSED_LOOP_SHARE) if has_open_loop else 0.0
    setup_seconds: list[float] = []
    setup_wall: list[float] = []
    while True:
        setup_dir = work_dir / f"setup-{len(setup_seconds)}"
        with HostSpeed() as host:
            began = time.perf_counter()
            state = workload.setup(args.seed, setup_dir, open_seconds)
            setup_wall.append(time.perf_counter() - began)
        setup_seconds.append(setup_wall[-1] * host.scale())
        if len(setup_seconds) >= SETUPS_MAX or (
            len(setup_seconds) >= SETUPS_MIN and sum(setup_wall) >= SETUP_SECONDS
        ):
            break
        del state
        shutil.rmtree(setup_dir, ignore_errors=True)
    pass_seconds, pass_wall = run_passes(
        workload, state, args.seconds - open_seconds, tally, scaled=True
    )
    wall = statistics.median(pass_seconds)
    latencies = [1000.0 * seconds for seconds in pass_seconds]
    if has_open_loop:
        open_host = HostSpeed()
        latencies, lags, engine = workload.open_loop(state, open_host)
        latencies = [latency * open_host.scale() for latency in latencies]
        tally["notes"]["open_loop_host_scale"] = round(open_host.scale(), 4)
        snapshot = engine.metrics()
        tally["attempted"] += snapshot.chunks_ingested + snapshot.chunks_shed
        tally["failed"] += snapshot.chunks_shed + snapshot.candidates_discarded
        tally["notes"]["open_loop_rate_sps"] = workload.OPEN_RATE_SPS
        tally["notes"]["open_loop_ticks"] = len(lags)
        tally["notes"]["generator_lag_p99_ms"] = percentile(lags, 99)
    tally["notes"].update(
        pass_wall_seconds=[round(value, 4) for value in pass_wall],
        pass_host_scales=[round(s / w, 4) for s, w in zip(pass_seconds, pass_wall)],
        setups=len(setup_seconds),
        setup_wall_median_s=round(statistics.median(setup_wall), 4),
        latency_samples=len(latencies),
    )
    return {
        "setup_s": metric(statistics.median(setup_seconds), "s"),
        "wall_s": metric(wall, "s"),
        "throughput_sps": metric(workload.SAMPLES / wall, "samples/s"),
        "latency_p50_ms": metric(statistics.median(latencies), "ms"),
        "peak_rss_mb": metric(peak_rss_mb(), "MiB"),
    }


def traced(workload, args, work_dir: Path, tally: dict) -> dict:
    from spans import Tracer

    has_open_loop = hasattr(workload, "open_loop")
    share = args.seconds / (3.0 if has_open_loop else 2.0)
    state = workload.setup(args.seed, work_dir / "setup-untraced", share if has_open_loop else 0.0)
    untraced_seconds, _ = run_passes(workload, state, share, tally)

    tracer = Tracer()
    tracer.install()
    try:
        tracer.active = True
        root = tracer.open("setup")
        traced_state = workload.setup(args.seed, work_dir / "setup-traced", 0.0)
        tracer.close(root)
        tracer.active = False
        tracer.counts.clear()
        tally["counters"].clear()
        traced_seconds, _ = run_passes(workload, traced_state, share, tally, tracer)
    finally:
        tracer.uninstall()
    missing = tracer.missing(workload.EXPECTED)
    if missing:
        tally["failed"] += len(missing)
        tally["problems"].extend(f"traced entry point never fired: {key}" for key in missing)

    latencies: list[float] = []
    lags: list[float] = []
    if has_open_loop:
        latencies, lags, _ = workload.open_loop(state)
    return layer_metrics(
        tracer, traced_seconds, untraced_seconds, tally["counters"], latencies, lags
    )


def layer_metrics(tracer, traced_seconds, untraced_seconds, counters, latencies, lags) -> dict:
    spans = tracer.spans
    self_ns, inclusive, n_passes, indices = tracer.summarize("pass")
    setup_self, _, n_setups, _ = tracer.summarize("setup")
    per_pass = 1.0 / n_passes

    def self_s(*names: str) -> float:
        return sum(self_ns.get(name, 0) for name in names) * per_pass / 1e9

    def layer_s(layer: str) -> float:
        return self_s(*(name for name in self_ns if name.startswith(layer + ".")))

    def calls(name: str) -> float:
        return len(inclusive.get(name, ())) * per_pass

    def nested(child: str, parent: str) -> float:
        return sum(
            1 for index in indices
            if spans[index][0] == child and spans[spans[index][3]][0] == parent
        ) * per_pass

    counts = tracer.counts
    batch_rows = counts["classifiers.batch_rows"] * per_pass
    fallback_rows = nested("classifiers.predict_row", "classifiers.predict_batch")
    batch_calls = counters.get("serving.batch_calls", 0) * per_pass
    tasks_ms = [duration / 1e6 for duration in inclusive.get("runtime.task", ())]
    values = {
        "data.synth_s": (setup_self.get("data.synth", 0) / n_setups / 1e9, "s"),
        "data.shard_read_s": (self_s("data.shard_read"), "s"),
        "data.shard_bytes": (counts["data.shard_bytes"] * per_pass, "bytes"),
        "data.self_s": (layer_s("data"), "s"),
        "distance.prefix_s": (self_s("distance.prefix"), "s"),
        "distance.prefix_cells": (counts["distance.prefix_cells"] * per_pass, "count"),
        "distance.znorm_s": (self_s("distance.znorm"), "s"),
        "distance.znorm_calls": (calls("distance.znorm"), "count"),
        "distance.sweep_advance_s": (self_s("distance.sweep_advance"), "s"),
        "distance.euclid_s": (self_s("distance.euclid"), "s"),
        "distance.dtw_s": (self_s("distance.dtw"), "s"),
        "distance.dtw_pairs": (counts["distance.dtw_pairs"] * per_pass, "count"),
        "distance.knn_s": (self_s("distance.knn"), "s"),
        "distance.self_s": (layer_s("distance"), "s"),
        "classifiers.fit_s": (self_s("classifiers.fit"), "s"),
        "classifiers.predict_batch_s": (self_s("classifiers.predict_batch"), "s"),
        "classifiers.predict_row_s": (self_s("classifiers.predict_row"), "s"),
        "classifiers.rows_per_row": (calls("classifiers.predict_row"), "count"),
        "classifiers.batched_share": (
            (batch_rows - fallback_rows) / batch_rows if batch_rows else 0.0, "ratio"
        ),
        "classifiers.self_s": (layer_s("classifiers"), "s"),
        "core.audit_s": (self_s("core.audit"), "s"),
        "evaluation.evaluate_s": (self_s("evaluation.evaluate"), "s"),
        "experiments.run_s": (self_s("experiments.run"), "s"),
        "streaming.causal_znorm_s": (self_s("streaming.causal_znorm"), "s"),
        "streaming.gate_confirms": (calls("streaming.gate_confirm"), "count"),
        "streaming.self_s": (layer_s("streaming"), "s"),
        "serving.push_s": (self_s("serving.push"), "s"),
        "serving.push_calls": (calls("serving.push"), "count"),
        "serving.flush_s": (self_s("serving.flush"), "s"),
        "serving.evaluate_s": (self_s("serving.evaluate"), "s"),
        "serving.batch_calls": (batch_calls, "count"),
        "serving.mean_batch_rows": (
            counts["serving.evaluated_rows"] * per_pass / batch_calls if batch_calls else 0.0, "rows"
        ),
        "serving.queue_depth_max": (counts["serving.queue_depth_max"], "count"),
        "serving.chunks_shed": (counters.get("serving.chunks_shed", 0) * per_pass, "count"),
        "serving.candidates_discarded": (
            counters.get("serving.candidates_discarded", 0) * per_pass, "count"
        ),
        "serving.confirm_p95_ms": (percentile(latencies, 95) if latencies else 0.0, "ms"),
        "serving.generator_lag_p99_ms": (percentile(lags, 99) if lags else 0.0, "ms"),
        "serving.self_s": (layer_s("serving"), "s"),
        "runtime.manifest_save_s": (self_s("runtime.manifest_save"), "s"),
        "runtime.manifest_saves": (calls("runtime.manifest_save"), "count"),
        "runtime.manifest_bytes": (counts["runtime.manifest_bytes"] * per_pass, "bytes"),
        "runtime.queue_s": (self_s("runtime.queue"), "s"),
        "runtime.task_p50_ms": (percentile(tasks_ms, 50) if tasks_ms else 0.0, "ms"),
        "runtime.task_p90_ms": (percentile(tasks_ms, 90) if tasks_ms else 0.0, "ms"),
        "runtime.self_s": (layer_s("runtime"), "s"),
        "trace.pass_s": (statistics.median(traced_seconds), "s"),
        "trace.spans": ((len(indices) - n_passes) * per_pass, "count"),
        "trace.unaccounted_s": (self_s("pass"), "s"),
        "trace.overhead": (
            statistics.median(traced_seconds) / statistics.median(untraced_seconds) - 1.0, "ratio"
        ),
    }
    return {name: metric(value, unit) for name, (value, unit) in values.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    import repro

    source = Path(repro.__file__).resolve()
    workload = WORKLOADS[args.workload]
    tally = {"attempted": 0, "failed": 0, "problems": [], "counters": {}, "notes": {}}
    args.work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics = traced(workload, args, args.work_dir, tally)
        else:
            metrics = untraced(workload, args, args.work_dir, tally)
            if "spans" in sys.modules:
                tally["problems"].append("the span tracer was loaded in an untraced run")
    finally:
        shutil.rmtree(args.work_dir, ignore_errors=True)

    result = {
        "correct": tally["failed"] == 0 and not tally["problems"],
        "attempted": int(tally["attempted"]),
        "failed": int(tally["failed"]),
        "metrics": metrics,
    }
    info = {"source": str(source.parent), "environment": environment(), **tally["notes"]}
    print(json.dumps({"info": info, "problems": tally["problems"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
