"""End-to-end benchmark of the matching system: one workload, one run.

Run from the repository root::

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 35 --trace 0

Workloads: ``paper-sweep`` and ``churn-remote``, the two that
``BENCHMARK.json`` names, and ``serve-1k``, which runs by name but is
not in the benchmark's set (see README.md).  The run generates its inputs from ``--seed``, sets the
system up (``setup_s`` is the median of the workload's set-ups), runs
whole rounds until ``--seconds`` of timed work and at least 100
operations are done, checks the outputs, and prints one JSON object as
the last line of standard output.  Every timed figure is net of the
hypervisor's steal over its interval (README.md, "Steal")::

    {"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the program's public entry points are wrapped (from
outside, see ``layers.py``) and the metrics are the per-layer ones, and
the spans are written as JSON lines under ``.perfbench/``.  Host
diagnostics (reference loop, steal time, CPU time) go to standard error
in every run.  ``--smoke`` runs a seconds-long small size of the same
workload with every output check, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

MIN_OPS = 100
SMOKE_MIN_OPS = 1


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small inputs and a one-round minimum (for the benchmark's tests)",
    )
    return parser.parse_args(argv)


def _p50_p90(values):
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return statistics.median(values), deciles[8]


def _by_kind(workload):
    grouped = {}
    for kind, latency in zip(workload.kinds, workload.latencies):
        grouped.setdefault(kind, []).append(latency)
    return grouped


def _count_timed_segments(workload, tracer, totals):
    """Trace and count only while the workload's clock runs.

    Spans, tracer counters and GC pauses follow ``tracer.phase``; the
    program's own stats counters are read at every resume and pause and
    their differences summed into ``totals`` (worker RSS is a level, so
    its last reading is kept).
    """
    absolute = {"remote.worker_rss_mb"}
    start = {}

    def resume():
        start.update(workload.counters())
        tracer.phase = "timed"

    def pause():
        tracer.phase = "paused"
        for key, value in workload.counters().items():
            if key in absolute:
                totals[key] = value
            else:
                totals[key] = totals.get(key, 0) + value - start.get(key, 0)

    tracer.phase = "paused"
    workload.clock.on_resume = resume
    workload.clock.on_pause = pause


def _report(section, values):
    """``values`` by name, with the units ``BENCHMARK.json`` gives ``section``."""
    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
    )
    return {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in spec[section]
    }


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    source = os.path.join(os.getcwd(), "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(
            "perfbench: src/repro not found; run from the repository root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, source)
    # a killed run still stops its worker processes (close() in finally)
    signal.signal(signal.SIGTERM, _terminate)

    import host
    import layers
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"known: {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    ref_start = host.ref_loop_ms()
    steal_start = host.steal_ticks()
    cpu_start = process_time()
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    min_ops = SMOKE_MIN_OPS if args.smoke else MIN_OPS
    tracer = Tracer() if args.trace else None
    try:
        workload.make_inputs()
        if tracer is not None:
            layers.install(tracer)
            tracer.start()
        setups = []
        for rep in range(workload.setup_reps):
            started, stolen = perf_counter(), host.stolen_s()
            workload.setup(final=rep == workload.setup_reps - 1)
            setups.append(
                perf_counter() - started - (host.stolen_s() - stolen)
            )
        counters = {}
        if tracer is not None:
            _count_timed_segments(workload, tracer, counters)
        round_seconds = []
        peak_rss = None
        while workload.clock.seconds < args.seconds or workload.attempted < min_ops:
            before_round = workload.clock.seconds
            workload.run_round(len(round_seconds))
            round_seconds.append(workload.clock.seconds - before_round)
            # the peak over set-up and the first min_ops operations: the
            # same work in every run, however many rounds the run fits
            if peak_rss is None and workload.attempted >= min_ops:
                peak_rss = host.peak_rss_mb()
        if tracer is not None:
            tracer.phase = "checks"
        if tracer is not None:
            tracer.stop()
        workload.check()
    finally:
        if tracer is not None:
            tracer.stop()
        workload.close()

    completed = workload.attempted - workload.failed
    # every timed figure is net of steal (README.md, "Steal")
    run_share = workload.clock.run_share
    seconds = workload.clock.seconds * run_share
    diagnostics = {
        "ref_loop_ms": (ref_start + host.ref_loop_ms()) / 2,
        "ref_loop_start_ms": ref_start,
        "steal_s": (host.steal_ticks() - steal_start) / host.clock_ticks(),
        "cpu_s": process_time() - cpu_start,
        "rounds": len(round_seconds),
        "round_s": [round(seconds, 3) for seconds in round_seconds],
        "timed_s": workload.clock.seconds,
        "timed_stolen_s": workload.clock.stolen,
        "setups_s": setups,
        "latency_by_kind_ms": {
            kind: {
                "n": len(values),
                "p50_p90": [round(v * 1e3, 1) for v in _p50_p90(values)],
            }
            for kind, values in _by_kind(workload).items()
            if len(values) > 1
        },
        "latency_deciles_ms": [
            round(value * 1e3, 1) for value in statistics.quantiles(
                workload.latencies, n=10, method="inclusive"
            )
        ] if len(workload.latencies) > 1 else [],
    }
    print("perfbench host: " + json.dumps(diagnostics), file=sys.stderr)
    if completed == 0:
        print("perfbench: every operation failed", file=sys.stderr)
        return 1

    if tracer is None:
        p50, p90 = _p50_p90(
            [latency * run_share * 1e3 for latency in workload.latencies]
        )
        metrics = _report("end_to_end", {
            "setup_s": statistics.median(setups),
            "throughput_ops": completed / seconds,
            "latency_p50_ms": p50,
            "latency_p90_ms": p90,
            "peak_rss_mb": peak_rss,
        })
    else:
        metrics = _report("per_layer", layers.per_layer_metrics(
            tracer, ops=completed, seconds=seconds, counters=counters,
            setups=len(setups), host=diagnostics,
        ))
        os.makedirs(".perfbench", exist_ok=True)
        path = os.path.join(
            ".perfbench", f"trace-{args.workload}-{args.seed}.jsonl"
        )
        tracer.write_jsonl(path)
        print(f"perfbench: spans written to {path}", file=sys.stderr)
        for name, entry in sorted(tracer.totals("timed").items()):
            self_ms = (
                f"{entry['self_s'] * 1e3 / completed:9.3f} ms/op"
                if "self_s" in entry else "        - (summed)"
            )
            print(
                f"  {name:28s} calls {entry['calls']:7d}  "
                f"total {entry['total_s'] * 1e3 / completed:9.3f} ms/op  "
                f"self {self_ms}",
                file=sys.stderr,
            )
    print(json.dumps({
        "correct": not workload.problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
