"""Steadiness check: two sets of runs per workload, judged against the bounds.

Run from the repository root::

    python3 perfbench/steady.py                 # two sets of ten runs per workload
    python3 perfbench/steady.py --traced        # + tracing overhead

Each run is ``perfbench/run.py`` at ``run_seconds`` from ``BENCHMARK.json``
with its own seed: set A uses seeds 1..10, set B seeds 11..20, and set B
starts after set A has run every workload.  For every end-to-end metric
of every workload and set it prints the median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median.  The verdict is
``steady`` only if

* every run is correct and the failed share is the same in every run,
* every spread but ``setup_s``'s is within the metric's bound (a set-up
  is one long event per run, so its spread is shown but not gated), and
* for every metric, ``setup_s`` included, set B's median is not worse
  than set A's by more than the bound.

The ``third`` column marks spreads under a third of the bound, the
margin the benchmark aims for.  The reference-loop row is the machine's
own speed over the same runs, for comparison; it is not gated.  With
``--traced``, each of set B's first three runs per workload is followed
by a traced run of the same seed, and the tracing overhead is the median
over those pairs of traced ``trace.throughput_ops`` against untraced
``throughput_ops``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUNS = 10
TRACED_PAIRS = 3


def _run(spec, workload, seed, trace):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
         "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {completed.returncode}")
    result = json.loads(lines[-1])
    marker = "perfbench host: "
    for line in completed.stderr.splitlines():
        if line.startswith(marker):
            result["host"] = json.loads(line[len(marker):])
    return result


def _quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def _report_set(spec, label, workload, seeds, results):
    """Print one set's table; return its medians, its failed shares and
    whether it is steady."""
    shares = {r["failed"] / r["attempted"] for r in results}
    correct = all(r["correct"] for r in results)
    print(
        f"\n{workload}, set {label}: {len(results)} runs, seeds "
        f"{seeds[0]}..{seeds[-1]}, correct={correct}, failed share "
        f"{sorted(shares)}, attempted {sorted(r['attempted'] for r in results)}"
    )
    print(
        "| metric | unit | median | q1 | q3 | spread | bound | ok | third |\n"
        "|---|---|---|---|---|---|---|---|---|"
    )
    steady = correct and len(shares) == 1
    medians = {}
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        median, q1, q3, spread = _quartiles(
            [r["metrics"][name]["value"] for r in results]
        )
        medians[name] = median
        if name == "setup_s":
            verdict = "-"
        else:
            verdict = "yes" if spread <= bound else "NO"
            steady = steady and spread <= bound
        third = "yes" if spread <= bound / 3 else "no"
        print(
            f"| {name} | {metric['unit']} | {median:.4g} | {q1:.4g} | "
            f"{q3:.4g} | {spread:.3f} | {bound} | {verdict} | {third} |"
        )
    median, q1, q3, spread = _quartiles(
        [r["host"]["ref_loop_ms"] for r in results]
    )
    print(
        f"| host.ref_loop_ms (machine speed, not gated) | ms | {median:.4g} "
        f"| {q1:.4g} | {q3:.4g} | {spread:.3f} | - | - | - |"
    )
    return medians, shares, steady


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    workloads = [workload["name"] for workload in spec["workloads"]]

    results = {"A": {}, "B": {}}
    seeds = {
        "A": list(range(1, RUNS + 1)),
        "B": list(range(RUNS + 1, 2 * RUNS + 1)),
    }
    overheads = {workload: [] for workload in workloads}
    for label in ("A", "B"):
        for workload in workloads:
            runs = results[label][workload] = []
            for index, seed in enumerate(seeds[label]):
                runs.append(_run(spec, workload, seed, 0))
                if args.traced and label == "B" and index < TRACED_PAIRS:
                    traced = _run(spec, workload, seed, 1)
                    rate = traced["metrics"]["trace.throughput_ops"]["value"]
                    untraced = runs[-1]["metrics"]["throughput_ops"]["value"]
                    overheads[workload].append(1 - rate / untraced)

    steady = True
    for workload in workloads:
        medians, shares = {}, {}
        for label in ("A", "B"):
            medians[label], shares[label], ok = _report_set(
                spec, label, workload, seeds[label], results[label][workload]
            )
            steady = steady and ok
        print(
            f"\n{workload}, set B against set A (failed share "
            f"{'equal' if shares['A'] == shares['B'] else 'DIFFERS'}):\n"
            "| metric | median A | median B | worse by | bound | ok |\n"
            "|---|---|---|---|---|---|"
        )
        steady = steady and shares["A"] == shares["B"]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first, second = medians["A"][name], medians["B"][name]
            if metric["better"] == "lower":
                worse = second / first - 1
            else:
                worse = 1 - second / first
            ok = worse <= bound
            steady = steady and ok
            print(
                f"| {name} | {first:.4g} | {second:.4g} | {worse:+.3f} | "
                f"{bound} | {'yes' if ok else 'NO'} |"
            )
        if overheads[workload]:
            pairs = ", ".join(f"{share:.1%}" for share in overheads[workload])
            print(
                f"tracing overhead (seeds {seeds['B'][0]}.."
                f"{seeds['B'][len(overheads[workload]) - 1]}, traced against "
                f"untraced throughput of the same seed): median "
                f"{statistics.median(overheads[workload]):.1%} ({pairs})"
            )
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
