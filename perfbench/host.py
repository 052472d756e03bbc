"""Host diagnostics: tell a slow machine phase from a slow program.

* :func:`ref_loop_ms` times a fixed pure-Python loop; the benchmark runs
  it at the start and at the end of every run.  The loop does the same
  work every time, so a change in its time is the machine, not the code.
* :func:`steal_ticks` reads the hypervisor's steal counter from
  ``/proc/stat`` (time this guest was ready to run but not scheduled);
  :func:`stolen_s` is the same per CPU, in seconds, which the timed
  metrics subtract (see README.md, "Steal").
* :func:`peak_rss_mb` and :func:`process_rss_mb` read the peak resident
  memory of this process and of a child process (``/proc/<pid>/status``).
"""

from __future__ import annotations

import os
import resource
import statistics
from time import perf_counter

__all__ = [
    "clock_ticks",
    "peak_rss_mb",
    "process_rss_mb",
    "ref_loop_ms",
    "steal_ticks",
    "stolen_s",
]

_REF_LOOP_N = 300_000


def _ref_loop() -> int:
    total = 0
    for i in range(_REF_LOOP_N):
        total += (i * i) % 7
    return total


def ref_loop_ms(repeats: int = 3) -> float:
    """Median wall time of the fixed reference loop, in milliseconds."""
    samples = []
    for _ in range(repeats):
        started = perf_counter()
        _ref_loop()
        samples.append((perf_counter() - started) * 1e3)
    return statistics.median(samples)


def clock_ticks() -> int:
    return os.sysconf("SC_CLK_TCK")


def steal_ticks() -> int:
    """Steal ticks summed over all CPUs since boot (0 if unavailable)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0
    # cpu user nice system idle iowait irq softirq steal ...
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else 0


def stolen_s() -> float:
    """Seconds of steal per CPU since boot (0 if unavailable).

    Steal is the time the hypervisor ran another guest while a CPU of
    this one had work; ``/proc/stat`` sums it over every CPU.  Divided by
    the number of CPUs it is the share of a program's wall time that it
    did not run, if steal falls on every CPU alike.
    """
    return steal_ticks() / clock_ticks() / (os.cpu_count() or 1)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _status_field(pid: int, field: str) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return float(line.split()[1])  # kB
    return 0.0


def process_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    return _status_field(pid, "VmHWM") / 1024.0
