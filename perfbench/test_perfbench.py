"""Tests of the benchmark itself, at its seconds-long smoke size.

Run from the repository root::

    python3 -m pytest perfbench -q

Every smoke run still makes every output check its workload makes at
full size; these tests only shrink the inputs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS  # noqa: E402  (every workload, serve-1k too)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )


def _result(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = _result(_run(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", "0", "--smoke",
    ))
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_run_reports_every_per_layer_metric(workload):
    result = _result(_run(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", "1", "--smoke",
    ))
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["metrics"]["pipeline.run_ms"]["value"] > 0
    spans = (ROOT / ".perfbench" / f"trace-{workload}-3.jsonl").read_text()
    records = [json.loads(line) for line in spans.splitlines()]
    assert records and all(record["self_ms"] >= 0 for record in records)
    assert {"id", "name", "parent", "request", "start_ms", "end_ms"} <= set(
        records[0]
    )


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = _run(
        "--workload", "paper-sweep", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def _small_case():
    """The (query, schema) pair with answers whose schema is smallest."""
    from repro.evaluation.workloads import build_workload, small_config
    from repro.matching import ExhaustiveMatcher

    workload = build_workload(small_config())
    matcher = ExhaustiveMatcher(workload.objective)
    sizes = {schema.schema_id: schema for schema in workload.repository}
    cases = []
    for scenario in workload.suite.scenarios:
        answers = matcher.match(scenario.query, workload.repository, 0.3)
        for schema_id in {answer.item.key[1] for answer in answers}:
            schema = sizes[schema_id]
            cases.append((len(schema), scenario.query, schema, answers))
    _, query, schema, answers = min(cases, key=lambda case: case[0])
    return workload.objective, query, schema, answers


def test_oracle_agrees_with_the_exhaustive_matcher():
    from oracle import compare_pair

    objective, query, schema, answers = _small_case()
    assert compare_pair(objective, query, schema, 0.3, answers) is None


def test_oracle_reports_a_dropped_answer():
    from oracle import answers_for_schema, compare_pair

    objective, query, schema, answers = _small_case()
    mine = list(answers)
    mine.remove(next(
        answer for answer in mine if answer.item.key[1] == schema.schema_id
    ))
    assert answers_for_schema(mine, schema.schema_id) != answers_for_schema(
        answers, schema.schema_id
    )
    assert compare_pair(objective, query, schema, 0.3, mine) is not None


def test_same_seed_gives_same_inputs():
    from repro.evaluation.workloads import build_workload, small_config
    from workloads import _queries
    from repro.util import rng as rng_util

    repository = build_workload(small_config()).repository

    def drawn(seed):
        queries = _queries(rng_util.make(seed), repository, 4, "q")
        return [query.content_digest() for query in queries]

    assert drawn(5) == drawn(5)
    assert drawn(5) != drawn(6)


def test_summed_entry_points_are_counted_not_kept_as_spans():
    from spans import Tracer

    class Box:
        def work(self, value):
            return value + 1

    tracer = Tracer()
    tracer.wrap(Box, "work", "box.work", summed=True)
    tracer.phase = "timed"
    try:
        assert Box().work(1) == 2
        Box().work(2)
    finally:
        tracer.stop()
    assert tracer.spans == []
    assert tracer.totals("timed")["box.work"]["calls"] == 2
    assert "box.work" not in tracer.totals("setup")
    assert not hasattr(Box.work, "__wrapped__")


def test_clock_keeps_the_steal_of_its_timed_segments(monkeypatch):
    import host
    from workloads import Clock

    readings = iter([10.0, 10.5, 20.0, 20.25])
    monkeypatch.setattr(host, "stolen_s", lambda: next(readings))
    clock = Clock()
    for _ in range(2):
        clock.resume()
        clock.pause()
    assert clock.stolen == 0.75
