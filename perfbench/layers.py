"""Which public entry point belongs to which layer, and the per-layer metrics.

:func:`install` wraps, from outside the program, one public entry point
(or a few) per layer of the request path; :func:`per_layer_metrics`
turns the traced spans, the tracer's counters and the program's own
stats counters (read by the workload) into the value of every
``per_layer`` metric named in ``BENCHMARK.json``, which holds their
units.

Times are inclusive milliseconds per workload operation (``ms/op``),
except where the name says ``self``: ``evaluation.pool_ms`` is the self
time of ``ScenarioSuite.run`` (the pooling ``AnswerSet.union`` loop; the
pipeline run inside it is its child).  Counts are per operation
(``count/op``) unless their unit says otherwise.  A layer a workload does
not exercise reads 0 there; the README lists which.
"""

from __future__ import annotations

import contextvars

from repro.core.bands import EffectivenessBand
from repro.core.incremental import SizeProfile, SystemProfile
from repro.core.size_ratio import SizeRatioCurve
from repro.evaluation import scenario, validation
from repro.matching import remote
from repro.matching.base import Matcher
from repro.matching.evolution import EvolutionSession
from repro.matching.executor import ShardExecutor
from repro.matching.pipeline import MatchingPipeline
from repro.matching.replication import ReplicaGroup
from repro.matching.service import MatchingService
from repro.matching.similarity.matrix import SimilaritySubstrate
from repro.schema.repository import SchemaRepository

__all__ = ["install", "per_layer_metrics"]

def _count_pipeline(tracer, span, result, args):
    tracer.count("pipeline.pairs", result.stats.pairs_total)
    tracer.count("pipeline.pairs_from_cache", result.stats.pairs_from_cache)


def _count_rematch(tracer, span, result, args):
    stats = result.rematch
    tracer.count("evolution.pairs_reused", stats.pairs_reused)
    tracer.count("evolution.pairs_recomputed", stats.pairs_recomputed)
    tracer.count("evolution.pairs_skipped", stats.pairs_skipped)


def _count_units(tracer, span, items, args):
    tracer.count("executor.units", items)


def _count_pair(tracer, span, result, args):
    tracer.count("search.pairs")
    tracer.count("search.results", len(result))


def _count_answers(tracer, span, result, args):
    tracer.count("assembly.answers", len(result))


def _tag_request(tracer, span, result, args):
    span.attrs = {"query": id(args[1])}


def _tag_first_batch(tracer, span, result, args):
    span.attrs = {"queries": [id(query) for query in args[0].queries]}


def _tag_batch(tracer, span, result, args):
    span.attrs = {"queries": [id(query) for query in args[1]]}


_sending: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_sending", default=False
)


def _count_frames(tracer) -> None:
    """Count frames and payload bytes the coordinator sends to workers.

    ``/proc/<pid>/io`` of a worker does not see socket reads (``rchar``
    counts ``read``-family calls only; sockets are read with ``recv``),
    so the bytes are counted where the coordinator digests each outgoing
    payload, inside ``async_send_message``.
    """

    def send(original):
        async def counting(writer, message):
            tracer.count("remote.frames_sent")
            token = _sending.set(True)
            try:
                return await original(writer, message)
            finally:
                _sending.reset(token)
        return counting

    def digest(original):
        def counting(payload):
            if _sending.get():
                tracer.count("remote.bytes_sent", len(payload))
            return original(payload)
        return counting

    tracer.patch(remote, "async_send_message", send)
    tracer.patch(remote, "_digest", digest)


def install(tracer) -> None:
    """Wrap every layer's public entry points; ``tracer.stop()`` undoes it."""
    tracer.wrap(MatchingService, "match", "service.match", _tag_request)
    tracer.wrap(MatchingService, "apply_delta", "service.apply_delta")
    tracer.wrap(EvolutionSession, "match", "service.batch", _tag_first_batch)
    tracer.wrap(EvolutionSession, "extend", "service.batch", _tag_batch)
    tracer.wrap(MatchingPipeline, "run", "pipeline.run", _count_pipeline)
    tracer.wrap(MatchingPipeline, "rematch", "evolution.rematch", _count_rematch)
    tracer.wrap_hierarchy(ShardExecutor, "execute", "executor.execute", _count_units)
    _count_frames(tracer)
    tracer.wrap_hierarchy(Matcher, "prepare", "search.prepare")
    # ~800 calls per serve-1k request each: summed, not kept as spans
    tracer.wrap_hierarchy(
        Matcher, "match_pair", "search.match_pair", _count_pair, summed=True
    )
    tracer.wrap(
        SimilaritySubstrate, "matrix", "similarity.matrix", summed=True
    )
    tracer.wrap_hierarchy(Matcher, "assemble", "assembly.assemble", _count_answers)
    tracer.wrap(scenario.ScenarioSuite, "run", "evaluation.pool")
    tracer.wrap(SystemProfile, "from_answer_set", "evaluation.judge")
    tracer.wrap(SizeProfile, "from_answer_set", "evaluation.judge")
    tracer.wrap(validation, "compute_incremental_bounds", "bounds.compute")
    tracer.wrap(EffectivenessBand, "__init__", "bounds.compute")
    tracer.wrap(EffectivenessBand, "check_containment", "bounds.compute")
    tracer.wrap(SizeRatioCurve, "from_profiles", "bounds.compute")
    tracer.wrap(ReplicaGroup, "apply_delta", "replication.apply_delta")
    tracer.wrap(SchemaRepository, "apply", "delta.apply")


def _service_wait_ms(tracer) -> float:
    """Mean time a service request waited before its batch began matching.

    A request answered from retained state (or merged into another's
    batch) waited its whole latency.
    """
    spans = tracer.finished("timed")
    batches = sorted(
        (span for span in spans if span.name == "service.batch"),
        key=lambda span: span.start,
    )
    waits = []
    for request in spans:
        if request.name != "service.match":
            continue
        query = request.attrs["query"]
        started = next(
            (
                batch.start for batch in batches
                if batch.start >= request.start
                and batch.end <= request.end
                and query in batch.attrs["queries"]
            ),
            request.end,
        )
        waits.append(started - request.start)
    return 1e3 * sum(waits) / len(waits) if waits else 0.0


def per_layer_metrics(tracer, *, ops, seconds, counters, setups, host):
    """The value of every ``per_layer`` metric of one traced run, by name.

    ``counters`` are the program's own stats counters summed over the
    timed phase by the workload; ``setups`` the number of set-ups the
    run made; ``host`` the run's host diagnostics.
    """
    timed = tracer.totals("timed")
    setup = tracer.totals("setup")
    count = tracer.counters

    def per_op_ms(name, key="total_s"):
        return 1e3 * timed.get(name, {}).get(key, 0.0) / ops

    def ratio(hits, misses):
        return hits / (hits + misses) if hits + misses else 0.0

    return {
        "service.wait_ms": _service_wait_ms(tracer),
        "service.batches": counters.get("service.batches", 0) / ops,
        "service.served_from_state":
            counters.get("service.served_from_state", 0) / ops,
        "pipeline.run_ms": per_op_ms("pipeline.run"),
        "pipeline.cache_hit_ratio": ratio(
            count.get("pipeline.pairs_from_cache", 0),
            count.get("pipeline.pairs", 0)
            - count.get("pipeline.pairs_from_cache", 0),
        ),
        "executor.execute_ms": per_op_ms("executor.execute"),
        "executor.units": count.get("executor.units", 0) / ops,
        "remote.frames_sent": count.get("remote.frames_sent", 0) / ops,
        "remote.worker_read_mb": count.get("remote.bytes_sent", 0) / 1e6 / ops,
        "remote.worker_rss_mb": counters.get("remote.worker_rss_mb", 0.0),
        "remote.failures": counters.get("remote.failures", 0),
        "search.setup_prepare_ms":
            1e3 * setup.get("search.prepare", {}).get("total_s", 0.0)
            / max(1, setups),
        "search.prepare_ms": per_op_ms("search.prepare"),
        "search.match_pair_ms": per_op_ms("search.match_pair"),
        "search.pairs": count.get("search.pairs", 0) / ops,
        "search.results": count.get("search.results", 0) / ops,
        "similarity.matrix_ms": per_op_ms("similarity.matrix"),
        "similarity.matrices_built":
            counters.get("similarity.matrices_built", 0) / ops,
        "similarity.matrix_hit_ratio": ratio(
            counters.get("similarity.matrix_hits", 0),
            counters.get("similarity.matrices_built", 0),
        ),
        "similarity.kernel_rows_migrated":
            counters.get("similarity.kernel_rows_migrated", 0) / ops,
        "assembly.assemble_ms": per_op_ms("assembly.assemble"),
        "assembly.answers": count.get("assembly.answers", 0) / ops,
        "evaluation.pool_ms": per_op_ms("evaluation.pool", "self_s"),
        "evaluation.judge_ms": per_op_ms("evaluation.judge"),
        "bounds.compute_ms": per_op_ms("bounds.compute"),
        "evolution.rematch_ms": per_op_ms("evolution.rematch"),
        "evolution.pairs_reused": count.get("evolution.pairs_reused", 0) / ops,
        "evolution.pairs_recomputed":
            count.get("evolution.pairs_recomputed", 0) / ops,
        "evolution.pairs_skipped":
            count.get("evolution.pairs_skipped", 0) / ops,
        "replication.apply_delta_ms": per_op_ms("replication.apply_delta"),
        "replication.replicas_lagged":
            counters.get("replication.replicas_lagged", 0),
        "delta.apply_ms": per_op_ms("delta.apply"),
        "gc.pause_ms": 1e3 * tracer.gc_pause_s / ops,
        "gc.gen2_collections": tracer.gc_collections[2],
        "host.ref_loop_ms": host["ref_loop_ms"],
        "host.steal_s": host["steal_s"],
        "host.cpu_s": host["cpu_s"],
        "trace.throughput_ops": ops / seconds,
        "trace.spans": len(tracer.finished("timed")),
    }
