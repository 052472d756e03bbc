"""The benchmark's three workloads, each driven through the public entry points.

Every workload follows the same life cycle, driven by ``run.py``:

1. ``make_inputs()`` generates the repository and thesaurus (not timed);
2. ``setup()`` builds the system from those inputs and warms it; it runs
   ``setup_reps`` times and ``setup_s`` reports the median.  Every set-up
   but the last is torn down again;
3. ``run_round(index)`` runs one round, the unit of whole work the timed
   phase repeats.  The clock runs only while operations run: inputs are
   generated, and per-round output checks made, while it is paused;
4. ``check()`` runs the end-of-run output checks, outside the timed
   phase.

The repository is the harness's default collection at the workload's
size; queries, deltas and check samples derive from ``--seed`` through
:func:`repro.util.rng.seed_from`, so one seed always gives the same
inputs.  See README.md for why each
workload is built the way it is.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import pickle
import signal
import subprocess
import sys
from collections import deque
from time import perf_counter

from oracle import compare_pair
from spans import request
from repro.errors import BoundsError, NotASubsetError
from repro.evaluation.ground_truth import enumerate_ground_truth
from repro.evaluation.scenario import MatchingScenario, ScenarioSuite
from repro.evaluation.validation import run_system, validate_improvement
from repro.evaluation.workloads import WorkloadConfig, build_workload
from repro.experiments.harness import (
    S2_EXTRA_TOPK,
    S2_ONE_BEAM_WIDTH,
    S2_TWO_CLUSTERS_PER_ELEMENT,
)
from repro.matching import (
    BeamMatcher,
    ClusteringMatcher,
    ExhaustiveMatcher,
    HybridMatcher,
    MatchingService,
    RemoteShardExecutor,
    TopKCandidateMatcher,
    canonical_answers,
    replica_group,
)
from repro.matching.objective import ObjectiveFunction
from repro.matching.similarity.name import NameSimilarity
from repro.schema import churn_delta, get_domain
from repro.schema.mutations import MutationConfig, extract_personal_schema
from repro.util import rng as rng_util

import host

__all__ = ["WORKLOADS"]

#: largest schema the brute-force check enumerates (13*12*11*10 assignments)
_ORACLE_MAX_SCHEMA = 13


class Clock:
    """Accumulates the seconds of the timed phase; paused between rounds.

    ``stolen`` is the part of ``seconds`` the hypervisor gave to other
    guests (:func:`host.stolen_s`), which the timed metrics subtract.
    ``on_resume``/``on_pause``, when set, run just outside the timed
    window; a traced run uses them to count only timed work.
    """

    def __init__(self):
        self.seconds = 0.0
        self.stolen = 0.0
        self._since = None
        self._stolen_since = None
        self.on_resume = None
        self.on_pause = None

    def resume(self) -> None:
        if self.on_resume is not None:
            self.on_resume()
        self._stolen_since = host.stolen_s()
        self._since = perf_counter()

    def pause(self) -> None:
        self.seconds += perf_counter() - self._since
        self.stolen += host.stolen_s() - self._stolen_since
        self._since = None
        if self.on_pause is not None:
            self.on_pause()

    @property
    def run_share(self) -> float:
        """The share of the timed seconds this guest's CPUs ran."""
        return 1.0 - self.stolen / self.seconds if self.seconds else 1.0


class Workload:
    """Shared bookkeeping: operation latencies, failures, check problems."""

    name = ""
    setup_reps = 3

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self.clock = Clock()
        self.latencies: list[float] = []
        #: what each latency measured (system, request or operation kind)
        self.kinds: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def seed_for(self, *labels) -> int:
        return rng_util.seed_from(self.seed, self.name, *labels)

    def rng_for(self, *labels):
        return rng_util.make(self.seed_for(*labels))

    @contextlib.contextmanager
    def _operation(self, kind):
        """Count one operation and record its latency; a failure is
        counted and reported, not raised."""
        self.attempted += 1
        started = perf_counter()
        try:
            with request(self.attempted):
                yield
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            self.failed += 1
            print(f"{self.name}: operation failed: {exc!r}", file=sys.stderr)
            return
        self.latencies.append(perf_counter() - started)
        self.kinds.append(kind)

    def timed_op(self, kind, function, *args):
        """Run one operation, time it, count it; ``None`` when it failed."""
        result = None
        with self._operation(kind):
            result = function(*args)
        return result

    async def timed_op_async(self, coroutine, kind):
        result = None
        with self._operation(kind):
            result = await coroutine
        return result

    def problem(self, text: str) -> None:
        self.problems.append(text)
        print(f"{self.name}: check failed: {text}", file=sys.stderr)

    @staticmethod
    def oracle_pairs(rng, repository, candidates, count):
        """Pick ``count`` (query, answers, schema) triples for brute force.

        ``candidates`` are ``(query, answers)`` answered on ``repository``;
        pairs whose answers map into a small schema come first, so the
        comparison is not vacuous.
        """
        small = [
            schema for schema in repository
            if len(schema) <= _ORACLE_MAX_SCHEMA
        ]
        hit, empty = [], []
        for query, answers in candidates:
            mapped = {
                answer.item.key[1] for answer in answers
                if answer.item.key[0] == query.schema_id
            }
            for schema in small:
                pair = (query, answers, schema)
                (hit if schema.schema_id in mapped else empty).append(pair)
        rng.shuffle(hit)
        rng.shuffle(empty)
        chosen = hit[: max(1, count - 1)]
        return chosen + empty[: count - len(chosen)]

    def brute_force_check(self, objective, delta_max, triples) -> None:
        for query, answers, schema in triples:
            mine = [
                answer for answer in answers
                if answer.item.key[0] == query.schema_id
            ]
            difference = compare_pair(objective, query, schema, delta_max, mine)
            if difference is not None:
                self.problem(f"brute force disagrees: {difference}")

    # lifecycle hooks, overridden per workload
    def make_inputs(self) -> None:
        raise NotImplementedError

    def setup(self, final: bool) -> None:
        raise NotImplementedError

    def run_round(self, index: int) -> None:
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    def counters(self) -> dict[str, float]:
        """The program's own stats counters, cumulative since set-up."""
        return {}

    def close(self) -> None:
        """Release everything; safe to call at any point, more than once."""


def _collection(num_schemas, num_queries=1):
    """The harness's default collection, thesaurus and first queries.

    The repository does not depend on ``--seed``: across generator seeds
    the answer volume at δ=0.4 varies threefold, so a seeded repository
    would measure the generator, not the program.  Seeds drive the
    queries, deltas and samples drawn against it.
    """
    return build_workload(
        WorkloadConfig(num_schemas=num_schemas, num_queries=num_queries)
    )


def _fresh_objective(thesaurus, weights) -> ObjectiveFunction:
    """A cold objective over the generated thesaurus: what a new process has."""
    return ObjectiveFunction(NameSimilarity(thesaurus), weights)


def _substrate_counters(objectives) -> dict[str, float]:
    totals = {
        "similarity.matrices_built": 0,
        "similarity.matrix_hits": 0,
        "similarity.kernel_rows_migrated": 0,
    }
    for objective in objectives:
        stats = objective.substrate().stats
        totals["similarity.matrices_built"] += stats.matrices_built
        totals["similarity.matrix_hits"] += stats.matrix_hits
        totals["similarity.kernel_rows_migrated"] += stats.kernel_rows_migrated
    return totals


def _close_loop(loop) -> None:
    """Join the loop's executor threads (the service matches on them), close."""
    if not loop.is_closed():
        loop.run_until_complete(loop.shutdown_default_executor())
        loop.close()


async def _untimed(coroutine, kind):
    return await coroutine


def _add(into: dict, values: dict) -> None:
    for key, value in values.items():
        into[key] = into.get(key, 0) + value


def _queries(rng, repository, count, prefix):
    """``count`` personal-schema queries drawn from random repository schemas.

    The same extraction :func:`~repro.evaluation.scenario.build_scenarios`
    uses, minus the ground truth that serving does not need.
    """
    schemas = repository.schemas()
    queries = []
    for index in range(count):
        source = schemas[rng.randrange(len(schemas))]
        domain = source.schema_id.rsplit("-", 1)[0]
        queries.append(
            extract_personal_schema(
                rng_util.derive(rng, "query", index),
                source,
                get_domain(domain),
                target_size=4,
                config=MutationConfig(),
                schema_id=f"{prefix}-{index}",
            )
        )
    return queries


# ---------------------------------------------------------------------------
# paper-sweep
# ---------------------------------------------------------------------------

class PaperSweep(Workload):
    """The paper's offline experiment: S1 plus four judged improvements.

    The query pool is the harness's default suite (twelve queries, query
    seed 23), cut in order into four batches of three.  One round is one
    pass over the four batches in an order ``--seed`` shuffles, so every
    pass is the same twenty operations: regrouping the queries every pass
    made each run a different sample of per-operation latencies, which
    spread its percentiles beyond its throughput.  Each batch is five
    operations at the harness's standard schedule:
    ``run_system`` for S1, then ``run_system`` + ``validate_improvement``
    for beam, clustering, top-k and hybrid.  Every pass gives the pool's
    queries new ids, so the candidate cache, which stays on as the
    harness leaves it, sees new queries.  Fresh random batches would
    make a run's cost depend on how many heavy queries a seed draws
    (answers per query range from 0 to 73k at δ=0.4); see README.md.
    """

    name = "paper-sweep"
    setup_reps = 1

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.num_schemas = 30 if smoke else 150
        self.batch = 2 if smoke else 3
        self.pool_size = 4 if smoke else WorkloadConfig().num_queries
        self.first = None
        self.last = None

    def make_inputs(self):
        self.workload = _collection(self.num_schemas, self.pool_size)
        self.repository = self.workload.repository
        self.schedule = self.workload.schedule
        self.pool = list(self.workload.suite.scenarios)

    def _batches(self, scenarios):
        return [
            scenarios[start:start + self.batch]
            for start in range(0, len(scenarios), self.batch)
        ]

    def _suite(self, batch, tag):
        """The batch's queries under new ids, with their ground truth."""
        scenarios = []
        for scenario in batch:
            query = scenario.query.copy(f"{scenario.query.schema_id}-{tag}")
            scenarios.append(MatchingScenario(
                query=query,
                ground_truth=enumerate_ground_truth(query, self.repository),
                source_schema_id=scenario.source_schema_id,
            ))
        return ScenarioSuite(self.repository, scenarios)

    def setup(self, final):
        objective = _fresh_objective(
            self.workload.thesaurus, self.workload.config.weights
        )
        self.objective = objective
        self.original = ExhaustiveMatcher(objective)
        self.improvements = [
            BeamMatcher(objective, beam_width=S2_ONE_BEAM_WIDTH),
            ClusteringMatcher(
                objective, clusters_per_element=S2_TWO_CLUSTERS_PER_ELEMENT
            ),
            TopKCandidateMatcher(objective, candidates_per_element=S2_EXTRA_TOPK),
            HybridMatcher(objective),
        ]
        for matcher in [self.original, *self.improvements]:
            matcher.prepare(self.repository)
        # warm-up: one untimed pass, so every timed pass sees the pool's
        # labels as the first pass left them
        for number, batch in enumerate(self._batches(self.pool)):
            suite = self._suite(batch, f"warm{number}")
            original = run_system(self.original, suite, self.schedule)
            for matcher in self.improvements:
                validate_improvement(
                    original, run_system(matcher, suite, self.schedule)
                )

    def _improvement_op(self, matcher, suite, original):
        improved = run_system(matcher, suite, self.schedule)
        try:
            return improved, validate_improvement(original, improved)
        except (BoundsError, NotASubsetError) as exc:
            # a broken subset or score precondition is a wrong output,
            # reported by the checks below, not a failed operation
            return improved, exc

    def run_round(self, index):
        batches = self._batches(self.pool)
        self.rng_for("order", index).shuffle(batches)
        for number, batch in enumerate(batches):
            self._batch(self._suite(batch, f"p{index}b{number}"))

    def _batch(self, suite):
        self.clock.resume()
        original = self.timed_op(
            self.original.name, run_system, self.original, suite, self.schedule
        )
        judged = []
        for matcher in self.improvements:
            if original is None:  # nothing to validate against
                self.attempted += 1
                self.failed += 1
                continue
            judged.append(self.timed_op(
                matcher.name, self._improvement_op, matcher, suite, original
            ))
        self.clock.pause()
        # per-batch checks, outside the timed phase
        label = ", ".join(scenario.query.schema_id for scenario in suite)
        for outcome in judged:
            if outcome is None:
                continue
            improved, validation = outcome
            if not improved.answers.is_subset_of(original.answers):
                self.problem(f"{label}: {improved.name} is not a subset of S1")
            try:
                improved.answers.check_scores_match(original.answers)
            except NotASubsetError as exc:
                self.problem(f"{label}: {improved.name} scores: {exc}")
            if isinstance(validation, Exception):
                self.problem(f"{label}: {improved.name}: {validation}")
            elif not validation.sound:
                self.problem(f"{label}: bounds unsound for {improved.name}")
        if original is not None:
            kept = (suite, original.answers)
            self.first = self.first or kept
            self.last = kept

    def check(self):
        rng = self.rng_for("oracle")
        for kept in (self.first, self.last):
            if kept is None:
                continue
            suite, answers = kept
            triples = self.oracle_pairs(
                rng, self.repository,
                [(scenario.query, answers) for scenario in suite], 1,
            )
            self.brute_force_check(self.objective, self.schedule.final, triples)

    def counters(self):
        return _substrate_counters([self.objective])


# ---------------------------------------------------------------------------
# serve-1k
# ---------------------------------------------------------------------------

class Serve1k(Workload):
    """A ``MatchingService`` over 1000 schemas, as ``repro-bounds serve`` runs it.

    Exhaustive matcher, δ=0.2, serial executor, candidate cache off.  Two
    closed-loop clients (coroutines in this process) share each round's
    requests: eight fresh seeded queries, then two repeats of the round's
    first four.  Every round runs on a new service over a copy of the
    objective as set-up left it, warmed by eight requests (started, not
    timed).  A long-lived service gets cheaper per request the more it
    has served (a round built 23 cost rows at the start of one run and 7
    thirty rounds later), so a faster machine, which serves more rounds
    in a run, would also do less work per request.
    """

    name = "serve-1k"
    setup_reps = 3
    DELTA_MAX = 0.2
    CLIENTS = 2
    FRESH, REPEATS = 8, 2
    WARM_UP = 8
    CHECKED = 4

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.num_schemas = 100 if smoke else 1000
        self.warm_up = 4 if smoke else self.WARM_UP
        self.loop = asyncio.new_event_loop()
        self.service = None
        self.warm = None  # the warmed objective, pickled
        self.retired: dict[str, float] = {}
        self.sampled: dict[int, tuple] = {}

    def make_inputs(self):
        self.workload = _collection(self.num_schemas)
        self.repository = self.workload.repository
        # which fresh requests keep their answers for the end-of-run check
        # (a run makes at least ten rounds; a smoke run at least one)
        first_rounds = self.FRESH * (1 if self.smoke else 10)
        self.check_ordinals = set(
            self.rng_for("sample").sample(range(first_rounds), self.CHECKED)
        )

    async def _start(self, objective):
        self.objective = objective
        self.service = MatchingService(
            ExhaustiveMatcher(objective), self.DELTA_MAX,
            max_batch=32, cache=False,
        )
        await self.service.start(self.repository)

    async def _stop(self):
        """Stop the service, folding its counters into the totals."""
        if self.service is not None:
            _add(self.retired, self._service_counters())
            await self.service.stop()
            self.service = None

    async def _clients(self, requests, record):
        """Serve ``requests``, ``(query, kind)`` pairs, in order from two
        closed-loop clients; return the answers by query id."""
        pending = deque(requests)
        served = {}

        async def client():
            while pending:
                query, kind = pending.popleft()
                answers = await record(self.service.match(query), kind)
                if answers is not None:
                    served[id(query)] = answers

        await asyncio.gather(*(client() for _ in range(self.CLIENTS)))
        return served

    async def _setup(self):
        await self._start(_fresh_objective(
            self.workload.thesaurus, self.workload.config.weights
        ))
        warm = _queries(
            self.rng_for("warm-up"), self.repository, self.warm_up, "warm"
        )
        await self._clients([(query, "warm-up") for query in warm], _untimed)
        self.warm = pickle.dumps(self.objective)
        await self._stop()

    def setup(self, final):
        self.loop.run_until_complete(self._setup())
        self.retired = {}

    def run_round(self, index):
        rng = self.rng_for("round", index)
        fresh = _queries(rng, self.repository, self.FRESH, f"r{index}")
        rng.shuffle(fresh)
        # repeats of requests two clients have surely finished: at most
        # one request per client is in flight when a repeat is sent
        repeats = [
            fresh[position]
            for position in rng.sample(range(self.FRESH // 2), self.REPEATS)
        ]
        self.loop.run_until_complete(self._start(pickle.loads(self.warm)))
        self.clock.resume()
        requests = [(query, "fresh") for query in fresh]
        requests += [(query, "repeat") for query in repeats]
        served = self.loop.run_until_complete(
            self._clients(requests, self.timed_op_async)
        )
        self.clock.pause()
        self.loop.run_until_complete(self._stop())
        first_fresh = index * self.FRESH
        for offset, query in enumerate(fresh):
            if first_fresh + offset in self.check_ordinals and id(query) in served:
                self.sampled[first_fresh + offset] = (query, served[id(query)])

    def check(self):
        if not self.sampled:
            self.problem("no served answers were sampled for checking")
            return
        sampled = [self.sampled[key] for key in sorted(self.sampled)]
        queries = [query for query, _ in sampled]
        offline = ExhaustiveMatcher(_fresh_objective(
            self.workload.thesaurus, self.workload.config.weights
        )).batch_match(
            queries, self.repository, self.DELTA_MAX, workers=1, cache=False,
        )
        if canonical_answers([a for _, a in sampled]) != canonical_answers(offline):
            self.problem("served answers differ from offline batch_match")
        self.brute_force_check(
            self.objective, self.DELTA_MAX,
            self.oracle_pairs(
                self.rng_for("oracle"), self.repository, sampled, 2
            ),
        )

    def _service_counters(self):
        totals = _substrate_counters([self.objective])
        totals["service.batches"] = self.service.stats.batches
        totals["service.served_from_state"] = (
            self.service.stats.served_from_state
        )
        return totals

    def counters(self):
        totals = dict(self.retired)
        if self.service is not None:
            _add(totals, self._service_counters())
        return totals

    def close(self):
        if self.service is not None:
            self.loop.run_until_complete(self.service.stop())
            self.service = None
        _close_loop(self.loop)


# ---------------------------------------------------------------------------
# churn-remote
# ---------------------------------------------------------------------------

class ChurnRemote(Workload):
    """A 2-replica ``ReplicaGroup`` over two local socket workers, under churn.

    Built as ``repro-bounds serve --replicas 2 --remote-workers`` builds
    it: ``replica_group`` with one shared ``RemoteShardExecutor`` and the
    candidate cache off.  The workers are ``repro-bounds worker``
    processes.  One closed-loop client runs each round as
    query, query, delta, query, query, delta; deltas are 5% churn drawn
    against the group's current repository.  Every round starts a fresh
    group on the base repository (not timed), so the retained query set
    every delta re-matches, and the repository, which the deltas' adds
    and removes would otherwise random-walk in size, are the same size
    at the start of every round.
    """

    name = "churn-remote"
    setup_reps = 3
    DELTA_MAX = 0.2
    CHURN = 0.05
    WORKERS = 2
    PATTERN = ("query", "query", "delta", "query", "query", "delta")
    CHECK_EVERY = 4  # expected rounds between sampled delta checks

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.num_schemas = 30 if smoke else 120
        self.loop = asyncio.new_event_loop()
        self.workers: list[subprocess.Popen] = []
        self.group = None
        self.executor = None
        self.retired: dict[str, float] = {}
        self.last_served: list = []

    def make_inputs(self):
        self.workload = _collection(self.num_schemas)

    # -- worker processes ----------------------------------------------------

    def _spawn_workers(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")])
        )
        addresses = []
        for _ in range(self.WORKERS):
            process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "worker", "--port", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, env=env,
            )
            self.workers.append(process)
            line = process.stdout.readline()
            # "worker listening on HOST:PORT"
            if "listening on" not in line:
                raise RuntimeError(f"worker did not start: {line!r}")
            addresses.append(line.split()[3])
        return addresses

    def _stop_workers(self):
        for process in self.workers:
            if process.poll() is None:
                process.send_signal(signal.SIGINT)
        for process in self.workers:
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            process.stdout.close()
        self.workers = []

    # -- groups --------------------------------------------------------------

    def _retire_group(self):
        """Stop the live group, folding its counters into the totals."""
        if self.group is None:
            return
        _add(self.retired, self._group_counters(self.group))
        self.loop.run_until_complete(self.group.stop())
        self.group = None

    @staticmethod
    def _group_counters(group):
        services = group.services
        totals = _substrate_counters(
            [service.matcher.objective for service in services]
        )
        totals["service.batches"] = sum(s.stats.batches for s in services)
        totals["service.served_from_state"] = sum(
            s.stats.served_from_state for s in services
        )
        totals["replication.replicas_lagged"] = group.stats.replicas_lagged
        return totals

    def _start_group(self, repository):
        self.group = replica_group(
            "exhaustive", self.objective, self.WORKERS, self.DELTA_MAX,
            max_batch=32, cache=False, executor=self.executor,
        )
        self.loop.run_until_complete(self.group.start(repository))

    # -- operations ----------------------------------------------------------

    def _round_ops(self, label, index, timed):
        """One round of the pattern on the live group; returns its queries.

        Timed, each operation is recorded and the clock runs except while
        a delta is drawn against the current repository.
        """
        record = self.timed_op_async if timed else _untimed
        rng = self.rng_for(label, index)
        queries = iter(_queries(
            rng, self.repository, self.PATTERN.count("query"),
            f"{label}{index}",
        ))
        served = []
        if timed:
            self.clock.resume()
        for step, kind in enumerate(self.PATTERN):
            if kind == "query":
                query = next(queries)
                if self.loop.run_until_complete(
                    record(self.group.match(query), "query")
                ) is not None:
                    served.append(query)
                continue
            if timed:
                self.clock.pause()
            delta = churn_delta(
                self.group.repository, self.CHURN,
                seed=self.seed_for(label, index, step),
            )
            if timed:
                self.clock.resume()
            self.loop.run_until_complete(
                record(self.group.apply_delta(delta), "delta")
            )
        if timed:
            self.clock.pause()
        return served

    def setup(self, final):
        self.repository = self.workload.repository
        self.objective = _fresh_objective(
            self.workload.thesaurus, self.workload.config.weights
        )
        self.executor = RemoteShardExecutor(self._spawn_workers())
        self._start_group(self.repository)
        self._round_ops("warm-up", 0, timed=False)
        if not final:
            self._retire_group()
            self._stop_workers()
            self.retired = {}

    def run_round(self, index):
        self._retire_group()
        self._start_group(self.workload.repository)
        served = self._round_ops("round", index, timed=True)
        self.last_served = served
        if self.rng_for("check", index).randrange(self.CHECK_EVERY) == 0:
            self._check_group(f"round {index}", served)

    def _check_group(self, label, queries):
        """Replicas agree with each other and with a cold serial batch_match."""
        if not queries:
            return
        offline = canonical_answers(ExhaustiveMatcher(_fresh_objective(
            self.workload.thesaurus, self.workload.config.weights
        )).batch_match(
            queries, self.group.repository, self.DELTA_MAX,
            workers=1, cache=False,
        ))
        for position, query in enumerate(queries):
            per_replica = self.loop.run_until_complete(
                self.group.match_all(query)
            )
            for replica, answers in enumerate(per_replica):
                if canonical_answers([answers]) != [offline[position]]:
                    self.problem(
                        f"{label}: replica {replica} differs from cold "
                        f"batch_match on {query.schema_id}"
                    )

    def check(self):
        self._check_group("end of run", self.last_served)
        candidates = [
            (query, self.loop.run_until_complete(self.group.match(query)))
            for query in self.last_served
        ]
        self.brute_force_check(
            self.group.services[0].matcher.objective, self.DELTA_MAX,
            self.oracle_pairs(
                self.rng_for("oracle"), self.group.repository, candidates, 2
            ),
        )

    def counters(self):
        totals = dict(self.retired)
        if self.group is not None:
            _add(totals, self._group_counters(self.group))
        failures = 0
        if self.executor is not None:
            failures = sum(
                self.executor.worker_health(address).failures
                for address in self.executor.addresses
            )
        totals["remote.failures"] = failures
        totals["remote.worker_rss_mb"] = max(
            (
                host.process_rss_mb(process.pid)
                for process in self.workers if process.poll() is None
            ),
            default=0.0,
        )
        return totals

    def close(self):
        try:
            if self.group is not None:
                self.loop.run_until_complete(self.group.stop())
                self.group = None
        finally:
            self._stop_workers()
            _close_loop(self.loop)


WORKLOADS = {
    workload.name: workload for workload in (PaperSweep, Serve1k, ChurnRemote)
}
