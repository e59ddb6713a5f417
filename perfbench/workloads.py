"""The benchmark's five seeded workloads.

Each workload generates its inputs from the seed, builds the system
through the public API (``build_cluster``/``FrogWildRunner``,
``RankingService``, ``LiveRankingService``), drives it for a fixed
time, and checks the answers.  Sizes are class attributes so the
benchmark's tests can run every workload at toy scale.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import repro.engine as engine
import repro.pagerank as pagerank
from repro import FrogWildConfig, FrogWildRunner, exact_pagerank
from repro.core.frogwild import prime_ingress_caches
from repro.dynamic import ChurnGenerator, DynamicDiGraph
from repro.errors import ReproError
from repro.graph import rmat
from repro.live import LiveRankingService
from repro.metrics import normalized_mass_captured
from repro.serving import RankingQuery, RankingService
from repro.traffic import PoissonArrivals, TrafficWorkload, UserPopulation

from reference import answer_mass, exact_ppr
from summary import tail

#: Accuracy is scored on every answer's first K vertices.
K = 100


@dataclass
class Measurement:
    """What one measured phase produced."""

    #: The samples whose median is ``op_s``: one per unit of work.
    op_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    answered: int = 0
    #: Time the system worked on the answered queries: the sum of the
    #: operations in a closed loop (input generation and answer scoring
    #: between them excluded), the phases' wall time in an open loop.
    wall_s: float = 0.0
    #: Simulated network bytes of all answered work.
    net_bytes: float = 0.0
    #: ``mass_k100`` samples (normalized mass of an answer's top 100).
    mass: list[float] = field(default_factory=list)
    #: Failed answer checks, one line each.
    failures: list[str] = field(default_factory=list)
    #: Workload-specific metrics: name -> (unit, samples).
    extra: dict[str, tuple[str, list[float]]] = field(default_factory=dict)
    #: Answers, counts and state read during the phase, for the checks
    #: and the per-layer metrics.
    counts: dict[str, object] = field(default_factory=dict)

    def sample(self, name: str, unit: str, value: float) -> None:
        self.extra.setdefault(name, (unit, []))[1].append(float(value))

    def fail(self, message: str) -> None:
        self.failures.append(message)


class Workload:
    """Base class: inputs in ``__init__``, then set-up/measure/check."""

    name = ""
    #: Set-ups per run; ``setup_s`` is their median.  Each workload
    #: sizes it to about two seconds of set-up on a 2-CPU x86-64 host.
    SETUPS = 5

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)

    def prepare(self):
        """Per-set-up inputs that must not be timed (default: none)."""
        return None

    def setup(self, prepared):
        """Build the system ready to serve; this is what ``setup_s`` times."""
        raise NotImplementedError

    def teardown(self, system) -> None:
        """Release what :meth:`setup` built (workers, threads)."""

    def measure(self, system, seconds: float) -> Measurement:
        raise NotImplementedError

    def check(self, measurement: Measurement) -> None:
        """Append failed answer checks to ``measurement.failures``."""

    def instrument(self, patcher, system, probe) -> None:
        """Install instance-level span wrappers on a built system."""

    def traced_extras(self, system, measurement, patcher) -> None:
        """Traced-run-only work (baselines, comparison backends)."""


#: The live tests' golden mass tolerance: top-20 mass above 0.8.  Those
#: tests run 30k frogs; at this benchmark's 2000 frogs single queries
#: dip below it (0.77 seen), so it holds for the sample mean, and every
#: single answer must still clear GOLDEN_FLOOR.
GOLDEN_K = 20
GOLDEN_MASS = 0.8
GOLDEN_FLOOR = 0.5


def check_golden(m: Measurement, answers, truths) -> None:
    """Score answers against exact PPR: ``mass_k100`` and golden mass."""
    golden = []
    for answer, truth in zip(answers, truths):
        m.mass.append(answer_mass(answer.vertices, truth, K))
        golden.append(answer_mass(answer.vertices, truth, GOLDEN_K))
        if golden[-1] <= GOLDEN_FLOOR:
            m.fail(
                f"query {answer.query.seeds}: top-{GOLDEN_K} mass "
                f"{golden[-1]:.3f} <= {GOLDEN_FLOOR}"
            )
    if statistics.fmean(golden) <= GOLDEN_MASS:
        m.fail(
            f"mean top-{GOLDEN_K} mass {statistics.fmean(golden):.3f} "
            f"<= {GOLDEN_MASS} over {len(golden)} answers"
        )
    m.extra["mass_k100"] = ("fraction", list(m.mass))
    m.extra[f"mass_k{GOLDEN_K}"] = ("fraction", golden)


def check_lengths(m: Measurement, answers) -> None:
    """Every answer must carry k vertices."""
    for answer in answers:
        if len(answer.vertices) != K:
            m.fail(
                f"answer for {answer.query.seeds} has "
                f"{len(answer.vertices)} vertices, want {K}"
            )
            return


def _until(seconds: float):
    """Yield until ``seconds`` have passed (always at least once).

    Another operation starts only if, at the length of the last one, it
    ends nearer to ``seconds`` than stopping now would: a run of long
    operations overshoots by at most half of one.
    """
    start = last = time.perf_counter()
    while True:
        yield
        now = time.perf_counter()
        if now - start + (now - last) / 2 >= seconds:
            break
        last = now


# ----------------------------------------------------------------------
class GlobalTopK(Workload):
    name = "global-topk"
    SETUPS = 7
    SCALE = 16
    MACHINES = 16
    FROGS = 800_000
    ITERATIONS = 4
    PS = 0.7
    MASS_FLOOR = 0.95
    GRAPHLAB_ITERATIONS = 4

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.graph = rmat(self.SCALE, seed=self.seed)
        self.config = FrogWildConfig(
            num_frogs=self.FROGS,
            iterations=self.ITERATIONS,
            ps=self.PS,
            seed=self.seed,
        )
        self.truth = exact_pagerank(self.graph)

    def setup(self, prepared):
        # Ingress once; every run then gets fresh accounting over it.
        table = engine.build_cluster(
            self.graph, self.MACHINES, seed=self.seed
        ).replication
        prime_ingress_caches(table, self.graph)
        return table

    def fresh_state(self, table):
        return engine.build_cluster(
            self.graph, self.MACHINES, seed=self.seed, replication=table
        )

    def measure(self, table, seconds: float) -> Measurement:
        m = Measurement()
        for _ in _until(seconds):
            m.attempted += 1
            start = time.perf_counter()
            state = self.fresh_state(table)
            result = FrogWildRunner(state, self.config).run()
            elapsed = time.perf_counter() - start
            m.op_s.append(elapsed)
            m.answered += 1
            report = result.report
            m.net_bytes += report.network_bytes
            m.sample("run_s", "s", elapsed)
            m.sample("net_bytes", "bytes", report.network_bytes)
            m.sample("sim_cpu_ops", "count", state.stats.total_cpu_ops())
            m.mass.append(
                normalized_mass_captured(
                    result.estimate.vector(), self.truth, K
                )
            )
        m.extra["mass_k100"] = ("fraction", list(m.mass))
        m.wall_s = sum(m.op_s)
        return m

    def check(self, m: Measurement) -> None:
        low = min(m.mass)
        if low < self.MASS_FLOOR:
            m.fail(f"mass_k100 {low:.4f} below floor {self.MASS_FLOOR}")
        distinct = set(m.extra["net_bytes"][1])
        if len(distinct) != 1:
            m.fail(f"net_bytes differ between same-seed runs: {sorted(distinct)}")

    def traced_extras(self, table, m: Measurement, patcher) -> None:
        # The paper's baseline on the same ingress (traced run only).
        result = pagerank.graphlab_pagerank(
            self.graph,
            self.MACHINES,
            iterations=self.GRAPHLAB_ITERATIONS,
            state=self.fresh_state(table),
        )
        m.counts["graphlab_net_bytes"] = float(result.report.network_bytes)


# ----------------------------------------------------------------------
class BatchInproc(Workload):
    name = "batch-inproc"
    SETUPS = 11
    BACKEND = "sharded"
    SCALE = 14
    SHARDS = 2
    MACHINES = 16
    BATCH = 64
    SEEDS_PER_QUERY = 3
    FROGS = 2000
    ITERATIONS = 6
    PS = 0.7
    #: Queries of the first batch scored against exact PPR.
    MASS_SAMPLE = 16

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.graph = rmat(self.SCALE, seed=self.seed)
        self.config = FrogWildConfig(
            num_frogs=self.FROGS,
            iterations=self.ITERATIONS,
            ps=self.PS,
            seed=self.seed,
        )
        self._rng = np.random.default_rng([53, self.seed])
        self.batches: list[list[RankingQuery]] = []

    def batch(self, index: int) -> list[RankingQuery]:
        """The ``index``-th batch of the seed's deterministic stream."""
        while len(self.batches) <= index:
            seen: set[tuple[int, ...]] = set()
            queries = []
            while len(queries) < self.BATCH:
                seeds = tuple(
                    sorted(
                        self._rng.choice(
                            self.graph.num_vertices,
                            size=self.SEEDS_PER_QUERY,
                            replace=False,
                        ).tolist()
                    )
                )
                if seeds not in seen:
                    seen.add(seeds)
                    queries.append(RankingQuery(seeds=seeds, k=K))
            self.batches.append(queries)
        return self.batches[index]

    def service(self, backend: str) -> RankingService:
        return RankingService(
            self.graph,
            config=self.config,
            backend=backend,
            num_shards=self.SHARDS,
            num_machines=self.MACHINES,
            max_batch_size=self.BATCH,
            cache_capacity=0,
            seed=self.seed,
        )

    def setup(self, prepared):
        return self.service(self.BACKEND)

    def teardown(self, service) -> None:
        service.close()

    def measure(self, service, seconds: float) -> Measurement:
        m = Measurement()
        m.counts["answers"] = []
        bytes_before = service.stats.shared_network_bytes
        index = 0
        for _ in _until(seconds):
            queries = self.batch(index)
            index += 1
            m.attempted += len(queries)
            start = time.perf_counter()
            try:
                answers = service.query_batch(queries)
            except ReproError as error:
                m.failed += len(queries)
                m.fail(f"batch {index - 1} failed: {error!r}")
                continue
            elapsed = time.perf_counter() - start
            m.op_s.append(elapsed)
            m.answered += len(answers)
            m.counts["answers"].append((index - 1, answers))
            m.sample("batch_s", "s", elapsed)
            m.sample("qps", "1/s", len(answers) / elapsed)
        m.net_bytes = service.stats.shared_network_bytes - bytes_before
        m.counts["batches"] = float(index)
        m.wall_s = sum(m.op_s)
        return m

    def check(self, m: Measurement) -> None:
        batches = m.counts["answers"]
        for _, answers in batches:
            check_lengths(m, answers)
        if not batches:
            m.fail("no batch answered")
            return
        sample = batches[0][1][: self.MASS_SAMPLE]
        truth = exact_ppr(self.graph, [a.query.seeds for a in sample])
        check_golden(m, sample, [truth[:, i] for i in range(len(sample))])

    def instrument(self, patcher, service, probe) -> None:
        patcher.wrap(service, "query_batch", "serving.service.query_batch")
        patcher.wrap(service.backend, "run_batch", "serving.backend.run_batch")


class BatchProcess(BatchInproc):
    name = "batch-process"
    SETUPS = 9
    BACKEND = "process"

    def measure(self, service, seconds: float) -> Measurement:
        before = service.backend.transport_summary()
        m = super().measure(service, seconds)
        after = service.backend.transport_summary()
        for key in ("sent_measured_bytes", "sent_messages"):
            m.counts[key] = after[key] - before[key]
        m.counts["transport_reconciles"] = after["reconciles"]
        m.counts["respawns"] = float(service.backend.supervisor.stats.respawns)
        return m

    def check(self, m: Measurement) -> None:
        super().check(m)
        if m.counts["respawns"]:
            m.fail(f"{m.counts['respawns']:.0f} worker respawns")
        if m.counts["transport_reconciles"] != 1.0:
            m.fail("transport bytes do not reconcile with the size model")
        # Bitwise parity with the in-process sharded backend on the
        # very same batches (the repo pins this equality in its tests).
        reference = self.service("sharded")
        try:
            self.compare(reference, m)
        finally:
            reference.close()

    def compare(self, reference, m: Measurement) -> None:
        for index, answers in m.counts["answers"]:
            expected = reference.query_batch(self.batch(index))
            for got, want in zip(answers, expected):
                if not (
                    np.array_equal(got.vertices, want.vertices)
                    and np.array_equal(got.scores, want.scores)
                ):
                    m.fail(
                        f"batch {index}: process answer for {got.query.seeds} "
                        "differs from the in-process sharded answer"
                    )
                    return

    def traced_extras(self, service, m: Measurement, patcher) -> None:
        # The in-process run_batch time on the same batches, for the
        # transport gap (serving.process_backend.gap_s).
        reference = self.service("sharded")
        try:
            patcher.wrap(
                reference.backend, "run_batch", "serving.backend.run_batch.inproc"
            )
            for index, _ in m.counts["answers"]:
                reference.query_batch(self.batch(index))
        finally:
            reference.close()


# ----------------------------------------------------------------------
class ZipfPopulation:
    """The Zipf user population shared by zipf-open and live-churn."""

    USERS = 4000
    SEEDS_PER_USER = 3
    USER_EXPONENT = 0.6
    VERTEX_EXPONENT = 0.5

    def __init__(self, graph, seed: int) -> None:
        self.seed = seed
        self.users = UserPopulation(
            self.USERS,
            graph.num_vertices,
            seeds_per_user=self.SEEDS_PER_USER,
            vertex_exponent=self.VERTEX_EXPONENT,
            k=K,
            seed=seed,
        )
        ranks = np.arange(1, self.USERS + 1, dtype=np.float64)
        weights = ranks ** -self.USER_EXPONENT
        self.weights = weights / weights.sum()

    def schedule(self, rate: float, phase: int, duration_s: float):
        """Poisson arrivals at ``rate`` for ``duration_s`` seconds."""
        traffic = TrafficWorkload(
            self.users,
            PoissonArrivals(rate, seed=self.seed * 16 + phase),
            user_exponent=self.USER_EXPONENT,
            seed=self.seed * 16 + phase,
        )
        return traffic.events(duration_s)

    def batch(self, tick: int, size: int) -> list[RankingQuery]:
        """``size`` Zipf-drawn users' queries for one live tick."""
        rng = np.random.default_rng([59, self.seed, tick])
        users = rng.choice(self.USERS, size=size, p=self.weights)
        return [self.users.query_for(int(u)) for u in users]


@dataclass
class Phase:
    """One fixed-rate open-loop phase of zipf-open."""

    rate: float
    latencies: list[float] = field(default_factory=list)
    late: list[float] = field(default_factory=list)
    #: Sent but unanswered queries, sampled at every send; one list per
    #: round (each round starts from an empty queue).
    backlogs: list[list[int]] = field(default_factory=list)
    #: ``pending_count()`` of the scheduler, sampled at every send.
    queued: list[int] = field(default_factory=list)
    answers: list = field(default_factory=list)
    sent: int = 0
    failed: int = 0
    wall_s: float = 0.0

    def growing_backlog(self, batch: int) -> bool:
        """In some round, unanswered queries in the last third above the
        first third's by more than a batch."""
        for backlog in self.backlogs:
            third = len(backlog) // 3
            if third == 0:
                continue
            head = statistics.median(backlog[:third])
            end = statistics.median(backlog[-third:])
            if end > head + batch:
                return True
        return False


class ZipfOpen(Workload):
    name = "zipf-open"
    SETUPS = 15
    SCALE = 14
    MACHINES = 16
    MAX_BATCH = 16
    MAX_DELAY_S = 0.01
    CACHE = 1024
    FROGS = 2000
    ITERATIONS = 6
    PS = 0.7
    #: Fixed offered rates (queries/s): about 1/4, 1/2 and 3/4 of the
    #: saturation rate (~220 queries/s, where the median latency jumps
    #: past 0.3 s) measured on a 2-CPU x86-64 host.
    RATES = {"lo": 30.0, "mid": 60.0, "hi": 90.0}
    #: The rates take turns this many times, so each rate's latencies
    #: are sampled across the whole run, not in one slice of it.
    ROUNDS = 3
    SLO_S = 0.1
    POPULATION = ZipfPopulation
    POLL_S = 0.001
    DRAIN_S = 3.0
    #: Distinct answers scored: ``mass_k100`` varies with the queries a
    #: seed draws, and 16 left it spreading 0.027 across seeds.
    MASS_SAMPLE = 32

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.graph = rmat(self.SCALE, seed=self.seed)
        self.config = FrogWildConfig(
            num_frogs=self.FROGS,
            iterations=self.ITERATIONS,
            ps=self.PS,
            seed=self.seed,
        )
        self.population = self.POPULATION(self.graph, self.seed)

    def setup(self, prepared):
        return RankingService(
            self.graph,
            config=self.config,
            num_machines=self.MACHINES,
            max_batch_size=self.MAX_BATCH,
            max_delay_s=self.MAX_DELAY_S,
            cache_capacity=self.CACHE,
            seed=self.seed,
        ).start()

    def teardown(self, service) -> None:
        service.close()

    def run_phase(self, service, events, phase: Phase) -> None:
        """One round of ``phase``: send ``events``, then drain."""
        outstanding: list = []
        backlog: list[int] = []
        phase.backlogs.append(backlog)

        def finish(future, due, now):
            try:
                answer = future.result(0)
            except ReproError:
                phase.failed += 1
                return
            phase.latencies.append(now - due)
            phase.answers.append(answer)

        def poll(now):
            waiting = []
            for future, due in outstanding:
                if future.done():
                    finish(future, due, now)
                else:
                    waiting.append((future, due))
            outstanding[:] = waiting

        start = time.perf_counter()
        for event in events:
            due = start + event.time_s
            while True:
                now = time.perf_counter()
                poll(now)
                if now >= due:
                    break
                time.sleep(min(self.POLL_S, due - now))
            phase.late.append(time.perf_counter() - due)
            future = service.submit_query(event.query)
            phase.sent += 1
            phase.queued.append(service.scheduler.pending_count())
            if future.done():
                finish(future, due, time.perf_counter())
            else:
                outstanding.append((future, due))
            backlog.append(len(outstanding))
        deadline = time.perf_counter() + self.DRAIN_S
        while outstanding and time.perf_counter() < deadline:
            poll(time.perf_counter())
            time.sleep(self.POLL_S)
        phase.failed += len(outstanding)  # timed out
        phase.wall_s += time.perf_counter() - start

    def measure(self, service, seconds: float) -> Measurement:
        m = Measurement()
        phases = {label: Phase(rate) for label, rate in self.RATES.items()}
        bytes_before = service.stats.shared_network_bytes
        duration = seconds / (len(self.RATES) * self.ROUNDS)
        index = 0
        for _ in range(self.ROUNDS):
            for phase in phases.values():
                events = self.population.schedule(phase.rate, index, duration)
                self.run_phase(service, events, phase)
                index += 1
        for label, phase in phases.items():
            m.attempted += phase.sent
            m.failed += phase.failed
            m.answered += len(phase.answers)
            m.wall_s += phase.wall_s
            if phase.latencies:
                value, percentile, n = tail(phase.latencies)
                m.sample(f"p50_s.{label}", "s", statistics.median(phase.latencies))
                m.sample(f"tail_s.{label}", "s", value)
                m.sample(f"tail_pct.{label}", "percentile", percentile)
                m.sample(f"tail_n.{label}", "count", n)
        # The gated latency is the lightest rate's: queueing at the
        # higher rates amplifies host noise (their medians are printed).
        m.op_s = list(phases["lo"].latencies)
        m.net_bytes = service.stats.shared_network_bytes - bytes_before
        meeting = [
            phase.rate
            for label, phase in phases.items()
            if f"tail_s.{label}" in m.extra
            and m.extra[f"tail_s.{label}"][1][-1] <= self.SLO_S
            and not phase.failed
            and not phase.growing_backlog(self.MAX_BATCH)
        ]
        m.sample("max_qps_slo", "1/s", max(meeting, default=0.0))
        m.counts["phases"] = phases
        m.sample("cache_hit_rate", "fraction", service.cache.stats.hit_rate())
        return m

    def check(self, m: Measurement) -> None:
        phases = m.counts["phases"]
        for phase in phases.values():
            check_lengths(m, phase.answers)
        if not phases["mid"].answers:
            m.fail("no query answered at the mid rate")
            return
        sample, seen = [], set()
        for answer in phases["mid"].answers:
            if answer.query.seeds not in seen:
                seen.add(answer.query.seeds)
                sample.append(answer)
            if len(sample) == self.MASS_SAMPLE:
                break
        truth = exact_ppr(self.graph, [a.query.seeds for a in sample])
        check_golden(m, sample, [truth[:, i] for i in range(len(sample))])

    def instrument(self, patcher, service, probe) -> None:
        patcher.install(service, "submit_query", probe.stamp_submit)
        patcher.wrap(service, "submit_query", "serving.service.submit")
        patcher.install(service.backend, "run_batch", probe.stamp_dispatch)
        patcher.wrap(service.backend, "run_batch", "serving.backend.run_batch")


# ----------------------------------------------------------------------
class LiveChurn(Workload):
    name = "live-churn"
    SETUPS = 7
    SCALE = 14
    MACHINES = 16
    CHURN_RATE = 1e-4
    READ_BATCH = 16
    CACHE = 1024
    FROGS = 2000
    ITERATIONS = 6
    PS = 0.7
    #: Queries per tick scored against exact PPR on that tick's snapshot.
    CHECKS_PER_TICK = 2
    #: Ticks scored, evenly spaced over the run (exact PPR on a
    #: snapshot costs about half a tick).
    CHECKED_TICKS = 16
    POPULATION = ZipfPopulation

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.graph = rmat(self.SCALE, seed=self.seed)
        self.config = FrogWildConfig(
            num_frogs=self.FROGS,
            iterations=self.ITERATIONS,
            ps=self.PS,
            seed=self.seed,
        )
        self.population = self.POPULATION(self.graph, self.seed)

    def prepare(self) -> DynamicDiGraph:
        # The live graph is an input: it is built before the timer runs.
        return DynamicDiGraph.from_digraph(self.graph)

    def setup(self, source: DynamicDiGraph) -> LiveRankingService:
        return LiveRankingService(
            source,
            config=self.config,
            num_machines=self.MACHINES,
            max_batch_size=self.READ_BATCH,
            cache_capacity=self.CACHE,
            seed=self.seed,
        )

    def teardown(self, service) -> None:
        service.close()

    def churn(self) -> ChurnGenerator:
        """The seeded delta stream (each delta depends on the graph's state)."""
        return ChurnGenerator(
            add_rate=self.CHURN_RATE, remove_rate=self.CHURN_RATE, seed=self.seed
        )

    def measure(self, service, seconds: float) -> Measurement:
        m = Measurement()
        churn = self.churn()
        bytes_before = service.stats.shared_network_bytes
        updates, checks = [], []
        tick = 0
        for _ in _until(seconds):
            delta = churn.step(service.source)
            queries = self.population.batch(tick, self.READ_BATCH)
            tick += 1
            m.attempted += 1 + len(queries)
            start = time.perf_counter()
            try:
                update = service.refresh(delta)
                refreshed = time.perf_counter()
                answers = service.query_batch(queries)
            except ReproError as error:
                m.failed += 1 + len(queries)
                m.fail(f"tick {tick - 1} failed: {error!r}")
                continue
            end = time.perf_counter()
            m.op_s.append(end - start)
            m.answered += len(answers)
            m.sample("refresh_s", "s", refreshed - start)
            m.sample("read_s", "s", end - refreshed)
            updates.append(update)
            checks.append((service.current_epoch.graph, answers))
        m.net_bytes = service.stats.shared_network_bytes - bytes_before
        m.wall_s = sum(m.op_s)
        m.counts["updates"] = updates
        m.counts["checks"] = checks
        m.counts["reuse_ratio"] = service.live_stats()["lifetime_reuse_ratio"]
        return m

    def check(self, m: Measurement) -> None:
        answered, truths = [], []
        checks = m.counts["checks"]
        for _, answers in checks:
            check_lengths(m, answers)
        step = max(1, -(-len(checks) // self.CHECKED_TICKS))
        for snapshot, answers in checks[::step]:
            sample = answers[: self.CHECKS_PER_TICK]
            truth = exact_ppr(snapshot, [a.query.seeds for a in sample])
            answered.extend(sample)
            truths.extend(truth[:, i] for i in range(len(sample)))
        if not answered:
            m.fail("no tick completed")
            return
        check_golden(m, answered, truths)

    def instrument(self, patcher, service, probe) -> None:
        patcher.wrap(service, "query_batch", "serving.service.query_batch")
        patcher.wrap(service, "refresh", "live.service.refresh")
        patcher.wrap(service.backend, "run_batch", "serving.backend.run_batch")
        patcher.wrap(service.source, "apply", "dynamic.apply")
        patcher.wrap(service.source, "snapshot", "dynamic.snapshot")
        for replicator in service.replicators:
            patcher.wrap(replicator, "plan_refresh", "live.ingress.plan")
            patcher.wrap(replicator, "apply_plan", "live.ingress.apply")
        patcher.wrap(service.epochs, "publish", "live.epoch.publish")


WORKLOADS = {
    cls.name: cls
    for cls in (GlobalTopK, BatchInproc, BatchProcess, ZipfOpen, LiveChurn)
}
