"""The four benchmark workloads.

Each workload turns ``--seed`` into its own inputs (a warm checkpoint,
a hex-city config, a recorded event stream), then measures the program
through its public entry points for the requested number of seconds.
``measure(trace=False)`` returns the end-to-end metrics;
``measure(trace=True)`` alternates untraced and traced runs and returns
the per-layer metrics of ``layers.py``.

Every workload is a decision server, and its end-to-end metrics are
taken from saturated closed loops: the DES engines, and the service
answering one ``submit`` at a time and pipelined ``submit_many``
groups.  The three ``serve_*`` end-to-end metrics therefore exist on
every workload.  The service's open loop (nominal rate and capacity
ladder) runs in the traced run and reports per-layer figures;
README.md says why.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import math
import multiprocessing
import statistics
import sys
from array import array
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import host
import layers
from spans import DecisionClock, GcMonitor, Tracer

from repro.serve import AdmissionService, StreamEvent, comparable_counters, record_run
from repro.serve.events import ARRIVAL, HANDOFF
from repro.simulation.metrics import MetricsCollector
from repro.simulation.scenarios import hex_city, stationary
from repro.simulation.simulator import CellularSimulator
from repro.simulation.spatial import ShardEngine, run_spatial
from repro.state import restore_simulator, save_checkpoint

#: The service's own default per-decision budget (``budget_ms``): the
#: latency limit of the capacity ladder.
LIMIT_MS = 5.0

#: The event loop sleeps in whole milliseconds; the generator sleeps
#: until this close to a send's due time and then yields until it.
SLEEP_SLACK_S = 0.0015

#: Share of the offered rate a ladder rung must answer: below it the
#: backlog grew during the rung.
KEEP_UP = 0.95

#: Minimum untraced repetitions, whatever ``--seconds`` says.
MIN_REPS = 3

#: Wall seconds after which an unanswered query counts as never resolved.
RESOLVE_TIMEOUT_S = 10.0

#: Wall seconds after which a measurement stops early (a broken or
#: badly slowed program still reports within the run's time limit).
HARD_STOP_S = 120.0

#: The paper ring scenario shared by the ring and serve workloads.
RING = {"offered_load": 200.0, "voice_ratio": 0.8, "high_mobility": True}


def digest(result) -> str:
    """Digest of a run's counters (``events_processed`` excluded)."""
    payload = json.dumps(comparable_counters(result), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(fraction * len(ordered))))
    return ordered[rank - 1]


def best_quartile(values, higher_is_better: bool) -> float:
    """The quartile of repeated measurements on the better side.

    The host's contention only ever slows a repetition down, so the
    better quartile (upper for speeds, lower for durations) estimates
    the program's own cost with less of the neighbours' noise than the
    median, without resting on a single luckiest repetition.
    """
    if len(values) == 1:
        return values[0]
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return high if higher_is_better else low


def decisions_of(result) -> int:
    return sum(cell.new_requests + cell.handoff_attempts for cell in result.cells)


def _child_main(function, sender) -> None:
    try:
        sender.send(("ok", function()))
    except Exception as error:  # reported by the parent
        sender.send(("error", f"{type(error).__name__}: {error}"))
    finally:
        sender.close()


def in_child(function):
    """``function()`` run in a forked child process; returns its result.

    The inputs a workload builds from its seed (a warm run, a recorded
    stream) are made in a child, so they never occupy the measured
    process: its peak resident set covers only the measured runs.  The
    child is forked, as the program's own shard workers are, so it
    needs no second import of the program.
    """
    sys.stdout.flush()  # the child must not repeat buffered output
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_child_main, args=(function, sender))
    child.start()
    sender.close()
    try:
        status, value = receiver.recv()
    except EOFError:
        status, value = "error", "the input builder died without a result"
    finally:
        receiver.close()
        child.join()
    if status != "ok":
        raise RuntimeError(f"building the inputs failed: {value}")
    return value


class Outcome:
    """What one workload measurement produced."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.details: dict = {}
        #: The traced run's first raw spans (see ``spans.KEEP_SPANS``).
        self.spans: list = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


class _RepeatedWorkload:
    """A workload measured as repetitions of one fixed-horizon run.

    Subclasses implement :meth:`prepare` (inputs from the seed) and
    :meth:`rep`, one run returning ``(setup_s, run_s, result)``.
    """

    horizon = 0.0

    def __init__(self, name: str, seed: int, seconds: float, workdir: Path) -> None:
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.state_bytes = 0
        self.base_decisions = 0
        self.base_events = 0
        #: Engine events per simulated second, from the first run.
        self.events_per_sim_s = 0.0

    def series_expected(self) -> int:
        return 0

    def _one(self, outcome: Outcome, tracer: Tracer | None, clock: DecisionClock | None):
        """One repetition; a run that raises or does not check fails."""
        outcome.attempted += 1
        try:
            with clock or nullcontext():
                setup_s, run_s, result = self.rep(tracer)
        except Exception as error:
            outcome.fail(f"{type(error).__name__}: {error}")
            return None
        value = digest(result)
        outcome.digests.append(value)
        if value != outcome.digests[0]:
            outcome.fail(f"run digest {value} differs from {outcome.digests[0]}")
            return None
        if not self.events_per_sim_s:
            self.events_per_sim_s = (
                result.events_processed - self.base_events
            ) / self.horizon
        return setup_s, run_s, result

    def measure(self, trace: bool) -> Outcome:
        outcome = Outcome()
        started = perf_counter()
        deadline = started + self.seconds
        track = host.SpeedTrack()
        setups: list[float] = []
        speeds: list[float] = []
        rates: list[float] = []
        p50s: list[float] = []
        p99s: list[float] = []
        traced_speeds: list[float] = []
        raw_speeds: list[float] = []
        raw_p99s: list[float] = []
        tracer = Tracer()
        gc_monitor = GcMonitor()
        result = None
        while len(speeds) < MIN_REPS or perf_counter() < deadline:
            if perf_counter() - started > HARD_STOP_S or outcome.failed:
                break  # report what failed or ran so far
            # Untraced runs carry only the decision clock (one timestamp
            # per decision) — and none in trace mode, where the untraced
            # speed is the tracing-overhead baseline.
            clock = None if trace else DecisionClock(MetricsCollector)
            before = host.probe()
            done = self._one(outcome, None, clock)
            speed_now = track.around(before)
            if done is not None:
                setup_s, run_s, result = done
                raw_speeds.append(self.horizon / run_s)
                setups.append(setup_s * speed_now)
                speeds.append(self.horizon / run_s / speed_now)
                decided = decisions_of(result) - self.base_decisions
                rates.append(decided / run_s / speed_now)
                if clock is not None:
                    gaps = clock.gaps_ms()
                    p50s.append(percentile(gaps, 0.50) * speed_now)
                    p99s.append(percentile(gaps, 0.99) * speed_now)
                    raw_p99s.append(percentile(gaps, 0.99))
            if not trace:
                continue
            layers.install(tracer)
            before = host.probe()
            try:
                with gc_monitor:
                    done = self._one(outcome, tracer, None)
            finally:
                tracer.unpatch()
            speed_now = track.around(before)
            if done is not None:
                traced_speeds.append(self.horizon / done[1] / speed_now)
                layers.from_result(tracer, done[2])
        if not speeds:
            return outcome
        speed = best_quartile(speeds, True)
        outcome.details = {
            "horizon_s": self.horizon,
            "sim_speed_all": [round(value, 3) for value in speeds],
            "sim_speed_raw": [round(value, 3) for value in raw_speeds],
            "serve_p99_ms_raw": [round(value, 5) for value in raw_p99s],
            "host_speed": [round(value, 3) for value in track.samples],
            "setup_s_all": [round(value, 5) for value in setups],
            "digest": outcome.digests[0],
            "p_cb": result.blocking_probability,
            "p_hd": result.dropping_probability,
        }
        if trace:
            outcome.spans = tracer.spans
            outcome.metrics = layers.metrics(
                tracer,
                reps=max(1, len(traced_speeds)),
                gc_monitor=gc_monitor,
                untraced_speed=speed,
                traced_speed=best_quartile(traced_speeds, True) if traced_speeds else 0.0,
                events_per_s=speed * self.events_per_sim_s,
                state_bytes=self.state_bytes,
                series_expected=self.series_expected(),
                serve=None,
            )
            return outcome
        outcome.metrics = {
            "setup_s": (best_quartile(setups, False), "s"),
            "sim_speed": (speed, "x"),
            "serve_p50_ms": (best_quartile(p50s, False), "ms"),
            "serve_p99_ms": (best_quartile(p99s, False), "ms"),
            "serve_capacity_dps": (best_quartile(rates, True), "1/s"),
        }
        return outcome


class RingWorkload(_RepeatedWorkload):
    """The paper ring (10 cells, L=200, high mobility), restored from a
    warm checkpoint and run for a fixed horizon."""

    warmup = 1000.0

    def __init__(self, name, scheme, horizon, series_interval, *args) -> None:
        super().__init__(name, *args)
        self.scheme = scheme
        self.horizon = horizon
        self.series_interval = series_interval
        self.checkpoint = self.workdir / f"{name}-warm"
        self.config = stationary(
            scheme, duration=self.warmup, seed=self.seed, **RING
        )

    def _warm_checkpoint(self) -> tuple[int, int, int]:
        simulator = CellularSimulator(self.config)
        warm = simulator.run()
        save_checkpoint(simulator, self.checkpoint)
        state_bytes = sum(
            item.stat().st_size for item in self.checkpoint.rglob("*") if item.is_file()
        )
        return state_bytes, decisions_of(warm), warm.events_processed

    def prepare(self) -> None:
        self.state_bytes, self.base_decisions, self.base_events = in_child(
            self._warm_checkpoint
        )

    def rep(self, tracer: Tracer | None):
        config = replace(
            self.config,
            duration=self.warmup + self.horizon,
            series_interval=self.series_interval,
            telemetry=tracer is not None,
        )
        started = perf_counter()
        with tracer.span("state.restore") if tracer else nullcontext():
            simulator = restore_simulator(self.checkpoint, config)
        restored = perf_counter()
        result = simulator.run()
        return restored - started, perf_counter() - restored, result

    def series_expected(self) -> int:
        if self.series_interval <= 0:
            return 0
        return int(self.horizon / self.series_interval)


class CityWorkload(_RepeatedWorkload):
    """30x30 hex city, AC3, L=700, one in-process shard, cold start."""

    horizon = 10.0

    def __init__(self, name, *args) -> None:
        super().__init__(name, *args)
        self.config = hex_city(
            "AC3",
            rows=30,
            cols=30,
            offered_load=700.0,
            voice_ratio=0.8,
            duration=self.horizon,
            seed=self.seed,
        )

    def prepare(self) -> None:
        pass

    def rep(self, tracer: Tracer | None):
        # run_spatial builds its engine itself: time the construction by
        # wrapping the constructor (one call per run).
        setup = Tracer()
        setup.wrap(ShardEngine, "__init__", "setup")
        config = replace(self.config, telemetry=tracer is not None)
        started = perf_counter()
        try:
            result = run_spatial(config, 1, processes=False)
        finally:
            setup.unpatch()
        elapsed = perf_counter() - started
        setup_s = setup.stats("setup").total_s
        return setup_s, elapsed - setup_s, result


class _LoopTotals:
    """One closed loop's segments in a build."""

    def __init__(self) -> None:
        self.time = 0.0
        self.stream_s = 0.0
        self.decided = 0
        self.latencies = array("d")

    def add(self, stats: dict) -> None:
        self.time += stats["elapsed_s"]
        self.stream_s += stats["stream_s"]
        self.decided += stats["decided"]
        self.latencies.extend(stats["latencies"])


class ServeWorkload:
    """A recorded ring AC3 stream served by ``AdmissionService``.

    Each build of a service replays the warm-up prefix (its set-up),
    then answers the stream that follows in two saturated closed loops
    of traffic the service ships for: one ``submit`` per event awaited
    before the next (the WebSocket gateway's and ``admit``'s
    request/response shape), then ``submit_many`` groups of loadgen's
    default pipeline, one group in flight.  In the traced run a further
    service is sent the stream open-loop, one ``submit`` per event, at
    a nominal rate and up a ladder of rates.
    """

    warmup = 300.0
    recorded = 1800.0
    #: Warm-up replay group (set-up only: no timed figure comes from it).
    warmup_group = 256
    #: Each build alternates this many segments of each closed loop,
    #: with a host-speed probe between segments (the host's speed
    #: changes within a second; the build's median probe normalises it).
    segments = 8
    #: Queries per segment answered one ``submit`` at a time.
    single_queries = 500
    #: Events per ``submit_many`` group: ``loadgen.run_load``'s default.
    pipeline = 32
    #: Queries per segment sent in pipelined groups.
    pipelined_queries = 1000
    nominal_dps = 1000.0
    #: Ladder rates (decisions/s), 8% apart, above the nominal phase
    #: (which is the ladder's first rung).
    ladder = tuple(round(1500 * 1.08**step, -1) for step in range(30))
    #: Queries per ladder rung: the p99 has ten samples beyond it.
    rung_queries = 1000
    #: Service builds per untraced run: one per this many seconds of
    #: ``--seconds``, at least five (the metrics take their better
    #: quartile).
    seconds_per_build = 2.5
    #: Nominal-rate phases of ``rung_queries`` in the open loop, and in
    #: the traced phase of a traced run.
    nominal_phases = 10
    traced_phases = 5
    #: Ladder rungs between two nominal phases.
    nominal_every = 2

    def __init__(self, name: str, seed: int, seconds: float, workdir: Path) -> None:
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.config = stationary("AC3", duration=self.recorded, seed=seed, **RING)
        self.track = host.SpeedTrack()

    def _record(self):
        events, result = record_run(self.config)
        return digest(result), [
            (event.t, event.kind, event.cell, event.conn, event.traffic, event.admitted)
            for event in events
        ]

    def prepare(self) -> None:
        # Timed events stay compact tuples of atomic values, which the
        # collector untracks at its next pass: the benchmark's own input
        # adds nothing to the program's garbage collections.  Each
        # StreamEvent is built when it is sent, as a client would.
        self.record_digest, rows = in_child(self._record)
        self.prefix = [row for row in rows if row[0] < self.warmup]
        self.timed = [row for row in rows if row[0] >= self.warmup]
        del rows
        gc.collect()

    def _check(self, outcome: Outcome, row, decision) -> bool:
        """Count one answer; ``True`` when it is a decision (a query)."""
        if row[1] not in (ARRIVAL, HANDOFF):
            if decision is not None:
                outcome.fail("notification answered with a decision")
            return False
        outcome.attempted += 1
        if isinstance(decision, Exception) or decision is None:
            outcome.fail(f"decision failed: {decision!r}")
        elif decision.admitted != row[5]:
            outcome.fail("decision differs from the DES run")
        return True

    async def _warm(self, outcome: Outcome):
        """Build a service and replay the warm-up prefix into it.

        Returns the service and the set-up's raw wall seconds.
        """
        started = perf_counter()
        service = AdmissionService(replace(self.config, duration=1e12))
        await service.start()
        prefix = self.prefix
        group = self.warmup_group
        for index in range(0, len(prefix), group):
            rows = prefix[index : index + group]
            results = await asyncio.wait_for(
                service.submit_many(
                    [
                        StreamEvent(t=t, kind=kind, cell=cell, conn=conn, traffic=traffic)
                        for t, kind, cell, conn, traffic, _ in rows
                    ]
                ),
                timeout=RESOLVE_TIMEOUT_S,
            )
            for row, decision in zip(rows, results):
                self._check(outcome, row, decision)
        return service, perf_counter() - started

    async def _closed(self, service, outcome: Outcome, start: int, queries: int, group: int):
        """Send ``queries`` decisions (and the notifications between
        them) in groups of ``group`` events, each group awaited before
        the next; ``group`` 1 goes through ``submit``.

        Returns ``(stats, next_start)``: the raw elapsed seconds, the
        decisions made, the stream seconds covered and every decision's
        round-trip latency in ms (its group's).
        """
        timed = self.timed
        latencies = array("d")
        position, decided = start, 0
        began = perf_counter()
        while decided < queries and position < len(timed):
            rows = timed[position : position + group]
            position += len(rows)
            events = [
                StreamEvent(t=t, kind=kind, cell=cell, conn=conn, traffic=traffic)
                for t, kind, cell, conn, traffic, _ in rows
            ]
            sent = perf_counter()
            try:
                if group == 1:
                    results = [
                        await asyncio.wait_for(
                            service.submit(events[0]), timeout=RESOLVE_TIMEOUT_S
                        )
                    ]
                else:
                    results = await asyncio.wait_for(
                        service.submit_many(events), timeout=RESOLVE_TIMEOUT_S
                    )
            except Exception as error:  # raised, or never resolved
                results = [error] * len(rows)
            latency_ms = (perf_counter() - sent) * 1000.0
            for row, decision in zip(rows, results):
                if self._check(outcome, row, decision):
                    decided += 1
                    latencies.append(latency_ms)
            if outcome.failed:
                break
        elapsed = perf_counter() - began
        stats = {
            "elapsed_s": elapsed,
            "decided": decided,
            "stream_s": timed[position - 1][0] - timed[start][0],
            "latencies": latencies,
        }
        return stats, position

    async def _build(self, outcome: Outcome, tracer: Tracer | None = None) -> dict:
        """One service: set-up, then the two closed loops in turns.

        Returns the build's figures at reference host speed (normalised
        by the median of the host-speed probes taken before, between
        and after its segments): ``setup_s``, the one-``submit`` loop's
        ``p50_ms``/``p99_ms`` and decision rate ``dps`` (counted only
        when its p99 is within :data:`LIMIT_MS`), and the pipelined
        loop's ``sim_speed``; ``raw`` holds them unnormalised.
        """
        if tracer is not None:
            layers.install(tracer)
        probes = [host.probe()]
        single, piped = _LoopTotals(), _LoopTotals()
        try:
            service, setup_s = await self._warm(outcome)
            probes.append(host.probe())
            position = 0
            for _ in range(self.segments):
                for group, queries, into in (
                    (1, self.single_queries, single),
                    (self.pipeline, self.pipelined_queries, piped),
                ):
                    stats, position = await self._closed(
                        service, outcome, position, queries, group
                    )
                    probes.append(host.probe())
                    into.add(stats)
                if outcome.failed:
                    break
            await service.stop()
        finally:
            if tracer is not None:
                tracer.unpatch()
        if outcome.failed:
            return {}
        speed = statistics.median(probes)
        self.track.samples.append(speed)
        raw = {
            "setup_s": setup_s,
            "p50_ms": percentile(single.latencies, 0.50),
            "p99_ms": percentile(single.latencies, 0.99),
            "dps": single.decided / single.time,
            "sim_speed": piped.stream_s / piped.time,
            "pipelined_dps": piped.decided / piped.time,
            "pipelined_p99_ms": percentile(piped.latencies, 0.99),
        }
        return {
            "setup_s": raw["setup_s"] * speed,
            "p50_ms": raw["p50_ms"] * speed,
            "p99_ms": raw["p99_ms"] * speed,
            "dps": raw["dps"] / speed if raw["p99_ms"] <= LIMIT_MS else 0.0,
            "sim_speed": raw["sim_speed"] / speed,
            "raw": raw,
        }

    async def _phase(self, service, outcome: Outcome, start: int, rate: float, queries: int):
        """Send ``queries`` decisions (and the notifications between
        them) open-loop at ``rate`` decisions/s, one ``submit`` each,
        each timed from its due time.  Returns ``(stats, next_start)``.
        """
        timed = self.timed
        end, count = start, 0
        while end < len(timed) and count < queries:
            if timed[end][1] in (ARRIVAL, HANDOFF):
                count += 1
            end += 1
        if count == 0:
            return None, end
        segment = timed[start:end]
        spacing = count / (rate * len(segment))
        latencies: list[float] = []
        lateness: list[float] = []
        tally = {"answered": 0, "failed": 0, "rejected": 0, "last": 0.0}
        loop = asyncio.get_running_loop()

        def failed(message: str) -> None:
            tally["failed"] += 1
            outcome.fail(message)

        def on_done(task, due: float, expected) -> None:
            if task.cancelled():
                return  # counted as never resolved below
            now = perf_counter()
            tally["last"] = now
            tally["answered"] += 1
            error = task.exception()
            if error is not None:
                failed(f"decision raised {type(error).__name__}: {error}")
                return
            decision = task.result()
            if expected is None:
                if decision is not None:
                    failed("notification answered with a decision")
                return
            latencies.append((now - due) * 1000.0)
            if decision is None:
                failed("query ignored by the service")
            elif decision.admitted != expected:
                failed("decision differs from the DES run")
            elif not decision.admitted:
                tally["rejected"] += 1

        outstanding: set = set()
        drained = asyncio.Event()

        def settle(task, due: float, expected) -> None:
            outstanding.discard(task)
            on_done(task, due, expected)
            if not outstanding and sending_done:
                drained.set()

        sending_done = False
        before = host.probe()
        begin = perf_counter() + 0.002
        for index, (t, kind, cell, conn, traffic, admitted) in enumerate(segment):
            due = begin + index * spacing
            delay = due - perf_counter()
            if delay > SLEEP_SLACK_S:
                await asyncio.sleep(delay - SLEEP_SLACK_S)
            while perf_counter() < due:
                await asyncio.sleep(0)
            lateness.append((perf_counter() - due) * 1000.0)
            expected = admitted if kind in (ARRIVAL, HANDOFF) else None
            if expected is not None:
                outcome.attempted += 1
            task = loop.create_task(
                service.submit(
                    StreamEvent(t=t, kind=kind, cell=cell, conn=conn, traffic=traffic)
                )
            )
            task.add_done_callback(
                lambda task, due=due, expected=expected: settle(task, due, expected)
            )
            outstanding.add(task)
        last_sent = perf_counter()
        sending_done = True
        if outstanding:
            try:
                await asyncio.wait_for(drained.wait(), timeout=RESOLVE_TIMEOUT_S)
            except asyncio.TimeoutError:
                pass
        for task in list(outstanding):
            task.cancel()
            failed("decision never resolved")
        elapsed = max(tally["last"], last_sent) - begin
        stats = {
            "host_speed": self.track.around(before),
            "rate_dps": rate,
            "sent": len(segment),
            "queries": count,
            "answered": tally["answered"],
            "failed": tally["failed"],
            "rejected": tally["rejected"],
            "elapsed_s": elapsed,
            "achieved_dps": count / elapsed,
            "p50_ms": percentile(latencies, 0.50),
            "p99_ms": percentile(latencies, 0.99),
            "gen_late_p99_ms": percentile(lateness, 0.99),
            "drain_ms": max(0.0, tally["last"] - last_sent) * 1000.0,
        }
        stats["score"] = max(stats["p99_ms"], stats["gen_late_p99_ms"]) / LIMIT_MS
        # A growing backlog shows as answers falling behind the offer.
        stats["kept_up"] = stats["achieved_dps"] >= KEEP_UP * rate
        stats["passed"] = (
            stats["score"] <= 1.0 and stats["kept_up"] and stats["failed"] == 0
        )
        return stats, end

    def _builds(self, trace: bool) -> int:
        if trace:
            return 3
        return max(5, round(self.seconds / self.seconds_per_build))

    async def _rung(self, service, outcome: Outcome, position: int, rate: float):
        """One ladder rung; a miss is sent once more (a stall of the
        shared host is not the service's capacity, a saturated service
        misses twice).  Returns ``(tries, position)``."""
        tries = []
        while len(tries) < 2 and not (tries and tries[-1]["passed"]):
            await asyncio.sleep(0.05)  # let the previous phase settle
            stats, position = await self._phase(
                service, outcome, position, rate, self.rung_queries
            )
            if stats is None:
                break  # recorded stream exhausted
            tries.append(stats)
        return tries, position

    async def _open_loop(self, service, outcome: Outcome, position: int):
        """Nominal-rate phases spread between the ladder's rungs.

        One nominal phase follows every :attr:`nominal_every` rungs, so
        the nominal latencies sample the whole run rather than one
        stretch of the host's drifting speed.  The climb ends when two
        rungs in a row fail to keep up.  Returns ``(nominal, rungs,
        attempts)``: each rung's better attempt, and every attempt.
        """
        nominal, rungs, attempts = [], [], []
        ladder = iter(self.ladder)
        climbing, saturated = True, 0
        while climbing or len(nominal) < self.nominal_phases:
            if outcome.failed or perf_counter() - self.started > HARD_STOP_S:
                break  # wrong answers end the run; so does the time limit
            if len(nominal) < self.nominal_phases and (
                not climbing or len(rungs) >= self.nominal_every * len(nominal)
            ):
                stats, position = await self._phase(
                    service, outcome, position, self.nominal_dps, self.rung_queries
                )
                if stats is None:
                    break  # recorded stream exhausted
                nominal.append(stats)
                continue
            rate = next(ladder, None)
            tries = []
            if rate is not None:
                tries, position = await self._rung(service, outcome, position, rate)
            if not tries:
                climbing = False
                continue
            attempts.extend(tries)
            best = min(tries, key=lambda stats: (not stats["passed"], stats["score"]))
            rungs.append(best)
            saturated = 0 if best["kept_up"] else saturated + 1
            climbing = saturated < 2
        return nominal, rungs, attempts

    async def _run(self, trace: bool, outcome: Outcome) -> None:
        builds = []
        for _ in range(self._builds(trace)):
            build = await self._build(outcome)
            if outcome.failed:
                break
            builds.append(build)
            if perf_counter() - self.started > HARD_STOP_S:
                break

        def better(name: str, higher_is_better: bool) -> float:
            return best_quartile([build[name] for build in builds], higher_is_better)

        details = {
            "builds": builds,
            "host_speed": self.track.samples,
            "digest": self.record_digest,
        }
        outcome.details = details
        if outcome.failed:
            return
        if not trace:
            outcome.metrics = {
                "setup_s": (better("setup_s", False), "s"),
                "sim_speed": (better("sim_speed", True), "x"),
                "serve_p50_ms": (better("p50_ms", False), "ms"),
                "serve_p99_ms": (better("p99_ms", False), "ms"),
                "serve_capacity_dps": (better("dps", True), "1/s"),
            }
            return
        # A traced build gives the tracing overhead.  A fresh service
        # then takes the nominal phases sent as one, under a fresh
        # ledger (a fixed amount of work), and the untraced open loop.
        traced = await self._build(outcome, Tracer())
        service, _ = await self._warm(outcome)
        tracer = Tracer()
        layers.install(tracer)
        try:
            with GcMonitor() as gc_monitor:
                traced_phase, position = await self._phase(
                    service,
                    outcome,
                    0,
                    self.nominal_dps,
                    self.rung_queries * self.traced_phases,
                )
        finally:
            tracer.unpatch()
        nominal, rungs, attempts = await self._open_loop(service, outcome, position)
        await service.stop()
        details.update(
            traced_build=traced, traced_phase=traced_phase, nominal=nominal, ladder=attempts
        )
        outcome.spans = tracer.spans
        if outcome.failed:
            return
        p50s = [stats["p50_ms"] * stats["host_speed"] for stats in nominal]
        p99s = [stats["p99_ms"] * stats["host_speed"] for stats in nominal]
        best_nominal = min(nominal, key=lambda stats: (not stats["passed"], stats["score"]))
        outcome.metrics = layers.metrics(
            tracer,
            reps=1,
            gc_monitor=gc_monitor,
            untraced_speed=better("sim_speed", True),
            traced_speed=traced["sim_speed"],
            events_per_s=0.0,
            state_bytes=0,
            series_expected=0,
            serve=traced_phase,
            open_loop={
                "p50_ms": best_quartile(p50s, False),
                "p99_ms": best_quartile(p99s, False),
                "capacity_dps": capacity([best_nominal] + rungs),
            },
        )

    def measure(self, trace: bool) -> Outcome:
        outcome = Outcome()
        outcome.digests.append(self.record_digest)
        self.started = perf_counter()
        try:
            asyncio.run(self._run(trace, outcome))
        except Exception as error:  # the service died: report, do not crash
            outcome.fail(f"service failed: {type(error).__name__}: {error}")
            outcome.metrics = {}
        for build in outcome.details.get("builds", []):
            for name in ("setup_s", "p50_ms", "p99_ms", "dps", "sim_speed"):
                build[name] = round(build[name], 5)
        return outcome


def capacity(phases: list[dict]) -> float:
    """Highest offered rate that met the limits, refined between rungs.

    A rung passes when its p99 latency and its generator lateness p99
    stay within :data:`LIMIT_MS` and it answers at least
    :data:`KEEP_UP` of the offered rate.  Rungs are discrete, so the
    crossing between the highest passing rung and the rung above it is
    interpolated on the log of their scores (the worse of the two p99s
    over the limit): a continuous estimate of the knee rather than a
    value that jumps from rung to rung.  The knee is reported at
    reference host speed (divided by the host speed measured around the
    two rungs).
    """
    ordered = sorted(phases, key=lambda stats: stats["rate_dps"])
    passing = [index for index, stats in enumerate(ordered) if stats["passed"]]
    if not passing:
        first = ordered[0]
        return first["rate_dps"] / max(first["score"], 1.0) / first["host_speed"]
    low = ordered[passing[-1]]
    if passing[-1] + 1 == len(ordered):
        return low["rate_dps"] / low["host_speed"]
    high = ordered[passing[-1] + 1]
    low_log = math.log(max(low["score"], 1e-6))
    high_log = math.log(max(high["score"], 1.0 + 1e-9))
    fraction = -low_log / (high_log - low_log)
    knee = low["rate_dps"] + fraction * (high["rate_dps"] - low["rate_dps"])
    return knee / ((low["host_speed"] + high["host_speed"]) / 2.0)


WORKLOADS = ("ring_ac3", "ring_static", "city_spatial", "serve_ring")


def build(name: str, seed: int, seconds: float, workdir: Path):
    """The workload called ``name``, inputs not yet prepared."""
    if name == "ring_ac3":
        return RingWorkload(name, "AC3", 100.0, 0.0, seed, seconds, workdir)
    if name == "ring_static":
        return RingWorkload(name, "static", 1000.0, 5.0, seed, seconds, workdir)
    if name == "city_spatial":
        return CityWorkload(name, seed, seconds, workdir)
    if name == "serve_ring":
        return ServeWorkload(name, seed, seconds, workdir)
    raise KeyError(name)
