"""The per-layer ledger: which public entry points are traced, and the
per-layer metrics derived from their spans.

Layers are named after the program's modules.  Self time is span time
minus child-span time, so e.g. ``core.admission.self_s`` excludes the
Eq. 5/6 flush its AC3 test triggers, and ``des.self_s`` is event
dispatch plus handler glue (everything inside ``Engine.run`` that no
other layer span covers).
"""

from __future__ import annotations

from repro.cellular.base_station import BaseStation
from repro.cellular.network import CellularNetwork
from repro.core.admission import AdmissionPolicy
from repro.des.engine import Engine
from repro.mobility.models import HexMobilityModel, LinearMobilityModel
from repro.obs.timeseries import TimeSeriesSampler
from repro.serve.driver import StreamDriver
from repro.serve.service import AdmissionService
from repro.simulation.spatial import ShardEngine

from spans import Tracer, wrap_subclasses

#: Every per-layer metric, in BENCHMARK.json order, with its unit.
PER_LAYER = (
    ("des.events", "count"),
    ("des.events_per_s", "1/s"),
    ("des.self_s", "s"),
    ("cellular.flush.calls", "count"),
    ("cellular.flush.self_s", "s"),
    ("cellular.flush.targets_per_call", "ratio"),
    ("core.admission.tests", "count"),
    ("core.admission.self_s", "s"),
    ("core.admission.ncalc_per_test", "ratio"),
    ("core.admission.admit_ratio", "ratio"),
    ("core.handoff.self_s", "s"),
    ("core.window.calls", "count"),
    ("core.window.self_s", "s"),
    ("estimation.write.calls", "count"),
    ("estimation.write.self_s", "s"),
    ("estimation.snapshot_hit_rate", "ratio"),
    ("estimation.eq4_rows", "count"),
    ("mobility.calls", "count"),
    ("mobility.self_s", "s"),
    ("spatial.setup_s", "s"),
    ("spatial.epoch.self_s", "s"),
    ("spatial.barrier.self_s", "s"),
    ("state.restore_s", "s"),
    ("state.bytes", "bytes"),
    ("obs.sample.calls", "count"),
    ("obs.sample.self_s", "s"),
    ("obs.series_rows", "count"),
    ("obs.series_rows_expected", "count"),
    ("serve.submit.calls", "count"),
    ("serve.flush.calls", "count"),
    ("serve.flush.self_s", "s"),
    ("serve.events_per_flush", "ratio"),
    ("serve.busy_frac", "ratio"),
    ("serve.rejected_ratio", "ratio"),
    ("serve.gen_late_p99_ms", "ms"),
    ("serve.open.p50_ms", "ms"),
    ("serve.open.p99_ms", "ms"),
    ("serve.open.capacity_dps", "1/s"),
    ("runtime.gc2.count", "count"),
    ("runtime.gc2.pause_ms_max", "ms"),
    ("trace.sim_speed_untraced", "x"),
    ("trace.sim_speed_traced", "x"),
    ("trace.overhead_frac", "ratio"),
)


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points with ``tracer`` spans."""
    tracer.wrap_counting(Engine, "run", "des", lambda engine: engine.events_processed)
    tracer.wrap_counting(
        CellularNetwork,
        "flush_reservation_tick",
        "cellular.flush",
        lambda network: network.tick_targets,
    )
    admission = tracer.stats("core.admission.outcome")
    calculations = tracer.stats("core.admission.calculations")

    def on_decision(_policy, decision) -> None:
        admission.calls += decision.admitted
        calculations.calls += decision.calculations

    wrap_subclasses(tracer, AdmissionPolicy, "admit_new", "core.admission", on_decision)
    wrap_subclasses(tracer, AdmissionPolicy, "handoff_allocation", "core.handoff")
    tracer.wrap(BaseStation, "on_handoff_arrival", "core.window")
    tracer.wrap(BaseStation, "record_departure", "estimation.write")
    for model in (LinearMobilityModel, HexMobilityModel):
        tracer.wrap(model, "next_transition", "mobility")
        tracer.wrap(model, "spawn", "mobility")
    tracer.wrap(ShardEngine, "__init__", "spatial.setup")
    tracer.wrap(ShardEngine, "run_epoch", "spatial.epoch")
    tracer.wrap(ShardEngine, "barrier_begin", "spatial.barrier")
    tracer.wrap(ShardEngine, "evaluate", "spatial.barrier")
    tracer.wrap(TimeSeriesSampler, "maybe_sample", "obs.sample")
    events = tracer.stats("serve.flush.events")

    def on_flush(_driver, fired) -> None:
        events.calls += fired

    tracer.wrap(StreamDriver, "flush", "serve.flush", on_flush)
    tracer.wrap_async(AdmissionService, "submit", "serve.submit")


def from_result(tracer: Tracer, result) -> None:
    """Fold a traced run's own telemetry counters into the ledger."""
    telemetry = result.telemetry or {}
    counters = telemetry.get("counters", {})
    hits = counters.get('estimation.snapshot{outcome="hit"}', 0)
    builds = counters.get('estimation.snapshot{outcome="build"}', 0)
    tracer.stats("estimation.snapshot.hit").calls += hits
    tracer.stats("estimation.snapshot.build").calls += builds
    rows = sum(
        value for key, value in counters.items() if key.startswith("estimation.eq4_rows")
    )
    tracer.stats("estimation.eq4_rows").calls += rows
    if result.timeseries is not None:
        tracer.stats("obs.series_rows").calls += len(result.timeseries)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def metrics(
    tracer: Tracer,
    *,
    reps: int,
    gc_monitor,
    untraced_speed: float,
    traced_speed: float,
    events_per_s: float,
    state_bytes: int,
    series_expected: int,
    serve: dict | None,
    open_loop: dict | None = None,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per traced repetition, from the ledger."""
    layers = tracer.layers

    def calls(name: str) -> float:
        layer = layers.get(name)
        return layer.calls / reps if layer else 0.0

    def self_s(*names: str) -> float:
        return sum(layers[name].self_s for name in names if name in layers) / reps

    def total_s(name: str) -> float:
        layer = layers.get(name)
        return layer.total_s / reps if layer else 0.0

    tests = calls("core.admission")
    hits = calls("estimation.snapshot.hit")
    builds = calls("estimation.snapshot.build")
    flushes = calls("serve.flush")
    values = {
        "des.events": calls("des.count"),
        "des.events_per_s": events_per_s,
        "des.self_s": self_s("des"),
        "cellular.flush.calls": calls("cellular.flush"),
        "cellular.flush.self_s": self_s("cellular.flush"),
        "cellular.flush.targets_per_call": _ratio(
            calls("cellular.flush.count"), calls("cellular.flush")
        ),
        "core.admission.tests": tests,
        "core.admission.self_s": self_s("core.admission"),
        "core.admission.ncalc_per_test": _ratio(
            calls("core.admission.calculations"), tests
        ),
        "core.admission.admit_ratio": _ratio(calls("core.admission.outcome"), tests),
        "core.handoff.self_s": self_s("core.handoff"),
        "core.window.calls": calls("core.window"),
        "core.window.self_s": self_s("core.window"),
        "estimation.write.calls": calls("estimation.write"),
        "estimation.write.self_s": self_s("estimation.write"),
        "estimation.snapshot_hit_rate": _ratio(hits, hits + builds),
        "estimation.eq4_rows": calls("estimation.eq4_rows"),
        "mobility.calls": calls("mobility"),
        "mobility.self_s": self_s("mobility"),
        "spatial.setup_s": total_s("spatial.setup"),
        "spatial.epoch.self_s": self_s("spatial.epoch"),
        "spatial.barrier.self_s": self_s("spatial.barrier"),
        "state.restore_s": total_s("state.restore"),
        "state.bytes": float(state_bytes),
        "obs.sample.calls": calls("obs.sample"),
        "obs.sample.self_s": self_s("obs.sample"),
        "obs.series_rows": calls("obs.series_rows"),
        "obs.series_rows_expected": float(series_expected),
        "serve.submit.calls": calls("serve.submit"),
        "serve.flush.calls": flushes,
        "serve.flush.self_s": self_s("serve.flush"),
        "serve.events_per_flush": _ratio(calls("serve.flush.events"), flushes),
        "serve.busy_frac": 0.0,
        "serve.rejected_ratio": 0.0,
        "serve.gen_late_p99_ms": 0.0,
        "serve.open.p50_ms": 0.0,
        "serve.open.p99_ms": 0.0,
        "serve.open.capacity_dps": 0.0,
        "runtime.gc2.count": gc_monitor.gen2 / reps,
        "runtime.gc2.pause_ms_max": gc_monitor.pause_ms_max,
        "trace.sim_speed_untraced": untraced_speed,
        "trace.sim_speed_traced": traced_speed,
        "trace.overhead_frac": _ratio(untraced_speed - traced_speed, untraced_speed),
    }
    if serve is not None:
        values["serve.busy_frac"] = _ratio(total_s("serve.flush"), serve["elapsed_s"])
        values["serve.rejected_ratio"] = _ratio(serve["rejected"], serve["queries"])
        values["serve.gen_late_p99_ms"] = serve["gen_late_p99_ms"]
    for name, value in (open_loop or {}).items():
        values["serve.open." + name] = value
    return {name: (values[name], unit) for name, unit in PER_LAYER}
