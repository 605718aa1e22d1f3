"""Golden-reference scenarios: short runs whose outcomes are pinned.

Each case builds and runs one simulation and returns its
:class:`~repro.simulation.metrics.SimulationResult`.  :func:`summary`
reduces a result to what ``references.json`` pins: the sha256 of
``metrics_key()``, P_CB, P_HD, N_calc and the event count.

Regenerate the references (a deliberate act — record it in CHANGES.md)
from the repository root with::

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.estimation.cache import CacheConfig
from repro.estimation.calendar import CalendarEstimator, WeekSchedule
from repro.estimation.estimator import KnownPathEstimator
from repro.mobility.mobile import reset_mobile_ids
from repro.simulation.scenarios import hex_city, stationary, time_varying
from repro.simulation.simulator import CellularSimulator
from repro.simulation.spatial import run_spatial
from repro.traffic.connection import reset_connection_ids

REFERENCES = Path(__file__).with_name("references.json")

#: The paper ring's load point shared by the ring cases.
RING = {"offered_load": 200.0, "voice_ratio": 0.8, "high_mobility": True}
DURATION = 300.0
SEED = 1


def _ring(scheme: str, **overrides):
    config = stationary(
        scheme, duration=DURATION, seed=SEED, **RING, **overrides
    )
    return CellularSimulator(config).run()


def _windowed_ac3():
    # Finite T_int with w_0 < 1 and a short period: every F_HOE snapshot
    # is non-unit-weight, and both day windows contribute.
    return _ring(
        "AC3", t_int=30.0, weights=(0.9, 0.5), day_seconds=150.0
    )


def _calendar_ac3():
    # The §5.3 time-varying scenario, time-compressed to an 1800 s day,
    # with per-day-type pattern sets estimating every cell.
    config = time_varying(
        "AC3", time_compression=48.0, seed=SEED, duration=1200.0
    )
    simulator = CellularSimulator(config)
    for station in simulator.network.stations:
        station.estimator = CalendarEstimator(
            schedule=WeekSchedule(day_seconds=config.day_seconds),
            interval=config.t_int,
            weights=config.weights,
        )
    return simulator.run()


def _direction_oracle(connection):
    mobile = connection.mobile
    if mobile is None or not mobile.is_moving:
        return None
    return (mobile.cell_id + mobile.direction) % 10


def _route_ac3():
    config = stationary("AC3", duration=DURATION, seed=SEED, **RING)
    simulator = CellularSimulator(config)
    for station in simulator.network.stations:
        station.estimator = KnownPathEstimator(
            CacheConfig(interval=None), route_oracle=_direction_oracle
        )
    return simulator.run()


def _hex_ac3():
    config = hex_city(
        "AC3", rows=8, cols=8, offered_load=700.0, duration=DURATION,
        seed=SEED,
    )
    return run_spatial(config, 1, processes=False)


CASES = {
    "ring_static": lambda: _ring("static"),
    "ring_ac1": lambda: _ring("AC1"),
    "ring_ac2": lambda: _ring("AC2"),
    "ring_ac3": lambda: _ring("AC3"),
    "ring_ac3_windowed": _windowed_ac3,
    "ring_ac3_calendar": _calendar_ac3,
    "ring_ac3_route": _route_ac3,
    "hex8_ac3_spatial": _hex_ac3,
}


def run_case(name: str):
    """Run one case from fresh global id counters."""
    reset_connection_ids()
    reset_mobile_ids()
    return CASES[name]()


def summary(result) -> dict:
    """What the references pin for one run."""
    payload = json.dumps(result.metrics_key(), sort_keys=True)
    return {
        "metrics_sha256": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
        "p_cb": result.blocking_probability,
        "p_hd": result.dropping_probability,
        "n_calc": result.average_calculations,
        "events": result.events_processed,
    }


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())
