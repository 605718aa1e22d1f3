"""Property-based Eq. 5 parity: every supply path == the naive reference.

The supply step (:func:`repro.core.reservation.supply_contributions`)
sends each ``prev`` block either to the resumable walk or to the
cross-cell numpy flush batch.  Whichever way a block goes — the
shipped block-size rule, a numpy-free install that always walks, or a
row constant of 1 that always batches — every contribution must equal
the naive per-connection Eq. 5 bit for bit, for per-station updates,
tick flushes and whole runs.  Hypothesis drives randomized quadruplet
histories and connection populations through every path.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cellular.network import CellularNetwork
from repro.cellular.topology import LinearTopology
from repro.estimation.cache import CacheConfig
from repro.simulation.config import SimulationConfig
from repro.simulation.simulator import CellularSimulator
from repro.traffic.classes import VOICE
from repro.traffic.connection import Connection


sojourns = st.floats(
    min_value=0.1, max_value=1_000.0, allow_nan=False, allow_infinity=False
)
prev_cells = st.sampled_from([None, 0, 2])
history = st.lists(st.tuples(sojourns, prev_cells), min_size=0, max_size=40)
entry_offsets = st.lists(
    st.floats(min_value=0.0, max_value=90.0,
              allow_nan=False, allow_infinity=False),
    min_size=0,
    max_size=70,
)


def build_network(items, offsets):
    network = CellularNetwork(
        LinearTopology(5),
        cache_config=CacheConfig(interval=None),
    )
    station = network.station(1)
    for index, (sojourn, prev) in enumerate(items):
        station.estimator.record_departure(float(index), prev, 0, sojourn)
    rng = random.Random(42)
    for offset in offsets:
        network.cell(1).attach(
            Connection(
                VOICE, 0.0, 1,
                prev_cell=rng.choice([None, 0, 2]),
                cell_entry_time=100.0 - offset,
            )
        )
    network.station(0).window.t_est = 10.0
    return network


@settings(max_examples=25, deadline=None)
@given(history, entry_offsets)
def test_reservation_identical_across_kernels(eq5_path, items, offsets):
    """Eq. 6 per-station updates are bit-identical on every path."""
    results = {}
    for path in ("naive",) + eq5_path.paths:
        network = build_network(items, offsets)
        with eq5_path(path):
            results[path] = network.station(0).update_target_reservation(
                100.0
            )
    assert len(set(results.values())) == 1, results


@settings(max_examples=25, deadline=None)
@given(history, entry_offsets)
def test_grouped_tick_identical_across_kernels(eq5_path, items, offsets):
    """Tick flushes are bit-identical on every path."""
    results = {}
    for path in ("naive",) + eq5_path.paths:
        network = build_network(items, offsets)
        with eq5_path(path):
            for cell_id in (0, 2):
                network.mark_reservation_dirty(cell_id)
            network.flush_reservation_tick(100.0)
        results[path] = (
            network.cell(0).reserved_target,
            network.cell(2).reserved_target,
        )
    assert len(set(results.values())) == 1, results


def _run_metrics(eq5_path, path: str):
    config = SimulationConfig(
        scheme="AC3", offered_load=120.0, duration=120.0, seed=5
    )
    with eq5_path(path):
        return CellularSimulator(config).run().metrics_key()


def test_whole_run_metrics_key_parity_across_kernels(eq5_path):
    """A full AC3 run lands on the naive reference's metrics_key,
    with numpy (block-size rule) and without it (walk only)."""
    reference = _run_metrics(eq5_path, "naive")
    for path in ("default", "walk"):
        assert _run_metrics(eq5_path, path) == reference, path


def test_whole_run_metrics_key_parity_grouped_flush_toggle(eq5_path):
    """Sending every block to the flush batch cannot change a run."""
    assert _run_metrics(eq5_path, "batch") == _run_metrics(
        eq5_path, "naive"
    )
