"""Coalesced estimation tick: bit-identity and batching effect."""

import pytest

from repro.cellular.network import CellularNetwork
from repro.cellular.topology import LinearTopology
from repro.core.admission import AC2
from repro.estimation.cache import CacheConfig
from repro.simulation.scenarios import stationary
from repro.simulation.simulator import CellularSimulator
from repro.traffic.classes import VOICE
from repro.traffic.connection import Connection


def _run(scheme, eq5_path=None, path="default", **overrides):
    config = stationary(
        scheme,
        offered_load=overrides.pop("offered_load", 200.0),
        duration=overrides.pop("duration", 150.0),
        seed=overrides.pop("seed", 11),
        **overrides,
    )
    simulator = CellularSimulator(config)
    if eq5_path is None:
        return simulator, simulator.run()
    with eq5_path(path):
        return simulator, simulator.run()


def _eq4_stats(network):
    rows = batches = 0
    for station in network.stations:
        estimator = station.estimator
        rows += estimator.eq4_vector_rows + estimator.eq4_scalar_rows
        batches += estimator.eq4_vector_batches + estimator.eq4_scalar_batches
    return rows, batches


def _populated_ring():
    network = CellularNetwork(
        LinearTopology(10), cache_config=CacheConfig(interval=None)
    )
    for cell_id in range(10):
        station = network.station(cell_id)
        for index in range(20):
            station.estimator.record_departure(
                float(index), None, (cell_id + 1) % 10, 10.0 + index
            )
        for index in range(12):
            network.cell(cell_id).attach(
                Connection(VOICE, 0.0, cell_id, cell_entry_time=90.0 + index)
            )
    return network


class _DuplicateNeighbours(LinearTopology):
    """A hand-rolled ring whose neighbour lists repeat a cell."""

    def neighbors(self, cell_id):
        left, right = super().neighbors(cell_id)
        return (left, right, left)


class TestBitIdentity:
    @pytest.mark.parametrize("scheme", ["AC1", "AC2", "AC3", "static"])
    def test_metrics_key_parity(self, scheme, eq5_path):
        _, naive = _run(scheme, eq5_path, "naive")
        _, ticked = _run(scheme, eq5_path, "default")
        assert ticked.metrics_key() == naive.metrics_key()

    @pytest.mark.parametrize("scheme", ["AC2", "AC3"])
    def test_metrics_key_parity_python_kernel(self, scheme, eq5_path):
        # A numpy-free install walks every block.
        _, naive = _run(scheme, eq5_path, "naive")
        _, walked = _run(scheme, eq5_path, "walk")
        assert walked.metrics_key() == naive.metrics_key()

    def test_parity_includes_messages_and_calculations(self, eq5_path):
        sim_naive, naive = _run("AC2", eq5_path, "naive")
        sim_ticked, ticked = _run("AC2", eq5_path, "default")
        assert naive.average_messages == ticked.average_messages
        assert naive.average_calculations == ticked.average_calculations
        assert sim_naive.network.total_messages() == (
            sim_ticked.network.total_messages()
        )


class TestBatching:
    def test_mean_eq4_batch_size_rises(self):
        # One tick hands each supplier all of its pending targets, so a
        # block is dispatched once for every target instead of once per
        # target: the same rows in fewer, larger batches.
        targets = (0, 1, 2, 5)
        sequential = _populated_ring()
        for cell_id in targets:
            sequential.station(cell_id).update_target_reservation(100.0)
        ticked = _populated_ring()
        for cell_id in targets:
            ticked.mark_reservation_dirty(cell_id)
        ticked.flush_reservation_tick(100.0)
        rows_off, batches_off = _eq4_stats(sequential)
        rows_on, batches_on = _eq4_stats(ticked)
        assert rows_on == rows_off  # same probabilities evaluated...
        assert batches_on < batches_off  # ...in fewer, larger batches
        assert rows_on / batches_on > rows_off / batches_off
        for cell_id in targets:
            assert (
                ticked.cell(cell_id).reserved_target
                == sequential.cell(cell_id).reserved_target
            )

    def test_tick_counters_track_flushes(self):
        sim_on, _ = _run("AC2")
        assert sim_on.network.tick_flushes > 0
        # AC2 in a ring marks 2 neighbours + self per admission test.
        assert sim_on.network.tick_targets == 3 * sim_on.network.tick_flushes

    def test_sequential_network_never_ticks(self):
        # Duplicated targets force AC2's sequential branch: each update
        # re-checks state, so no batched tick may replace it.
        network = CellularNetwork(
            _DuplicateNeighbours(10), cache_config=CacheConfig(interval=None)
        )
        policy = AC2()
        for now in (1.0, 2.0, 3.0):
            decision = policy.admit_new(network, 4, 1.0, now)
            assert decision.calculations == 4
        assert network.tick_flushes == 0
        assert network.tick_targets == 0

    def test_telemetry_records_tick_counters(self):
        sim_on, result = _run("AC3", telemetry=True)
        counters = result.telemetry["counters"]
        assert counters["cellular.tick_flushes"] == (
            sim_on.network.tick_flushes
        )
        assert counters["cellular.tick_targets"] == (
            sim_on.network.tick_targets
        )
