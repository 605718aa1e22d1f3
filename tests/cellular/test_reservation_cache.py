"""The Eq. 5 supply step against the naive per-connection reference.

The contract under test: however a station's ``prev`` blocks split
between the resumable walk and the numpy flush batch, every ``B_r`` a
reservation update or tick flush installs is bit-identical to the
naive Eq. 5/6 evaluation over ``cell.connections()`` — whatever the
history of attaches, detaches, window changes and new quadruplets —
and the message / N_calc accounting is the protocol's.
"""

import random

import pytest

from repro._kernel import HAS_NUMPY
from repro.cellular.network import CellularNetwork
from repro.cellular.topology import LinearTopology
from repro.core.reservation import expected_handoff_bandwidth
from repro.estimation.cache import CacheConfig
from repro.traffic.classes import VOICE
from repro.traffic.connection import Connection


def build_network(seed=1, interval=None):
    network = CellularNetwork(
        LinearTopology(10),
        cache_config=CacheConfig(interval=interval),
    )
    rng = random.Random(seed)
    for neighbor in (1, 9):
        station = network.station(neighbor)
        for index in range(60):
            station.estimator.record_departure(
                float(index), None, 0, rng.uniform(10.0, 60.0)
            )
        for _ in range(40):
            network.cell(neighbor).attach(
                Connection(
                    VOICE, 0.0, neighbor,
                    cell_entry_time=rng.uniform(0.0, 90.0),
                )
            )
    network.station(0).window.t_est = 10.0
    return network


def naive_reservation(network, cell_id, now):
    """Eq. 6 over naive Eq. 5 contributions, in neighbour order."""
    station = network.station(cell_id)
    total = 0.0
    for neighbor in station.neighbor_stations():
        total += expected_handoff_bandwidth(
            neighbor.estimator,
            now,
            list(neighbor.cell.connections()),
            cell_id,
            station.t_est,
        )
    return total


class TestBatchedEquivalence:
    def test_batched_matches_naive(self, eq5_path):
        for path in eq5_path.paths:
            network = build_network()
            with eq5_path(path):
                installed = network.station(0).update_target_reservation(
                    100.0
                )
            assert installed == naive_reservation(network, 0, 100.0), path

    def test_messages_and_calculations_counted_identically(self):
        updated = build_network()
        flushed = build_network()
        for _ in range(2):
            updated.station(0).update_target_reservation(100.0)
            flushed.mark_reservation_dirty(0)
            flushed.flush_reservation_tick(100.0)
        for network in (updated, flushed):
            # One announcement + one reply per neighbour, per update.
            assert network.total_messages() == 2 * 2 * 2
            assert network.total_reservation_calculations() == 2
        assert updated.tick_flushes == 0
        assert flushed.tick_flushes == 2

    def test_message_total_matches_station_sweep(self):
        # total_messages() is maintained O(1) by refresh_reservations();
        # it must always equal the sum of per-station counters.
        network = build_network()
        network.station(0).update_target_reservation(100.0)
        network.station(5).update_target_reservation(101.0)
        assert network.total_messages() == sum(
            station.messages_sent for station in network.stations
        )
        before = network.total_messages()
        network.recount_messages()
        assert network.total_messages() == before


class TestGroupedFlush:
    def test_grouped_tick_matches_sequential_updates(self, eq5_path):
        for path in eq5_path.paths:
            grouped = build_network()
            sequential = build_network()
            with eq5_path(path):
                for cell_id in (0, 2, 8):
                    grouped.mark_reservation_dirty(cell_id)
                grouped.flush_reservation_tick(100.0)
                for cell_id in (0, 2, 8):
                    sequential.station(cell_id).update_target_reservation(
                        100.0
                    )
            for cell_id in (0, 2, 8):
                expected = naive_reservation(grouped, cell_id, 100.0)
                assert grouped.cell(cell_id).reserved_target == expected
                assert sequential.cell(cell_id).reserved_target == expected
            assert grouped.total_messages() == sequential.total_messages()

    def test_grouped_path_actually_used_under_array_kernel(self, eq5_path):
        # 40 rows per supplier block: above the row constant, so with
        # numpy installed the tick evaluates them in the flush batch.
        network = build_network()
        with eq5_path("default"):
            network.mark_reservation_dirty(0)
            network.flush_reservation_tick(100.0)
        vector_rows = sum(
            station.estimator.eq4_vector_rows for station in network.stations
        )
        scalar_rows = sum(
            station.estimator.eq4_scalar_rows for station in network.stations
        )
        if HAS_NUMPY:
            assert vector_rows == 80 and scalar_rows == 0
        else:
            assert vector_rows == 0 and scalar_rows == 80

    def test_flush_plan_perm_restores_connection_order(self):
        # The supply step sums each supplier's rows in ascending attach
        # sequence; that must be exactly cell.connections() order, also
        # after detaches and re-attaches reshuffle the buckets.
        network = build_network()
        cell = network.cell(1)
        rng = random.Random(7)
        for _ in range(30):
            live = list(cell.connections())
            victim = live[rng.randrange(len(live))]
            cell.detach(victim)
            victim.prev_cell = rng.choice([None, 0, 2])
            cell.attach(victim)
        rows = sorted(
            (seq, key)
            for group in cell.reservation_groups().values()
            for seq, key in zip(group.seqs, group.keys)
        )
        assert [key for _seq, key in rows] == [
            connection.connection_id for connection in cell.connections()
        ]

    def test_flush_plan_invalidated_by_attach(self, eq5_path):
        for path in eq5_path.paths:
            network = build_network()
            with eq5_path(path):
                network.mark_reservation_dirty(0)
                network.flush_reservation_tick(100.0)
                network.cell(1).attach(
                    Connection(VOICE, 0.0, 1, cell_entry_time=95.0)
                )
                network.mark_reservation_dirty(0)
                network.flush_reservation_tick(100.0)
            assert network.cell(0).reserved_target == naive_reservation(
                network, 0, 100.0
            ), path


@pytest.mark.parametrize("interval", [None, 500.0])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_randomized_history_matches_naive(seed, interval, eq5_path):
    """Bit-identical reservations across a random mutation history."""
    for path in eq5_path.paths:
        network = build_network(seed=seed, interval=interval)
        rng = random.Random(100 + seed)
        now = 100.0
        for step in range(60):
            action = rng.random()
            if action < 0.3:
                entry = now - rng.uniform(0.0, 60.0)
                network.cell(1).attach(
                    Connection(
                        VOICE, entry, 1,
                        prev_cell=rng.choice([None, 0, 2]),
                        cell_entry_time=entry,
                    )
                )
            elif action < 0.5:
                live = list(network.cell(1).connections())
                if live:
                    network.cell(1).detach(live[rng.randrange(len(live))])
            elif action < 0.65:
                network.station(1).estimator.record_departure(
                    now, rng.choice([None, 0, 2]), 0, rng.uniform(5.0, 80.0)
                )
            elif action < 0.8:
                network.station(0).window.t_est = rng.uniform(1.0, 30.0)
            else:
                now += rng.uniform(0.0, 20.0)
            with eq5_path(path):
                installed = network.station(0).update_target_reservation(now)
            assert installed == naive_reservation(network, 0, now), path


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_randomized_history_grouped_tick_matches_sequential(seed, eq5_path):
    """Tick flushes equal the naive reference under churn."""
    for path in eq5_path.paths:
        network = build_network(seed=seed)
        rng = random.Random(200 + seed)
        now = 100.0
        for step in range(40):
            action = rng.random()
            if action < 0.4:
                entry = now - rng.uniform(0.0, 60.0)
                network.cell(1).attach(
                    Connection(
                        VOICE, entry, 1,
                        prev_cell=rng.choice([None, 0, 2]),
                        cell_entry_time=entry,
                    )
                )
            elif action < 0.6:
                live = list(network.cell(1).connections())
                if live:
                    network.cell(1).detach(live[rng.randrange(len(live))])
            else:
                now += rng.uniform(0.0, 20.0)
            targets = rng.sample(range(10), rng.randrange(1, 4))
            with eq5_path(path):
                for cell_id in targets:
                    network.mark_reservation_dirty(cell_id)
                network.flush_reservation_tick(now)
            for cell_id in targets:
                assert network.cell(cell_id).reserved_target == (
                    naive_reservation(network, cell_id, now)
                ), path


def test_mixed_tick_matches_naive(eq5_path):
    """One tick whose supplier mixes every kind of block and request.

    Supplier 1 carries a batch-sized block, a walk-sized block and a
    non-unit-weight block; supplier 3 is an empty cell; target 2 asks
    with ``t_est = 0``.
    """
    from repro.estimation.function import HandoffEstimationFunction

    for path in eq5_path.paths:
        network = CellularNetwork(
            LinearTopology(10), cache_config=CacheConfig(interval=None)
        )
        rng = random.Random(5)
        supplier = network.station(1)
        for index in range(90):
            supplier.estimator.record_departure(
                float(index),
                rng.choice([None, 0, 2]),
                rng.choice([0, 2]),
                rng.uniform(5.0, 60.0),
            )
        for prev, rows in ((None, 40), (0, 5), (2, 35)):
            for _ in range(rows):
                entry = rng.uniform(40.0, 100.0)
                network.cell(1).attach(
                    Connection(
                        VOICE, entry, 1,
                        prev_cell=prev, cell_entry_time=entry,
                    )
                )
        estimator = supplier.estimator
        unit_function_for = estimator.function_for

        def function_for(now, prev):
            if prev == 2:
                # Same masses, but built without the unit-weight flag.
                return HandoffEstimationFunction(
                    estimator.cache.active(now, prev)
                )
            return unit_function_for(now, prev)

        estimator.function_for = function_for
        network.station(0).window.t_est = 12.0
        network.station(2).window.t_est = 0.0
        with eq5_path(path):
            network.mark_reservation_dirty(0)
            network.mark_reservation_dirty(2)
            network.flush_reservation_tick(100.0)
        assert network.cell(0).reserved_target == naive_reservation(
            network, 0, 100.0
        ), path
        assert network.cell(0).reserved_target > 0.0
        assert network.cell(2).reserved_target == 0.0
        if path == "default" and HAS_NUMPY:
            assert estimator.eq4_vector_rows == 40
            assert estimator.eq4_scalar_rows == 5 + 35
