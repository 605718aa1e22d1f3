"""The cellular network: cells, topology, and their base stations."""

from __future__ import annotations

from typing import Callable, Iterator

from repro.cellular.base_station import BaseStation
from repro.obs.trace import get_tracer
from repro.core.reservation import aggregate_reservation, supply_contributions
from repro.cellular.cell import Cell
from repro.cellular.topology import Topology
from repro.core.window import EstimationWindowController, WindowControllerConfig
from repro.estimation.cache import CacheConfig
from repro.estimation.estimator import MobilityEstimator


class CellularNetwork:
    """A set of cells wired together by a topology.

    Parameters
    ----------
    topology:
        Adjacency (and, for 1-D roads, geometry) of the cells.
    capacity:
        Wireless link capacity per cell in BUs (A6: 100), or a callable
        mapping cell id to capacity for heterogeneous deployments.
    cache_config:
        Estimator cache parameters shared by all stations.
    window_config:
        Window-controller parameters shared by all stations.
    estimator_factory:
        Override to plug a custom estimator (e.g. ``KnownPathEstimator``).
    cell_factory:
        Override to plug a custom :class:`Cell` subclass — called as
        ``cell_factory(cell_id, capacity, handoff_overload)``.  The
        spatial runner uses this to build
        :class:`~repro.simulation.columnar.ColumnarCell` cells whose
        attached sets live in a shared connection store.
    """

    def __init__(
        self,
        topology: Topology,
        capacity: float | Callable[[int], float] = 100.0,
        cache_config: CacheConfig | None = None,
        window_config: WindowControllerConfig | None = None,
        estimator_factory: Callable[[int], MobilityEstimator] | None = None,
        cell_factory: Callable[[int, float, float], Cell] | None = None,
        handoff_overload: float = 1.0,
    ) -> None:
        self.topology = topology
        #: The run's span tracer (a shared no-op when tracing is off);
        #: grabbed at construction like the telemetry handles are.
        self.tracer = get_tracer()
        #: Cells whose ``B_r`` must be refreshed at the next tick flush.
        self._reservation_dirty: list[int] = []
        #: Tick flushes performed / targets refreshed across them
        #: (telemetry: targets-per-flush is the coalescing win).
        self.tick_flushes = 0
        self.tick_targets = 0
        #: Running inter-BS message total (kept in sync with the
        #: per-station ``messages_sent`` counters by
        #: :meth:`refresh_reservations`, so the per-admission message deltas
        #: need no sweep over all stations).
        self._messages_total = 0
        self.cells: list[Cell] = []
        self.stations: list[BaseStation] = []
        for cell_id in range(topology.num_cells):
            if callable(capacity):
                cell_capacity = capacity(cell_id)
            else:
                cell_capacity = float(capacity)
            if cell_factory is not None:
                cell = cell_factory(cell_id, cell_capacity, handoff_overload)
            else:
                cell = Cell(
                    cell_id, cell_capacity, handoff_overload=handoff_overload
                )
            if estimator_factory is not None:
                estimator = estimator_factory(cell_id)
            else:
                estimator = MobilityEstimator(cache_config)
            controller = EstimationWindowController(
                window_config or WindowControllerConfig()
            )
            self.cells.append(cell)
            self.stations.append(
                BaseStation(cell, self, estimator, controller)
            )

    @property
    def num_cells(self) -> int:
        return self.topology.num_cells

    def cell(self, cell_id: int) -> Cell:
        """Cell by id."""
        return self.cells[cell_id]

    def station(self, cell_id: int) -> BaseStation:
        """Base station by cell id."""
        return self.stations[cell_id]

    def neighbors(self, cell_id: int) -> tuple[int, ...]:
        """Adjacent cell ids."""
        return tuple(self.topology.neighbors(cell_id))

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells)

    # ------------------------------------------------------------------
    # coalesced estimation tick
    # ------------------------------------------------------------------
    def mark_reservation_dirty(self, cell_id: int) -> None:
        """Queue a cell's ``B_r`` refresh for the next tick flush."""
        self._reservation_dirty.append(cell_id)

    def flush_reservation_tick(self, now: float) -> None:
        """Refresh every dirty cell's ``B_r`` in one batched pass.

        Equivalent (bit-for-bit, message-for-message) to calling
        ``update_target_reservation(now)`` on each dirty station in
        queue order: within a single admission test at a fixed ``now``
        the Eq. 5 inputs (connection sets, ``T_est``, estimator state)
        are frozen — installing one target's ``reserved_target`` cannot
        change another's contributions.  The batching win is on the
        supplier side: each supplier answers all of its pending targets
        in one pass over its ``prev`` blocks, and large blocks of every
        supplier share one cross-cell numpy batch
        (:func:`repro.core.reservation.supply_contributions`).
        """
        dirty = self._reservation_dirty
        if not dirty:
            return
        self._reservation_dirty = []
        tracer = self.tracer
        if not tracer.enabled:
            self.refresh_reservations(now, dirty)
        else:
            with tracer.span("kernel.flush_tick", targets=len(dirty)):
                self.refresh_reservations(now, dirty)
        self.tick_flushes += 1
        self.tick_targets += len(dirty)

    def refresh_reservations(self, now: float, cell_ids: list[int]) -> None:
        """Recompute and install ``B_r`` (Eq. 6) of ``cell_ids``.

        Counts the §4.1 protocol messages in the sequential order
        (announce then reply, per target then per neighbour), answers
        every Eq. 5 request in one supply step, and installs each
        target's Eq. 6 sum in its own neighbour order.
        """
        plan: list[tuple[BaseStation, list[BaseStation]]] = []
        requests: dict[BaseStation, list[tuple[int, float]]] = {}
        message_pairs = 0
        for cell_id in cell_ids:
            station = self.stations[cell_id]
            neighbors = station.neighbor_stations()
            plan.append((station, neighbors))
            for neighbor in neighbors:
                station.messages_sent += 1  # announce T_est
                requests.setdefault(neighbor, []).append(
                    (cell_id, station.t_est)
                )
                neighbor.messages_sent += 1  # neighbour returns B_{i,0}
                message_pairs += 1
        self._messages_total += 2 * message_pairs
        supplies = {
            supplier: iter(values)
            for supplier, values in supply_contributions(now, requests).items()
        }
        for station, neighbors in plan:
            station.cell.reserved_target = aggregate_reservation(
                [next(supplies[neighbor]) for neighbor in neighbors]
            )
            station.reservation_calculations += 1

    def total_used_bandwidth(self) -> float:
        """Bandwidth in use across the whole network (BUs)."""
        return sum(cell.used_bandwidth for cell in self.cells)

    def total_messages(self) -> int:
        """Inter-BS messages sent by all stations so far (O(1))."""
        return self._messages_total

    def recount_messages(self) -> int:
        """Rebuild the running message total from the per-station
        counters (used after checkpoint restore overwrites them)."""
        self._messages_total = sum(
            station.messages_sent for station in self.stations
        )
        return self._messages_total

    def total_reservation_calculations(self) -> int:
        """``B_r`` (Eq. 6) computations performed by all stations so far."""
        return sum(
            station.reservation_calculations for station in self.stations
        )
