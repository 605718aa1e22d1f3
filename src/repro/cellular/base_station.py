"""Base station: the per-cell control-plane of the scheme.

Each :class:`BaseStation` owns its cell's mobility estimator (§3) and
estimation-window controller (§4.2), and implements the distributed
reservation protocol of §4.1:

* when *this* cell needs ``B_r`` updated, it informs its neighbours of
  its current ``T_est`` and each neighbour computes Eq. 5 over its own
  connections; the results are aggregated with Eq. 6;
* every hand-off arrival (success or drop) feeds the window controller;
* every departure is recorded as a quadruplet in the estimator.

Inter-BS message exchanges are counted so the star-vs-full-mesh
signaling comparison (Figure 1) and the ``N_calc`` complexity metric
(Figure 13) can be reported.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cellular.cell import Cell
from repro.core.window import EstimationWindowController
from repro.estimation.estimator import MobilityEstimator

if TYPE_CHECKING:  # pragma: no cover
    from repro.cellular.network import CellularNetwork

#: Sentinel "next cell" for mobiles driving off an open road's ends.
EXIT_CELL = -1


class BaseStation:
    """Controller of one cell.

    Parameters
    ----------
    cell:
        The radio cell this station serves.
    network:
        Owning network (used to reach neighbouring stations).
    estimator:
        This cell's mobility estimator.
    window_controller:
        This cell's adaptive ``T_est`` controller.
    """

    def __init__(
        self,
        cell: Cell,
        network: "CellularNetwork",
        estimator: MobilityEstimator,
        window_controller: EstimationWindowController,
    ) -> None:
        self.cell = cell
        self.network = network
        self.estimator = estimator
        self.window = window_controller
        #: Number of times this station computed its own ``B_r`` (Eq. 6).
        self.reservation_calculations = 0
        #: Inter-BS (or BS<->MSC) messages attributable to this station.
        self.messages_sent = 0
        #: Cached neighbour stations (the topology is immutable).
        self._neighbor_stations: list["BaseStation"] | None = None

    @property
    def cell_id(self) -> int:
        return self.cell.cell_id

    @property
    def t_est(self) -> float:
        """Current estimation window ``T_est`` of this cell (seconds)."""
        return self.window.t_est

    def neighbor_stations(self) -> list["BaseStation"]:
        """Base stations of the adjacent cells (``A_0``)."""
        stations = self._neighbor_stations
        if stations is None:
            stations = self._neighbor_stations = [
                self.network.station(neighbor)
                for neighbor in self.network.topology.neighbors(self.cell_id)
            ]
        return stations

    # ------------------------------------------------------------------
    # distributed reservation (Eqs. 5-6)
    # ------------------------------------------------------------------
    def update_target_reservation(self, now: float) -> float:
        """Eq. 6: recompute and install this cell's ``B_r``.

        Models the protocol of §4.1: this BS announces ``T_est`` to each
        neighbour (one message each), every neighbour answers with its
        Eq. 5 contribution (one message each).  Runs as a one-target
        :meth:`~repro.cellular.network.CellularNetwork.refresh_reservations`.
        """
        self.network.refresh_reservations(now, [self.cell_id])
        return self.cell.reserved_target

    # ------------------------------------------------------------------
    # hand-off bookkeeping
    # ------------------------------------------------------------------
    def neighborhood_max_sojourn(self, now: float) -> float:
        """``T_soj,max``: largest sojourn in the neighbours' estimators."""
        maximum = 0.0
        for neighbor in self.neighbor_stations():
            maximum = max(maximum, neighbor.estimator.max_sojourn(now))
        return maximum

    def on_handoff_arrival(self, dropped: bool, now: float) -> None:
        """Feed the window controller for a hand-off into this cell."""
        self.window.on_handoff(
            dropped, self.neighborhood_max_sojourn(now), now
        )

    def record_departure(
        self,
        now: float,
        prev: int | None,
        next_cell: int,
        entry_time: float,
    ) -> None:
        """Cache the quadruplet of a mobile that just left this cell."""
        self.estimator.record_departure(
            now, prev, next_cell, now - entry_time
        )
