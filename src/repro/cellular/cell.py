"""A cell: the radio coverage area of one base station.

The cell tracks its fixed link capacity (FCA, in bandwidth units — one
BU is the bandwidth of a voice connection, paper §2) and the set of
admitted connections.  Two admission paths exist, mirroring the paper:

* **new connections** must fit under ``capacity - reserved_target``
  (Eq. 1) — the reserved band is off-limits to them;
* **hand-offs** may use the whole capacity, including the reserved band.

The cell itself only does bandwidth accounting; *which* reservation
target applies is decided by the admission policy.  As a side product
of that accounting it maintains columnar ``prev``-buckets of its
connections (:class:`ReservationGroup`), the input of the Eq. 5
supply step.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.traffic.connection import Connection


class CapacityError(ValueError):
    """Raised when bandwidth accounting would go out of [0, C]."""


class ReservationGroup:
    """Columnar view of one ``prev``-bucket of attached connections.

    Three parallel lists sorted ascending by entry time: connection ids,
    cell entry times, and reservation bases (both immutable while a
    connection stays attached).  Sorted order is what lets the Eq. 5
    supply step run a resumable binary-search walk, or one vectorized
    ``searchsorted`` pass, over the whole bucket without re-sorting per
    reservation update.  Simulated attaches happen at
    ``now`` so the common insert is an append; out-of-order entry times
    (synthetic populations) fall back to an insort.
    """

    __slots__ = ("keys", "entries", "bases", "seqs", "_arrays", "_seq_array",
                 "rebuilds")

    def __init__(self) -> None:
        self.keys: list[int] = []
        self.entries: list[float] = []
        self.bases: list[float] = []
        #: Cell-wide attach sequence numbers (see :attr:`Cell.attach`):
        #: ascending sequence over all buckets reproduces the cell's
        #: connection-iteration order, which is the order the Eq. 5
        #: supply step sums contributions in.
        self.seqs: list[int] = []
        #: Cached ``(entries, bases)`` ndarray pair (see :meth:`arrays`);
        #: invalidated by every mutation.
        self._arrays = None
        #: Cached ``seqs`` ndarray, invalidated alongside :attr:`_arrays`.
        self._seq_array = None
        #: Times the ndarray cache was rebuilt (a telemetry observable:
        #: rebuilds / queries is the group-level cache miss rate).
        self.rebuilds = 0

    def __len__(self) -> int:
        return len(self.keys)

    def add(
        self, key: int, entry_time: float, basis: float, seq: int = 0
    ) -> None:
        self._arrays = None
        self._seq_array = None
        entries = self.entries
        if not entries or entry_time >= entries[-1]:
            self.keys.append(key)
            entries.append(entry_time)
            self.bases.append(basis)
            self.seqs.append(seq)
            return
        index = bisect_right(entries, entry_time)
        self.keys.insert(index, key)
        entries.insert(index, entry_time)
        self.bases.insert(index, basis)
        self.seqs.insert(index, seq)

    def remove(self, key: int, entry_time: float) -> bool:
        """Drop one connection located via its (exact) entry time."""
        entries = self.entries
        index = bisect_left(entries, entry_time)
        count = len(entries)
        keys = self.keys
        while index < count and entries[index] == entry_time:
            if keys[index] == key:
                self._arrays = None
                self._seq_array = None
                del keys[index]
                del entries[index]
                del self.bases[index]
                del self.seqs[index]
                return True
            index += 1
        return False

    def discard(self, key: int) -> bool:
        """Linear-scan removal for when the entry time is unreliable."""
        try:
            index = self.keys.index(key)
        except ValueError:
            return False
        self._arrays = None
        self._seq_array = None
        del self.keys[index]
        del self.entries[index]
        del self.bases[index]
        del self.seqs[index]
        return True

    def arrays(self, np):
        """Cached ``(entries, bases)`` float64 ndarrays of the columns.

        Reservation updates re-query the same (unchanged) groups for
        every neighbour target; caching the conversion keeps the numpy
        flush batch from re-materialising arrays each time.
        """
        cached = self._arrays
        if cached is None:
            self.rebuilds += 1
            cached = self._arrays = (
                np.asarray(self.entries, dtype=np.float64),
                np.asarray(self.bases, dtype=np.float64),
            )
        return cached

    def seq_array(self, np):
        """Cached int64 ndarray of the attach sequence numbers."""
        cached = self._seq_array
        if cached is None:
            cached = self._seq_array = np.asarray(self.seqs, dtype=np.int64)
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReservationGroup(size={len(self.keys)})"


class Cell:
    """One cell with fixed link capacity.

    Parameters
    ----------
    cell_id:
        Index of the cell in its network (0-based).
    capacity:
        Wireless link capacity ``C(i)`` in BUs (paper assumption A6 uses
        100 BUs for every cell).
    """

    def __init__(
        self,
        cell_id: int,
        capacity: float,
        handoff_overload: float = 1.0,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if handoff_overload < 1.0:
            raise ValueError(
                f"hand-off overload factor must be >= 1, got"
                f" {handoff_overload}"
            )
        self.cell_id = cell_id
        self.capacity = float(capacity)
        #: CDMA-style *soft capacity* (paper §7): hand-offs may push the
        #: cell up to ``capacity * handoff_overload`` by accepting a
        #: higher interference level; new connections never may.
        self.handoff_capacity = float(capacity) * float(handoff_overload)
        self.used_bandwidth = 0.0
        #: Target reservation bandwidth ``B_r`` most recently computed for
        #: this cell (``B_r^{prev}`` in the AC3 description, §4.3).  For the
        #: static scheme this is the constant guard band ``G``.
        self.reserved_target = 0.0
        #: Monotone counter bumped on every attach/detach/adjustment
        #: (checkpointed with the cell).
        self.version = 0
        self._connections: dict[int, "Connection"] = {}
        #: Incremental ``prev -> ReservationGroup`` buckets over the
        #: attached connections — the grouped columnar input of the
        #: batched Eq. 5 path.
        self._by_prev: dict[int | None, ReservationGroup] = {}
        #: ndarray-cache rebuilds of buckets already emptied and dropped
        #: (so :attr:`group_rebuilds` survives bucket turnover).
        self._retired_rebuilds = 0
        #: Monotone attach counter.  ``dict`` preserves insertion order
        #: and re-attaches get a fresh (higher) number, so ascending
        #: sequence == the iteration order of :meth:`connections`.
        self._attach_seq = 0

    # ------------------------------------------------------------------
    # capacity queries
    # ------------------------------------------------------------------
    @property
    def free_bandwidth(self) -> float:
        """Bandwidth not used by any existing connection."""
        return self.capacity - self.used_bandwidth

    @property
    def connection_count(self) -> int:
        """Number of connections currently carried by this cell."""
        return len(self._connections)

    def connections(self) -> Iterator["Connection"]:
        """Iterate over the connections currently in this cell."""
        return iter(self._connections.values())

    def reservation_groups(self) -> dict[int | None, "ReservationGroup"]:
        """Attached connections bucketed by ``prev`` cell.

        Maps ``prev -> ReservationGroup`` (parallel id/entry-time/basis
        columns sorted by entry time).  Maintained incrementally on
        attach/detach, so Eq. 5 can fetch each F_HOE snapshot once per
        bucket and evaluate the whole bucket in one batched pass.  The
        returned mapping is live — treat it as read-only.
        """
        return self._by_prev

    @property
    def group_rebuilds(self) -> int:
        """Total ``ReservationGroup`` ndarray-cache rebuilds (telemetry)."""
        return self._retired_rebuilds + sum(
            group.rebuilds for group in self._by_prev.values()
        )

    def fits_new_connection(self, bandwidth: float) -> bool:
        """Admission test of Eq. (1): new traffic must respect ``B_r``."""
        return (
            self.used_bandwidth + bandwidth
            <= self.capacity - self.reserved_target + 1e-9
        )

    def fits_handoff(self, bandwidth: float) -> bool:
        """Hand-offs may consume reserved bandwidth and (in soft-capacity
        deployments) the interference margin above the nominal capacity."""
        return self.used_bandwidth + bandwidth <= self.handoff_capacity + 1e-9

    def can_reserve_target(self) -> bool:
        """Whether the current ``B_r`` target is actually reservable.

        ``False`` means the cell is *suspect* in AC3 terms: its existing
        connections already overlap the reserved band
        (``sum b_j + B_r^{prev} > C``).
        """
        return (
            self.used_bandwidth + self.reserved_target <= self.capacity + 1e-9
        )

    @property
    def is_suspect(self) -> bool:
        """AC3's *suspect* predicate: the ``B_r`` target is not met.

        A suspect cell's existing connections already overlap its
        reserved band (``sum b_j + B_r^{prev} > C``); AC3 re-estimates
        only these cells before admitting (§4.3).
        """
        return not self.can_reserve_target()

    # ------------------------------------------------------------------
    # bandwidth accounting
    # ------------------------------------------------------------------
    def attach(self, connection: "Connection") -> None:
        """Account a connection into this cell (admission already decided)."""
        if connection.connection_id in self._connections:
            raise CapacityError(
                f"connection {connection.connection_id} already in cell"
                f" {self.cell_id}"
            )
        if (
            self.used_bandwidth + connection.bandwidth
            > self.handoff_capacity + 1e-9
        ):
            raise CapacityError(
                f"cell {self.cell_id}: attaching {connection.bandwidth} BU"
                f" exceeds capacity ({self.used_bandwidth}/"
                f"{self.handoff_capacity})"
            )
        self._connections[connection.connection_id] = connection
        self.used_bandwidth += connection.bandwidth
        # Duck-typed minimal connections (bandwidth only) still account;
        # they just bucket under prev=None at entry time 0.
        group = self._by_prev.get(
            prev := getattr(connection, "prev_cell", None)
        )
        if group is None:
            group = self._by_prev[prev] = ReservationGroup()
        group.add(
            connection.connection_id,
            getattr(connection, "cell_entry_time", 0.0),
            getattr(connection, "reservation_basis", connection.bandwidth),
            self._attach_seq,
        )
        self._attach_seq += 1
        self.version += 1

    def detach(self, connection: "Connection") -> None:
        """Release a connection's bandwidth (hand-off out or completion)."""
        stored = self._connections.pop(connection.connection_id, None)
        if stored is None:
            raise CapacityError(
                f"connection {connection.connection_id} not in cell"
                f" {self.cell_id}"
            )
        self._discard_from_groups(connection)
        self.version += 1
        self.used_bandwidth -= connection.bandwidth
        if self.used_bandwidth < -1e-9:
            raise CapacityError(
                f"cell {self.cell_id}: used bandwidth went negative"
            )
        if self.used_bandwidth < 0:
            self.used_bandwidth = 0.0

    def adjust_bandwidth(
        self, connection: "Connection", new_bandwidth: float
    ) -> None:
        """Re-size an attached connection's allocation (QoS adaptation).

        Keeps the cell's accounting consistent while a degraded
        connection is squeezed further or upgraded back toward its full
        rate.  The new allocation must respect both the class's floor
        and the cell capacity.
        """
        if connection.connection_id not in self._connections:
            raise CapacityError(
                f"connection {connection.connection_id} not in cell"
                f" {self.cell_id}"
            )
        if new_bandwidth < connection.min_bandwidth - 1e-9:
            raise ValueError(
                f"allocation {new_bandwidth} below the class floor"
                f" {connection.min_bandwidth}"
            )
        if new_bandwidth > connection.full_bandwidth + 1e-9:
            raise ValueError(
                f"allocation {new_bandwidth} above the class rate"
                f" {connection.full_bandwidth}"
            )
        delta = new_bandwidth - connection.bandwidth
        if self.used_bandwidth + delta > self.capacity + 1e-9:
            raise CapacityError(
                f"cell {self.cell_id}: adjustment exceeds capacity"
            )
        self.used_bandwidth += delta
        connection.allocated_bandwidth = new_bandwidth
        # The reservation basis (minimum rate) is unaffected; the
        # version still records the change.
        self.version += 1

    def _discard_from_groups(self, connection: "Connection") -> None:
        prev = getattr(connection, "prev_cell", None)
        group = self._by_prev.get(prev)
        if group is not None and group.remove(
            connection.connection_id,
            getattr(connection, "cell_entry_time", 0.0),
        ):
            if not group:
                self._retired_rebuilds += group.rebuilds
                del self._by_prev[prev]
            return
        # ``prev_cell`` or ``cell_entry_time`` mutated while attached
        # (only possible with hand-rolled test doubles): fall back to
        # scanning the buckets.
        for prev, members in list(self._by_prev.items()):
            if members.discard(connection.connection_id):
                if not members:
                    self._retired_rebuilds += members.rebuilds
                    del self._by_prev[prev]
                return

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cell({self.cell_id}, used={self.used_bandwidth:.1f}/"
            f"{self.capacity:.0f}, B_r={self.reserved_target:.2f})"
        )
