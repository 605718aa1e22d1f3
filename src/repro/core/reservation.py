"""Target reservation bandwidth computation (paper Eqs. 5–6).

For a target cell ``0`` with estimation window ``T_est,0``:

* Eq. 5 — each adjacent cell ``i`` computes, over its own connections,
  the expected hand-off bandwidth toward the target::

      B_{i,0} = sum_j b(C_{i,j}) * p_h(C_{i,j} -> 0)

  where ``p_h`` comes from cell ``i``'s estimator (Eq. 4) evaluated with
  the *target* cell's ``T_est``.

* Eq. 6 — the target's reservation bandwidth aggregates its neighbours::

      B_{r,0} = sum_{i in A_0} B_{i,0}

:func:`expected_handoff_bandwidth` and :func:`aggregate_reservation`
are pure functions over duck-typed inputs (anything with
``bandwidth``, ``prev_cell`` and ``cell_entry_time`` counts as a
connection), so they are usable outside the bundled simulator; the
first is also the naive reference every faster path must match bit
for bit.  :func:`supply_contributions` is the Eq. 5 step every ``B_r``
refresh of the simulator goes through.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Protocol, Sequence

from repro._kernel import FlushBatch, numpy_or_none
from repro.estimation.estimator import MobilityEstimator

if TYPE_CHECKING:  # pragma: no cover
    from repro.cellular.base_station import BaseStation

#: Smallest unit-weight ``prev`` block (rows) that the supply step sends
#: to the cross-cell numpy :class:`~repro._kernel.FlushBatch`; smaller
#: blocks, and every non-unit-weight block, take the resumable walk.
#: Below it, per-call ndarray overhead costs more than the walk's
#: per-row Python work (measured crossover: DESIGN.md §4).
_VECTOR_MIN_ROWS = 32


class ReservableConnection(Protocol):
    """What Eq. 5 needs to know about a connection."""

    bandwidth: float
    prev_cell: int | None
    cell_entry_time: float


def expected_handoff_bandwidth(
    estimator: MobilityEstimator,
    now: float,
    connections: Iterable[ReservableConnection],
    target_cell: int,
    t_est: float,
) -> float:
    """Eq. 5: expected hand-off bandwidth from one cell toward ``target_cell``.

    The naive per-connection evaluation — the reference
    :func:`supply_contributions` reproduces bit for bit, and the path
    of estimators that answer Eq. 5 only as a whole (route oracles,
    duck-typed estimators).

    Parameters
    ----------
    estimator:
        The *source* cell's mobility estimator.
    now:
        Current virtual time (seconds).
    connections:
        Connections currently carried by the source cell.
    target_cell:
        Global id of the cell computing its reservation.
    t_est:
        The target cell's estimation window ``T_est`` (seconds).
    """
    return estimator.expected_bandwidth(now, connections, target_cell, t_est)


def _walk_rows(group, now: float, keys: Sequence[int]):
    """``(key, extant sojourn, basis)`` rows of one ``prev`` block in
    non-decreasing extant order (entry times ascend, so walk them back)."""
    entries = group.entries
    bases = group.bases
    return (
        (keys[index], now - entries[index], bases[index])
        for index in range(len(entries) - 1, -1, -1)
    )


def supply_contributions(
    now: float,
    requests: dict["BaseStation", list[tuple[int, float]]],
) -> dict["BaseStation", list[float]]:
    """The Eq. 5 supply step of one reservation tick.

    ``requests`` maps each supplying base station to the
    ``(target_cell, t_est)`` pairs it must answer; the result maps it to
    the parallel list of contributions ``B_{supplier, target}``.
    Message counting stays with the callers.

    Each supplier's ``prev`` blocks (:meth:`repro.cellular.cell.Cell.reservation_groups`)
    are walked once, fetching one F_HOE snapshot per block.  A block
    with at least :data:`_VECTOR_MIN_ROWS` rows and a unit-weight
    snapshot joins the tick-wide :class:`~repro._kernel.FlushBatch`
    (numpy installs only); every other block takes the resumable walk
    (:meth:`~repro.estimation.function.HandoffEstimationFunction.batch_contributions`).
    Totals are summed in connection-iteration order — ascending attach
    sequence — so every result is bit-identical to
    :func:`expected_handoff_bandwidth`, which estimators without
    ``function_for`` and route oracles use directly.
    """
    np = numpy_or_none()
    batch = None
    deferred = []
    supplies: dict["BaseStation", list[float]] = {}
    for station, targets in requests.items():
        totals = supplies[station] = [0.0] * len(targets)
        estimator = station.estimator
        function_for = getattr(estimator, "function_for", None)
        if (
            function_for is None
            or getattr(estimator, "route_oracle", None) is not None
        ):
            connections = list(station.cell.connections())
            for index, (target, t_est) in enumerate(targets):
                totals[index] = expected_handoff_bandwidth(
                    estimator, now, connections, target, t_est
                )
            continue
        live = [
            (index, target, t_est)
            for index, (target, t_est) in enumerate(targets)
            if t_est > 0
        ]
        if not live:
            continue
        blocks = []
        batched = False
        for prev, group in station.cell.reservation_groups().items():
            snapshot = function_for(now, prev)
            if snapshot.is_empty:
                continue
            vector = (
                np is not None
                and len(group) >= _VECTOR_MIN_ROWS
                and snapshot.is_unit_weight
            )
            batched = batched or vector
            blocks.append((group, snapshot, vector))
        count = getattr(estimator, "count_dispatch", None)
        if count is not None:
            for group, _snapshot, vector in blocks:
                count(vector, len(group) * len(live))
        if not batched:
            _walk_supplier(now, blocks, live, totals)
            continue
        if batch is None:
            batch = FlushBatch(np)
        for (index, _target, _t_est), segment in zip(
            live, _batch_supplier(batch, now, blocks, live)
        ):
            deferred.append((totals, index, segment))
    if batch is not None:
        batch.resolve()
        for totals, index, segment in deferred:
            totals[index] = segment.total
    return supplies


def _walk_supplier(now: float, blocks, live, totals: list[float]) -> None:
    """Walk every block of a supplier with no batch-sized block.

    Rows are keyed by attach sequence, so the sorted keys replay the
    connection-iteration order.
    """
    for index, target, t_est in live:
        contributions: dict[int, float] = {}
        for group, snapshot, _vector in blocks:
            contributions.update(
                snapshot.batch_contributions(
                    target, _walk_rows(group, now, group.seqs), t_est
                )
            )
        total = 0.0
        for seq in sorted(contributions):
            total += contributions[seq]
        totals[index] = total


def _batch_supplier(batch: FlushBatch, now: float, blocks, live) -> list:
    """Register a supplier with a batch-sized block into ``batch``.

    Rows are positions in the concatenated blocks; each request's
    segment is totalled over them in connection-iteration order
    (``perm``, one ``argsort`` of the attach sequences) when the batch
    resolves.  Walked blocks write their rows into the same segments.
    """
    np = batch.np
    perm = np.argsort(
        np.concatenate([group.seq_array(np) for group, _, _ in blocks])
    )
    segments = [batch.new_segment(len(perm), perm) for _ in live]
    offset = 0
    for group, snapshot, vector in blocks:
        if vector:
            entries, bases = group.arrays(np)
            extants = now - entries
            union = idx_u = None
            for (_index, target, t_est), segment in zip(live, segments):
                target_sojourns = snapshot.target_sojourn_array(np, target)
                if target_sojourns is None:
                    continue
                if union is None:
                    union = snapshot.union_sojourn_array(np)
                    idx_u = batch.union_indices(union, extants)
                batch.add_part(
                    segment,
                    offset,
                    idx_u,
                    len(union),
                    target_sojourns,
                    extants,
                    extants + t_est,
                    bases,
                )
        else:
            positions = range(offset, offset + len(group))
            for (_index, target, t_est), segment in zip(live, segments):
                segment.walked.update(
                    snapshot.batch_contributions(
                        target, _walk_rows(group, now, positions), t_est
                    )
                )
        offset += len(group)
    return segments


def aggregate_reservation(per_neighbor: Iterable[float]) -> float:
    """Eq. 6: the target reservation bandwidth ``B_r`` of a cell."""
    return sum(per_neighbor)
