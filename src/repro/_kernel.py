"""Optional numpy support and the cross-cell Eq. 5 flush batch.

This is the single place that imports :mod:`numpy`.  The package works
without it: every Eq. 5 evaluation then takes the resumable ``bisect``
walk (:meth:`repro.estimation.function.HandoffEstimationFunction.batch_contributions`).
With numpy installed (``pip install repro[fast]``), the supply step
(:func:`repro.core.reservation.supply_contributions`) sends large
unit-weight ``prev`` blocks to :class:`FlushBatch`, which evaluates
the rows of every such block of one tick in a single columnar pass.
Both paths produce bit-identical contributions: the vectorized
arithmetic mirrors the scalar walk op for op.
"""

from __future__ import annotations

try:  # the only eager numpy import in the package — keep it that way
    import numpy as _numpy
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _numpy = None

#: Whether the optional ``[fast]`` dependency is importable at all.
HAS_NUMPY = _numpy is not None


def kernel_name() -> str:
    """``numpy`` when numpy is importable (large blocks are batched),
    else ``python`` (every block walks)."""
    return "numpy" if HAS_NUMPY else "python"


def numpy_or_none():
    """The numpy module, or ``None`` on numpy-free installs."""
    return _numpy


# ----------------------------------------------------------------------
# cross-cell flush batch of the Eq. 5 supply step
# ----------------------------------------------------------------------
class FlushSegment:
    """Per ``(supplier, target)`` output of one flush batch.

    Holds the contribution of every row of the supplier's blocks (one
    per attached connection whose ``prev`` has history, in block order)
    and, after :meth:`FlushBatch.resolve`, the Eq. 5 total summed in the
    supplier's connection-iteration order (``perm`` maps that order to
    row positions) — the exact left-to-right addition sequence of the
    naive per-connection loop.
    """

    __slots__ = ("perm", "values", "walked", "total")

    def __init__(self, values, perm) -> None:
        self.perm = perm
        #: Row contributions, 0.0 for rows without mass (which adds
        #: nothing — bit-identically — to the total).
        self.values = values
        #: ``row position -> contribution`` of the supplier's walked
        #: blocks, scattered into :attr:`values` at resolve time.
        self.walked: dict[int, float] = {}
        self.total = 0.0


class FlushBatch:
    """Cross-supplier accumulator of one tick's batched Eq. 4/5 rows.

    Suppliers register their per-``prev``-block binary-search results
    (:meth:`union_indices` / :meth:`add_part`); :meth:`resolve` then
    evaluates every registered row in **one** flush-level arithmetic
    pass — concatenated gathers, a single masked divide/clip/scale —
    and scatters the contributions back into each segment.

    Only *unit-weight* masses participate (``w == 1.0``, the stationary
    default): their cumulative weights are exact consecutive integers,
    so the Eq. 4 masses equal the search indices themselves and no
    prefix-sum gathers are needed.  The arithmetic replays the scalar
    walk op for op (subtract, divide, ``min``, scale), so every
    contribution — and every total — is bit-identical to the walk and
    to the naive reference.
    """

    __slots__ = (
        "np",
        "_idx_u",
        "_idx_lo",
        "_idx_hi",
        "_union_lens",
        "_lengths",
        "_bases",
        "_targets",
        "_segments",
    )

    def __init__(self, np) -> None:
        self.np = np
        self._idx_u = []
        self._idx_lo = []
        self._idx_hi = []
        self._union_lens = []
        self._lengths = []
        self._bases = []
        #: ``(segment, row offset)`` per registered part.
        self._targets = []
        self._segments: list[FlushSegment] = []

    def new_segment(self, n_rows: int, perm) -> FlushSegment:
        segment = FlushSegment(
            self.np.zeros(n_rows, dtype=self.np.float64), perm
        )
        self._segments.append(segment)
        return segment

    def union_indices(self, union_sojourns, extants):
        """Eq. 4 denominator search of one block (shared across its
        requests): count of union sojourns ``<= extant`` per row."""
        # ndarray method, not np.searchsorted: the free-function wrapper
        # costs a dispatch layer per call and this is the hot path.
        return union_sojourns.searchsorted(extants, side="right")

    def add_part(
        self,
        segment: FlushSegment,
        offset: int,
        idx_u,
        union_len: int,
        target_sojourns,
        extants,
        extants_high,
        bases,
    ) -> None:
        """Register one ``(block, request)`` numerator search."""
        self._idx_u.append(idx_u)
        self._idx_lo.append(
            target_sojourns.searchsorted(extants, side="right")
        )
        self._idx_hi.append(
            target_sojourns.searchsorted(extants_high, side="right")
        )
        self._union_lens.append(union_len)
        self._lengths.append(len(bases))
        self._bases.append(bases)
        self._targets.append((segment, offset))

    def resolve(self) -> None:
        """Evaluate all registered parts and total every segment."""
        np = self.np
        if self._lengths:
            idx_u = np.concatenate(self._idx_u)
            idx_lo = np.concatenate(self._idx_lo)
            idx_hi = np.concatenate(self._idx_hi)
            union_len = np.repeat(
                np.asarray(self._union_lens, dtype=np.int64),
                np.asarray(self._lengths, dtype=np.int64),
            )
            # Unit-weight masses: cumulative weight of the first k
            # entries is exactly float(k), so the masses are the search
            # indices themselves and the scalar walk's gathers reduce
            # to integer differences (converted to the same float64
            # values the gathers would have produced).
            den_count = union_len - idx_u
            num_count = idx_hi - idx_lo
            valid = (den_count > 0) & (num_count > 0)
            denominator = den_count.astype(np.float64)
            numerator = num_count.astype(np.float64)
            ratio = np.divide(
                numerator,
                denominator,
                out=np.zeros(len(denominator), dtype=np.float64),
                where=valid,
            )
            np.minimum(ratio, 1.0, out=ratio)
            contributions = np.concatenate(self._bases) * ratio
            cursor = 0
            for (segment, offset), length in zip(
                self._targets, self._lengths
            ):
                segment.values[offset:offset + length] = contributions[
                    cursor:cursor + length
                ]
                cursor += length
        for segment in self._segments:
            walked = segment.walked
            if walked:
                segment.values[list(walked)] = list(walked.values())
            if len(segment.values):
                # cumsum is a strict left-to-right recurrence, so the
                # last element is the same addition sequence — hence
                # the same float — as the per-connection Python loop.
                segment.total = float(
                    np.cumsum(segment.values[segment.perm])[-1]
                )
