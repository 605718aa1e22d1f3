"""Numpy vs pure-Python equivalence of the batch queries (property-based).

The columnar estimation core answers batch queries two ways: with
numpy, vectorized ``searchsorted`` gathers (Eq. 4 batches) and the
cross-cell flush batch (Eq. 5, unit-weight blocks); without it,
resumable ``bisect`` walks.  The contract is *bit-identity* with the
scalar / naive reference — the same floats out, not just close ones.
These tests drive randomized quadruplet stores and query batches
through both.
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.estimation.function as function_module
from repro import _kernel
from repro.cellular.network import CellularNetwork
from repro.cellular.topology import LinearTopology
from repro.core.reservation import supply_contributions
from repro.estimation.cache import CacheConfig
from repro.estimation.estimator import MobilityEstimator
from repro.traffic.classes import VOICE
from repro.traffic.connection import Connection

requires_numpy = pytest.mark.skipif(
    not _kernel.HAS_NUMPY, reason="numpy is not installed"
)


@contextmanager
def force_kernel(name):
    """``python`` hides numpy from the Eq. 4 batch queries."""
    with pytest.MonkeyPatch.context() as patch:
        if name == "python":
            patch.setattr(function_module, "numpy_or_none", lambda: None)
        yield


sojourns = st.floats(
    min_value=0.0, max_value=10_000.0, allow_nan=False, allow_infinity=False
)
next_cells = st.integers(min_value=0, max_value=4)
observations = st.lists(
    st.tuples(sojourns, next_cells), min_size=0, max_size=60
)
query_batches = st.lists(sojourns, min_size=0, max_size=50)
windows = st.floats(
    min_value=0.0, max_value=5_000.0, allow_nan=False, allow_infinity=False
)


def build_estimator(items):
    estimator = MobilityEstimator(CacheConfig(interval=None))
    for index, (sojourn, next_cell) in enumerate(items):
        estimator.record_departure(float(index), 1, next_cell, sojourn)
    return estimator


# ----------------------------------------------------------------------
# Eq. 4 batches
# ----------------------------------------------------------------------
@requires_numpy
@given(observations, query_batches, windows, next_cells)
def test_batch_probabilities_identical_across_kernels(
    items, extants, t_est, next_cell
):
    estimator = build_estimator(items)
    with force_kernel("numpy"):
        vectorized = estimator.handoff_probability_batch(
            1e6, 1, extants, next_cell, t_est
        )
    with force_kernel("python"):
        fallback = estimator.handoff_probability_batch(
            1e6, 1, extants, next_cell, t_est
        )
    assert vectorized == fallback


@requires_numpy
@given(observations, query_batches, windows, next_cells)
def test_batch_probabilities_match_scalar_queries(
    items, extants, t_est, next_cell
):
    estimator = build_estimator(items)
    with force_kernel("numpy"):
        batched = estimator.handoff_probability_batch(
            1e6, 1, extants, next_cell, t_est
        )
    scalar = [
        estimator.handoff_probability(1e6, 1, extant, next_cell, t_est)
        for extant in extants
    ]
    assert batched == scalar


@requires_numpy
@given(query_batches, windows, next_cells)
def test_empty_store_batch_is_all_zero(extants, t_est, next_cell):
    estimator = MobilityEstimator(CacheConfig(interval=None))
    for kernel in ("numpy", "python"):
        with force_kernel(kernel):
            result = estimator.handoff_probability_batch(
                1e6, 1, extants, next_cell, t_est
            )
        assert result == [0.0] * len(extants)


@requires_numpy
@given(sojourns, query_batches, windows)
def test_single_sample_store_across_kernels(sojourn, extants, t_est):
    estimator = MobilityEstimator(CacheConfig(interval=None))
    estimator.record_departure(0.0, 1, 2, sojourn)
    results = {}
    for kernel in ("numpy", "python"):
        with force_kernel(kernel):
            results[kernel] = estimator.handoff_probability_batch(
                1e6, 1, extants, 2, t_est
            )
    assert results["numpy"] == results["python"]
    # A single observation yields all-or-nothing probabilities.
    for extant, probability in zip(extants, results["numpy"]):
        if extant >= sojourn or t_est <= 0:
            assert probability == 0.0  # no mass above, or empty window
        else:
            assert probability in (0.0, 1.0)


# ----------------------------------------------------------------------
# Eq. 5: flush batch and walk against the naive reference
# ----------------------------------------------------------------------
@requires_numpy
@settings(max_examples=40)
@given(
    observations,
    st.lists(
        st.floats(min_value=0.0, max_value=1_000.0), min_size=1, max_size=70
    ),
    windows,
    next_cells,
)
def test_batch_contributions_arrays_matches_walk(
    items, entry_times, t_est, target
):
    import numpy as np

    estimator = build_estimator(items)
    snapshot = estimator.function_for(1e6, 1)
    now = 1_000.0
    entries = sorted(entry_times)
    keys = list(range(len(entries)))
    bases = [1.0 + (key % 3) for key in keys]
    walked = snapshot.batch_contributions(
        target,
        [
            (keys[i], now - entries[i], bases[i])
            for i in range(len(keys) - 1, -1, -1)
        ],
        t_est,
    )
    naive = {}
    for key in keys:
        value = bases[key] * estimator.handoff_probability(
            1e6, 1, now - entries[key], target, t_est
        )
        if value > 0.0:
            naive[key] = value
    assert walked == naive
    target_sojourns = snapshot.target_sojourn_array(np, target)
    if t_est <= 0 or target_sojourns is None:
        return
    batch = _kernel.FlushBatch(np)
    segment = batch.new_segment(len(keys), np.arange(len(keys)))
    extants = now - np.asarray(entries, dtype=np.float64)
    union = snapshot.union_sojourn_array(np)
    batch.add_part(
        segment,
        0,
        batch.union_indices(union, extants),
        len(union),
        target_sojourns,
        extants,
        extants + t_est,
        np.asarray(bases, dtype=np.float64),
    )
    batch.resolve()
    batched = {
        key: value
        for key, value in enumerate(segment.values.tolist())
        if value > 0.0
    }
    assert batched == naive


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), windows)
def test_grouped_expected_bandwidth_identical_across_kernels(
    eq5_path, seed, t_est
):
    """Supply step over a cell's ``prev`` blocks, every path vs naive.

    Block sizes straddle the row constant, so the default path mixes
    the numpy batch and the walk within one supplier.
    """
    import random

    rng = random.Random(seed)
    network = CellularNetwork(
        LinearTopology(6), cache_config=CacheConfig(interval=None)
    )
    station = network.station(5)
    estimator = station.estimator
    for index in range(rng.randrange(0, 120)):
        estimator.record_departure(
            float(index),
            rng.choice((None, 1, 2)),
            rng.choice((0, 2, 3)),
            rng.uniform(0.0, 90.0),
        )
    for _ in range(rng.randrange(0, 90)):
        station.cell.attach(
            Connection(
                VOICE,
                0.0,
                5,
                prev_cell=rng.choice((None, 1, 2)),
                cell_entry_time=rng.uniform(0.0, 1_000.0),
            )
        )
    now = 1_000.0
    naive = estimator.expected_bandwidth(
        now, list(station.cell.connections()), 0, t_est
    )
    for path in eq5_path.paths:
        with eq5_path(path):
            supplied = supply_contributions(now, {station: [(0, t_est)]})
            assert supplied[station] == [naive], path
