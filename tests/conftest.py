"""Shared fixtures: fresh global id counters, and the Eq. 5 paths."""

from contextlib import contextmanager

import pytest

import repro.cellular.network as network_module
import repro.core.reservation as reservation_module
import repro.simulation.spatial as spatial_module
from repro.core.reservation import expected_handoff_bandwidth
from repro.mobility.mobile import reset_mobile_ids
from repro.traffic.connection import reset_connection_ids

#: Ways the supply step can evaluate a unit-weight block: the shipped
#: block-size rule, always the walk (a numpy-free install), or always
#: the numpy batch.  Each must match the naive reference bit for bit.
EQ5_PATHS = ("default", "walk", "batch")


@pytest.fixture(autouse=True)
def _fresh_id_counters():
    reset_connection_ids()
    reset_mobile_ids()
    yield


def naive_supply(now, requests):
    """The supply step's contract, evaluated one connection at a time."""
    return {
        station: [
            expected_handoff_bandwidth(
                station.estimator,
                now,
                list(station.cell.connections()),
                target,
                t_est,
            )
            for target, t_est in targets
        ]
        for station, targets in requests.items()
    }


@contextmanager
def _eq5_path(path: str):
    """Run the enclosed code with Eq. 5 forced onto ``path``.

    ``naive`` routes every supply step through :func:`naive_supply`;
    the :data:`EQ5_PATHS` entries steer the real supply step.
    """
    with pytest.MonkeyPatch.context() as patch:
        if path == "naive":
            for module in (network_module, spatial_module):
                patch.setattr(module, "supply_contributions", naive_supply)
        elif path == "walk":
            patch.setattr(reservation_module, "numpy_or_none", lambda: None)
        elif path == "batch":
            if reservation_module.numpy_or_none() is None:
                pytest.skip("numpy is not installed")
            patch.setattr(reservation_module, "_VECTOR_MIN_ROWS", 1)
        elif path != "default":
            raise ValueError(f"unknown Eq. 5 path {path!r}")
        yield


_eq5_path.paths = EQ5_PATHS


@pytest.fixture(scope="session")
def eq5_path():
    """Context-manager factory forcing one Eq. 5 path (see :func:`_eq5_path`);
    its ``paths`` attribute lists the real supply step's paths."""
    return _eq5_path
