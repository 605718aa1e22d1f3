"""End-to-end Eq. 5 paths: AC3 runs with and without numpy.

Without numpy every ``prev`` block takes the resumable walk; with it,
large unit-weight blocks join the numpy flush batch.  Eq. 4/5 are
evaluated with IEEE-identical operations either way, so a whole AC3
scenario produces the same event sequence and the same metrics as the
naive per-connection reference.
"""

import pytest

from repro import _kernel
from repro.estimation.calendar import CalendarEstimator, WeekSchedule
from repro.simulation.scenarios import stationary, time_varying
from repro.simulation.simulator import CellularSimulator


def _run_ac3(eq5_path, path: str):
    config = stationary(
        "AC3",
        offered_load=200.0,
        voice_ratio=0.8,
        high_mobility=True,
        duration=150.0,
        seed=3,
    )
    with eq5_path(path):
        return CellularSimulator(config).run()


def test_ac3_metrics_equivalent_across_kernels(eq5_path):
    naive = _run_ac3(eq5_path, "naive")
    for path in eq5_path.paths:
        result = _run_ac3(eq5_path, path)
        assert result.events_processed == naive.events_processed, path
        assert result.metrics_key() == naive.metrics_key(), path


def _run_calendar_ac3(eq5_path, path: str):
    # The §5.3 time-varying run with per-day-type pattern sets: the
    # supply step answers it through CalendarEstimator.function_for.
    config = time_varying(
        "AC3", time_compression=48.0, seed=1, duration=400.0
    )
    simulator = CellularSimulator(config)
    for station in simulator.network.stations:
        station.estimator = CalendarEstimator(
            schedule=WeekSchedule(day_seconds=config.day_seconds),
            interval=config.t_int,
            weights=config.weights,
        )
    with eq5_path(path):
        return simulator.run()


def test_calendar_ac3_metrics_match_naive_reference(eq5_path):
    naive = _run_calendar_ac3(eq5_path, "naive")
    assert naive.average_calculations > 0
    for path in eq5_path.paths:
        result = _run_calendar_ac3(eq5_path, path)
        assert result.events_processed == naive.events_processed, path
        assert result.metrics_key() == naive.metrics_key(), path


def test_config_rejects_unknown_kernel():
    # The estimation backend is no longer a configuration choice.
    with pytest.raises(TypeError):
        stationary("AC3", offered_load=100.0, kernel="numpy")


def test_auto_kernel_resolves_to_numpy_when_available():
    expected = "numpy" if _kernel.HAS_NUMPY else "python"
    assert _kernel.kernel_name() == expected
