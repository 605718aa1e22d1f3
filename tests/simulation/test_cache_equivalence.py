"""Whole-run equivalence: the supply step never changes a metric.

Runs the acceptance scenarios — the Figure 7 static policy and the
Figure 10/11 AC3 trace run — once with the shipped Eq. 5 supply step
and once with every supply routed through the naive per-connection
reference, and requires every simulation-determined field of the
results (counters, probabilities, traces, N_calc, messages) to be
identical.  Only wall-clock time may differ.
"""

from repro.simulation.scenarios import stationary
from repro.simulation.simulator import CellularSimulator
from repro.traffic.connection import reset_connection_ids


def _run_both(config, eq5_path):
    reset_connection_ids()
    supplied = CellularSimulator(config).run()
    reset_connection_ids()
    with eq5_path("naive"):
        naive = CellularSimulator(config).run()
    return supplied, naive


def test_fig07_static_scenario_is_identical(eq5_path):
    config = stationary(
        "static",
        offered_load=200.0,
        voice_ratio=0.8,
        high_mobility=True,
        duration=300.0,
        seed=7,
        static_guard=10.0,
    )
    supplied, naive = _run_both(config, eq5_path)
    assert supplied.metrics_key() == naive.metrics_key()


def test_fig11_trace_scenario_is_identical(eq5_path):
    # The Figure 10/11 run: AC3, L=300, stationary traffic, cells <5>
    # and <6> tracked — this is the scheme that actually exercises the
    # Eq. 5/6 reservation path on every admission test and hand-off.
    config = stationary(
        "AC3",
        offered_load=300.0,
        voice_ratio=1.0,
        high_mobility=True,
        duration=300.0,
        seed=10,
        tracked_cells=(4, 5),
    )
    supplied, naive = _run_both(config, eq5_path)
    assert supplied.metrics_key() == naive.metrics_key()
    # Sanity: the scenario is busy enough that the assertion is not
    # vacuous, and the run actually exercised the hot path.
    assert supplied.total_handoff_attempts > 0
    assert supplied.average_calculations > 0
