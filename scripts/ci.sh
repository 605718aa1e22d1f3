#!/bin/sh
# CI gate: tier-1 test suite plus a smoke pass of the benchmark harness
# compared against the newest committed BENCH_<date>.json baseline.
# Run from the repository root:  sh scripts/ci.sh
set -e

cd "$(dirname "$0")/.."

echo "== tier-1 tests =="
PYTHONPATH=src python -m pytest -x -q

echo "== benchmark digests =="
# Every perfbench workload at both pinned seeds must reproduce the
# digest pinned in perfbench/references.json, with no failed
# operations: the one check against references kept outside the code.
for SEED in 1 97; do
    for WORKLOAD in ring_ac3 ring_static city_spatial serve_ring; do
        LAST=$(python3 perfbench/run.py --workload "$WORKLOAD" --seed "$SEED" \
            --seconds 2 --trace 0 | tail -n 1)
        echo "$WORKLOAD seed=$SEED: $LAST"
        case "$LAST" in
            *'"correct": true'*) ;;
            *) echo "incorrect result: $WORKLOAD seed=$SEED"; exit 1 ;;
        esac
        case "$LAST" in
            *'"failed": 0'[,}]*) ;;
            *) echo "failed operations: $WORKLOAD seed=$SEED"; exit 1 ;;
        esac
    done
done

echo "== telemetry smoke =="
PYTHONPATH=src python scripts/telemetry_smoke.py

echo "== benchmark smoke =="
# A slightly longer-than-smoke measuring window keeps the regression
# comparison out of timer-noise territory while staying CI-cheap.
# A missing/never-committed baseline is tolerated: bench.py warns and
# skips the comparison instead of failing the gate.
BASELINE=$(git ls-files 'BENCH_*.json' 2>/dev/null | sort | tail -n 1 || true)
if [ -n "$BASELINE" ]; then
    echo "comparing against $BASELINE"
    REPRO_BENCH_DURATION=0.3 PYTHONPATH=src python scripts/bench.py \
        --output /tmp/bench-smoke.json \
        --compare "$BASELINE"
else
    echo "no committed BENCH_*.json baseline; skipping comparison"
    PYTHONPATH=src python scripts/bench.py --smoke \
        --output /tmp/bench-smoke.json
fi
rm -f /tmp/bench-smoke.json

echo "== state smoke =="
# Durable state store: corruption must fail `state inspect`, and
# save -> load -> run must be bit-identical to the straight run.
PYTHONPATH=src python scripts/state_smoke.py

echo "== serve smoke =="
# Live admission service: WebSocket decision round-trip, 500 load-
# generator decisions, a well-formed streamed series frame, and a
# clean shutdown.
PYTHONPATH=src python scripts/serve_smoke.py

echo "== spatial smoke =="
# City-scale spatial sharding: a 2-shard process run must merge to the
# same metrics_key() as the single-shard in-process run.
PYTHONPATH=src python scripts/spatial_smoke.py

echo "== replication perf smoke =="
# The sharded replication runner end-to-end: warm pool, shared-memory
# columnar snapshots, merged CIs, and the scheduling-independence
# recheck (smoke mode).  Throughput gating stays with the main bench
# job above; this one exercises the machinery.
REPRO_BENCH_DURATION=0.1 PYTHONPATH=src python scripts/bench.py \
    --smoke --workers 2 --replications 4 \
    --output /tmp/bench-replication-smoke.json
rm -f /tmp/bench-replication-smoke.json

echo "CI OK"
