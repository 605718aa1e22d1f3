"""Benchmark entry point.

Run from the repository root::

    python3 perfbench/run.py --workload ring_ac3 --seed 1 --seconds 10 --trace 0

Builds the workload's inputs from ``--seed``, measures the program in
``src/`` for ``--seconds`` seconds through its public entry points and
checks its outputs.  Diagnostic lines (host record, per-phase counts,
run digests) go to standard output first; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` carrying the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  ``--spans FILE`` writes the traced run's first raw
spans; ``--write-reference`` records the run digest as the pinned
reference for this workload and seed instead of checking it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"

#: Environment switches that would change what the program runs; the
#: benchmark measures the shipped defaults.
_OVERRIDES = ("REPRO_KERNEL", "REPRO_TELEMETRY", "REPRO_TRACE")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--spans",
        type=Path,
        help="with --trace 1, write the traced run's first spans here (JSON lines)",
    )
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="pin this run's digest for (workload, seed) in references.json",
    )
    return parser.parse_args(argv)


def check_reference(name: str, seed: int, digest: str, write: bool) -> tuple[bool, str]:
    """Compare ``digest`` with the pinned one for ``(name, seed)``."""
    pinned = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    seeds = pinned.setdefault(name, {})
    if write:
        seeds[str(seed)] = digest
        REFERENCES.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
        return True, "written"
    want = seeds.get(str(seed))
    if want is None:
        return True, "unpinned"
    return want == digest, "match" if want == digest else f"expected {want}"


def main(argv=None) -> int:
    args = parse_args(argv)
    for name in _OVERRIDES:
        os.environ.pop(name, None)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import logging

    import workloads

    # The program logs checkpoint saves/restores at INFO; keep the
    # benchmark's standard output to its own lines.
    logging.getLogger("repro").setLevel(logging.WARNING)
    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}"
            f" (have: {', '.join(workloads.WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    import host

    record = host.record(ROOT)
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    started = prepared = time.perf_counter()
    try:
        workload = workloads.build(args.workload, args.seed, args.seconds, workdir)
        workload.prepare()
        prepared = time.perf_counter()
        outcome = workload.measure(trace=bool(args.trace))
    except Exception as error:  # the program failed outside a measured run
        outcome = workloads.Outcome()
        outcome.attempted = 1
        outcome.fail(f"{type(error).__name__}: {error}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's work directory is still there
    if args.spans is not None:
        with args.spans.open("w", encoding="utf-8") as handle:
            for name, start, end, parent in outcome.spans:
                handle.write(
                    json.dumps({"name": name, "start": start, "end": end, "parent": parent})
                    + "\n"
                )
    checks = {}
    if outcome.digests:
        ok, status = check_reference(
            args.workload, args.seed, outcome.digests[0], args.write_reference
        )
        checks["reference"] = status
        if not ok:
            outcome.fail(f"digest {outcome.digests[0]} does not match the reference")
    metrics = dict(outcome.metrics)
    if not args.trace:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = (peak_mb, "MB")
    record["loadavg_after"] = os.getloadavg()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": record,
        "prepare_s": round(prepared - started, 3),
        "total_s": round(time.perf_counter() - started, 3),
        "checks": checks,
        "errors": outcome.errors,
        "details": outcome.details,
    }
    print(json.dumps(report, default=str))
    correct = outcome.failed == 0 and outcome.attempted > 0 and bool(metrics)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, outcome.attempted),
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
