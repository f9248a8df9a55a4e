"""Throughput/latency benchmark of the campaign service (``serve``).

Starts an in-process :class:`~repro.eval.service.CampaignService` on an
ephemeral port, enqueues a synthetic single-spec plan, and drains it with
the concurrent fleet from ``tools/load_service.py`` — every task goes
through the full lease-report round trip a real worker performs (claim ->
heartbeat -> stream rows -> complete).  Results land in
``BENCH_service.json``::

    PYTHONPATH=src python benchmarks/bench_service.py            # full run
    PYTHONPATH=src python benchmarks/bench_service.py --smoke    # CI run

The script fails only on a broken run, one that drained fewer round trips
than it enqueued tasks.  ``tools/check_bench.py`` holds the written
throughput, p95 latency and transport errors to the bounds and regression
tolerance of its ``service`` gate.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "tools"))

from load_service import run_load, synthetic_plan  # noqa: E402

from repro.eval.service import CampaignService, QueueClient  # noqa: E402

from common import best_of_five  # noqa: E402


def bench_round_trips(cells: int, workers: int, batch: int = 1) -> dict:
    """Drain a ``cells``-task synthetic backlog; return the stats document."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-service-") as root:
        with CampaignService(Path(root) / "queue", lease_ttl=300.0) as service:
            client = QueueClient(service.url)
            try:
                report = client.enqueue(synthetic_plan(cells), batch=batch)
                stats = run_load(service.url, workers=workers)
                # Depth polls are the autoscaler's control signal; measure
                # their steady-state latency with the shared best-of-five
                # discipline once the backlog has drained.
                stats["depth_poll_ms"] = best_of_five(client.counts, 20) * 1e3
            finally:
                client.close()
            stats["cells"] = cells
            stats["tasks"] = report.new_tasks
            stats["batch"] = batch
    return stats


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="smaller backlog for CI")
    parser.add_argument("--workers", type=int, default=4,
                        help="concurrent synthetic workers (default: 4 — "
                             "the in-process sweet spot; more fleets "
                             "contend on the shared interpreter)")
    parser.add_argument("--out", default=None,
                        help="output path (default: repo-root "
                             "BENCH_service.json)")
    args = parser.parse_args(argv)

    cells = 512 if args.smoke else 2048
    print(f"campaign-service benchmark: {cells} tasks, "
          f"{args.workers} workers")
    stats = bench_round_trips(cells, args.workers)
    results = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "smoke": args.smoke,
        "service": stats,
    }

    out = Path(args.out) if args.out else REPO_ROOT / "BENCH_service.json"
    out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    p95 = stats["latency_ms"]["round_trip"]["p95"]
    print(f"  round trips : {stats['round_trips']} in "
          f"{stats['elapsed_s']:.2f}s -> "
          f"{stats['round_trips_per_s']:.0f}/s")
    print(f"  requests    : {stats['requests_per_s']:.0f}/s, "
          f"rows {stats['rows_per_s']:.0f}/s")
    print(f"  latency     : round-trip p50 "
          f"{stats['latency_ms']['round_trip']['p50']:.2f}ms, "
          f"p95 {p95:.2f}ms, "
          f"p99 {stats['latency_ms']['round_trip']['p99']:.2f}ms")
    print(f"  depth poll  : {stats['depth_poll_ms']:.2f}ms best-of-five")
    if stats["errors"]:
        print(f"  errors      : {len(stats['errors'])} worker transport "
              f"error(s): {stats['errors'][:3]}")
    print(f"  wrote {out}")
    if stats["round_trips"] != stats["tasks"]:
        print(f"broken run: drained {stats['round_trips']} of "
              f"{stats['tasks']} tasks")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
