"""Concurrent load generator for the campaign service.

Hammers a :class:`repro.eval.service.CampaignService` with synthetic
worker fleets that exercise the full lease-report round trip a real
:class:`~repro.eval.scheduler.WorkerDaemon` performs —

    claim -> heartbeat -> POST result rows -> complete

— and reports throughput (round trips/s, requests/s, rows/s) and latency
percentiles (p50/p95/p99 per request).  ``benchmarks/bench_service.py``
imports :func:`run_load` to produce the committed ``BENCH_service.json``;
this module's CLI drives a *live* service, so capacity can be probed on
real deployments too::

    # terminal 1: a service with a synthetic 512-cell backlog
    PYTHONPATH=src python -m repro.cli serve /tmp/q --port 8765

    # terminal 2: 8 concurrent synthetic workers, 4 rows per task
    PYTHONPATH=src python tools/load_service.py \\
        --queue-url http://127.0.0.1:8765 --workers 8 --enqueue 512

Without ``--enqueue`` the generator drains whatever backlog the service
already holds; with it, a synthetic single-spec plan of that many cells is
submitted first (task ids are content-hashed, so repeated runs re-enqueue
only drained cells).  Exit status 0 prints a JSON stats document to stdout
(or ``--json FILE``).
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.eval.campaign import TrialSpec  # noqa: E402
from repro.eval.runtable import RunRecord  # noqa: E402
from repro.eval.scheduler import CampaignPlan  # noqa: E402
from repro.eval.service import QueueClient, ServiceError  # noqa: E402

#: Latency percentiles reported for every request class.
PERCENTILES = (50.0, 95.0, 99.0)


def synthetic_plan(cells: int, name: str = "service-load") -> CampaignPlan:
    """A single-spec plan whose grid is ``cells`` seeds of one condition.

    The spec is a real (deserializable) :class:`TrialSpec`, so the service
    treats the plan exactly like a campaign's — but the load generator
    completes its tasks with synthetic rows instead of running trials:
    the benchmark measures the protocol, not the simulator.
    """
    return CampaignPlan(name=name, specs=[
        TrialSpec(condition="load", system="jarvis", task="wooden",
                  num_trials=cells, seed=0)])


def synthetic_record(cell, worker_id: str) -> RunRecord:
    """A filled-in row for ``cell``, shaped like a real trial result."""
    return RunRecord(
        spec_key=cell.spec_key, condition=cell.condition, system=cell.system,
        task=cell.task, seed=cell.seed, trial_index=cell.trial_index,
        success=True, steps=1, planner_invocations=1, controller_steps=1,
        energy_j=0.0, effective_voltage=0.8, planner_bits_flipped=0,
        controller_bits_flipped=0, planner_elements_clamped=0,
        controller_elements_clamped=0, mean_entropy=0.0, entropy_records=0,
        planner_macs="{}", controller_macs="{}", predictor_macs="{}",
        params=cell.params, wall_time_s=0.0, worker_id=worker_id,
        batch_size=1, queue_backend="http")


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (already sorted)."""
    if not samples:
        return float("nan")
    rank = max(0, min(len(samples) - 1, round(q / 100.0 * len(samples)) - 1))
    return samples[rank]


class _Fleet:
    """Shared state of one load run: counters and per-request latencies."""

    def __init__(self):
        self.lock = threading.Lock()
        self.latencies: dict[str, list[float]] = {
            "claim": [], "heartbeat": [], "rows": [], "complete": []}
        self.round_trip_latencies: list[float] = []
        self.rows = 0
        self.round_trips = 0
        self.errors: list[str] = []

    def record(self, op: str, seconds: float) -> None:
        with self.lock:
            self.latencies[op].append(seconds)


def _timed(fleet: _Fleet, op: str, call, *args):
    start = time.perf_counter()
    result = call(*args)
    fleet.record(op, time.perf_counter() - start)
    return result


def _worker(url: str, worker_id: str, fleet: _Fleet,
            deadline: float | None) -> None:
    """One synthetic worker: lease-report round trips until the queue dries."""
    try:
        client = QueueClient(url)
    except (ServiceError, OSError) as exc:
        with fleet.lock:
            fleet.errors.append(f"{worker_id}: connect failed: {exc}")
        return
    while deadline is None or time.perf_counter() < deadline:
        try:
            started = time.perf_counter()
            task = _timed(fleet, "claim", client.claim, worker_id)
            if task is None:
                break
            _timed(fleet, "heartbeat", client.heartbeat, [task.task_id])
            records = [synthetic_record(cell, worker_id)
                       for cell in task.cells]
            _timed(fleet, "rows", client.write_rows, worker_id,
                   task.plan_name, records)
            _timed(fleet, "complete", client.complete, task.task_id)
            elapsed = time.perf_counter() - started
            with fleet.lock:
                fleet.round_trip_latencies.append(elapsed)
                fleet.round_trips += 1
                fleet.rows += len(task.cells)
        except (ServiceError, OSError) as exc:
            with fleet.lock:
                fleet.errors.append(f"{worker_id}: {exc}")
            return


def run_load(url: str, workers: int = 8,
             duration: float | None = None) -> dict:
    """Drain the service's backlog with ``workers`` concurrent fleets.

    Returns the stats document (the ``BENCH_service.json`` payload): total
    round trips / requests / rows, wall time, throughputs, and per-request
    p50/p95/p99 latencies in milliseconds.
    """
    fleet = _Fleet()
    deadline = None if duration is None else time.perf_counter() + duration
    threads = [threading.Thread(target=_worker,
                                args=(url, f"load-{index}", fleet, deadline),
                                daemon=True)
               for index in range(workers)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start

    requests = sum(len(samples) for samples in fleet.latencies.values())
    stats = {
        "workers": workers,
        "round_trips": fleet.round_trips,
        "requests": requests,
        "rows": fleet.rows,
        "elapsed_s": elapsed,
        "round_trips_per_s": fleet.round_trips / elapsed if elapsed else 0.0,
        "requests_per_s": requests / elapsed if elapsed else 0.0,
        "rows_per_s": fleet.rows / elapsed if elapsed else 0.0,
        "errors": fleet.errors,
        "latency_ms": {},
    }
    samples = sorted(fleet.round_trip_latencies)
    stats["latency_ms"]["round_trip"] = {
        f"p{q:g}": percentile(samples, q) * 1e3 for q in PERCENTILES}
    for op, values in fleet.latencies.items():
        values = sorted(values)
        stats["latency_ms"][op] = {
            f"p{q:g}": percentile(values, q) * 1e3 for q in PERCENTILES}
    return stats


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    parser.add_argument("--queue-url", required=True,
                        help="campaign-service URL to load")
    parser.add_argument("--workers", type=int, default=8,
                        help="concurrent synthetic workers")
    parser.add_argument("--enqueue", type=int, default=None, metavar="CELLS",
                        help="submit a synthetic plan of this many cells "
                             "first (default: drain the existing backlog)")
    parser.add_argument("--batch", type=int, default=1,
                        help="cells per task for --enqueue")
    parser.add_argument("--duration", type=float, default=None, metavar="S",
                        help="stop after S seconds even if work remains")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="also write the stats document to FILE")
    args = parser.parse_args(argv)

    try:
        client = QueueClient(args.queue_url)
    except (ServiceError, OSError) as exc:
        print(f"error: cannot reach {args.queue_url}: {exc}", file=sys.stderr)
        return 2
    if args.enqueue:
        report = client.enqueue(synthetic_plan(args.enqueue),
                                batch=args.batch)
        print(f"enqueued plan {report.plan_name!r}: {report.new_tasks} new "
              f"task(s), {report.skipped_tasks} already queued",
              file=sys.stderr)

    stats = run_load(args.queue_url, workers=args.workers,
                     duration=args.duration)
    document = json.dumps(stats, indent=2, sort_keys=True)
    print(document)
    if args.json:
        Path(args.json).write_text(document + "\n")
    if stats["errors"]:
        print(f"{len(stats['errors'])} worker error(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
