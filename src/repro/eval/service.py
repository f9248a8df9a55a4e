"""Network-backed campaign service: the work-queue protocol over HTTP/JSON.

The PR 4 scheduler scales campaigns across processes and hosts that share a
filesystem: atomic-rename task claims, mtime-heartbeat leases, streamed
per-worker run tables (:mod:`repro.eval.scheduler`).  This module lifts that
exact protocol onto the network without changing a byte of its semantics:

:class:`CampaignService`
    A stdlib-only (``http.server.ThreadingHTTPServer``) HTTP/JSON front-end
    over a server-side :class:`~repro.eval.scheduler.WorkQueue` directory.
    Each endpoint calls the queue method of its name, so claim races, lease
    expiry, reclamation, idempotent enqueue, row writing and the merge all
    behave identically whether a worker sits on the same filesystem or on
    the other side of a socket.  Result rows arrive over the wire and go
    through the queue's own ``write_rows`` — which is what makes the central
    invariant hold: **a table merged from any mix of HTTP workers,
    autoscaled workers, and stolen tasks is byte-identical to the
    single-host serial table.**  A name the queue rejects (a plan name or
    task id that is not a plain file name, rows for a plan it does not
    hold) is an HTTP 400, and so is a request body that is not a JSON
    object or lacks a key its endpoint needs; only an unknown path is a 404.

:class:`QueueClient`
    The worker-side counterpart: the :class:`WorkQueue` task-id interface
    (``claim`` / ``heartbeat(task_ids)`` / ``complete(task_id)`` /
    ``fail(task_id)`` / ``reclaim_expired`` / ``write_rows`` / ``close`` /
    introspection) over keep-alive ``http.client`` connections, so
    :class:`~repro.eval.scheduler.WorkerDaemon` takes either backend
    through one ``queue=`` argument — the CLI exposes it as
    ``worker --queue-url``.

:class:`AutoScaler`
    Spawns and retires local worker processes against a service from the
    observed queue depth and drain rate.  Retirement is a SIGTERM, which a
    worker handles by finishing its in-flight batch and exiting cleanly.

Wire format: JSON bodies both ways; task payloads are the task-file
documents of ``docs/runtable-schema.md`` verbatim; result rows are the
stored :class:`~repro.eval.runtable.RunRecord` fields.  See the "Campaign
service" section of ``docs/campaigns.md`` for the endpoint table.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.parse
from dataclasses import asdict, dataclass, fields
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Iterable

from .runtable import RunRecord
from .scheduler import (CampaignPlan, ClaimedTask, EnqueueReport, WorkQueue,
                        task_from_dict)

__all__ = ["CampaignService", "QueueClient", "AutoScaler", "ServiceError",
           "SERVICE_FORMAT"]

SERVICE_FORMAT = "repro-create-service-v1"

#: Stored RunRecord field names, in declaration order (the row wire format).
_RECORD_FIELDS = tuple(f.name for f in fields(RunRecord))

#: Seconds the serve loop waits in ``select`` between shutdown checks.
#: ``close()`` blocks until the loop notices, so socketserver's default of
#: 0.5 s made closing an idle service take about half a second.
_SERVE_POLL_S = 0.05


class ServiceError(RuntimeError):
    """A campaign-service response reported a protocol-level problem."""


class _UnknownEndpoint(Exception):
    """A request for a path the service does not serve (HTTP 404)."""


# ----------------------------------------------------------------------
# Server
# ----------------------------------------------------------------------
class CampaignService:
    """HTTP/JSON front-end over a server-side :class:`WorkQueue`.

    The service owns the queue directory; clients never touch the
    filesystem.  All state transitions remain single atomic renames inside
    the queue, so the threading server needs no locking around them — the
    queue serializes its own row writers.

    Parameters
    ----------
    root:
        Queue directory (created if missing) — the same layout ``worker
        --queue`` uses, so a service can adopt an existing file-backed
        queue and vice versa.
    host / port:
        Bind address; port 0 picks an ephemeral port (see :attr:`url`).
    lease_ttl:
        Heartbeat TTL of the underlying queue.
    log:
        Optional per-request logger (method, path, status).
    """

    def __init__(self, root: str | Path, host: str = "127.0.0.1",
                 port: int = 0, lease_ttl: float = 120.0,
                 log: Callable[[str], None] | None = None):
        self.queue = WorkQueue(root, lease_ttl=lease_ttl)
        self._log = log
        service = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # Buffered response writes + no Nagle: with keep-alive clients,
            # the default unbuffered status/header writes become a stream of
            # tiny packets whose Nagle/delayed-ACK interaction stalls every
            # exchange by ~40ms — two orders of magnitude over the actual
            # request cost.
            wbufsize = -1
            disable_nagle_algorithm = True

            def log_message(self, fmt, *args):  # quiet by default
                if service._log is not None:
                    service._log(f"{self.address_string()} {fmt % args}")

            def _reply(self, status: int, payload: dict) -> None:
                body = json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def _body(self) -> dict:
                length = int(self.headers.get("Content-Length", 0))
                if not length:
                    return {}
                body = json.loads(self.rfile.read(length))
                if not isinstance(body, dict):
                    raise ValueError("request body must be a JSON object")
                return body

            def do_GET(self):
                try:
                    payload = service._get(self.path)
                except _UnknownEndpoint:
                    self._reply(404, {"error": f"no such endpoint {self.path}"})
                except Exception as error:  # surfaced to the client
                    self._reply(500, {"error": str(error)})
                else:
                    self._reply(200, payload)

            def do_POST(self):
                try:
                    payload = service._post(self.path, self._body())
                except _UnknownEndpoint:
                    self._reply(404, {"error": f"no such endpoint {self.path}"})
                except KeyError as error:
                    self._reply(400, {"error": f"request body lacks required "
                                               f"key {error.args[0]!r}"})
                except (ValueError, TypeError) as error:
                    self._reply(400, {"error": str(error)})
                except Exception as error:
                    self._reply(500, {"error": str(error)})
                else:
                    self._reply(200, payload)

        self._server = ThreadingHTTPServer((host, port), Handler)
        self._server.daemon_threads = True
        self._thread: threading.Thread | None = None
        # socketserver's shutdown() waits for a serve loop to stop, so close()
        # may only call it for a loop that began; the lock orders a loop
        # starting against a close racing it.
        self._lifecycle = threading.Lock()
        self._serving = self._closed = False

    # -- lifecycle -----------------------------------------------------
    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "CampaignService":
        """Serve in a daemon thread; returns self (``with``-style usage)."""
        self._thread = threading.Thread(target=self.serve_forever,
                                        name="campaign-service", daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the ``repro-create serve`` path)."""
        with self._lifecycle:
            if self._closed:
                return
            self._serving = True
        self._server.serve_forever(poll_interval=_SERVE_POLL_S)

    def close(self) -> None:
        """Stop the serve loop if one began, then release the socket and
        the queue's row writers; returns on a service that never served."""
        with self._lifecycle:
            self._closed = True
            serving = self._serving
        if serving:
            self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self.queue.close()

    def __enter__(self) -> "CampaignService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- dispatch ------------------------------------------------------
    def _get(self, path: str) -> dict:
        path = path.split("?", 1)[0].rstrip("/")
        if path == "/api/config":
            return {"format": SERVICE_FORMAT,
                    "lease_ttl": self.queue.lease_ttl,
                    "root": str(self.queue.root)}
        if path == "/api/plans":
            return {"plans": [plan.to_dict() for plan in self.queue.plans()]}
        if path == "/api/counts":
            counts = self.queue.counts()
            counts["pending_by_plan"] = self.queue.pending_by_plan()
            return counts
        if path == "/api/ids":
            return {"pending": self.queue.pending_ids(),
                    "leased": self.queue.lease_ids()}
        if path == "/api/progress":
            return {"plans": self._progress(),
                    "rows_written": self.queue.rows_written}
        raise _UnknownEndpoint(path)

    def _post(self, path: str, body: dict) -> dict:
        path = path.rstrip("/")
        queue = self.queue
        if path == "/api/plans":
            report = queue.enqueue(
                CampaignPlan.from_dict(body["plan"]), batch=body.get("batch"))
            return asdict(report)
        if path == "/api/claim":
            task = queue.claim(body.get("worker_id", ""),
                               prefer_plan=body.get("prefer_plan"))
            # The task-file payload verbatim: the client re-parses it through
            # the same codec the file backend uses.
            return {"task": None if task is None else task.document}
        if path == "/api/heartbeat":
            return {"renewed": queue.heartbeat(body.get("task_ids", ()))}
        if path == "/api/complete":
            return {"completed": queue.complete(body["task_id"])}
        if path == "/api/fail":
            queue.fail(body["task_id"])
            return {}
        if path == "/api/reclaim":
            return {"reclaimed": queue.reclaim_expired()}
        if path == "/api/rows":
            # Rows land in results/<worker_id>/ exactly as a filesystem
            # worker's would, so the merge cannot tell the transports apart.
            records = [RunRecord(**{name: record[name]
                                    for name in _RECORD_FIELDS
                                    if name in record})
                       for record in body.get("records", ())]
            return {"written": queue.write_rows(body["worker_id"],
                                                body["plan"], records)}
        raise _UnknownEndpoint(path)

    # -- helpers -------------------------------------------------------
    def _progress(self) -> list[dict]:
        """Per-plan merge progress: grid size vs rows streamed so far."""
        progress = []
        counts = self.queue.pending_by_plan()
        for plan in self.queue.plans():
            rows = 0
            for table in self.queue.results_dir.glob(f"*/{plan.name}.csv"):
                with open(table) as handle:
                    rows += max(0, sum(1 for _ in handle) - 1)
            progress.append({"plan": plan.name,
                             "plan_hash": plan.plan_hash(),
                             "total_cells": plan.total_cells,
                             "rows_streamed": rows,
                             "pending_tasks": counts.get(plan.name, 0)})
        return progress


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
class _HttpRowWriter:
    """One ``POST /api/rows`` of a task's rows, made by :meth:`flush`.

    :meth:`QueueClient.write_rows` is the interface; ``flush`` is the one
    place rows cross the wire, where perfbench's tracer times them.
    """

    def __init__(self, client: "QueueClient", worker_id: str, plan_name: str,
                 records: Iterable[RunRecord]):
        self._client = client
        self._payload = {"worker_id": worker_id, "plan": plan_name,
                         "records": [{name: getattr(record, name)
                                      for name in _RECORD_FIELDS}
                                     for record in records]}

    def flush(self) -> int:
        return self._client._request("/api/rows", self._payload)["written"]


class QueueClient:
    """:class:`WorkQueue`-shaped client of a :class:`CampaignService`.

    Implements the queue's task-id interface over HTTP, so
    ``WorkerDaemon(QueueClient(url))`` behaves exactly like
    ``WorkerDaemon(WorkQueue(root))`` — one ``queue_url=`` knob switches a
    fleet between shared-filesystem and networked operation.  Connection
    failures surface as :class:`OSError`, which the daemon retries with
    backoff.
    """

    backend = "http"

    def __init__(self, url: str, timeout: float = 30.0):
        self.url = url.rstrip("/")
        parts = urllib.parse.urlsplit(self.url)
        if parts.scheme != "http" or not parts.hostname:
            raise ServiceError(f"need an http://host:port URL, got {url!r}")
        self._address = (parts.hostname, parts.port or 80)
        self.timeout = timeout
        self._local = threading.local()
        self._connections: list[http.client.HTTPConnection] = []
        self._connections_lock = threading.Lock()
        config = self._request("/api/config")
        if config.get("format") != SERVICE_FORMAT:
            raise ServiceError(
                f"{url} is not a campaign service (format="
                f"{config.get('format')!r}, expected {SERVICE_FORMAT!r})")
        self.lease_ttl = float(config["lease_ttl"])
        #: Printable origin, mirroring ``WorkQueue.root`` in daemon logs.
        self.root = self.url

    # -- transport -----------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        """One keep-alive connection per thread.

        A worker performs thousands of small requests per campaign; paying
        a TCP connect — and, against :class:`ThreadingHTTPServer`, a fresh
        server thread — for each one roughly triples round-trip latency.
        Connections are thread-local because ``http.client`` serializes
        request/response pairs per connection.
        """
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(*self._address,
                                                    timeout=self.timeout)
            connection.connect()
            # Request headers and body go out as separate writes; without
            # TCP_NODELAY, Nagle holds the second one until the server ACKs
            # the first (~40ms on loopback with delayed ACKs).
            connection.sock.setsockopt(socket.IPPROTO_TCP,
                                       socket.TCP_NODELAY, 1)
            self._local.connection = connection
            with self._connections_lock:
                self._connections.append(connection)
        return connection

    def close(self) -> None:
        """Close every keep-alive connection this client ever opened.

        Connections are per-thread (see :meth:`_connection`), so only the
        thread that made a request can reach its own socket via
        ``self._local`` — worker pools would otherwise leak one established
        connection per pool thread for the life of the process.  Every
        connection is therefore also tracked in ``self._connections`` at
        creation, and ``close()`` closes them all from any thread.  The
        client stays usable: ``self._local`` is reset, so the next request
        on any thread reconnects lazily (double-closing a connection a
        thread re-opens in parallel is harmless — ``HTTPConnection.close``
        is idempotent and :meth:`_request` retries a dropped socket once).
        """
        with self._connections_lock:
            connections, self._connections = self._connections, []
        for connection in connections:
            connection.close()
        self._local = threading.local()

    def _request(self, path: str, payload: dict | None = None) -> dict:
        body = None if payload is None else json.dumps(payload).encode()
        method = "GET" if payload is None else "POST"
        for attempt in (1, 2):
            connection = self._connection()
            try:
                connection.request(method, path, body=body,
                                   headers={"Content-Type": "application/json"})
                response = connection.getresponse()
                data = response.read()
                break
            except (http.client.HTTPException, OSError) as error:
                # A dropped keep-alive connection (server restart, idle
                # timeout) surfaces here; reconnect once before giving up
                # to the daemon's own retry-with-backoff.  HTTPException is
                # not an OSError, so normalize — the daemon retries OSError.
                connection.close()
                self._local.connection = None
                if attempt == 2:
                    if isinstance(error, OSError):
                        raise
                    raise ConnectionError(
                        f"{method} {path}: {error}") from error
        if response.status >= 400:
            # 4xx/5xx carry a JSON error body; re-raise with its message so
            # protocol bugs read as what the server actually objected to.
            try:
                detail = json.loads(data).get("error", "")
            except Exception:
                detail = ""
            raise ServiceError(
                f"{path} failed with HTTP {response.status}: {detail}")
        return json.loads(data)

    # -- planner side --------------------------------------------------
    def enqueue(self, plan: CampaignPlan,
                batch: int | None = None) -> EnqueueReport:
        report = self._request("/api/plans",
                               {"plan": plan.to_dict(), "batch": batch})
        return EnqueueReport(**report)

    def plans(self) -> list[CampaignPlan]:
        return [CampaignPlan.from_dict(data)
                for data in self._request("/api/plans")["plans"]]

    # -- worker side ---------------------------------------------------
    def claim(self, worker_id: str = "",
              prefer_plan: str | None = None) -> ClaimedTask | None:
        data = self._request("/api/claim", {"worker_id": worker_id,
                                            "prefer_plan": prefer_plan})
        if data["task"] is None:
            return None
        return task_from_dict(data["task"])

    def heartbeat(self, task_ids: Iterable[str]) -> list[str]:
        task_ids = list(task_ids)
        if not task_ids:
            return []
        return self._request("/api/heartbeat",
                             {"task_ids": task_ids})["renewed"]

    def complete(self, task_id: str) -> bool:
        return self._request("/api/complete", {"task_id": task_id})["completed"]

    def fail(self, task_id: str) -> None:
        self._request("/api/fail", {"task_id": task_id})

    def reclaim_expired(self) -> list[str]:
        return self._request("/api/reclaim", {})["reclaimed"]

    def write_rows(self, worker_id: str, plan_name: str,
                   records: Iterable[RunRecord]) -> int:
        """Send a task's rows in one request; the service appends them
        through :meth:`WorkQueue.write_rows`."""
        return _HttpRowWriter(self, worker_id, plan_name, records).flush()

    # -- introspection -------------------------------------------------
    def pending_ids(self) -> list[str]:
        return self._request("/api/ids")["pending"]

    def lease_ids(self) -> list[str]:
        return self._request("/api/ids")["leased"]

    def counts(self) -> dict[str, int]:
        counts = self._request("/api/counts")
        counts.pop("pending_by_plan", None)
        return counts

    def pending_by_plan(self) -> dict[str, int]:
        return self._request("/api/counts")["pending_by_plan"]

    def progress(self) -> dict:
        return self._request("/api/progress")


# ----------------------------------------------------------------------
# Autoscaler
# ----------------------------------------------------------------------
@dataclass
class AutoScalerStats:
    """What one :meth:`AutoScaler.run` invocation did."""

    workers_spawned: int = 0
    workers_retired: int = 0
    peak_workers: int = 0
    polls: int = 0


class AutoScaler:
    """Spawn/retire local ``worker --queue-url`` processes from queue depth.

    Each poll observes ``pending``/``leased`` counts and the drain rate
    (backlog change per second).  The target fleet size is
    ``ceil(pending / tasks_per_worker)``, clamped to ``[min_workers,
    max_workers]`` — plus one extra worker when there is pending work but
    the backlog has stopped draining (a stalled fleet needs capacity, not
    patience).  Surplus workers are retired with SIGTERM, which the daemon
    answers by finishing its in-flight batch, releasing its leases cleanly,
    and exiting 0.  When the queue fully drains the remaining fleet is
    retired the same way and :meth:`run` returns.
    """

    def __init__(self, queue_url: str, max_workers: int = 4,
                 min_workers: int = 0, jobs: int = 1,
                 tasks_per_worker: int = 2, poll_interval: float = 0.5,
                 worker_id_prefix: str = "auto",
                 log: Callable[[str], None] | None = None):
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if not 0 <= min_workers <= max_workers:
            raise ValueError("need 0 <= min_workers <= max_workers")
        self.client = QueueClient(queue_url)
        self.queue_url = queue_url
        self.max_workers = max_workers
        self.min_workers = min_workers
        self.jobs = jobs
        self.tasks_per_worker = max(1, tasks_per_worker)
        self.poll_interval = poll_interval
        self.worker_id_prefix = worker_id_prefix
        self._log = log or (lambda message: None)
        self._procs: list[subprocess.Popen] = []
        self._spawn_counter = 0
        self._last_backlog: int | None = None
        self._last_poll_at: float | None = None

    # ------------------------------------------------------------------
    def alive(self) -> list[subprocess.Popen]:
        self._procs = [proc for proc in self._procs if proc.poll() is None]
        return self._procs

    def desired_workers(self, pending: int, leased: int,
                        drain_rate: float) -> int:
        if pending + leased == 0:
            return 0
        target = math.ceil(pending / self.tasks_per_worker)
        if pending > 0 and drain_rate <= 0 and len(self._procs) < self.max_workers:
            target = max(target, len(self._procs) + 1)
        return max(self.min_workers, min(self.max_workers, target))

    def _spawn(self) -> None:
        self._spawn_counter += 1
        worker_id = f"{self.worker_id_prefix}-{self._spawn_counter}"
        command = [sys.executable, "-m", "repro.cli", "worker",
                   "--queue-url", self.queue_url, "--jobs", str(self.jobs),
                   "--id", worker_id, "--wait", "--poll",
                   str(self.poll_interval)]
        environment = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2])
        existing = environment.get("PYTHONPATH")
        environment["PYTHONPATH"] = (src if not existing
                                     else src + os.pathsep + existing)
        self._procs.append(subprocess.Popen(command, env=environment))
        self._log(f"autoscaler: spawned {worker_id} "
                  f"(fleet={len(self._procs)})")

    def _retire(self, count: int) -> int:
        """SIGTERM the newest ``count`` workers (graceful drain)."""
        retired = 0
        for proc in list(reversed(self._procs))[:count]:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                retired += 1
        self._log(f"autoscaler: retiring {retired} workers")
        return retired

    def step(self, stats: AutoScalerStats) -> dict:
        """One observe-decide-act poll; returns the observation."""
        counts = self.client.counts()
        pending, leased = counts["pending"], counts["leased"]
        backlog = pending + leased
        now = time.monotonic()
        drain_rate = 0.0
        if self._last_backlog is not None and now > self._last_poll_at:
            drain_rate = (self._last_backlog - backlog) / (now - self._last_poll_at)
        self._last_backlog, self._last_poll_at = backlog, now

        alive = self.alive()
        target = self.desired_workers(pending, leased, drain_rate)
        if len(alive) < target:
            for _ in range(target - len(alive)):
                self._spawn()
                stats.workers_spawned += 1
        elif len(alive) > target:
            stats.workers_retired += self._retire(len(alive) - target)
        stats.peak_workers = max(stats.peak_workers, len(self._procs))
        stats.polls += 1
        return {"pending": pending, "leased": leased, "failed":
                counts.get("failed", 0), "drain_rate": drain_rate,
                "workers": len(self._procs), "target": target}

    def run(self, timeout: float | None = None) -> AutoScalerStats:
        """Poll until the queue drains (or ``timeout``); retire the fleet."""
        stats = AutoScalerStats()
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            while True:
                observed = self.step(stats)
                if observed["pending"] + observed["leased"] == 0:
                    break
                if deadline is not None and time.monotonic() > deadline:
                    raise TimeoutError(
                        f"queue did not drain within {timeout:g}s "
                        f"(pending={observed['pending']}, "
                        f"leased={observed['leased']})")
                time.sleep(self.poll_interval)
        finally:
            for proc in self.alive():
                proc.send_signal(signal.SIGTERM)
            for proc in self._procs:
                try:
                    proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        self._log(f"autoscaler: drained; spawned {stats.workers_spawned}, "
                  f"peak fleet {stats.peak_workers}")
        return stats
