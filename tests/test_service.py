"""Tests for the network-backed campaign service: the HTTP/JSON work-queue
protocol, the WorkQueue-shaped client, worker-daemon integration, graceful
shutdown, work stealing, and the autoscaler's sizing rules.

The invariant under test throughout: a table merged from HTTP workers is
byte-identical to the single-host serial table, and every queue semantic
(lease expiry, clock-skew-safe reclamation, idempotent enqueue) behaves
identically whether a worker sits on the filesystem or behind a socket.
"""

import csv
import json
import os
import sys
import threading
import time
from dataclasses import asdict, fields, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from repro.core import ProtectionConfig
from repro.eval import (
    CampaignPlan,
    TrialSpec,
    WorkerDaemon,
    WorkQueue,
    merge_run_tables,
    run_campaign,
)
from repro.eval.campaign import enumerate_cells
from repro.eval.runtable import RunRecord, RunTable
from repro.eval.service import (_SERVE_POLL_S, AutoScaler, CampaignService,
                                QueueClient, ServiceError)
from repro.faults.models import UniformErrorModel

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from load_service import synthetic_record  # noqa: E402


def _specs(num_trials=2):
    return [
        TrialSpec(condition="clean", system="jarvis", task="wooden",
                  num_trials=num_trials, seed=0),
        TrialSpec(condition="faulty", system="jarvis", task="wooden",
                  num_trials=num_trials, seed=0,
                  controller_protection=ProtectionConfig(
                      error_model=UniformErrorModel(1e-3)),
                  params=(("ber", "1e-3"),)),
    ]


@pytest.fixture()
def service(tmp_path):
    with CampaignService(tmp_path / "queue", lease_ttl=60.0) as running:
        yield running


@pytest.fixture()
def client(service):
    """A queue client whose keep-alive connections close on teardown."""
    client = QueueClient(service.url)
    yield client
    client.close()


# ----------------------------------------------------------------------
# Protocol: the queue surface over the wire
# ----------------------------------------------------------------------
class TestServiceProtocol:
    def test_config_identifies_the_service(self, service, client):
        assert client.lease_ttl == 60.0
        assert client.root == service.url  # printable origin for logs
        assert client.backend == "http"

    def test_client_rejects_a_non_service_endpoint(self):
        class NotAService(BaseHTTPRequestHandler):
            def do_GET(self):
                body = json.dumps({"hello": "world"}).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), NotAService)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            with pytest.raises(ServiceError, match="not a campaign service"):
                QueueClient(f"http://{host}:{port}")
        finally:
            server.shutdown()
            server.server_close()

    def test_client_rejects_a_non_http_url(self):
        with pytest.raises(ServiceError, match="http://host:port"):
            QueueClient("ftp://somewhere:21")

    def test_close_covers_every_threads_connection(self, service, client):
        """``close()`` tears down the keep-alive socket of *every* thread
        that ever used the client, not just the closer's own."""
        workers = [threading.Thread(target=client.counts) for _ in range(3)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        client.counts()  # the main thread's connection
        connections = list(client._connections)
        assert len(connections) >= 2  # per-thread sockets were tracked
        client.close()
        assert client._connections == []
        assert all(conn.sock is None for conn in connections)

    def test_serve_loops_poll_for_shutdown_often(self, tmp_path, monkeypatch):
        """``close()`` waits for the serve loop's next shutdown poll, so both
        serve paths poll every ``_SERVE_POLL_S``: at socketserver's default
        of 0.5 s, closing a just-started idle service took half a second."""
        polls = []
        serve_forever = ThreadingHTTPServer.serve_forever

        def spy(server, poll_interval=0.5):
            polls.append(poll_interval)
            serve_forever(server, poll_interval)

        monkeypatch.setattr(ThreadingHTTPServer, "serve_forever", spy)
        CampaignService(tmp_path / "started").start().close()
        service = CampaignService(tmp_path / "served")
        thread = threading.Thread(target=service.serve_forever)
        thread.start()
        service.close()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert polls == [_SERVE_POLL_S, _SERVE_POLL_S]
        assert _SERVE_POLL_S <= 0.1

    def test_close_returns_on_a_service_that_never_served(self, tmp_path):
        """socketserver's ``shutdown()`` waits for a serve loop, so closing a
        service that never started one must not call it and hang."""
        service = CampaignService(tmp_path / "idle")
        closer = threading.Thread(target=service.close, daemon=True)
        closer.start()
        closer.join(timeout=60)
        assert not closer.is_alive()

    def test_closed_client_reconnects_lazily(self, service, client):
        client.counts()
        client.close()
        client.close()  # idempotent
        # The client stays usable: the next request dials a fresh socket.
        assert client.counts()["pending"] == 0

    def test_enqueue_is_idempotent_over_http(self, service, client):
        plan = CampaignPlan(name="demo", specs=_specs(4))
        first = client.enqueue(plan, batch=2)
        assert first.new_tasks == 4 and first.enqueued_cells == 8
        again = client.enqueue(plan, batch=2)
        assert again.new_tasks == 0 and again.skipped_tasks == 4
        stored, = client.plans()
        assert stored.plan_hash() == plan.plan_hash()

    def test_conflicting_plan_surfaces_the_server_error(self, service, client):
        client.enqueue(CampaignPlan(name="demo", specs=_specs(2)))
        with pytest.raises(ServiceError, match="different plan"):
            client.enqueue(CampaignPlan(name="demo", specs=_specs(5)))

    def test_unknown_endpoint_is_a_404(self, service, client):
        with pytest.raises(ServiceError, match="404"):
            client._request("/api/no-such-thing")
        with pytest.raises(ServiceError, match="HTTP 404: no such endpoint"):
            client._request("/api/no-such-thing", {"task_id": "t"})

    @pytest.mark.parametrize("path, body, key", [
        ("/api/complete", {}, "task_id"),
        ("/api/fail", {}, "task_id"),
        ("/api/rows", {"plan": "x"}, "worker_id"),
        ("/api/plans", {}, "plan"),
    ])
    def test_a_body_without_a_required_key_is_a_400(self, service, client,
                                                     path, body, key):
        with pytest.raises(ServiceError,
                           match=f"HTTP 400: request body lacks required "
                                 f"key '{key}'"):
            client._request(path, body)
        assert client.counts() == {"pending": 0, "leased": 0, "done": 0,
                                   "failed": 0}

    @pytest.mark.parametrize("body", [[1], "x", 5])
    def test_a_body_that_is_not_an_object_is_a_400(self, service, client,
                                                   body):
        with pytest.raises(ServiceError,
                           match="HTTP 400: request body must be a JSON object"):
            client._request("/api/claim", body)

    def test_claim_heartbeat_complete_lifecycle(self, service, client):
        client.enqueue(CampaignPlan(name="demo", specs=_specs(4)[:1]),
                       batch=4)
        task = client.claim("w1")
        assert task is not None and len(task.cells) == 4
        assert client.counts() == {"pending": 0, "leased": 1, "done": 0,
                                   "failed": 0}
        assert client.lease_ids() == [task.task_id]
        assert client.heartbeat([task.task_id, "gone"]) == [task.task_id]
        assert client.complete(task.task_id) is True
        assert client.counts()["done"] == 1
        assert client.claim("w2") is None  # drained

    def test_claimed_task_rebuilds_exact_cells(self, service, client):
        specs = _specs(2)
        client.enqueue(CampaignPlan(name="demo", specs=specs), batch=8)
        cells = []
        while (task := client.claim("w1")) is not None:
            cells.extend(task.cells)
        assert [(c.spec_key, c.seed) for c in cells] == \
            [(c.spec_key, c.seed) for c in enumerate_cells(specs)]

    def test_fail_parks_the_task(self, service, client):
        client.enqueue(CampaignPlan(name="demo", specs=_specs(2)[:1]),
                       batch=4)
        task = client.claim("w1")
        client.fail(task.task_id)
        assert client.counts() == {"pending": 0, "leased": 0, "done": 0,
                                   "failed": 1}


# ----------------------------------------------------------------------
# Names sent over the wire stay inside the queue directory
# ----------------------------------------------------------------------
class TestWireNames:
    """Plan names and task ids become file names under the queue; one that
    is not a plain file name is an HTTP 400 and writes nothing."""

    def _assert_400(self, client, path, payload):
        with pytest.raises(ServiceError, match="HTTP 400.*plain file name"):
            client._request(path, payload)

    def _tmp_entries(self, tmp_path):
        return sorted(path.name for path in tmp_path.iterdir())

    def test_plan_named_outside_the_queue(self, service, client, tmp_path):
        document = CampaignPlan(name="demo", specs=_specs(1)).to_dict()
        document["name"] = "../../escaped-plan"
        del document["plan_hash"]  # the hash covers the name
        self._assert_400(client, "/api/plans", {"plan": document})
        assert self._tmp_entries(tmp_path) == ["queue"]
        assert client.plans() == []

    def test_rows_for_a_plan_outside_the_queue(self, service, client,
                                               tmp_path):
        client.enqueue(CampaignPlan(name="demo", specs=_specs(1)), batch=1)
        cell = enumerate_cells(_specs(1))[0]
        records = [asdict(synthetic_record(cell, "w"))]
        self._assert_400(client, "/api/rows", {
            "worker_id": "w", "plan": "../../../escaped", "records": records})
        assert self._tmp_entries(tmp_path) == ["queue"]
        with pytest.raises(ServiceError, match="HTTP 400.*holds no plan"):
            client._request("/api/rows", {"worker_id": "w", "plan": "nope",
                                          "records": records})
        assert not any(service.queue.results_dir.iterdir())

    def test_lease_calls_on_an_id_outside_the_leases(self, service, client):
        """``complete`` and ``fail`` rename ``leases/<id>.json``: an id that
        is not a plain file name must never reach the rename."""
        client.enqueue(CampaignPlan(name="demo", specs=_specs(1)), batch=1)
        for path, payload in (("/api/complete", {"task_id": "../plans/demo"}),
                              ("/api/fail", {"task_id": "../plans/demo"}),
                              ("/api/heartbeat",
                               {"task_ids": ["../plans/demo"]})):
            self._assert_400(client, path, payload)
        stored, = client.plans()
        assert stored.name == "demo"
        assert client.counts() == {"pending": 2, "leased": 0, "done": 0,
                                   "failed": 0}


# ----------------------------------------------------------------------
# Result rows over the wire
# ----------------------------------------------------------------------
class TestRowStreaming:
    def _drain_with_synthetic_rows(self, client, worker_id):
        rows = 0
        while True:
            task = client.claim(worker_id)
            if task is None:
                break
            client.write_rows(worker_id, task.plan_name,
                              [synthetic_record(cell, worker_id)
                               for cell in task.cells])
            client.complete(task.task_id)
            rows += len(task.cells)
        return rows

    def test_rows_land_server_side_with_profile_sidecar(self, service, client):
        client.enqueue(CampaignPlan(name="demo", specs=_specs(2)), batch=2)
        rows = self._drain_with_synthetic_rows(client, "streamer")
        assert rows == 4
        results = service.queue.results_dir / "streamer"
        canonical = RunTable.read_csv(results / "demo.csv")
        assert len(canonical) == 4
        sidecar = RunTable.read_csv(results / "profiles" / "demo.csv")
        assert {record.queue_backend for record in sidecar} == {"http"}

    def test_posted_rows_arrive_field_for_field(self, service, client,
                                                monkeypatch):
        """Every field of a posted row reaches the queue equal, a NaN
        ``wall_time_s`` included (JSON carries it as ``NaN``)."""
        client.enqueue(CampaignPlan(name="demo", specs=_specs(2)[:1]), batch=2)
        task = client.claim("fields")
        sent = [replace(synthetic_record(cell, "fields"), wall_time_s=wall,
                        energy_j=0.1 + 0.2, vector_path="fleet", fleet_size=4,
                        plan_cache="shm")
                for cell, wall in zip(task.cells, (float("nan"), 1 / 3))]
        received = []
        write_rows = service.queue.write_rows

        def capture(worker_id, plan_name, records):
            received.extend(records)
            return write_rows(worker_id, plan_name, records)

        monkeypatch.setattr(service.queue, "write_rows", capture)
        assert client.write_rows("fields", task.plan_name, sent) == 2
        assert len(received) == len(sent)
        for got, want in zip(received, sent):
            for field in fields(RunRecord):
                a, b = getattr(got, field.name), getattr(want, field.name)
                assert a == b or (a != a and b != b), field.name
        assert received[0].wall_time_s != received[0].wall_time_s

    def test_progress_endpoint_tracks_rows_and_backlog(self, service, client):
        client.enqueue(CampaignPlan(name="demo", specs=_specs(2)), batch=2)
        before = client.progress()
        assert before["plans"][0]["pending_tasks"] == 2
        assert before["plans"][0]["rows_streamed"] == 0
        self._drain_with_synthetic_rows(client, "streamer")
        after = client.progress()
        assert after["plans"][0]["pending_tasks"] == 0
        assert after["plans"][0]["rows_streamed"] == 4
        assert after["plans"][0]["total_cells"] == 4
        assert after["rows_written"] == 4


# ----------------------------------------------------------------------
# The central invariant, through a real daemon
# ----------------------------------------------------------------------
class TestHttpWorkerByteIdentity:
    def test_http_daemon_matches_serial(self, service, client, tmp_path):
        specs = _specs(2)
        serial = run_campaign(specs, out=tmp_path / "serial", name="demo")
        client.enqueue(CampaignPlan(name="demo", specs=specs), batch=2)
        stats = WorkerDaemon(client, jobs=1, worker_id="http-w").run()
        assert stats.tasks_completed == 2 and stats.cells_executed == 4
        merged = merge_run_tables(tmp_path / "merged", [service.queue.root])
        assert merged[0].rows == 4
        assert (tmp_path / "merged" / "demo.csv").read_bytes() == \
            serial.csv_path.read_bytes()
        assert (tmp_path / "merged" / "demo.json").read_bytes() == \
            serial.json_path.read_bytes()
        sidecar = RunTable.read_csv(
            service.queue.results_dir / "http-w" / "profiles" / "demo.csv")
        assert {record.queue_backend for record in sidecar} == {"http"}


class TestOneEngine:
    """Every execution path runs cells through the one campaign engine."""

    @pytest.mark.parametrize("fleet", [1, 4])
    def test_every_path_matches_serial(self, tmp_path, fleet):
        """Serial, a jobs=2 pool, file-queue workers at jobs=1 and jobs=2
        and an HTTP worker write byte-identical tables, and their sidecars
        stamp the same execution path for the same chunk (the fleet axis
        survives the queue's task files)."""
        # BER 1e-4 flips a few hundred bits per trial yet lets missions
        # finish, keeping six executions of the grid cheap.
        specs = [TrialSpec(condition="clean", system="jarvis", task="wooden",
                           num_trials=4, seed=0, fleet=fleet),
                 TrialSpec(condition="faulty", system="jarvis", task="wooden",
                           num_trials=4, seed=0, fleet=fleet,
                           controller_protection=ProtectionConfig(
                               error_model=UniformErrorModel(1e-4)),
                           params=(("ber", "1e-4"),))]
        plan = CampaignPlan(name="demo", specs=specs)
        serial = run_campaign(specs, out=tmp_path / "serial", name="demo")
        run_campaign(specs, jobs=2, batch=4, out=tmp_path / "pool",
                     name="demo")
        tables = {"pool": tmp_path / "pool"}
        sidecars = {"serial": tmp_path / "serial" / "profiles",
                    "pool": tmp_path / "pool" / "profiles"}
        queues = {}
        for jobs in (1, 2):
            queue = WorkQueue(tmp_path / f"queue-{jobs}")
            queue.enqueue(plan, batch=4)
            WorkerDaemon(queue, jobs=jobs, worker_id="w").run()
            queues[f"file-{jobs}"] = queue
        with CampaignService(tmp_path / "http") as service:
            client = QueueClient(service.url)
            client.enqueue(plan, batch=4)
            WorkerDaemon(client, worker_id="w").run()  # closes the client
        queues["http"] = service.queue
        for path, queue in queues.items():
            tables[path] = tmp_path / "merged" / path
            merge_run_tables(tables[path], [queue.root])
            sidecars[path] = queue.results_dir / "w" / "profiles"

        for path, directory in tables.items():
            for suffix in (".csv", ".json"):
                assert (directory / f"demo{suffix}").read_bytes() == \
                    serial.csv_path.with_suffix(suffix).read_bytes(), path
        expected = {("fleet", "4", "4")} if fleet > 1 else \
            {("batched", "4", "1")}
        for path, directory in sidecars.items():
            with open(directory / "demo.csv", newline="") as handle:
                rows = list(csv.DictReader(handle))
            assert len(rows) == 8, path
            assert {(r["vector_path"], r["batch_size"], r["fleet_size"])
                    for r in rows} == expected, path


# ----------------------------------------------------------------------
# Lease reclamation over HTTP, including clock skew
# ----------------------------------------------------------------------
class TestServiceReclaim:
    def test_expired_lease_is_reclaimed_over_http(self, service, client):
        client.enqueue(CampaignPlan(name="demo", specs=_specs(2)), batch=2)
        task = client.claim("dead-worker")
        assert client.reclaim_expired() == []  # heartbeat is fresh
        lease = service.queue.leases_dir / f"{task.task_id}.json"
        stale = time.time() - 1000
        os.utime(lease, (stale, stale))  # frozen heartbeat, long expired
        assert client.reclaim_expired() == [task.task_id]
        assert task.task_id in client.pending_ids()
        assert client.complete(task.task_id) is False  # informational

    def test_advancing_skewed_heartbeat_survives_reclaim(self, tmp_path):
        """Service-level clock-skew regression: a lease whose mtime looks
        long-expired in absolute terms but *advanced* since the service
        last observed it belongs to a live worker with a lagging clock —
        ``POST /api/reclaim`` must leave it alone, then reclaim it once
        the heartbeat truly freezes."""
        with CampaignService(tmp_path / "queue", lease_ttl=1.0) as service:
            client = QueueClient(service.url)
            try:
                client.enqueue(CampaignPlan(name="demo", specs=_specs(2)),
                               batch=2)
                claimed_at = time.time()
                task = client.claim("skewed-worker")
                lease = service.queue.leases_dir / f"{task.task_id}.json"
                time.sleep(2.0)  # well past the 1s TTL in absolute terms
                # The skewed worker's heartbeat: ahead of the mtime the
                # service observed at claim time, far behind wall-clock.
                skewed = claimed_at + 0.3
                os.utime(lease, (skewed, skewed))
                assert client.reclaim_expired() == []  # advanced => live
                # The worker dies; the mtime freezes where it was.
                assert client.reclaim_expired() == [task.task_id]
            finally:
                client.close()

    def test_fresh_service_reclaims_by_absolute_age(self, tmp_path):
        """A restarted service has no observation history: a long-expired
        frozen lease must still be reclaimed on the first scan."""
        queue = WorkQueue(tmp_path / "queue", lease_ttl=60.0)
        queue.enqueue(CampaignPlan(name="demo", specs=_specs(2)), batch=2)
        task = queue.claim("dead-worker")
        stale = time.time() - 1000
        os.utime(queue.leases_dir / f"{task.task_id}.json", (stale, stale))
        with CampaignService(tmp_path / "queue", lease_ttl=60.0) as service:
            client = QueueClient(service.url)
            try:
                assert client.reclaim_expired() == [task.task_id]
            finally:
                client.close()


# ----------------------------------------------------------------------
# Work stealing through the service
# ----------------------------------------------------------------------
class TestWorkStealing:
    def test_prefer_plan_orders_claims_then_steals_deepest(self, service, client):
        shallow = CampaignPlan(name="shallow", specs=_specs(1)[:1])
        deep = CampaignPlan(name="deep", specs=_specs(6))
        client.enqueue(shallow, batch=1)   # 1 task
        client.enqueue(deep, batch=2)      # 6 tasks
        assert client.pending_by_plan() == {"shallow": 1, "deep": 6}
        first = client.claim("w", prefer_plan="shallow")
        assert first.plan_name == "shallow"
        stolen = client.claim("w", prefer_plan="shallow")
        assert stolen.plan_name == "deep"  # affinity drained: steal deepest

    def test_daemon_counts_stolen_tasks_over_http(self, service, client):
        client.enqueue(CampaignPlan(name="mine", specs=_specs(1)[:1]),
                       batch=1)
        client.enqueue(CampaignPlan(name="other", specs=_specs(1)), batch=2)
        daemon = WorkerDaemon(client, worker_id="w", plan_affinity="mine")
        stats = daemon.run()
        # "other" holds one task per spec: tasks never straddle specs.
        assert stats.tasks_completed == 3  # 1 owned + 2 stolen
        assert stats.tasks_stolen == 2
        assert stats.cells_executed == 3


# ----------------------------------------------------------------------
# Graceful shutdown and transient-error retry
# ----------------------------------------------------------------------
class TestGracefulShutdown:
    def test_shutdown_before_run_claims_nothing(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        queue.enqueue(CampaignPlan(name="demo", specs=_specs(2)), batch=2)
        daemon = WorkerDaemon(queue, worker_id="w")
        daemon.request_shutdown()
        stats = daemon.run()
        assert stats.tasks_completed == 0
        assert queue.counts()["pending"] == 2  # nothing claimed or leaked
        assert queue.counts()["leased"] == 0

    def test_sigterm_mid_drain_settles_inflight_and_stops(self, tmp_path,
                                                          monkeypatch):
        """A SIGTERM'd worker finishes the batch it holds, streams its rows,
        releases the lease into done/, and leaves the rest pending."""
        import repro.eval.campaign as campaign_module

        queue = WorkQueue(tmp_path / "q")
        queue.enqueue(CampaignPlan(name="demo", specs=_specs(4)), batch=2)
        daemon = WorkerDaemon(queue, worker_id="w")
        original = campaign_module._pool_run_batch

        def sigterm_while_running(*args, **kwargs):
            daemon.request_shutdown()  # what the SIGTERM handler does
            return original(*args, **kwargs)

        monkeypatch.setattr(campaign_module, "_pool_run_batch",
                            sigterm_while_running)
        stats = daemon.run()
        assert stats.tasks_completed == 1
        counts = queue.counts()
        assert counts["leased"] == 0  # the in-flight lease was settled
        assert counts["done"] == 1
        assert counts["pending"] == 3  # remaining work left for the fleet

    def test_retrying_recovers_from_transient_io_errors(self, tmp_path):
        daemon = WorkerDaemon(WorkQueue(tmp_path / "q"), worker_id="w",
                              retry_attempts=4, retry_delay=0.001)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise ConnectionError("service briefly unreachable")
            return "ok"

        assert daemon._retrying(flaky) == "ok"
        assert calls["n"] == 3

    def test_retrying_raises_after_exhausting_attempts(self, tmp_path):
        daemon = WorkerDaemon(WorkQueue(tmp_path / "q"), worker_id="w",
                              retry_attempts=3, retry_delay=0.001)
        calls = {"n": 0}

        def always_down():
            calls["n"] += 1
            raise ConnectionError("hard down")

        with pytest.raises(ConnectionError, match="hard down"):
            daemon._retrying(always_down)
        assert calls["n"] == 3

    def test_client_transport_errors_are_oserrors(self, service, client):
        """The daemon's retry net catches OSError; a dead service must
        surface as one (not an http.client internal)."""
        service.close()
        # Drop the keep-alive connection so the next request must dial the
        # (now closed) listening socket rather than ride the old stream.
        connection = getattr(client._local, "connection", None)
        if connection is not None:
            connection.close()
            client._local.connection = None
        with pytest.raises(OSError):
            client.counts()


# ----------------------------------------------------------------------
# Autoscaler sizing rules
# ----------------------------------------------------------------------
class TestAutoScalerSizing:
    def _scaler(self, service, **kwargs):
        kwargs.setdefault("max_workers", 4)
        kwargs.setdefault("tasks_per_worker", 2)
        return AutoScaler(service.url, **kwargs)

    def test_no_backlog_means_no_workers(self, service):
        scaler = self._scaler(service)
        assert scaler.desired_workers(0, 0, 0.0) == 0

    def test_target_scales_with_pending_depth(self, service):
        scaler = self._scaler(service)
        assert scaler.desired_workers(1, 0, 1.0) == 1
        assert scaler.desired_workers(4, 0, 1.0) == 2
        assert scaler.desired_workers(100, 0, 1.0) == 4  # clamped to max

    def test_min_workers_floor_while_work_remains(self, service):
        scaler = self._scaler(service, min_workers=2)
        assert scaler.desired_workers(1, 0, 1.0) == 2
        assert scaler.desired_workers(0, 1, 1.0) == 2  # leases still out
        assert scaler.desired_workers(0, 0, 1.0) == 0  # drained: go home

    def test_stalled_backlog_bumps_the_fleet(self, service):
        scaler = self._scaler(service)
        # Draining normally: depth alone sets the target.
        assert scaler.desired_workers(2, 0, 1.0) == 1
        # Stalled (no drain despite pending work): one above the current
        # fleet, so a wedged fleet gains capacity instead of patience.
        assert scaler.desired_workers(2, 0, 0.0) == 1  # fleet of zero -> 1
        scaler._procs = [object(), object()]
        assert scaler.desired_workers(2, 0, 0.0) == 3

    def test_validates_fleet_bounds(self, service):
        with pytest.raises(ValueError, match="max_workers"):
            AutoScaler(service.url, max_workers=0)
        with pytest.raises(ValueError, match="min_workers"):
            AutoScaler(service.url, max_workers=2, min_workers=3)
