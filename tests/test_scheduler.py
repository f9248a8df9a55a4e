"""Tests for distributed campaign scheduling: shards, plans, the file-backed
work queue, worker daemons, and fault-tolerant run-table merging.

The invariant under test throughout: the merged table from any number of
workers/shards — including workers killed mid-run — is byte-identical to the
single-host serial table.
"""

import errno
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core import ProtectionConfig
from repro.core.policies import ConstantVoltagePolicy, REFERENCE_POLICIES
from repro.core.voltage_scaling import VoltageScalingConfig
from repro.eval import (
    CampaignPlan,
    MergeConflictError,
    RunRecord,
    RunTable,
    Shard,
    TrialSpec,
    WorkQueue,
    WorkerDaemon,
    merge_run_tables,
    parse_shard,
    run_campaign,
)
from repro.eval.campaign import enumerate_cells
from repro.eval.scheduler import spec_from_dict, spec_to_dict
from repro.faults.models import (SingleBitErrorModel, UniformErrorModel,
                                 VoltageErrorModel)

REPO_ROOT = Path(__file__).resolve().parents[1]


def _lease(queue, task):
    """The lease file of a claimed task (leases/<task_id>.json)."""
    return queue.leases_dir / f"{task.task_id}.json"


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


# ----------------------------------------------------------------------
# Shards
# ----------------------------------------------------------------------
class TestShard:
    def test_parse_and_validate(self):
        assert parse_shard("2/4") == Shard(index=2, count=4)
        assert str(parse_shard("1/1")) == "1/1"
        for bad in ("", "2", "0/4", "5/4", "a/b", "2/0"):
            with pytest.raises(ValueError):
                parse_shard(bad)

    def test_shards_partition_the_grid(self):
        cells = enumerate_cells(_specs(16))
        count = 3
        shards = [Shard(i, count) for i in range(1, count + 1)]
        slices = [shard.filter(cells) for shard in shards]
        assert sum(len(s) for s in slices) == len(cells)
        seen = {(c.spec_key, c.seed) for s in slices for c in s}
        assert len(seen) == len(cells)  # disjoint union covers everything

    def test_assignment_is_stable_under_grid_growth(self):
        """Growing num_trials must not move existing cells between shards."""
        shard = Shard(1, 4)
        small = {(c.spec_key, c.seed): shard.owns(c.spec_key, c.seed)
                 for c in enumerate_cells(_specs(4))}
        grown = {(c.spec_key, c.seed): shard.owns(c.spec_key, c.seed)
                 for c in enumerate_cells(_specs(9))}
        for key, owned in small.items():
            assert grown[key] == owned


# ----------------------------------------------------------------------
# Spec JSON codec
# ----------------------------------------------------------------------
class TestSpecCodec:
    def _protection_zoo(self):
        return [
            None,
            ProtectionConfig(error_model=UniformErrorModel(3.25e-3)),
            ProtectionConfig(voltage=0.78, anomaly_detection=True),
            ProtectionConfig(error_model=VoltageErrorModel(0.76),
                             exposure_scale=2.5, injector_kind="thundervolt"),
            ProtectionConfig(error_model=SingleBitErrorModel(bit=3, rate=0.1),
                             target_components=("*.k", "*.v")),
            ProtectionConfig(anomaly_detection=True,
                             voltage_scaling=VoltageScalingConfig(
                                 policy=REFERENCE_POLICIES["C"],
                                 update_interval=7, entropy_source="oracle")),
            ProtectionConfig(voltage_scaling=VoltageScalingConfig(
                policy=ConstantVoltagePolicy(0.8))),
        ]

    def test_round_trip_preserves_spec_key(self):
        """The codec must preserve the signature (and so the spec key)
        exactly, or distributed participants would enumerate different
        grids and resume would silently mismatch rows."""
        for index, protection in enumerate(self._protection_zoo()):
            spec = TrialSpec(condition=f"cond-{index}", system="jarvis",
                             task="wooden", num_trials=3, seed=5,
                             controller_protection=protection,
                             planner_protection=ProtectionConfig(
                                 anomaly_detection=True),
                             params=(("case", str(index)),))
            rebuilt = spec_from_dict(spec_to_dict(spec))
            assert rebuilt.key() == spec.key()
            assert rebuilt == spec or rebuilt.signature() == spec.signature()

    def test_round_trip_survives_json_text(self):
        spec = _specs()[1]
        rebuilt = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
        assert rebuilt.key() == spec.key()


# ----------------------------------------------------------------------
# CampaignPlan
# ----------------------------------------------------------------------
class TestCampaignPlan:
    def test_grid_matches_engine_enumeration(self):
        plan = CampaignPlan(name="demo", specs=_specs(3))
        cells = plan.cells()
        assert len(cells) == plan.total_cells == 6
        assert [(c.spec_key, c.seed) for c in cells] == \
            [(c.spec_key, c.seed) for c in enumerate_cells(_specs(3))]
        assert sum(plan.shard_counts(4)) == 6

    def test_save_load_and_hash_check(self, tmp_path):
        plan = CampaignPlan(name="demo", specs=_specs())
        path = plan.save(tmp_path)
        loaded = CampaignPlan.load(path)
        assert loaded.plan_hash() == plan.plan_hash()
        assert loaded.spec_order() == plan.spec_order()

        data = json.loads(path.read_text())
        data["specs"][0]["seed"] = 99  # tamper
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="hash check"):
            CampaignPlan.load(path)

    @pytest.mark.parametrize("name", ["", ".", "..", "a/b", "../escaped"])
    def test_name_must_be_a_plain_file_name(self, name):
        """A plan is saved as ``<dir>/<name>.json``, so its name may not
        address a file outside that directory."""
        with pytest.raises(ValueError, match="plain file name"):
            CampaignPlan(name=name, specs=_specs())


# ----------------------------------------------------------------------
# RunTable.merge
# ----------------------------------------------------------------------
class TestRunTableMerge:
    def _record(self, seed=0, steps=5, worker="w1"):
        cell = enumerate_cells(_specs(4))[0]
        return RunRecord(
            spec_key=cell.spec_key, condition=cell.condition, system=cell.system,
            task=cell.task, seed=seed, trial_index=cell.trial_index,
            success=False, steps=steps, planner_invocations=0,
            controller_steps=0, energy_j=0.0, effective_voltage=0.0,
            planner_bits_flipped=0, controller_bits_flipped=0,
            planner_elements_clamped=0, controller_elements_clamped=0,
            mean_entropy=float("nan"), entropy_records=0, planner_macs="{}",
            controller_macs="{}", predictor_macs="{}", params=cell.params,
            wall_time_s=1.0, worker_id=worker)

    def test_identical_duplicates_dedupe(self):
        """A reclaimed lease re-runs cells: byte-identical duplicates (even
        with different profile metadata) must merge to one row."""
        a = RunTable([self._record(seed=0, worker="host-a")])
        b = RunTable([self._record(seed=0, worker="host-b"),
                      self._record(seed=1, worker="host-b")])
        merged = RunTable.merge(a, b)
        assert len(merged) == 2
        assert merged.get(a._records[0].spec_key, 0).worker_id == "host-a"

    def test_conflicting_duplicates_raise(self):
        a = RunTable([self._record(seed=0, steps=5)])
        b = RunTable([self._record(seed=0, steps=7)])
        with pytest.raises(MergeConflictError, match="conflicting rows"):
            RunTable.merge(a, b)
        merged = RunTable.merge(a, b, overwrite=True)
        assert merged.get(a._records[0].spec_key, 0).steps == 7

    def test_nan_payloads_compare_equal(self):
        record = self._record(seed=0)  # mean_entropy is NaN
        assert record.result_payload() == self._record(seed=0).result_payload()
        assert len(RunTable.merge(RunTable([record]), RunTable([record]))) == 1


# ----------------------------------------------------------------------
# Sharded campaign execution
# ----------------------------------------------------------------------
class TestShardedCampaigns:
    def test_shard_union_is_byte_identical_to_serial(self, tmp_path):
        specs = _specs(3)
        serial = run_campaign(specs, out=tmp_path / "serial", name="sh")
        count = 3
        for index in range(1, count + 1):
            result = run_campaign(specs, out=tmp_path / f"shard{index}",
                                  name="sh", shard=Shard(index, count))
            assert result.executed_trials == len(result.table)
            # plan file saved for the merge's canonical ordering
            assert (tmp_path / f"shard{index}" / "plans" / "sh.json").exists()
        merged = merge_run_tables(
            tmp_path / "merged",
            [tmp_path / f"shard{index}" for index in range(1, count + 1)])
        assert [m.missing_cells for m in merged] == [0]
        assert (tmp_path / "merged" / "sh.csv").read_bytes() == \
            serial.csv_path.read_bytes()
        assert (tmp_path / "merged" / "sh.json").read_bytes() == \
            serial.json_path.read_bytes()

    def test_sequential_shards_into_one_dir_rebuild_the_serial_table(self, tmp_path):
        """Shards resume from the shared table, so running every shard
        against the same out dir converges to the exact serial file."""
        specs = _specs(3)
        serial = run_campaign(specs, out=tmp_path / "serial", name="sh")
        total = 0
        for index in (1, 2):
            result = run_campaign(specs, out=tmp_path / "acc", name="sh",
                                  shard=Shard(index, 2))
            total += result.executed_trials
        assert total == 6
        assert (tmp_path / "acc" / "sh.csv").read_bytes() == \
            serial.csv_path.read_bytes()


# ----------------------------------------------------------------------
# Work queue
# ----------------------------------------------------------------------
class TestWorkQueue:
    def _queue(self, tmp_path, **kwargs):
        return WorkQueue(tmp_path / "q", **kwargs)

    def test_enqueue_is_idempotent(self, tmp_path):
        queue = self._queue(tmp_path)
        plan = CampaignPlan(name="demo", specs=_specs(4))
        first = queue.enqueue(plan, batch=2)
        assert first.new_tasks == 4 and first.enqueued_cells == 8
        again = queue.enqueue(plan, batch=2)
        assert again.new_tasks == 0 and again.skipped_tasks == 4

    def test_enqueue_rejects_changed_plan_under_same_name(self, tmp_path):
        queue = self._queue(tmp_path)
        queue.enqueue(CampaignPlan(name="demo", specs=_specs(2)))
        with pytest.raises(ValueError, match="different plan"):
            queue.enqueue(CampaignPlan(name="demo", specs=_specs(5)))

    def test_enqueue_rejects_unknown_system_keys(self, tmp_path):
        spec = TrialSpec(condition="x", system="no-such-system",
                         task="wooden", num_trials=1)
        with pytest.raises(ValueError, match="not in the registry"):
            self._queue(tmp_path).enqueue(CampaignPlan(name="demo",
                                                       specs=[spec]))

    def test_tasks_never_straddle_systems_or_fleet_specs(self, tmp_path):
        """Task files are cut like pool chunks: at most ``batch`` cells of
        one system, a fleet spec's cells in tasks of their own, so each
        task is one executor's stack; its ``specs`` hold every spec its
        cells use."""
        queue = self._queue(tmp_path)
        clean, faulty = _specs(4)
        specs = [clean, faulty,
                 TrialSpec(condition="fleet", system="jarvis", task="wooden",
                           num_trials=4, seed=10, fleet=2),
                 TrialSpec(condition="rotated", system="jarvis-rotated",
                           task="wooden", num_trials=4, seed=0)]
        plan = CampaignPlan(name="demo", specs=specs)
        report = queue.enqueue(plan, batch=3)
        assert report.new_tasks == 7 and report.enqueued_cells == 16
        by_key = {spec.key(): spec for spec in specs}
        sizes, shapes = [], []
        for path in sorted(queue.tasks_dir.glob("*.json")):
            data = json.loads(path.read_text())
            assert {key for key, _, _ in data["cells"]} == set(data["specs"])
            assert "-g3-" in data["task_id"]
            held = [by_key[key] for key in data["specs"]]
            assert len({spec.system for spec in held}) == 1
            sizes.append(len(data["cells"]))
            shapes.append(tuple(spec.condition for spec in held))
        assert sizes == [3, 3, 2, 3, 1, 3, 1]
        assert shapes == [("clean",), ("clean", "faulty"), ("faulty",),
                          ("fleet",), ("fleet",), ("rotated",), ("rotated",)]

    def test_reenqueue_with_different_batch_never_drops_cells(self, tmp_path):
        """Batch size is part of the task id: after an interrupted enqueue,
        re-enqueueing with a different --batch must re-cover every cell
        (overlap deduplicates at merge; id collisions would drop cells)."""
        queue = self._queue(tmp_path)
        plan = CampaignPlan(name="demo", specs=_specs(4))  # 8 cells
        queue.enqueue(plan, batch=1)
        for path in sorted(queue.tasks_dir.glob("*.json"))[4:]:
            path.unlink()  # simulate an enqueue interrupted half-way
        queue.enqueue(plan, batch=3)
        covered = set()
        for path in queue.tasks_dir.glob("*.json"):
            data = json.loads(path.read_text())
            covered.update((key, seed) for key, seed, _ in data["cells"])
        assert covered == {(c.spec_key, c.seed) for c in plan.cells()}

    def test_enqueue_over_an_older_queue_covers_every_cell(self, tmp_path):
        """Older versions cut tasks at every spec and tagged their ids
        ``-s<size>``; a queue holding such a done task of the same plan
        gets every cell under fresh ``-g`` ids, so no older id that covers
        other cells hides one, and the drained queue merges complete."""
        specs = _specs(2)
        serial = run_campaign(specs, out=tmp_path / "serial", name="demo")
        queue = self._queue(tmp_path)
        plan = CampaignPlan(name="demo", specs=specs)
        plan.save(queue.plans_dir)
        clean = specs[0]
        older = f"{plan.plan_hash()[:8]}-s4-00000"  # held "clean" only
        (queue.done_dir / f"{older}.json").write_text(json.dumps({
            "format": "repro-create-task-v1", "plan": "demo",
            "plan_hash": plan.plan_hash(), "task_id": older,
            "specs": {clean.key(): spec_to_dict(clean)},
            "cells": [[clean.key(), seed, seed] for seed in clean.seeds()]}))
        report = queue.enqueue(plan, batch=4)
        assert (report.new_tasks, report.skipped_tasks,
                report.enqueued_cells) == (1, 0, 4)
        assert queue.pending_ids() == [f"{plan.plan_hash()[:8]}-g4-00000"]
        WorkerDaemon(queue, worker_id="w").run()
        merge_run_tables(tmp_path / "merged", [queue.root])
        assert (tmp_path / "merged" / "demo.csv").read_bytes() == \
            serial.csv_path.read_bytes()

    def test_claim_long_after_enqueue_is_not_instantly_reclaimable(self, tmp_path):
        """Claiming must refresh the heartbeat clock: a task enqueued more
        than one TTL ago would otherwise surface as an already-expired
        lease that a concurrent reclaimer could snatch mid-claim."""
        queue = self._queue(tmp_path, lease_ttl=30)
        queue.enqueue(CampaignPlan(name="demo", specs=_specs(2)), batch=4)
        task_path = next(queue.tasks_dir.glob("*.json"))
        stale = time.time() - 1000
        os.utime(task_path, (stale, stale))  # enqueued "long ago"
        task = queue.claim("w1")
        assert task is not None
        assert queue.reclaim_expired() == []  # the fresh lease survives

    def test_enqueue_skips_batches_satisfied_by_a_table(self, tmp_path):
        specs = _specs(2)
        done = run_campaign(specs, out=tmp_path / "done", name="demo")
        queue = self._queue(tmp_path)
        report = queue.enqueue(CampaignPlan(name="demo", specs=specs),
                               batch=1, table=done.table)
        assert report.new_tasks == 0 and report.satisfied_tasks == 4

    def test_claim_complete_lifecycle(self, tmp_path):
        queue = self._queue(tmp_path)
        queue.enqueue(CampaignPlan(name="demo", specs=_specs(4)[:1]), batch=4)
        task = queue.claim("w1")
        assert task is not None and len(task.cells) == 4
        assert queue.counts() == {"pending": 0, "leased": 1, "done": 0,
                                  "failed": 0}
        owner_file = _lease(queue, task).with_suffix(".owner.json")
        owner = json.loads(owner_file.read_text())
        assert owner["worker"] == "w1" and owner["pid"] == os.getpid()
        assert task.document["task_id"] == task.task_id
        assert queue.heartbeat([task.task_id, "gone"]) == [task.task_id]
        assert queue.complete(task.task_id)
        assert queue.counts()["done"] == 1
        assert not owner_file.exists()
        assert queue.claim("w2") is None  # drained

    def test_cells_rebuild_with_exact_spec_keys(self, tmp_path):
        queue = self._queue(tmp_path)
        specs = _specs(2)
        queue.enqueue(CampaignPlan(name="demo", specs=specs), batch=8)
        cells = []
        while (task := queue.claim("w1")) is not None:
            cells.extend(task.cells)
        assert [(c.spec_key, c.seed) for c in cells] == \
            [(c.spec_key, c.seed) for c in enumerate_cells(specs)]

    def test_expired_leases_are_reclaimed_once(self, tmp_path):
        queue = self._queue(tmp_path, lease_ttl=30)
        queue.enqueue(CampaignPlan(name="demo", specs=_specs(2)), batch=2)
        task = queue.claim("dead-worker")
        assert queue.reclaim_expired() == []  # heartbeat is fresh
        stale = time.time() - 1000
        os.utime(_lease(queue, task), (stale, stale))  # simulate a dead worker
        assert queue.reclaim_expired() == [task.task_id]
        assert queue.reclaim_expired() == []
        assert task.task_id in queue.pending_ids()
        assert not _lease(queue, task).with_suffix(".owner.json").exists()

    def test_complete_after_reclaim_reports_loss(self, tmp_path):
        queue = self._queue(tmp_path, lease_ttl=30)
        queue.enqueue(CampaignPlan(name="demo", specs=_specs(2)), batch=4)
        task = queue.claim("slow-worker")
        stale = time.time() - 1000
        os.utime(_lease(queue, task), (stale, stale))
        queue.reclaim_expired()
        assert queue.complete(task.task_id) is False  # informational

    def test_skewed_but_advancing_heartbeat_survives_reclaim(self, tmp_path):
        """Clock-skew regression: a worker whose clock lags wall-clock
        heartbeats mtimes that *look* expired in absolute terms.  As long
        as the mtime keeps advancing between scans the lease is live and
        must not be reclaimed; once it freezes, it is."""
        queue = self._queue(tmp_path, lease_ttl=30)
        queue.enqueue(CampaignPlan(name="demo", specs=_specs(2)), batch=2)
        task = queue.claim("lagging-worker")  # claim records the mtime
        lease = _lease(queue, task)
        base = lease.stat().st_mtime
        # Heartbeats from the lagging clock: each advances the mtime a
        # little, but stays a TTL-and-more behind the reclaimer's clock.
        os.utime(lease, (base + 5, base + 5))
        assert queue.reclaim_expired(now=base + 100) == []
        os.utime(lease, (base + 10, base + 10))
        assert queue.reclaim_expired(now=base + 200) == []
        # The worker dies; the frozen mtime now reads as truly expired.
        assert queue.reclaim_expired(now=base + 300) == [task.task_id]
        assert task.task_id in queue.pending_ids()

    def test_fresh_reclaimer_falls_back_to_absolute_age(self, tmp_path):
        """A restarted reclaimer has no observation history, so a frozen
        long-expired lease must still be reclaimed on its first scan —
        the advancing-mtime guard is per-instance memory, not a grace
        period for every newcomer."""
        queue = self._queue(tmp_path, lease_ttl=30)
        queue.enqueue(CampaignPlan(name="demo", specs=_specs(2)), batch=2)
        task = queue.claim("dead-worker")
        stale = time.time() - 1000
        os.utime(_lease(queue, task), (stale, stale))
        restarted = WorkQueue(tmp_path / "q", lease_ttl=30)
        assert restarted.reclaim_expired() == [task.task_id]


# ----------------------------------------------------------------------
# Worker daemon
# ----------------------------------------------------------------------
class TestWorkerDaemon:
    def test_single_daemon_drains_and_matches_serial(self, tmp_path):
        specs = _specs(3)
        serial = run_campaign(specs, out=tmp_path / "serial", name="demo")
        queue = WorkQueue(tmp_path / "q")
        queue.enqueue(CampaignPlan(name="demo", specs=specs), batch=2)
        tasks = [json.loads(path.read_text())
                 for path in sorted(queue.tasks_dir.glob("*.json"))]
        # batch=2 cuts the system's six cells into three tasks, the middle
        # one holding a cell of each spec.
        assert [len(task["specs"]) for task in tasks] == [1, 2, 1]
        stats = WorkerDaemon(queue, jobs=1, worker_id="w1").run()
        assert stats.tasks_completed == 3 and stats.cells_executed == 6
        assert queue.counts() == {"pending": 0, "leased": 0, "done": 3,
                                  "failed": 0}
        merge_run_tables(tmp_path / "merged", [queue.root])
        assert (tmp_path / "merged" / "demo.csv").read_bytes() == \
            serial.csv_path.read_bytes()
        assert (tmp_path / "merged" / "demo.json").read_bytes() == \
            serial.json_path.read_bytes()

    def test_pool_daemon_matches_serial(self, tmp_path):
        specs = _specs(3)
        serial = run_campaign(specs, out=tmp_path / "serial", name="demo")
        queue = WorkQueue(tmp_path / "q")
        queue.enqueue(CampaignPlan(name="demo", specs=specs), batch=2)
        stats = WorkerDaemon(queue, jobs=2, worker_id="pool").run()
        assert stats.cells_executed == 6
        merge_run_tables(tmp_path / "merged", [queue.root])
        assert (tmp_path / "merged" / "demo.csv").read_bytes() == \
            serial.csv_path.read_bytes()

    def test_partial_drain_resumes_with_a_second_daemon(self, tmp_path):
        """Kill-and-restart workflow: a worker stops mid-queue; a later
        worker picks up exactly the remaining tasks."""
        specs = _specs(4)
        serial = run_campaign(specs, out=tmp_path / "serial", name="demo")
        queue = WorkQueue(tmp_path / "q")
        queue.enqueue(CampaignPlan(name="demo", specs=specs), batch=2)
        first = WorkerDaemon(queue, worker_id="w1", max_tasks=1).run()
        assert first.tasks_completed == 1
        assert len(queue.pending_ids()) == 3
        second = WorkerDaemon(queue, worker_id="w2").run()
        assert second.tasks_completed == 3
        merge_run_tables(tmp_path / "merged", [queue.root])
        assert (tmp_path / "merged" / "demo.csv").read_bytes() == \
            serial.csv_path.read_bytes()

    def test_max_tasks_run_sweeps_expired_leases_once(self, tmp_path,
                                                       monkeypatch):
        """A run that has claimed and settled its ``max_tasks`` stops
        without another ``reclaim_expired`` round trip."""
        queue = WorkQueue(tmp_path / "q")
        queue.enqueue(CampaignPlan(name="demo", specs=_specs(1)[:1]))
        sweeps = []
        reclaim_expired = queue.reclaim_expired

        def counted(*args):
            sweeps.append(args)
            return reclaim_expired(*args)

        monkeypatch.setattr(queue, "reclaim_expired", counted)
        stats = WorkerDaemon(queue, worker_id="w1", max_tasks=1).run()
        assert stats.tasks_completed == 1
        assert queue.counts()["done"] == 1
        assert len(sweeps) == 1

    def test_daemon_reclaims_dead_workers_lease_and_reruns_it(self, tmp_path):
        """The cells of an abandoned (SIGKILL'd) lease are re-executed by a
        healthy worker and nothing is lost."""
        specs = _specs(3)
        serial = run_campaign(specs, out=tmp_path / "serial", name="demo")
        queue = WorkQueue(tmp_path / "q", lease_ttl=30)
        queue.enqueue(CampaignPlan(name="demo", specs=specs), batch=2)
        abandoned = queue.claim("dead-worker")  # never heartbeats again
        stale = time.time() - 1000
        os.utime(_lease(queue, abandoned), (stale, stale))
        stats = WorkerDaemon(queue, worker_id="survivor", wait=True,
                             poll_interval=0.05).run()
        assert stats.leases_reclaimed == 1
        assert stats.cells_executed == 6  # including the reclaimed cells
        merge_run_tables(tmp_path / "merged", [queue.root])
        assert (tmp_path / "merged" / "demo.csv").read_bytes() == \
            serial.csv_path.read_bytes()

    def test_duplicate_rows_from_lease_loss_merge_away(self, tmp_path,
                                                       monkeypatch):
        """A slow worker finishing after reclamation leaves duplicate rows;
        they are byte-identical and must merge to the serial table."""
        import repro.eval.campaign as campaign_module

        specs = _specs(2)
        serial = run_campaign(specs, out=tmp_path / "serial", name="demo")
        queue = WorkQueue(tmp_path / "q", lease_ttl=30)
        queue.enqueue(CampaignPlan(name="demo", specs=specs), batch=4)
        original = campaign_module._pool_run_batch

        def reclaimed_while_running(cells, *args, **kwargs):
            # The lease expires while "slow" is executing, and another
            # worker's scan re-queues it.
            stale = time.time() - 1000
            for task_id in queue.lease_ids():
                os.utime(queue.leases_dir / f"{task_id}.json", (stale, stale))
            assert WorkQueue(queue.root, lease_ttl=30).reclaim_expired()
            return original(cells, *args, **kwargs)

        monkeypatch.setattr(campaign_module, "_pool_run_batch",
                            reclaimed_while_running)
        slow = WorkerDaemon(queue, worker_id="slow", max_tasks=1,
                            heartbeat_interval=60).run()
        monkeypatch.undo()
        assert slow.tasks_lost == 1  # finished anyway, streamed its rows

        healthy = WorkerDaemon(queue, worker_id="healthy").run()
        assert healthy.cells_executed == 4  # re-ran the reclaimed task
        merged = merge_run_tables(tmp_path / "merged", [queue.root])
        assert merged[0].rows == 4 and merged[0].sources == 2
        assert (tmp_path / "merged" / "demo.csv").read_bytes() == \
            serial.csv_path.read_bytes()

    @pytest.fixture()
    def boom_system(self):
        """A registered system key whose factory raises."""
        from repro.agents.registry import (SYSTEM_FACTORIES,
                                           SYSTEM_HAS_PREDICTOR,
                                           register_system)

        def boom():
            raise RuntimeError("broken factory")

        register_system("boom-system", boom, overwrite=True)
        yield "boom-system"
        SYSTEM_FACTORIES.pop("boom-system", None)
        SYSTEM_HAS_PREDICTOR.pop("boom-system", None)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_inline_failure_parks_task_in_failed(self, tmp_path, boom_system,
                                                 jobs):
        """A deterministically crashing task must land in failed/ (not stay
        leased), or its reclaimed lease would crash every worker in turn.
        At jobs=2 the system is built in the parent before the chunk is
        submitted; that failure is the chunk's too."""
        queue = WorkQueue(tmp_path / "q")
        spec = TrialSpec(condition="x", system=boom_system, task="wooden",
                         num_trials=1)
        queue.enqueue(CampaignPlan(name="demo", specs=[spec]), batch=1)
        with pytest.raises(RuntimeError, match="broken factory"):
            WorkerDaemon(queue, jobs=jobs, worker_id="w").run()
        assert queue.failed_ids()
        assert not queue.pending_ids() and not queue.lease_ids()

    def test_broken_system_beside_a_healthy_one_parks_only_its_task(
            self, tmp_path, boom_system):
        """The broken task is claimed first; the healthy task claimed after
        it in the same run must still publish its system and finish."""
        queue = WorkQueue(tmp_path / "q")
        specs = [TrialSpec(condition="broken", system=boom_system,
                           task="wooden", num_trials=1),
                 TrialSpec(condition="healthy", system="jarvis",
                           task="wooden", num_trials=1)]
        queue.enqueue(CampaignPlan(name="demo", specs=specs), batch=1)
        broken, healthy = queue.pending_ids()
        with pytest.raises(RuntimeError, match="broken factory"):
            WorkerDaemon(queue, jobs=2, worker_id="w").run()
        assert queue.counts() == {"pending": 0, "leased": 0, "done": 1,
                                  "failed": 1}
        assert queue.failed_ids() == [broken]
        assert queue.done_ids() == [healthy]

    def test_partial_row_write_is_retried_and_merges_away(self, tmp_path,
                                                          monkeypatch):
        """A full disk under the row writer: the first write of a task
        lands one row, then raises.  The daemon retries the whole task's
        rows, and the duplicate merges away like a reclaimed lease's."""
        specs = _specs(2)
        serial = run_campaign(specs, out=tmp_path / "serial", name="demo")
        queue = WorkQueue(tmp_path / "q")
        queue.enqueue(CampaignPlan(name="demo", specs=specs), batch=2)
        write_rows = WorkQueue.write_rows
        failed = []

        def disk_full_once(self, worker_id, plan_name, records):
            if not failed:
                failed.append(len(records))
                write_rows(self, worker_id, plan_name, records[:1])
                raise OSError(errno.ENOSPC, "No space left on device")
            return write_rows(self, worker_id, plan_name, records)

        monkeypatch.setattr(WorkQueue, "write_rows", disk_full_once)
        stats = WorkerDaemon(queue, worker_id="w", retry_delay=0.001).run()
        assert failed == [2]
        assert stats.tasks_completed == 2 and stats.cells_executed == 4
        lines = (queue.result_dir("w") / "demo.csv").read_text().splitlines()
        assert len(lines) == 1 + 4 + 1  # header, the rows, one duplicate
        merge_run_tables(tmp_path / "merged", [queue.root])
        assert (tmp_path / "merged" / "demo.csv").read_bytes() == \
            serial.csv_path.read_bytes()

    def test_pool_failure_parks_task_and_settles_sibling(self, tmp_path,
                                                         monkeypatch):
        """A jobs=2 worker whose task crashes parks it in failed/, lets the
        sibling task finish, settles it into done/, and leaves nothing
        leased (the sibling's lease is not abandoned to the TTL)."""
        import repro.eval.campaign as campaign_module

        original = campaign_module._run_lane_group

        def crash_on_faulty(cells, executor, **kwargs):
            if cells[0].condition == "faulty":
                raise RuntimeError("injected chunk crash")
            return original(cells, executor, **kwargs)

        monkeypatch.setattr(campaign_module, "_run_lane_group",
                            crash_on_faulty)
        queue = WorkQueue(tmp_path / "q")
        queue.enqueue(CampaignPlan(name="demo", specs=_specs(2)), batch=2)
        with pytest.raises(RuntimeError, match="injected chunk crash"):
            WorkerDaemon(queue, jobs=2, worker_id="w").run()
        assert queue.counts() == {"pending": 0, "leased": 0, "done": 1,
                                  "failed": 1}
        rows = RunTable.read_csv(queue.result_dir("w") / "demo.csv")
        assert sorted((r.condition, r.seed) for r in rows) == \
            [("clean", 0), ("clean", 1)]

    def test_keeper_renews_lease_of_long_inprocess_task(self, tmp_path,
                                                        monkeypatch):
        """jobs=1 runs the task on the calling thread; the lease keeper
        still heartbeats it every interval, so a concurrent reclaimer
        never steals it however long the task runs."""
        import repro.eval.campaign as campaign_module

        original = campaign_module._pool_run_batch

        def slow(*args, **kwargs):
            time.sleep(2.5)  # far longer than the lease TTL
            return original(*args, **kwargs)

        monkeypatch.setattr(campaign_module, "_pool_run_batch", slow)
        queue = WorkQueue(tmp_path / "q", lease_ttl=1.0)
        queue.enqueue(CampaignPlan(name="demo", specs=_specs(1)[:1]), batch=1)
        reclaimer = WorkQueue(queue.root, lease_ttl=1.0)
        reclaimed: list[str] = []
        stop = threading.Event()

        def reclaim() -> None:
            while not stop.wait(0.02):
                reclaimed.extend(reclaimer.reclaim_expired())

        thread = threading.Thread(target=reclaim)
        thread.start()
        try:
            stats = WorkerDaemon(queue, jobs=1, worker_id="w",
                                 heartbeat_interval=0.1).run()
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert reclaimed == []
        assert stats.tasks_completed == 1 and stats.tasks_lost == 0

    def test_keeper_races_settling_under_fast_thread_switches(self, tmp_path):
        """The keeper snapshots held leases while the main thread claims and
        settles them: with a switch every microsecond and a heartbeat every
        millisecond, every task still settles exactly once."""
        queue = WorkQueue(tmp_path / "q")
        specs = [TrialSpec(condition=f"c{seed}", system="jarvis",
                           task="wooden", num_trials=1, seed=seed)
                 for seed in range(8)]
        queue.enqueue(CampaignPlan(name="demo", specs=specs), batch=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            stats = WorkerDaemon(queue, jobs=1, worker_id="w",
                                 heartbeat_interval=0.001).run()
        finally:
            sys.setswitchinterval(interval)
        assert stats.tasks_completed == 8 and stats.tasks_lost == 0
        assert queue.counts() == {"pending": 0, "leased": 0, "done": 8,
                                  "failed": 0}

    def test_worker_id_includes_host_and_pid(self, tmp_path):
        """Satellite fix: profile attribution must be unambiguous across
        hosts and across successive pools."""
        result = run_campaign(_specs(1), out=tmp_path, name="wid")
        sidecar = RunTable.read_csv(tmp_path / "profiles" / "wid.csv")
        for record in sidecar:
            assert socket.gethostname() in record.worker_id
            assert str(os.getpid()) in record.worker_id


# ----------------------------------------------------------------------
# A worker table torn at every byte offset
# ----------------------------------------------------------------------
class TestTornWorkerTable:
    def test_every_cut_reads_written_rows_and_merges_to_serial(self,
                                                               tmp_path):
        """A worker killed mid-write leaves its table cut anywhere.  At
        every offset after the header the lenient reader returns only rows
        that were written, and the merge with the re-run's complete table
        (a second worker after the lease was reclaimed) is the serial
        table, byte for byte."""
        specs = _specs(2)
        serial = run_campaign(specs, out=tmp_path / "serial", name="demo")
        queue = WorkQueue(tmp_path / "q")
        queue.enqueue(CampaignPlan(name="demo", specs=specs), batch=4)
        for worker_id in ("torn", "rerun"):
            queue.write_rows(worker_id, "demo", serial.table)
        queue.close()
        written = {record.result_payload() for record in serial.table}
        expected = serial.csv_path.read_bytes()
        torn = queue.result_dir("torn") / "demo.csv"
        data = torn.read_bytes()
        for cut in range(data.index(b"\n") + 1, len(data) + 1):
            torn.write_bytes(data[:cut])
            rows = RunTable.read_csv(torn, strict=False)
            assert all(row.result_payload() in written for row in rows), cut
            merge_run_tables(tmp_path / "merged", [queue.root])
            assert (tmp_path / "merged" / "demo.csv").read_bytes() == \
                expected, cut


# ----------------------------------------------------------------------
# Real processes: two concurrent CLI workers, one SIGKILL'd mid-lease
# ----------------------------------------------------------------------
class TestDistributedProcesses:
    def test_two_workers_with_sigkill_match_serial(self, tmp_path,
                                                   jarvis_system):
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        specs = _specs(3)
        serial = run_campaign(specs, out=tmp_path / "serial", name="demo")
        queue = WorkQueue(tmp_path / "q", lease_ttl=60)
        queue.enqueue(CampaignPlan(name="demo", specs=specs), batch=1)

        def worker(worker_id, extra=()):
            return subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "worker", "--queue",
                 str(queue.root), "--id", worker_id, "--lease-ttl", "60",
                 *extra],
                env=env, cwd=REPO_ROOT, stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT, text=True)

        victim = worker("victim")
        deadline = time.time() + 120
        while time.time() < deadline and not queue.lease_ids():
            time.sleep(0.02)
        assert queue.lease_ids(), "victim never claimed a lease"
        os.kill(victim.pid, signal.SIGKILL)
        victim.wait()

        # Expire the orphaned lease immediately instead of waiting the TTL.
        stale = time.time() - 1000
        for lease_id in queue.lease_ids():
            os.utime(queue.leases_dir / f"{lease_id}.json", (stale, stale))

        survivors = [worker(f"survivor-{i}", extra=("--wait", "--poll", "0.2"))
                     for i in (1, 2)]
        outputs = [proc.communicate(timeout=240)[0] for proc in survivors]
        assert all(proc.returncode == 0 for proc in survivors), outputs
        assert any("re-queued" in output for output in outputs), outputs

        merged = merge_run_tables(tmp_path / "merged", [queue.root])
        assert merged[0].missing_cells == 0
        assert (tmp_path / "merged" / "demo.csv").read_bytes() == \
            serial.csv_path.read_bytes()
        assert not queue.pending_ids() and not queue.lease_ids()
