"""Distributed campaign scheduling: plans, a file-backed work queue, workers.

The campaign engine (:mod:`repro.eval.campaign`) is split planner/executor:
planning — enumerating the deterministic (spec, seed) cell grid — is a pure
function of the :class:`~repro.eval.campaign.TrialSpec` list, and execution
is a pure function of each cell.  This module scales that split across
processes and hosts:

:class:`CampaignPlan`
    The serializable planner output: the specs, their canonical order, the
    full cell grid, and a content hash.  Plans round-trip through JSON with
    the spec keys preserved exactly, so every participant of a distributed
    run derives the identical grid.

:class:`WorkQueue`
    A shared-filesystem work queue.  The planner writes one JSON **task
    file** per cell batch into ``tasks/``; workers **claim** a task by
    atomically ``os.rename``-ing it into ``leases/`` (exactly one claimer
    can win a rename), **heartbeat** the lease's mtime while executing,
    **write** its rows, and **complete** it into ``done/``.  A lease whose
    heartbeat is older than the TTL is **reclaimed** — renamed back into
    ``tasks/`` — so cells leased to a SIGKILL'd worker are re-run by a
    healthy one.  Because cells are deterministic, a task executed one and
    a half times yields duplicate-but-identical rows, which
    :meth:`~repro.eval.runtable.RunTable.merge` deduplicates.  Leases are
    addressed by task id and rows by worker id and plan name, the interface
    :class:`~repro.eval.service.QueueClient` offers over HTTP; task ids and
    plan names must be plain file names.

:class:`WorkerDaemon`
    The pull loop behind ``repro-create worker``, over either backend:
    claim → execute the task as one chunk on the campaign engine's
    ``CellPool`` → write its rows to a per-worker run table under
    ``results/<worker_id>/`` → complete → repeat, until the queue drains.

:func:`merge_run_tables`
    The fault-tolerant combine step behind ``repro-create merge``: unions
    worker/shard tables by (spec_key, seed) with conflict detection and
    rewrites the canonical files in plan order.

The invariant tying it all together: **the merged table from any number of
workers or shards is byte-identical to the single-host serial table.**  See
``docs/campaigns.md`` (distributed execution) and ``docs/runtable-schema.md``
(task/lease file formats).
"""

from __future__ import annotations

import contextlib
import json
import os
import socket
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from ..core.create import ProtectionConfig
from ..core.policies import VoltagePolicy
from ..core.voltage_scaling import VoltageScalingConfig
from ..faults.models import (ErrorModel, SingleBitErrorModel, UniformErrorModel,
                             VoltageErrorModel)
from .campaign import (CellPool, TrialSpec, _auto_batch, _Cell,
                       _chunk_cells, enumerate_cells, pending_cells)
from .runtable import RunRecord, RunTable, RunTableWriter
from .shard import cell_shard_index

__all__ = ["CampaignPlan", "WorkQueue", "ClaimedTask", "WorkerDaemon",
           "WorkerStats", "MergedTable", "merge_run_tables",
           "spec_to_dict", "spec_from_dict", "task_from_dict",
           "protection_to_dict", "protection_from_dict"]

PLAN_FORMAT = "repro-create-plan-v1"
TASK_FORMAT = "repro-create-task-v1"


# ----------------------------------------------------------------------
# JSON codec for specs and protections
# ----------------------------------------------------------------------
# Every distributed participant rebuilds TrialSpecs from plan/task files, so
# the codec must preserve the spec *signature* (and therefore the spec key)
# exactly: floats pass through json, which round-trips IEEE-754 doubles via
# repr.  Only declaratively-described configurations are serializable;
# exotic error models are rejected with a ValueError.

def _policy_to_dict(policy: VoltagePolicy) -> dict:
    return {"name": policy.name, "thresholds": list(policy.thresholds),
            "voltages": list(policy.voltages)}


def _policy_from_dict(data: Mapping) -> VoltagePolicy:
    return VoltagePolicy(name=data["name"],
                         thresholds=tuple(data["thresholds"]),
                         voltages=tuple(data["voltages"]))


def _error_model_to_dict(model: ErrorModel) -> dict:
    if isinstance(model, UniformErrorModel):
        return {"kind": "uniform", "ber": model.ber}
    if isinstance(model, VoltageErrorModel):
        from ..hardware.timing import TimingModelConfig

        if model.timing_model.config != TimingModelConfig():
            raise ValueError(
                "VoltageErrorModel with a customized timing model has no "
                "JSON form (workers would silently rebuild it with default "
                "timing parameters)")
        return {"kind": "voltage", "voltage": model.voltage}
    if isinstance(model, SingleBitErrorModel):
        return {"kind": "single-bit", "bit": model.bit, "rate": model.rate}
    raise ValueError(f"error model {type(model).__name__} has no JSON form; "
                     "distributed campaigns support uniform, voltage, and "
                     "single-bit models")


def _error_model_from_dict(data: Mapping) -> ErrorModel:
    kind = data["kind"]
    if kind == "uniform":
        return UniformErrorModel(ber=data["ber"])
    if kind == "voltage":
        return VoltageErrorModel(voltage=data["voltage"])
    if kind == "single-bit":
        return SingleBitErrorModel(bit=data["bit"], rate=data["rate"])
    raise ValueError(f"unknown error-model kind {kind!r}")


def protection_to_dict(protection: ProtectionConfig | None) -> dict | None:
    """JSON form of a protection config (None passes through)."""
    if protection is None:
        return None
    scaling = protection.voltage_scaling
    return {
        "voltage": protection.voltage,
        "error_model": (None if protection.error_model is None
                        else _error_model_to_dict(protection.error_model)),
        "anomaly_detection": protection.anomaly_detection,
        "voltage_scaling": (None if scaling is None else {
            "policy": _policy_to_dict(scaling.policy),
            "update_interval": scaling.update_interval,
            "entropy_source": scaling.entropy_source,
        }),
        "target_components": (None if protection.target_components is None
                              else list(protection.target_components)),
        "exposure_scale": protection.exposure_scale,
        "injector_kind": protection.injector_kind,
    }


def protection_from_dict(data: Mapping | None) -> ProtectionConfig | None:
    """Inverse of :func:`protection_to_dict`; preserves the signature exactly."""
    if data is None:
        return None
    scaling = data.get("voltage_scaling")
    return ProtectionConfig(
        voltage=data.get("voltage"),
        error_model=(None if data.get("error_model") is None
                     else _error_model_from_dict(data["error_model"])),
        anomaly_detection=data.get("anomaly_detection", False),
        voltage_scaling=(None if scaling is None else VoltageScalingConfig(
            policy=_policy_from_dict(scaling["policy"]),
            update_interval=scaling["update_interval"],
            entropy_source=scaling["entropy_source"],
        )),
        target_components=(None if data.get("target_components") is None
                           else tuple(data["target_components"])),
        exposure_scale=data.get("exposure_scale", 1.0),
        injector_kind=data.get("injector_kind", "bitflip"),
    )


def spec_to_dict(spec: TrialSpec) -> dict:
    """JSON form of a trial spec.

    Raises :class:`ValueError` for a spec whose protections have no
    declarative JSON form, which other hosts could not rebuild.
    """
    return {
        "condition": spec.condition,
        "system": spec.system,
        "task": spec.task,
        "num_trials": spec.num_trials,
        "seed": spec.seed,
        "planner_protection": protection_to_dict(spec.planner_protection),
        "controller_protection": protection_to_dict(spec.controller_protection),
        "params": [list(pair) for pair in spec.params],
        "fleet": spec.fleet,
    }


def spec_from_dict(data: Mapping) -> TrialSpec:
    return TrialSpec(
        condition=data["condition"],
        system=data["system"],
        task=data["task"],
        num_trials=data["num_trials"],
        seed=data["seed"],
        planner_protection=protection_from_dict(data.get("planner_protection")),
        controller_protection=protection_from_dict(data.get("controller_protection")),
        params=tuple((str(k), str(v)) for k, v in data.get("params", [])),
        fleet=int(data.get("fleet", 1)),
    )


def _plain_name(name, what: str) -> str:
    """Return ``name`` if it is a plain file name, else raise ValueError.

    Plan names and task ids become file names under the queue directory and
    arrive over the wire, so none may climb out of its directory."""
    if (not isinstance(name, str) or name in ("", ".", "..")
            or os.path.basename(name) != name):
        raise ValueError(f"{what} {name!r} is not a plain file name")
    return name


def _atomic_write_json(path: Path, payload: dict) -> None:
    """Publish a JSON file atomically: readers never observe a torn file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + f".tmp-{os.getpid()}")
    tmp.write_text(json.dumps(payload, indent=1) + "\n")
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# CampaignPlan
# ----------------------------------------------------------------------
@dataclass
class CampaignPlan:
    """The planner half of a campaign: named specs and their cell grid.

    A plan is what crosses host boundaries.  It is content-hashed over the
    campaign name and every spec signature, so two plans with the same hash
    enumerate the identical grid — the property the queue relies on to make
    enqueueing idempotent and the merge relies on to restore canonical row
    order.
    """

    name: str
    specs: list[TrialSpec]

    def __post_init__(self):
        _plain_name(self.name, "plan name")
        if not self.specs:
            raise ValueError("a plan needs at least one spec")
        conditions = [spec.condition for spec in self.specs]
        if len(set(conditions)) != len(conditions):
            raise ValueError("condition labels must be unique within a plan")

    # -- grid ----------------------------------------------------------
    def cells(self) -> list[_Cell]:
        """The full cell grid, in canonical (spec order, then seed) order."""
        return enumerate_cells(self.specs)

    def pending(self, table: RunTable) -> list[_Cell]:
        """Grid cells not yet present in ``table``."""
        return pending_cells(self.specs, table)

    @property
    def total_cells(self) -> int:
        return sum(spec.num_trials for spec in self.specs)

    def spec_order(self) -> dict[str, int]:
        """spec_key -> canonical position; feeds :meth:`RunTable.sorted`."""
        return {spec.key(): index for index, spec in enumerate(self.specs)}

    def counts(self) -> list[tuple[str, int]]:
        """(condition, cell count) per spec, in order (dry-run reporting)."""
        return [(spec.condition, spec.num_trials) for spec in self.specs]

    def shard_counts(self, count: int) -> list[int]:
        """Cells per shard under static sharding into ``count`` slices."""
        totals = [0] * count
        for cell in self.cells():
            totals[cell_shard_index(cell.spec_key, cell.seed, count)] += 1
        return totals

    def plan_hash(self) -> str:
        """16-hex-digit content hash identifying this exact cell grid.

        Covers the campaign name and, per spec, the full signature *plus*
        ``seed`` and ``num_trials`` — the two grid-shaping fields the
        signature deliberately excludes (growing a campaign keeps its spec
        keys but must produce a different plan, or the queue would treat
        the grown grid's task files as already-done duplicates).
        """
        import hashlib

        payload = "\n".join(
            [self.name] + [f"{s.signature()}#seed={s.seed}+trials={s.num_trials}"
                           for s in self.specs])
        return hashlib.sha1(payload.encode()).hexdigest()[:16]

    # -- persistence ---------------------------------------------------
    def to_dict(self) -> dict:
        return {"format": PLAN_FORMAT, "name": self.name,
                "plan_hash": self.plan_hash(), "total_cells": self.total_cells,
                "specs": [spec_to_dict(spec) for spec in self.specs]}

    @classmethod
    def from_dict(cls, data: Mapping) -> "CampaignPlan":
        if data.get("format") != PLAN_FORMAT:
            raise ValueError(f"not a campaign plan (format="
                             f"{data.get('format')!r}, expected {PLAN_FORMAT!r})")
        plan = cls(name=data["name"],
                   specs=[spec_from_dict(spec) for spec in data["specs"]])
        stored = data.get("plan_hash")
        if stored and stored != plan.plan_hash():
            raise ValueError(
                f"plan {plan.name!r} failed its hash check (stored {stored}, "
                f"recomputed {plan.plan_hash()}); the file was edited or the "
                "spec signature scheme changed between versions")
        return plan

    def save(self, directory: str | Path) -> Path:
        """Write ``<directory>/<name>.json`` atomically; returns the path."""
        path = Path(directory) / f"{self.name}.json"
        _atomic_write_json(path, self.to_dict())
        return path

    @classmethod
    def load(cls, path: str | Path) -> "CampaignPlan":
        return cls.from_dict(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# Work queue
# ----------------------------------------------------------------------
@dataclass
class ClaimedTask:
    """A task this worker holds the lease on, addressed by ``task_id``.

    ``document`` is the task file's payload, which the campaign service
    sends over the wire verbatim."""

    task_id: str
    plan_name: str
    cells: list[_Cell]
    document: Mapping


def task_from_dict(data: Mapping) -> ClaimedTask:
    """Rebuild a claimed task from its task-file payload.

    Shared by the file-backed queue (which reads the payload from the lease
    file it just renamed) and the HTTP queue client (which receives the same
    payload over the wire).
    """
    if data.get("format") != TASK_FORMAT:
        raise ValueError(f"not a task payload (format={data.get('format')!r})")
    specs: dict[str, TrialSpec] = {}
    for key, spec_data in data["specs"].items():
        spec = spec_from_dict(spec_data)
        if spec.key() != key:
            raise ValueError(
                f"task {data['task_id']} declares spec key {key} but its "
                f"spec deserializes to {spec.key()}; the task file is "
                "corrupt or was produced by an incompatible version")
        specs[key] = spec
    cells = []
    for key, seed, trial_index in data["cells"]:
        spec = specs[key]
        cells.append(_Cell(
            spec_key=key, condition=spec.condition, system=spec.system,
            task=spec.task, seed=seed, trial_index=trial_index,
            planner_protection=spec.planner_protection,
            controller_protection=spec.controller_protection,
            params=spec.params_json(), fleet=spec.fleet))
    return ClaimedTask(task_id=data["task_id"], plan_name=data["plan"],
                       cells=cells, document=data)


@dataclass
class EnqueueReport:
    """What :meth:`WorkQueue.enqueue` did for one plan."""

    plan_name: str
    new_tasks: int
    skipped_tasks: int  # task id already queued / leased / done
    satisfied_tasks: int  # every cell already present in the supplied table
    enqueued_cells: int


class WorkQueue:
    """File-backed work queue on a shared filesystem.

    Layout under ``root`` (all files are JSON; formats in
    ``docs/runtable-schema.md``)::

        plans/<name>.json        one plan per campaign name
        tasks/<task_id>.json     pending cell batches (claim = rename away)
        leases/<task_id>.json    claimed batches; mtime is the heartbeat
        leases/<task_id>.owner.json   who claimed it (informational)
        done/<task_id>.json      completed batches (audit trail)
        failed/<task_id>.json    batches whose execution raised
        results/<worker_id>/<name>.csv           streamed worker run tables
        results/<worker_id>/profiles/<name>.csv  worker profile sidecars

    Every state transition is a single atomic ``os.rename`` on one file, so
    any number of workers (and planners re-enqueueing) can operate on the
    queue concurrently without locks: at most one rename of a given source
    succeeds, the losers see ``FileNotFoundError`` and move on.  Only the
    streamed-row writers, which one instance keeps open per (worker, plan)
    until :meth:`close`, take a lock.
    """

    #: Transport label stamped into the ``queue_backend`` profile column of
    #: rows executed against this queue (``http`` for the service client).
    backend = "file"

    def __init__(self, root: str | Path, lease_ttl: float = 120.0):
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        self.root = Path(root)
        self.lease_ttl = lease_ttl
        # Last lease mtime this *instance* observed (claim and reclaim scans).
        # A lease whose mtime advanced since the previous observation is being
        # heartbeaten right now, even when the absolute mtime lags wall-clock
        # (worker clock skew) — reclaiming it would steal live work.
        self._observed_mtimes: dict[str, float] = {}
        # Sorted pending task names, maintained across claims so a deep
        # queue is not re-listed and re-sorted on every claim (the O(n)
        # scan dominates claim latency under the HTTP service).  May go
        # stale when other processes touch the queue: stale names drop out
        # when their rename fails, and an exhausted cache forces a rescan,
        # so correctness never depends on it.
        self._pending_cache: list[str] | None = None
        self._cache_lock = threading.Lock()
        self._writers: dict[tuple[str, str], tuple[RunTableWriter, ...]] = {}
        self._writers_lock = threading.Lock()
        #: Rows this instance appended through :meth:`write_rows`.
        self.rows_written = 0
        self.plans_dir = self.root / "plans"
        self.tasks_dir = self.root / "tasks"
        self.leases_dir = self.root / "leases"
        self.done_dir = self.root / "done"
        self.failed_dir = self.root / "failed"
        self.results_dir = self.root / "results"
        for directory in (self.plans_dir, self.tasks_dir, self.leases_dir,
                          self.done_dir, self.failed_dir, self.results_dir):
            directory.mkdir(parents=True, exist_ok=True)

    # -- planner side --------------------------------------------------
    def _task_batch(self, total_cells: int, batch: int | None) -> int:
        """Cells per task file: explicit, else :func:`_auto_batch` planned
        for four workers (~16+ tasks), since a queue cannot know its fleet."""
        if batch is not None:
            if batch < 1:
                raise ValueError("batch must be >= 1")
            return batch
        return _auto_batch(total_cells, jobs=4)

    def enqueue(self, plan: CampaignPlan, batch: int | None = None,
                table: RunTable | None = None) -> EnqueueReport:
        """Publish a plan's cell grid as task files; idempotent.

        Tasks are cut like pool chunks (``_chunk_cells``): at most
        ``batch`` cells, never straddling two specs, so each task stays one
        vectorizable group.  Task ids are deterministic
        (``<plan_hash[:8]>-s<batch size>-<chunk index>``), so re-enqueueing
        the same plan with the same batch size skips every task that is
        already pending, leased, or done — a planner crash or a repeated
        ``--queue`` invocation never duplicates work.  The size is part of
        the id because the same index covers *different cells* under a
        different size (or under the flat slicing of older versions, which
        tagged ids ``-b<size>``): re-enqueueing an interrupted queue with a
        new ``batch`` therefore publishes fresh (possibly overlapping) tasks
        — duplicated cells merge away, whereas colliding ids would silently
        drop cells.  Passing ``table`` (e.g. a previously merged result)
        additionally skips tasks whose cells are all present, which is how
        a grown campaign enqueues only its new cells.

        Specs must name system keys every worker can rebuild: unknown keys
        are rejected here, and keys added via ``register_system`` only work
        for workers sharing (or forked from) the registering process.
        """
        from ..agents.registry import SYSTEM_FACTORIES

        unknown = sorted({spec.system for spec in plan.specs}
                         - set(SYSTEM_FACTORIES))
        if unknown:
            raise ValueError(
                f"plan {plan.name!r} references system keys not in the "
                f"registry: {', '.join(unknown)}; workers could never "
                "rebuild them (see repro.agents.registry)")

        plan_hash = plan.plan_hash()
        existing = self.plans_dir / f"{plan.name}.json"
        if existing.exists():
            stored = CampaignPlan.load(existing)
            if stored.plan_hash() != plan_hash:
                raise ValueError(
                    f"queue already holds a different plan named "
                    f"{plan.name!r} (hash {stored.plan_hash()} vs "
                    f"{plan_hash}); drain or clear the queue before "
                    "enqueueing a changed campaign under the same name")
        else:
            plan.save(self.plans_dir)

        cells = plan.cells()
        size = self._task_batch(len(cells), batch)
        prefix = f"{plan_hash[:8]}-s{size}"
        report = EnqueueReport(plan_name=plan.name, new_tasks=0,
                               skipped_tasks=0, satisfied_tasks=0,
                               enqueued_cells=0)
        spec_dicts = {spec.key(): spec_to_dict(spec) for spec in plan.specs}
        for index, chunk in enumerate(_chunk_cells(cells, size)):
            task_id = f"{prefix}-{index:05d}"
            if any((directory / f"{task_id}.json").exists()
                   for directory in (self.tasks_dir, self.leases_dir,
                                     self.done_dir, self.failed_dir)):
                report.skipped_tasks += 1
                continue
            if table is not None and all(table.has(c.spec_key, c.seed)
                                         for c in chunk):
                report.satisfied_tasks += 1
                continue
            key = chunk[0].spec_key
            _atomic_write_json(self.tasks_dir / f"{task_id}.json", {
                "format": TASK_FORMAT,
                "plan": plan.name,
                "plan_hash": plan_hash,
                "task_id": task_id,
                "specs": {key: spec_dicts[key]},
                "cells": [[c.spec_key, c.seed, c.trial_index] for c in chunk],
            })
            report.new_tasks += 1
            report.enqueued_cells += len(chunk)
        if report.new_tasks:
            self._invalidate_pending()
        return report

    # -- worker side ---------------------------------------------------
    def _plan_prefixes(self) -> dict[str, str]:
        """task-id prefix (``plan_hash[:8]``) -> plan name, for every plan."""
        return {plan.plan_hash()[:8]: plan.name for plan in self.plans()}

    def pending_by_plan(self) -> dict[str, int]:
        """Pending task count per plan name (the work-stealing depth signal)."""
        prefixes = self._plan_prefixes()
        counts = {name: 0 for name in prefixes.values()}
        for task_id in self.pending_ids():
            name = prefixes.get(task_id.split("-", 1)[0])
            if name is not None:
                counts[name] += 1
        return counts

    def claim(self, worker_id: str = "",
              prefer_plan: str | None = None) -> ClaimedTask | None:
        """Atomically claim one pending task, or return None.

        The claim is the rename into ``leases/``: losing a race surfaces as
        ``FileNotFoundError`` and the next candidate is tried.  The lease
        file's mtime starts the heartbeat clock; an ``.owner.json`` sidecar
        records who claimed it (purely informational — ownership is the lease
        file itself).

        ``prefer_plan`` implements work stealing across co-queued campaigns:
        tasks of the named plan are tried first, and once that plan is
        drained the remaining candidates are tried deepest-backlog-first, so
        an idle worker steals from the plan with the most pending work.
        """
        with self._cache_lock:
            candidates = self._pending_cache
            fresh = not candidates
            if fresh:
                candidates = self._scan_pending()
            while True:
                task = self._claim_from(candidates, worker_id, prefer_plan)
                if task is not None:
                    return task
                if fresh:
                    return None
                # Every cached name was stale (claimed elsewhere or the
                # queue was cleared behind us): rescan the directory once.
                candidates = self._scan_pending()
                fresh = True

    def _scan_pending(self) -> list[str]:
        """(Re)build the pending-name cache from the tasks directory.

        listdir + plain-string sort, not ``sorted(glob())``: claim runs
        once per task per worker, and on a deep queue sorting Path objects
        (and glob's per-entry fnmatch) costs ~2ms per call — an order of
        magnitude more than the rename itself.  Name order and path order
        are the same order.
        """
        self._pending_cache = sorted(name
                                     for name in os.listdir(self.tasks_dir)
                                     if name.endswith(".json"))
        return self._pending_cache

    def _invalidate_pending(self) -> None:
        """Drop the pending-name cache (new or re-queued tasks appeared)."""
        with self._cache_lock:
            self._pending_cache = None

    def _claim_from(self, candidates: list[str], worker_id: str,
                    prefer_plan: str | None) -> ClaimedTask | None:
        """Try candidates in claim order; prune tried names from the cache."""
        order = candidates
        if prefer_plan is not None and candidates:
            prefixes = self._plan_prefixes()
            depth: dict[str | None, int] = {}
            names = {}
            for filename in candidates:
                name = prefixes.get(filename.split("-", 1)[0])
                names[filename] = name
                depth[name] = depth.get(name, 0) + 1
            order = sorted(candidates, key=lambda filename: (
                names[filename] != prefer_plan, -depth[names[filename]],
                filename))
        for filename in list(order):
            candidate = self.tasks_dir / filename
            lease = self.leases_dir / filename
            try:
                # Freshen the mtime BEFORE the rename makes the lease visible
                # to reclaimers: a task file keeps its enqueue-time mtime, so
                # claiming it later than one TTL after enqueue would otherwise
                # publish an already-"expired" lease that a concurrent
                # reclaim_expired could snatch back mid-claim.
                os.utime(candidate)
                os.rename(candidate, lease)
            except FileNotFoundError:
                candidates.remove(filename)  # no longer pending; forget it
                continue
            candidates.remove(filename)
            try:
                task = task_from_dict(json.loads(lease.read_text()))
            except FileNotFoundError:
                continue  # reclaimed in a razor-thin race; no longer ours
            _atomic_write_json(lease.with_suffix(".owner.json"), {
                "worker": worker_id, "host": socket.gethostname(),
                "pid": os.getpid(), "claimed_at": time.time()})
            try:
                self._observed_mtimes[lease.name] = lease.stat().st_mtime
            except FileNotFoundError:
                pass
            return task
        return None

    def _lease(self, task_id: str) -> Path:
        return self.leases_dir / f"{_plain_name(task_id, 'task id')}.json"

    def heartbeat(self, task_ids: Iterable[str]) -> list[str]:
        """Refresh lease mtimes; returns the ids renewed.  A vanished lease
        (reclaimed) is skipped — the worker discovers the loss when
        :meth:`complete` returns False."""
        renewed = []
        for task_id in task_ids:
            try:
                os.utime(self._lease(task_id))
            except FileNotFoundError:
                continue
            renewed.append(task_id)
        return renewed

    def complete(self, task_id: str) -> bool:
        """Move a finished task to ``done/``.

        Returns False when the lease no longer exists — it expired and was
        reclaimed while this worker was (slowly) executing.  The worker's
        rows are still valid (cells are deterministic; the reclaimer's
        duplicates merge away), so this is informational, not an error.
        """
        return self._settle(task_id, self.done_dir)

    def fail(self, task_id: str) -> None:
        """Park a task whose execution raised (it will not be retried)."""
        self._settle(task_id, self.failed_dir)

    def _settle(self, task_id: str, directory: Path) -> bool:
        lease = self._lease(task_id)
        try:
            os.rename(lease, directory / lease.name)
        except FileNotFoundError:
            return False
        lease.with_suffix(".owner.json").unlink(missing_ok=True)
        self._observed_mtimes.pop(lease.name, None)
        return True

    def reclaim_expired(self, now: float | None = None) -> list[str]:
        """Re-queue every lease whose heartbeat is older than the TTL.

        Any process may call this (workers do, each loop iteration); the
        rename back into ``tasks/`` is atomic, so concurrent reclaimers
        cannot duplicate a task.

        Absolute age is not the whole story: a worker whose clock lags
        wall-clock heartbeats mtimes that *look* expired to everyone else.
        A lease whose mtime **advanced** since this instance last observed
        it is therefore treated as live regardless of age — heartbeats only
        ever move the mtime forward, so forward motion proves a beating
        worker.  A frozen (or rewound) mtime older than the TTL is
        reclaimed exactly as before.  The guard is per-instance memory: a
        freshly started reclaimer falls back to pure absolute age until its
        first scan of each lease.
        """
        now = time.time() if now is None else now
        reclaimed = []
        observed = self._observed_mtimes
        for lease in self.leases_dir.glob("*.json"):
            if lease.name.endswith(".owner.json"):
                continue
            try:
                mtime = lease.stat().st_mtime
            except FileNotFoundError:
                continue
            last = observed.get(lease.name)
            observed[lease.name] = mtime
            if now - mtime <= self.lease_ttl:
                continue
            if last is not None and mtime > last:
                continue  # heartbeat advanced since last scan: live, skewed
            try:
                os.rename(lease, self.tasks_dir / lease.name)
            except FileNotFoundError:
                continue  # completed or reclaimed by someone else just now
            lease.with_suffix(".owner.json").unlink(missing_ok=True)
            observed.pop(lease.name, None)
            reclaimed.append(lease.stem)
        if reclaimed:
            self._invalidate_pending()  # the re-queued tasks are pending again
        return reclaimed

    # -- introspection -------------------------------------------------
    def _ids(self, directory: Path) -> list[str]:
        return sorted(p.stem for p in directory.glob("*.json")
                      if not p.name.endswith(".owner.json"))

    def pending_ids(self) -> list[str]:
        return self._ids(self.tasks_dir)

    def lease_ids(self) -> list[str]:
        return self._ids(self.leases_dir)

    def done_ids(self) -> list[str]:
        return self._ids(self.done_dir)

    def failed_ids(self) -> list[str]:
        return self._ids(self.failed_dir)

    def plans(self) -> list[CampaignPlan]:
        return [CampaignPlan.load(path)
                for path in sorted(self.plans_dir.glob("*.json"))]

    def counts(self) -> dict[str, int]:
        return {"pending": len(self.pending_ids()),
                "leased": len(self.lease_ids()),
                "done": len(self.done_ids()),
                "failed": len(self.failed_ids())}

    def result_dir(self, worker_id: str) -> Path:
        safe = "".join(c if c.isalnum() or c in "-_." else "-" for c in worker_id)
        return self.results_dir / safe

    def write_rows(self, worker_id: str, plan_name: str,
                   records: Iterable[RunRecord]) -> int:
        """Append a worker's rows of one plan; returns how many.

        Rows land in ``results/<worker_id>/`` through a writer pair kept open
        per (worker, plan), one flush per row: the profile sidecar first
        (same crash-ordering argument as the campaign engine: a cell with a
        canonical row but no profile row would stay unprofiled forever; the
        reverse self-heals), then the canonical table.  A plan the queue does
        not hold is a ValueError.  One lock serializes every writer, so the
        campaign service's request threads may call this concurrently.
        """
        records = list(records)
        with self._writers_lock:
            writers = self._writers.get((worker_id, plan_name))
            if writers is None:
                _plain_name(plan_name, "plan name")
                if not (self.plans_dir / f"{plan_name}.json").exists():
                    raise ValueError(f"the queue holds no plan {plan_name!r}")
                out = self.result_dir(worker_id)
                writers = (RunTableWriter(out / "profiles" / f"{plan_name}.csv",
                                          profile=True),
                           RunTableWriter(out / f"{plan_name}.csv"))
                self._writers[worker_id, plan_name] = writers
            for record in records:
                for writer in writers:
                    writer.write(record)
            self.rows_written += len(records)
        return len(records)

    def close(self) -> None:
        """Close the streamed-row writers; a later :meth:`write_rows`
        reopens them, appending."""
        with self._writers_lock:
            for writers in self._writers.values():
                for writer in writers:
                    writer.close()
            self._writers.clear()


# ----------------------------------------------------------------------
# Worker daemon
# ----------------------------------------------------------------------
@dataclass
class WorkerStats:
    """What one :meth:`WorkerDaemon.run` invocation did."""

    worker_id: str
    tasks_completed: int = 0
    tasks_lost: int = 0  # finished after the lease was reclaimed
    tasks_stolen: int = 0  # claimed from outside this worker's plan affinity
    cells_executed: int = 0
    leases_reclaimed: int = 0  # expired leases this worker re-queued
    rows_by_plan: dict[str, int] = field(default_factory=dict)
    wall_time_s: float = 0.0

    def format(self) -> str:
        lines = [f"worker {self.worker_id}: {self.tasks_completed} tasks, "
                 f"{self.cells_executed} cells in {self.wall_time_s:.2f} s"
                 + (f"; re-queued {self.leases_reclaimed} expired leases"
                    if self.leases_reclaimed else "")
                 + (f"; {self.tasks_lost} tasks finished after lease loss"
                    if self.tasks_lost else "")
                 + (f"; stole {self.tasks_stolen} tasks from other plans"
                    if self.tasks_stolen else "")]
        for plan, rows in sorted(self.rows_by_plan.items()):
            lines.append(f"  {plan}: {rows} rows streamed")
        return "\n".join(lines)


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


class WorkerDaemon:
    """Pull-execute-stream loop over a :class:`WorkQueue`.

    Parameters
    ----------
    queue:
        The queue, its root directory, or a
        :class:`~repro.eval.service.QueueClient`; both backends offer the
        same task-id interface.
    jobs:
        Leases held at once.  Each claimed task runs as one chunk on the
        campaign engine's :class:`~repro.eval.campaign.CellPool`: in
        process with ``1``, on a process pool of ``jobs`` children
        otherwise.  Either way a keeper thread heartbeats every held lease
        each ``heartbeat_interval`` seconds, however long its chunk runs.
    wait:
        When the queue has no claimable task: ``False`` (default) exits as
        soon as this worker holds nothing — even if other workers' leases
        are still outstanding; ``True`` keeps polling (and reclaiming
        expired leases) until *every* task is done or failed, which is what
        lets a surviving worker finish a SIGKILL'd sibling's cells.
    max_tasks:
        Stop claiming after this many tasks (in-flight work still
        completes); ``None`` is unlimited.
    plan_affinity:
        Prefer tasks of this plan; once it drains, steal from the deepest
        co-queued plan (``WorkQueue.claim``'s ``prefer_plan`` ordering).
        Stolen tasks are counted in :attr:`WorkerStats.tasks_stolen`.
    retry_attempts / retry_delay:
        Transient queue I/O errors (a flaky NFS mount, a briefly
        unreachable campaign service) are retried with exponential backoff
        — ``retry_attempts`` tries starting ``retry_delay`` seconds apart,
        doubling — before the error propagates.
    """

    def __init__(self, queue: WorkQueue | str | Path, jobs: int = 1,
                 worker_id: str | None = None,
                 heartbeat_interval: float | None = None,
                 poll_interval: float = 1.0, wait: bool = False,
                 max_tasks: int | None = None,
                 plan_affinity: str | None = None,
                 retry_attempts: int = 5, retry_delay: float = 0.1,
                 log: Callable[[str], None] | None = None):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if retry_attempts < 1:
            raise ValueError("retry_attempts must be >= 1")
        self.queue = WorkQueue(queue) if isinstance(queue, (str, Path)) \
            else queue
        self.jobs = jobs
        self.worker_id = worker_id or default_worker_id()
        self.heartbeat_interval = (heartbeat_interval
                                   or max(1.0, self.queue.lease_ttl / 4.0))
        self.poll_interval = poll_interval
        self.wait = wait
        self.max_tasks = max_tasks
        self.plan_affinity = plan_affinity
        self.retry_attempts = retry_attempts
        self.retry_delay = retry_delay
        self._log = log or (lambda message: None)
        self._held: set[str] = set()  # task ids whose leases the keeper renews
        self._held_lock = threading.Lock()
        self._shutdown = False

    # ------------------------------------------------------------------
    def request_shutdown(self, signum=None, frame=None) -> None:
        """Finish in-flight work, release leases cleanly, then stop.

        Installed as the SIGTERM handler for the duration of :meth:`run`:
        a terminated worker completes the batches it holds (streaming their
        rows) instead of abandoning leases to TTL reclamation, and exits 0.
        """
        self._shutdown = True

    def _retrying(self, operation: Callable, *args):
        """Run a queue operation, retrying transient I/O errors with backoff.

        Protocol-meaningful outcomes (losing a claim race, a reclaimed
        lease) are handled *inside* the queue methods; what reaches here is
        infrastructure failure — which for both the file backend (OSError)
        and the HTTP backend (URLError is an OSError) shares one type.
        """
        delay = self.retry_delay
        for attempt in range(self.retry_attempts):
            try:
                return operation(*args)
            except OSError as error:
                if attempt == self.retry_attempts - 1:
                    raise
                self._log(f"queue I/O error ({error}); retrying in "
                          f"{delay:.1f}s ({attempt + 1}/{self.retry_attempts})")
                time.sleep(delay)
                delay *= 2

    def _finish(self, task: ClaimedTask, records, stats: WorkerStats) -> None:
        """Write a finished task's rows, then move its lease to done (or
        note it was lost).

        The rows are one queue call, durable before the task settles into
        done/.  A retry after a partial write only appends byte-identical
        duplicates, which the merge drops as it does a reclaimed lease's."""
        records = [replace(record, queue_backend=self.queue.backend)
                   for record in records]
        self._retrying(self.queue.write_rows, self.worker_id,
                       task.plan_name, records)
        stats.cells_executed += len(records)
        stats.rows_by_plan[task.plan_name] = (
            stats.rows_by_plan.get(task.plan_name, 0) + len(records))
        with self._held_lock:
            self._held.discard(task.task_id)
        if self._retrying(self.queue.complete, task.task_id):
            stats.tasks_completed += 1
            self._log(f"task {task.task_id}: {len(task.cells)} cells done")
        else:
            stats.tasks_lost += 1
            self._log(f"task {task.task_id}: finished after lease "
                      "reclamation; rows kept (duplicates merge away)")

    def _claim(self, stats: WorkerStats) -> ClaimedTask | None:
        """Claim one task and hold its lease; None when nothing is claimable."""
        task = self._retrying(self.queue.claim, self.worker_id,
                              self.plan_affinity)
        if task is None:
            return None
        stolen = (self.plan_affinity is not None
                  and task.plan_name != self.plan_affinity)
        if stolen:
            stats.tasks_stolen += 1
        self._log(f"task {task.task_id}: claimed ({len(task.cells)} cells, "
                  f"plan {task.plan_name}"
                  + (", stolen from deepest queue)" if stolen else ")"))
        with self._held_lock:
            self._held.add(task.task_id)
        return task

    def _park(self, task: ClaimedTask) -> None:
        """Move a task whose chunk raised into failed/, so a deterministically
        crashing task is not reclaimed and retried by (and then crashes)
        every other worker in the fleet."""
        with self._held_lock:
            self._held.discard(task.task_id)
        self.queue.fail(task.task_id)

    @contextlib.contextmanager
    def _lease_keeper(self):
        """Heartbeat every held lease each ``heartbeat_interval`` seconds
        from a small thread, however long the chunk holding it runs."""
        stop = threading.Event()

        def keep() -> None:
            while not stop.wait(self.heartbeat_interval):
                with self._held_lock:
                    held = tuple(self._held)
                try:
                    if held:
                        self._retrying(self.queue.heartbeat, held)
                except Exception as error:  # the next beat retries
                    self._log(f"heartbeat failed: {error!r}")

        keeper = threading.Thread(target=keep, daemon=True,
                                  name=f"lease-keeper-{self.worker_id}")
        keeper.start()
        try:
            yield
        finally:
            stop.set()
            keeper.join()

    # ------------------------------------------------------------------
    def run(self) -> WorkerStats:
        """Drain the queue; returns once there is nothing left to do."""
        import signal

        stats = WorkerStats(worker_id=self.worker_id)
        started = time.perf_counter()
        claimed = 0
        previous_handler = None
        in_main_thread = threading.current_thread() is threading.main_thread()
        if in_main_thread:
            previous_handler = signal.signal(signal.SIGTERM,
                                             self.request_shutdown)
        self._log(f"worker {self.worker_id} starting on {self.queue.root} "
                  f"(jobs={self.jobs}, lease_ttl={self.queue.lease_ttl:g}s)")

        try:
            with self._lease_keeper(), CellPool(self.jobs) as pool:
                while True:
                    stats.leases_reclaimed += len(
                        self._retrying(self.queue.reclaim_expired))
                    while (not self._shutdown
                           and pool.inflight < self.jobs
                           and (self.max_tasks is None
                                or claimed < self.max_tasks)
                           and (task := self._claim(stats)) is not None):
                        claimed += 1
                        pool.submit(task, task.cells)
                    capped = (self.max_tasks is not None
                              and claimed >= self.max_tasks)
                    if pool.inflight:
                        pool.harvest(lambda task, records: self._finish(
                            task, records, stats), self._park)
                        if pool.inflight or not capped:
                            continue
                    if self._shutdown:
                        self._log(f"worker {self.worker_id}: shutdown "
                                  "requested; in-flight work settled, "
                                  "exiting cleanly")
                        break
                    if capped:
                        break  # max_tasks claimed and settled
                    if self.queue.pending_ids():
                        continue  # lost a claim race; try again immediately
                    if not self.queue.lease_ids():
                        break  # fully drained
                    if not self.wait:
                        break  # others still hold leases; not our problem
                    time.sleep(self.poll_interval)
        finally:
            if in_main_thread:
                signal.signal(signal.SIGTERM, previous_handler)
            self._held.clear()
            # Row writers (file) or keep-alive sockets (HTTP).
            self.queue.close()
        stats.wall_time_s = time.perf_counter() - started
        self._log(stats.format())
        return stats


# ----------------------------------------------------------------------
# Merge
# ----------------------------------------------------------------------
@dataclass
class MergedTable:
    """One campaign's merge outcome (see :func:`merge_run_tables`)."""

    name: str
    rows: int
    sources: int
    missing_cells: int  # > 0 when a plan is known and the union is short
    csv_path: Path
    json_path: Path


def _discover_tables(directories: Sequence[Path]) -> dict[str, list[Path]]:
    """Campaign name -> run-table CSVs found under the given directories.

    Scans recursively so queue layouts (``results/<worker>/<name>.csv``),
    shard output dirs (``<dir>/<name>.csv``), and nested paper-sweep dirs
    all work; ``profiles/`` sidecars are excluded (machine-dependent
    columns must never leak into a canonical merge).
    """
    groups: dict[str, list[Path]] = {}
    for directory in directories:
        for path in sorted(directory.rglob("*.csv")):
            if "profiles" in path.parts[len(directory.parts):]:
                continue
            groups.setdefault(path.stem, []).append(path)
    return groups


def _discover_plans(directories: Sequence[Path]) -> dict[str, CampaignPlan]:
    """Campaign name -> plan, from any ``plans/`` directory underneath.

    Several sources may carry the same plan (every shard saves one); they
    must agree by hash — disagreement means the inputs belong to different
    campaign definitions and a merge would interleave unrelated grids.
    """
    plans: dict[str, CampaignPlan] = {}
    for directory in directories:
        for path in sorted(directory.rglob("plans/*.json")):
            try:
                plan = CampaignPlan.load(path)
            except (ValueError, KeyError, json.JSONDecodeError):
                continue  # unrelated JSON; plan discovery is best-effort
            known = plans.get(plan.name)
            if known is not None and known.plan_hash() != plan.plan_hash():
                raise ValueError(
                    f"inputs carry two different plans named {plan.name!r} "
                    f"(hashes {known.plan_hash()} vs {plan.plan_hash()}); "
                    "these tables come from different campaign definitions "
                    "and must not be merged")
            plans[plan.name] = plan
    return plans


def merge_run_tables(out: str | Path, directories: Sequence[str | Path],
                     overwrite: bool = False) -> list[MergedTable]:
    """Union worker/shard run tables into canonical files under ``out``.

    For every campaign name found, the tables are merged by (spec_key,
    seed) with conflict detection (:meth:`RunTable.merge`), sorted into
    canonical order — plan order when a plan file is found, spec-key order
    otherwise — and written as ``<out>/<name>.csv`` + ``.json``.  With all
    cells present and a plan available, the CSV is byte-identical to the
    table a single-host serial run writes.

    Tables are read crash-tolerantly (``strict=False``): a worker SIGKILL'd
    mid-write leaves a torn final row, which is dropped here exactly as the
    campaign engine drops it on resume (the cell re-ran elsewhere after
    lease reclamation).
    """
    out = Path(out)
    directories = [Path(d) for d in directories]
    for directory in directories:
        if not directory.exists():
            raise FileNotFoundError(f"no such directory: {directory}")
    resolved_out = out.resolve()
    plans = _discover_plans(directories)
    merged_tables: list[MergedTable] = []
    for name, paths in sorted(_discover_tables(directories).items()):
        paths = [p for p in paths if resolved_out not in p.resolve().parents]
        if not paths:
            continue
        merged = RunTable.merge(*(RunTable.read_csv(p, strict=False)
                                  for p in paths), overwrite=overwrite)
        plan = plans.get(name)
        missing = 0
        order = None
        if plan is not None:
            order = plan.spec_order()
            missing = sum(1 for cell in plan.cells()
                          if not merged.has(cell.spec_key, cell.seed))
        merged = merged.sorted(order)
        merged_tables.append(MergedTable(
            name=name, rows=len(merged), sources=len(paths),
            missing_cells=missing,
            csv_path=merged.write_csv(out / f"{name}.csv"),
            json_path=merged.write_json(out / f"{name}.json")))
    return merged_tables
