"""Declarative trial campaigns: parallel, batched, streaming execution with
persistent run tables.

This is the experiment platform behind every trial-loop study in
:mod:`repro.eval.experiments` and :mod:`repro.eval.resilience`.  An experiment
declares its conditions as :class:`TrialSpec` rows — system key, task, base
seed, planner/controller :class:`~repro.core.create.ProtectionConfig` — and a
:class:`CampaignRunner` executes the (spec, seed) cells:

* **deterministically** — every trial is a pure function of (system, task,
  seed, protections), so serial, parallel, and batched execution produce
  bit-identical canonical run tables;
* **in parallel** — cells are distributed over the process pool of a
  :class:`CellPool`; forked workers inherit the systems and kernel plans the
  parent built, copy-on-write, and any other worker rebuilds a system from
  its picklable factory key of :mod:`repro.agents.registry` (deployed
  systems are deliberately never pickled);
* **in batches** — several cells ride in one worker task (``batch=`` knob,
  auto-tuned by default) so very short trials amortize process-pool IPC;
  batching groups cells without reordering or reseeding them — and cuts the
  chunks at system boundaries — so it cannot change results;
* **vectorized** — consecutive cells of one system, whatever their specs,
  execute as the lanes of one
  :meth:`~repro.agents.executor.MissionExecutor.run_trial_group` call (at
  most :data:`_MAX_AUTO_BATCH` lanes), each lane with its own protections;
  the group decodes all its planner prompts and steps all its controllers
  as one stacked GEMM per projection.  A lane group is bit-identical to
  running each cell alone (per-trial RNG streams stay independent); a
  ``fleet > 1`` spec forms its own groups of ``fleet`` lanes, and a lone
  cell is a group of one;
* **streamed to disk** — with an output directory, completed rows are
  appended to ``<out>/<name>.csv`` *as they finish* (flushed per row), so a
  campaign killed mid-flight leaves a crash-safe partial table behind;
* **incrementally** — re-runs load the persisted table (tolerating a torn
  final row from a crash) and only execute the missing (spec, seed) cells.

Each executed cell is also timed and attributed to its worker process and
execution path; the profile lands in the ``wall_time_s`` / ``worker_id`` /
``batch_size`` / ``vector_path`` columns of the in-memory
:class:`~repro.eval.runtable.RunRecord` rows, in the append-only
``<out>/profiles/<name>.csv`` sidecar, and in the
:meth:`CampaignResult.profile` summary.  Profile columns are *excluded* from
the canonical ``<name>.csv`` / ``<name>.json`` files — wall time depends on
machine load, and the canonical files must stay byte-identical across
serial/parallel/batched runs.

A spec names its system by registry key only; a custom system is added
with :func:`~repro.agents.registry.register_system` and then runs like a
built-in one, serially or on a pool.

See ``docs/campaigns.md`` for a walkthrough and ``docs/runtable-schema.md``
for the on-disk format.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import hashlib
import json
import os
import socket
import sys
import time
from dataclasses import dataclass, is_dataclass, asdict, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from ..agents.executor import MissionExecutor
from ..agents.registry import (BUILTIN_SYSTEM_KEYS, SYSTEM_FACTORIES, _require_key,
                               get_system, on_system_eviction, system_keys)
from ..core.create import ProtectionConfig
from ..core.voltage_scaling import VoltageScalingConfig
from .metrics import TrialSummary
from .runtable import (RunRecord, RunTable, RunTableWriter, record_from_trial,
                       summarize_records)
from .shard import Shard

__all__ = ["TrialSpec", "MAX_FLEET_SIZE", "CampaignResult", "CampaignRunner",
           "run_campaign", "run_plans", "CampaignProfile", "ProfileBucket",
           "collect_results", "protection_signature", "slugify",
           "enumerate_cells", "pending_cells", "CellPool"]

#: The lane bound: the largest pool chunk or queue task the engine sizes
#: itself (a batch only reaches the parent — and the disk — whole), and the
#: most lanes of a fleet-1 lane group, so of every group a serial campaign
#: forms.  Serial ``campaign overall --trials 16`` (256 cells of two
#: systems; 2-vCPU x86-64 VM with AVX-512, numpy 2.4 on OpenBLAS 0.3.31,
#: one BLAS thread, median of 3) takes 16.7 s with 16 lanes, 17.1 s with 32
#: and 16.5 s with 64, and 14.9, 14.8 and 16.1 s in a second set, so this
#: host's drift hides any difference in time; the process's peak resident
#: set (VmHWM) reads 52.5, 53.9 and 56.1 MiB.
_MAX_AUTO_BATCH = 32


def _auto_batch(num_cells: int, jobs: int) -> int:
    """Cells per pool task or queue task file when no ``batch`` is given.

    Targets about four batches per worker — enough slack for load balancing
    when cell durations vary — and caps the batch at :data:`_MAX_AUTO_BATCH`
    so results keep streaming to disk at a reasonable cadence.
    """
    return max(1, min(_MAX_AUTO_BATCH, num_cells // (4 * jobs)))


def slugify(text: str) -> str:
    """File-name-safe campaign name derived from a free-form label."""
    cleaned = "".join(c if c.isalnum() or c in "-_." else "-" for c in text.lower())
    while "--" in cleaned:
        cleaned = cleaned.replace("--", "-")
    return cleaned.strip("-") or "campaign"


# ----------------------------------------------------------------------
# Canonical signatures (drive spec keys and resume safety)
# ----------------------------------------------------------------------
def _error_model_signature(model) -> str:
    if model is None:
        return "none"
    from ..faults.models import UniformErrorModel, VoltageErrorModel

    if isinstance(model, UniformErrorModel):
        return f"uniform(ber={model.ber!r})"
    if isinstance(model, VoltageErrorModel):
        return f"voltage(v={model.voltage!r})"
    if is_dataclass(model):
        return f"{type(model).__name__}({sorted(asdict(model).items())!r})"
    return f"{type(model).__name__}({model.describe()})"


def _vs_signature(scaling: VoltageScalingConfig | None) -> str:
    if scaling is None:
        return "none"
    policy = scaling.policy
    return (f"{policy.name}[{policy.thresholds!r}->{policy.voltages!r}]"
            f"/every{scaling.update_interval}/{scaling.entropy_source}")


def protection_signature(protection: ProtectionConfig | None) -> str:
    """Canonical, collision-resistant description of a protection config.

    The signature feeds :meth:`TrialSpec.key`, which keys run-table rows: two
    protections with any observable difference (voltage, error model, AD flag,
    VS policy/interval/source, target components, exposure, injector kind)
    must produce different signatures, or resume would silently reuse rows
    from the wrong condition.
    """
    if protection is None:
        return "default"
    return ";".join([
        f"voltage={protection.voltage!r}",
        f"model={_error_model_signature(protection.error_model)}",
        f"ad={protection.anomaly_detection}",
        f"vs={_vs_signature(protection.voltage_scaling)}",
        f"components={protection.target_components!r}",
        f"exposure={protection.exposure_scale!r}",
        f"injector={protection.injector_kind}",
    ])


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------
#: Largest ``TrialSpec.fleet``: agents co-stepped in one lane group.
MAX_FLEET_SIZE = 1000


@dataclass(frozen=True)
class TrialSpec:
    """One experimental condition: which system runs which task, how protected.

    A spec expands into ``num_trials`` run-table cells seeded ``seed`` ..
    ``seed + num_trials - 1``; growing ``num_trials`` on a later run only
    executes the new cells.  ``params`` carries free-form condition labels
    (e.g. ``(("ber", "1e-3"),)``) that are stored verbatim in the run table.

    ``fleet`` is the fleet-runtime axis: each cell still records one agent's
    trial, but cells of a ``fleet > 1`` spec execute in co-stepped lane
    groups of ``fleet`` agents
    (:meth:`~repro.agents.executor.MissionExecutor.run_trial_group`).
    Results are bit-identical either way, so ``fleet`` is an
    execution-shape knob and — like ``num_trials`` — is excluded from
    :meth:`signature` when left at 1, keeping every existing spec key
    stable.
    """

    condition: str
    system: str
    task: str
    num_trials: int
    seed: int = 0
    planner_protection: ProtectionConfig | None = None
    controller_protection: ProtectionConfig | None = None
    params: tuple[tuple[str, str], ...] = ()
    fleet: int = 1

    def __post_init__(self):
        _require_key(self.system)
        if not self.condition:
            raise ValueError("condition label must be non-empty")
        if self.num_trials <= 0:
            raise ValueError("num_trials must be positive")
        if not 1 <= self.fleet <= MAX_FLEET_SIZE:
            raise ValueError(f"fleet size must be in 1..{MAX_FLEET_SIZE}")

    def seeds(self) -> range:
        """The seeds of this spec's cells, one per trial."""
        return range(self.seed, self.seed + self.num_trials)

    def signature(self) -> str:
        """Human-readable identity of the condition (everything but trial count)."""
        return "|".join([
            self.condition, self.system, self.task,
            protection_signature(self.planner_protection),
            protection_signature(self.controller_protection),
            json.dumps(dict(self.params)),
        ])

    def key(self) -> str:
        """Short stable hash of :meth:`signature`; the run table's ``spec_key``."""
        return hashlib.sha1(self.signature().encode()).hexdigest()[:16]

    def params_json(self) -> str:
        return json.dumps(dict(self.params))


# ----------------------------------------------------------------------
# Cell execution (worker side)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Cell:
    """One (spec, seed) unit of work — fully picklable."""

    spec_key: str
    condition: str
    system: str
    task: str
    seed: int
    trial_index: int
    planner_protection: ProtectionConfig | None
    controller_protection: ProtectionConfig | None
    params: str
    fleet: int = 1


def _spec_cells(spec: TrialSpec, key: str | None = None) -> Iterator[_Cell]:
    key = key or spec.key()
    params = spec.params_json()
    for index, seed in enumerate(spec.seeds()):
        yield _Cell(spec_key=key, condition=spec.condition, system=spec.system,
                    task=spec.task, seed=seed, trial_index=index,
                    planner_protection=spec.planner_protection,
                    controller_protection=spec.controller_protection,
                    params=params, fleet=spec.fleet)


def enumerate_cells(specs: Sequence[TrialSpec]) -> list[_Cell]:
    """The full (spec, seed) cell grid of a campaign, in canonical order.

    This is the planner half of the engine's planner/executor split: the
    grid enumeration is a pure function of the specs, so every participant
    of a distributed campaign — the enqueuing planner, each worker daemon,
    each static shard, and the final merge — derives the identical grid
    independently.  :class:`repro.eval.scheduler.CampaignPlan` builds on it.
    """
    return [cell for spec in specs for cell in _spec_cells(spec)]


def pending_cells(specs: Sequence[TrialSpec], table: RunTable) -> list[_Cell]:
    """The cells of the grid not yet present in ``table`` (resume filter)."""
    return [cell for cell in enumerate_cells(specs)
            if not table.has(cell.spec_key, cell.seed)]


def _worker_id() -> str:
    """Globally unique attribution of the executing worker.

    Hostname and pid are included because distributed campaigns (queue
    workers, static shards) run cells on several hosts: the multiprocessing
    process name alone ("ForkProcess-1") collides across hosts and across
    successive pools, which made profile sidecars ambiguous.
    """
    import multiprocessing

    return (f"{socket.gethostname()}-{os.getpid()}-"
            f"{multiprocessing.current_process().name}")


def _run_cell(cell: _Cell, executor: MissionExecutor) -> RunRecord:
    """Execute one cell as a one-lane group: the cell-by-cell reference
    the tests compare every engine path against."""
    return _run_lane_group([cell], executor, vector_path="scalar")[0]


def _chunk_cells(cells: Sequence[_Cell], size: int) -> list[tuple[_Cell, ...]]:
    """Split cells into stacks of at most ``size``, one system each.

    The one chunking policy, for pool tasks and queue task files alike: a
    chunk never straddles two systems, and a ``fleet > 1`` spec's cells
    form chunks of their own, so every chunk is one executor's stack of
    lanes — fleet-1 cells of several specs, or one fleet spec's agents.
    No cell is reordered or reseeded, so the canonical table is unchanged.
    """
    def stack(cell: _Cell) -> tuple[str, str]:
        return cell.system, cell.spec_key if cell.fleet > 1 else ""

    chunks: list[tuple[_Cell, ...]] = []
    run: list[_Cell] = []
    for cell in cells:
        if run and (len(run) >= size or stack(run[0]) != stack(cell)):
            chunks.append(tuple(run))
            run = []
        run.append(cell)
    if run:
        chunks.append(tuple(run))
    return chunks


def _run_lane_group(cells: Sequence[_Cell], executor: MissionExecutor,
                    vector_path: str) -> list[RunRecord]:
    """Run one lane group and stamp its profile attribution.

    Every cell executes here, each as one lane of a
    :meth:`MissionExecutor.run_trial_group` call that carries the cell's
    own protections, so lanes may differ in spec.  ``plan_cache`` is
    queried before the group runs, so the first group over a freshly built
    executor stamps ``miss`` (it pays the plan build) and later groups
    stamp ``hit``.
    """
    plan_cache = executor.plan_cache_state()
    start = time.perf_counter()
    trials = executor.run_trial_group(
        [(cell.task, cell.seed, cell.planner_protection,
          cell.controller_protection) for cell in cells])
    share = (time.perf_counter() - start) / len(cells)
    worker = _worker_id()
    records = []
    for cell, trial in zip(cells, trials):
        record = record_from_trial(trial, spec_key=cell.spec_key,
                                   condition=cell.condition, system=cell.system,
                                   task=cell.task, seed=cell.seed,
                                   trial_index=cell.trial_index, params=cell.params)
        records.append(replace(record, wall_time_s=share, worker_id=worker,
                               batch_size=len(cells), vector_path=vector_path,
                               queue_backend="local", fleet_size=cell.fleet,
                               plan_cache=plan_cache))
    return records


_WORKER_EXECUTORS: dict[str, MissionExecutor] = {}


def _worker_executor(key: str) -> MissionExecutor:
    """This worker's cached executor for a system key (built on first use)."""
    executor = _WORKER_EXECUTORS.get(key)
    if executor is None:
        executor = get_system(key).executor()
        _WORKER_EXECUTORS[key] = executor
    return executor


def _register_eviction_hook() -> None:
    """Tie the worker caches to the registry's system-cache lifetime.

    ``clear_system_cache()`` / ``register_system(..., overwrite=True)`` must
    not leave behind executors built over systems the registry no longer
    serves — a stale executor would keep running trials on the old instance
    in-process.
    """
    @on_system_eviction
    def _evict_worker_state(key: str | None) -> None:
        if key is None:
            _WORKER_EXECUTORS.clear()
        else:
            _WORKER_EXECUTORS.pop(key, None)


_register_eviction_hook()


def _pool_run_batch(cells: tuple[_Cell, ...],
                    sink: Callable[[list[RunRecord]], None] | None = None
                    ) -> list[RunRecord]:
    """The one cell dispatcher: run a chunk of cells in order, return its rows.

    Serial campaigns and ``jobs=1`` queue workers call it in process, and
    :class:`CellPool` children run it as their task function.  The chunk's
    per-system stacks (:func:`_chunk_cells`) are cut into lane groups of
    ``fleet`` lanes for a fleet spec, else of at most
    :data:`_MAX_AUTO_BATCH`, and every group runs through
    :func:`_run_lane_group`, stamped ``scalar`` when it has one lane.
    Every trial is seeded by its own cell, so neither the chunk nor the
    group composition can change results.  ``sink`` receives each lane
    group's rows the moment they exist.
    """
    records: list[RunRecord] = []
    for stack in _chunk_cells(cells, len(cells)):
        executor = _worker_executor(stack[0].system)
        fleet = stack[0].fleet
        width = fleet if fleet > 1 else _MAX_AUTO_BATCH
        for lo in range(0, len(stack), width):
            lanes = stack[lo:lo + width]
            path = ("scalar" if len(lanes) == 1
                    else "fleet" if fleet > 1 else "batched")
            produced = _run_lane_group(lanes, executor, vector_path=path)
            if sink is not None:
                sink(produced)
            records.extend(produced)
    return records


#: ``prctl`` option: signal this process when the thread that forked it exits.
_PR_SET_PDEATHSIG = 1


def _pool_child_init(owner: int) -> None:
    """Pool-child set-up: SIGTERM kills it and it dies with its owner.

    A forked child inherits its owner's signal handlers; under
    :class:`~repro.eval.scheduler.WorkerDaemon`, whose SIGTERM handler only
    requests a graceful shutdown, ``kill`` alone would not stop the child.
    On Linux, ``PR_SET_PDEATHSIG`` has the kernel SIGKILL the child when the
    thread that forked it exits (the pool forks from the thread of its first
    :meth:`CellPool.submit`), a SIGKILLed owner included; the ``getppid``
    re-check covers an owner that died before the call.  The executors a
    forked child inherits stay: they share the owner's kernel plans
    copy-on-write and keep their fault-free plan memo.
    """
    import signal

    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if sys.platform.startswith("linux"):
        import ctypes

        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        prctl.restype = ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    if os.getppid() != owner:
        os._exit(1)


class CellPool:
    """The one owner of chunk execution, for campaigns and queue workers.

    ``jobs == 1`` runs each chunk through :func:`_pool_run_batch` on the
    calling thread, so Ctrl-C stops a trial and trial time stays on that
    thread.  ``jobs > 1`` runs chunks on a process pool, forked where the
    platform allows so children inherit ``register_system`` factories and
    the systems, executors and kernel plans the pool builds before it forks
    (:meth:`_admit`).  One failure policy: after a chunk raises, queued
    chunks are cancelled, running ones finish, every finished chunk is
    handed over, then the error is re-raised.  Pool children take the
    default SIGTERM action and die with the pool's owner
    (:func:`_pool_child_init`).
    """

    def __init__(self, jobs: int, systems: Iterable[str] = ()):
        import multiprocessing

        self.jobs = jobs
        self._running: dict[concurrent.futures.Future, object] = {}
        self._pool = None
        self._forked = False
        if jobs > 1:
            try:
                self._context = multiprocessing.get_context("fork")
            except ValueError:
                self._context = None
            self._admit(set(systems))  # build before the first fork
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=jobs, mp_context=self._context,
                initializer=_pool_child_init, initargs=(os.getpid(),))

    def __enter__(self) -> "CellPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def inflight(self) -> int:
        """Chunks submitted and not yet handed back by :meth:`harvest`."""
        return len(self._running)

    def _admit(self, systems: set[str]) -> None:
        """Build the systems' executors and kernel plans before the fork.

        The pool forks all its children at the first :meth:`submit`; each
        inherits what this process built by then copy-on-write, so no child
        builds a plan or keeps a copy of one.  A child that inherits nothing
        (no ``fork`` start method, or a key first seen after the fork)
        builds the system from its checkpoint and stored calibration maxima.
        A system whose factory raises fails only the chunks that use it."""
        if self._context is None:
            custom = sorted(systems - BUILTIN_SYSTEM_KEYS)
            if custom:
                raise ValueError(
                    "process pools over custom-registered systems need the "
                    "'fork' start method, which this platform lacks; run "
                    "with jobs=1 for: " + ", ".join(custom))
        elif not self._forked:
            for key in sorted(systems):
                executor = _worker_executor(key)
                for model in (executor.planner, executor.controller):
                    if model is not None:
                        model.kernel_plan()

    def submit(self, tag, cells: Sequence[_Cell]) -> None:
        """Run one chunk; ``tag`` comes back with its rows from :meth:`harvest`.

        A chunk that cannot start (its system fails to build) is a failed
        chunk like one that raises midway."""
        cells = tuple(cells)
        future: concurrent.futures.Future = concurrent.futures.Future()
        try:
            if self._pool is None:
                future.set_result(_pool_run_batch(cells))
            else:
                self._admit({cell.system for cell in cells})
                future = self._pool.submit(_pool_run_batch, cells)
                self._forked = True
        except Exception as error:  # an interrupt is not a chunk failure
            future.set_exception(error)
        self._running[future] = tag

    def harvest(self, done: Callable[[object, list[RunRecord]], None],
                failed: Callable[[object], None] | None = None) -> None:
        """Hand each finished chunk to ``done(tag, rows)``, or to
        ``failed(tag)`` if it raised; waits for at least one."""
        ready, _ = concurrent.futures.wait(
            self._running, return_when=concurrent.futures.FIRST_COMPLETED)
        for future in ready:
            error = self._hand_over(future, done, failed)
            if error is not None:
                if self._pool is not None:
                    self._pool.shutdown(wait=True, cancel_futures=True)
                for other in [f for f in self._running if not f.cancelled()]:
                    self._hand_over(other, done, failed)
                self._running.clear()
                raise error

    def _hand_over(self, future, done, failed) -> BaseException | None:
        tag = self._running.pop(future)
        try:
            records = future.result()
        except BaseException as error:
            if failed is not None:
                failed(tag)
            return error
        done(tag, records)
        return None

    def close(self) -> None:
        """Shut the pool down, cancelling queued chunks."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)


# ----------------------------------------------------------------------
# Profiling
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProfileBucket:
    """Aggregate of the cells attributed to one worker or condition."""

    cells: int
    wall_time_s: float


@dataclass(frozen=True)
class CampaignProfile:
    """Execution profile of one campaign run (only the cells it executed).

    Rows loaded from a resumed table carry no timing (``wall_time_s`` is NaN)
    and count as ``cached_trials``; everything else aggregates the freshly
    executed cells recorded in the run table's profile columns.
    """

    executed_trials: int
    cached_trials: int
    total_wall_time_s: float
    mean_cell_wall_time_s: float
    max_cell_wall_time_s: float
    per_worker: dict[str, ProfileBucket]
    per_condition: dict[str, ProfileBucket]

    def format(self) -> str:
        """Multi-line human-readable summary (used by the CLI)."""
        lines = [f"executed {self.executed_trials} cells "
                 f"({self.cached_trials} cached) in "
                 f"{self.total_wall_time_s:.2f} s of worker time; "
                 f"mean {self.mean_cell_wall_time_s:.3f} s/cell, "
                 f"max {self.max_cell_wall_time_s:.3f} s"]
        for worker in sorted(self.per_worker):
            bucket = self.per_worker[worker]
            lines.append(f"  {worker}: {bucket.cells} cells, "
                         f"{bucket.wall_time_s:.2f} s")
        return "\n".join(lines)


def _profile_records(records: Sequence[RunRecord]) -> CampaignProfile:
    executed = [r for r in records if r.profiled()]
    times = [r.wall_time_s for r in executed]
    per_worker: dict[str, list[float]] = {}
    per_condition: dict[str, list[float]] = {}
    for record in executed:
        per_worker.setdefault(record.worker_id, []).append(record.wall_time_s)
        per_condition.setdefault(record.condition, []).append(record.wall_time_s)
    bucket = lambda values: ProfileBucket(cells=len(values),
                                          wall_time_s=float(sum(values)))
    return CampaignProfile(
        executed_trials=len(executed),
        cached_trials=len(records) - len(executed),
        total_wall_time_s=float(sum(times)),
        mean_cell_wall_time_s=float(sum(times) / len(times)) if times else 0.0,
        max_cell_wall_time_s=float(max(times)) if times else 0.0,
        per_worker={k: bucket(v) for k, v in per_worker.items()},
        per_condition={k: bucket(v) for k, v in per_condition.items()},
    )


# ----------------------------------------------------------------------
# Result collection (for scripts that chain experiments)
# ----------------------------------------------------------------------
_RESULT_SINKS: list[list["CampaignResult"]] = []


@contextlib.contextmanager
def collect_results() -> Iterator[list["CampaignResult"]]:
    """Collect every :class:`CampaignResult` produced inside the block.

    Experiment helpers return figure-level aggregates and drop the underlying
    :class:`CampaignResult`; scripts looping over experiments (and the
    benchmark harness) use this to observe how many cells actually
    executed::

        with collect_results() as results:
            experiments.interval_sweep("jarvis", "wooden", out=out)
        executed = sum(r.executed_trials for r in results)

    Nesting is allowed; each active block receives every result.
    """
    sink: list[CampaignResult] = []
    _RESULT_SINKS.append(sink)
    try:
        yield sink
    finally:
        # Remove by identity: equality would match any other empty sink list
        # (e.g. an enclosing nested block) and detach the wrong one.
        _RESULT_SINKS[:] = [s for s in _RESULT_SINKS if s is not sink]


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
@dataclass
class CampaignResult:
    """Run table plus the specs that produced it.

    ``executed_trials`` counts the cells executed by *this* run (resumed
    cells are excluded); ``csv_path``/``json_path`` point at the canonical
    persisted table when the campaign ran with an output directory.  A
    shard run's table holds only the rows that shard holds, so its
    conditions summarize only once the shard tables are merged.
    """

    specs: list[TrialSpec]
    table: RunTable
    executed_trials: int
    csv_path: Path | None = None
    json_path: Path | None = None
    profile_path: Path | None = None

    def _spec(self, condition: str) -> TrialSpec:
        for spec in self.specs:
            if spec.condition == condition:
                return spec
        raise KeyError(f"unknown condition {condition!r}")

    def records(self, condition: str) -> list[RunRecord]:
        """This condition's rows, one per seed, in trial order."""
        spec = self._spec(condition)
        key = spec.key()
        records = []
        for seed in spec.seeds():
            record = self.table.get(key, seed)
            if record is None:
                raise KeyError(f"run table is missing ({condition!r}, seed={seed})")
            records.append(record)
        return records

    def summary(self, condition: str) -> TrialSummary:
        """Aggregate one condition's rows into a :class:`TrialSummary`."""
        return summarize_records(self.records(condition))

    def summaries(self) -> dict[str, TrialSummary]:
        """Condition label -> :class:`TrialSummary`, in spec order."""
        return {spec.condition: self.summary(spec.condition) for spec in self.specs}

    def grouped(self, by: tuple[str, ...] = ("condition",),
                confidence: float = 0.95):
        """Grouped statistics with confidence intervals over this table.

        Delegates to :func:`repro.eval.analysis.group_records`, so the axes
        can be record fields *or* spec ``params`` labels (``ber``,
        ``policy``, ...) — the same grouping the publication pack uses.
        """
        from .analysis import group_records

        return group_records(self.table, by=by, confidence=confidence)

    def profile(self) -> CampaignProfile:
        """Execution profile of this run (wall time per cell/worker/condition).

        Only cells executed by this run carry timing; cells loaded from a
        resumed table appear as ``cached_trials``.
        """
        return _profile_records(list(self.table))


class CampaignRunner:
    """Executes trial specs serially or across a process pool, with resume.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` runs in-process, ``> 1`` on a
        :class:`CellPool`; either way every spec names a system key of
        :mod:`repro.agents.registry`, and an unknown key fails before any
        cell runs or any run-table file is opened.
    out:
        Directory for the persistent run table (``<out>/<name>.csv`` and
        ``.json``, plus the ``profiles/<name>.csv`` execution log).  ``None``
        keeps the campaign in memory.  While the campaign runs, completed
        rows are appended to the CSV and flushed immediately; on completion
        the file is rewritten in canonical (spec order, then seed) order.
    resume:
        When true (default) and ``out`` holds a table, completed
        (spec, seed) cells are loaded instead of re-executed.  A truncated
        final row (campaign killed mid-write) is dropped and re-executed.
        ``resume=False`` means "discard and re-measure": any existing table
        files for ``name`` are deleted *before* execution starts, so the
        old results are gone even if the re-run is interrupted early.
    batch:
        Cells per worker task when running in parallel.  ``None`` (default)
        auto-tunes to roughly four batches per worker, capped at
        ``32`` cells; ``1`` restores one-cell-per-task dispatch.  Batching
        never reorders or reseeds cells — and chunks are cut at system
        boundaries and around each fleet spec, so each worker task is one
        executor's stack of lane groups — so any value produces the same
        canonical table byte for byte.
    shard:
        Execute only this static slice of the cell grid (see
        :mod:`repro.eval.shard`); ``None`` (default) runs everything.  The
        returned table holds only the rows the shard holds, and a plan file
        is saved under ``<out>/plans/`` so ``repro-create merge`` can
        restore the canonical row order across shard tables.
    """

    def __init__(self, jobs: int = 1, out: str | Path | None = None,
                 resume: bool = True, batch: int | None = None,
                 shard: Shard | None = None):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if batch is not None and batch < 1:
            raise ValueError("batch must be >= 1 (or None to auto-tune)")
        self.jobs = jobs
        self.out = Path(out) if out is not None else None
        self.resume = resume
        self.batch = batch
        self.shard = shard

    # ------------------------------------------------------------------
    def _batch_size(self, num_cells: int) -> int:
        """Cells per worker task: explicit ``batch=``, else :func:`_auto_batch`."""
        if self.batch is not None:
            return self.batch
        return _auto_batch(num_cells, self.jobs)

    def _execute(self, cells: list[_Cell],
                 sink: Callable[[list[RunRecord]], None]) -> None:
        """Run the pending cells, handing their rows to ``sink``: serially
        as one chunk on this thread, else as :meth:`_batch_size`-capped,
        system-aligned chunks on a :class:`CellPool`, in completion order."""
        if self.jobs == 1:
            _pool_run_batch(tuple(cells), sink=sink)
            return
        with CellPool(self.jobs, {cell.system for cell in cells}) as pool:
            for chunk in _chunk_cells(cells, self._batch_size(len(cells))):
                pool.submit(chunk, chunk)
            while pool.inflight:
                pool.harvest(lambda chunk, records: sink(records))

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[TrialSpec], name: str = "campaign") -> CampaignResult:
        """Execute the missing cells of ``specs`` and return the full table.

        The campaign's canonical files are ``<out>/<name>.csv`` (source of
        truth for resume) and ``<out>/<name>.json`` (strict-JSON mirror);
        both are rewritten in canonical order on completion.  During the run
        the CSV receives completed rows in completion order — the file grows
        while the campaign executes, and an interrupted run resumes from it.
        With a ``shard`` it executes and persists only the shard's cells.
        """
        specs = list(specs)
        if not specs:
            raise ValueError("a campaign needs at least one spec")
        conditions = [spec.condition for spec in specs]
        if len(set(conditions)) != len(conditions):
            raise ValueError("condition labels must be unique within a campaign")
        unknown = sorted({spec.system for spec in specs} - SYSTEM_FACTORIES.keys())
        if unknown:
            raise KeyError(f"unknown system key {', '.join(map(repr, unknown))}; "
                           f"registered keys: {', '.join(system_keys())} (add a "
                           "custom system with repro.agents.registry.register_system)")

        csv_path = self.out / f"{name}.csv" if self.out is not None else None
        json_path = self.out / f"{name}.json" if self.out is not None else None
        profile_path = (self.out / "profiles" / f"{name}.csv"
                        if self.out is not None else None)
        table = RunTable()
        if csv_path is not None and csv_path.exists():
            if self.resume:
                table = RunTable.read_csv(csv_path, strict=False)
            else:
                # Forced re-execution must not append after stale rows: a
                # crash before the completion rewrite would otherwise leave
                # duplicates where the stale row wins on the next resume.
                # The stale JSON mirror goes too, so no file contradicts
                # the stream.
                csv_path.unlink()
                if json_path is not None and json_path.exists():
                    json_path.unlink()

        keys = [spec.key() for spec in specs]
        cells = pending_cells(specs, table)
        if self.shard is not None:
            cells = self.shard.filter(cells)

        if cells:
            with contextlib.ExitStack() as stack:
                writers: list[RunTableWriter] = []
                # Profile sidecar first: if a crash lands between the two
                # writes, the cell is re-executed (its canonical row is
                # missing) and the sidecar merely logs both attempts; the
                # reverse order would leave a completed cell with no profile
                # row forever.
                if profile_path is not None:
                    writers.append(stack.enter_context(
                        RunTableWriter(profile_path, profile=True)))
                if csv_path is not None:
                    writers.append(stack.enter_context(RunTableWriter(csv_path)))

                def sink(records: list[RunRecord]) -> None:
                    for record in records:
                        for writer in writers:
                            writer.write(record)
                        table.add(record)

                self._execute(cells, sink)

        table = table.sorted({key: index for index, key in enumerate(keys)})
        if csv_path is not None:
            table.write_csv(csv_path)
        if json_path is not None:
            table.write_json(json_path)
        if self.shard is not None and self.out is not None:
            self._save_plan(specs, name)
        result = CampaignResult(specs=specs, table=table,
                                executed_trials=len(cells), csv_path=csv_path,
                                json_path=json_path, profile_path=profile_path)
        for sink_list in _RESULT_SINKS:
            sink_list.append(result)
        return result

    def _save_plan(self, specs: list[TrialSpec], name: str) -> None:
        """Persist the campaign plan beside a shard's partial table.

        ``repro-create merge`` reads it to restore the canonical (spec
        order, then seed) row order across shard tables — without it the
        merge falls back to sorting by ``spec_key``, which is deterministic
        but not byte-identical to a single-host run.  Best-effort: specs
        whose protections have no JSON form are skipped.
        """
        from .scheduler import CampaignPlan

        try:
            CampaignPlan(name=name, specs=specs).save(self.out / "plans")
        except ValueError:
            pass


def run_campaign(specs: Sequence[TrialSpec], jobs: int = 1,
                 out: str | Path | None = None, name: str = "campaign",
                 resume: bool = True, batch: int | None = None,
                 shard: Shard | None = None) -> CampaignResult:
    """One-shot convenience wrapper around :class:`CampaignRunner`."""
    return CampaignRunner(jobs=jobs, out=out, resume=resume, batch=batch,
                          shard=shard).run(specs, name=name)


def run_plans(plans: Iterable, jobs: int = 1, out: str | Path | None = None,
              batch: int | None = None) -> list[CampaignResult]:
    """Run declared campaign plans in order, one :func:`run_campaign` each.

    A plan is anything with a ``name`` and ``specs`` — an experiment's
    declaration returns :class:`~repro.eval.scheduler.CampaignPlan` s.
    """
    return [run_campaign(plan.specs, jobs=jobs, out=out, name=plan.name,
                         batch=batch) for plan in plans]
