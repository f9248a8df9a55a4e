"""The three benchmark workloads: their cell grids and how one pass runs them.

Every workload is a closed loop over a fixed cell grid: the engine (or the
single queue worker) takes the next cell only after the previous one
settles.  The grid is a pure function of the workload name and the seed,
and one *pass* executes the whole grid once through the public campaign
entry points, returning the canonical run table(s) it produced.

Correctness is checked per cell: each row's canonical RESULT columns are
hashed and compared with the pinned seed-0 reference (``pins.json``) or,
for other seeds, with a reference produced by a different execution path.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.core.policies import REFERENCE_POLICIES
from repro.eval import experiments, scheduler
from repro.eval.campaign import TrialSpec, collect_results, run_campaign
from repro.eval.resilience import ber_sweep
from repro.eval.runtable import RunTable
from repro.eval.service import CampaignService, QueueClient

#: BERs of the two fault-injected sweeps (Fig. 13a-c).
SWEEP_BERS = (1e-4, 1e-3, 3e-3)
#: Trials per condition of the planner sweep: 2 systems x 3 BERs x 4 = 24 cells.
PLANNER_TRIALS = 4
#: Trials per condition of the controller sweep: (6 AD + 11 VS arms) x 2 = 34 cells.
CONTROLLER_TRIALS = 2
#: ``vs_evaluation``'s default constant-voltage baselines.
VS_CONSTANT_VOLTAGES = (0.82, 0.80, 0.78, 0.76, 0.74)
#: Agents per fleet, and cells per queue task (one task per fleet).
FLEET = 16
#: Seed blocks per fleet task: 11 tasks x 1 block x 16 agents = 176 cells.
FLEET_BLOCKS = 1
#: Pool workers of the fleet-pool workload (the benchmark pins BLAS to one
#: thread, so two workers stay within a two-core machine).
POOL_JOBS = 2
#: Distinct seed blocks: ``--seed`` is taken modulo this, and trial seeds are
#: ``(seed % SEED_BLOCKS) * 1000 + offset``, which stays below 2**32.
SEED_BLOCKS = 1_000_000

#: One timed unit of a pass: runs it and returns the run tables it produced.
Unit = Callable[[], list[RunTable]]


def seed_base(seed: int) -> int:
    """First trial seed of a workload; any integer ``--seed`` is accepted."""
    return (seed % SEED_BLOCKS) * 1000


def cell_digest(record) -> str:
    """Short hash of one row's canonical RESULT columns."""
    payload = "\x1f".join(record.result_payload())
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def table_digest(cells: list[str]) -> str:
    """Digest of a whole grid: its cell digests in canonical row order."""
    return hashlib.sha256("\n".join(cells).encode()).hexdigest()[:32]


def fleet_specs(seed: int) -> list[TrialSpec]:
    """Fault-free fleet-16 specs over every navigation and assembly task."""
    from repro.env.scenarios import CATALOG

    base = seed_base(seed)
    specs = []
    for scenario in ("navigation", "assembly"):
        system = f"jarvis-{scenario}"
        for task in CATALOG.build(scenario).task_names:
            for block in range(FLEET_BLOCKS):
                specs.append(TrialSpec(
                    condition=f"{system}/{task}/block={block}", system=system,
                    task=task, num_trials=FLEET, seed=base + FLEET * block,
                    params=(("fleet", str(FLEET)), ("task", task),
                            ("block", str(block))),
                    fleet=FLEET))
    return specs


def _collected(run: Callable[[], object]) -> list[RunTable]:
    """Run an experiment function and return every campaign table it made."""
    with collect_results() as results:
        run()
    return [result.table for result in results]


def _sweep(system: str, target: str, label: str, trials: int, seed: int,
           anomaly_detection: bool = False) -> list[Unit]:
    """``ber_sweep``'s specs, one campaign per BER (same specs, same rows)."""
    return [lambda ber=ber: _collected(lambda: ber_sweep(
        system, "wooden", [ber], target=target, num_trials=trials,
        seed=seed_base(seed), anomaly_detection=anomaly_detection,
        label=label)) for ber in SWEEP_BERS]


def _planner_units(seed: int, scratch: Path) -> list[Unit]:
    """``experiments.wr_evaluation``: plain, then rotated planner."""
    return (_sweep("jarvis", "planner", "without WR", PLANNER_TRIALS, seed)
            + _sweep("jarvis-rotated", "planner", "with WR", PLANNER_TRIALS,
                     seed))


def _controller_units(seed: int, scratch: Path) -> list[Unit]:
    """``experiments.ad_evaluation`` on the controller, then ``vs_evaluation``.

    The VS arms run one ``vs_evaluation`` call per arm, constant voltages
    first, exactly the specs of one call over all arms.
    """
    def arm(**policies) -> Unit:
        return lambda: _collected(lambda: experiments.vs_evaluation(
            "jarvis", "wooden", num_trials=CONTROLLER_TRIALS,
            seed=seed_base(seed), **policies))

    return (_sweep("jarvis", "controller", "without AD", CONTROLLER_TRIALS, seed)
            + _sweep("jarvis", "controller", "with AD", CONTROLLER_TRIALS, seed,
                     anomaly_detection=True)
            + [arm(policies=[], constant_voltages=[voltage])
               for voltage in VS_CONSTANT_VOLTAGES]
            + [arm(policies=[policy], constant_voltages=[])
               for policy in REFERENCE_POLICIES.values()])


def _fault_units(seed: int, scratch: Path) -> list[Unit]:
    """Fig. 13c's planner sweep, then Fig. 13a/b/d's controller sweep."""
    return _planner_units(seed, scratch) + _controller_units(seed, scratch)


def _pool_units(seed: int, scratch: Path) -> list[Unit]:
    def run() -> list[RunTable]:
        out = scratch / "pool"
        shutil.rmtree(out, ignore_errors=True)
        result = run_campaign(fleet_specs(seed), jobs=POOL_JOBS, out=out,
                              name="fleet")
        table = RunTable.read_csv(result.csv_path)
        shutil.rmtree(out)
        return [table]
    return [run]


class _QueuePass:
    """One drain of the fleet grid through an in-process campaign service.

    The worker drains the queue one task per ``WorkerDaemon.run`` call
    (``max_tasks=1``), so each task -- one fleet -- is timed on its own.
    """

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.root = scratch / "queue"
        self.merged = scratch / "merged"
        self.service = None

    def open(self) -> list[RunTable]:
        for directory in (self.root, self.merged):
            shutil.rmtree(directory, ignore_errors=True)
        self.service = CampaignService(self.root).start()
        self.client = QueueClient(self.service.url)
        self.client.enqueue(scheduler.CampaignPlan(name="fleet",
                                                   specs=fleet_specs(self.seed)),
                            batch=FLEET)
        return []

    def drain_one(self) -> list[RunTable]:
        scheduler.WorkerDaemon(self.client, jobs=1, worker_id="perfbench",
                               max_tasks=1).run()
        return []

    def close(self) -> list[RunTable]:
        self.service.close()
        # Module attribute, so a traced run sees the merge.
        tables = scheduler.merge_run_tables(self.merged, [self.root])
        table = RunTable.read_csv(tables[0].csv_path)
        shutil.rmtree(self.root)
        shutil.rmtree(self.merged)
        return [table]


def _queue_units(seed: int, scratch: Path) -> list[Unit]:
    queue = _QueuePass(seed, scratch)
    return ([queue.open] + [queue.drain_one] * len(fleet_specs(seed))
            + [queue.close])


def _serial_fleet_reference(seed: int) -> list[RunTable]:
    """The fleet grid run serially in memory: the cross-path reference."""
    return [run_campaign(fleet_specs(seed), jobs=1).table]


@dataclass(frozen=True)
class Workload:
    name: str
    systems: tuple[str, ...]
    #: The timed units of one grid pass, in order; each returns its tables.
    units: Callable[[int, Path], list[Unit]]
    #: Reference for seeds without a pin, run once after timing; ``None``
    #: means passes are checked against the run's first pass instead.
    reference: Callable[[int], list[RunTable]] | None = None

    def run_pass(self, seed: int, scratch: Path) -> list[RunTable]:
        return [table for unit in self.units(seed, scratch)
                for table in unit()]


WORKLOADS: dict[str, Workload] = {
    "fault-sweep": Workload("fault-sweep", ("jarvis", "jarvis-rotated"),
                            _fault_units),
    "fleet-pool": Workload("fleet-pool",
                           ("jarvis-navigation", "jarvis-assembly"),
                           _pool_units, _serial_fleet_reference),
    "fleet-queue": Workload("fleet-queue",
                            ("jarvis-navigation", "jarvis-assembly"),
                            _queue_units, _serial_fleet_reference),
}


def rows(tables: list[RunTable]) -> list:
    """Every row of a pass, tables in call order, rows in canonical order."""
    return [record for table in tables for record in table]


def sim_counts(records) -> dict[str, float]:
    """Exact simulation counts of one grid pass (identical on every path)."""
    return {
        "sim.controller_steps": sum(r.controller_steps for r in records),
        "sim.missions_succeeded": sum(1 for r in records if r.success),
        "sim.bits_flipped": sum(r.flips_total for r in records),
        "sim.macs": sum(r.macs_total for r in records),
    }


def count_failed(cells: list[str], reference: list[str]) -> int:
    """Cells that are missing or differ from the reference, position by position."""
    failed = sum(1 for got, want in zip(cells, reference) if got != want)
    return failed + max(0, len(reference) - len(cells))
