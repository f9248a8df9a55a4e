"""Fleet runtime: cross-agent batched stepping for multi-agent missions.

The paper characterizes resilience one embodied system at a time; the fleet
runtime scales that to the ROADMAP's "millions of users" north star by
running N agents against one shared mission — the generated multi-room
navigation scenario — as N *lanes* of a single batched computation.  On
every simulation tick, all agents' pending planner decodes and controller
forwards are gathered into row-stacked :class:`~repro.quant.BatchedKernel`
passes: one quantize and one INT GEMM per layer for the whole fleet instead
of one dispatch per agent (RoboOS frames the same workload shape — a shared
world with subtasks spread across collaborating agents).

Exactness contract
------------------
Fleet-batched stepping is **bit-identical** to running each agent through
its own :meth:`~repro.agents.executor.MissionExecutor.run_trial` (a group
of one), fault-free and under injection.  Three properties make that hold:

* the fleet GEMM stacks lanes along rows, and the float64 accumulator is
  exact for INT8 products, so each lane's rows equal its solo GEMM output;
* every elementwise stage (injection, clamping, stats) runs per lane on
  that lane's row slice, in the lane's own stage order;
* each agent draws faults from its **own injector RNG lane** — the per-seed
  streams derived in ``_prepare_trial`` — so a flip in one agent's planner
  perturbs fleet-level mission completion without contaminating any other
  agent's fault pattern.

That contract is what makes the fleet axis safe to flip on in campaigns:
``TrialSpec(fleet=N)`` changes wall-clock shape, never run-table bytes
(see ``tests/test_fleet.py``).

Mission roster
--------------
A fleet of N agents covers the suite's tasks round-robin — agent ``i`` runs
``task_names[i % len(task_names)]`` with seed ``seed + i`` — so every fleet
size yields a deterministic roster and per-agent RNG streams that never
collide.  :class:`FleetResult` aggregates the fleet-level metrics the
campaign layer reports: missions completed (and their rate) under a
per-agent bit-error rate, total agent steps, and fleet fault counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.create import ProtectionConfig
from .executor import MissionExecutor, TrialResult

__all__ = ["FleetAgent", "FleetResult", "FleetExecutor", "MAX_FLEET_SIZE"]

#: Largest supported fleet: matches the ``TrialSpec.fleet`` axis bound.
MAX_FLEET_SIZE = 1000


@dataclass(frozen=True)
class FleetAgent:
    """One lane of the fleet: which mission an agent runs, with which seed."""

    agent_id: int
    task: str
    seed: int


@dataclass
class FleetResult:
    """Fleet-level aggregate of one multi-agent mission run.

    ``results[i]`` is agent ``i``'s :class:`TrialResult` — bit-identical to
    a solo run of that agent's (task, seed) — and the properties roll them
    up into the fleet metrics campaigns report.
    """

    fleet_size: int
    roster: list[FleetAgent] = field(default_factory=list)
    results: list[TrialResult] = field(default_factory=list)

    @property
    def missions_completed(self) -> int:
        """Number of agents that finished their mission successfully."""
        return sum(1 for result in self.results if result.success)

    @property
    def mission_success_rate(self) -> float:
        return self.missions_completed / self.fleet_size

    @property
    def agent_steps(self) -> int:
        """Total environment steps across the fleet (throughput unit)."""
        return sum(result.steps for result in self.results)

    @property
    def controller_steps(self) -> int:
        return sum(result.controller_steps for result in self.results)

    @property
    def planner_invocations(self) -> int:
        return sum(result.planner_invocations for result in self.results)

    @property
    def bits_flipped(self) -> int:
        """Total injected flips across every agent's planner and controller."""
        return sum(result.planner_bits_flipped + result.controller_bits_flipped
                   for result in self.results)

    def summary(self) -> dict[str, float]:
        """Flat fleet metrics, ready for tables and JSON."""
        return {
            "fleet_size": float(self.fleet_size),
            "missions_completed": float(self.missions_completed),
            "mission_success_rate": self.mission_success_rate,
            "agent_steps": float(self.agent_steps),
            "controller_steps": float(self.controller_steps),
            "planner_invocations": float(self.planner_invocations),
            "bits_flipped": float(self.bits_flipped),
        }


class FleetExecutor:
    """Runs N-agent fleets over one executor's suite, batched or serial.

    Wraps a :class:`MissionExecutor` (the navigation scenario system by
    default) and dispatches whole fleets: the batched path drives all agents
    lock-step through ``run_trial_group`` — every tick one fused kernel pass
    per projection for the fleet — while the serial path is the per-agent
    reference loop the exactness contract is checked against.
    """

    def __init__(self, executor: MissionExecutor | None = None,
                 system: str = "jarvis-navigation"):
        if executor is None:
            from .registry import get_system

            executor = get_system(system).executor()
        self.executor = executor

    # ------------------------------------------------------------------
    def roster(self, fleet_size: int, seed: int = 0) -> list[FleetAgent]:
        """The deterministic mission roster of a fleet.

        Tasks cover the suite round-robin and agent ``i`` owns seed
        ``seed + i``, so every agent's trial RNG, world RNG, and injector
        lanes (derived from the seed in ``_prepare_trial``) are disjoint
        from its fleet-mates' — fault isolation falls out of seeding.
        """
        if not 1 <= fleet_size <= MAX_FLEET_SIZE:
            raise ValueError(f"fleet size must be in 1..{MAX_FLEET_SIZE}")
        tasks = self.executor.suite.task_names
        return [FleetAgent(agent_id=index, task=tasks[index % len(tasks)],
                           seed=seed + index)
                for index in range(fleet_size)]

    # ------------------------------------------------------------------
    def run_fleet(self, fleet_size: int, seed: int = 0,
                  planner_protection: ProtectionConfig | None = None,
                  controller_protection: ProtectionConfig | None = None,
                  batched: bool = True) -> FleetResult:
        """Run one fleet and aggregate its fleet-level metrics.

        ``batched=True`` (the default) steps all agents through the
        cross-agent batched kernel path; ``batched=False`` runs the
        per-agent serial reference loop.  Both return bit-identical
        per-agent results — ``batched`` only selects the execution shape.
        """
        roster = self.roster(fleet_size, seed=seed)
        if batched:
            results = self.executor.run_trial_group(
                [(agent.task, agent.seed) for agent in roster],
                planner_protection=planner_protection,
                controller_protection=controller_protection)
        else:
            results = [self.executor.run_trial(
                agent.task, seed=agent.seed,
                planner_protection=planner_protection,
                controller_protection=controller_protection)
                for agent in roster]
        return FleetResult(fleet_size=fleet_size, roster=roster,
                           results=results)
