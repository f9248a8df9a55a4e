"""Mission executor: runs one embodied task end to end under a fault environment.

This is the experimental engine behind every resilience / energy number in the
repository: it wires the deployed planner and controller to the world, builds
the fault-injection and anomaly-clearance hooks described by
:class:`~repro.core.create.ProtectionConfig`, drives autonomy-adaptive voltage
scaling, and accounts MACs per operating voltage so the energy model can price
the trial afterwards.

The control flow mirrors JARVIS-1 (paper Sec. 2.1): the planner is invoked
once up front; the controller then executes the plan step by step; if a
subtask exceeds its step budget the planner is re-invoked with the current
progress; the task fails when the total step budget is exhausted.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..core.anomaly import AnomalyDetector
from ..core.create import ProtectionConfig
from ..core.entropy import EntropyTrace
from ..core.predictor import EntropyPredictor
from ..core.voltage_scaling import AdaptiveVoltageController
from ..env.subtasks import ALL_SUBTASKS, SubtaskRegistry
from ..env.tasks import TaskSuite
from ..env.world import EmbodiedWorld, WorldConfig
from ..faults.injector import ErrorInjector
from ..faults.models import VoltageErrorModel
from ..hardware.energy import EnergyModel
from ..hardware.timing import NOMINAL_VOLTAGE, TimingErrorModel
from ..nn.functional import entropy as _shannon_entropy
from ..nn.functional import softmax
from ..quant import GemmHooks
from .controller import DeployedController
from .planner import DeployedPlanner

__all__ = ["TrialResult", "MissionExecutor", "build_protection_hooks",
           "choose_actions"]


@dataclass
class TrialResult:
    """Everything measured during one task attempt."""

    task: str
    success: bool
    steps: int
    planner_invocations: int
    controller_steps: int
    planner_macs_by_voltage: dict[float, float] = field(default_factory=dict)
    controller_macs_by_voltage: dict[float, float] = field(default_factory=dict)
    predictor_macs_by_voltage: dict[float, float] = field(default_factory=dict)
    entropy_trace: EntropyTrace = field(default_factory=EntropyTrace)
    planner_bits_flipped: int = 0
    controller_bits_flipped: int = 0
    planner_elements_clamped: int = 0
    controller_elements_clamped: int = 0
    voltage_summary: dict[str, float] = field(default_factory=dict)

    def macs_by_voltage(self) -> dict[float, float]:
        """All MACs of the trial grouped by operating voltage."""
        merged: dict[float, float] = {}
        for source in (self.planner_macs_by_voltage, self.controller_macs_by_voltage,
                       self.predictor_macs_by_voltage):
            for voltage, macs in source.items():
                merged[voltage] = merged.get(voltage, 0.0) + macs
        return merged

    def computational_energy_j(self, energy_model: EnergyModel | None = None) -> float:
        model = energy_model or EnergyModel()
        return model.compute_energy_j(self.macs_by_voltage())

    def effective_voltage(self, energy_model: EnergyModel | None = None) -> float:
        model = energy_model or EnergyModel()
        return model.effective_voltage(self.macs_by_voltage())


def build_protection_hooks(protection: ProtectionConfig, rng: np.random.Generator,
                           timing_model: TimingErrorModel | None = None
                           ) -> tuple[GemmHooks, ErrorInjector | None, AnomalyDetector | None]:
    """Translate a :class:`ProtectionConfig` into quantized-GEMM hooks."""
    timing_model = timing_model or TimingErrorModel()
    targets = list(protection.target_components) if protection.target_components else None

    error_model = protection.error_model
    if error_model is None and (protection.voltage is not None
                                or protection.voltage_scaling is not None):
        voltage = protection.voltage if protection.voltage is not None else NOMINAL_VOLTAGE
        error_model = VoltageErrorModel(voltage, timing_model)

    injector: ErrorInjector | None = None
    if error_model is not None:
        if protection.injector_kind == "thundervolt":
            from ..core.baselines import ThUnderVoltInjector

            injector = ThUnderVoltInjector(error_model, rng=rng,
                                           exposure_scale=protection.exposure_scale)
            injector.target_components = targets
        else:
            injector = ErrorInjector(error_model, rng=rng,
                                     exposure_scale=protection.exposure_scale,
                                     target_components=targets)
    detector = AnomalyDetector() if protection.anomaly_detection else None
    hooks = GemmHooks(injector=injector, anomaly_clamp=detector)
    return hooks, injector, detector


#: ``Generator.choice``'s tolerance on ``sum(p) - 1`` for float64 ``p``.
_CHOICE_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def choose_actions(probs: np.ndarray,
                   rngs: list[np.random.Generator]) -> list[int]:
    """``int(rng.choice(n, p=row))`` for each row of ``probs`` and its ``rng``.

    Runs what ``numpy.random.Generator.choice`` runs for a 1-D ``p`` and no
    ``size``, once per stack instead of once per row: its checks on ``p``
    (NaN, negative entries, a sum further than ``sqrt(eps)`` from 1 — each
    a ``ValueError`` with numpy's message), the cdf as ``cumsum`` divided by
    its last entry, then one ``rng.random()`` per row and
    ``searchsorted(u, side="right")``, which on a sorted row is the count of
    entries ``<= u``.  Actions and generator states equal per-row ``choice``
    calls (the sum check uses ``np.add.reduce`` where ``choice`` uses a Kahan
    sum; the two differ by ulps, far inside the tolerance).
    """
    sums = np.add.reduce(probs, axis=1)
    if not (np.maximum.reduce(np.abs(sums - 1.0)) <= _CHOICE_ATOL
            and np.minimum.reduce(probs, axis=None) >= 0):
        for row, total in zip(probs, sums):
            if np.isnan(total):
                raise ValueError("Probabilities contain NaN")
            if (row < 0).any():
                raise ValueError("Probabilities are not non-negative")
            if abs(total - 1.0) > _CHOICE_ATOL:
                raise ValueError("Probabilities do not sum to 1. See Notes "
                                 "section of docstring for more information.")
    cdf = np.cumsum(probs, axis=1)
    cdf /= cdf[:, -1:]
    uniform = np.array([rng.random() for rng in rngs])
    return np.add.reduce(cdf <= uniform[:, None], axis=1).tolist()


@dataclass
class _TrialSetup:
    """Deterministic pre-decode state of one trial (see ``_prepare_trial``)."""

    task: object
    rng: np.random.Generator
    world: EmbodiedWorld
    controller_protection: ProtectionConfig
    planner_kernel: object
    controller_kernel: object
    planner_voltage: float
    vs_runtime: AdaptiveVoltageController | None
    planner_injector: ErrorInjector | None
    controller_injector: ErrorInjector | None
    planner_detector: AnomalyDetector | None
    controller_detector: AnomalyDetector | None
    result: TrialResult


class MissionExecutor:
    """Runs task trials for one (planner, controller) system on one benchmark."""

    def __init__(self, controller: DeployedController, suite: TaskSuite,
                 registry: SubtaskRegistry, planner: DeployedPlanner | None = None,
                 predictor: EntropyPredictor | None = None,
                 world_config: WorldConfig | None = None,
                 timing_model: TimingErrorModel | None = None,
                 action_temperature: float = 1.0,
                 max_replans: int = 8,
                 invalid_token_penalty: int = 10,
                 planner_use_cache: bool = True,
                 id_registry: SubtaskRegistry | None = None):
        self.controller = controller
        self.planner = planner
        self.suite = suite
        self.registry = registry
        #: Subtask-id space the controller was trained with.  Table-10
        #: controllers share the frozen ``ALL_SUBTASKS`` ids; scenario
        #: systems pass their scenario's own registry.
        self.id_registry = id_registry or ALL_SUBTASKS
        self.predictor = predictor
        self.world_config = world_config or WorldConfig()
        self.timing_model = timing_model or TimingErrorModel()
        self.action_temperature = action_temperature
        self.max_replans = max_replans
        self.invalid_token_penalty = invalid_token_penalty
        #: Escape hatch: set False to decode plans with full-prefix recompute
        #: instead of KV-cached incremental decoding.
        self.planner_use_cache = planner_use_cache

    # ------------------------------------------------------------------
    def plan_cache_state(self) -> str:
        """Kernel-plan provenance across this executor's models.

        ``"shm"`` when any model adopted a shared-memory weight plane,
        ``"miss"`` when any model would still build its plan from scratch,
        ``"hit"`` when every model reuses a process-local plan, and ``""``
        when no model exposes provenance (e.g. test doubles).  Stamped into
        the run table's ``plan_cache`` profile column by the campaign engine.
        """
        states = []
        for model in (getattr(self, "planner", None),
                      getattr(self, "controller", None)):
            provenance = getattr(model, "plan_provenance", None)
            if callable(provenance):
                states.append(provenance())
        if not states:
            return ""
        if "shm" in states:
            return "shm"
        if "miss" in states:
            return "miss"
        return "hit"

    # ------------------------------------------------------------------
    # Planning helpers
    # ------------------------------------------------------------------
    def _progress(self, world: EmbodiedWorld, task) -> int:
        return sum(1 for subtask in task.plan if subtask in world.inventory)

    def _invoke_planner(self, task, world: EmbodiedWorld, context,
                        result: TrialResult, voltage: float) -> list[str]:
        progress = self._progress(world, task)
        if self.planner is None:
            # Ground-truth planning (controller-only studies).
            return [subtask for subtask in task.plan[progress:]]
        plan = self.planner.plan(task.name, progress, context=context,
                                 use_cache=self.planner_use_cache)
        self._account_plan(plan, result, voltage)
        return plan

    def _account_plan(self, plan: list[str], result: TrialResult,
                      voltage: float) -> None:
        """MAC/invocation accounting of one planner decode (serial or batched)."""
        result.planner_invocations += 1
        generated = len(plan) + 1  # +1 for the EOS decode step
        prompt_len = 4
        macs = sum(self.planner.macs_per_decode_step(prompt_len + i)
                   for i in range(generated))
        result.planner_macs_by_voltage[voltage] = (
            result.planner_macs_by_voltage.get(voltage, 0.0) + macs)

    # ------------------------------------------------------------------
    # Trial execution
    # ------------------------------------------------------------------
    def _prepare_trial(self, task_name: str, seed: int,
                       planner_protection: ProtectionConfig | None,
                       controller_protection: ProtectionConfig | None
                       ) -> "_TrialSetup":
        """Build one trial's deterministic state, before any planner decode.

        RNG streams are derived from the seed exactly as they always were
        (trial / world / planner / controller at ``seed`` / ``+10k`` /
        ``+20k`` / ``+30k``), so a trial prepared here is bit-identical to
        :meth:`run_trial` regardless of how the initial plan decode is
        executed.
        """
        planner_protection = planner_protection or ProtectionConfig()
        controller_protection = controller_protection or ProtectionConfig()
        task = self.suite.get(task_name)
        rng = np.random.default_rng(seed)
        world = EmbodiedWorld(task, self.registry, self.world_config,
                              np.random.default_rng(seed + 10_000))

        planner_hooks, planner_injector, planner_detector = build_protection_hooks(
            planner_protection, np.random.default_rng(seed + 20_000), self.timing_model)
        controller_hooks, controller_injector, controller_detector = build_protection_hooks(
            controller_protection, np.random.default_rng(seed + 30_000), self.timing_model)

        # One fused kernel context per model per trial: pre-resolved scales /
        # bounds and reusable accumulator workspaces shared across all steps.
        planner_kernel = self.planner.kernel_context(planner_hooks) \
            if self.planner is not None else None
        controller_kernel = self.controller.kernel_context(controller_hooks)

        planner_voltage = planner_protection.static_voltage() or NOMINAL_VOLTAGE

        vs_runtime: AdaptiveVoltageController | None = None
        if controller_protection.voltage_scaling is not None:
            predictor = self.predictor \
                if controller_protection.voltage_scaling.entropy_source == "predictor" else None
            vs_runtime = AdaptiveVoltageController(
                config=controller_protection.voltage_scaling,
                predictor=predictor,
                injector=controller_injector,
                timing_model=self.timing_model,
            )
            vs_runtime.begin_trial()

        result = TrialResult(task=task_name, success=False, steps=0,
                             planner_invocations=0, controller_steps=0)
        return _TrialSetup(
            task=task, rng=rng, world=world,
            controller_protection=controller_protection,
            planner_kernel=planner_kernel, controller_kernel=controller_kernel,
            planner_voltage=planner_voltage, vs_runtime=vs_runtime,
            planner_injector=planner_injector,
            controller_injector=controller_injector,
            planner_detector=planner_detector,
            controller_detector=controller_detector, result=result)

    def run_trial(self, task_name: str, seed: int = 0,
                  planner_protection: ProtectionConfig | None = None,
                  controller_protection: ProtectionConfig | None = None) -> TrialResult:
        setup = self._prepare_trial(task_name, seed, planner_protection,
                                    controller_protection)
        plan_queue: deque[str] = deque(
            self._invoke_planner(setup.task, setup.world, setup.planner_kernel,
                                 setup.result, setup.planner_voltage))
        return self._run_lanes([setup], [plan_queue])[0]

    def run_trial_batch(self, task_name: str, seeds: list[int],
                        planner_protection: ProtectionConfig | None = None,
                        controller_protection: ProtectionConfig | None = None
                        ) -> list[TrialResult]:
        """Run one trial per seed, batching inference across the whole group.

        Every trial of a (spec, task) cell group starts with the same prompt
        — the task at progress 0 — so the first planner invocation of all
        trials runs as one cross-prompt batched decode through each trial's
        own kernel context (:meth:`DeployedPlanner.plan_batch`).  The world
        loops then advance in lock-step through :meth:`_run_lanes`: on every
        simulation tick the group's pending controller forwards execute as
        one row-stacked :class:`~repro.quant.BatchedKernel` pass
        (:meth:`DeployedController.act_logits_batch`), and pending replans as
        one batched decode.  RNG derivation, kernel hooks, and accounting are
        identical to :meth:`run_trial`, and every batched call is
        bit-identical to its serial counterpart, so results match
        seed-for-seed byte for byte.
        """
        return self.run_trial_group([(task_name, seed) for seed in seeds],
                                    planner_protection=planner_protection,
                                    controller_protection=controller_protection)

    def run_trial_group(self, trials: list[tuple[str, int]],
                        planner_protection: ProtectionConfig | None = None,
                        controller_protection: ProtectionConfig | None = None
                        ) -> list[TrialResult]:
        """Run one trial per ``(task_name, seed)`` pair with batched stepping.

        The heterogeneous-task generalization of :meth:`run_trial_batch` —
        the fleet runtime (:class:`~repro.agents.fleet.FleetExecutor`) runs
        agents with round-robin task assignments, so lanes may decode
        different prompts.  All lanes share every batched pass; results are
        bit-identical to running each pair through :meth:`run_trial`.
        """
        if self.planner is None or len(trials) < 2:
            return [self.run_trial(task_name, seed=seed,
                                   planner_protection=planner_protection,
                                   controller_protection=controller_protection)
                    for task_name, seed in trials]
        setups = [self._prepare_trial(task_name, seed, planner_protection,
                                      controller_protection)
                  for task_name, seed in trials]
        requests = [(setup.task.name, self._progress(setup.world, setup.task))
                    for setup in setups]
        plans = self.planner.plan_batch(
            requests, contexts=[setup.planner_kernel for setup in setups],
            use_cache=self.planner_use_cache)
        for setup, plan in zip(setups, plans):
            self._account_plan(plan, setup.result, setup.planner_voltage)
        return self._run_lanes(setups, [deque(plan) for plan in plans])

    def _trial_steps(self, setup: "_TrialSetup", plan_queue: deque[str]):
        """The world loop of one prepared trial as an inference-request generator.

        Yields ``("plan", task_name, progress)`` when the planner must be
        (re-)invoked and ``("act", subtask_token, observation)`` for every
        controller forward; the driver answers via ``send()`` with the
        decoded plan / the ``(entropy, action)`` of the step, the action
        sampled with the lane's own trial RNG (:meth:`_sample_actions`, so
        the driver samples a whole stack of lanes at once).  Everything
        else — world stepping, voltage scaling, MAC and entropy accounting,
        finalization — happens inside the generator, so a driver that
        services the yields with bit-identical responses produces
        bit-identical :class:`TrialResult`\\ s: each lane's own call order
        is fixed by the generator, and cross-lane interleaving touches no
        lane-local state.
        """
        task = setup.task
        world = setup.world
        controller_protection = setup.controller_protection
        planner_voltage = setup.planner_voltage
        vs_runtime = setup.vs_runtime
        result = setup.result
        replans = 0
        controller_macs = self.controller.macs_per_step
        predictor_macs = self.predictor.macs_per_call if self.predictor is not None else 0

        while not world.task_completed and not world.task_budget_exhausted():
            if not plan_queue:
                replans += 1
                if replans > self.max_replans:
                    break
                progress = self._progress(world, task)
                if self.planner is None:
                    # Ground-truth planning (controller-only studies).
                    plan_queue = deque(task.plan[progress:])
                else:
                    plan = yield ("plan", task.name, progress)
                    self._account_plan(plan, result, planner_voltage)
                    plan_queue = deque(plan)
                if not plan_queue:
                    break
                continue

            subtask = plan_queue.popleft()
            if not world.set_subtask(subtask):
                world.waste_steps(self.invalid_token_penalty)
                continue
            subtask_token = self.id_registry.token_id(subtask) \
                if subtask in self.id_registry else 0

            completed = False
            while not world.task_budget_exhausted():
                if vs_runtime is not None:
                    voltage, predicted = vs_runtime.before_step(world, subtask_token)
                    if predicted:
                        result.predictor_macs_by_voltage[NOMINAL_VOLTAGE] = (
                            result.predictor_macs_by_voltage.get(NOMINAL_VOLTAGE, 0.0)
                            + predictor_macs)
                else:
                    voltage = controller_protection.static_voltage() or NOMINAL_VOLTAGE

                entropy_value, action = yield ("act", subtask_token,
                                               world.observation())
                result.controller_steps += 1
                result.controller_macs_by_voltage[voltage] = (
                    result.controller_macs_by_voltage.get(voltage, 0.0) + controller_macs)
                result.entropy_trace.record(entropy_value,
                                            world.is_critical_step(), voltage)

                step = world.step(action)
                if step.subtask_completed:
                    completed = True
                    break
                if world.subtask_budget_exhausted():
                    break

            if not completed and not world.task_completed:
                # Subtask retry budget exhausted: force a replanning round.
                plan_queue.clear()

        result.success = world.task_completed
        result.steps = world.steps_taken
        if not result.success:
            # Failed tasks are charged the full execution budget (paper Sec. 6.1).
            remaining = max(self.world_config.task_step_limit - result.steps, 0)
            fallback_voltage = controller_protection.static_voltage() or NOMINAL_VOLTAGE
            if vs_runtime is not None:
                fallback_voltage = vs_runtime.voltage
            result.controller_macs_by_voltage[fallback_voltage] = (
                result.controller_macs_by_voltage.get(fallback_voltage, 0.0)
                + remaining * controller_macs)
            result.steps = self.world_config.task_step_limit

        if setup.planner_injector is not None:
            result.planner_bits_flipped = setup.planner_injector.stats.bits_flipped
        if setup.controller_injector is not None:
            result.controller_bits_flipped = setup.controller_injector.stats.bits_flipped
        if setup.planner_detector is not None:
            result.planner_elements_clamped = setup.planner_detector.stats.elements_clamped
        if setup.controller_detector is not None:
            result.controller_elements_clamped = setup.controller_detector.stats.elements_clamped
        if vs_runtime is not None:
            result.voltage_summary = vs_runtime.schedule_summary()
        return result

    def _run_lanes(self, setups: list["_TrialSetup"],
                   plan_queues: list[deque[str]]) -> list[TrialResult]:
        """Drive N prepared trials lock-step, batching cross-lane inference.

        The one driver of :meth:`_trial_steps` (a single trial is one lane).
        On every tick, the pending requests of all live lanes are gathered
        and serviced as (at most) one batched planner decode
        (:meth:`DeployedPlanner.plan_batch`) plus one batched controller
        forward (:meth:`DeployedController.act_logits_batch`) — one quantize
        and one INT GEMM per projection for the whole group instead of one
        dispatch per lane — and the group's actions are sampled as one stack.
        Lanes finish independently (StopIteration drops them from the round),
        and single-lane rounds use the single-request calls.  Responses are
        bit-identical to serial servicing, and each lane's call order is
        fixed by its generator, so the results equal the per-lane serial loop
        byte for byte — fault-free and under injection.
        """
        lanes = [self._trial_steps(setup, plan_queue)
                 for setup, plan_queue in zip(setups, plan_queues)]
        responses: list[object] = [None] * len(lanes)
        requests: dict[int, tuple] = {}
        alive = list(range(len(lanes)))
        while alive:
            pending = []
            for index in alive:
                try:
                    requests[index] = lanes[index].send(responses[index])
                except StopIteration:
                    continue
                pending.append(index)
            plan_lanes = [i for i in pending if requests[i][0] == "plan"]
            act_lanes = [i for i in pending if requests[i][0] == "act"]
            if len(plan_lanes) == 1:
                index, = plan_lanes
                _, task_name, progress = requests[index]
                responses[index] = self.planner.plan(
                    task_name, progress, context=setups[index].planner_kernel,
                    use_cache=self.planner_use_cache)
            elif plan_lanes:
                plans = self.planner.plan_batch(
                    [requests[i][1:] for i in plan_lanes],
                    contexts=[setups[i].planner_kernel for i in plan_lanes],
                    use_cache=self.planner_use_cache)
                for index, plan in zip(plan_lanes, plans):
                    responses[index] = plan
            if len(act_lanes) == 1:
                index, = act_lanes
                _, subtask_token, observation = requests[index]
                logits = self.controller.act_logits(
                    subtask_token, observation,
                    context=setups[index].controller_kernel)[None, :]
            elif act_lanes:
                logits = np.stack(self.controller.act_logits_batch(
                    [requests[i][1:] for i in act_lanes],
                    contexts=[setups[i].controller_kernel for i in act_lanes]))
            if act_lanes:
                steps = self._sample_actions(
                    logits, [setups[i].rng for i in act_lanes])
                for index, step in zip(act_lanes, steps):
                    responses[index] = step
            alive = pending
        return [setup.result for setup in setups]

    def _sample_actions(self, logits: np.ndarray,
                        rngs: list[np.random.Generator]
                        ) -> list[tuple[float, int]]:
        """``(entropy, action)`` of each row of stacked ``(lanes, actions)`` logits.

        The entropy is that of the raw logits' softmax
        (:func:`~repro.core.entropy.action_entropy`).  The action is sampled
        with the row's own generator from the temperature-scaled softmax,
        NaN set to 0 and clipped to +-60, exactly as ``rng.choice`` draws it
        (:func:`choose_actions`).  Every operation is elementwise or a
        last-axis reduction, so each row equals its own 1-row call bit for
        bit.
        """
        entropies = _shannon_entropy(softmax(logits)).tolist()
        scaled = logits / self.action_temperature
        scaled[np.isnan(scaled)] = 0.0
        np.minimum(scaled, 60.0, out=scaled)
        np.maximum(scaled, -60.0, out=scaled)
        return list(zip(entropies, choose_actions(softmax(scaled), rngs)))

    # ------------------------------------------------------------------
    def run_trials(self, task_name: str, num_trials: int, seed: int = 0,
                   planner_protection: ProtectionConfig | None = None,
                   controller_protection: ProtectionConfig | None = None
                   ) -> list[TrialResult]:
        """Repeat a trial with distinct seeds (the paper repeats >= 100 times)."""
        if num_trials <= 0:
            raise ValueError("num_trials must be positive")
        return [self.run_trial(task_name, seed=seed + index,
                               planner_protection=planner_protection,
                               controller_protection=controller_protection)
                for index in range(num_trials)]
