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
        # Plans of hook-free planner lanes, keyed by (planner plan hash,
        # task, progress); see :meth:`_plans`.
        self._plan_memo: dict[tuple[str, str, int], tuple[str, ...]] = {}

    # ------------------------------------------------------------------
    def plan_cache_state(self) -> str:
        """Kernel-plan provenance across this executor's models.

        ``"miss"`` when any model would still build its plan from scratch,
        ``"hit"`` when every model reuses a built plan (its own, or one a
        forked pool child inherited), and ``""`` when no model exposes
        provenance (e.g. test doubles).  Stamped into the run table's
        ``plan_cache`` profile column by the campaign engine.
        """
        states = []
        for model in (getattr(self, "planner", None),
                      getattr(self, "controller", None)):
            provenance = getattr(model, "plan_provenance", None)
            if callable(provenance):
                states.append(provenance())
        if not states:
            return ""
        return "miss" if "miss" in states else "hit"

    # ------------------------------------------------------------------
    # Planning helpers
    # ------------------------------------------------------------------
    def _progress(self, world: EmbodiedWorld, task) -> int:
        return sum(1 for subtask in task.plan if subtask in world.inventory)

    def _account_plan(self, plan: list[str], result: TrialResult,
                      voltage: float) -> None:
        """MAC/invocation accounting of one planner decode."""
        result.planner_invocations += 1
        generated = len(plan) + 1  # +1 for the EOS decode step
        prompt_len = 4
        macs = sum(self.planner.macs_per_decode_step(prompt_len + i)
                   for i in range(generated))
        result.planner_macs_by_voltage[voltage] = (
            result.planner_macs_by_voltage.get(voltage, 0.0) + macs)

    def _plans(self, setups: list["_TrialSetup"],
               requests: list[tuple[str, int]]) -> list[list[str]]:
        """Each lane's plan for its ``(task_name, progress)`` request.

        A lane whose planner carries no hook (no injector, no detector) has
        nothing that reads its decode but the plan, and greedy decoding is a
        pure function of the prompt and the weights.  So its plan is
        memoized under ``(plan hash, task_name, progress)``: identical
        hook-free prompts of one stack decode once, and later groups of this
        executor reuse them.  Hooked lanes always decode, in one stack with
        the hook-free misses (:meth:`DeployedPlanner.plan_batch`).
        """
        plan_hash = self.planner.kernel_plan().content_hash
        memo = self._plan_memo
        keys: list[tuple[str, str, int] | None] = [None] * len(requests)
        decode: list[int] = []
        missed: set[tuple[str, str, int]] = set()
        for lane, (setup, request) in enumerate(zip(setups, requests)):
            if setup.planner_injector is None and setup.planner_detector is None:
                key = keys[lane] = (plan_hash, *request)
                if key in memo or key in missed:
                    continue
                missed.add(key)
            decode.append(lane)
        plans: list[list[str]] = [None] * len(requests)
        if decode:
            decoded = self.planner.plan_batch(
                [requests[lane] for lane in decode],
                contexts=[setups[lane].planner_kernel for lane in decode])
            for lane, plan in zip(decode, decoded):
                plans[lane] = plan
                if keys[lane] is not None:
                    memo[keys[lane]] = tuple(plan)
        for lane, key in enumerate(keys):
            if key is not None:
                plans[lane] = list(memo[key])
        return plans

    # ------------------------------------------------------------------
    # Trial execution
    # ------------------------------------------------------------------
    def _prepare_trial(self, task_name: str, seed: int,
                       planner_protection: ProtectionConfig | None = None,
                       controller_protection: ProtectionConfig | None = None
                       ) -> "_TrialSetup":
        """Build one trial's deterministic state, before any planner decode.

        RNG streams are derived from the seed exactly as they always were
        (trial / world / planner / controller at ``seed`` / ``+10k`` /
        ``+20k`` / ``+30k``), so a trial is bit-identical whichever lanes
        share its stacks.
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

        # One fused kernel context per model per trial: the trial's lane of
        # every stack, with pre-resolved scales / bounds shared across steps.
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
        """Run one trial: a group of one (see :meth:`run_trial_group`)."""
        return self.run_trial_group([(task_name, seed, planner_protection,
                                      controller_protection)])[0]

    def run_trial_group(self, trials: list[tuple]) -> list[TrialResult]:
        """Run one trial per ``(task_name, seed, planner_protection,
        controller_protection)`` tuple as lanes of one group.

        This is the one multi-trial entry point: a campaign's lane groups,
        a fleet of agents and a single trial (:meth:`run_trial`) all run
        here.  Each lane carries its own protections (a ``(task_name,
        seed)`` pair is an unprotected lane), so lanes may differ in task,
        fault environment, anomaly detection and voltage scaling.  The
        initial plans of all lanes decode as one stack (:meth:`_plans`,
        each hook-free prompt once), then the world loops advance in
        lock-step through :meth:`_run_lanes`.  RNG derivation, kernel hooks
        and accounting are per trial and every stacked call is
        bit-identical to a stack of one, so each result equals running its
        trial alone, byte for byte.
        """
        setups = [self._prepare_trial(*trial) for trial in trials]
        progress = [self._progress(setup.world, setup.task) for setup in setups]
        if self.planner is None:
            # Ground-truth planning (controller-only studies).
            plans = [list(setup.task.plan[done:])
                     for setup, done in zip(setups, progress)]
        else:
            plans = self._plans(
                setups, [(setup.task.name, done)
                         for setup, done in zip(setups, progress)])
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
        """Drive N prepared trials lock-step, stacking cross-lane inference.

        The one driver of :meth:`_trial_steps` (a single trial is one lane).
        On every tick, the pending requests of all live lanes are gathered
        and serviced as (at most) one stacked planner decode (:meth:`_plans`)
        plus one stacked controller forward
        (:meth:`DeployedController.act_logits_batch`) — one quantize
        and one INT GEMM per projection for the whole group instead of one
        dispatch per lane — and the group's actions are sampled as one stack.
        Lanes finish independently (StopIteration drops them from the
        round).  Responses are bit-identical to stacks of one, and each
        lane's call order is fixed by its generator, so the results equal
        the per-lane loop byte for byte — fault-free and under injection.
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
            if plan_lanes:
                plans = self._plans([setups[i] for i in plan_lanes],
                                    [requests[i][1:] for i in plan_lanes])
                for index, plan in zip(plan_lanes, plans):
                    responses[index] = plan
            if act_lanes:
                logits = self.controller.act_logits_batch(
                    [requests[i][1:] for i in act_lanes],
                    contexts=[setups[i].controller_kernel for i in act_lanes])
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
