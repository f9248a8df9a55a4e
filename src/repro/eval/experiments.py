"""Per-figure / per-table experiment runners (paper Sec. 6).

Every public function here regenerates the data behind one table or figure of
the paper; the ``benchmarks/`` directory wraps them in pytest-benchmark
targets and prints the rows/series.  Trial counts are parameters so tests can
run tiny versions of each experiment.

All trial-loop experiments execute through the campaign engine
(:mod:`repro.eval.campaign`): conditions are declared as
:class:`~repro.eval.campaign.TrialSpec` rows, ``jobs`` fans the (condition,
seed) cells out over worker processes, ``batch`` groups several cells per
worker task to amortize IPC for short trials, and ``out`` persists (and
streams) the run table so repeated invocations only execute missing cells.
Every campaign names its systems by registry key (see
:mod:`repro.agents.registry`); a custom system is added with
:func:`~repro.agents.registry.register_system` and passed by its key.

Each experiment a ``repro-create campaign`` preset runs also has a
declaration, ``<experiment>_plans``, returning its
:class:`~repro.eval.scheduler.CampaignPlan` s without building or training
a system, and a summary, ``<experiment>_summary`` (``sweep_summaries`` for
the AD and WR sweeps), reading its finished
:class:`~repro.eval.campaign.CampaignResult` s back into what
``<experiment>`` returns; ``<experiment>`` runs each declared plan as one
campaign and returns the summary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..agents.jarvis import EmbodiedSystem
from ..agents import platforms
from ..agents.registry import system_has_predictor
from ..core.baselines import AbftModel, DmrModel
from ..core.create import CreateConfig, ProtectionConfig
from ..core.policies import ConstantVoltagePolicy, REFERENCE_POLICIES, VoltagePolicy
from ..core.voltage_scaling import VoltageScalingConfig
from ..faults.models import UniformErrorModel, VoltageErrorModel
from ..hardware.accelerator import Accelerator
from ..hardware.energy import BatteryModel, EnergyModel
from ..hardware.timing import NOMINAL_VOLTAGE, TimingErrorModel
from ..quant import INT4, INT8
from .campaign import (CampaignResult, CampaignRunner, TrialSpec, run_campaign,
                       run_plans, slugify)
from .metrics import TrialSummary, energy_savings_percent
from .resilience import SweepPoint, SweepResult, ber_sweep_plans, ber_sweep_summary
from .scheduler import CampaignPlan

__all__ = [
    "motivation_curves",
    "timing_error_table",
    "gemm_output_profile",
    "rotation_study",
    "ad_evaluation",
    "ad_evaluation_plans",
    "wr_evaluation",
    "wr_evaluation_plans",
    "sweep_summaries",
    "scenario_resilience",
    "scenario_resilience_plans",
    "scenario_resilience_summary",
    "FleetSweepPoint",
    "fleet_resilience",
    "fleet_resilience_plans",
    "fleet_resilience_summary",
    "PolicyEvaluation",
    "vs_evaluation",
    "vs_evaluation_plans",
    "vs_evaluation_summary",
    "interval_sweep",
    "interval_sweep_plans",
    "interval_sweep_summary",
    "OverallResult",
    "overall_evaluation",
    "overall_evaluation_plans",
    "overall_evaluation_summary",
    "minimum_voltage_search",
    "cross_platform_planner_eval",
    "cross_platform_controller_eval",
    "chip_energy_breakdown",
    "error_model_comparison",
    "baseline_comparison",
    "baseline_comparison_plans",
    "baseline_comparison_summary",
    "repetition_study",
    "repetition_study_plans",
    "repetition_study_summary",
    "quantization_study",
    "quantization_study_plans",
    "quantization_study_summary",
    "hardware_report",
    "model_table",
]


# ----------------------------------------------------------------------
# Fig. 1 / Fig. 4: motivation and timing-error model
# ----------------------------------------------------------------------
def motivation_curves(voltages: list[float] | None = None,
                      timing_model: TimingErrorModel | None = None) -> dict[str, np.ndarray]:
    """Voltage vs. aggregate BER and vs. relative dynamic energy (Fig. 1b/1d)."""
    model = timing_model or TimingErrorModel()
    energy = EnergyModel()
    voltages = voltages or [round(v, 3) for v in np.arange(0.60, 0.91, 0.025)]
    bers = np.array([model.mean_bit_error_rate(v) for v in voltages])
    energy_scale = np.array([energy.voltage_scale(v) for v in voltages])
    return {"voltages": np.asarray(voltages), "mean_ber": bers,
            "dynamic_energy_scale": energy_scale}


def timing_error_table(voltages: list[float] | None = None,
                       timing_model: TimingErrorModel | None = None) -> dict[float, np.ndarray]:
    """Per-bit error-rate lookup table (Fig. 4a)."""
    model = timing_model or TimingErrorModel()
    voltages = voltages or [0.9, 0.875, 0.85, 0.825, 0.8, 0.775, 0.75, 0.7, 0.65, 0.6]
    return {v: model.bit_error_rates(v) for v in voltages}


# ----------------------------------------------------------------------
# Fig. 8a: runtime GEMM output profile (anomaly bound)
# ----------------------------------------------------------------------
def gemm_output_profile(system: EmbodiedSystem) -> dict[str, float]:
    """Summary of profiled GEMM output magnitudes of the planner and controller."""
    out: dict[str, float] = {}
    if system.planner is not None:
        bounds = system.planner.output_bounds()
        out["planner_max_bound"] = max(bounds.values())
        out["planner_median_bound"] = float(np.median(list(bounds.values())))
    bounds_c = system.controller.output_bounds()
    out["controller_max_bound"] = max(bounds_c.values())
    out["controller_median_bound"] = float(np.median(list(bounds_c.values())))
    return out


# ----------------------------------------------------------------------
# Fig. 9b: weight rotation effect on activations / anomaly bounds
# ----------------------------------------------------------------------
def rotation_study(plain_system: EmbodiedSystem, rotated_system: EmbodiedSystem,
                   task: str = "wooden") -> dict[str, float]:
    """Outlier ratio and anomaly-bound tightening achieved by weight rotation."""
    if plain_system.planner is None or rotated_system.planner is None:
        raise ValueError("both systems need planners")
    plain_acts = plain_system.planner.capture_activations(task, 0, quantized=False)
    rot_acts = rotated_system.planner.capture_activations(task, 0, quantized=False)
    key = sorted(plain_acts)[0]
    plain = plain_acts[key]
    rotated = rot_acts[key]
    plain_bounds = plain_system.planner.output_bounds()
    rot_bounds = rotated_system.planner.output_bounds()
    writer_names = [n for n in plain_bounds if n.endswith(".o") or n.endswith(".down")]
    plain_bound = float(np.mean([plain_bounds[n] for n in writer_names]))
    rot_bound = float(np.mean([rot_bounds[n] for n in writer_names]))
    return {
        "outlier_ratio_before": float(np.abs(plain).max() / np.abs(plain).mean()),
        "outlier_ratio_after": float(np.abs(rotated).max() / np.abs(rotated).mean()),
        "mean_writer_bound_before": plain_bound,
        "mean_writer_bound_after": rot_bound,
        "bound_tightening": plain_bound / max(rot_bound, 1e-12),
    }


# ----------------------------------------------------------------------
# Fig. 13a-c: AD and WR evaluation
# ----------------------------------------------------------------------
def ad_evaluation_plans(system: str, task: str, bers: list[float],
                        target: str, num_trials: int = 16, seed: int = 0,
                        exposure_scale: float = 1.0) -> list[CampaignPlan]:
    """Declare :func:`ad_evaluation`: the BER sweep without, then with, AD."""
    return [plan for ad, label in ((False, "without AD"), (True, "with AD"))
            for plan in ber_sweep_plans(system, task, bers, target=target,
                                        num_trials=num_trials, seed=seed,
                                        anomaly_detection=ad,
                                        exposure_scale=exposure_scale, label=label)]


def sweep_summaries(results: Sequence[CampaignResult]) -> dict[str, SweepResult]:
    """Read :func:`ad_evaluation` or :func:`wr_evaluation` back: one sweep per
    campaign, keyed by its label in snake case (``"with AD"`` -> ``"with_ad"``)."""
    sweeps = [ber_sweep_summary([result]) for result in results]
    return {sweep.label.lower().replace(" ", "_"): sweep for sweep in sweeps}


def ad_evaluation(system: str, task: str, bers: list[float],
                  target: str, num_trials: int = 16, seed: int = 0,
                  exposure_scale: float = 1.0, jobs: int = 1,
                  out: str | None = None,
                  batch: int | None = None) -> dict[str, SweepResult]:
    """Success/steps vs. BER with and without anomaly detection (Fig. 13a/b)."""
    plans = ad_evaluation_plans(system, task, bers, target, num_trials, seed,
                                exposure_scale)
    return sweep_summaries(run_plans(plans, jobs=jobs, out=out, batch=batch))


def wr_evaluation_plans(plain_system: str, rotated_system: str,
                        task: str, bers: list[float], num_trials: int = 16,
                        seed: int = 0, anomaly_detection: bool = False,
                        exposure_scale: float = 1.0) -> list[CampaignPlan]:
    """Declare :func:`wr_evaluation`: the planner BER sweep on the plain, then
    the rotated, system."""
    return [plan for system, label in ((plain_system, "without WR"),
                                       (rotated_system, "with WR"))
            for plan in ber_sweep_plans(system, task, bers, target="planner",
                                        num_trials=num_trials, seed=seed,
                                        anomaly_detection=anomaly_detection,
                                        exposure_scale=exposure_scale, label=label)]


def wr_evaluation(plain_system: str, rotated_system: str,
                  task: str, bers: list[float], num_trials: int = 16, seed: int = 0,
                  anomaly_detection: bool = False, exposure_scale: float = 1.0,
                  jobs: int = 1, out: str | None = None,
                  batch: int | None = None) -> dict[str, SweepResult]:
    """Planner success vs. BER with and without weight rotation (Fig. 13c/e)."""
    plans = wr_evaluation_plans(plain_system, rotated_system, task, bers,
                                num_trials, seed, anomaly_detection, exposure_scale)
    return sweep_summaries(run_plans(plans, jobs=jobs, out=out, batch=batch))


# ----------------------------------------------------------------------
# Catalog scenarios: planner-resilience battery beyond Table 10
# ----------------------------------------------------------------------
def scenario_resilience_plans(scenario: str, bers: list[float],
                              tasks: list[str] | None = None,
                              num_trials: int = 8, seed: int = 0,
                              exposure_scale: float = 1.0) -> list[CampaignPlan]:
    """Declare :func:`scenario_resilience`'s one campaign: arm x task x BER."""
    from ..env.scenarios import CATALOG

    suite = CATALOG.build(scenario)
    tasks = list(tasks) if tasks else suite.task_names[:2]
    for task in tasks:
        if task not in suite:
            raise KeyError(f"unknown task {task!r} in scenario {scenario!r}; "
                           f"generated tasks: {', '.join(suite.task_names)}")
    arms = {
        "unprotected": (f"jarvis-{scenario}", False),
        "AD": (f"jarvis-{scenario}", True),
        "WR": (f"jarvis-{scenario}-rotated", False),
        "AD+WR": (f"jarvis-{scenario}-rotated", True),
    }
    specs: list[TrialSpec] = []
    for label, (key, anomaly_detection) in arms.items():
        for task in tasks:
            for ber in bers:
                protection = ProtectionConfig(
                    error_model=UniformErrorModel(float(ber)),
                    anomaly_detection=anomaly_detection,
                    exposure_scale=exposure_scale)
                specs.append(TrialSpec(
                    condition=f"{label}/{task}/ber={float(ber)!r}", system=key,
                    task=task, num_trials=num_trials, seed=seed,
                    planner_protection=protection,
                    params=(("arm", label), ("task", task),
                            ("ber", repr(float(ber))))))
    return [CampaignPlan(name=slugify(f"scenario-{scenario}"), specs=specs)]


def scenario_resilience_summary(results: Sequence[CampaignResult]
                                ) -> dict[str, dict[str, SweepResult]]:
    """Read a finished :func:`scenario_resilience` campaign back."""
    [result] = results
    sweeps: dict[str, dict[str, SweepResult]] = {}
    for spec in result.specs:
        params = dict(spec.params)
        sweep = sweeps.setdefault(params["arm"], {}).setdefault(
            spec.task, SweepResult(label=params["arm"], task=spec.task))
        sweep.points.append(SweepPoint(ber=float(params["ber"]),
                                       summary=result.summary(spec.condition)))
    return sweeps


def scenario_resilience(scenario: str, bers: list[float],
                        tasks: list[str] | None = None,
                        num_trials: int = 8, seed: int = 0,
                        exposure_scale: float = 1.0,
                        jobs: int = 1, out: str | None = None,
                        batch: int | None = None
                        ) -> dict[str, dict[str, SweepResult]]:
    """Full AD/WR planner-resilience battery on a generated catalog scenario.

    Runs the four protection arms of the paper's planner studies —
    unprotected, AD, WR, AD+WR — as one campaign over the scenario's
    generated tasks, injecting into the scenario-trained planner
    (``jarvis-<scenario>`` / ``jarvis-<scenario>-rotated`` registry keys).
    Returns ``{arm: {task: SweepResult}}``; like every campaign this is
    shardable, queueable, and resumable through ``jobs``/``out``/``batch``.
    """
    plans = scenario_resilience_plans(scenario, bers, tasks, num_trials, seed,
                                      exposure_scale)
    return scenario_resilience_summary(run_plans(plans, jobs=jobs, out=out,
                                                 batch=batch))


# ----------------------------------------------------------------------
# Fleet runtime: missions completed under per-agent BER (ROADMAP fleet item)
# ----------------------------------------------------------------------
@dataclass
class FleetSweepPoint:
    """Fleet-level outcome of one (fleet size, per-agent BER) condition."""

    fleet_size: int
    ber: float
    summary: TrialSummary

    @property
    def missions_completed(self) -> float:
        """Mean missions completed per fleet at this BER."""
        return self.summary.success_rate * self.fleet_size

    @property
    def mission_success_rate(self) -> float:
        return self.summary.success_rate


def fleet_resilience_plans(fleet_sizes: list[int] | None = None,
                           bers: list[float] | None = None,
                           task: str | None = None,
                           scenario: str = "navigation",
                           seed: int = 0, exposure_scale: float = 1.0
                           ) -> list[CampaignPlan]:
    """Declare :func:`fleet_resilience`'s one campaign: fleet size x BER."""
    from ..env.scenarios import CATALOG

    fleet_sizes = list(fleet_sizes) if fleet_sizes else [1, 4, 16]
    bers = list(bers) if bers is not None else [0.0, 1e-4, 1e-3]
    suite = CATALOG.build(scenario)
    task = task or suite.task_names[0]
    if task not in suite:
        raise KeyError(f"unknown task {task!r} in scenario {scenario!r}; "
                       f"generated tasks: {', '.join(suite.task_names)}")
    specs: list[TrialSpec] = []
    for fleet_size in fleet_sizes:
        for ber in bers:
            protection = ProtectionConfig(
                error_model=UniformErrorModel(float(ber)),
                exposure_scale=exposure_scale) if ber else None
            specs.append(TrialSpec(
                condition=f"fleet={fleet_size}/ber={float(ber)!r}",
                system=f"jarvis-{scenario}", task=task,
                num_trials=fleet_size, seed=seed,
                planner_protection=protection,
                controller_protection=protection,
                params=(("fleet", str(fleet_size)), ("task", task),
                        ("ber", repr(float(ber)))),
                fleet=fleet_size))
    return [CampaignPlan(name=slugify(f"fleet-{scenario}"), specs=specs)]


def fleet_resilience_summary(results: Sequence[CampaignResult]
                             ) -> dict[int, list[FleetSweepPoint]]:
    """Read a finished :func:`fleet_resilience` campaign back."""
    [result] = results
    points: dict[int, list[FleetSweepPoint]] = {}
    for spec in result.specs:
        points.setdefault(spec.fleet, []).append(FleetSweepPoint(
            fleet_size=spec.fleet, ber=float(dict(spec.params)["ber"]),
            summary=result.summary(spec.condition)))
    return points


def fleet_resilience(fleet_sizes: list[int] | None = None,
                     bers: list[float] | None = None,
                     task: str | None = None,
                     scenario: str = "navigation",
                     seed: int = 0, exposure_scale: float = 1.0,
                     jobs: int = 1, out: str | None = None,
                     batch: int | None = None
                     ) -> dict[int, list[FleetSweepPoint]]:
    """Fleet-level resilience: missions completed under per-agent BER.

    One :class:`TrialSpec` per (fleet size, BER): ``num_trials`` equals the
    fleet size — one mission per agent — and ``fleet=N`` runs the whole
    spec as one lane group
    (:meth:`~repro.agents.executor.MissionExecutor.run_trial_group`), so
    every simulation tick runs one fused kernel pass per projection for the
    fleet.  Each agent draws faults from its own injector RNG lane, so
    per-agent BER perturbs fleet-level mission completion without
    cross-agent contamination; the result columns are bit-identical to a
    per-agent serial loop, which is what keeps the run table resumable
    across fleet sizes.  Returns ``{fleet_size: [FleetSweepPoint per BER]}``.
    """
    plans = fleet_resilience_plans(fleet_sizes, bers, task, scenario, seed,
                                   exposure_scale)
    return fleet_resilience_summary(run_plans(plans, jobs=jobs, out=out,
                                              batch=batch))


# ----------------------------------------------------------------------
# Fig. 13d/f, Fig. 15, Fig. 21: voltage-scaling policies
# ----------------------------------------------------------------------
@dataclass
class PolicyEvaluation:
    """Task quality and efficiency of one voltage policy."""

    policy: VoltagePolicy
    summary: TrialSummary

    @property
    def success_rate(self) -> float:
        return self.summary.success_rate

    @property
    def effective_voltage(self) -> float:
        return self.summary.effective_voltage


def vs_evaluation_plans(system: str, task: str,
                        policies: list[VoltagePolicy] | None = None,
                        constant_voltages: list[float] | None = None,
                        num_trials: int = 12, seed: int = 0,
                        anomaly_detection: bool = True,
                        update_interval: int = 5,
                        entropy_source: str = "predictor") -> list[CampaignPlan]:
    """Declare :func:`vs_evaluation`'s one campaign: constant arms, then policies."""
    policies = policies if policies is not None else list(REFERENCE_POLICIES.values())
    constant_voltages = constant_voltages if constant_voltages is not None \
        else [0.82, 0.80, 0.78, 0.76, 0.74]
    all_policies = [ConstantVoltagePolicy(v) for v in constant_voltages] + list(policies)
    source = entropy_source if system_has_predictor(system) else "oracle"
    specs: list[TrialSpec] = []
    for policy in all_policies:
        if isinstance(policy, ConstantVoltagePolicy):
            protection = ProtectionConfig(voltage=policy.voltages[0],
                                          anomaly_detection=anomaly_detection)
        else:
            protection = ProtectionConfig(
                anomaly_detection=anomaly_detection,
                voltage_scaling=VoltageScalingConfig(policy=policy,
                                                     update_interval=update_interval,
                                                     entropy_source=source))
        specs.append(TrialSpec(condition=policy.name, system=system, task=task,
                               num_trials=num_trials, seed=seed,
                               controller_protection=protection,
                               params=(("policy", policy.name),)))
    return [CampaignPlan(name=slugify(f"vs-evaluation-{task}"), specs=specs)]


def vs_evaluation_summary(results: Sequence[CampaignResult]) -> list[PolicyEvaluation]:
    """Read a finished :func:`vs_evaluation` campaign back, one arm per spec.

    A constant arm's policy is rebuilt from its voltage and name; an
    adaptive arm's is the one its spec carries.
    """
    [result] = results
    evaluations = []
    for spec in result.specs:
        protection = spec.controller_protection
        policy = (protection.voltage_scaling.policy if protection.voltage_scaling
                  else ConstantVoltagePolicy(protection.voltage, name=spec.condition))
        evaluations.append(PolicyEvaluation(policy=policy,
                                            summary=result.summary(spec.condition)))
    return evaluations


def vs_evaluation(system: str, task: str,
                  policies: list[VoltagePolicy] | None = None,
                  constant_voltages: list[float] | None = None,
                  num_trials: int = 12, seed: int = 0,
                  anomaly_detection: bool = True,
                  update_interval: int = 5,
                  entropy_source: str = "predictor",
                  jobs: int = 1, out: str | None = None,
                  batch: int | None = None) -> list[PolicyEvaluation]:
    """Evaluate adaptive policies against constant-voltage baselines (Fig. 13d/f)."""
    plans = vs_evaluation_plans(system, task, policies, constant_voltages,
                                num_trials, seed, anomaly_detection,
                                update_interval, entropy_source)
    return vs_evaluation_summary(run_plans(plans, jobs=jobs, out=out, batch=batch))


def interval_sweep_plans(system: str, task: str,
                         intervals: list[int] | None = None,
                         policy: VoltagePolicy | None = None, num_trials: int = 10,
                         seed: int = 0) -> list[CampaignPlan]:
    """Declare :func:`interval_sweep`'s one campaign: a spec per interval."""
    intervals = intervals or [1, 5, 10, 20]
    policy = policy or REFERENCE_POLICIES["C"]
    source = "predictor" if system_has_predictor(system) else "oracle"
    specs = [TrialSpec(
        condition=f"interval={interval}", system=system, task=task,
        num_trials=num_trials, seed=seed,
        controller_protection=ProtectionConfig(
            anomaly_detection=True,
            voltage_scaling=VoltageScalingConfig(policy=policy, update_interval=interval,
                                                 entropy_source=source)),
        params=(("interval", str(interval)),))
        for interval in intervals]
    return [CampaignPlan(name=slugify(f"interval-sweep-{task}"), specs=specs)]


def interval_sweep_summary(results: Sequence[CampaignResult]) -> dict[int, TrialSummary]:
    """Read a finished :func:`interval_sweep` campaign back."""
    [result] = results
    return {int(dict(spec.params)["interval"]): result.summary(spec.condition)
            for spec in result.specs}


def interval_sweep(system: str, task: str, intervals: list[int] | None = None,
                   policy: VoltagePolicy | None = None, num_trials: int = 10,
                   seed: int = 0, jobs: int = 1, out: str | None = None,
                   batch: int | None = None) -> dict[int, TrialSummary]:
    """Voltage-update-interval sensitivity (Fig. 15)."""
    plans = interval_sweep_plans(system, task, intervals, policy, num_trials, seed)
    return interval_sweep_summary(run_plans(plans, jobs=jobs, out=out, batch=batch))


# ----------------------------------------------------------------------
# Fig. 16: overall evaluation across tasks
# ----------------------------------------------------------------------
@dataclass
class OverallResult:
    """Per-task summaries of one CREATE configuration."""

    label: str
    per_task: dict[str, TrialSummary] = field(default_factory=dict)

    def mean_success(self) -> float:
        return float(np.mean([s.success_rate for s in self.per_task.values()]))

    def mean_energy(self) -> float:
        return float(np.mean([s.mean_energy_j for s in self.per_task.values()]))


def _config_protections(has_predictor: bool, config: CreateConfig
                        ) -> tuple[ProtectionConfig, ProtectionConfig]:
    planner_prot = config.planner_protection()
    controller_prot = config.controller_protection()
    if controller_prot.voltage_scaling is not None and not has_predictor:
        controller_prot = ProtectionConfig(
            voltage=controller_prot.voltage,
            anomaly_detection=controller_prot.anomaly_detection,
            voltage_scaling=VoltageScalingConfig(
                policy=controller_prot.voltage_scaling.policy,
                update_interval=controller_prot.voltage_scaling.update_interval,
                entropy_source="oracle"),
            exposure_scale=controller_prot.exposure_scale)
    return planner_prot, controller_prot


def overall_evaluation_plans(systems: dict[str, str], tasks: list[str],
                             configs: dict[str, CreateConfig], num_trials: int = 10,
                             seed: int = 0) -> list[CampaignPlan]:
    """Declare :func:`overall_evaluation`'s one campaign: configuration x task."""
    specs: list[TrialSpec] = []
    for label, config in configs.items():
        system = systems[label]
        planner_prot, controller_prot = _config_protections(
            system_has_predictor(system), config)
        for task in tasks:
            specs.append(TrialSpec(condition=f"{label}/{task}", system=system, task=task,
                                   num_trials=num_trials, seed=seed,
                                   planner_protection=planner_prot,
                                   controller_protection=controller_prot,
                                   params=(("config", label), ("task", task))))
    return [CampaignPlan(name="overall-evaluation", specs=specs)]


def overall_evaluation_summary(results: Sequence[CampaignResult]
                               ) -> dict[str, OverallResult]:
    """Read a finished :func:`overall_evaluation` campaign back."""
    [result] = results
    overall: dict[str, OverallResult] = {}
    for spec in result.specs:
        label = dict(spec.params)["config"]
        overall.setdefault(label, OverallResult(label=label)).per_task[spec.task] = \
            result.summary(spec.condition)
    return overall


def overall_evaluation(systems: dict[str, str], tasks: list[str],
                       configs: dict[str, CreateConfig], num_trials: int = 10,
                       seed: int = 0, jobs: int = 1, out: str | None = None,
                       batch: int | None = None) -> dict[str, OverallResult]:
    """Success rate and energy per task for several CREATE configurations (Fig. 16a).

    ``systems`` maps a configuration label to the system it runs on (the WR
    configurations need the rotated planner); ``configs`` maps the same labels
    to the CREATE configuration.
    """
    plans = overall_evaluation_plans(systems, tasks, configs, num_trials, seed)
    return overall_evaluation_summary(run_plans(plans, jobs=jobs, out=out,
                                                batch=batch))


def minimum_voltage_search(system: str, task: str, config: CreateConfig,
                           voltages: list[float] | None = None,
                           success_threshold: float = 0.85, num_trials: int = 8,
                           seed: int = 0, jobs: int = 1, out: str | None = None,
                           batch: int | None = None
                           ) -> tuple[float, dict[float, TrialSummary]]:
    """Lowest operating voltage that sustains acceptable success (Fig. 16b).

    Both the planner and the controller run at the candidate voltage (unless
    the configuration uses VS for the controller, in which case only the
    planner voltage is swept and the VS policy handles the controller).  The
    search stops at the first failing voltage, so each candidate runs as its
    own (resumable) campaign step.
    """
    has_predictor = system_has_predictor(system)
    runner = CampaignRunner(jobs=jobs, out=out, batch=batch)
    name = slugify(f"minimum-voltage-{task}-{config.label()}")
    voltages = voltages or [0.84, 0.82, 0.80, 0.78, 0.76, 0.74, 0.72]
    summaries: dict[float, TrialSummary] = {}
    best = NOMINAL_VOLTAGE
    found = False
    for voltage in sorted(voltages, reverse=True):
        candidate = CreateConfig(
            ad=config.ad, wr=config.wr, vs_policy=config.vs_policy,
            vs_update_interval=config.vs_update_interval,
            vs_entropy_source=config.vs_entropy_source,
            planner_voltage=voltage,
            controller_voltage=None if config.vs_policy is not None else voltage,
            exposure_scale=config.exposure_scale)
        planner_prot, controller_prot = _config_protections(has_predictor, candidate)
        spec = TrialSpec(condition=f"v={float(voltage)!r}", system=system, task=task,
                         num_trials=num_trials, seed=seed,
                         planner_protection=planner_prot,
                         controller_protection=controller_prot,
                         params=(("voltage", repr(float(voltage))),))
        summary = runner.run([spec], name=name).summary(spec.condition)
        summaries[voltage] = summary
        if summary.success_rate >= success_threshold:
            best = voltage
            found = True
        else:
            break
    return (best if found else NOMINAL_VOLTAGE), summaries


# ----------------------------------------------------------------------
# Fig. 17: cross-platform generality
# ----------------------------------------------------------------------
def cross_platform_planner_eval(system: str, rotated_system: str,
                                tasks: list[str], voltage: float = 0.78,
                                num_trials: int = 8, seed: int = 0, jobs: int = 1,
                                out: str | None = None, batch: int | None = None
                                ) -> dict[str, dict[str, float]]:
    """AD+WR planner energy savings on one platform (Fig. 17a).

    Baseline: the planner must run at nominal voltage to preserve quality;
    with AD+WR it runs at ``voltage``.  Savings are computed per task from the
    planner's computational energy (the run table's per-voltage MAC columns).
    """
    energy_model = EnergyModel()
    prot = ProtectionConfig(voltage=voltage, anomaly_detection=True)
    specs: list[TrialSpec] = []
    for task in tasks:
        specs.append(TrialSpec(condition=f"{task}/baseline", system=system, task=task,
                               num_trials=num_trials, seed=seed,
                               params=(("task", task), ("arm", "baseline"))))
        specs.append(TrialSpec(condition=f"{task}/ad+wr", system=rotated_system,
                               task=task, num_trials=num_trials, seed=seed,
                               planner_protection=prot,
                               params=(("task", task), ("arm", "ad+wr"))))
    campaign = run_campaign(specs, jobs=jobs, out=out, batch=batch,
                            name=slugify(f"cross-platform-planner-{rotated_system}"))
    results: dict[str, dict[str, float]] = {}
    for task in tasks:
        base_records = campaign.records(f"{task}/baseline")
        wr_records = campaign.records(f"{task}/ad+wr")
        base_energy = float(np.mean([
            energy_model.compute_energy_j(r.planner_macs_by_voltage())
            for r in base_records]))
        wr_energy = float(np.mean([
            energy_model.compute_energy_j(r.planner_macs_by_voltage())
            for r in wr_records]))
        results[task] = {
            "baseline_success": campaign.summary(f"{task}/baseline").success_rate,
            "protected_success": campaign.summary(f"{task}/ad+wr").success_rate,
            "planner_energy_savings_percent": energy_savings_percent(base_energy, wr_energy),
        }
    return results


def cross_platform_controller_eval(system: str, tasks: list[str],
                                   policy: VoltagePolicy | None = None,
                                   num_trials: int = 8, seed: int = 0, jobs: int = 1,
                                   out: str | None = None, batch: int | None = None
                                   ) -> dict[str, dict[str, float]]:
    """AD+VS controller energy savings on one platform (Fig. 17b)."""
    energy_model = EnergyModel()
    policy = policy or REFERENCE_POLICIES["C"]
    source = "predictor" if system_has_predictor(system) else "oracle"
    prot = ProtectionConfig(anomaly_detection=True,
                            voltage_scaling=VoltageScalingConfig(policy=policy,
                                                                 entropy_source=source))
    specs: list[TrialSpec] = []
    for task in tasks:
        specs.append(TrialSpec(condition=f"{task}/baseline", system=system, task=task,
                               num_trials=num_trials, seed=seed,
                               params=(("task", task), ("arm", "baseline"))))
        specs.append(TrialSpec(condition=f"{task}/ad+vs", system=system, task=task,
                               num_trials=num_trials, seed=seed,
                               controller_protection=prot,
                               params=(("task", task), ("arm", "ad+vs"))))
    campaign = run_campaign(specs, jobs=jobs, out=out, batch=batch,
                            name=slugify(f"cross-platform-controller-{system}"))
    results: dict[str, dict[str, float]] = {}
    for task in tasks:
        base_records = campaign.records(f"{task}/baseline")
        vs_records = campaign.records(f"{task}/ad+vs")
        base_energy = float(np.mean([
            energy_model.compute_energy_j(r.controller_macs_by_voltage())
            for r in base_records]))
        vs_energy = float(np.mean([
            energy_model.compute_energy_j(r.controller_macs_by_voltage())
            for r in vs_records]))
        results[task] = {
            "baseline_success": campaign.summary(f"{task}/baseline").success_rate,
            "protected_success": campaign.summary(f"{task}/ad+vs").success_rate,
            "controller_energy_savings_percent": energy_savings_percent(base_energy, vs_energy),
        }
    return results


# ----------------------------------------------------------------------
# Fig. 18: chip-level energy breakdown (paper-scale models)
# ----------------------------------------------------------------------
def chip_energy_breakdown(compute_savings_percent: dict[str, float] | None = None
                          ) -> dict[str, dict[str, float]]:
    """Compute/memory energy split and chip-level savings per paper-scale model.

    ``compute_savings_percent`` maps model keys to the computational-energy
    savings achieved by CREATE (defaults to the paper's reported per-technique
    numbers when not supplied by a live experiment).
    """
    accelerator = Accelerator()
    energy = EnergyModel()
    battery = BatteryModel()
    savings = compute_savings_percent or {
        "jarvis_planner": 50.7, "openvla_planner": 50.7, "roboflamingo_planner": 50.7,
        "jarvis_controller": 39.3, "rt1_controller": 39.3, "octo_controller": 39.3,
    }
    networks = {
        "jarvis_planner": platforms.planner_inference_workloads("jarvis"),
        "openvla_planner": platforms.planner_inference_workloads("openvla"),
        "roboflamingo_planner": platforms.planner_inference_workloads("roboflamingo"),
        "jarvis_controller": platforms.controller_inference_workloads("jarvis"),
        "rt1_controller": platforms.controller_inference_workloads("rt1"),
        "octo_controller": platforms.controller_inference_workloads("octo"),
    }
    out: dict[str, dict[str, float]] = {}
    for key, workloads in networks.items():
        invocations = 1 if key.endswith("planner") else 100
        traffic = accelerator.simulate_network(key, workloads, invocations=invocations)
        breakdown = energy.breakdown({NOMINAL_VOLTAGE: traffic.macs},
                                     traffic.total_sram_bytes, traffic.total_dram_bytes)
        compute_fraction = breakdown.compute_fraction()
        compute_saving = savings.get(key, 0.0) / 100.0
        chip_saving = compute_fraction * compute_saving
        out[key] = {
            "compute_fraction": compute_fraction,
            "memory_fraction": 1.0 - compute_fraction,
            "compute_savings_percent": compute_saving * 100.0,
            "chip_level_savings_percent": chip_saving * 100.0,
            "battery_life_extension_percent": battery.life_extension_percent(
                1.0 - chip_saving),
        }
    return out


# ----------------------------------------------------------------------
# Fig. 19: uniform vs. hardware-specific error models
# ----------------------------------------------------------------------
def error_model_comparison(system: str, task: str, target: str,
                           voltages: list[float] | None = None, num_trials: int = 12,
                           seed: int = 0, jobs: int = 1, out: str | None = None,
                           batch: int | None = None) -> dict[str, dict[float, float]]:
    """Success under the voltage-LUT model vs. a uniform model of equal mean BER."""
    timing = TimingErrorModel()
    voltages = voltages or [0.80, 0.775, 0.75, 0.725]
    specs: list[TrialSpec] = []
    for voltage in voltages:
        mean_ber = timing.mean_bit_error_rate(voltage)
        protections = {
            "uniform": ProtectionConfig(error_model=UniformErrorModel(mean_ber)),
            "hardware": ProtectionConfig(error_model=VoltageErrorModel(voltage, timing)),
        }
        for label, protection in protections.items():
            kwargs = {"planner_protection": protection} if target == "planner" \
                else {"controller_protection": protection}
            specs.append(TrialSpec(
                condition=f"{label}/v={float(voltage)!r}", system=system, task=task,
                num_trials=num_trials, seed=seed,
                params=(("model", label), ("voltage", repr(float(voltage)))),
                **kwargs))
    campaign = run_campaign(specs, jobs=jobs, out=out, batch=batch,
                            name=slugify(f"error-models-{task}-{target}"))
    results: dict[str, dict[float, float]] = {"uniform": {}, "hardware": {}}
    for spec in specs:
        label, voltage = dict(spec.params)["model"], float(dict(spec.params)["voltage"])
        results[label][voltage] = campaign.summary(spec.condition).success_rate
    return results


# ----------------------------------------------------------------------
# Fig. 20: comparison with existing techniques
# ----------------------------------------------------------------------
def baseline_comparison_plans(plain_system: str, rotated_system: str,
                              task: str, voltages: list[float] | None = None,
                              num_trials: int = 8, seed: int = 0) -> list[CampaignPlan]:
    """Declare :func:`baseline_comparison`'s one campaign: the clean run, then
    the CREATE and ThUnderVolt arms per voltage."""
    voltages = voltages or [0.85, 0.80, 0.775, 0.75]
    specs: list[TrialSpec] = [TrialSpec(condition="clean", system=plain_system, task=task,
                                        num_trials=num_trials, seed=seed,
                                        params=(("arm", "clean"),))]
    for voltage in voltages:
        protection = ProtectionConfig(voltage=voltage, anomaly_detection=True)
        specs.append(TrialSpec(
            condition=f"create/v={float(voltage)!r}", system=rotated_system, task=task,
            num_trials=num_trials, seed=seed,
            planner_protection=protection, controller_protection=protection,
            params=(("arm", "create"), ("voltage", repr(float(voltage))))))
        tv_protection = ProtectionConfig(voltage=voltage, injector_kind="thundervolt")
        specs.append(TrialSpec(
            condition=f"thundervolt/v={float(voltage)!r}", system=plain_system, task=task,
            num_trials=num_trials, seed=seed,
            planner_protection=tv_protection, controller_protection=tv_protection,
            params=(("arm", "thundervolt"), ("voltage", repr(float(voltage))))))
    return [CampaignPlan(name=slugify(f"baseline-comparison-{task}"), specs=specs)]


def baseline_comparison_summary(results: Sequence[CampaignResult]
                                ) -> dict[str, dict[float, dict]]:
    """Read a finished :func:`baseline_comparison` campaign back, modelling
    DMR and ABFT from its clean run."""
    [result] = results
    timing = TimingErrorModel()
    energy_model = EnergyModel()
    dmr, abft = DmrModel(), AbftModel()
    clean_summary = result.summary("clean")
    voltages = [float(dict(spec.params)["voltage"]) for spec in result.specs
                if dict(spec.params)["arm"] == "create"]
    arms: dict[str, dict[float, dict]] = {"create": {}, "dmr": {}, "thundervolt": {}, "abft": {}}
    for voltage in voltages:
        rates = timing.bit_error_rates(voltage)
        element_rate = float(1.0 - np.prod(1.0 - rates))

        # CREATE: AD+WR planner, AD controller, both at the candidate voltage.
        summary = result.summary(f"create/v={voltage!r}")
        arms["create"][voltage] = {
            "success_rate": summary.success_rate,
            "energy_j": summary.mean_energy_j * 1.0024,
        }

        # DMR / ABFT: reliability preserved (errors corrected), energy multiplied.
        base_energy = clean_summary.mean_energy_j * energy_model.voltage_scale(voltage) \
            / energy_model.voltage_scale(NOMINAL_VOLTAGE)
        arms["dmr"][voltage] = {
            "success_rate": clean_summary.success_rate,
            "energy_j": base_energy * dmr.energy_multiplier(element_rate),
        }
        abft_success = clean_summary.success_rate if abft.corrects_errors(element_rate) \
            else 0.0
        arms["abft"][voltage] = {
            "success_rate": abft_success,
            "energy_j": base_energy * abft.energy_multiplier(element_rate),
        }

        # ThUnderVolt: skip-on-error behaviour simulated with its injector.
        tv_summary = result.summary(f"thundervolt/v={voltage!r}")
        arms["thundervolt"][voltage] = {
            "success_rate": tv_summary.success_rate,
            "energy_j": tv_summary.mean_energy_j * 1.05,
        }
    return arms


def baseline_comparison(plain_system: str, rotated_system: str,
                        task: str, voltages: list[float] | None = None,
                        num_trials: int = 8, seed: int = 0, jobs: int = 1,
                        out: str | None = None, batch: int | None = None
                        ) -> dict[str, dict[float, dict]]:
    """CREATE vs. DMR / ThUnderVolt / ABFT: success and energy across voltages."""
    plans = baseline_comparison_plans(plain_system, rotated_system, task, voltages,
                                      num_trials, seed)
    return baseline_comparison_summary(run_plans(plans, jobs=jobs, out=out,
                                                 batch=batch))


# ----------------------------------------------------------------------
# Table 5 / Table 6
# ----------------------------------------------------------------------
def repetition_study_plans(system: str, task: str, ber: float,
                           repetition_counts: list[int], seed: int = 0
                           ) -> list[CampaignPlan]:
    """Declare :func:`repetition_study`'s one campaign: the largest count's seeds."""
    spec = TrialSpec(
        condition=f"repetitions/ber={float(ber)!r}", system=system,
        task=task, num_trials=max(repetition_counts), seed=seed,
        controller_protection=ProtectionConfig(error_model=UniformErrorModel(ber)),
        params=(("ber", repr(float(ber))),))
    return [CampaignPlan(name=slugify(f"repetition-study-{task}"), specs=[spec])]


def repetition_study_summary(results: Sequence[CampaignResult],
                             repetition_counts: list[int]) -> dict[int, float]:
    """Success rate over each count's first trials of a finished campaign."""
    [result] = results
    records = result.records(result.specs[0].condition)
    return {count: float(np.mean([r.success for r in records[:count]]))
            for count in repetition_counts}


def repetition_study(system: str, task: str, ber: float,
                     repetition_counts: list[int] | None = None,
                     seed: int = 0, jobs: int = 1, out: str | None = None,
                     batch: int | None = None) -> dict[int, float]:
    """Measured success rate as the number of repetitions grows (Table 5)."""
    repetition_counts = repetition_counts or [20, 40, 60, 80, 100]
    plans = repetition_study_plans(system, task, ber, repetition_counts, seed)
    return repetition_study_summary(
        run_plans(plans, jobs=jobs, out=out, batch=batch), repetition_counts)


def quantization_study_plans(systems: dict[str, str] | None = None,
                             task: str = "stone", bers: list[float] | None = None,
                             num_trials: int = 10, seed: int = 0) -> list[CampaignPlan]:
    """Declare :func:`quantization_study`'s one campaign: label x BER.

    ``systems`` maps a quantization label to a registry key; ``None``
    means the built-in ``jarvis-rotated`` / ``jarvis-rotated-int4``.
    """
    if systems is None:
        systems = {str(INT8): "jarvis-rotated", str(INT4): "jarvis-rotated-int4"}
    bers = bers if bers is not None else [1e-4, 1e-3, 3e-3]
    specs: list[TrialSpec] = []
    for label, key in systems.items():
        for ber in bers:
            protection = ProtectionConfig(error_model=UniformErrorModel(ber),
                                          anomaly_detection=True)
            specs.append(TrialSpec(
                condition=f"{label}/ber={float(ber)!r}", system=key, task=task,
                num_trials=num_trials, seed=seed, planner_protection=protection,
                params=(("quant", label), ("ber", repr(float(ber))))))
    return [CampaignPlan(name=slugify(f"quantization-study-{task}"), specs=specs)]


def quantization_study_summary(results: Sequence[CampaignResult]
                               ) -> dict[str, dict[float, float]]:
    """Read a finished :func:`quantization_study` campaign back."""
    [result] = results
    rates: dict[str, dict[float, float]] = {}
    for spec in result.specs:
        params = dict(spec.params)
        rates.setdefault(params["quant"], {})[float(params["ber"])] = \
            result.summary(spec.condition).success_rate
    return rates


def quantization_study(systems: dict[str, str] | None = None, task: str = "stone",
                       bers: list[float] | None = None, num_trials: int = 10,
                       seed: int = 0, jobs: int = 1, out: str | None = None,
                       batch: int | None = None) -> dict[str, dict[float, float]]:
    """AD+WR planner success under INT8 vs. INT4 quantization (Table 6).

    ``systems`` maps a quantization label to a registry key; ``None`` runs
    the built-in ``jarvis-rotated`` / ``jarvis-rotated-int4``.
    """
    plans = quantization_study_plans(systems, task, bers, num_trials, seed)
    return quantization_study_summary(run_plans(plans, jobs=jobs, out=out,
                                                batch=batch))


# ----------------------------------------------------------------------
# Fig. 12 / Tables 2-4: hardware platform
# ----------------------------------------------------------------------
def hardware_report() -> dict:
    """Accelerator summary: area/power blocks, overheads, latencies (Fig. 12, Table 3)."""
    accelerator = Accelerator()
    networks = {
        "planner": platforms.planner_inference_workloads("jarvis"),
        "controller": platforms.controller_inference_workloads("jarvis"),
        "predictor": platforms.predictor_inference_workloads(),
    }
    report = accelerator.report(networks)
    return {
        "peak_tops": report.peak_tops,
        "blocks": {b.name: {"area_mm2": b.area_mm2, "power_w": b.power_w}
                   for b in report.blocks},
        "total_area_mm2": report.total_area_mm2,
        "ad_area_overhead": report.ad_area_overhead,
        "ad_power_overhead": report.ad_power_overhead,
        "ldo_area_overhead": report.ldo_area_overhead,
        "ldo_power_overhead": report.ldo_power_overhead,
        "latencies_ms": report.latencies_ms,
        "macs": report.macs,
        "voltage_switch_latency_ns": report.voltage_switch_latency_ns,
        "ldo_spec": {
            "v_min": accelerator.config.ldo.v_min,
            "v_max": accelerator.config.ldo.v_max,
            "step_v": accelerator.config.ldo.step_v,
            "response_ns_per_50mv": accelerator.config.ldo.response_ns_per_50mv,
            "peak_current_efficiency": accelerator.config.ldo.peak_current_efficiency,
        },
    }


def model_table() -> dict[str, dict[str, float]]:
    """Model parameters and computational requirements (Table 4)."""
    out: dict[str, dict[str, float]] = {}
    arch_map = {
        "jarvis_planner": platforms.PAPER_PLANNER_ARCHS["jarvis"],
        "openvla_planner": platforms.PAPER_PLANNER_ARCHS["openvla"],
        "roboflamingo_planner": platforms.PAPER_PLANNER_ARCHS["roboflamingo"],
        "jarvis_controller": platforms.PAPER_CONTROLLER_ARCHS["jarvis"],
        "rt1_controller": platforms.PAPER_CONTROLLER_ARCHS["rt1"],
        "octo_controller": platforms.PAPER_CONTROLLER_ARCHS["octo"],
    }
    for key, arch in arch_map.items():
        stats = platforms.paper_stats(key)
        if key.endswith("planner"):
            workloads = platforms.planner_inference_workloads(key.removesuffix("_planner"))
        else:
            workloads = platforms.controller_inference_workloads(key.removesuffix("_controller"))
        gops = 2 * sum(w.macs for w in workloads) / 1e9
        out[key] = {
            "paper_params_millions": stats.params_millions,
            "modelled_params_millions": arch.params_millions(),
            "paper_gops": stats.gops_int8,
            "modelled_gops": gops,
        }
    out["entropy_predictor"] = {
        "paper_params_millions": platforms.paper_stats("entropy_predictor").params_millions,
        "modelled_params_millions": 0.055,
        "paper_gops": platforms.paper_stats("entropy_predictor").gops_int8,
        "modelled_gops": 2 * sum(w.macs for w in platforms.predictor_inference_workloads()) / 1e9,
    }
    return out
