"""Resilience-characterization sweeps (paper Sec. 4, Figs. 5-7).

These functions answer the paper's three characterization questions by
sweeping the BER of a uniform error model and measuring task quality:

* Q1 — planner vs. controller resilience (:func:`ber_sweep`),
* Q2 — per-component resilience inside each model (:func:`component_sweep`)
  and the activation/normalization analysis (:func:`activation_study`),
* Q3 — subtask- and stage-dependent resilience (:func:`subtask_sweep`,
  :func:`stage_entropy_profile`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..agents.jarvis import EmbodiedSystem
from ..core.create import ProtectionConfig
from ..faults.models import UniformErrorModel
from .campaign import CampaignResult, TrialSpec, run_plans, slugify
from .metrics import TrialSummary
from .scheduler import CampaignPlan

__all__ = [
    "SweepPoint",
    "SweepResult",
    "ber_sweep",
    "ber_sweep_plans",
    "ber_sweep_summary",
    "component_sweep",
    "subtask_sweep",
    "activation_study",
    "stage_entropy_profile",
]

#: Default exposure compensation of the planner in characterization sweeps.
#: The paper's planner produces ~1e4x more GEMM output elements per invocation
#: than the surrogate, so its per-bit rates are scaled up to keep the expected
#: number of corrupted elements per invocation comparable; the controller
#: surrogate needs no compensation (see EXPERIMENTS.md).
PLANNER_CHARACTERIZATION_EXPOSURE = 1.0e4


@dataclass(frozen=True)
class SweepPoint:
    """Task quality at one BER."""

    ber: float
    summary: TrialSummary


@dataclass
class SweepResult:
    """A full BER sweep for one condition (model under test, task, protection)."""

    label: str
    task: str
    points: list[SweepPoint] = field(default_factory=list)

    def bers(self) -> np.ndarray:
        return np.array([p.ber for p in self.points])

    def success_rates(self) -> np.ndarray:
        return np.array([p.summary.success_rate for p in self.points])

    def average_steps(self) -> np.ndarray:
        return np.array([p.summary.average_steps for p in self.points])

    def failure_threshold(self, level: float = 0.5) -> float:
        """Smallest swept BER whose success rate falls below ``level``."""
        for point in sorted(self.points, key=lambda p: p.ber):
            if point.summary.success_rate < level:
                return point.ber
        return float("inf")


def _protection(ber: float, anomaly_detection: bool, exposure: float,
                components: tuple[str, ...] | None = None) -> ProtectionConfig:
    return ProtectionConfig(
        error_model=UniformErrorModel(ber),
        anomaly_detection=anomaly_detection,
        exposure_scale=exposure,
        target_components=components,
    )


def ber_sweep_plans(system: str, task: str, bers: list[float],
                    target: str = "controller", num_trials: int = 20, seed: int = 0,
                    anomaly_detection: bool = False, exposure_scale: float = 1.0,
                    components: tuple[str, ...] | None = None,
                    label: str | None = None) -> list[CampaignPlan]:
    """Declare :func:`ber_sweep`'s one campaign, a spec per BER, building nothing."""
    if target not in ("planner", "controller"):
        raise ValueError("target must be 'planner' or 'controller'")
    label = label or f"{target}-{'AD' if anomaly_detection else 'noAD'}"
    specs = []
    for ber in bers:
        protection = _protection(ber, anomaly_detection, exposure_scale, components)
        kwargs = {"planner_protection": protection} if target == "planner" \
            else {"controller_protection": protection}
        specs.append(TrialSpec(
            condition=f"{label}/ber={float(ber)!r}", system=system, task=task,
            num_trials=num_trials, seed=seed,
            params=(("label", label), ("ber", repr(float(ber))), ("target", target)),
            **kwargs))
    return [CampaignPlan(name=slugify(f"ber-sweep-{label}-{task}-{target}"),
                         specs=specs)]


def ber_sweep_summary(results: Sequence[CampaignResult]) -> SweepResult:
    """Read a finished :func:`ber_sweep` campaign back as its :class:`SweepResult`."""
    [result] = results
    first = result.specs[0]
    return SweepResult(label=dict(first.params)["label"], task=first.task, points=[
        SweepPoint(ber=float(dict(spec.params)["ber"]),
                   summary=result.summary(spec.condition)) for spec in result.specs])


def ber_sweep(system: str, task: str, bers: list[float],
              target: str = "controller", num_trials: int = 20, seed: int = 0,
              anomaly_detection: bool = False, exposure_scale: float = 1.0,
              components: tuple[str, ...] | None = None,
              label: str | None = None, jobs: int = 1,
              out: str | None = None, batch: int | None = None) -> SweepResult:
    """Sweep the BER injected into one model (planner or controller).

    ``system`` is a registry key (see :mod:`repro.agents.registry`; add a
    custom system with :func:`~repro.agents.registry.register_system`); the
    sweep runs as a campaign, so ``jobs`` parallelizes over (BER, seed)
    cells, ``batch`` groups cells per worker task, and ``out`` persists the
    run table for resume.
    """
    plans = ber_sweep_plans(system, task, bers, target, num_trials, seed,
                            anomaly_detection, exposure_scale, components, label)
    return ber_sweep_summary(run_plans(plans, jobs=jobs, out=out, batch=batch))


def component_sweep(system: str, task: str, bers: list[float],
                    component_groups: dict[str, tuple[str, ...]],
                    target: str = "planner", num_trials: int = 12, seed: int = 0,
                    exposure_scale: float = 1.0, jobs: int = 1,
                    out: str | None = None,
                    batch: int | None = None) -> dict[str, SweepResult]:
    """Inject errors into individual network components (paper Fig. 5e-h).

    ``component_groups`` maps a label (e.g. ``"K"``) to glob patterns matching
    the quantized component names (e.g. ``("*.k",)``).
    """
    results: dict[str, SweepResult] = {}
    for label, patterns in component_groups.items():
        results[label] = ber_sweep(
            system, task, bers, target=target, num_trials=num_trials, seed=seed,
            exposure_scale=exposure_scale, components=patterns, label=label,
            jobs=jobs, out=out, batch=batch)
    return results


def subtask_sweep(system: str, subtask_tasks: list[str], bers: list[float],
                  num_trials: int = 12, seed: int = 0, jobs: int = 1,
                  out: str | None = None,
                  batch: int | None = None) -> dict[str, SweepResult]:
    """Controller resilience per subtask family (paper Fig. 6).

    The paper evaluates single-subtask workloads (``log``, ``stone``, ``iron``,
    ``coal``, ``wool``, ``chicken``); we reuse the corresponding tasks of the
    Minecraft suite, injecting errors only into the controller.
    """
    results: dict[str, SweepResult] = {}
    for task in subtask_tasks:
        results[task] = ber_sweep(system, task, bers, target="controller",
                                  num_trials=num_trials, seed=seed, label=task,
                                  jobs=jobs, out=out, batch=batch)
    return results


def activation_study(system: EmbodiedSystem, task: str = "wooden",
                     ber: float = 1e-3, seed: int = 0) -> dict[str, dict[str, float]]:
    """Pre-normalization activation statistics with and without a fault.

    Reproduces the mechanism of paper Fig. 5(i-l): the planner's activations
    carry systematic outliers, so a single fault skews its normalization
    statistics far more than the controller's.
    """
    planner = system.planner
    controller = system.controller
    if planner is None:
        raise ValueError("activation_study requires a system with a planner")
    from ..agents.executor import build_protection_hooks
    from ..env.subtasks import ALL_SUBTASKS
    from ..env.world import EmbodiedWorld

    def norm_stats(activations: dict[str, np.ndarray]) -> tuple[float, float, float]:
        key = sorted(activations)[0]
        values = activations[key]
        return (float(np.abs(values).max() / max(np.abs(values).mean(), 1e-12)),
                float(values.mean()), float(values.std()))

    clean_planner = planner.capture_activations(task, 0, quantized=True)
    hooks, _, _ = build_protection_hooks(
        ProtectionConfig(error_model=UniformErrorModel(ber)),
        np.random.default_rng(seed))
    faulty_planner = planner.capture_activations(
        task, 0, context=planner.kernel_context(hooks))

    world = EmbodiedWorld(system.suite.get(task), system.registry)
    subtask = system.suite.get(task).plan[0]
    world.set_subtask(subtask)
    token = ALL_SUBTASKS.token_id(subtask)
    observation = world.observation()
    clean_controller = controller.capture_activations(token, observation, quantized=True)
    hooks2, _, _ = build_protection_hooks(
        ProtectionConfig(error_model=UniformErrorModel(ber)),
        np.random.default_rng(seed + 1))
    faulty_controller = controller.capture_activations(
        token, observation, context=controller.kernel_context(hooks2))

    out: dict[str, dict[str, float]] = {}
    for name, activations in (("planner_clean", clean_planner),
                              ("planner_faulty", faulty_planner),
                              ("controller_clean", clean_controller),
                              ("controller_faulty", faulty_controller)):
        outlier, mean, std = norm_stats(activations)
        out[name] = {"outlier_ratio": outlier, "mu": mean, "sigma": std}
    return out


def stage_entropy_profile(system: EmbodiedSystem, task: str = "wooden",
                          num_trials: int = 5, seed: int = 0) -> dict[str, float]:
    """Mean clean-controller entropy on critical vs. non-critical steps (Fig. 7/10)."""
    executor = system.executor()
    critical: list[float] = []
    non_critical: list[float] = []
    for index in range(num_trials):
        result = executor.run_trial(task, seed=seed + index)
        entropies, flags, _ = result.entropy_trace.as_arrays()
        critical.extend(entropies[flags])
        non_critical.extend(entropies[~flags])
    return {
        "critical_mean_entropy": float(np.mean(critical)) if critical else float("nan"),
        "non_critical_mean_entropy": float(np.mean(non_critical)) if non_critical else float("nan"),
        "separation": float(np.mean(non_critical) - np.mean(critical))
        if critical and non_critical else float("nan"),
    }
