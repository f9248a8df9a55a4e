"""Task-quality and efficiency metrics aggregated over repeated trials."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..agents.executor import TrialResult
from ..hardware.energy import DEFAULT_ENERGY_MODEL, EnergyModel

__all__ = ["TrialSummary", "aggregate_rows", "summarize_trials", "confidence_interval",
           "energy_savings_percent", "Z_SCORES"]

#: Two-sided standard-normal quantiles z such that P(|Z| <= z) = confidence.
#: Hardcoded (to the shortest repr of the true double) so no result depends
#: on a statistics library or its version; ``tests/test_analysis.py``
#: cross-checks them against ``scipy.stats.norm.ppf``.
Z_SCORES = {
    0.80: 1.2815515655446004,
    0.90: 1.6448536269514722,
    0.95: 1.959963984540054,
    0.99: 2.5758293035489004,
    0.999: 3.2905267314919255,
}


def _z_score(confidence: float) -> float:
    try:
        return Z_SCORES[confidence]
    except KeyError:
        raise ValueError(
            f"unsupported confidence {confidence!r}; pick one of "
            f"{sorted(Z_SCORES)} (the z table is hardcoded so packs stay "
            "byte-deterministic across scipy versions)") from None


@dataclass(frozen=True)
class TrialSummary:
    """Aggregate of a batch of repeated trials (one experimental condition)."""

    num_trials: int
    success_rate: float
    success_ci: float
    average_steps: float
    average_steps_successful: float
    mean_energy_j: float
    effective_voltage: float
    mean_planner_invocations: float
    mean_entropy: float

    def as_dict(self) -> dict[str, float]:
        return {
            "num_trials": self.num_trials,
            "success_rate": self.success_rate,
            "success_ci": self.success_ci,
            "average_steps": self.average_steps,
            "average_steps_successful": self.average_steps_successful,
            "mean_energy_j": self.mean_energy_j,
            "effective_voltage": self.effective_voltage,
            "mean_planner_invocations": self.mean_planner_invocations,
            "mean_entropy": self.mean_entropy,
        }


def confidence_interval(successes: int, trials: int, confidence: float = 0.95) -> float:
    """Half-width of the normal-approximation CI of a success rate."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    rate = successes / trials
    z = _z_score(confidence)
    return float(z * np.sqrt(max(rate * (1.0 - rate), 1e-12) / trials))


def aggregate_rows(rows: list[tuple[bool, int, float, float, dict[float, float], float, bool]],
                   energy_model: EnergyModel | None = None) -> TrialSummary:
    """Shared aggregation core behind :func:`summarize_trials` and the run
    table's ``summarize_records`` — one implementation so in-memory and
    resumed-from-disk summaries cannot drift apart.

    Each row is ``(success, steps, planner_invocations, energy_j,
    macs_by_voltage, mean_entropy, has_entropy)`` for one trial.
    """
    if not rows:
        raise ValueError("cannot summarize an empty result list")
    model = energy_model or DEFAULT_ENERGY_MODEL
    successes = [row for row in rows if row[0]]
    energies = [row[3] for row in rows]
    merged_macs: dict[float, float] = {}
    for row in rows:
        for voltage, macs in row[4].items():
            merged_macs[voltage] = merged_macs.get(voltage, 0.0) + macs
    entropies = [row[5] for row in rows if row[6]]
    return TrialSummary(
        num_trials=len(rows),
        success_rate=len(successes) / len(rows),
        success_ci=confidence_interval(len(successes), len(rows)),
        average_steps=float(np.mean([row[1] for row in rows])),
        average_steps_successful=float(np.mean([row[1] for row in successes]))
        if successes else float("nan"),
        mean_energy_j=float(np.mean(energies)),
        effective_voltage=model.effective_voltage(merged_macs),
        mean_planner_invocations=float(np.mean([row[2] for row in rows])),
        mean_entropy=float(np.mean(entropies)) if entropies else float("nan"),
    )


def summarize_trials(results: list[TrialResult],
                     energy_model: EnergyModel | None = None) -> TrialSummary:
    """Collapse repeated trials into the metrics the paper reports.

    Success rate counts completed trials; average steps follows the paper's
    convention of averaging over *successful* trials (with the all-trials
    average also reported); energy includes failed trials at full execution.
    """
    model = energy_model or DEFAULT_ENERGY_MODEL
    rows = [(r.success, r.steps, r.planner_invocations,
             r.computational_energy_j(model), r.macs_by_voltage(),
             r.entropy_trace.mean_entropy() if len(r.entropy_trace) else float("nan"),
             bool(len(r.entropy_trace)))
            for r in results]
    return aggregate_rows(rows, model)


def energy_savings_percent(baseline_energy_j: float, improved_energy_j: float) -> float:
    """Relative energy saving of an improved configuration over a baseline."""
    if baseline_energy_j <= 0:
        raise ValueError("baseline energy must be positive")
    return (1.0 - improved_energy_j / baseline_energy_j) * 100.0
