"""Autonomy-adaptive voltage scaling demo (paper Sec. 5.3 / 6.5).

Runs one mission with entropy-driven voltage scaling and prints the voltage
schedule the digital LDO applied, then compares reference policies A-F against
constant-voltage operation.

Run with ``python examples/voltage_scaling_demo.py``.
"""

from __future__ import annotations

import numpy as np

from repro.agents.registry import get_system
from repro.core import ProtectionConfig, REFERENCE_POLICIES, VoltageScalingConfig
from repro.eval.experiments import vs_evaluation

TASK = "wooden"


def main() -> None:
    executor = get_system("jarvis").executor()

    print("One mission with policy C (entropy predictor drives the LDO):")
    protection = ProtectionConfig(
        anomaly_detection=True,
        voltage_scaling=VoltageScalingConfig(policy=REFERENCE_POLICIES["C"],
                                             update_interval=5,
                                             entropy_source="predictor"))
    result = executor.run_trial(TASK, seed=3, controller_protection=protection)
    entropies, critical, voltages = result.entropy_trace.as_arrays()
    print(f"  success={result.success}, steps={result.steps}, "
          f"effective voltage={result.effective_voltage():.3f} V")
    print(f"  voltage schedule: min={result.voltage_summary['min_voltage']:.2f} V, "
          f"mean={result.voltage_summary['mean_voltage']:.3f} V, "
          f"switches={int(result.voltage_summary['num_switches'])}")
    print(f"  mean entropy on critical steps:     {entropies[critical].mean():.2f} "
          f"(mean voltage {voltages[critical].mean():.3f} V)")
    print(f"  mean entropy on non-critical steps: {entropies[~critical].mean():.2f} "
          f"(mean voltage {voltages[~critical].mean():.3f} V)")

    print("\nPolicies A-F vs. constant voltages (success rate / effective voltage):")
    evaluations = vs_evaluation("jarvis", TASK, num_trials=8, seed=0)
    for evaluation in evaluations:
        print(f"  {evaluation.policy.name:<16} success={evaluation.success_rate:4.2f}  "
              f"effective V={evaluation.effective_voltage:.3f}")

    best = min((e for e in evaluations if e.success_rate >= 0.9),
               key=lambda e: e.effective_voltage, default=None)
    if best is not None:
        print(f"\nBest policy preserving >=90% success: {best.policy.name} "
              f"at {best.effective_voltage:.3f} V effective.")


if __name__ == "__main__":
    np.seterr(over="ignore")
    main()
