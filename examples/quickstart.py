"""Quickstart: build the JARVIS-1-style system and run one protected mission.

Builds (or loads from the cache) the trained planner/controller/predictor,
deploys them with INT8 quantization, and compares three operating points on
the ``wooden`` Minecraft task:

1. nominal voltage (error-free baseline),
2. aggressive 0.75 V without protection,
3. aggressive voltage with the full CREATE stack (AD + WR + adaptive VS).

Run with ``python examples/quickstart.py``.
"""

from __future__ import annotations

import numpy as np

from repro.agents import build_jarvis_system
from repro.core import CreateConfig, ProtectionConfig, default_policy
from repro.eval import summarize_trials

NUM_TRIALS = 10
TASK = "wooden"
LOW_VOLTAGE = 0.75


def main() -> None:
    print("Building the JARVIS-1 surrogate (first run trains and caches the models)...")
    plain = build_jarvis_system(rotate_planner=False)
    rotated = build_jarvis_system(rotate_planner=True)

    # Every configuration runs the same trials, seeds 0..NUM_TRIALS-1, as the
    # lanes of one group.
    trials = [(TASK, seed) for seed in range(NUM_TRIALS)]

    # 1. Error-free baseline at nominal voltage.
    baseline = summarize_trials(plain.executor().run_trial_group(trials))

    # 2. Unprotected aggressive voltage scaling.
    unprotected_cfg = ProtectionConfig(voltage=LOW_VOLTAGE)
    unprotected = summarize_trials(plain.executor().run_trial_group(
        [(task, seed, unprotected_cfg, unprotected_cfg) for task, seed in trials]))

    # 3. Full CREATE: anomaly detection, weight-rotated planner, adaptive voltage scaling.
    config = CreateConfig(ad=True, wr=True, vs_policy=default_policy(),
                          planner_voltage=0.78)
    create = summarize_trials(rotated.executor().run_trial_group(
        [(task, seed, config.planner_protection(), config.controller_protection())
         for task, seed in trials]))

    print(f"\nTask: {TASK}  ({NUM_TRIALS} trials each)")
    header = f"{'configuration':<28}{'success':>10}{'avg steps':>12}{'energy (mJ)':>14}{'eff. V':>9}"
    print(header)
    print("-" * len(header))
    for name, summary in (("nominal voltage (clean)", baseline),
                          (f"unprotected @ {LOW_VOLTAGE} V", unprotected),
                          ("CREATE (AD+WR+VS)", create)):
        print(f"{name:<28}{summary.success_rate:>10.2f}{summary.average_steps:>12.0f}"
              f"{summary.mean_energy_j * 1e3:>14.3f}{summary.effective_voltage:>9.3f}")

    savings = 100.0 * (1.0 - create.mean_energy_j / baseline.mean_energy_j)
    print(f"\nCREATE computational energy savings vs. nominal voltage: {savings:.1f}% "
          f"at iso task quality (success {create.success_rate:.2f} vs {baseline.success_rate:.2f}).")


if __name__ == "__main__":
    np.seterr(over="ignore")
    main()
