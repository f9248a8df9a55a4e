"""Resilience characterization walkthrough (paper Sec. 4, Figs. 5-7).

Sweeps the bit error rate injected into the planner and the controller of the
JARVIS-1 surrogate and prints the characterization insights:

* Insight 1 — the controller tolerates far higher BERs than the planner;
* Insight 2 — pre-normalization planner components (O/Down) are the weak spot;
* Insight 3 — resilience depends on the subtask and the execution stage.

Run with ``python examples/resilience_characterization.py``.
"""

from __future__ import annotations

from repro.agents.registry import get_system
from repro.eval import ber_sweep, format_sweep
from repro.eval.resilience import (
    PLANNER_CHARACTERIZATION_EXPOSURE,
    component_sweep,
    stage_entropy_profile,
    subtask_sweep,
)

NUM_TRIALS = 8


def main() -> None:
    print("Insight 1: planner vs. controller resilience (task `wooden`)")
    planner_sweep = ber_sweep("jarvis", "wooden", [1e-8, 1e-7, 1e-6], target="planner",
                              num_trials=NUM_TRIALS,
                              exposure_scale=PLANNER_CHARACTERIZATION_EXPOSURE,
                              label="planner (paper-scale BER axis)")
    controller_sweep = ber_sweep("jarvis", "wooden", [1e-5, 1e-4, 1e-3], target="controller",
                                 num_trials=NUM_TRIALS, label="controller")
    print(format_sweep({"planner": planner_sweep}, "success_rate"))
    print(format_sweep({"controller": controller_sweep}, "success_rate"))
    print(f"planner 50% threshold:    {planner_sweep.failure_threshold():.1e}")
    print(f"controller 50% threshold: {controller_sweep.failure_threshold():.1e}\n")

    print("Insight 2: component-wise planner resilience")
    groups = {"K": ("*.k",), "O+Down": ("*.o", "*.down")}
    components = component_sweep("jarvis", "wooden", [1e-3, 3e-3], groups,
                                 target="planner", num_trials=NUM_TRIALS)
    print(format_sweep(components, "success_rate"))
    print()

    print("Insight 3a: subtask-dependent resilience (controller injection)")
    subtasks = subtask_sweep("jarvis", ["log", "stone", "wool", "chicken"],
                             [6e-4, 1.5e-3], num_trials=NUM_TRIALS)
    print(format_sweep(subtasks, "success_rate"))
    print()

    print("Insight 3b: stage-dependent criticality (entropy separation)")
    profile = stage_entropy_profile(get_system("jarvis"), "wooden", num_trials=4)
    for key, value in profile.items():
        print(f"  {key}: {value:.3f}")


if __name__ == "__main__":
    main()
