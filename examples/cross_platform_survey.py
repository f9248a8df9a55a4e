"""Cross-platform generality survey (paper Sec. 6.7, Fig. 17).

Applies the CREATE planner protections (AD + WR) to the OpenVLA and
RoboFlamingo surrogates on LIBERO / CALVIN tasks, and the controller
protections (AD + VS) to the Octo and RT-1 surrogates on OXE tasks, reporting
per-task energy savings at preserved task quality.

The first run trains and caches the four additional platform surrogates, which
takes a couple of minutes; later runs are fast.

Run with ``python examples/cross_platform_survey.py``.
"""

from __future__ import annotations

from repro.eval.experiments import cross_platform_controller_eval, cross_platform_planner_eval

NUM_TRIALS = 6

PLANNER_PLATFORMS = {"openvla": ["wine", "alphabet", "bbq"],
                     "roboflamingo": ["button", "block", "handle"]}
CONTROLLER_PLATFORMS = {"octo": ["eggplant", "coke", "carrot"],
                        "rt1": ["open", "move", "place"]}


def main() -> None:
    print("Planner platforms (AD + WR at 0.78 V):")
    for name, tasks in PLANNER_PLATFORMS.items():
        # Registry keys: plain and weight-rotated planner platforms.
        results = cross_platform_planner_eval(f"planner-{name}-plain",
                                              f"planner-{name}", tasks,
                                              voltage=0.78, num_trials=NUM_TRIALS)
        for task, values in results.items():
            print(f"  {name:<14}{task:<12} success {values['baseline_success']:.2f} -> "
                  f"{values['protected_success']:.2f}   planner energy savings "
                  f"{values['planner_energy_savings_percent']:5.1f}%")

    print("\nController platforms (AD + VS, policy C):")
    for name, tasks in CONTROLLER_PLATFORMS.items():
        results = cross_platform_controller_eval(f"controller-{name}", tasks,
                                                 num_trials=NUM_TRIALS)
        for task, values in results.items():
            print(f"  {name:<14}{task:<12} success {values['baseline_success']:.2f} -> "
                  f"{values['protected_success']:.2f}   controller energy savings "
                  f"{values['controller_energy_savings_percent']:5.1f}%")


if __name__ == "__main__":
    main()
