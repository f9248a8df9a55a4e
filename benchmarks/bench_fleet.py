"""Fleet runtime: cross-agent batched stepping vs per-agent serial loops.

Like ``bench_kernels.py`` this is a plain script that measures and writes
JSON::

    PYTHONPATH=src python benchmarks/bench_fleet.py            # full run
    PYTHONPATH=src python benchmarks/bench_fleet.py --smoke    # CI run

It runs the same multi-agent navigation roster twice per fleet size —
agent ``i`` runs task ``i mod len(tasks)`` with seed ``i`` — once as N
per-agent ``run_trial`` calls (the pre-fleet execution model) and once as
one :meth:`MissionExecutor.run_trial_group` lane group, which gathers every
agent's pending planner-decode and controller-forward call per tick into
single row-stacked :class:`BatchedKernel` passes — and writes the
agent-steps/s of both paths to ``BENCH_fleet.json``.

The two paths are asserted bit-identical before any timing happens
(fault-free and under per-agent injection), so the speedup can never be
bought with a behavioural drift; that is the only check that fails this
script.  ``tools/check_bench.py`` holds the written speedups to the bound
and regression tolerance of its ``fleet`` gate.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import platform
import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.agents import MissionExecutor, get_system  # noqa: E402
from repro.core.create import ProtectionConfig  # noqa: E402
from repro.faults.models import UniformErrorModel  # noqa: E402

from common import best_of_five as _time  # noqa: E402

#: Fleet sizes measured (agents stepping against one shared world suite).
FLEET_SIZES = (4, 16)

#: Per-agent bit-error rate of the injected measurement arm, which runs the
#: largest fleet.
INJECTED_BER = 1e-3


def _roster(executor: MissionExecutor, size: int) -> list[tuple[str, int]]:
    """``(task, seed)`` per agent: the suite's tasks round-robin, seed ``i``."""
    tasks = executor.suite.task_names
    return [(tasks[index % len(tasks)], index) for index in range(size)]


def _assert_identical(batched, serial) -> None:
    """Every agent's trial must match bit for bit across the two paths."""
    assert len(batched) == len(serial)
    for lane, (b, s) in enumerate(zip(batched, serial)):
        for field in dataclasses.fields(b):
            bv, sv = getattr(b, field.name), getattr(s, field.name)
            if field.name == "entropy_trace":
                same = (bv.entropies == sv.entropies
                        and bv.critical_flags == sv.critical_flags
                        and bv.voltages == sv.voltages)
            else:
                same = bv == sv
            assert same, f"lane {lane}: {field.name} diverged"


def _once(fn, _reps: int) -> float:
    """Single-pass timing for the informational injected arm: missions under
    BER run to budget exhaustion (~10x the fault-free steps), so the
    best-of-five discipline would dominate the benchmark's wall clock."""
    import time

    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def bench_fleet_size(executor: MissionExecutor, size: int, reps: int,
                     protection: ProtectionConfig | None = None) -> dict:
    kwargs = {}
    timer = _time
    if protection is not None:
        kwargs = {"planner_protection": protection,
                  "controller_protection": protection}
        timer = _once
    agents = _roster(executor, size)

    def batched():
        return executor.run_trial_group(agents, **kwargs)

    def serial():
        return [executor.run_trial(task, seed=seed, **kwargs)
                for task, seed in agents]

    batched_result = batched()
    _assert_identical(batched_result, serial())
    serial_s = timer(serial, reps)
    batched_s = timer(batched, reps)
    steps = sum(result.steps for result in batched_result)
    return {
        "fleet_size": size,
        "agent_steps": steps,
        "missions_completed": sum(result.success for result in batched_result),
        "serial_s": serial_s,
        "batched_s": batched_s,
        "serial_steps_per_s": steps / serial_s,
        "batched_steps_per_s": steps / batched_s,
        "speedup": serial_s / batched_s,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="fast CI mode: one call per timing round")
    parser.add_argument("--reps", type=int, default=None,
                        help="calls per best-of-five round (default: 3, "
                             "smoke: 1)")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_fleet.json"),
                        help="output JSON path (default: BENCH_fleet.json "
                             "at the repository root)")
    args = parser.parse_args(argv)
    reps = args.reps or (1 if args.smoke else 3)

    print("building the JARVIS-1 navigation fleet (train-or-load)...")
    executor = get_system("jarvis-navigation").executor()

    by_fleet = {str(size): bench_fleet_size(executor, size, reps)
                for size in FLEET_SIZES}
    injected_size = max(FLEET_SIZES)
    injected = bench_fleet_size(
        executor, injected_size, reps,
        protection=ProtectionConfig(error_model=UniformErrorModel(INJECTED_BER)))
    results = {
        "benchmark": "fleet-runtime",
        "mode": "smoke" if args.smoke else "full",
        "reps": reps,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "fleet_sizes": list(FLEET_SIZES),
        "by_fleet": by_fleet,
        "injected": injected,
    }

    out_path = Path(args.out)
    out_path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")

    for size in FLEET_SIZES:
        entry = by_fleet[str(size)]
        print(f"fleet={size:<3d} {entry['serial_steps_per_s']:8.0f} steps/s "
              f"serial -> {entry['batched_steps_per_s']:8.0f} steps/s "
              f"batched ({entry['speedup']:.2f}x)")
    print(f"fleet={injected_size:<3d} "
          f"{injected['batched_steps_per_s']:8.0f} steps/s batched under "
          f"BER {INJECTED_BER:g} ({injected['speedup']:.2f}x, "
          f"{injected['missions_completed']}/{injected_size} missions)")
    print(f"results written to {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
