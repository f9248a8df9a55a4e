"""Shared helpers for the benchmark harness.

Every benchmark reproduces one table or figure of the paper: it runs the
corresponding experiment from :mod:`repro.eval.experiments` exactly once
(wrapped in ``benchmark.pedantic`` so pytest-benchmark also reports its wall
time) and prints the regenerated rows/series.

Trial counts default to quick-but-meaningful values so the whole suite runs in
minutes on a laptop; set ``REPRO_BENCH_TRIALS`` (e.g. to 100, the paper's
repetition count) for tighter confidence intervals.  Trial-loop experiments
run through the campaign engine; set ``REPRO_BENCH_JOBS`` to fan the trials
out over that many worker processes and ``REPRO_BENCH_BATCH`` to group that
many (condition, seed) cells per worker task (unset = auto-tuned), e.g.::

    REPRO_BENCH_TRIALS=100 REPRO_BENCH_JOBS=8 REPRO_BENCH_BATCH=16 \
      PYTHONPATH=src python -m pytest benchmarks/bench_fig16_overall.py -q

Systems are referenced by their registry keys (see
:mod:`repro.agents.registry`) so campaign workers can rebuild them; the
``jarvis_plain()``-style helpers return the per-process cached instances for
benchmarks that need a live system object.
"""

from __future__ import annotations

import os
import time

from repro.agents import get_system

#: Registry keys of the primary testbed systems.
JARVIS_PLAIN = "jarvis"
JARVIS_ROTATED = "jarvis-rotated"


def best_of_five(fn, reps: int) -> float:
    """Best-of-five mean seconds per call (keeps CI noise out of the gates).

    The one timing discipline every gated benchmark shares: ``fn`` is called
    once to warm caches, then timed over five rounds of ``reps`` calls and
    the *fastest* round's mean is reported — scheduler hiccups and turbo
    ramps can only slow a round down, so the minimum is the stable estimate.
    """
    return best_of_five_each([fn], reps)[0]


def best_of_five_each(fns, reps: int) -> list[float]:
    """:func:`best_of_five` of several functions, their rounds taking turns.

    Each round times ``reps`` calls of every function in turn, so a slow
    spell of the host lands on rounds of each function instead of on every
    round of one, and the ratios between them hold steady.
    """
    for fn in fns:
        fn()  # warm-up
    best = [float("inf")] * len(fns)
    for _ in range(5):
        for index, fn in enumerate(fns):
            start = time.perf_counter()
            for _ in range(reps):
                fn()
            best[index] = min(best[index], (time.perf_counter() - start) / reps)
    return best


def num_trials(default: int = 12) -> int:
    """Number of repetitions per experimental condition."""
    return int(os.environ.get("REPRO_BENCH_TRIALS", default))


def num_jobs(default: int = 1) -> int:
    """Worker processes used by campaign-driven experiments."""
    return int(os.environ.get("REPRO_BENCH_JOBS", default))


def num_batch(default: int | None = None) -> int | None:
    """Cells per worker task; unset, empty, or ``<= 0`` means auto-tune."""
    value = os.environ.get("REPRO_BENCH_BATCH")
    if not value or int(value) < 1:
        return default
    return int(value)


def engine_kwargs(**overrides) -> dict:
    """Campaign-engine keyword arguments shared by trial-loop benchmarks.

    Returns ``{"jobs": ..., "batch": ...}`` from the ``REPRO_BENCH_*``
    environment; pass keyword overrides (e.g. ``out=...``) to extend it.
    """
    kwargs = {"jobs": num_jobs(), "batch": num_batch()}
    kwargs.update(overrides)
    return kwargs


def jarvis_plain():
    """JARVIS-1 system without weight rotation."""
    return get_system(JARVIS_PLAIN)


def jarvis_rotated():
    """JARVIS-1 system with weight-rotation-enhanced planning."""
    return get_system(JARVIS_ROTATED)


def planner_platform_key(name: str, rotated: bool = True) -> str:
    """Registry key of a cross-platform planner system (openvla / roboflamingo)."""
    return f"planner-{name}" if rotated else f"planner-{name}-plain"


def planner_platform(name: str, rotated: bool = True):
    """Cross-platform planner system (openvla / roboflamingo)."""
    return get_system(planner_platform_key(name, rotated))


def controller_platform_key(name: str) -> str:
    """Registry key of a cross-platform controller system (octo / rt1)."""
    return f"controller-{name}"


def controller_platform(name: str):
    """Cross-platform controller system (octo / rt1)."""
    return get_system(controller_platform_key(name))


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
