"""Micro-benchmark of the fused kernel runtime and KV-cached decoding.

Unlike the ``bench_fig*`` targets (which reproduce paper figures through
pytest-benchmark), this is a plain script that measures and writes JSON::

    PYTHONPATH=src python benchmarks/bench_kernels.py            # full run
    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke    # CI run

It measures six things and writes them to ``BENCH_kernels.json``:

1. **fused qgemm** — one fused :meth:`KernelContext.qgemm` call vs the
   reference :func:`quantized_matmul` pipeline on planner-shaped operands;
2. **fused QKV** — the stacked Q/K/V projection
   (:meth:`KernelContext.qgemm_multi`, one GEMM) vs three separate
   ``qgemm`` calls on the same input;
3. **fig16-style planner decode** — greedy plan decode over the eight
   Fig. 16 tasks: the legacy path (per-call closure over ``QuantizedLinear``
   with full-prefix recompute, as shipped before the kernel runtime), the
   fused runtime without the KV cache, and the fused runtime with it;
4. **batched decode** — N prompts decoded as one cross-prompt batched GEMM
   per step (``plan_batch``) vs N serial ``plan`` calls, at batch sizes
   1/4/8/16;
5. **controller step** — per-step ``act_logits`` through a per-trial kernel
   context vs a transient ``kernel_context(GemmHooks())`` built per step;
6. **plan reuse** — per-trial kernel-context setup (planner + controller,
   the fig16-style trial configuration) against the immutable
   :class:`KernelPlan` cache vs rebuilding every ``_KernelEntry`` from the
   quantized layers, as shipped before the plan/context split.

Each fast path is asserted bit-identical to its reference before it is
timed, so a speedup can never be bought with a behavioural drift; that is
the only check that fails this script.  ``tools/check_bench.py`` holds the
written speedups to the bounds and regression tolerance of its ``kernels``
gate.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.agents import build_jarvis_system  # noqa: E402
from repro.env.observations import OBSERVATION_DIM  # noqa: E402
from repro.nn.functional import rms_norm, silu  # noqa: E402
from repro.quant import GemmHooks, KernelContext  # noqa: E402

from common import best_of_five as _time  # noqa: E402

FIG16_TASKS = ["wooden", "stone", "charcoal", "chicken", "coal", "iron",
               "wool", "seed"]

#: Cross-prompt batch sizes measured by the ``batched_decode`` section.
BATCH_SIZES = (1, 4, 8, 16)


# ----------------------------------------------------------------------
# 1. Fused qgemm vs the reference pipeline
# ----------------------------------------------------------------------
def bench_qgemm(planner, reps: int) -> dict:
    name = "layer0.q"
    layer = planner._quantized[name]
    rng = np.random.default_rng(0)
    # A pool of distinct inputs, cycled per call: the context memoizes the
    # quantized input of the *same* array object (the Q/K/V sharing path),
    # which would make a repeated-single-input measurement unrepresentative
    # of a real per-call quantize + GEMM.
    inputs = [rng.normal(size=(9, layer.in_features)) for _ in range(64)]
    counter = {"i": 0}

    def next_input():
        counter["i"] = (counter["i"] + 1) % len(inputs)
        return inputs[counter["i"]]

    context = KernelContext({name: layer}, spec=planner.spec)
    reference = _time(lambda: layer(next_input(), hooks=GemmHooks()), reps)
    fused = _time(lambda: context.qgemm(name, next_input()), reps)
    return {
        "reference_us": reference * 1e6,
        "fused_us": fused * 1e6,
        "speedup": reference / fused,
    }


# ----------------------------------------------------------------------
# 2. Fused QKV: one stacked GEMM vs three separate projections
# ----------------------------------------------------------------------
def bench_fused_qkv(planner, reps: int) -> dict:
    names = ("layer0.q", "layer0.k", "layer0.v")
    layers = {name: planner._quantized[name] for name in names}
    rng = np.random.default_rng(2)
    in_features = layers[names[0]].in_features
    # One-row inputs: the shape of the KV-cached incremental decode step,
    # where per-call dispatch (not GEMM arithmetic) dominates and fusing the
    # three projections into one call pays the most.
    inputs = [rng.normal(size=(1, in_features)) for _ in range(64)]
    counter = {"i": 0}

    def next_input():
        counter["i"] = (counter["i"] + 1) % len(inputs)
        return inputs[counter["i"]]

    # Separate contexts so the two paths cannot share quantized-input memos.
    split_context = KernelContext(layers, spec=planner.spec)
    fused_context = KernelContext(layers, spec=planner.spec)

    # Sanity: the stacked GEMM must be bit-identical to the split one.
    probe = inputs[0]
    split_out = tuple(split_context.qgemm(name, probe) for name in names)
    for a, b in zip(split_out, fused_context.qgemm_multi(names, probe)):
        assert np.array_equal(a, b)

    def split_call():
        x = next_input()
        for name in names:
            split_context.qgemm(name, x)

    split = _time(split_call, reps)
    fused = _time(lambda: fused_context.qgemm_multi(names, next_input()), reps)
    return {
        "split_us": split * 1e6,
        "fused_us": fused * 1e6,
        "speedup": split / fused,
    }


# ----------------------------------------------------------------------
# 3. fig16-style planner decode
# ----------------------------------------------------------------------
def _legacy_plan(planner, task: str) -> list[int]:
    """The pre-kernel-runtime decode: closures + full-prefix recompute."""
    hooks = GemmHooks()
    ones = np.ones(planner.config.dim)

    def forward(tokens):
        x = planner.weights.embed[np.asarray(tokens, dtype=np.int64)]
        for index in range(len(planner.weights.layers)):
            prefix = f"layer{index}"
            h = rms_norm(x, ones, eps=1e-6)
            q = planner._quantized[f"{prefix}.q"](h, hooks=hooks)
            k = planner._quantized[f"{prefix}.k"](h, hooks=hooks)
            v = planner._quantized[f"{prefix}.v"](h, hooks=hooks)
            attn = planner._attention_stack(q, k[None], v[None], 0)
            x2 = x + planner._quantized[f"{prefix}.o"](attn, hooks=hooks)
            h2 = rms_norm(x2, ones, eps=1e-6)
            gate = silu(planner._quantized[f"{prefix}.gate"](h2, hooks=hooks))
            up = planner._quantized[f"{prefix}.up"](h2, hooks=hooks)
            x = x2 + planner._quantized[f"{prefix}.down"](gate * up, hooks=hooks)
        x = rms_norm(x, ones, eps=1e-6)
        return planner._quantized["head"](x[-1:], hooks=hooks)[0]

    tokens = list(planner.vocab.encode_prompt(task, 0))
    generated = []
    for _ in range(planner.config.max_plan_length + 1):
        next_token = int(np.argmax(forward(tokens)))
        generated.append(next_token)
        tokens.append(next_token)
        if next_token == planner.vocab.eos:
            break
    return generated


def bench_decode(planner, reps: int) -> dict:
    # Sanity first: all three paths must produce identical plans.
    for task in FIG16_TASKS:
        legacy = planner.vocab.decode_plan(_legacy_plan(planner, task))
        assert planner.plan(task, 0, use_cache=True) == legacy, task
        assert planner.plan(task, 0, use_cache=False) == legacy, task

    legacy = _time(lambda: [_legacy_plan(planner, t) for t in FIG16_TASKS], reps)
    uncached = _time(
        lambda: [planner.plan(t, 0, use_cache=False) for t in FIG16_TASKS], reps)
    cached = _time(
        lambda: [planner.plan(t, 0, use_cache=True) for t in FIG16_TASKS], reps)
    return {
        "tasks": FIG16_TASKS,
        "legacy_ms": legacy * 1e3,
        "fused_uncached_ms": uncached * 1e3,
        "fused_cached_ms": cached * 1e3,
        "cached_vs_legacy_speedup": legacy / cached,
        "cached_vs_uncached_speedup": uncached / cached,
    }


# ----------------------------------------------------------------------
# 4. Cross-prompt batched decode vs N serial decodes
# ----------------------------------------------------------------------
def bench_batched_decode(planner, reps: int) -> dict:
    def requests_for(size: int) -> list[tuple[str, int]]:
        return [(FIG16_TASKS[i % len(FIG16_TASKS)], 0) for i in range(size)]

    # Sanity first: batched plans must be identical to serial plans.
    for size in BATCH_SIZES:
        requests = requests_for(size)
        serial_plans = [planner.plan(task, progress) for task, progress in requests]
        assert planner.plan_batch(requests) == serial_plans, size

    by_batch = {}
    for size in BATCH_SIZES:
        requests = requests_for(size)
        serial = _time(
            lambda: [planner.plan(task, progress) for task, progress in requests],
            reps)
        batched = _time(lambda: planner.plan_batch(requests), reps)
        by_batch[str(size)] = {
            "serial_ms": serial * 1e3,
            "batched_ms": batched * 1e3,
            "speedup": serial / batched,
        }
    return {
        "batch_sizes": list(BATCH_SIZES),
        "by_batch": by_batch,
    }


# ----------------------------------------------------------------------
# 5. Controller step through a per-trial context
# ----------------------------------------------------------------------
def bench_controller(controller, reps: int) -> dict:
    rng = np.random.default_rng(1)
    observations = rng.normal(size=(16, OBSERVATION_DIM))
    context = controller.kernel_context()

    def hooks_path():
        for index, obs in enumerate(observations):
            controller.act_logits(index % 4, obs,
                                  context=controller.kernel_context(GemmHooks()))

    def context_path():
        for index, obs in enumerate(observations):
            controller.act_logits(index % 4, obs, context=context)

    transient = _time(hooks_path, reps)
    reused = _time(context_path, reps)
    return {
        "steps": len(observations),
        "transient_ms": transient * 1e3,
        "context_ms": reused * 1e3,
        "speedup": transient / reused,
    }


# ----------------------------------------------------------------------
# 6. Plan-backed trial setup vs per-trial entry rebuilds
# ----------------------------------------------------------------------
def bench_plan_reuse(planner, controller, reps: int) -> dict:
    # Sanity first: a plan-backed context must decode bit-identically to a
    # freshly built one (shared immutable constants, private mutable state).
    fresh = KernelContext(planner._quantized, spec=planner.spec)
    planner.kernel_plan()  # warm the plan cache
    reused = planner.kernel_context()
    probe = np.ones((1, planner.config.dim))
    assert np.array_equal(fresh.qgemm("layer0.q", probe),
                          reused.qgemm("layer0.q", probe))
    assert planner.plan_provenance() == "hit"

    def rebuild_setup():
        KernelContext(planner._quantized, spec=planner.spec)
        KernelContext(controller._quantized, spec=controller.spec)

    def plan_setup():
        planner.kernel_context()
        controller.kernel_context()

    rebuild = _time(rebuild_setup, reps)
    plan = _time(plan_setup, reps)
    return {
        "components": len(planner._quantized) + len(controller._quantized),
        "rebuild_us": rebuild * 1e6,
        "plan_us": plan * 1e6,
        "speedup": rebuild / plan,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="fast CI mode: fewer reps (the gate skips "
                             "the cached-vs-legacy decode floor)")
    parser.add_argument("--reps", type=int, default=None,
                        help="repetitions per measurement (default: 30, "
                             "smoke: 5)")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_kernels.json"),
                        help="output JSON path (default: BENCH_kernels.json "
                             "at the repository root)")
    args = parser.parse_args(argv)
    reps = args.reps or (5 if args.smoke else 30)

    print("building the JARVIS-1 system (train-or-load + calibration)...")
    system = build_jarvis_system(rotate_planner=False, with_predictor=False)

    results = {
        "benchmark": "kernel-runtime",
        "mode": "smoke" if args.smoke else "full",
        "reps": reps,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "qgemm": bench_qgemm(system.planner, reps * 100),
        "fused_qkv": bench_fused_qkv(system.planner, reps * 100),
        "fig16_decode": bench_decode(system.planner, reps),
        "batched_decode": bench_batched_decode(system.planner, reps),
        "controller_step": bench_controller(system.controller, reps),
        "plan_reuse": bench_plan_reuse(system.planner, system.controller,
                                       reps * 100),
    }

    out_path = Path(args.out)
    out_path.write_text(json.dumps(results, indent=2) + "\n")

    decode = results["fig16_decode"]
    batched = results["batched_decode"]
    print(f"fused qgemm:      {results['qgemm']['speedup']:.2f}x vs reference "
          f"({results['qgemm']['fused_us']:.1f} us/call)")
    print(f"fused QKV:        {results['fused_qkv']['speedup']:.2f}x vs three "
          f"split projections ({results['fused_qkv']['fused_us']:.1f} us/call)")
    print(f"fig16 decode:     legacy {decode['legacy_ms']:.2f} ms -> "
          f"cached {decode['fused_cached_ms']:.2f} ms "
          f"({decode['cached_vs_legacy_speedup']:.2f}x; "
          f"{decode['cached_vs_uncached_speedup']:.2f}x vs uncached)")
    for size in BATCH_SIZES:
        entry = batched["by_batch"][str(size)]
        print(f"batched decode:   batch={size:<2d} "
              f"{entry['serial_ms']:.2f} ms serial -> "
              f"{entry['batched_ms']:.2f} ms batched "
              f"({entry['speedup']:.2f}x)")
    print(f"controller step:  {results['controller_step']['speedup']:.2f}x with "
          f"a per-trial context")
    plan_reuse = results["plan_reuse"]
    print(f"plan reuse:       {plan_reuse['speedup']:.2f}x trial setup "
          f"({plan_reuse['rebuild_us']:.1f} us rebuild -> "
          f"{plan_reuse['plan_us']:.1f} us plan-backed)")
    print(f"results written to {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
