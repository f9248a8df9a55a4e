"""In-memory span tracing of the campaign stack, installed from outside it.

The tracer wraps the public methods of each layer (and the engine's cell
dispatch functions) at run time; nothing under ``src/`` is modified.  A
span records its layer, start, end, parent span, process, thread and the
cell being executed.  Spans stay in memory and are written out once, when
the traced run ends; forked pool workers append theirs to per-process
files after every batch they run, because a pool worker never runs exit
hooks.

A layer's *self time* is its span's duration minus the time covered by its
child spans.  A call into a layer that is already the innermost open span
(``run_trial_group`` falling back to ``run_trial``, an unfusable
``qgemm_multi`` falling back to ``qgemm``) is part of that span, not a new
one, so every layer's calls are counted once.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import os
import statistics
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("eval.campaign", "eval.runtable", "eval.scheduler", "eval.service",
          "agents.executor", "agents.planner", "agents.controller",
          "quant.kernel", "faults.injector", "core.anomaly", "env.world",
          "core.voltage_scaling", "core.predictor", "quant.weightplane")

#: Allowed gap between the summed self times of the timed process's main thread
#: plus its unattributed time and the traced wall time, as a share of it.
RECONCILE_TOLERANCE = 0.01

_SPAN_FIELDS = ("id", "parent", "layer", "start", "end", "self", "pid", "tid",
                "cell")


class Tracer:
    """Span recorder shared by every wrapped layer method of one process."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.origin_pid = os.getpid()
        self.active = True
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self.reset()
        os.register_at_fork(after_in_child=self._after_fork)

    def reset(self) -> None:
        """Drop everything recorded so far (after warm-up, and in forked children)."""
        self._local = threading.local()
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._flushed = 0

    def _after_fork(self) -> None:
        self._lock = threading.Lock()
        self.reset()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.cell = ""
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    # -- wrapping ------------------------------------------------------
    def span(self, owner, attr: str, layer: str, pre=None, post=None) -> None:
        """Replace ``owner.attr`` with a version that records one span per call.

        ``pre(args)`` runs before the call and its value is handed to
        ``post(args, result, pre_value)``, which runs after the span closed
        and records the layer's counts.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            stack = tracer._stack()
            if stack and stack[-1][1] == layer:
                return original(*args, **kwargs)
            before = pre(args) if pre is not None else None
            frame = [next(tracer._ids), layer, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[2]
                parent = 0
                if stack:
                    stack[-1][3] += duration
                    parent = stack[-1][0]
                tracer.spans.append((frame[0], parent, layer, frame[2], end,
                                     duration - frame[3],
                                     threading.get_ident(),
                                     tracer._local.cell))
            if post is not None:
                post(args, result, before)
            return result

        setattr(owner, attr, traced)

    def counted(self, owner, attr: str, on_call) -> None:
        """Replace ``owner.attr`` with a version that only counts (no span).

        ``on_call(args, kwargs)`` returns the cell label to stamp on the spans
        of the call, or ``None`` to keep the current one.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def counting(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            tracer._stack()
            label = on_call(args, kwargs)
            if label is None:
                return original(*args, **kwargs)
            outer, tracer._local.cell = tracer._local.cell, label
            try:
                return original(*args, **kwargs)
            finally:
                tracer._local.cell = outer

        setattr(owner, attr, counting)

    def timed_samples(self, owner, attr: str, layer: str, sample: str,
                      post=None) -> None:
        """A span wrapper that also keeps every call's duration under ``sample``."""
        def record(args, result, start):
            self.samples[sample].append(time.perf_counter() - start)
            if post is not None:
                post(args, result, start)

        self.span(owner, attr, layer, pre=lambda args: time.perf_counter(),
                  post=record)

    # -- output --------------------------------------------------------
    def _span_rows(self, spans):
        pid = os.getpid()
        for sid, parent, layer, start, end, self_s, tid, cell in spans:
            yield (sid, parent, layer, repr(start), repr(end), repr(self_s),
                   pid, tid, cell)

    def flush_child(self) -> None:
        """Forked pool worker: append new spans and rewrite its counters."""
        pid = os.getpid()
        with (self.out_dir / f"spans-{pid}.csv").open("a", newline="") as handle:
            csv.writer(handle).writerows(self._span_rows(self.spans[self._flushed:]))
        self._flushed = len(self.spans)
        (self.out_dir / f"counters-{pid}.json").write_text(json.dumps(
            {"counters": dict(self.counters), "samples": self.samples}))

    def write_main(self) -> None:
        with (self.out_dir / f"spans-{self.origin_pid}.csv").open(
                "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(_SPAN_FIELDS)
            writer.writerows(self._span_rows(self.spans))

    def child_records(self):
        """Spans and counters the forked workers wrote out."""
        spans, counters = [], Counter()
        samples: dict[str, list[float]] = defaultdict(list)
        for path in sorted(self.out_dir.glob("spans-*.csv")):
            pid = int(path.stem.split("-")[1])
            if pid == self.origin_pid:
                continue
            with path.open(newline="") as handle:
                for row in csv.reader(handle):
                    spans.append((int(row[0]), int(row[1]), row[2],
                                  float(row[3]), float(row[4]), float(row[5]),
                                  int(row[7]), row[8], pid))
        for path in sorted(self.out_dir.glob("counters-*.json")):
            data = json.loads(path.read_text())
            counters.update(data["counters"])
            for name, values in data["samples"].items():
                samples[name].extend(values)
        return spans, counters, samples

    def clear_outputs(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for path in self.out_dir.glob("*"):
            path.unlink()


def install(out_dir: Path) -> Tracer:
    """Wrap every layer of the campaign stack; returns the process tracer."""
    from repro.agents.controller import DeployedController
    from repro.agents.executor import MissionExecutor
    from repro.agents.planner import DeployedPlanner
    from repro.core.anomaly import AnomalyDetector
    from repro.core.predictor import EntropyPredictor
    from repro.core.voltage_scaling import AdaptiveVoltageController
    from repro.env.world import EmbodiedWorld
    from repro.eval import campaign, scheduler, service
    from repro.eval.runtable import RunTable, RunTableWriter
    from repro.faults import injector
    from repro.quant import weightplane
    from repro.quant.kernel import BatchedKernel, KernelContext

    tracer = Tracer(out_dir)
    tracer.clear_outputs()
    count = tracer.count

    def counter(name, amount=lambda args, result: 1):
        return lambda args, result, before: count(name, amount(args, result))

    # eval.campaign: the engine, its cell dispatch and the pool worker entry.
    tracer.span(campaign.CampaignRunner, "run", "eval.campaign")

    def scalar_cell(args, kwargs):
        count("eval.campaign.groups_scalar")
        return f"{args[0].spec_key}:{args[0].seed}"

    def lane_group(args, kwargs):
        cells = args[0]
        vector_path = kwargs.get("vector_path") or args[2]
        count(f"eval.campaign.groups_{vector_path}")
        return f"{cells[0].spec_key}:{cells[0].seed}+{len(cells)}"

    tracer.counted(campaign, "_run_cell", scalar_cell)
    tracer.counted(campaign, "_run_lane_group", lane_group)
    tracer.span(campaign, "_pool_run_batch", "eval.campaign")
    pool_entry = campaign._pool_run_batch

    @functools.wraps(pool_entry)
    def pool_run_batch(*args, **kwargs):
        try:
            return pool_entry(*args, **kwargs)
        finally:
            if os.getpid() != tracer.origin_pid:
                tracer.flush_child()

    campaign._pool_run_batch = pool_run_batch
    scheduler._pool_run_batch = pool_run_batch

    # eval.runtable: streamed rows and canonical rewrites.
    def file_size(args, result, before):
        count("eval.runtable.bytes_written", Path(result).stat().st_size)

    def writer_offset(args):
        return args[0]._handle.tell()

    def row_written(args, result, before):
        count("eval.runtable.rows_written")
        count("eval.runtable.bytes_written", args[0]._handle.tell() - before)

    tracer.span(RunTableWriter, "write", "eval.runtable", pre=writer_offset,
                post=row_written)
    tracer.span(RunTable, "write_csv", "eval.runtable", post=file_size)
    tracer.span(RunTable, "write_json", "eval.runtable", post=file_size)

    # eval.scheduler / eval.service: the queue worker, merge and client calls.
    tracer.span(scheduler.WorkerDaemon, "run", "eval.scheduler")
    tracer.timed_samples(scheduler, "merge_run_tables", "eval.scheduler",
                         "eval.scheduler.merge")
    for method in ("claim", "heartbeat", "complete"):
        tracer.timed_samples(service.QueueClient, method, "eval.service",
                             f"eval.service.{method}")
    tracer.timed_samples(service._HttpRowWriter, "flush", "eval.service",
                         "eval.service.rows")

    # agents.*: trials, planner decode, controller forward.
    tracer.span(MissionExecutor, "run_trial", "agents.executor",
                post=counter("agents.executor.trials"))
    tracer.span(MissionExecutor, "run_trial_group", "agents.executor",
                post=counter("agents.executor.trials",
                             lambda args, result: len(result)))
    tracer.span(DeployedPlanner, "plan", "agents.planner",
                post=counter("agents.planner.plan_calls"))

    def planner_batch(args, result, before):
        count("agents.planner.plan_batch_calls")
        count("agents.planner.batch_lanes", len(args[1]))

    tracer.span(DeployedPlanner, "plan_batch", "agents.planner",
                post=planner_batch)
    tracer.span(DeployedController, "act_logits", "agents.controller",
                post=counter("agents.controller.act_calls"))

    def controller_batch(args, result, before):
        count("agents.controller.act_batch_calls")
        count("agents.controller.batch_lanes", len(args[1]))

    tracer.span(DeployedController, "act_logits_batch", "agents.controller",
                post=controller_batch)

    # quant.kernel / faults.injector / core.anomaly: the GEMM pipeline.
    for kernel in (KernelContext, BatchedKernel):
        for method in ("qgemm", "qgemm_multi"):
            tracer.span(kernel, method, "quant.kernel",
                        post=counter("quant.kernel.gemm_calls"))

    def flips(args, result, before):
        count("faults.injector.inject_calls")
        count("faults.injector.bits_flipped",
              args[0].stats.bits_flipped - before)

    tracer.span(injector.ErrorInjector, "inject", "faults.injector",
                pre=lambda args: args[0].stats.bits_flipped, post=flips)
    flip_bits = injector.flip_bits

    @functools.wraps(flip_bits)
    def counted_flip_bits(*args, **kwargs):
        count("faults.injector.flip_calls")
        return flip_bits(*args, **kwargs)

    injector.flip_bits = counted_flip_bits

    def clamps(args, result, before):
        count("core.anomaly.clamp_calls")
        count("core.anomaly.elements_clamped",
              args[0].stats.elements_clamped - before)

    tracer.span(AnomalyDetector, "__call__", "core.anomaly",
                pre=lambda args: args[0].stats.elements_clamped, post=clamps)

    # env.world, core.voltage_scaling, core.predictor.
    tracer.span(EmbodiedWorld, "step", "env.world",
                post=counter("env.world.step_calls"))
    for method in ("observation", "set_subtask", "waste_steps"):
        tracer.span(EmbodiedWorld, method, "env.world")
    tracer.span(AdaptiveVoltageController, "before_step", "core.voltage_scaling",
                post=counter("core.voltage_scaling.before_step_calls"))
    tracer.span(EntropyPredictor, "predict", "core.predictor",
                post=counter("core.predictor.calls"))

    # quant.weightplane: publish in the parent, attach in the workers.
    tracer.timed_samples(
        weightplane, "publish", "quant.weightplane", "quant.weightplane.publish",
        post=lambda args, result, start: count(
            "quant.weightplane.bytes_published", _manifest_bytes(result)))
    tracer.timed_samples(weightplane, "attach", "quant.weightplane",
                         "quant.weightplane.attach")
    return tracer


def _manifest_bytes(manifest) -> int:
    """Array bytes a published plan placed in its shared segment."""
    import numpy as np

    return sum(int(np.prod(slot.shape)) * np.dtype(slot.dtype).itemsize
               for entry in manifest.entries
               for slot in (entry.weight_q, entry.weight_f, entry.bias)
               if slot is not None)


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, passes: list[tuple[float, float, int]],
                  workers: int) -> dict[str, float]:
    """Per-layer metrics of a traced run, normalized per grid pass.

    ``passes`` holds ``(start, end, cells)`` of every timed pass.  Counts and
    self times are divided by the number of passes, so a run that fits more
    passes reports the same per-pass figures.
    """
    main_tid = threading.main_thread().ident
    spans = [(sid, parent, layer, start, end, self_s, tid, cell,
              tracer.origin_pid)
             for sid, parent, layer, start, end, self_s, tid, cell
             in tracer.spans]
    child_spans, child_counters, child_samples = tracer.child_records()
    spans.extend(child_spans)
    counters = tracer.counters + child_counters
    samples = defaultdict(list)
    for source in (tracer.samples, child_samples):
        for name, values in source.items():
            samples[name].extend(values)

    n = len(passes)
    wall = sum(end - start for start, end, _ in passes)
    self_time: dict[str, float] = defaultdict(float)
    busy = 0.0
    main_self = 0.0
    main_roots = 0.0
    for sid, parent, layer, start, end, self_s, tid, cell, pid in spans:
        self_time[layer] += self_s
        if layer == "agents.executor":
            busy += end - start
        if pid == tracer.origin_pid and tid == main_tid:
            main_self += self_s
            if parent == 0:
                main_roots += end - start
    unattributed = wall - main_roots
    gap = abs(main_self + unattributed - wall) / wall
    if gap > RECONCILE_TOLERANCE:
        raise RuntimeError(
            f"trace does not reconcile: main-thread self times "
            f"{main_self:.4f} s + unattributed {unattributed:.4f} s vs wall "
            f"{wall:.4f} s ({gap:.2%} > {RECONCILE_TOLERANCE:.0%})")

    per_pass = lambda name: counters.get(name, 0) / n
    metrics = {f"{layer}.self_s": self_time.get(layer, 0.0) / n
               for layer in LAYERS}
    plan_calls = per_pass("agents.planner.plan_calls")
    batch_lanes = per_pass("agents.planner.batch_lanes")
    inject_calls = per_pass("faults.injector.inject_calls")
    tasks = len(samples["eval.service.complete"])
    metrics.update({
        "eval.campaign.groups_scalar": per_pass("eval.campaign.groups_scalar"),
        "eval.campaign.groups_batched": per_pass("eval.campaign.groups_batched"),
        "eval.campaign.groups_fleet": per_pass("eval.campaign.groups_fleet"),
        "eval.campaign.worker_busy_share": busy / (workers * wall),
        "eval.runtable.rows_written": per_pass("eval.runtable.rows_written"),
        "eval.runtable.bytes_written": per_pass("eval.runtable.bytes_written"),
        "eval.runtable.write_s": metrics.pop("eval.runtable.self_s"),
        "agents.executor.trials": per_pass("agents.executor.trials"),
        "agents.planner.plan_calls": plan_calls,
        "agents.planner.plan_batch_calls": per_pass("agents.planner.plan_batch_calls"),
        "agents.planner.batch_lanes": batch_lanes,
        "agents.planner.scalar_share": (plan_calls / (plan_calls + batch_lanes)
                                        if plan_calls + batch_lanes else 0.0),
        "agents.controller.act_calls": per_pass("agents.controller.act_calls"),
        "agents.controller.act_batch_calls": per_pass("agents.controller.act_batch_calls"),
        "agents.controller.batch_lanes": per_pass("agents.controller.batch_lanes"),
        "quant.kernel.gemm_calls": per_pass("quant.kernel.gemm_calls"),
        "faults.injector.inject_calls": inject_calls,
        "faults.injector.us_per_call": (
            1e6 * metrics["faults.injector.self_s"] / inject_calls
            if inject_calls else 0.0),
        "faults.injector.bits_flipped": per_pass("faults.injector.bits_flipped"),
        "faults.injector.flip_call_share": (
            per_pass("faults.injector.flip_calls") / inject_calls
            if inject_calls else 0.0),
        "core.anomaly.clamp_calls": per_pass("core.anomaly.clamp_calls"),
        "core.anomaly.elements_clamped": per_pass("core.anomaly.elements_clamped"),
        "env.world.step_calls": per_pass("env.world.step_calls"),
        "core.voltage_scaling.before_step_calls":
            per_pass("core.voltage_scaling.before_step_calls"),
        "core.predictor.calls": per_pass("core.predictor.calls"),
        "quant.weightplane.publish_s": sum(samples["quant.weightplane.publish"]) / n,
        "quant.weightplane.attach_s": sum(samples["quant.weightplane.attach"]) / n,
        "quant.weightplane.bytes_published":
            per_pass("quant.weightplane.bytes_published"),
        "eval.service.claim_ms_p50": 1e3 * _percentile(samples["eval.service.claim"], 50),
        "eval.service.claim_ms_p90": 1e3 * _percentile(samples["eval.service.claim"], 90),
        "eval.service.heartbeat_ms_p50":
            1e3 * _percentile(samples["eval.service.heartbeat"], 50),
        "eval.service.rows_ms_p50": 1e3 * _percentile(samples["eval.service.rows"], 50),
        "eval.service.complete_ms_p50":
            1e3 * _percentile(samples["eval.service.complete"], 50),
        "eval.service.heartbeats_per_task": (
            len(samples["eval.service.heartbeat"]) / tasks if tasks else 0.0),
        "eval.scheduler.merge_s": sum(samples["eval.scheduler.merge"]) / n,
        "trace.unattributed_share": unattributed / wall,
    })
    for layer in ("eval.scheduler", "eval.service", "quant.weightplane"):
        metrics.pop(f"{layer}.self_s", None)
    return metrics
