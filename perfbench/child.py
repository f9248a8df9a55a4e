"""Fresh-interpreter side of the benchmark: set a workload up, then time it.

``run.py`` starts this script in a new interpreter for every sample; it is
not meant to be run by hand::

    child.py setup WORKLOAD
    child.py timed WORKLOAD SEED SECONDS SCRATCH_DIR [TRACE_DIR]
    child.py pin WORKLOAD SCRATCH_DIR

Every mode prints ``READY <json>`` (the set-up breakdown) as soon as the
workload's systems and kernel plans are built and the first cell could run,
then ``PROBE <seconds>`` (``hostspeed.probe``).  ``timed`` then warms up,
runs whole grid passes until the pass boundary nearest to ``SECONDS``,
probing the host's speed between timed units, checks every row, and prints
``RESULT <json>``.  ``pin`` prints the seed-0 cell digests instead.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

#: Passes a timed run makes at least: each unit's median has two samples,
#: and at seeds without a pin the sweep's later pass is checked against its
#: first.
MIN_PASSES = 2


class ColdStartError(RuntimeError):
    """A model checkpoint the workload needs is not committed."""


def _refuse_training(*args, **kwargs):
    raise ColdStartError(
        "a model checkpoint is missing from .model_cache and would be trained; "
        "the benchmark only uses systems whose checkpoints are committed")


def set_up(workload_name: str):
    """Import, load the workload's systems and build their kernel plans."""
    start = time.perf_counter()
    import numpy

    import workloads
    imported = time.perf_counter()

    from repro.agents import registry, zoo

    for trainer in ("train_planner", "train_controller",
                    "train_entropy_predictor"):
        setattr(zoo, trainer, _refuse_training)
    workload = workloads.WORKLOADS[workload_name]
    systems = [registry.get_system(key) for key in workload.systems]
    loaded = time.perf_counter()
    for system in systems:
        for model in (system.planner, system.controller):
            if model is not None:
                model.kernel_plan()
    built = time.perf_counter()
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError):
        blas = "unknown"
    ready = {"import_s": imported - start, "system_load_s": loaded - imported,
             "plan_build_s": built - loaded, "python": sys.version.split()[0],
             "numpy": numpy.__version__, "blas": blas}
    print("READY " + json.dumps(ready), flush=True)
    # The host's speed at the end of set-up; run.py probed it at the start.
    print(f"PROBE {hostspeed.probe()!r}", flush=True)
    return workload


def _vm_hwm_kib(pid: int) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _children(pid: int) -> list[int]:
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


class PeakRss(threading.Thread):
    """Samples the peak resident set of this process plus its live children.

    Each process's own high-water mark (``VmHWM``) is read, so a sample
    misses nothing a process reached before it; only a child that starts
    and exits between two samples is missed.  Pool workers live for a whole
    campaign (over a second), so a quarter-second interval sees them all
    while keeping the scan of ``/proc`` off the timed thread's GIL.
    """

    def __init__(self, interval: float = 0.25):
        super().__init__(daemon=True)
        self.interval = interval
        self.peak_kib = 0
        self._stop_event = threading.Event()

    def sample(self) -> None:
        pid = os.getpid()
        total = _vm_hwm_kib(pid)
        for child in _children(pid):
            try:
                total += _vm_hwm_kib(child)
            except OSError:
                continue
        self.peak_kib = max(self.peak_kib, total)

    def run(self) -> None:
        while not self._stop_event.wait(self.interval):
            self.sample()

    def stop(self) -> float:
        self._stop_event.set()
        self.join()
        self.sample()
        return self.peak_kib / 1024.0


def warm_up(workload) -> None:
    """Two fault-free trials per system: first-call costs land before timing."""
    from repro.agents.registry import get_system
    from repro.eval.campaign import TrialSpec, run_campaign

    run_campaign([TrialSpec(condition=f"warm-up/{key}", system=key,
                            task=get_system(key).suite.task_names[0],
                            num_trials=2)
                  for key in workload.systems])


def timed(workload, seed: int, seconds: float, scratch: Path,
          trace_dir: Path | None) -> dict:
    import tracing
    import workloads

    tracer = tracing.install(trace_dir) if trace_dir is not None else None
    sampler = PeakRss()
    sampler.start()
    warm_up(workload)
    if tracer is not None:
        tracer.reset()
        tracer.clear_outputs()

    workers = workloads.POOL_JOBS if workload.name == "fleet-pool" else 1
    passes, unit_s, probe_s, digests, sim = [], [], [], [], None
    begin = time.perf_counter()
    while True:
        tables, times, probes = [], [], [hostspeed.probe(workers > 1)]
        for unit in workload.units(seed, scratch):
            started = time.perf_counter()
            tables.extend(unit())
            times.append(time.perf_counter() - started)
            probes.append(hostspeed.probe(workers > 1))
        end = time.perf_counter()
        records = workloads.rows(tables)
        passes.append((end - sum(times), end, len(records)))
        unit_s.append(times)
        probe_s.append(probes)
        digests.append([workloads.cell_digest(record) for record in records])
        sim = sim or workloads.sim_counts(records)
        # Stop at the pass boundary nearest to ``seconds``.
        if (len(passes) >= MIN_PASSES
                and end - begin + (end - begin) / len(passes) / 2 >= seconds):
            break
    layers = None
    if tracer is not None:
        tracer.active = False
        tracer.write_main()
        layers = tracing.layer_metrics(tracer, passes, workers)
    peak_rss_mb = sampler.stop()

    pins = json.loads((HERE / "pins.json").read_text())
    if seed == 0 and workload.name in pins:
        reference = pins[workload.name]["cells"]
    elif workload.reference is not None:
        reference = [workloads.cell_digest(record)
                     for record in workloads.rows(workload.reference(seed))]
    else:
        reference = digests[0]
    failed = sum(workloads.count_failed(cells, reference) for cells in digests)
    attempted = sum(max(len(cells), len(reference)) for cells in digests)
    return {"passes": passes, "unit_s": unit_s, "probe_s": probe_s,
            "attempted": attempted, "failed": failed,
            "digest": workloads.table_digest(digests[0]),
            "peak_rss_mb": peak_rss_mb, "sim": sim, "layers": layers}


def pin(workload, scratch: Path) -> dict:
    """Seed-0 cell digests, from the serial reference where there is one."""
    import workloads

    tables = (workload.reference(0) if workload.reference is not None
              else workload.run_pass(0, scratch))
    cells = [workloads.cell_digest(record) for record in workloads.rows(tables)]
    return {"digest": workloads.table_digest(cells), "cells": cells}


def main(argv: list[str]) -> int:
    mode, workload_name = argv[0], argv[1]
    workload = set_up(workload_name)
    if mode == "setup":
        return 0
    if mode == "pin":
        print("RESULT " + json.dumps(pin(workload, Path(argv[2]))), flush=True)
        return 0
    seed, seconds, scratch = int(argv[2]), float(argv[3]), Path(argv[4])
    trace_dir = Path(argv[5]) if len(argv) > 5 else None
    scratch.mkdir(parents=True, exist_ok=True)
    result = timed(workload, seed, seconds, scratch, trace_dir)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
