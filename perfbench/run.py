"""Benchmark of fault-injected campaigns, end to end and per layer.

    python3 perfbench/run.py --workload fault-sweep --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table
    python3 perfbench/run.py --write-pins              # re-pin the seed-0 digests

Run from the repository root.  Every sample runs in a fresh interpreter
(``child.py``) with BLAS and OpenMP pinned to one thread.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the ``end_to_end`` metrics of BENCHMARK.json with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``).  See
README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fault-sweep", "fleet-pool", "fleet-queue")
#: Set-up-only children per run; the timed child's own set-up is one more
#: sample, and ``setup_s`` is the median.
SETUP_CHILDREN = 1
#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 150.0
#: Checkpoints every workload loads (the cold-start guard's scope).
CACHE_DIR = ROOT / ".model_cache"
SCRATCH = ROOT / ".perfbench_tmp"
TRACE_OUT = ROOT / ".perfbench_out"


class BenchmarkError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("REPRO_MODEL_CACHE", None)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def run_child(args: list[str], python_flags: tuple[str, ...] = (),
              stderr_path: Path | None = None) -> tuple[float, dict, dict | None]:
    """Start ``child.py``; return (set-up seconds, READY data, RESULT data).

    The set-up seconds run from spawn until READY, rescaled to the reference
    host speed with a probe before the spawn and the child's probe after
    READY (``hostspeed``); READY data gains the raw time as ``ready_s``.
    """
    command = [sys.executable, *python_flags, str(HERE / "child.py"), *args]
    stderr = stderr_path.open("w") if stderr_path is not None else None
    probe_before = hostspeed.probe()
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=stderr)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    ready, probe_after, result = None, None, None
    try:
        for line in proc.stdout:
            if line.startswith("READY ") and ready is None:
                ready_s = time.perf_counter() - start
                ready = dict(json.loads(line[6:]), ready_s=ready_s)
            elif line.startswith("PROBE ") and probe_after is None:
                probe_after = float(line[6:])
            elif line.startswith("RESULT "):
                result = json.loads(line[7:])
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if stderr is not None:
            stderr.close()
    if code != 0 or ready is None or probe_after is None:
        raise BenchmarkError(f"{' '.join(args[:2])} child exited with {code}")
    if args[0] == "timed" and result is None:
        raise BenchmarkError(f"{' '.join(args[:2])} child printed no result")
    setup_s = hostspeed.at_reference(ready["ready_s"], probe_before, probe_after)
    return setup_s, ready, result


def cache_snapshot() -> dict[str, tuple[int, int]]:
    return {path.name: (path.stat().st_size, path.stat().st_mtime_ns)
            for path in sorted(CACHE_DIR.iterdir())}


def scipy_import_s(stderr_path: Path) -> float:
    """Seconds spent importing ``scipy`` modules, from ``-X importtime``."""
    total_us = 0
    for line in stderr_path.read_text().splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, name = (part.strip() for part in line[12:].split("|"))
        if name.strip() == "scipy" or name.strip().startswith("scipy."):
            total_us += int(self_us)
    return total_us / 1e6


def host_speed(result: dict) -> float:
    """The host's median speed during the timed passes, 1.0 at the reference."""
    probes = [probe for pass_probes in result["probe_s"] for probe in pass_probes]
    return hostspeed.REFERENCE_PROBE_S / statistics.median(probes)


def timed_run(workload: str, seed: int, seconds: int, scratch: Path,
              trace_dir: Path | None = None) -> tuple[float, dict]:
    args = ["timed", workload, str(seed), str(seconds), str(scratch)]
    if trace_dir is not None:
        args.append(str(trace_dir))
    setup_s, _, result = run_child(args)
    return setup_s, result


def cells_per_s(result: dict, at_reference: bool = True) -> float:
    """Grid cells over the summed median time of each unit of a pass.

    A unit is one campaign (one queue task on ``fleet-queue``), timed from
    its start until its table is complete, once per pass.  Each unit's time
    is rescaled to the reference host speed with the probes taken just
    before and after it (``hostspeed``), unless ``at_reference`` is false.
    """
    per_pass = []
    for times, probes in zip(result["unit_s"], result["probe_s"]):
        per_pass.append([hostspeed.at_reference(seconds, probes[i], probes[i + 1])
                         if at_reference else seconds
                         for i, seconds in enumerate(times)])
    unit_s = [statistics.median(samples) for samples in zip(*per_pass)]
    return result["passes"][0][2] / sum(unit_s)


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run one workload; returns correctness counts, metrics and report lines."""
    load = os.getloadavg()[0]
    nproc = len(os.sched_getaffinity(0))
    before = cache_snapshot()
    scratch = SCRATCH / f"{workload}-{os.getpid()}"
    try:
        setups = [run_child(["setup", workload]) for _ in range(SETUP_CHILDREN)]
        setup_s, result = timed_run(workload, seed, seconds, scratch)
        setup_samples = [sample for sample, _, _ in setups] + [setup_s]
        runs = [result]
        layers = {}
        if trace:
            trace_dir = TRACE_OUT / f"trace-{workload}"
            _, traced = timed_run(workload, seed, seconds, scratch, trace_dir)
            runs.append(traced)
            importtime = scratch / "importtime.txt"
            run_child(["setup", workload], ("-X", "importtime"), importtime)
            breakdown = {key: statistics.median(ready[key] * setup_s / ready["ready_s"]
                                                for setup_s, ready, _ in setups)
                         for key in ("import_s", "system_load_s", "plan_build_s")}
            layers = {f"setup.{key}": value for key, value in breakdown.items()}
            layers["setup.import_scipy_s"] = scipy_import_s(importtime)
            layers.update(traced["layers"])
            layers.update(traced["sim"])
            layers["trace.overhead_share"] = 1.0 - cells_per_s(traced) / cells_per_s(result)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if cache_snapshot() != before:
        raise BenchmarkError(".model_cache changed during the run; a checkpoint "
                             "was trained or rewritten")

    env = setups[0][1]
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    consistent = all(run["digest"] == result["digest"] and run["sim"] == result["sim"]
                     for run in runs)
    metrics = {"cells_per_s": cells_per_s(result),
               "setup_s": statistics.median(setup_samples),
               "peak_rss_mb": result["peak_rss_mb"], **layers}
    lines = [
        f"workload {workload}  seed {seed}  seconds {seconds}  trace {int(trace)}",
        f"env: python {env['python']}, numpy {env['numpy']}, blas {env['blas']}, "
        f"nproc {nproc}, loadavg {load:.2f}"
        + ("  WARNING: started under load (loadavg >= nproc)" if load >= nproc else ""),
        f"  cells_per_s        {metrics['cells_per_s']:.4f} cells/s  "
        f"({len(result['passes'])} passes of {result['passes'][0][2]} cells; "
        f"{cells_per_s(result, at_reference=False):.4f} at the host's own speed)",
        f"  setup_s            {metrics['setup_s']:.4f} s  "
        f"(median of {len(setup_samples)}; set-up-only children raw "
        + ", ".join(f"{ready['ready_s']:.3f}" for _, ready, _ in setups) + ")",
        f"  host speed         {host_speed(result):.3f} of the reference "
        "(hostspeed.py; the metrics above are at the reference speed)",
        f"  peak_rss_mb        {metrics['peak_rss_mb']:.1f} MiB",
        f"  failed_cell_share  {failed / attempted:.4f} ratio  ({failed}/{attempted})",
        f"  result digest      {result['digest']}"
        + ("" if consistent else "  MISMATCH between runs"),
        "  " + "  ".join(f"{name} {value:g}" for name, value in result["sim"].items()),
    ]
    return {"correct": failed == 0 and consistent, "attempted": attempted,
            "failed": failed, "metrics": metrics, "lines": lines}


def result_record(spec: dict, outcome: dict, trace: bool) -> dict:
    """The result object: every metric of the reported section, with its unit."""
    section = spec["per_layer" if trace else "end_to_end"]
    metrics = {metric["name"]: {"value": outcome["metrics"][metric["name"]],
                                "unit": metric["unit"]}
               for metric in section}
    return {"correct": outcome["correct"], "attempted": outcome["attempted"],
            "failed": outcome["failed"], "metrics": metrics}


def write_pins() -> None:
    pins = {}
    scratch = SCRATCH / f"pins-{os.getpid()}"
    try:
        for workload in WORKLOADS:
            _, _, pins[workload] = run_child(["pin", workload, str(scratch)])
            print(f"{workload}: {pins[workload]['digest']} "
                  f"({len(pins[workload]['cells'])} cells)")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not CACHE_DIR.is_dir():
        print(f"perfbench: no program to measure under {ROOT} (needs src/repro "
              "and the committed .model_cache)", file=sys.stderr)
        return 2
    if args.write_pins:
        write_pins()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        outcomes = {}
        for name in names:
            outcomes[name] = measure(name, args.seed, seconds, bool(args.trace))
            print("\n".join(outcomes[name]["lines"]), flush=True)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    records = {name: result_record(spec, outcome, bool(args.trace))
               for name, outcome in outcomes.items()}
    print(json.dumps(records if args.workload == "all" else records[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
