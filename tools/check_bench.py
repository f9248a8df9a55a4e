"""The benchmark gate (the CI ``kernels``, ``fleet`` and ``service`` jobs).

Each CI benchmark job first measures (``benchmarks/bench_kernels.py``,
``bench_fleet.py``, ``bench_service.py``; those scripts fail only on a
correctness check) and then runs this checker on the fresh JSON.  The gate
is picked from the file name, ``BENCH_<name>.json``, and compares the fresh
run against the baseline of the same name committed at the repository root,
under the one rule that :data:`GATES` drives:

1. **bounds** — every bound must hold on the committed baseline and on the
   fresh run.  A bound marked ``smoke=False`` skips ``--smoke`` runs.  A
   baseline outside its own bound means the committed numbers and the gate
   drifted apart;
2. **regression** — every diffed metric of the fresh run must stay within
   the gate's tolerance of the baseline's.  The tolerance absorbs CI machine
   noise while still catching real regressions (a lost fast path shows up
   as 2-40x, not 20-30%).

Run from the repository root::

    PYTHONPATH=src python tools/check_bench.py /tmp/BENCH_kernels.json

Exit status 0 means clean; 1 prints one line per problem; 2 means a usage
error or a file name with no gate.  The gate reads measured fields only and
needs no system build; ``tools/check_docs.py`` reads :data:`GATES` to verify
the bounds quoted in the documentation.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from typing import NamedTuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: A quoted number in prose, e.g. the ``2`` of "the 2x batched-decode floor".
_NUMBER = r"(\d+(?:\.\d+)?)"


class Bound(NamedTuple):
    """A floor (``kind="min"``) or limit (``kind="max"``) on one measured field.

    ``path`` is the field's dotted JSON path; a list-valued field is held by
    its length.  ``prose`` is the pattern ``check_docs`` must find in the
    documentation, its group 1 quoting ``value``.
    """

    path: str
    kind: str
    value: float
    smoke: bool = True
    prose: str | None = None


class Gate(NamedTuple):
    """The bounds of one baseline and the metrics diffed against it.

    ``tolerance`` is the largest fractional drop a diffed metric (a speedup
    or a throughput, higher is better) may show against the baseline.
    """

    bounds: tuple[Bound, ...]
    diffed: tuple[str, ...]
    tolerance: float


GATES = {
    "kernels": Gate(
        bounds=(
            # Full runs only: --smoke takes too few reps to time the slow
            # legacy decode reliably.
            Bound("fig16_decode.cached_vs_legacy_speedup", "min", 3.0,
                  smoke=False, prose=_NUMBER + r"x\s+decode-speedup"),
            Bound("fig16_decode.cached_vs_uncached_speedup", "min", 1.0),
            # Fusion exists only to beat per-call dispatch; a fused path
            # that loses to split is a regression by definition.
            Bound("fused_qkv.speedup", "min", 1.0),
            Bound("batched_decode.by_batch.8.speedup", "min", 2.0,
                  prose=_NUMBER + r"x\s+batched-decode"),
            Bound("plan_reuse.speedup", "min", 2.0,
                  prose=_NUMBER + r"x\s+plan-reuse"),
        ),
        diffed=(
            "qgemm.speedup",
            "fig16_decode.cached_vs_legacy_speedup",
            "controller_step.speedup",
            "fused_qkv.speedup",
            "batched_decode.by_batch.1.speedup",
            "batched_decode.by_batch.4.speedup",
            "batched_decode.by_batch.8.speedup",
            "batched_decode.by_batch.16.speedup",
            "plan_reuse.speedup",
        ),
        tolerance=0.20),
    "fleet": Gate(
        # One quantize + one INT GEMM per layer for the whole fleet has to
        # beat N per-agent passes by a wide margin, or the fleet runtime is
        # not earning its complexity.  The ``injected`` arm is single-pass
        # timed and informational only.
        bounds=(
            Bound("by_fleet.16.speedup", "min", 3.0,
                  prose=_NUMBER + r"x\s+fleet-stepping"),
        ),
        diffed=("by_fleet.4.speedup", "by_fleet.16.speedup"),
        tolerance=0.20),
    "service": Gate(
        bounds=(
            # One round trip is four HTTP requests plus four queue state
            # transitions; 500/s keeps the service well ahead of any real
            # fleet (a real task takes seconds of simulation per lease).
            Bound("service.round_trips_per_s", "min", 500.0,
                  prose=_NUMBER + r"/s\s+round-trip\s+floor"),
            # Latency is the autoscaler's signal quality: depth polls and
            # lease settles must stay cheap while a fleet streams rows.
            Bound("service.latency_ms.round_trip.p95", "max", 50.0,
                  prose=_NUMBER + r"ms\s+round-trip\s+p95"),
            Bound("service.errors", "max", 0),
        ),
        # Wider than the kernel tolerance: HTTP throughput is hostage to CI
        # network stacks.
        diffed=("service.round_trips_per_s",),
        tolerance=0.30),
}

_BENCH_NAME = re.compile(r"^BENCH_(\w+)\.json$")


def measured(document: dict, path: str) -> float | None:
    """The field at a dotted ``path``, a list as its length; ``None`` if absent."""
    node = document
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return len(node) if isinstance(node, list) else node


def is_smoke(document: dict) -> bool:
    """Whether a document records a ``--smoke`` run."""
    return document.get("mode") == "smoke" or document.get("smoke") is True


def check_bounds(label: str, document: dict, gate: Gate,
                 errors: list[str]) -> None:
    """Every bound of ``gate`` must hold on ``document``."""
    for bound in gate.bounds:
        if not bound.smoke and is_smoke(document):
            continue
        value = measured(document, bound.path)
        if value is None:
            errors.append(f"{label} lacks {bound.path}")
        elif bound.kind == "min" and value < bound.value:
            errors.append(f"{label}: {bound.path} = {value:.4g}, below "
                          f"the {bound.value:g} floor")
        elif bound.kind == "max" and value > bound.value:
            errors.append(f"{label}: {bound.path} = {value:.4g}, above "
                          f"the {bound.value:g} limit")


def check_regressions(baseline: dict, fresh: dict, gate: Gate,
                      errors: list[str]) -> None:
    """Every diffed metric must stay within tolerance of the baseline's."""
    for path in gate.diffed:
        reference = measured(baseline, path)
        value = measured(fresh, path)
        if reference is None or value is None:
            label = "committed baseline" if reference is None else "fresh run"
            errors.append(f"{label} lacks {path}")
            continue
        floor = reference * (1.0 - gate.tolerance)
        if value < floor:
            errors.append(f"{path} regressed to {value:.4g} (baseline "
                          f"{reference:.4g}, tolerance floor {floor:.4g})")


def check(name: str, baseline: dict, fresh: dict) -> list[str]:
    """All problems of a fresh ``BENCH_<name>.json`` against its baseline."""
    gate = GATES[name]
    errors: list[str] = []
    check_bounds("committed baseline", baseline, gate, errors)
    check_bounds("fresh run", fresh, gate, errors)
    check_regressions(baseline, fresh, gate, errors)
    return errors


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: check_bench.py FRESH_JSON", file=sys.stderr)
        return 2
    fresh_path = Path(argv[0])
    match = _BENCH_NAME.match(fresh_path.name)
    if match is None or match.group(1) not in GATES:
        print(f"check_bench.py: no gate for {fresh_path.name!r}; expected "
              f"BENCH_<name>.json with <name> one of {', '.join(GATES)}",
              file=sys.stderr)
        return 2
    name = match.group(1)
    baseline = json.loads((REPO_ROOT / f"BENCH_{name}.json").read_text())
    errors = check(name, baseline, json.loads(fresh_path.read_text()))
    for error in errors:
        print(f"ERROR: {error}")
    if errors:
        print(f"{len(errors)} {name} benchmark problem(s)")
        return 1
    gate = GATES[name]
    print(f"{name} bench OK: {len(gate.bounds)} bound(s) hold on the baseline "
          f"and the fresh run, {len(gate.diffed)} metric(s) within "
          f"{gate.tolerance:.0%} of the committed baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
