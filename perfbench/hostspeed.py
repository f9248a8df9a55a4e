"""How fast the host runs right now, from a fixed probe loop.

The benchmark host is a small shared VM: its vCPUs slow down by up to 1.75x
for seconds at a time when neighbouring tenants are busy, and CPU time slows
with wall time, so neither clock alone is steady.  The probe's work never
changes, so its time moves only with the host.  Timing it next to each timed
unit of work and scaling the unit's time by ``REFERENCE_PROBE_S / probe``
gives the unit's time at a fixed reference speed: a speed-up of the program
shows in full, while the host's state cancels out.

This holds only while nothing of the program runs during a probe.  Every
workload is a closed loop, so a unit returns only when its work has settled
and the probes run on an idle program.
"""

from __future__ import annotations

import functools
import os
import time

#: The probe's time on the reference host (a 2-vCPU shared VM) in its fast
#: state; a probe that reads this needs no scaling.
REFERENCE_PROBE_S = 0.003
#: CPUs a probe visits at most, so that a large host keeps probes short.
MAX_PROBED_CPUS = 4


@functools.cache
def _arrays():
    import numpy as np

    rng = np.random.default_rng(0)
    return (rng.standard_normal((48, 48)),
            rng.integers(-8, 8, (48, 48)).astype(np.int32))


def probe(all_cpus: bool = False, repeats: int = 3) -> float:
    """Seconds of the fixed loop on this thread's current vCPU.

    Each vCPU's speed swings on its own, within a second.  Serial work runs
    on one vCPU at a time, which the probe shares; work spread over a process
    pool runs on all of them, so with ``all_cpus`` the loop runs pinned to
    each of (at most ``MAX_PROBED_CPUS`` of) the CPUs this process may use,
    and the result is its time at their mean speed.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if not all_cpus or len(cpus) == 1:
        return _probe_here(repeats)
    speeds = []
    try:
        for cpu in cpus[:MAX_PROBED_CPUS]:
            os.sched_setaffinity(0, {cpu})
            speeds.append(1.0 / _probe_here(repeats))
    finally:
        os.sched_setaffinity(0, cpus)
    return len(speeds) / sum(speeds)


def _probe_here(repeats: int) -> float:
    """Seconds of the fastest of ``repeats`` runs of the fixed loop.

    The loop mixes what the campaigns spend their time on: small float and
    integer matrix products and interpreted Python.
    """
    floats, ints = _arrays()
    fastest = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0.0
        for _ in range(30):
            total += float((floats @ floats)[0, 0]) + int((ints @ ints)[0, 0])
            total += sum(i * i for i in range(100))
        fastest = min(fastest, time.perf_counter() - started)
    return fastest


def at_reference(seconds: float, probe_before: float, probe_after: float) -> float:
    """``seconds`` of work, rescaled to the reference host speed."""
    return seconds * 2 * REFERENCE_PROBE_S / (probe_before + probe_after)
