"""Two-worker distributed-campaign smoke test (the CI ``distributed`` job).

Exercises the whole scheduler stack end to end through the real CLI and
asserts the system's central invariant — the merged run table from multiple
workers, one of them SIGKILL'd mid-run, is **byte-identical** to the table a
single-host serial run writes:

1. run the preset serially (``campaign <preset> --out``) as the reference;
2. enqueue the same preset into a fresh work queue (``--queue``);
3. start a *victim* ``worker`` with ``--jobs 2``, wait until it holds a
   lease and its pool has forked its two children, and SIGKILL it — the
   lease is now orphaned with a frozen heartbeat.  Every process the
   victim had started must be gone 5 s later;
4. start two concurrent survivor workers with ``--wait`` and a short lease
   TTL; one of them reclaims the expired lease, and together they drain the
   queue;
5. ``merge`` the worker tables and byte-compare CSV and JSON against the
   serial reference;
6. assert the ``/dev/shm`` namespace holds no ``repro-wp-*`` segment: pool
   children inherit their kernel plans, so no run may create one.

For the ``fleet`` preset it also checks that every row the survivors ran
stamps ``vector_path=fleet`` in their profile sidecars: queued fleet cells
must take the same co-stepped path as a serial run.

Run from the repository root; arguments after ``--`` go to ``campaign``::

    PYTHONPATH=src python tools/distributed_smoke.py
    PYTHONPATH=src python tools/distributed_smoke.py --preset fleet \
        --batch 16 -- --fleet-sizes 4 16 --bers 1e-4

Exit status 0 means the invariant held and the reclaim path was exercised.
"""

from __future__ import annotations

import argparse
import csv
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SHM_ROOT = Path("/dev/shm")


def _wp_segments() -> list[str]:
    """Weight-plane segments currently present in the host's shm namespace."""
    try:
        return sorted(p.name for p in SHM_ROOT.iterdir()
                      if p.name.startswith("repro-wp-"))
    except OSError:
        return []


def _cli(*args: str, **kwargs) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    return subprocess.run([sys.executable, "-m", "repro.cli", *args],
                          env=env, cwd=REPO_ROOT, text=True,
                          capture_output=True, **kwargs)


def _checked(step: str, result: subprocess.CompletedProcess) -> str:
    if result.returncode != 0:
        print(f"FAIL [{step}] exit {result.returncode}\n"
              f"{result.stdout}\n{result.stderr}")
        sys.exit(1)
    return result.stdout


def _proc_stat(pid: int) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name, or None."""
    try:
        text = (Path("/proc") / str(pid) / "stat").read_text()
    except OSError:
        return None
    return text.rsplit(")", 1)[1].split()  # the name may hold spaces


def _descendants(pid: int) -> list[int]:
    """Live descendants of ``pid``, from ``/proc`` (none where it is absent)."""
    children: dict[int, list[int]] = {}
    for entry in Path("/proc").glob("[0-9]*"):
        fields = _proc_stat(int(entry.name))
        if fields is not None and fields[0] != "Z":
            children.setdefault(int(fields[1]), []).append(int(entry.name))
    found, stack = [], [pid]
    while stack:
        for child in children.get(stack.pop(), []):
            found.append(child)
            stack.append(child)
    return found


def _alive(pid: int) -> bool:
    fields = _proc_stat(pid)
    return fields is not None and fields[0] != "Z"


def _leases(queue: Path) -> list[Path]:
    return [p for p in (queue / "leases").glob("*.json")
            if not p.name.endswith(".owner.json")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", default="repetitions")
    parser.add_argument("--trials", type=int, default=8)
    parser.add_argument("--batch", type=int, default=1,
                        help="cells per queued task (default: 1)")
    parser.add_argument("--lease-ttl", type=float, default=10.0,
                        help="survivor lease TTL: how long the victim's "
                             "orphaned lease takes to expire (default: 10)")
    parser.add_argument("--workdir", default=None,
                        help="working directory (default: a fresh tempdir)")
    parser.add_argument("preset_args", nargs="*", metavar="-- ARG",
                        help="extra 'campaign' arguments for the preset")
    args = parser.parse_args()

    work = Path(args.workdir or tempfile.mkdtemp(prefix="repro-distributed-"))
    queue = work / "queue"
    trials = str(args.trials)
    print(f"distributed smoke test in {work} (preset {args.preset}, "
          f"{args.trials} trials)")

    campaign = ("campaign", args.preset, "--trials", trials,
                *args.preset_args)
    print("[1/6] serial reference run")
    _checked("serial", _cli(*campaign, "--out", str(work / "serial")))

    print(f"[2/6] enqueue into the work queue (up to {args.batch} cells "
          "per task)")
    out = _checked("enqueue", _cli(*campaign, "--queue", str(queue),
                                   "--batch", str(args.batch)))
    print("   " + out.splitlines()[0])

    print("[3/6] start a victim worker (--jobs 2) and SIGKILL it while it "
          "holds a lease")
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    victim = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "worker", "--queue", str(queue),
         "--id", "victim", "--lease-ttl", "300", "--jobs", "2"],
        env=env, cwd=REPO_ROOT, stdout=subprocess.DEVNULL,
        stderr=subprocess.STDOUT)
    deadline = time.time() + 300
    while time.time() < deadline and not _leases(queue):
        time.sleep(0.02)
    held = _leases(queue)
    if not held:
        victim.kill()
        print("FAIL: the victim worker never claimed a lease")
        return 1
    # The pool forks its two children at its first submit, after building
    # the claimed task's system (served from the on-disk model cache the
    # serial run warmed); record every process the victim started before
    # killing it.
    fork_deadline = min(deadline, time.time() + 60)
    while time.time() < fork_deadline and len(_descendants(victim.pid)) < 2:
        time.sleep(0.02)
    started = _descendants(victim.pid)
    os.kill(victim.pid, signal.SIGKILL)
    victim.wait()
    print(f"   killed pid {victim.pid} ({len(started)} pool children) "
          f"holding {[p.stem for p in held]}")
    reap_deadline = time.time() + 5
    while time.time() < reap_deadline and any(map(_alive, started)):
        time.sleep(0.05)
    survivors_of_kill = [pid for pid in started if _alive(pid)]
    if survivors_of_kill:
        print(f"FAIL: processes the victim started outlived it by 5 s: "
              f"{survivors_of_kill} (of {started})")
        return 1
    print(f"   all {len(started)} processes the victim started died with it")

    print(f"[4/6] two concurrent survivors drain the queue "
          f"(lease TTL {args.lease_ttl:g}s)")
    survivors = [subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "worker", "--queue", str(queue),
         "--id", f"survivor-{index}", "--lease-ttl", str(args.lease_ttl),
         "--poll", "0.5", "--wait"],
        env=env, cwd=REPO_ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True) for index in (1, 2)]
    outputs = [proc.communicate(timeout=600)[0] for proc in survivors]
    for index, (proc, output) in enumerate(zip(survivors, outputs), start=1):
        if proc.returncode != 0:
            print(f"FAIL: survivor-{index} exited {proc.returncode}\n{output}")
            return 1
    if not any("re-queued" in output for output in outputs):
        print("FAIL: no survivor reclaimed the victim's expired lease\n"
              + "\n".join(outputs))
        return 1
    print("   queue drained; the victim's lease was reclaimed and re-run")
    if args.preset == "fleet":
        paths = sorted(queue.glob("results/survivor-*/profiles/*.csv"))
        stamps = set()
        for path in paths:
            with path.open(newline="") as handle:
                stamps.update(row["vector_path"]
                              for row in csv.DictReader(handle))
        if stamps != {"fleet"}:
            print(f"FAIL: survivors' sidecars stamp vector_path "
                  f"{sorted(stamps)}; queued fleet cells must run on the "
                  "fleet path")
            return 1
        print("   survivors ran every queued fleet cell on the fleet path")

    print("[5/6] merge the worker tables and compare with the serial run")
    print("   " + _checked("merge", _cli(
        "merge", str(work / "merged"), str(queue))).splitlines()[0])
    mismatches = []
    for reference in sorted((work / "serial").glob("*.*")):
        if reference.suffix not in (".csv", ".json"):
            continue
        merged = work / "merged" / reference.name
        if not merged.exists():
            mismatches.append(f"{merged} missing")
        elif merged.read_bytes() != reference.read_bytes():
            mismatches.append(f"{merged.name} differs from the serial table")
    if mismatches:
        print("FAIL: merged tables are not byte-identical to the serial run:")
        for mismatch in mismatches:
            print(f"  {mismatch}")
        return 1
    print("[6/6] shared-memory namespace must be clean")
    leaked = _wp_segments()
    if leaked:
        print(f"FAIL: the run left weight-plane segments behind: {leaked}")
        return 1
    print("   /dev/shm holds no weight-plane segment")
    print("OK: merged tables byte-identical to the single-host serial run; "
          "no cells lost to the SIGKILL; no shm segments created")
    return 0


if __name__ == "__main__":
    sys.exit(main())
