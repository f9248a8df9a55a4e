"""Golden publication-pack fixture: verify, rebuild, or re-run it.

The fixture under ``tests/data/golden/`` anchors the figure-level
determinism guarantee of ``repro-create report`` (the aggregate analogue of
the serial == parallel run-table invariant) and has two parts:

* ``sweep/`` — canonical run tables of a fixed-seed mini-campaign (a
  4-trial ``repetitions`` preset and a 2-trial two-BER ``wr`` preset).
  Trial execution is deterministic: ``tests/test_analysis.py``
  (``TestGoldenPack.test_injected_sweep_reexecutes_byte_identical``)
  re-executes the fault-injected ``wr`` preset and byte-compares both of
  its tables with these.  The tables are committed so that the pack check
  below needs no trial execution.
* ``pack/`` — the publication pack built from ``sweep/``.  Pack building is
  pure parsing plus deterministic arithmetic (see
  :mod:`repro.eval.analysis`), so regenerating it from the committed tables
  must be byte-identical *everywhere*; that is what ``--check`` (the CI
  ``report`` job and ``tests/test_analysis.py``) asserts.

Run from the repository root::

    PYTHONPATH=src python tools/golden_pack.py --check    # default
    PYTHONPATH=src python tools/golden_pack.py --rebuild  # refresh pack/
    PYTHONPATH=src python tools/golden_pack.py --rerun    # re-execute sweep/

``--rerun`` re-executes the mini-campaign (training/loading the surrogate
models) and rewrites both halves; use it when the trial pipeline itself
changes semantics.  ``--rebuild`` only rebuilds ``pack/`` from the committed
tables; use it when the analysis layer changes its artifact format.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN = REPO_ROOT / "tests" / "data" / "golden"

#: The fixed-seed mini-campaign: (sweep subdirectory, repro.cli argv).
CAMPAIGNS = (
    ("repetitions", ["campaign", "repetitions", "--trials", "4",
                     "--seed", "0"]),
    ("wr", ["campaign", "wr", "--trials", "2", "--bers", "1e-4", "1e-3",
            "--seed", "0"]),
)


def _analysis():
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.eval import analysis
    return analysis


def rerun_sweep() -> None:
    """Re-execute the mini-campaign and rewrite the committed sweep tables."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        for subdir, argv in CAMPAIGNS:
            out = Path(tmp) / subdir
            code = main(argv + ["--out", str(out)])
            if code != 0:
                raise SystemExit(f"campaign {argv} failed with exit {code}")
            target = GOLDEN / "sweep" / subdir
            if target.exists():
                shutil.rmtree(target)
            target.mkdir(parents=True)
            # Only the canonical tables are fixture material: the .json
            # mirrors are redundant and profiles/ is machine-dependent.
            for csv_path in sorted(out.glob("*.csv")):
                shutil.copy(csv_path, target / csv_path.name)
            print(f"sweep/{subdir}: "
                  f"{len(list(target.glob('*.csv')))} table(s) rewritten")


def rebuild_pack() -> None:
    """Rebuild the committed pack from the committed sweep tables."""
    analysis = _analysis()
    pack_dir = GOLDEN / "pack"
    if pack_dir.exists():
        shutil.rmtree(pack_dir)
    manifest = analysis.build_pack(GOLDEN / "sweep", pack_dir)
    print(f"pack/: {len(manifest['files']) + 1} files, "
          f"hash {manifest['pack_hash'][:16]}")


def check_pack() -> int:
    """Regenerate the pack from the committed sweep; byte-compare to pack/.

    Returns a process exit code: 0 when every artifact (manifest included)
    is byte-identical, 1 otherwise.
    """
    analysis = _analysis()
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        analysis.build_pack(GOLDEN / "sweep", tmp)
        fresh = {path.relative_to(tmp).as_posix(): path
                 for path in Path(tmp).rglob("*") if path.is_file()}
        committed = {path.relative_to(GOLDEN / "pack").as_posix(): path
                     for path in (GOLDEN / "pack").rglob("*") if path.is_file()}
        for name in sorted(set(fresh) | set(committed)):
            if name not in committed:
                problems.append(f"{name}: regenerated but not committed")
            elif name not in fresh:
                problems.append(f"{name}: committed but not regenerated")
            elif fresh[name].read_bytes() != committed[name].read_bytes():
                problems.append(f"{name}: differs from the committed golden "
                                "pack")
    for problem in problems:
        print(f"ERROR: {problem}")
    if problems:
        print(f"{len(problems)} golden-pack problem(s) — if the analysis "
              "layer changed intentionally, refresh the fixture with "
              "tools/golden_pack.py --rebuild")
        return 1
    print("golden pack OK: regenerated byte-identical from the committed "
          "sweep tables")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--check", action="store_true",
                       help="regenerate the pack and byte-compare to the "
                            "committed one (default)")
    group.add_argument("--rebuild", action="store_true",
                       help="rewrite pack/ from the committed sweep tables")
    group.add_argument("--rerun", action="store_true",
                       help="re-execute the mini-campaign, rewrite sweep/, "
                            "then rebuild pack/")
    args = parser.parse_args()
    if args.rerun:
        rerun_sweep()
        rebuild_pack()
        return 0
    if args.rebuild:
        rebuild_pack()
        return 0
    return check_pack()


if __name__ == "__main__":
    sys.exit(main())
