"""Scenario-catalog consistency checks (part of the CI ``docs`` job).

The scenario catalog (:mod:`repro.env.scenarios`) is surfaced in three
places that must never drift apart silently:

1. the **pinned Table-10 vocabulary fingerprint** — if
   ``build_vocabulary().fingerprint`` moves away from
   ``TABLE10_FINGERPRINT``, every shipped planner checkpoint, token id, and
   run-table output changes; this check (and the golden test in
   ``tests/test_scenarios.py``) fails loudly instead;
2. the **CLI ``suites`` listing** — every catalog entry must appear with
   its current suite fingerprint (and vocabulary fingerprint for scenario
   entries);
3. the **docs suite tables** — ``docs/scenarios.md`` and the README
   catalog table must list exactly the registered suites;

plus the registry invariant that every ``scenario``-vocabulary entry has
its ``jarvis-<name>`` / ``jarvis-<name>-rotated`` system keys (declared
predictor-less) and a campaign preset whose row runs its suite.

Run from the repository root (CI does) or anywhere::

    PYTHONPATH=src python tools/check_catalog.py

Exit status 0 means clean; 1 prints one line per problem.  The same checks
run in tier-1 via ``tests/test_scenarios.py``.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Table rows whose first cell is a bare code-span, e.g. ``| `navigation` | ...``.
_SUITE_ROW = re.compile(r"^\|\s*`([a-z0-9-]+)`\s*\|", re.MULTILINE)


def _import_repro():
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.agents.registry import BUILTIN_SYSTEM_KEYS, SYSTEM_HAS_PREDICTOR
        from repro.agents.vocabulary import (TABLE10_FINGERPRINT,
                                             build_vocabulary,
                                             scenario_vocabulary)
        from repro.cli import CAMPAIGN_PRESETS
        from repro.env.scenarios import CATALOG
    finally:
        sys.path.pop(0)
    return (CATALOG, CAMPAIGN_PRESETS, BUILTIN_SYSTEM_KEYS,
            SYSTEM_HAS_PREDICTOR, TABLE10_FINGERPRINT, build_vocabulary,
            scenario_vocabulary)


def check_catalog(errors: list[str]) -> None:
    (catalog, presets, system_keys, has_predictor, pinned, build_vocabulary,
     scenario_vocabulary) = _import_repro()

    # 1. The default Table-10 vocabulary fingerprint is pinned.
    actual = build_vocabulary().fingerprint
    if actual != pinned:
        errors.append(
            f"Table-10 vocabulary fingerprint drifted: built {actual}, "
            f"pinned TABLE10_FINGERPRINT is {pinned} — this invalidates "
            "every shipped planner checkpoint; the default vocabulary must "
            "never change")

    # 2. The CLI `suites` listing shows every entry with its fingerprints.
    listing = subprocess.run(
        [sys.executable, "-m", "repro.cli", "suites"],
        capture_output=True, text=True, check=True, cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}).stdout
    for entry in catalog.entries():
        if not re.search(rf"^{re.escape(entry.name)}\b", listing, re.MULTILINE):
            errors.append(f"repro-create suites does not list scenario "
                          f"{entry.name!r}")
            continue
        if entry.fingerprint not in listing:
            errors.append(f"repro-create suites does not show the current "
                          f"fingerprint {entry.fingerprint} of {entry.name!r}")
        if entry.vocabulary == "scenario":
            fingerprint = scenario_vocabulary(entry.build()).fingerprint
            if fingerprint not in listing:
                errors.append(
                    f"repro-create suites does not show the vocabulary "
                    f"fingerprint {fingerprint} of scenario {entry.name!r}")
    if pinned not in listing:
        errors.append("repro-create suites does not print the pinned "
                      "Table-10 vocabulary fingerprint")

    # 3. Docs suite tables cover the registered suites.  docs/scenarios.md
    # must list *exactly* the catalog (its only code-span table is the
    # catalog table); the README must at least have a row per suite (its
    # other tables document campaign presets).
    registered = set(catalog.names())
    scenarios_md = REPO_ROOT / "docs" / "scenarios.md"
    if not scenarios_md.exists():
        errors.append("docs/scenarios.md: missing (the scenario catalog "
                      "must be documented)")
    else:
        documented = set(_SUITE_ROW.findall(scenarios_md.read_text()))
        for name in sorted(documented - registered):
            errors.append(f"docs/scenarios.md: documents unknown suite "
                          f"{name!r} (not in repro.env.scenarios.CATALOG)")
        for name in sorted(registered - documented):
            errors.append(f"docs/scenarios.md: suite {name!r} is registered "
                          "but missing from the catalog table")
    readme_rows = set(_SUITE_ROW.findall((REPO_ROOT / "README.md").read_text()))
    for name in sorted(registered - readme_rows):
        errors.append(f"README.md: suite {name!r} is registered but missing "
                      "from the catalog table")

    # 4. Scenario entries have system keys, predictor traits, and presets.
    for entry in catalog.entries():
        if entry.vocabulary != "scenario":
            continue
        for key in (f"jarvis-{entry.name}", f"jarvis-{entry.name}-rotated"):
            if key not in system_keys:
                errors.append(f"scenario {entry.name!r} has no registry "
                              f"key {key!r}")
            elif has_predictor.get(key, False):
                errors.append(f"registry key {key!r} is declared to ship an "
                              "entropy predictor; scenario systems never do")
        if entry.name not in presets:
            errors.append(f"scenario {entry.name!r} has no campaign preset")
        elif presets[entry.name].suite != entry.name:
            errors.append(f"campaign preset {entry.name!r} runs the "
                          f"{presets[entry.name].suite!r} suite, not its "
                          "own scenario")


def collect_errors() -> list[str]:
    errors: list[str] = []
    check_catalog(errors)
    return errors


def main() -> int:
    errors = collect_errors()
    for error in errors:
        print(f"ERROR: {error}")
    if errors:
        print(f"{len(errors)} catalog problem(s)")
        return 1
    print("catalog OK: suites listing, registry keys, presets, docs tables, "
          "and the pinned Table-10 fingerprint are consistent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
