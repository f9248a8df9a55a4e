"""Documentation consistency checks (the CI ``docs`` job).

Verifies that the prose and the code cannot drift apart silently:

1. every relative markdown link (and ``#anchor``) in ``README.md`` and
   ``docs/*.md`` resolves to an existing file (and heading);
2. ``python -m repro.cli campaign --help`` lists every preset documented in
   the README and ``docs/campaigns.md`` preset tables with its figure text,
   every preset those tables document is a row of
   ``repro.cli.CAMPAIGN_PRESETS``, and every row is documented in both
   places;
3. every benchmark bound the prose quotes (``Nx decode-speedup``,
   ``Nx batched-decode``, ``Nx plan-reuse``, ``Nx fleet-stepping``,
   ``N/s round-trip floor``, ``Nms round-trip p95``) matches its value in
   ``GATES`` of ``tools/check_bench.py`` — the one table the CI
   ``kernels``, ``fleet`` and ``service`` jobs enforce;
4. the report-column table in ``docs/campaigns.md`` documents exactly the
   figure columns ``repro.eval.analysis.SUMMARY_COLUMNS`` emits, and every
   profile sidecar column (``repro.eval.runtable.PROFILE_COLUMNS``,
   including ``queue_backend`` and the derived columns) is documented in
   ``docs/runtable-schema.md``.

Run from the repository root (CI does) or anywhere::

    PYTHONPATH=src python tools/check_docs.py

Exit status 0 means clean; 1 prints one line per problem.  The same checks
run in tier-1 via ``tests/test_docs.py``.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: ``[text](target)`` markdown links; group 2 is the target.
_LINK = re.compile(r"\[([^\]]*)\]\(([^)\s]+)\)")
#: Table rows whose first cell is a bare code-span, e.g. ``| `ad-planner` | ...``.
_PRESET_ROW = re.compile(r"^\|\s*`([a-z0-9-]+)`\s*\|", re.MULTILINE)
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def markdown_files() -> list[Path]:
    return [REPO_ROOT / "README.md"] + sorted((REPO_ROOT / "docs").glob("*.md"))


def _github_slug(heading: str) -> str:
    """GitHub's anchor slug: lowercase, drop punctuation, spaces to hyphens."""
    cleaned = "".join(c for c in heading.lower() if c.isalnum() or c in " -_")
    return cleaned.strip().replace(" ", "-")


def _anchors(markdown: str) -> set[str]:
    return {_github_slug(match.group(1)) for match in _HEADING.finditer(markdown)}


def check_links(errors: list[str]) -> None:
    """Every relative link target (file and optional #anchor) must exist."""
    for source in markdown_files():
        text = source.read_text()
        for match in _LINK.finditer(text):
            target = match.group(2)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, anchor = target.partition("#")
            resolved = (source.parent / path_part).resolve() if path_part \
                else source.resolve()
            if not resolved.exists():
                errors.append(f"{source.relative_to(REPO_ROOT)}: broken link "
                              f"{target!r} (no such file {path_part!r})")
                continue
            if anchor and resolved.suffix == ".md":
                if anchor not in _anchors(resolved.read_text()):
                    errors.append(f"{source.relative_to(REPO_ROOT)}: broken "
                                  f"anchor {target!r} (no heading "
                                  f"#{anchor} in {path_part or source.name})")


def _documented_presets(path: Path) -> set[str]:
    """Code-span names in the first column of ``| Preset | ...`` tables.

    Only tables whose header row starts with a ``Preset`` column count —
    other code-span-led tables (e.g. the scenario-catalog suite table,
    checked by ``tools/check_catalog.py``) are not preset documentation.
    """
    presets: set[str] = set()
    in_preset_table = False
    for line in path.read_text().splitlines():
        if re.match(r"^\|\s*Preset\s*\|", line):
            in_preset_table = True
            continue
        if in_preset_table:
            match = _PRESET_ROW.match(line)
            if match:
                presets.add(match.group(1))
            elif not re.match(r"^\|[-\s|]*\|$", line):
                in_preset_table = False
    return presets


def check_presets(errors: list[str]) -> None:
    """README / docs preset tables, CAMPAIGN_PRESETS, and --help must agree."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.cli import CAMPAIGN_PRESETS
    finally:
        sys.path.pop(0)
    registered = set(CAMPAIGN_PRESETS)

    help_text = subprocess.run(
        [sys.executable, "-m", "repro.cli", "campaign", "--help"],
        capture_output=True, text=True, check=True,
        cwd=REPO_ROOT, env={**__import__("os").environ,
                            "PYTHONPATH": str(REPO_ROOT / "src")}).stdout
    # argparse wraps lines mid-word ("ad-\nplanner"); compare whitespace-free.
    compact_help = "".join(help_text.split())

    tables = {path: _documented_presets(path)
              for path in (REPO_ROOT / "README.md",
                           REPO_ROOT / "docs" / "campaigns.md")}
    for path, documented in tables.items():
        rel = path.relative_to(REPO_ROOT)
        for preset in sorted(documented - registered):
            errors.append(f"{rel}: documents unknown preset {preset!r} "
                          "(not in repro.cli.CAMPAIGN_PRESETS)")
        for preset in sorted(registered - documented):
            errors.append(f"{rel}: preset {preset!r} is registered but missing "
                          "from the preset table")
    for preset in sorted(registered):
        figure = "".join(CAMPAIGN_PRESETS[preset].figure.split())
        if f"{preset}={figure}" not in compact_help:
            errors.append(f"repro.cli campaign --help does not list the "
                          f"documented preset {preset!r} with its figure")


def check_bench_floors(errors: list[str]) -> None:
    """Bounds quoted in the prose must match the benchmark gate.

    Every bound of ``tools/check_bench.py``'s ``GATES`` that names a prose
    pattern (e.g. "the 2x batched-decode floor") must be quoted in at least
    one markdown file, so every CI bound keeps a prose counterpart, and
    every quote must give the bound's value.
    """
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        from check_bench import GATES
    finally:
        sys.path.pop(0)
    for gate in GATES.values():
        for bound in gate.bounds:
            if bound.prose is None:
                continue
            quoted = 0
            for source in markdown_files():
                rel = source.relative_to(REPO_ROOT)
                for match in re.finditer(bound.prose, source.read_text()):
                    quoted += 1
                    if float(match.group(1)) != bound.value:
                        errors.append(
                            f"{rel}: quotes {match.group(0)!r} but "
                            f"tools/check_bench.py holds {bound.path} to "
                            f"{bound.value:g}")
            if not quoted:
                errors.append(
                    f"no markdown file quotes the {bound.path} bound "
                    f"({bound.value:g}) — document it so the CI gate has a "
                    "prose counterpart")


#: Code spans inside the first cell of a ``| Column | ...`` table row.
_COLUMN_ROW = re.compile(r"^\|([^|]*)\|", re.MULTILINE)
_CODE_SPAN = re.compile(r"`([A-Za-z0-9_]+)`")


def _documented_columns(path: Path) -> set[str]:
    """Code-span names in the first cell of ``| Column | ...`` table rows."""
    columns: set[str] = set()
    in_column_table = False
    for line in path.read_text().splitlines():
        if re.match(r"^\|\s*Column\s*\|", line):
            in_column_table = True
            continue
        if in_column_table:
            match = _COLUMN_ROW.match(line)
            if match and not re.match(r"^\|[-\s|]*\|$", line):
                columns.update(_CODE_SPAN.findall(match.group(1)))
            elif not re.match(r"^\|[-\s|]*\|$", line):
                in_column_table = False
    return columns


def check_report_columns(errors: list[str]) -> None:
    """The documented report/sidecar columns must match the code constants.

    ``docs/campaigns.md`` documents the figure columns in a
    ``| Column | Meaning |`` table: its code-span set must equal
    ``analysis.SUMMARY_COLUMNS`` exactly, so a column added to (or renamed
    in) the analysis layer cannot ship undocumented.  The derived sidecar
    columns must likewise each appear as a code span in
    ``docs/runtable-schema.md``.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.eval.analysis import SUMMARY_COLUMNS
        from repro.eval.runtable import PROFILE_COLUMNS
    finally:
        sys.path.pop(0)

    campaigns = REPO_ROOT / "docs" / "campaigns.md"
    documented = _documented_columns(campaigns)
    rel = campaigns.relative_to(REPO_ROOT)
    for column in sorted(documented - set(SUMMARY_COLUMNS)):
        errors.append(f"{rel}: documents unknown report column {column!r} "
                      "(not in repro.eval.analysis.SUMMARY_COLUMNS)")
    for column in sorted(set(SUMMARY_COLUMNS) - documented):
        errors.append(f"{rel}: report column {column!r} is emitted by the "
                      "analysis layer but missing from the column table")

    schema = REPO_ROOT / "docs" / "runtable-schema.md"
    schema_text = schema.read_text()
    for column in PROFILE_COLUMNS:
        if f"`{column}`" not in schema_text:
            errors.append(f"{schema.relative_to(REPO_ROOT)}: profile sidecar "
                          f"column {column!r} is undocumented")


def collect_errors() -> list[str]:
    errors: list[str] = []
    check_links(errors)
    check_presets(errors)
    check_bench_floors(errors)
    check_report_columns(errors)
    return errors


def main() -> int:
    errors = collect_errors()
    for error in errors:
        print(f"ERROR: {error}")
    if errors:
        print(f"{len(errors)} documentation problem(s)")
        return 1
    print(f"docs OK: {len(markdown_files())} markdown files checked, "
          "links and campaign presets consistent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
