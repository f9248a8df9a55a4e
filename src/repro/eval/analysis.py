"""Run-table analytics: grouped statistics, campaign diffs, publication packs.

This module is the figure-level layer above :mod:`repro.eval.runtable`: it
turns merged per-trial run tables into the aggregate artifacts the paper
reports — grouped summaries with confidence intervals, A-vs-B delta tables
with significance flags, and a *publication pack* (one deterministic JSON +
CSV + markdown file per figure plus a hash manifest) regenerated from a sweep
directory by ``repro-create report``.

Determinism is the design constraint throughout.  A pack built twice from the
same sweep directory must be byte-identical, and the committed golden pack
must regenerate hash-identical on any host and library version, so every
number that reaches an artifact is produced by pure-Python IEEE-754
arithmetic:

* means use :func:`math.fsum` (correctly-rounded sums);
* the normal quantiles behind Wilson intervals and significance tests come
  from the hardcoded :data:`~repro.eval.metrics.Z_SCORES` table instead of
  ``scipy``'s ``ppf`` (whose low bits have drifted across scipy releases);
* bootstrap resampling draws indices from a self-contained SplitMix64
  generator (:func:`_splitmix64`) rather than numpy's ``Generator``, whose
  stream stability across versions is not guaranteed;
* floats are serialized with ``repr`` (shortest exact decimal), JSON is
  emitted with a fixed layout, and artifacts carry no timestamps or paths.

The statistics themselves follow the run-table conventions: success rates get
Wilson score intervals (well-behaved at 0%/100% and for small n, unlike the
normal approximation of :func:`repro.eval.metrics.confidence_interval`);
per-trial quantities (steps, energy) get percentile-bootstrap intervals of
the mean, clamped to bracket the point estimate.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from ..hardware.energy import DEFAULT_ENERGY_MODEL
from .metrics import Z_SCORES, _z_score
from .runtable import RunRecord, RunTable, _format_cell, is_run_table
from .reporting import format_markdown_table

__all__ = [
    "Z_SCORES", "wilson_interval", "bootstrap_interval", "two_proportion_z",
    "significant_difference", "GroupStats", "GroupDelta", "SUMMARY_COLUMNS",
    "DIFF_COLUMNS", "group_records", "diff_groups", "FigureSummary",
    "discover_tables", "build_figure", "build_pack", "diff_packs",
    "verify_pack", "PackDiff", "PACK_FORMAT",
]

# ----------------------------------------------------------------------
# Deterministic statistics core
# ----------------------------------------------------------------------

def wilson_interval(successes: int, trials: int,
                    confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial success rate.

    Bounds always bracket the point estimate ``successes / trials``, shrink
    monotonically with ``trials``, and degenerate correctly at the edges: the
    lower bound is exactly ``0.0`` at zero successes and the upper bound
    exactly ``1.0`` at all-successes (the clamp makes the mathematical zero
    of the spread term exact in floating point too).
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must be within [0, trials]")
    z = _z_score(confidence)
    rate = successes / trials
    denominator = 1.0 + z * z / trials
    center = (rate + z * z / (2.0 * trials)) / denominator
    spread = z * math.sqrt(rate * (1.0 - rate) / trials
                           + z * z / (4.0 * trials * trials)) / denominator
    return (min(rate, max(0.0, center - spread)),
            max(rate, min(1.0, center + spread)))


_MASK64 = (1 << 64) - 1


def _splitmix64(seed: int) -> Iterator[int]:
    """SplitMix64: tiny, well-mixed 64-bit PRNG with a frozen algorithm.

    Used for bootstrap index generation instead of ``numpy.random`` because
    the byte-identity of publication packs must not depend on the numpy
    version's stream implementation.
    """
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        word = state
        word = ((word ^ (word >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        word = ((word ^ (word >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield word ^ (word >> 31)


def _quantile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of pre-sorted values (numpy default)."""
    if not sorted_values:
        raise ValueError("cannot take the quantile of no values")
    position = q * (len(sorted_values) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return float(sorted_values[low])
    weight = position - low
    return float(sorted_values[low] * (1.0 - weight)
                 + sorted_values[high] * weight)


def bootstrap_interval(values: Sequence[float], confidence: float = 0.95,
                       resamples: int = 200, seed: int = 0) -> tuple[float, float]:
    """Percentile-bootstrap confidence interval of the mean.

    Deterministic: the resampling indices come from :func:`_splitmix64`
    seeded with ``seed``, so identical inputs always produce identical
    bounds.  The bounds are clamped to bracket the point estimate (the
    sample mean), which the raw percentile method does not guarantee for
    very skewed samples; constant samples degenerate to a zero-width
    interval at the value.
    """
    if not values:
        raise ValueError("cannot bootstrap an empty sample")
    _z_score(confidence)  # validate up front, same supported levels
    values = [float(v) for v in values]
    point = math.fsum(values) / len(values)
    if resamples < 1:
        raise ValueError("resamples must be >= 1")
    count = len(values)
    stream = _splitmix64(seed)
    means = []
    for _ in range(resamples):
        # Modulo on a 64-bit word: bias is < count / 2**64, irrelevant here,
        # and the arithmetic is identical on every platform.
        resample = [values[next(stream) % count] for _ in range(count)]
        means.append(math.fsum(resample) / count)
    means.sort()
    alpha = 1.0 - confidence
    return (min(point, _quantile(means, alpha / 2.0)),
            max(point, _quantile(means, 1.0 - alpha / 2.0)))


def two_proportion_z(successes_a: int, trials_a: int,
                     successes_b: int, trials_b: int) -> float:
    """Pooled two-proportion z statistic of B versus A (positive = B higher)."""
    if trials_a <= 0 or trials_b <= 0:
        raise ValueError("trials must be positive")
    pooled = (successes_a + successes_b) / (trials_a + trials_b)
    variance = pooled * (1.0 - pooled) * (1.0 / trials_a + 1.0 / trials_b)
    if variance == 0.0:
        return 0.0
    return ((successes_b / trials_b) - (successes_a / trials_a)) \
        / math.sqrt(variance)


def significant_difference(successes_a: int, trials_a: int,
                           successes_b: int, trials_b: int,
                           confidence: float = 0.95) -> bool:
    """Whether two success rates differ at the given two-sided level."""
    return abs(two_proportion_z(successes_a, trials_a,
                                successes_b, trials_b)) > _z_score(confidence)


# ----------------------------------------------------------------------
# Grouped summaries
# ----------------------------------------------------------------------

def _group_seed(group: tuple[tuple[str, str], ...]) -> int:
    """Bootstrap seed derived from the group identity, not row order."""
    label = "\x1f".join(f"{axis}={value}" for axis, value in group)
    return int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "big")


@dataclass(frozen=True)
class GroupStats:
    """Aggregate statistics of one group of run-table rows.

    ``group`` holds the (axis, value) pairs that identify the group, in the
    grouping order; everything else is a statistic over the group's rows.
    Interval bounds are Wilson (success rate) and percentile bootstrap
    (steps, energy) at the confidence level passed to
    :func:`group_records`.
    """

    group: tuple[tuple[str, str], ...]
    num_trials: int
    successes: int
    success_rate: float
    success_lo: float
    success_hi: float
    mean_steps: float
    steps_lo: float
    steps_hi: float
    mean_energy_j: float
    energy_lo: float
    energy_hi: float
    effective_voltage: float
    mean_planner_invocations: float
    macs_total: float
    flips_total: int

    def label(self) -> str:
        return "/".join(value for _, value in self.group)

    def as_row(self) -> dict:
        """Flat artifact row: the group as a JSON cell, stats verbatim."""
        row = {"group": json.dumps(dict(self.group))}
        for field in fields(self)[1:]:
            row[field.name] = getattr(self, field.name)
        return row


#: Columns of a figure summary artifact, in on-disk order.
SUMMARY_COLUMNS: tuple[str, ...] = ("group",) + tuple(
    f.name for f in fields(GroupStats))[1:]


def axis_value(record: RunRecord, axis: str) -> str:
    """The value of a grouping axis on one record, as a canonical string.

    Axes resolve against record fields first (``condition``, ``system``,
    ``task``, ...), then against the spec's free-form ``params`` labels
    (``ber``, ``policy``, ``config``, ...); an axis absent from both is the
    empty string, so heterogeneous tables still group cleanly.
    """
    if axis in RunRecord.__dataclass_fields__:
        return _format_cell(axis, getattr(record, axis))
    return record.param_dict().get(axis, "")


def group_records(records: Iterable[RunRecord],
                  by: Sequence[str] = ("condition",),
                  extra: tuple[tuple[str, str], ...] = (),
                  confidence: float = 0.95) -> list[GroupStats]:
    """Group rows by spec axes and compute per-group statistics.

    ``by`` names the grouping axes (see :func:`axis_value`); ``extra``
    prepends constant (axis, value) pairs to every group identity — the pack
    builder uses it to tag groups with their source table.  Groups keep the
    first-seen order of their rows, so output order is deterministic given
    table order.
    """
    groups: dict[tuple[tuple[str, str], ...], list[RunRecord]] = {}
    for record in records:
        key = extra + tuple((axis, axis_value(record, axis)) for axis in by)
        groups.setdefault(key, []).append(record)
    return [_summarize_group(key, rows, confidence)
            for key, rows in groups.items()]


def _summarize_group(group: tuple[tuple[str, str], ...],
                     rows: list[RunRecord],
                     confidence: float) -> GroupStats:
    count = len(rows)
    successes = sum(1 for r in rows if r.success)
    success_lo, success_hi = wilson_interval(successes, count, confidence)
    seed = _group_seed(group)
    steps = [float(r.steps) for r in rows]
    steps_lo, steps_hi = bootstrap_interval(steps, confidence, seed=seed)
    energies = [r.energy_j for r in rows]
    energy_lo, energy_hi = bootstrap_interval(energies, confidence,
                                              seed=seed + 1)
    merged_macs: dict[float, float] = {}
    for record in rows:
        for voltage, macs in record.macs_by_voltage().items():
            merged_macs[voltage] = merged_macs.get(voltage, 0.0) + macs
    return GroupStats(
        group=group,
        num_trials=count,
        successes=successes,
        success_rate=successes / count,
        success_lo=success_lo,
        success_hi=success_hi,
        mean_steps=math.fsum(steps) / count,
        steps_lo=steps_lo,
        steps_hi=steps_hi,
        mean_energy_j=math.fsum(energies) / count,
        energy_lo=energy_lo,
        energy_hi=energy_hi,
        effective_voltage=DEFAULT_ENERGY_MODEL.effective_voltage(merged_macs),
        mean_planner_invocations=math.fsum(
            float(r.planner_invocations) for r in rows) / count,
        macs_total=math.fsum(r.macs_total for r in rows),
        flips_total=sum(r.flips_total for r in rows),
    )


# ----------------------------------------------------------------------
# Cross-campaign diff
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GroupDelta:
    """A-vs-B comparison of one group present in both summaries."""

    group: tuple[tuple[str, str], ...]
    num_trials_a: int
    num_trials_b: int
    success_rate_a: float
    success_rate_b: float
    success_delta: float
    z_score: float
    significant: bool
    mean_energy_a: float
    mean_energy_b: float
    energy_delta_pct: float
    mean_steps_a: float
    mean_steps_b: float

    def label(self) -> str:
        return "/".join(value for _, value in self.group)

    def as_row(self) -> dict:
        row = {"group": json.dumps(dict(self.group))}
        for field in fields(self)[1:]:
            row[field.name] = getattr(self, field.name)
        return row


#: Columns of a delta table, in on-disk order.
DIFF_COLUMNS: tuple[str, ...] = ("group",) + tuple(
    f.name for f in fields(GroupDelta))[1:]


def diff_groups(a: Sequence[GroupStats], b: Sequence[GroupStats],
                confidence: float = 0.95
                ) -> tuple[list[GroupDelta], list[GroupStats], list[GroupStats]]:
    """Match two grouped summaries by group identity and compute deltas.

    Returns ``(deltas, only_a, only_b)``: per-group delta rows (in A's
    order) for groups present on both sides, plus the unmatched groups of
    each side.  The significance flag is the pooled two-proportion z test of
    the success rates at ``confidence``.
    """
    b_index = {stats.group: stats for stats in b}
    deltas = []
    only_a = []
    for stats_a in a:
        stats_b = b_index.pop(stats_a.group, None)
        if stats_b is None:
            only_a.append(stats_a)
            continue
        z = two_proportion_z(stats_a.successes, stats_a.num_trials,
                             stats_b.successes, stats_b.num_trials)
        energy_delta = float("nan")
        if stats_a.mean_energy_j > 0:
            energy_delta = (stats_b.mean_energy_j / stats_a.mean_energy_j
                            - 1.0) * 100.0
        deltas.append(GroupDelta(
            group=stats_a.group,
            num_trials_a=stats_a.num_trials,
            num_trials_b=stats_b.num_trials,
            success_rate_a=stats_a.success_rate,
            success_rate_b=stats_b.success_rate,
            success_delta=stats_b.success_rate - stats_a.success_rate,
            z_score=z,
            significant=abs(z) > _z_score(confidence),
            mean_energy_a=stats_a.mean_energy_j,
            mean_energy_b=stats_b.mean_energy_j,
            energy_delta_pct=energy_delta,
            mean_steps_a=stats_a.mean_steps,
            mean_steps_b=stats_b.mean_steps,
        ))
    only_b = [stats for stats in b if stats.group in b_index]
    return deltas, only_a, only_b


# ----------------------------------------------------------------------
# Figures: sweep-directory discovery and per-figure aggregation
# ----------------------------------------------------------------------

#: Figure label per paper preset (the subdirectory names a ``campaign paper
#: --out`` sweep produces); unknown directories fall back to their own name.
FIGURE_LABELS = {
    "ad-planner": "Fig. 13a — anomaly detection on the planner",
    "ad-controller": "Fig. 13b — anomaly detection on the controller",
    "wr": "Fig. 13c/e — weight rotation on the planner",
    "vs": "Fig. 13d/f — voltage-scaling policies",
    "interval": "Fig. 15 — voltage-update-interval sensitivity",
    "overall": "Fig. 16a — overall evaluation",
    "baselines": "Fig. 20 — CREATE vs. DMR / ThUnderVolt / ABFT",
    "repetitions": "Table 5 — success rate vs. repetitions",
    "quantization": "Table 6 — INT8 vs. INT4 planner robustness",
}

#: Campaign-engine bookkeeping directories a sweep scan must not read
#: tables from (worker results need a ``merge`` first; packs are output).
_SKIP_DIRS = {"profiles", "plans", "tasks", "leases", "done", "failed",
              "results", "figures"}


def discover_tables(sweep_dir: str | Path) -> dict[str, list[Path]]:
    """Map figure names to the run-table CSVs below a sweep directory.

    One figure per preset subdirectory (``runs/paper/wr`` -> figure ``wr``
    holding both WR campaigns) and one per top-level table (a single-preset
    ``--out`` dir).  Only files with a recognized run-table header count;
    campaign bookkeeping (``profiles/``, queue directories, packs) is
    skipped.  Paths are sorted, so downstream aggregation order is
    deterministic.
    """
    sweep_dir = Path(sweep_dir)
    if not sweep_dir.is_dir():
        raise FileNotFoundError(f"sweep directory {sweep_dir} does not exist")
    figures: dict[str, list[Path]] = {}
    for path in sorted(sweep_dir.rglob("*.csv")):
        relative = path.relative_to(sweep_dir)
        if any(part in _SKIP_DIRS for part in relative.parts[:-1]):
            continue
        if not is_run_table(path):
            continue
        if len(relative.parts) == 1:
            name = path.stem
        else:
            name = "-".join(relative.parts[:-1])
        figures.setdefault(name, []).append(path)
    return figures


@dataclass(frozen=True)
class FigureSummary:
    """One figure of a pack: grouped statistics over its merged tables."""

    name: str
    label: str
    tables: tuple[str, ...]
    trials: int
    rows: tuple[GroupStats, ...]


def build_figure(name: str, csv_paths: Sequence[Path],
                 confidence: float = 0.95) -> FigureSummary:
    """Aggregate one figure from its run-table files.

    Tables sharing a stem (the same campaign persisted in several places,
    e.g. shard output directories) are merged first —
    :meth:`RunTable.merge` deduplicates identical cells and raises
    :class:`~repro.eval.runtable.MergeConflictError` on disagreeing ones, so
    a corrupt sweep cannot silently skew a figure.  Rows group by
    ``condition`` within each table, tagged with the table name.
    """
    by_stem: dict[str, list[RunTable]] = {}
    for path in csv_paths:
        by_stem.setdefault(path.stem, []).append(
            RunTable.read_csv(path, strict=False))
    rows: list[GroupStats] = []
    trials = 0
    for stem in sorted(by_stem):
        table = RunTable.merge(*by_stem[stem])
        trials += len(table)
        rows.extend(group_records(table, by=("condition",),
                                  extra=(("table", stem),),
                                  confidence=confidence))
    return FigureSummary(name=name, label=FIGURE_LABELS.get(name, name),
                         tables=tuple(sorted(by_stem)), trials=trials,
                         rows=tuple(rows))


# ----------------------------------------------------------------------
# Publication packs
# ----------------------------------------------------------------------

PACK_FORMAT = "repro-create-pack-v1"

_MD_COLUMNS = ("group", "num_trials", "success_rate", "success_lo",
               "success_hi", "mean_steps", "mean_energy_j",
               "effective_voltage")


def _artifact_value(value):
    """Strict-JSON cell: NaN floats become null (as in ``write_json``)."""
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _dump_json(payload) -> str:
    return json.dumps(payload, indent=1, allow_nan=False) + "\n"


def _figure_json(figure: FigureSummary) -> str:
    return _dump_json({
        "format": PACK_FORMAT,
        "figure": figure.name,
        "label": figure.label,
        "tables": list(figure.tables),
        "trials": figure.trials,
        "columns": list(SUMMARY_COLUMNS),
        "rows": [{key: _artifact_value(value)
                  for key, value in stats.as_row().items()}
                 for stats in figure.rows],
    })


def _cell_text(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def _figure_csv(figure: FigureSummary) -> str:
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SUMMARY_COLUMNS)
    for stats in figure.rows:
        row = stats.as_row()
        writer.writerow([_cell_text(row[name]) for name in SUMMARY_COLUMNS])
    return buffer.getvalue()


def _md_cell(value) -> str:
    if isinstance(value, float):
        return "nan" if math.isnan(value) else f"{value:.4g}"
    return str(value)


def _figure_md(figure: FigureSummary) -> str:
    rows = []
    for stats in figure.rows:
        row = stats.as_row()
        row["group"] = stats.label()
        rows.append([_md_cell(row[name]) for name in _MD_COLUMNS])
    table = format_markdown_table(list(_MD_COLUMNS), rows)
    return (f"# {figure.label}\n\n"
            f"{figure.trials} trials over {len(figure.tables)} table(s): "
            + ", ".join(f"`{t}`" for t in figure.tables) + "\n\n"
            + table + "\n\n"
            "Full-precision values: the `.json` / `.csv` artifacts next to "
            "this file (markdown cells are rounded for reading).\n")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def build_pack(sweep_dir: str | Path, out_dir: str | Path,
               confidence: float = 0.95) -> dict:
    """Build a publication pack from a sweep directory; return its manifest.

    Writes ``figures/<name>.json`` / ``.csv`` / ``.md`` per figure plus a
    ``manifest.json`` mapping every artifact to its SHA-256 — the pack-level
    identity that ``report --diff`` and the golden-pack regression test
    compare.  Output is byte-deterministic: building twice from the same
    sweep produces identical files.  A pre-existing ``figures/`` directory
    in ``out_dir`` is replaced.
    """
    figures = discover_tables(sweep_dir)
    if not figures:
        raise FileNotFoundError(
            f"no run tables found under {sweep_dir} — point the report at a "
            "campaign --out / merge output directory")
    out_dir = Path(out_dir)
    figures_dir = out_dir / "figures"
    if figures_dir.exists():
        import shutil
        shutil.rmtree(figures_dir)
    figures_dir.mkdir(parents=True, exist_ok=True)
    manifest_figures = {}
    files = {}
    for name in sorted(figures):
        figure = build_figure(name, figures[name], confidence)
        artifacts = {f"figures/{name}.json": _figure_json(figure),
                     f"figures/{name}.csv": _figure_csv(figure),
                     f"figures/{name}.md": _figure_md(figure)}
        for relative, text in artifacts.items():
            data = text.encode()
            (out_dir / relative).write_bytes(data)
            files[relative] = _sha256(data)
        manifest_figures[name] = {"label": figure.label,
                                  "tables": list(figure.tables),
                                  "trials": figure.trials,
                                  "rows": len(figure.rows)}
    pack_hash = _sha256("\n".join(f"{name} {digest}" for name, digest
                                  in sorted(files.items())).encode())
    manifest = {"format": PACK_FORMAT,
                "confidence": confidence,
                "figures": manifest_figures,
                "files": dict(sorted(files.items())),
                "pack_hash": pack_hash}
    (out_dir / "manifest.json").write_text(_dump_json(manifest))
    return manifest


def verify_pack(pack_dir: str | Path) -> list[str]:
    """Re-hash a pack's artifacts against its manifest; return problems."""
    pack_dir = Path(pack_dir)
    manifest_path = pack_dir / "manifest.json"
    if not manifest_path.is_file():
        return [f"{pack_dir}: no manifest.json — not a pack"]
    manifest = json.loads(manifest_path.read_text())
    problems = []
    if manifest.get("format") != PACK_FORMAT:
        problems.append(f"{pack_dir}: unsupported pack format "
                        f"{manifest.get('format')!r}")
        return problems
    for relative, expected in manifest.get("files", {}).items():
        path = pack_dir / relative
        if not path.is_file():
            problems.append(f"{relative}: listed in the manifest but missing")
            continue
        actual = _sha256(path.read_bytes())
        if actual != expected:
            problems.append(f"{relative}: hash mismatch (manifest {expected}, "
                            f"file {actual})")
    return problems


@dataclass(frozen=True)
class PackDiff:
    """Comparison of two publication packs (A = baseline, B = candidate)."""

    identical: bool
    only_a: tuple[str, ...]
    only_b: tuple[str, ...]
    changed: tuple[str, ...]
    unchanged: tuple[str, ...]
    deltas: dict[str, list[GroupDelta]]

    def format(self, confidence: float = 0.95) -> str:
        if self.identical:
            return "packs are identical (every artifact hash matches)"
        lines = []
        for name in self.only_a:
            lines.append(f"figure {name}: only in pack A")
        for name in self.only_b:
            lines.append(f"figure {name}: only in pack B")
        for name in self.changed:
            lines.append(f"figure {name}: differs")
            for delta in self.deltas.get(name, []):
                flag = "SIGNIFICANT" if delta.significant else "within noise"
                lines.append(
                    f"  {delta.label()}: success "
                    f"{delta.success_rate_a:.3f} -> {delta.success_rate_b:.3f} "
                    f"({delta.success_delta:+.3f}, z={delta.z_score:+.2f}, "
                    f"{flag}); energy {delta.energy_delta_pct:+.2f}%")
        if self.unchanged:
            lines.append(f"{len(self.unchanged)} figure(s) unchanged")
        return "\n".join(lines)


def _load_figure_rows(pack_dir: Path, name: str) -> list[GroupStats]:
    payload = json.loads((pack_dir / "figures" / f"{name}.json").read_text())
    rows = []
    for row in payload.get("rows", []):
        values = {key: (float("nan") if value is None else value)
                  for key, value in row.items()}
        group = tuple(json.loads(values.pop("group")).items())
        rows.append(GroupStats(group=group, **values))
    return rows


def diff_packs(a_dir: str | Path, b_dir: str | Path,
               confidence: float = 0.95) -> PackDiff:
    """Compare two packs: identical-by-hash fast path, else per-group deltas.

    Figures present in both packs but with differing artifact hashes get a
    :func:`diff_groups` delta table (with significance flags); group rows
    that appear on only one side are reported as a delta against nothing by
    the caller via ``only_a``/``only_b`` of the figure sets.
    """
    a_dir, b_dir = Path(a_dir), Path(b_dir)
    manifest_a = json.loads((a_dir / "manifest.json").read_text())
    manifest_b = json.loads((b_dir / "manifest.json").read_text())
    for manifest, where in ((manifest_a, a_dir), (manifest_b, b_dir)):
        if manifest.get("format") != PACK_FORMAT:
            raise ValueError(f"{where}: unsupported pack format "
                             f"{manifest.get('format')!r}")
    figures_a = set(manifest_a["figures"])
    figures_b = set(manifest_b["figures"])
    shared = sorted(figures_a & figures_b)
    changed = []
    unchanged = []
    deltas: dict[str, list[GroupDelta]] = {}
    for name in shared:
        key = f"figures/{name}.json"
        if manifest_a["files"].get(key) == manifest_b["files"].get(key):
            unchanged.append(name)
            continue
        changed.append(name)
        rows_a = _load_figure_rows(a_dir, name)
        rows_b = _load_figure_rows(b_dir, name)
        figure_deltas, _, _ = diff_groups(rows_a, rows_b, confidence)
        deltas[name] = figure_deltas
    identical = (manifest_a["files"] == manifest_b["files"]
                 and not figures_a.symmetric_difference(figures_b))
    return PackDiff(identical=identical,
                    only_a=tuple(sorted(figures_a - figures_b)),
                    only_b=tuple(sorted(figures_b - figures_a)),
                    changed=tuple(changed),
                    unchanged=tuple(unchanged),
                    deltas=deltas)
