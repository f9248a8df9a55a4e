"""Persistent run tables: one row per executed trial, with exact round-trip.

A run table is the durable record of a campaign (see
:mod:`repro.eval.campaign`): every trial contributes one :class:`RunRecord`
holding the condition labels, the seed, and everything needed to rebuild the
paper's aggregate metrics — success, steps, energy, effective voltage, flip
and clamp counters, and the per-voltage MAC histograms.

Round-trip fidelity is a hard requirement: tables are written as CSV (and
mirrored as JSON) using ``repr``-exact float formatting, so reading a table
back and summarizing it produces *bit-identical* :class:`TrialSummary` values
to summarizing the in-memory trial results.  That is what makes
resume-from-disk safe: completed (spec, seed) cells are never re-executed.

Two column sets
---------------
The schema (documented column by column in ``docs/runtable-schema.md``) is
split into two groups:

* :data:`RESULT_COLUMNS` — the deterministic measurement columns.  They are a
  pure function of (system, task, seed, protections), so serial, parallel,
  and batched executions of the same campaign produce *byte-identical* files.
  This is the default on-disk format and matches the format of earlier
  releases exactly.
* :data:`PROFILE_COLUMNS` — ``wall_time_s``, ``worker_id``, ``batch_size``,
  ``vector_path``, ``queue_backend`` (which transport delivered the row:
  ``local`` for in-process campaigns, ``file`` / ``http`` for queue-backed
  workers), ``fleet_size`` (the spec's fleet axis; 0 on rows predating
  it) and ``plan_cache`` (kernel-plan provenance when the trial started:
  ``miss`` built fresh, ``hit`` reused a process-local plan, ``shm``
  attached the shared-memory weight plane; empty on rows predating it),
  recorded by the campaign engine for profiling, plus the
  :data:`DERIVED_PROFILE_COLUMNS` (``macs_total``, ``flips_total``,
  ``energy_model_j``) — per-row analytics denormalized from the result
  columns, so sidecar consumers need no re-derivation.  Profile columns are
  either machine-dependent or redundant, so they are excluded from the
  canonical table files and stored in the ``profiles/<name>.csv`` sidecar
  instead (written with ``profile=True``).

``read_csv``/``read_json`` accept either format — including profile sidecars
written before ``batch_size``/``vector_path`` existed and sidecars written
before the derived columns existed; rows without profile columns load with
their defaults (``wall_time_s = nan``, empty ``worker_id``, ``batch_size =
0``, empty ``vector_path``).  Derived columns are computed properties of
:class:`RunRecord`, never stored fields: they are recomputed on access, so a
sidecar cell that disagreed with its row's result columns could not survive a
round-trip.

Streaming
---------
:class:`RunTableWriter` appends rows to a CSV file *as cells complete* and
flushes after every row, so long campaigns leave a crash-safe on-disk trail.
``read_csv(..., strict=False)`` tolerates a truncated final line (the row a
crash interrupted), which is what makes resuming an interrupted campaign
safe: completed rows are kept, the torn row is re-executed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator

from ..agents.executor import TrialResult
from ..hardware.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from .metrics import TrialSummary, aggregate_rows

__all__ = ["RunRecord", "RunTable", "RunTableWriter", "MergeConflictError",
           "record_from_trial", "summarize_records", "is_run_table", "COLUMNS",
           "RESULT_COLUMNS", "PROFILE_COLUMNS", "DERIVED_PROFILE_COLUMNS"]


class MergeConflictError(ValueError):
    """Two tables hold the same (spec_key, seed) cell with different results.

    Raised by :meth:`RunTable.merge`: duplicate cells are expected when
    merging shard or worker tables (a reclaimed lease re-runs its cells),
    but because every cell is a pure function of (system, task, seed,
    protections), duplicates must carry *identical* result payloads.  A
    differing payload means two runs disagreed about the same deterministic
    cell — corrupted files, mismatched code versions, or colliding spec
    keys — and silently keeping either row would poison the merged table.
    """


def _dump_macs(macs: dict[float, float]) -> str:
    """Serialize a voltage->MACs histogram preserving key order and exact floats."""
    return json.dumps({repr(float(v)): float(m) for v, m in macs.items()})


def _load_macs(payload: str) -> dict[float, float]:
    return {float(v): float(m) for v, m in json.loads(payload).items()}


@dataclass(frozen=True)
class RunRecord:
    """One executed trial: condition labels plus every per-trial measurement.

    All fields up to and including ``params`` are deterministic given the
    trial's (system, task, seed, protections); ``wall_time_s``,
    ``worker_id``, ``batch_size`` and ``vector_path`` are execution-profile
    metadata filled in by the campaign engine (defaults for rows loaded from
    a canonical table, which does not persist them).  ``batch_size`` is the
    size of the trial group the cell executed in and ``vector_path`` records
    which execution path ran it: ``"batched"`` for a same-spec lane group and
    ``"fleet"`` for a fleet-sized one (both one
    ``MissionExecutor.run_trial_group`` call), ``"scalar"`` for
    cell-at-a-time execution.
    """

    spec_key: str
    condition: str
    system: str
    task: str
    seed: int
    trial_index: int
    success: bool
    steps: int
    planner_invocations: int
    controller_steps: int
    energy_j: float
    effective_voltage: float
    planner_bits_flipped: int
    controller_bits_flipped: int
    planner_elements_clamped: int
    controller_elements_clamped: int
    mean_entropy: float
    entropy_records: int
    planner_macs: str
    controller_macs: str
    predictor_macs: str
    params: str
    wall_time_s: float = float("nan")
    worker_id: str = ""
    batch_size: int = 0
    vector_path: str = ""
    queue_backend: str = ""
    fleet_size: int = 0
    plan_cache: str = ""

    # ------------------------------------------------------------------
    def planner_macs_by_voltage(self) -> dict[float, float]:
        return _load_macs(self.planner_macs)

    def controller_macs_by_voltage(self) -> dict[float, float]:
        return _load_macs(self.controller_macs)

    def predictor_macs_by_voltage(self) -> dict[float, float]:
        return _load_macs(self.predictor_macs)

    def macs_by_voltage(self) -> dict[float, float]:
        """Merged histogram, in the same accumulation order as ``TrialResult``."""
        merged: dict[float, float] = {}
        for source in (self.planner_macs_by_voltage(),
                       self.controller_macs_by_voltage(),
                       self.predictor_macs_by_voltage()):
            for voltage, macs in source.items():
                merged[voltage] = merged.get(voltage, 0.0) + macs
        return merged

    def param_dict(self) -> dict[str, str]:
        return dict(json.loads(self.params)) if self.params else {}

    def result_payload(self) -> tuple[str, ...]:
        """The deterministic result columns in their canonical on-disk form.

        Two records with equal payloads serialize to byte-identical canonical
        CSV rows; profile columns (machine-dependent) are excluded.  This is
        the equality :meth:`RunTable.merge` uses for duplicate detection —
        ``repr``-exact strings, so NaN-valued floats compare equal (``nan ==
        nan`` is False, but ``"nan" == "nan"`` is True).
        """
        return tuple(_format_cell(name, getattr(self, name))
                     for name in RESULT_COLUMNS)

    def profiled(self) -> bool:
        """Whether this row carries execution-profile data (ran this session)."""
        return math.isfinite(self.wall_time_s)

    # ------------------------------------------------------------------
    # Derived profile columns (computed, never stored as fields)
    # ------------------------------------------------------------------
    @property
    def macs_total(self) -> float:
        """Total MACs over all components and voltages (kernel counter)."""
        return math.fsum(self.macs_by_voltage().values())

    @property
    def flips_total(self) -> int:
        """Total injected bit flips (planner + controller injectors)."""
        return self.planner_bits_flipped + self.controller_bits_flipped

    @property
    def energy_model_j(self) -> float:
        """Compute-only joules under the default energy model.

        Excludes the AD/LDO overhead fractions that ``energy_j`` includes,
        so the two columns together split a trial's energy into raw compute
        and protection overhead without another model evaluation.
        """
        return DEFAULT_ENERGY_MODEL.compute_energy_j(self.macs_by_voltage(),
                                                     include_overheads=False)


_INT_FIELDS = {"seed", "trial_index", "steps", "planner_invocations", "controller_steps",
               "planner_bits_flipped", "controller_bits_flipped",
               "planner_elements_clamped", "controller_elements_clamped",
               "entropy_records", "batch_size", "fleet_size", "flips_total"}
_FLOAT_FIELDS = {"energy_j", "effective_voltage", "mean_entropy", "wall_time_s",
                 "macs_total", "energy_model_j"}
_BOOL_FIELDS = {"success"}

#: Stored fields of :class:`RunRecord`, in declaration order.
_FIELD_COLUMNS: tuple[str, ...] = tuple(f.name for f in fields(RunRecord))

#: Derived sidecar columns: per-row analytics denormalized into the profile
#: sidecar.  Backed by computed :class:`RunRecord` properties, not stored
#: fields — written on serialization, ignored (recomputed) on read.
DERIVED_PROFILE_COLUMNS: tuple[str, ...] = ("macs_total", "flips_total",
                                            "energy_model_j")

#: Execution-profile columns (machine-dependent or derived; excluded from
#: canonical files).
PROFILE_COLUMNS: tuple[str, ...] = ("wall_time_s", "worker_id", "batch_size",
                                    "vector_path", "queue_backend",
                                    "fleet_size",
                                    "plan_cache") + DERIVED_PROFILE_COLUMNS

#: Deterministic measurement columns — the canonical on-disk format.
RESULT_COLUMNS: tuple[str, ...] = tuple(c for c in _FIELD_COLUMNS
                                        if c not in PROFILE_COLUMNS)

#: Full profile schema: result columns first, profile columns last.
COLUMNS: tuple[str, ...] = RESULT_COLUMNS + PROFILE_COLUMNS

def _is_header(header: tuple[str, ...]) -> bool:
    """Whether ``header`` is a run-table header of this or an earlier release.

    The rule: :data:`RESULT_COLUMNS`, then :data:`PROFILE_COLUMNS` in schema
    order with any of them omitted.  It covers the canonical and profile
    headers and every profile header of earlier releases (before
    ``batch_size``/``vector_path``, the derived columns, ``queue_backend``,
    ``fleet_size`` or ``plan_cache`` existed); columns a header lacks load
    with their field defaults.  Unknown, duplicated or out-of-order columns
    fail it.
    """
    count = len(RESULT_COLUMNS)
    if tuple(header[:count]) != RESULT_COLUMNS:
        return False
    # ``in`` on an iterator consumes it up to the match, so each profile
    # column must appear after the previous one, at most once.
    remaining = iter(PROFILE_COLUMNS)
    return all(name in remaining for name in header[count:])


def _checked_header(path: Path, header: list[str]) -> tuple[str, ...]:
    """``header`` as a tuple, or the ``ValueError`` of a foreign file."""
    if not _is_header(header):
        raise ValueError(f"unexpected run-table header in {path}: {header}")
    return tuple(header)


def _format_cell(name: str, value) -> str:
    if name in _FLOAT_FIELDS:
        return repr(float(value))
    if name in _BOOL_FIELDS:
        return "1" if value else "0"
    return str(value)


def _parse_cell(name: str, text: str):
    if name in _INT_FIELDS:
        return int(text)
    if name in _FLOAT_FIELDS:
        return float(text)
    if name in _BOOL_FIELDS:
        return text == "1"
    return text


def record_from_trial(trial: TrialResult, *, spec_key: str, condition: str,
                      system: str, task: str, seed: int, trial_index: int,
                      params: str = "{}",
                      energy_model: EnergyModel | None = None) -> RunRecord:
    """Flatten one :class:`TrialResult` into a run-table row.

    Profile fields are left at their defaults; the campaign engine stamps
    them (via :func:`dataclasses.replace`) on the cells it executes itself.
    """
    model = energy_model or DEFAULT_ENERGY_MODEL
    return RunRecord(
        spec_key=spec_key,
        condition=condition,
        system=system,
        task=task,
        seed=seed,
        trial_index=trial_index,
        success=bool(trial.success),
        steps=int(trial.steps),
        planner_invocations=int(trial.planner_invocations),
        controller_steps=int(trial.controller_steps),
        energy_j=float(trial.computational_energy_j(model)),
        effective_voltage=float(trial.effective_voltage(model)),
        planner_bits_flipped=int(trial.planner_bits_flipped),
        controller_bits_flipped=int(trial.controller_bits_flipped),
        planner_elements_clamped=int(trial.planner_elements_clamped),
        controller_elements_clamped=int(trial.controller_elements_clamped),
        mean_entropy=float(trial.entropy_trace.mean_entropy())
        if len(trial.entropy_trace) else float("nan"),
        entropy_records=len(trial.entropy_trace),
        planner_macs=_dump_macs(trial.planner_macs_by_voltage),
        controller_macs=_dump_macs(trial.controller_macs_by_voltage),
        predictor_macs=_dump_macs(trial.predictor_macs_by_voltage),
        params=params,
    )


def summarize_records(records: list[RunRecord],
                      energy_model: EnergyModel | None = None) -> TrialSummary:
    """Aggregate run-table rows exactly like :func:`summarize_trials`.

    Both delegate to :func:`~repro.eval.metrics.aggregate_rows`, so a summary
    computed from rows read back from disk is bit-identical to summarizing the
    original :class:`TrialResult` list — the invariant behind safe resume.
    """
    rows = [(r.success, r.steps, r.planner_invocations, r.energy_j,
             r.macs_by_voltage(), r.mean_entropy, bool(r.entropy_records))
            for r in records]
    return aggregate_rows(rows, energy_model)


def _columns_for(profile: bool) -> tuple[str, ...]:
    return COLUMNS if profile else RESULT_COLUMNS


def _record_from_row(header: tuple[str, ...], row: list[str]) -> RunRecord:
    # Derived columns are properties, not constructor arguments: drop them
    # here and let the record recompute them from its result columns.
    return RunRecord(**{name: _parse_cell(name, cell)
                        for name, cell in zip(header, row)
                        if name not in DERIVED_PROFILE_COLUMNS})


_JSON_FIELDS = ("planner_macs", "controller_macs", "predictor_macs", "params")


def _validate_json_fields(record: RunRecord) -> None:
    """Reject rows whose embedded JSON documents are truncated.

    A crash can tear a row *inside* its final quoted ``params`` field; the
    csv reader tolerates EOF within quotes, so such a row arrives with the
    right column count and only the JSON payload betrays the truncation.
    Raises :class:`json.JSONDecodeError` on the first malformed document.
    """
    for name in _JSON_FIELDS:
        json.loads(getattr(record, name))


class RunTableWriter:
    """Append-mode CSV writer: stream rows to disk as cells complete.

    The campaign engine opens one of these over the run-table path before
    executing any cell and calls :meth:`write` for every record the moment it
    finishes, flushing after each row.  The file therefore grows *during* the
    campaign, and a crash (exception, SIGKILL, power loss after the flush
    reaches the OS) loses at most the row being written — everything already
    flushed resumes cleanly via ``RunTable.read_csv(..., strict=False)``.

    A header row is emitted only when the file is new or empty, so appending
    to a table left behind by an interrupted (or completed) earlier run keeps
    the file a valid CSV; a torn final line from a crash is truncated away
    before appending (its cell re-executes — the torn row never parsed).
    The campaign engine rewrites the canonical file in spec order once the
    campaign completes.

    Use as a context manager::

        with RunTableWriter(path) as writer:
            for record in produced_records:
                writer.write(record)
    """

    def __init__(self, path: str | Path, profile: bool = False):
        self.path = Path(path)
        self.columns = _columns_for(profile)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        data = self.path.read_bytes() if self.path.exists() else b""
        # A partial final line left by a crash is cut off before appending:
        # new rows would otherwise merge with the fragment, and the resumed
        # campaign re-executes its cell (the row never parsed).  A file
        # without one complete line (a torn header) starts afresh.
        cut = len(data) if data.endswith(b"\n") else data.rfind(b"\n") + 1
        fresh = cut == 0
        if not fresh:
            # Appending must match the file's existing header, which may be a
            # legacy profile header: adopt any run-table column set so resumed
            # sidecars stay rectangular, and refuse a foreign file before
            # touching it.
            self.columns = _checked_header(self.path, self._existing_header())
        if cut < len(data):
            with self.path.open("rb+") as handle:
                handle.truncate(cut)
        self._handle = self.path.open("a", newline="")
        self._writer = csv.writer(self._handle, lineterminator="\n")
        if fresh:
            self._writer.writerow(self.columns)
            self._handle.flush()
        self.rows_written = 0

    def _existing_header(self) -> list[str]:
        with self.path.open(newline="") as handle:
            return next(csv.reader(handle), [])

    def write(self, record: RunRecord) -> None:
        """Append one row and flush it to the OS immediately."""
        self._writer.writerow([_format_cell(name, getattr(record, name))
                               for name in self.columns])
        self._handle.flush()
        self.rows_written += 1

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "RunTableWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class RunTable:
    """An ordered collection of :class:`RunRecord` rows with (spec, seed) lookup.

    Rows are keyed by ``(spec_key, seed)``; adding a duplicate key is a no-op
    unless ``overwrite=True``, which is what makes re-reading a streamed file
    that accumulated rows across several interrupted runs safe.
    """

    def __init__(self, records: Iterable[RunRecord] | None = None):
        self._records: list[RunRecord] = []
        self._index: dict[tuple[str, int], RunRecord] = {}
        for record in records or ():
            self.add(record)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self._records)

    def add(self, record: RunRecord, overwrite: bool = False) -> None:
        key = (record.spec_key, record.seed)
        existing = self._index.get(key)
        if existing is not None:
            if not overwrite:
                return
            self._records.remove(existing)
        self._index[key] = record
        self._records.append(record)

    def has(self, spec_key: str, seed: int) -> bool:
        return (spec_key, seed) in self._index

    def get(self, spec_key: str, seed: int) -> RunRecord | None:
        return self._index.get((spec_key, seed))

    def for_condition(self, condition: str) -> list[RunRecord]:
        rows = [r for r in self._records if r.condition == condition]
        return sorted(rows, key=lambda r: (r.spec_key, r.trial_index))

    def conditions(self) -> list[str]:
        seen: dict[str, None] = {}
        for record in self._records:
            seen.setdefault(record.condition, None)
        return list(seen)

    def sorted(self, spec_order: dict[str, int] | None = None) -> "RunTable":
        """A copy sorted canonically: campaign spec order first, then seed."""
        order = spec_order or {}
        fallback = len(order)

        def sort_key(record: RunRecord):
            return (order.get(record.spec_key, fallback), record.spec_key, record.seed)

        return RunTable(sorted(self._records, key=sort_key))

    @classmethod
    def merge(cls, *tables: "RunTable", overwrite: bool = False) -> "RunTable":
        """Union tables by (spec_key, seed), verifying duplicate cells agree.

        This is the fault-tolerant combine step of distributed campaigns:
        shard tables never overlap, but worker tables can (a lease reclaimed
        from a dead worker re-runs cells the dead worker already streamed).
        Duplicates whose deterministic result payloads are byte-identical are
        deduplicated (the first occurrence wins, keeping its profile
        metadata); duplicates that *differ* raise :class:`MergeConflictError`
        — unless ``overwrite=True``, where the last table wins (useful for
        deliberately patching a table with re-measured cells).

        Rows keep first-seen order; callers wanting the canonical file order
        should apply :meth:`sorted` (with the campaign's spec order) before
        writing, as ``repro-create merge`` does.
        """
        merged = cls()
        for table in tables:
            for record in table:
                existing = merged.get(record.spec_key, record.seed)
                if existing is None:
                    merged.add(record)
                    continue
                if existing.result_payload() == record.result_payload():
                    continue  # identical re-measurement (e.g. reclaimed lease)
                if overwrite:
                    merged.add(record, overwrite=True)
                    continue
                raise MergeConflictError(
                    f"conflicting rows for (spec_key={record.spec_key!r}, "
                    f"seed={record.seed}): condition {existing.condition!r} "
                    f"measured twice with different results (e.g. success="
                    f"{existing.success} vs {record.success}, steps="
                    f"{existing.steps} vs {record.steps}); refusing to merge "
                    "— the cells are deterministic, so differing duplicates "
                    "mean corrupted tables or mismatched code versions "
                    "(pass overwrite=True to let the later table win)")
        return merged

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def write_csv(self, path: str | Path, profile: bool = False) -> Path:
        """Write the table as CSV.

        With ``profile=False`` (the default) only the deterministic
        :data:`RESULT_COLUMNS` are written — the canonical format, byte-stable
        across serial/parallel/batched execution.  ``profile=True`` appends
        the :data:`PROFILE_COLUMNS` (used by the ``.profile.csv`` sidecar).
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = _columns_for(profile)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(columns)
            for record in self._records:
                writer.writerow([_format_cell(name, getattr(record, name))
                                 for name in columns])
        return path

    @classmethod
    def read_csv(cls, path: str | Path, strict: bool = True) -> "RunTable":
        """Read a table written by :meth:`write_csv` or :class:`RunTableWriter`.

        Accepts the canonical (:data:`RESULT_COLUMNS`) header, the profile
        (:data:`COLUMNS`) header, and the profile headers of earlier releases
        (see :func:`_is_header`); columns a header lacks load with their field
        defaults.  With ``strict=False``, rows that are truncated or
        unparseable — e.g. the torn final line of a campaign killed
        mid-write — are skipped instead of raising, which is how interrupted
        streamed tables are resumed.
        """
        path = Path(path)
        with path.open(newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                return cls()
            header = _checked_header(path, header)
            records = []
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    if strict:
                        raise ValueError(
                            f"malformed run-table row in {path}: {row!r}")
                    continue
                try:
                    records.append(_record_from_row(header, row))
                except ValueError:
                    if strict:
                        raise
            if not strict and records:
                # A crash truncates a suffix, so only the last parsed row
                # can carry a tear hidden inside a quoted JSON field (csv
                # tolerates EOF within quotes, keeping the column count
                # intact); validating just that row keeps resume cheap.
                try:
                    _validate_json_fields(records[-1])
                except json.JSONDecodeError:
                    records.pop()
        return cls(records)

    def write_json(self, path: str | Path, profile: bool = False) -> Path:
        """Strict-JSON mirror of the table: NaN floats are encoded as null.

        The ``profile`` switch selects the same column sets as
        :meth:`write_csv`.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = _columns_for(profile)
        rows = [{name: (None if name in _FLOAT_FIELDS
                        and math.isnan(getattr(record, name))
                        else getattr(record, name))
                 for name in columns}
                for record in self._records]
        path.write_text(json.dumps(rows, indent=1, allow_nan=False) + "\n")
        return path

    @classmethod
    def read_json(cls, path: str | Path) -> "RunTable":
        """Read a table written by :meth:`write_json` (either column set)."""
        rows = json.loads(Path(path).read_text())
        return cls(RunRecord(**{name: (float("nan") if name in _FLOAT_FIELDS
                                       and value is None else value)
                                for name, value in row.items()
                                if name not in DERIVED_PROFILE_COLUMNS})
                   for row in rows)


def is_run_table(path: str | Path) -> bool:
    """Whether ``path`` is a CSV with a recognized run-table header.

    Cheap (reads one line); lets directory scanners — ``repro-create merge``
    inputs, the report builder's sweep discovery — pick run tables out of
    mixed directories without attempting a full parse.
    """
    path = Path(path)
    if not path.is_file():
        return False
    try:
        with path.open(newline="") as handle:
            header = next(csv.reader(handle), [])
    except (OSError, UnicodeDecodeError, csv.Error):
        return False
    return _is_header(header)
