"""Run-table analytics and the publication pack (repro.eval.analysis).

Three layers of lockdown, per the statistical golden-test suite this layer
ships with:

* property tests for the deterministic statistics core (Wilson / bootstrap
  intervals, two-proportion significance) — bracketing, monotonicity in n,
  exact degeneracy at 0%/100%, fixed-seed determinism, and agreement of the
  hardcoded z table with scipy;
* aggregate-level robustness: torn final rows and merge-conflict handling
  feeding the analysis layer, plus the hoisted default energy model;
* byte-level determinism: building a pack twice is identical, and the
  committed golden pack regenerates hash-identical from its committed
  sweep tables.
"""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from scipy import stats as scipy_stats

from repro.eval import analysis
from repro.eval.analysis import (SUMMARY_COLUMNS, Z_SCORES, bootstrap_interval,
                                 build_figure, build_pack, diff_groups,
                                 diff_packs, discover_tables, group_records,
                                 significant_difference, two_proportion_z,
                                 verify_pack, wilson_interval)
from repro.eval.metrics import aggregate_rows
from repro.eval.runtable import (COLUMNS, DERIVED_PROFILE_COLUMNS,
                                 MergeConflictError, PROFILE_COLUMNS,
                                 RESULT_COLUMNS, RunRecord, RunTable,
                                 RunTableWriter, is_run_table)
from repro.hardware.energy import DEFAULT_ENERGY_MODEL, EnergyModel

#: Profile-sidecar headers earlier releases wrote: before batch_size and
#: vector_path, before the derived columns, before queue_backend, before
#: fleet_size, and before plan_cache.
LEGACY_PROFILE_HEADERS = (
    RESULT_COLUMNS + ("wall_time_s", "worker_id"),
    RESULT_COLUMNS + ("wall_time_s", "worker_id", "batch_size", "vector_path"),
    RESULT_COLUMNS + ("wall_time_s", "worker_id", "batch_size", "vector_path",
                      "macs_total", "flips_total", "energy_model_j"),
    RESULT_COLUMNS + ("wall_time_s", "worker_id", "batch_size", "vector_path",
                      "queue_backend", "macs_total", "flips_total",
                      "energy_model_j"),
    RESULT_COLUMNS + ("wall_time_s", "worker_id", "batch_size", "vector_path",
                      "queue_backend", "fleet_size", "macs_total",
                      "flips_total", "energy_model_j"),
)

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN = REPO_ROOT / "tests" / "data" / "golden"


def make_record(condition="cond", seed=0, success=True, steps=10,
                energy_j=0.001, params=None, spec_key=None, flips=(2, 3)):
    """A synthetic run-table row with exact-round-trip payloads."""
    return RunRecord(
        spec_key=spec_key or f"key-{condition}",
        condition=condition,
        system="jarvis",
        task="wooden",
        seed=seed,
        trial_index=seed,
        success=success,
        steps=steps,
        planner_invocations=1 + seed % 2,
        controller_steps=steps,
        energy_j=energy_j,
        effective_voltage=0.9,
        planner_bits_flipped=flips[0],
        controller_bits_flipped=flips[1],
        planner_elements_clamped=1,
        controller_elements_clamped=0,
        mean_entropy=float("nan"),
        entropy_records=0,
        planner_macs='{"0.9": 120000.0}',
        controller_macs='{"0.78": 45000.0}',
        predictor_macs="{}",
        params=json.dumps(params or {"ber": "0.001"}),
    )


# ----------------------------------------------------------------------
# Statistics core: property tests
# ----------------------------------------------------------------------
class TestWilsonInterval:
    @pytest.mark.parametrize("successes,trials", [
        (0, 1), (1, 1), (0, 10), (10, 10), (1, 10), (3, 10), (5, 10),
        (50, 100), (97, 100), (1, 1000), (999, 1000),
    ])
    def test_brackets_point_estimate(self, successes, trials):
        lo, hi = wilson_interval(successes, trials)
        rate = successes / trials
        assert lo <= rate <= hi
        assert 0.0 <= lo and hi <= 1.0

    @pytest.mark.parametrize("confidence", sorted(Z_SCORES))
    def test_width_monotone_in_n(self, confidence):
        """Same empirical rate, more trials => strictly narrower interval."""
        widths = []
        for trials in (10, 40, 160, 640, 2560):
            lo, hi = wilson_interval(trials // 2, trials, confidence)
            widths.append(hi - lo)
        assert widths == sorted(widths, reverse=True)
        assert all(w1 > w2 for w1, w2 in zip(widths, widths[1:]))

    def test_degenerate_edges_exact(self):
        """0% has an exactly-0.0 lower bound, 100% an exactly-1.0 upper."""
        for trials in (1, 7, 100):
            lo, hi = wilson_interval(0, trials)
            assert lo == 0.0 and 0.0 < hi < 1.0
            lo, hi = wilson_interval(trials, trials)
            assert hi == 1.0 and 0.0 < lo < 1.0

    def test_tighter_than_higher_confidence(self):
        lo90, hi90 = wilson_interval(7, 10, 0.90)
        lo99, hi99 = wilson_interval(7, 10, 0.99)
        assert lo99 < lo90 and hi90 < hi99

    def test_z_table_matches_scipy(self):
        """The hardcoded quantiles are the true doubles scipy would produce."""
        for confidence, z in Z_SCORES.items():
            assert z == pytest.approx(
                float(scipy_stats.norm.ppf(0.5 + confidence / 2.0)),
                abs=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)
        with pytest.raises(ValueError, match="confidence"):
            wilson_interval(1, 2, confidence=0.931)


class TestBootstrapInterval:
    def test_deterministic_under_fixed_seed(self):
        values = [1.0, 5.0, 2.0, 8.0, 3.0, 2.5, 9.0]
        assert bootstrap_interval(values, seed=42) == \
            bootstrap_interval(values, seed=42)
        assert bootstrap_interval(values, seed=42) != \
            bootstrap_interval(values, seed=43)

    @pytest.mark.parametrize("values", [
        [1.0], [1.0, 2.0], [0.0, 0.0, 0.0, 100.0],
        [5.0, 5.0, 5.0, 5.0], list(range(50)), [-3.0, 0.5, 2.25, 1e6],
    ])
    def test_brackets_sample_mean(self, values):
        lo, hi = bootstrap_interval(values, seed=0)
        mean = math.fsum(float(v) for v in values) / len(values)
        assert lo <= mean <= hi

    def test_constant_sample_degenerates(self):
        assert bootstrap_interval([7.5] * 10) == (7.5, 7.5)

    def test_width_shrinks_with_n(self):
        base = [1.0, 2.0, 3.0, 4.0, 5.0]
        lo_s, hi_s = bootstrap_interval(base * 2, seed=1)
        lo_l, hi_l = bootstrap_interval(base * 40, seed=1)
        assert (hi_l - lo_l) < (hi_s - lo_s)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            bootstrap_interval([])
        with pytest.raises(ValueError):
            bootstrap_interval([1.0], resamples=0)
        with pytest.raises(ValueError, match="confidence"):
            bootstrap_interval([1.0, 2.0], confidence=0.5)


class TestSignificance:
    def test_clear_difference_is_significant(self):
        assert significant_difference(50, 100, 90, 100)
        assert two_proportion_z(50, 100, 90, 100) > 0  # B higher => positive

    def test_noise_is_not(self):
        assert not significant_difference(50, 100, 52, 100)

    def test_identical_rates_z_zero(self):
        assert two_proportion_z(3, 10, 3, 10) == 0.0
        assert two_proportion_z(0, 10, 0, 10) == 0.0  # degenerate pooled rate

    def test_symmetry(self):
        z_ab = two_proportion_z(40, 100, 60, 100)
        z_ba = two_proportion_z(60, 100, 40, 100)
        assert z_ab == -z_ba


# ----------------------------------------------------------------------
# Derived sidecar columns and the hoisted energy model
# ----------------------------------------------------------------------
class TestDerivedSidecarColumns:
    def test_column_sets(self):
        assert COLUMNS == RESULT_COLUMNS + PROFILE_COLUMNS
        assert set(DERIVED_PROFILE_COLUMNS) <= set(PROFILE_COLUMNS)
        for column in DERIVED_PROFILE_COLUMNS:
            assert column not in RESULT_COLUMNS

    def test_derived_values(self):
        record = make_record()
        assert record.macs_total == math.fsum(
            record.macs_by_voltage().values())
        assert record.flips_total == record.planner_bits_flipped \
            + record.controller_bits_flipped
        expected = DEFAULT_ENERGY_MODEL.compute_energy_j(
            record.macs_by_voltage(), include_overheads=False)
        assert record.energy_model_j == expected
        # Compute-only energy is the overhead-free complement of energy_j.
        assert record.energy_model_j < DEFAULT_ENERGY_MODEL.compute_energy_j(
            record.macs_by_voltage(), include_overheads=True)

    def test_sidecar_roundtrip_recomputes_derived(self, tmp_path):
        records = [make_record(seed=s) for s in range(3)]
        path = tmp_path / "p.csv"
        with RunTableWriter(path, profile=True) as writer:
            for record in records:
                writer.write(record)
        with path.open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert set(DERIVED_PROFILE_COLUMNS) <= set(rows[0])
        assert rows[0]["flips_total"] == "5"
        back = RunTable.read_csv(path)
        assert [r.macs_total for r in back] == \
            [r.macs_total for r in records]
        assert [r.result_payload() for r in back] == \
            [r.result_payload() for r in records]

    def test_legacy_sidecar_header_still_appends(self, tmp_path):
        """Every earlier release's sidecar reads, and keeps its header when
        appended to."""
        for index, legacy_header in enumerate(LEGACY_PROFILE_HEADERS):
            path = tmp_path / f"legacy{index}.csv"
            path.write_text(",".join(legacy_header) + "\n")
            records = [make_record(seed=1), make_record(seed=2)]
            for count, record in enumerate(records, start=1):
                with RunTableWriter(path, profile=True) as writer:
                    assert writer.columns == legacy_header
                    writer.write(record)
                assert is_run_table(path)
                with path.open(newline="") as handle:
                    assert tuple(next(csv.reader(handle))) == legacy_header
                assert [r.result_payload() for r in RunTable.read_csv(path)] \
                    == [r.result_payload() for r in records[:count]]

    @pytest.mark.parametrize("header", [
        RESULT_COLUMNS + ("wall_time_s", "bogus"),
        RESULT_COLUMNS + ("worker_id", "wall_time_s"),
        RESULT_COLUMNS + ("wall_time_s", "wall_time_s"),
        RESULT_COLUMNS[1:],
        RESULT_COLUMNS[:1] + RESULT_COLUMNS[2:] + RESULT_COLUMNS[1:2],
        COLUMNS + ("plan_cache",),
        ("a", "b", "c"),
    ], ids=["unknown", "out-of-order", "duplicated", "missing-result",
            "result-order", "trailing-duplicate", "foreign"])
    def test_unrecognized_headers_rejected(self, tmp_path, header):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(header) + "\n")
        assert not is_run_table(path)
        with pytest.raises(ValueError, match="unexpected run-table header"):
            RunTable.read_csv(path)

    def test_header_rule_accepts_every_profile_subsequence(self, tmp_path):
        """The canonical, full and any in-order subset of profile columns."""
        for header in (RESULT_COLUMNS, COLUMNS, RESULT_COLUMNS + ("plan_cache",),
                       RESULT_COLUMNS + PROFILE_COLUMNS[::2]):
            path = tmp_path / "ok.csv"
            path.write_text(",".join(header) + "\n")
            assert is_run_table(path)
            assert len(RunTable.read_csv(path)) == 0

    def test_writer_refuses_a_foreign_header(self, tmp_path):
        """Nothing is appended (or truncated) under a header that is not a
        run table's."""
        for content in (b"a,b,c\n1,2,3\n", b"a,b,c\n1,2"):
            path = tmp_path / "foreign.csv"
            path.write_bytes(content)
            with pytest.raises(ValueError, match="unexpected run-table header"):
                RunTableWriter(path, profile=True)
            assert path.read_bytes() == content

    def test_json_mirror_roundtrip(self, tmp_path):
        records = [make_record(seed=s) for s in range(2)]
        path = RunTable(records).write_json(tmp_path / "p.json", profile=True)
        payload = json.loads(path.read_text())
        assert set(DERIVED_PROFILE_COLUMNS) <= set(payload[0])
        back = RunTable.read_json(path)
        assert [r.result_payload() for r in back] == \
            [r.result_payload() for r in records]

    def test_is_run_table(self, tmp_path):
        table_path = RunTable([make_record()]).write_csv(tmp_path / "t.csv")
        assert is_run_table(table_path)
        other = tmp_path / "other.csv"
        other.write_text("a,b,c\n1,2,3\n")
        assert not is_run_table(other)
        assert not is_run_table(tmp_path / "missing.csv")
        assert not is_run_table(tmp_path)


class TestDefaultEnergyModel:
    def test_aggregate_rows_identical_with_fresh_model(self):
        """The hoisted module-level default changes no numbers."""
        records = [make_record(seed=s, success=s % 2 == 0, steps=10 + s)
                   for s in range(5)]
        rows = [(r.success, r.steps, r.planner_invocations, r.energy_j,
                 r.macs_by_voltage(), 0.4 + 0.01 * r.seed, True)
                for r in records]
        hoisted = aggregate_rows(rows)
        fresh = aggregate_rows(rows, EnergyModel())
        assert hoisted == fresh

    def test_default_model_is_default_config(self):
        assert DEFAULT_ENERGY_MODEL.config == EnergyModel().config


# ----------------------------------------------------------------------
# Grouped summaries and diffs
# ----------------------------------------------------------------------
class TestGroupRecords:
    def _records(self):
        records = []
        for ber, rate in (("0.001", 0.75), ("0.003", 0.25)):
            for seed in range(8):
                records.append(make_record(
                    condition=f"ber={ber}", seed=seed,
                    success=seed < 8 * rate, steps=30 + seed,
                    params={"ber": ber}))
        return records

    def test_group_by_condition(self):
        groups = group_records(self._records())
        assert [g.label() for g in groups] == ["ber=0.001", "ber=0.003"]
        assert [g.success_rate for g in groups] == [0.75, 0.25]
        for g in groups:
            assert g.num_trials == 8
            assert g.success_lo <= g.success_rate <= g.success_hi
            assert g.steps_lo <= g.mean_steps <= g.steps_hi
            assert g.energy_lo <= g.mean_energy_j <= g.energy_hi
            assert g.flips_total == 8 * 5
            assert g.macs_total == pytest.approx(8 * 165000.0)

    def test_group_by_params_axis(self):
        """Axes resolve against the spec's params labels, not just fields."""
        groups = group_records(self._records(), by=("ber",))
        assert [dict(g.group)["ber"] for g in groups] == ["0.001", "0.003"]

    def test_group_by_field_and_missing_axis(self):
        groups = group_records(self._records(), by=("system", "nope"))
        assert len(groups) == 1
        assert dict(groups[0].group) == {"system": "jarvis", "nope": ""}

    def test_deterministic_given_order(self):
        records = self._records()
        assert group_records(records) == group_records(records)

    def test_summary_columns_match_as_row(self):
        groups = group_records(self._records())
        assert tuple(groups[0].as_row()) == SUMMARY_COLUMNS

    def test_diff_groups_flags_significant_change(self):
        records = self._records()
        flipped = [make_record(condition=r.condition, seed=r.seed,
                               success=dict(json.loads(r.params))["ber"] == "0.003"
                               or r.seed >= 2,
                               steps=r.steps, params=json.loads(r.params))
                   for r in records]
        a = group_records(records)
        b = group_records(flipped)
        deltas, only_a, only_b = diff_groups(a, b)
        assert not only_a and not only_b
        by_label = {d.label(): d for d in deltas}
        assert by_label["ber=0.003"].success_delta == 0.75
        assert by_label["ber=0.003"].significant
        assert not by_label["ber=0.001"].significant

    def test_diff_groups_unmatched_sides(self):
        a = group_records(self._records())
        deltas, only_a, only_b = diff_groups(a, a[:1])
        assert [d.label() for d in deltas] == ["ber=0.001"]
        assert [g.label() for g in only_a] == ["ber=0.003"]
        assert only_b == []


# ----------------------------------------------------------------------
# Torn rows and merge conflicts feeding analysis
# ----------------------------------------------------------------------
class TestRobustAggregation:
    def test_torn_final_row_does_not_shift_aggregates(self, tmp_path):
        """strict=False recovery: the torn row vanishes, nothing else moves."""
        records = [make_record(seed=s, success=s % 2 == 0) for s in range(6)]
        clean = tmp_path / "clean.csv"
        RunTable(records).write_csv(clean)
        torn = tmp_path / "torn.csv"
        full = clean.read_text()
        # Tear the last row in the middle of its quoted JSON params cell.
        torn.write_text(full[:full.rindex('"{""ber') + 6])
        recovered = RunTable.read_csv(torn, strict=False)
        assert len(recovered) == len(records) - 1
        expected = group_records(records[:-1])
        assert group_records(recovered) == expected

    def test_torn_row_in_sweep_dir_matches_untorn_figure(self, tmp_path):
        records = [make_record(seed=s, success=s < 4) for s in range(6)]
        clean_dir = tmp_path / "clean"
        torn_dir = tmp_path / "torn"
        RunTable(records[:-1]).write_csv(clean_dir / "t.csv")
        RunTable(records).write_csv(torn_dir / "t.csv")
        path = torn_dir / "t.csv"
        data = path.read_bytes()
        final_row = data.rstrip(b"\n").rindex(b"\nkey-")
        path.write_bytes(data[:final_row + 20])  # mid final row
        clean_figure = build_figure("t", [clean_dir / "t.csv"])
        torn_figure = build_figure("t", [torn_dir / "t.csv"])
        assert torn_figure.rows == clean_figure.rows

    def test_merge_duplicates_dedupe_into_figure(self, tmp_path):
        """Identical duplicate cells (reclaimed leases) aggregate once."""
        records = [make_record(seed=s) for s in range(4)]
        a_dir, b_dir = tmp_path / "shard-a", tmp_path / "shard-b"
        RunTable(records[:3]).write_csv(a_dir / "t.csv")
        RunTable(records[1:]).write_csv(b_dir / "t.csv")
        figure = build_figure("t", [a_dir / "t.csv", b_dir / "t.csv"])
        assert figure.trials == 4
        assert figure.rows == build_figure(
            "t", [RunTable(records).write_csv(tmp_path / "full" / "t.csv")]
        ).rows

    def test_merge_conflict_refuses_to_aggregate(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        RunTable([make_record(seed=0, steps=10)]).write_csv(a_dir / "t.csv")
        RunTable([make_record(seed=0, steps=99)]).write_csv(b_dir / "t.csv")
        with pytest.raises(MergeConflictError):
            build_figure("t", [a_dir / "t.csv", b_dir / "t.csv"])


# ----------------------------------------------------------------------
# Publication packs
# ----------------------------------------------------------------------
def write_sweep(root: Path) -> Path:
    sweep = root / "sweep"
    without = [make_record(condition=f"without/ber={ber}", seed=s,
                           success=s % 2 == 0, steps=20 + s,
                           params={"ber": ber}, spec_key=f"kw{ber}")
               for ber in ("0.001", "0.003") for s in range(4)]
    with_ad = [make_record(condition=f"with/ber={ber}", seed=s,
                           success=True, steps=18 + s,
                           params={"ber": ber}, spec_key=f"ka{ber}")
               for ber in ("0.001", "0.003") for s in range(4)]
    RunTable(without).write_csv(sweep / "ad" / "ber-sweep-without-ad.csv")
    RunTable(with_ad).write_csv(sweep / "ad" / "ber-sweep-with-ad.csv")
    RunTable([make_record(seed=s) for s in range(4)]).write_csv(
        sweep / "repetition-study-wooden.csv")
    # Bookkeeping directories must never contribute figures.
    RunTable(without).write_csv(sweep / "ad" / "profiles" / "x.csv",
                                profile=True)
    (sweep / "plans").mkdir()
    (sweep / "plans" / "noise.csv").write_text("not,a,table\n")
    return sweep


class TestPublicationPack:
    def test_discovery_layout(self, tmp_path):
        figures = discover_tables(write_sweep(tmp_path))
        assert sorted(figures) == ["ad", "repetition-study-wooden"]
        assert [p.name for p in figures["ad"]] == \
            ["ber-sweep-with-ad.csv", "ber-sweep-without-ad.csv"]

    def test_build_twice_is_byte_identical(self, tmp_path):
        sweep = write_sweep(tmp_path)
        manifest_a = build_pack(sweep, tmp_path / "pack-a")
        manifest_b = build_pack(sweep, tmp_path / "pack-b")
        assert manifest_a == manifest_b
        for relative in list(manifest_a["files"]) + ["manifest.json"]:
            assert (tmp_path / "pack-a" / relative).read_bytes() == \
                (tmp_path / "pack-b" / relative).read_bytes()

    def test_artifact_triplet_per_figure_and_manifest_hashes(self, tmp_path):
        sweep = write_sweep(tmp_path)
        manifest = build_pack(sweep, tmp_path / "pack")
        for name in ("ad", "repetition-study-wooden"):
            for extension in ("json", "csv", "md"):
                assert f"figures/{name}.{extension}" in manifest["files"]
        assert verify_pack(tmp_path / "pack") == []
        payload = json.loads(
            (tmp_path / "pack" / "figures" / "ad.json").read_text())
        assert payload["columns"] == list(SUMMARY_COLUMNS)
        assert payload["trials"] == 16
        with (tmp_path / "pack" / "figures" / "ad.csv").open(newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == len(payload["rows"]) == 4

    def test_verify_detects_tampering(self, tmp_path):
        build_pack(write_sweep(tmp_path), tmp_path / "pack")
        target = tmp_path / "pack" / "figures" / "ad.csv"
        target.write_text(target.read_text() + "tampered\n")
        problems = verify_pack(tmp_path / "pack")
        assert problems and "figures/ad.csv" in problems[0]

    def test_diff_identical_and_changed(self, tmp_path):
        sweep = write_sweep(tmp_path)
        build_pack(sweep, tmp_path / "pack-a")
        build_pack(sweep, tmp_path / "pack-b")
        assert diff_packs(tmp_path / "pack-a", tmp_path / "pack-b").identical

        # Flip one campaign's results and rebuild: that figure must show a
        # delta with a significance verdict, the other stays unchanged.
        flipped = [make_record(condition=f"without/ber={ber}", seed=s,
                               success=False, steps=20 + s,
                               params={"ber": ber}, spec_key=f"kw{ber}")
                   for ber in ("0.001", "0.003") for s in range(4)]
        RunTable(flipped).write_csv(
            sweep / "ad" / "ber-sweep-without-ad.csv")
        build_pack(sweep, tmp_path / "pack-c")
        diff = diff_packs(tmp_path / "pack-a", tmp_path / "pack-c")
        assert not diff.identical
        assert diff.changed == ("ad",)
        assert diff.unchanged == ("repetition-study-wooden",)
        labels = {d.label(): d for d in diff.deltas["ad"]}
        assert labels["ber-sweep-without-ad/without/ber=0.001"].success_delta \
            == -0.5
        assert "differs" in diff.format()

    def test_empty_sweep_raises(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(FileNotFoundError):
            build_pack(tmp_path / "empty", tmp_path / "pack")


# ----------------------------------------------------------------------
# Golden pack: the committed fixture regenerates byte-identically
# ----------------------------------------------------------------------
class TestGoldenPack:
    def test_fixture_is_committed(self):
        assert (GOLDEN / "sweep").is_dir()
        assert (GOLDEN / "pack" / "manifest.json").is_file()

    def test_golden_pack_regenerates_byte_identical(self, tmp_path):
        """The figure-level analogue of the serial == parallel invariant."""
        build_pack(GOLDEN / "sweep", tmp_path / "pack")
        fresh = sorted(p.relative_to(tmp_path / "pack").as_posix()
                       for p in (tmp_path / "pack").rglob("*") if p.is_file())
        committed = sorted(p.relative_to(GOLDEN / "pack").as_posix()
                           for p in (GOLDEN / "pack").rglob("*")
                           if p.is_file())
        assert fresh == committed
        for relative in fresh:
            assert (tmp_path / "pack" / relative).read_bytes() == \
                (GOLDEN / "pack" / relative).read_bytes(), relative

    def test_golden_manifest_hashes_verify(self):
        assert verify_pack(GOLDEN / "pack") == []

    @staticmethod
    def _golden_tool():
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "golden_pack", REPO_ROOT / "tools" / "golden_pack.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_golden_tool_check_passes(self):
        assert self._golden_tool().check_pack() == 0

    def test_injected_sweep_reexecutes_byte_identical(self, tmp_path):
        """Executed gate of the fault-injected path and of the runtime's
        imports.  In a child interpreter where importing scipy or networkx
        raises, the golden ``wr`` mini-campaign re-runs into tables
        byte-identical to the committed ones (injection draws, flips and
        counts included), a voltage-scaling trial runs (the golden presets
        never touch the voltage model), and neither module gets loaded."""
        argv = dict(self._golden_tool().CAMPAIGNS)["wr"] + ["--out", str(tmp_path)]
        script = f"""
import sys
sys.modules["scipy"] = sys.modules["networkx"] = None

from repro.agents.registry import get_system
from repro.cli import main
from repro.core import ProtectionConfig, VoltageScalingConfig, default_policy
from repro.hardware import NOMINAL_VOLTAGE

assert main({argv!r}) == 0
protection = ProtectionConfig(voltage_scaling=VoltageScalingConfig(
    policy=default_policy(), update_interval=1, entropy_source="oracle"))
trial = get_system("jarvis").executor().run_trial(
    "wooden", seed=9, controller_protection=protection)
assert min(trial.entropy_trace.voltages) < NOMINAL_VOLTAGE
loaded = sorted(name for name, module in sys.modules.items()
                if name.split(".")[0] in ("scipy", "networkx") and module)
assert not loaded, loaded
"""
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        child = subprocess.run([sys.executable, "-c", script], cwd=REPO_ROOT,
                               env=env, capture_output=True, text=True)
        assert child.returncode == 0, child.stderr[-3000:]
        committed = sorted((GOLDEN / "sweep" / "wr").glob("*.csv"))
        assert len(committed) == 2
        for path in committed:
            assert (tmp_path / path.name).read_bytes() == path.read_bytes(), \
                path.name
