"""Tests for the campaign engine: determinism, resume, streaming, batching,
profiling, and run-table round trips."""

import dataclasses
import os
from pathlib import Path

import numpy as np
import pytest

from repro.agents.executor import MissionExecutor
from repro.core import ProtectionConfig
from repro.eval import (
    CampaignRunner,
    RunTable,
    TrialSpec,
    collect_results,
    protection_signature,
    record_from_trial,
    run_campaign,
    summarize_records,
    summarize_trials,
    system_ref,
)
from repro.faults.models import UniformErrorModel


def _same_summary(a, b):
    """Exact TrialSummary equality, treating NaN == NaN (dataclass eq does not)."""
    for key, left in a.as_dict().items():
        right = b.as_dict()[key]
        if left != right and not (np.isnan(left) and np.isnan(right)):
            return False
    return True


def _specs(num_trials=3):
    return [
        TrialSpec(condition="clean", system="jarvis", task="wooden",
                  num_trials=num_trials, seed=0),
        TrialSpec(condition="faulty", system="jarvis", task="wooden",
                  num_trials=num_trials, seed=0,
                  controller_protection=ProtectionConfig(
                      error_model=UniformErrorModel(1e-3)),
                  params=(("ber", "1e-3"),)),
    ]


class TestTrialSpec:
    def test_seeds_enumerate_cells(self):
        spec = _specs(4)[0]
        assert list(spec.seeds()) == [0, 1, 2, 3]

    def test_key_changes_with_protection(self):
        clean, faulty = _specs()
        assert clean.key() != faulty.key()
        twin = dataclasses.replace(faulty, condition="clean")
        assert twin.key() != faulty.key()

    def test_key_ignores_num_trials(self):
        spec = _specs(3)[0]
        grown = dataclasses.replace(spec, num_trials=8)
        assert spec.key() == grown.key()

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            TrialSpec(condition="", system="jarvis", task="wooden", num_trials=1)
        with pytest.raises(ValueError):
            TrialSpec(condition="x", system="jarvis", task="wooden", num_trials=0)

    def test_protection_signature_distinguishes_models(self):
        a = protection_signature(ProtectionConfig(error_model=UniformErrorModel(1e-3)))
        b = protection_signature(ProtectionConfig(error_model=UniformErrorModel(2e-3)))
        c = protection_signature(ProtectionConfig(voltage=0.78))
        assert len({a, b, c}) == 3
        assert protection_signature(None) == "default"

    def test_system_ref_passthrough_and_objects(self, jarvis_system):
        key, overrides = system_ref("jarvis")
        assert key == "jarvis" and overrides == {}
        key, overrides = system_ref(jarvis_system)
        assert key.startswith("local/") and overrides == {key: jarvis_system}
        executor = jarvis_system.executor()
        key, overrides = system_ref(executor, hint="plain")
        assert key == "local/executor/plain" and overrides == {key: executor}


class TestCampaignDeterminism:
    def test_serial_and_parallel_tables_are_byte_identical(self, tmp_path):
        specs = _specs()
        serial = run_campaign(specs, jobs=1, out=tmp_path / "serial", name="det")
        parallel = run_campaign(specs, jobs=2, out=tmp_path / "parallel", name="det")
        assert serial.executed_trials == parallel.executed_trials == 6
        assert serial.csv_path.read_bytes() == parallel.csv_path.read_bytes()
        assert serial.json_path.read_bytes() == parallel.json_path.read_bytes()

    def test_in_process_system_matches_registry_rebuild(self, jarvis_system, tmp_path):
        """A live system object and the registry factory produce the same trials."""
        registry = run_campaign(_specs(2), jobs=1, out=tmp_path, name="registry")
        key, overrides = system_ref(jarvis_system)
        local_specs = [dataclasses.replace(spec, system=key) for spec in _specs(2)]
        local = run_campaign(local_specs, systems=overrides)
        for spec, local_spec in zip(_specs(2), local_specs):
            reg_rows = registry.records(spec.condition)
            local_rows = local.records(local_spec.condition)
            for a, b in zip(reg_rows, local_rows):
                assert (a.success, a.steps, a.energy_j, a.controller_macs) == \
                    (b.success, b.steps, b.energy_j, b.controller_macs)

    def test_parallel_requires_registry_keys(self, jarvis_system):
        key, overrides = system_ref(jarvis_system)
        spec = TrialSpec(condition="clean", system=key, task="wooden", num_trials=1)
        with pytest.raises(ValueError, match="registry system keys"):
            run_campaign([spec], jobs=2, systems=overrides)


class TestResume:
    def test_rerun_executes_zero_trials(self, tmp_path):
        specs = _specs()
        first = run_campaign(specs, out=tmp_path, name="resume")
        assert first.executed_trials == 6
        second = run_campaign(specs, out=tmp_path, name="resume")
        assert second.executed_trials == 0
        assert first.csv_path.read_bytes() == second.csv_path.read_bytes()

    def test_growing_trials_only_runs_new_cells(self, tmp_path):
        run_campaign(_specs(3), out=tmp_path, name="grow")
        grown = run_campaign(_specs(5), out=tmp_path, name="grow")
        assert grown.executed_trials == 4  # two specs x two new seeds

    def test_changed_protection_invalidates_cells(self, tmp_path):
        specs = _specs(2)
        run_campaign(specs, out=tmp_path, name="invalidate")
        changed = [specs[0],
                   dataclasses.replace(specs[1], controller_protection=ProtectionConfig(
                       error_model=UniformErrorModel(5e-3)))]
        rerun = run_campaign(changed, out=tmp_path, name="invalidate")
        assert rerun.executed_trials == 2  # only the changed condition re-runs

    def test_resume_summary_matches_fresh_summary(self, tmp_path):
        specs = _specs(2)
        fresh = run_campaign(specs, out=tmp_path, name="summary")
        resumed = run_campaign(specs, out=tmp_path, name="summary")
        for spec in specs:
            assert _same_summary(fresh.summary(spec.condition),
                                  resumed.summary(spec.condition))


class TestRunTableRoundTrip:
    def test_summaries_survive_csv_round_trip_bit_for_bit(self, jarvis_executor, tmp_path):
        protection = ProtectionConfig(error_model=UniformErrorModel(5e-4))
        trials = jarvis_executor.run_trials("wooden", 4, seed=0,
                                            controller_protection=protection)
        records = [record_from_trial(trial, spec_key="k", condition="c",
                                     system="jarvis", task="wooden",
                                     seed=index, trial_index=index)
                   for index, trial in enumerate(trials)]
        table = RunTable(records)
        table.write_csv(tmp_path / "table.csv")
        reread = RunTable.read_csv(tmp_path / "table.csv")
        assert len(reread) == len(table)

        direct = summarize_trials(trials)
        from_memory = summarize_records(records)
        from_disk = summarize_records(list(reread))
        assert _same_summary(from_memory, direct)
        assert _same_summary(from_disk, direct)  # exact float equality, not approx

    def test_json_round_trip(self, jarvis_executor, tmp_path):
        trials = jarvis_executor.run_trials("wooden", 2, seed=7)
        records = [record_from_trial(trial, spec_key="k", condition="c",
                                     system="jarvis", task="wooden",
                                     seed=7 + index, trial_index=index)
                   for index, trial in enumerate(trials)]
        table = RunTable(records)
        table.write_json(tmp_path / "table.json")
        reread = RunTable.read_json(tmp_path / "table.json")
        assert _same_summary(summarize_records(list(reread)), summarize_records(records))

    def test_macs_round_trip_exactly(self, jarvis_executor, tmp_path):
        trial = jarvis_executor.run_trial("wooden", seed=3)
        record = record_from_trial(trial, spec_key="k", condition="c", system="jarvis",
                                   task="wooden", seed=3, trial_index=0)
        table = RunTable([record])
        table.write_csv(tmp_path / "macs.csv")
        row = next(iter(RunTable.read_csv(tmp_path / "macs.csv")))
        assert row.macs_by_voltage() == trial.macs_by_voltage()

    def test_duplicate_cells_are_ignored(self, jarvis_executor):
        trial = jarvis_executor.run_trial("wooden", seed=0)
        record = record_from_trial(trial, spec_key="k", condition="c", system="jarvis",
                                   task="wooden", seed=0, trial_index=0)
        table = RunTable([record, record])
        assert len(table) == 1
        assert table.has("k", 0) and not table.has("k", 1)


class TestCampaignResults:
    def test_summary_matches_direct_run(self, jarvis_executor):
        """Campaign summaries equal the legacy serial run_trials + summarize path."""
        protection = ProtectionConfig(error_model=UniformErrorModel(1e-3))
        key, overrides = system_ref(jarvis_executor)
        spec = TrialSpec(condition="faulty", system=key, task="wooden", num_trials=3,
                         seed=0, controller_protection=protection)
        campaign = run_campaign([spec], systems=overrides)
        trials = jarvis_executor.run_trials("wooden", 3, seed=0,
                                            controller_protection=protection)
        assert _same_summary(campaign.summary("faulty"), summarize_trials(trials))

    def test_records_ordered_by_trial_index(self, tmp_path):
        result = run_campaign(_specs(3), out=tmp_path, name="order")
        records = result.records("clean")
        assert [r.trial_index for r in records] == [0, 1, 2]
        assert [r.seed for r in records] == [0, 1, 2]

    def test_duplicate_conditions_rejected(self):
        spec = TrialSpec(condition="dup", system="jarvis", task="wooden", num_trials=1)
        with pytest.raises(ValueError, match="unique"):
            CampaignRunner().run([spec, spec])

    def test_unknown_condition_raises(self):
        result = run_campaign(_specs(1))
        with pytest.raises(KeyError):
            result.summary("nope")


class _FlakyExecutor(MissionExecutor):
    """Delegating executor that crashes on chosen seeds (simulates a kill)."""

    def __init__(self, inner, fail_seeds):
        self._inner = inner
        self._fail_seeds = set(fail_seeds)

    def run_trial(self, task_name, seed=0, planner_protection=None,
                  controller_protection=None):
        if seed in self._fail_seeds:
            raise RuntimeError("injected crash")
        return self._inner.run_trial(task_name, seed=seed,
                                     planner_protection=planner_protection,
                                     controller_protection=controller_protection)


class TestStreaming:
    def test_crash_leaves_streamed_rows_resume_runs_only_missing(
            self, jarvis_executor, tmp_path):
        """Completed rows survive a mid-campaign crash; resume finishes the rest."""
        flaky = _FlakyExecutor(jarvis_executor, fail_seeds={2})
        key, overrides = system_ref(flaky, hint="flaky")
        spec = TrialSpec(condition="clean", system=key, task="wooden", num_trials=4)
        with pytest.raises(RuntimeError, match="injected crash"):
            run_campaign([spec], systems=overrides, out=tmp_path, name="crash")

        csv_path = tmp_path / "crash.csv"
        streamed = RunTable.read_csv(csv_path, strict=False)
        assert len(streamed) == 2  # seeds 0 and 1 were flushed before the crash
        assert streamed.has(spec.key(), 0) and streamed.has(spec.key(), 1)

        resumed = run_campaign([spec], systems={key: jarvis_executor},
                               out=tmp_path, name="crash")
        assert resumed.executed_trials == 2  # only seeds 2 and 3
        assert len(resumed.table) == 4

        fresh = run_campaign([spec], systems={key: jarvis_executor},
                             out=tmp_path / "fresh", name="crash")
        assert fresh.csv_path.read_bytes() == csv_path.read_bytes()

    def test_pool_failure_streams_finished_chunks_and_unpublishes(
            self, tmp_path, monkeypatch):
        """A jobs=2 campaign whose chunk raises streams every chunk that
        finished, re-raises, and leaves no weight-plane segment behind."""
        import repro.eval.campaign as campaign_module
        from repro.quant import weightplane

        original = campaign_module._run_lane_group

        def crash_on_faulty(cells, executor, **kwargs):
            if cells[0].condition == "faulty":
                raise RuntimeError("injected chunk crash")
            return original(cells, executor, **kwargs)

        monkeypatch.setattr(campaign_module, "_run_lane_group",
                            crash_on_faulty)
        with pytest.raises(RuntimeError, match="injected chunk crash"):
            run_campaign(_specs(2), jobs=2, batch=2, out=tmp_path,
                         name="boom")
        for path in (tmp_path / "boom.csv", tmp_path / "profiles" / "boom.csv"):
            streamed = RunTable.read_csv(path, strict=False)
            assert sorted((r.condition, r.seed) for r in streamed) == \
                [("clean", 0), ("clean", 1)]
        prefix = f"{weightplane.SEGMENT_PREFIX}-{os.getpid()}-"
        assert not list(Path("/dev/shm").glob(prefix + "*"))

    def test_truncated_final_row_is_dropped_and_reexecuted(self, tmp_path):
        specs = _specs(2)
        run_campaign(specs, out=tmp_path, name="torn")
        csv_path = tmp_path / "torn.csv"
        lines = csv_path.read_text().splitlines(keepends=True)
        csv_path.write_text("".join(lines[:-1]) + lines[-1][:25])  # torn write

        with pytest.raises(ValueError, match="malformed"):
            RunTable.read_csv(csv_path)
        assert len(RunTable.read_csv(csv_path, strict=False)) == 3

        rerun = run_campaign(specs, out=tmp_path, name="torn")
        assert rerun.executed_trials == 1  # just the torn cell
        assert len(rerun.table) == 4
        # the completion rewrite leaves a strictly-parseable canonical file
        assert len(RunTable.read_csv(csv_path)) == 4

    def test_tear_inside_quoted_params_field_is_rejected(self, tmp_path):
        """A tear inside the final quoted JSON field keeps the column count
        right (csv tolerates EOF in quotes); the JSON validation must still
        drop the row so the cell re-executes instead of persisting garbage."""
        specs = _specs(2)
        run_campaign(specs, out=tmp_path, name="tornq")
        csv_path = tmp_path / "tornq.csv"
        text = csv_path.read_text()
        assert text.endswith('"}"\n')  # last row ends inside its quoted params
        csv_path.write_text(text[:-4])  # tear mid-JSON, inside the quotes

        lenient = RunTable.read_csv(csv_path, strict=False)
        assert len(lenient) == 3
        for record in lenient:
            record.param_dict()  # every surviving row has parseable JSON

        rerun = run_campaign(specs, out=tmp_path, name="tornq")
        assert rerun.executed_trials == 1
        assert len(RunTable.read_csv(csv_path)) == 4

    def test_resume_false_clears_stale_rows_before_streaming(
            self, jarvis_executor, tmp_path):
        """resume=False must not append fresh rows after stale ones: a crash
        mid-re-execution would let the stale rows win on the next resume."""
        specs = _specs(2)
        run_campaign(specs, out=tmp_path, name="force")  # 4 completed rows

        flaky = _FlakyExecutor(jarvis_executor, fail_seeds={1})
        with pytest.raises(RuntimeError, match="injected crash"):
            run_campaign(specs, out=tmp_path, name="force", resume=False,
                         systems={"jarvis": flaky})
        streamed = RunTable.read_csv(tmp_path / "force.csv", strict=False)
        assert len(streamed) == 1  # stale table cleared; only the fresh row

        resumed = run_campaign(specs, out=tmp_path, name="force")
        assert resumed.executed_trials == 3
        assert len(resumed.table) == 4

    def test_writer_truncates_torn_tail_before_appending(self, jarvis_executor,
                                                         tmp_path):
        from repro.eval import RunTableWriter

        records = [record_from_trial(jarvis_executor.run_trial("wooden", seed=seed),
                                     spec_key="k", condition="c", system="jarvis",
                                     task="wooden", seed=seed, trial_index=seed)
                   for seed in range(3)]
        path = tmp_path / "torn.csv"
        with RunTableWriter(path) as writer:
            writer.write(records[0])
            writer.write(records[1])
        path.write_bytes(path.read_bytes() + b"abc,def")  # torn row, no newline

        with RunTableWriter(path) as writer:
            writer.write(records[2])
        table = RunTable.read_csv(path)  # strict: no merged/garbled rows
        assert len(table) == 3
        assert [r.seed for r in table] == [0, 1, 2]

    def test_file_grows_while_campaign_runs(self, jarvis_executor, tmp_path, monkeypatch):
        """Rows are on disk before later cells execute, not only at the end:
        each scalar cell's and each lane group's rows stream as it finishes."""
        import repro.eval.campaign as campaign_module

        csv_path = tmp_path / "grow.csv"
        sizes = []

        def spy(name):
            original = getattr(campaign_module, name)

            def spying(cells, executor, **kwargs):
                sizes.append(csv_path.stat().st_size if csv_path.exists() else 0)
                return original(cells, executor, **kwargs)

            monkeypatch.setattr(campaign_module, name, spying)

        spy("_run_cell")
        spy("_run_lane_group")
        key, overrides = system_ref(jarvis_executor)
        # A one-cell spec runs scalar; the two-cell spec is one lane group.
        specs = [TrialSpec(condition=f"c{index}", system=key, task="wooden",
                           num_trials=trials, seed=10 * index)
                 for index, trials in enumerate((1, 2, 1))]
        run_campaign(specs, systems=overrides, out=tmp_path, name="grow")
        assert len(sizes) == 3
        assert sizes[1] > sizes[0] and sizes[2] > sizes[1]


class TestBatching:
    def test_batch_sizes_produce_byte_identical_tables(self, tmp_path):
        specs = _specs(3)
        serial = run_campaign(specs, jobs=1, out=tmp_path / "s", name="batch")
        b1 = run_campaign(specs, jobs=2, batch=1, out=tmp_path / "b1", name="batch")
        b8 = run_campaign(specs, jobs=2, batch=8, out=tmp_path / "b8", name="batch")
        assert serial.csv_path.read_bytes() == b1.csv_path.read_bytes()
        assert b1.csv_path.read_bytes() == b8.csv_path.read_bytes()
        assert b1.json_path.read_bytes() == b8.json_path.read_bytes()

    def test_invalid_batch_rejected(self):
        with pytest.raises(ValueError, match="batch"):
            CampaignRunner(batch=0)

    def test_auto_batch_heuristic(self):
        runner = CampaignRunner(jobs=4)
        assert runner._batch_size(3) == 1        # fewer cells than workers
        assert runner._batch_size(160) == 10     # ~4 batches per worker
        assert runner._batch_size(10_000) == 32  # capped for streaming cadence
        assert CampaignRunner(jobs=4, batch=7)._batch_size(10_000) == 7


class TestProfile:
    def test_profile_columns_round_trip_csv_and_json(self, jarvis_executor, tmp_path):
        trial = jarvis_executor.run_trial("wooden", seed=0)
        record = dataclasses.replace(
            record_from_trial(trial, spec_key="k", condition="c", system="jarvis",
                              task="wooden", seed=0, trial_index=0),
            wall_time_s=1.2345678901234567, worker_id="ForkProcess-3")
        table = RunTable([record])

        table.write_csv(tmp_path / "p.csv", profile=True)
        row = next(iter(RunTable.read_csv(tmp_path / "p.csv")))
        assert row.wall_time_s == record.wall_time_s  # repr-exact float
        assert row.worker_id == "ForkProcess-3" and row.profiled()

        table.write_json(tmp_path / "p.json", profile=True)
        jrow = next(iter(RunTable.read_json(tmp_path / "p.json")))
        assert jrow.wall_time_s == record.wall_time_s
        assert jrow.worker_id == "ForkProcess-3"

    def test_canonical_files_exclude_profile_columns(self, tmp_path):
        run_campaign(_specs(1), out=tmp_path, name="canon")
        header = (tmp_path / "canon.csv").read_text().splitlines()[0]
        assert "wall_time_s" not in header and "worker_id" not in header
        row = next(iter(RunTable.read_csv(tmp_path / "canon.csv")))
        assert not row.profiled() and row.worker_id == ""

        sidecar_header = (tmp_path / "profiles" / "canon.csv"
                          ).read_text().splitlines()[0]
        assert "wall_time_s" in sidecar_header and "worker_id" in sidecar_header
        sidecar_row = next(iter(RunTable.read_csv(tmp_path / "profiles" / "canon.csv")))
        assert sidecar_row.profiled() and sidecar_row.worker_id

    def test_profile_summary_and_cached_split(self, tmp_path):
        first = run_campaign(_specs(2), out=tmp_path, name="prof")
        profile = first.profile()
        assert profile.executed_trials == 4 and profile.cached_trials == 0
        assert profile.total_wall_time_s > 0
        assert profile.max_cell_wall_time_s <= profile.total_wall_time_s
        assert set(profile.per_condition) == {"clean", "faulty"}
        assert sum(b.cells for b in profile.per_worker.values()) == 4
        assert "cells" in profile.format()

        resumed = run_campaign(_specs(2), out=tmp_path, name="prof")
        assert resumed.profile().executed_trials == 0
        assert resumed.profile().cached_trials == 4


class TestCollectResults:
    def test_collects_campaigns_run_inside_the_block(self):
        with collect_results() as results:
            run_campaign(_specs(1))
            run_campaign(_specs(1))
        assert len(results) == 2
        assert sum(r.executed_trials for r in results) == 4
        with collect_results() as after:
            pass
        assert after == []

    def test_nested_blocks_detach_the_right_sink(self):
        with collect_results() as outer:
            with collect_results() as inner:
                pass  # exits while both sinks are empty (and equal)
            run_campaign(_specs(1))
        assert len(outer) == 1  # the outer sink kept collecting
        assert inner == []


class TestExperimentsThroughCampaigns:
    def test_ber_sweep_serial_vs_parallel(self, tmp_path):
        from repro.eval import ber_sweep

        serial = ber_sweep("jarvis", "wooden", [1e-5, 1e-2], num_trials=3,
                           seed=0, jobs=1, out=tmp_path / "s")
        parallel = ber_sweep("jarvis", "wooden", [1e-5, 1e-2], num_trials=3,
                             seed=0, jobs=2, out=tmp_path / "p")
        np.testing.assert_array_equal(serial.success_rates(), parallel.success_rates())
        serial_csv = next((tmp_path / "s").glob("*.csv"))
        parallel_csv = next((tmp_path / "p").glob("*.csv"))
        assert serial_csv.read_bytes() == parallel_csv.read_bytes()

    def test_repetition_study_resumes(self, tmp_path):
        from repro.eval.experiments import repetition_study

        first = repetition_study("jarvis", "wooden", 1e-5, repetition_counts=[2, 4],
                                 seed=0, out=tmp_path)
        again = repetition_study("jarvis", "wooden", 1e-5, repetition_counts=[2, 4],
                                 seed=0, out=tmp_path)
        assert first == again
        assert len(RunTable.read_csv(next(tmp_path.glob("*.csv")))) == 4


def _pool_child_signals() -> tuple[int, int]:
    """In a pool child: the SIGTERM disposition and the parent-death signal."""
    import ctypes
    import signal

    handler = signal.getsignal(signal.SIGTERM)
    death = ctypes.c_int(0)
    if os.uname().sysname == "Linux":
        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = [ctypes.c_int, ctypes.POINTER(ctypes.c_int),
                          ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong]
        prctl.restype = ctypes.c_int
        assert prctl(2, ctypes.byref(death), 0, 0, 0) == 0  # PR_GET_PDEATHSIG
    return int(handler), death.value


class TestPoolChildren:
    def test_children_take_default_sigterm_and_die_with_owner(self):
        import signal

        from repro.eval.campaign import CellPool

        def graceful(signum, frame):  # a WorkerDaemon-style handler
            pass

        previous = signal.signal(signal.SIGTERM, graceful)
        try:
            with CellPool(2) as pool:
                handler, death = pool._pool.submit(
                    _pool_child_signals).result(timeout=60)
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert handler == signal.SIG_DFL
        if os.uname().sysname == "Linux":
            assert death == signal.SIGKILL
