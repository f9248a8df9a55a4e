"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import CAMPAIGN_PRESETS, _suite, build_parser, main

#: ``campaign <preset> --dry-run`` transcripts at default flags, no ``--out``.
DRY_RUN_DIR = Path(__file__).resolve().parent / "data" / "dry_run"


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_mission_defaults(self):
        args = build_parser().parse_args(["mission"])
        assert args.task == "wooden"
        assert args.trials == 10
        assert not args.ad and not args.wr and not args.vs

    def test_mission_flags(self):
        args = build_parser().parse_args(
            ["mission", "--task", "stone", "--trials", "3", "--ad", "--wr", "--vs",
             "--planner-voltage", "0.78"])
        assert args.task == "stone" and args.trials == 3
        assert args.ad and args.wr and args.vs
        assert args.planner_voltage == pytest.approx(0.78)

    def test_characterize_defaults(self):
        args = build_parser().parse_args(["characterize"])
        assert args.target == "controller"
        assert len(args.bers) == 4

    def test_invalid_target_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["characterize", "--target", "nobody"])

    def test_engine_args_on_trial_subcommands(self):
        for command in (["mission"], ["characterize"], ["campaign", "overall"]):
            args = build_parser().parse_args(command)
            assert args.jobs == 1 and args.batch is None and args.out is None
        args = build_parser().parse_args(
            ["campaign", "wr", "--jobs", "4", "--batch", "8", "--out", "runs/x"])
        assert args.jobs == 4 and args.batch == 8 and args.out == "runs/x"

    def test_invalid_batch_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "wr", "--batch", "0"])

    def test_paper_preset_registered(self):
        from repro.cli import CAMPAIGN_PRESETS, PAPER_PRESET_CHAIN

        args = build_parser().parse_args(["campaign", "paper"])
        assert args.preset == "paper"
        assert "paper" in CAMPAIGN_PRESETS
        # The paper sweep chains exactly the figure/table presets; extras
        # beyond the paper (kitchen, the generated catalog scenarios, and
        # the fleet runtime) stay out of the chain.
        assert set(PAPER_PRESET_CHAIN) == set(CAMPAIGN_PRESETS) - {
            "paper", "kitchen", "navigation", "assembly", "fleet"}

    def test_kitchen_preset_registered(self):
        from repro.cli import CAMPAIGN_PRESETS

        args = build_parser().parse_args(["campaign", "kitchen", "--trials", "2"])
        assert args.preset == "kitchen"
        assert "kitchen" in CAMPAIGN_PRESETS

    def test_mission_system_override(self):
        args = build_parser().parse_args(["mission", "--system", "jarvis-nopredictor"])
        assert args.system == "jarvis-nopredictor"
        assert build_parser().parse_args(["mission"]).system is None


class TestCommands:
    def test_policies_command(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        assert "default policy: C" in out
        assert out.count("->") >= 6

    def test_hardware_command(self, capsys):
        assert main(["hardware"]) == 0
        out = capsys.readouterr().out
        assert "peak TOPS" in out
        assert "jarvis_planner" in out

    def test_systems_command_lists_variant_keys(self, capsys):
        """The smoke test of the predictor-less / custom-quantization keys."""
        assert main(["systems"]) == 0
        out = capsys.readouterr().out
        for key in ("jarvis", "jarvis-nopredictor", "jarvis-rotated-nopredictor",
                    "jarvis-acc20", "jarvis-int4-acc16", "controller-rt1-kitchen"):
            assert key in out
        assert "system keys" in out

    def test_mission_command_clean(self, jarvis_system, capsys):
        assert main(["mission", "--task", "wooden", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "success_rate" in out

    def test_mission_command_full_create(self, jarvis_system_rotated, capsys):
        code = main(["mission", "--task", "wooden", "--trials", "2", "--ad", "--wr", "--vs",
                     "--planner-voltage", "0.78"])
        assert code == 0
        assert "AD+WR+VS(C)" in capsys.readouterr().out

    def test_characterize_command(self, jarvis_system, capsys):
        code = main(["characterize", "--target", "controller", "--task", "wooden",
                     "--trials", "2", "--bers", "1e-5", "1e-2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "success rate vs. BER" in out

    def test_campaign_repetitions_with_batch_and_out(self, jarvis_system, capsys,
                                                     tmp_path):
        code = main(["campaign", "repetitions", "--trials", "2", "--batch", "2",
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "repetition study" in out
        assert "run tables written under" in out
        assert list(tmp_path.glob("*.csv"))  # table persisted at the top level

    def test_mission_reports_profile(self, jarvis_system, capsys, tmp_path):
        code = main(["mission", "--task", "wooden", "--trials", "2",
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "run table:" in out and "profile:" in out

    def test_mission_total_counts_only_the_grids_cells(self, capsys, tmp_path):
        mission = ["mission", "--task", "wooden", "--out", str(tmp_path)]
        assert main([*mission, "--trials", "3"]) == 0
        capsys.readouterr()
        assert main([*mission, "--trials", "2"]) == 0
        assert "(0 new trials, 2 total)" in capsys.readouterr().out


class TestDistributedCli:
    def test_scheduling_flags_parse(self):
        args = build_parser().parse_args(["campaign", "vs", "--dry-run",
                                          "--shard", "2/4"])
        assert args.dry_run and args.shard == "2/4" and args.queue is None
        args = build_parser().parse_args(["campaign", "vs", "--queue", "q"])
        assert args.queue == "q" and not args.dry_run

    def test_worker_parser(self):
        args = build_parser().parse_args(["worker", "--queue", "q", "--jobs",
                                          "2", "--wait", "--max-tasks", "3"])
        assert args.queue == "q" and args.jobs == 2 and args.wait
        assert args.max_tasks == 3 and args.lease_ttl == 120.0
        assert args.queue_url is None and args.plan is None
        args = build_parser().parse_args(["worker", "--queue-url",
                                          "http://h:1", "--plan", "demo"])
        assert args.queue is None and args.queue_url == "http://h:1"
        assert args.plan == "demo"

    def test_worker_needs_exactly_one_backend(self, capsys):
        assert main(["worker"]) == 2  # neither backend
        assert "--queue DIR or --queue-url URL" in capsys.readouterr().out
        assert main(["worker", "--queue", "q", "--queue-url",
                     "http://h:1"]) == 2  # both backends
        assert "--queue DIR or --queue-url URL" in capsys.readouterr().out

    def test_merge_parser(self):
        args = build_parser().parse_args(["merge", "out", "a", "b"])
        assert args.out == "out" and args.dirs == ["a", "b"]
        assert not args.overwrite

    def test_dry_run_prints_cells_without_executing(self, capsys, tmp_path):
        code = main(["campaign", "repetitions", "--trials", "4", "--dry-run",
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "4 cells" in out and "nothing was trained or executed" in out
        assert not list(tmp_path.glob("*.csv"))  # really did not run

    def test_dry_run_reports_shard_split(self, capsys):
        code = main(["campaign", "repetitions", "--trials", "8", "--dry-run",
                     "--shard", "1/2"])
        assert code == 0
        assert "shard 1/2:" in capsys.readouterr().out

    @pytest.mark.parametrize("preset, flags, note", [
        ("fleet", ["--trials", "3"], "--trials"),
        ("repetitions", ["--fleet-sizes", "4"], "--fleet-sizes"),
        ("vs", ["--bers", "1e-3"], "--bers"),
    ])
    def test_dry_run_notes_an_ignored_option(self, preset, flags, note, capsys):
        assert main(["campaign", preset, *flags, "--dry-run"]) == 0
        assert (f"note: {note} is not used by the {preset!r} preset"
                in capsys.readouterr().out)

    def test_dry_run_takes_fleet_sizes_without_a_note(self, capsys):
        assert main(["campaign", "fleet", "--fleet-sizes", "4",
                     "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "note:" not in out and "fleet=4/ber=0.001: 4 cells" in out

    @pytest.mark.parametrize("size", ["0", "2000"])
    def test_out_of_range_fleet_size_is_a_usage_error(self, size, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["campaign", "fleet", "--fleet-sizes", "4", size,
                  "--dry-run"])
        assert exit_info.value.code == 2
        assert ("argument --fleet-sizes: must be in 1..1000"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("preset, flags, suite_task", [
        ("fleet", ["--task", "foo"], "route-lab-cor-vau-1k"),
        ("navigation", ["--tasks", "route-lab-cor-vau-1k", "foo"],
         "route-atr-cel-cor-2k"),
        ("repetitions", ["--task", "foo"], "wooden"),
    ])
    def test_unknown_task_is_a_usage_error(self, preset, flags, suite_task,
                                           capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["campaign", preset, *flags, "--dry-run"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing was planned
        assert (f"argument {flags[0]}: unknown task 'foo' for the {preset!r} "
                "preset" in captured.err)
        assert suite_task in captured.err

    def test_explicit_wooden_is_checked_like_any_task(self, capsys):
        """``--task wooden`` is a name like any other, not the default: the
        fleet preset runs the navigation suite, so it is a usage error."""
        with pytest.raises(SystemExit) as exit_info:
            main(["campaign", "fleet", "--task", "wooden", "--fleet-sizes", "1",
                  "--bers", "1e-3", "--dry-run"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("argument --task: unknown task 'wooden' for the 'fleet' preset; "
                "the navigation suite has: ") in captured.err
        assert "route-atr-cel-cor-2k" in captured.err

    @pytest.mark.parametrize("preset, flags, cells", [
        ("fleet", ["--task", "route-lab-cor-vau-1k"],
         "fleet=4/ber=0.001: 4 cells"),
        ("repetitions", [], "total 8 cells"),
        # An explicit --task runs that task alone, the default's included.
        ("overall", ["--task", "wooden"],
         "AD+WR+VS/wooden: 8 cells\n  total 32 cells"),
        ("overall", ["--task", "stone"],
         "AD+WR+VS/stone: 8 cells\n  total 32 cells"),
    ])
    def test_suite_and_default_tasks_plan(self, preset, flags, cells, capsys):
        assert main(["campaign", preset, *flags, "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert cells in out and "note:" not in out

    def test_shard_requires_out(self, capsys):
        assert main(["campaign", "repetitions", "--shard", "1/2"]) == 2
        assert "--shard needs --out" in capsys.readouterr().out

    def test_queue_and_shard_are_exclusive(self, capsys):
        code = main(["campaign", "repetitions", "--queue", "q",
                     "--shard", "1/2"])
        assert code == 2
        assert "pick one" in capsys.readouterr().out

    def test_invalid_shard_reports_error(self, capsys):
        assert main(["campaign", "repetitions", "--dry-run",
                     "--shard", "9/4"]) == 2
        assert "shard" in capsys.readouterr().out

    def test_shard_runs_merge_to_serial_bytes(self, jarvis_system, capsys,
                                              tmp_path):
        """End-to-end static sharding through the CLI: two shard runs plus
        `merge` reproduce the serial table byte for byte."""
        trials = ["campaign", "repetitions", "--trials", "4"]
        assert main([*trials, "--out", str(tmp_path / "serial")]) == 0
        for index in (1, 2):
            code = main([*trials, "--shard", f"{index}/2",
                         "--out", str(tmp_path / f"shard{index}")])
            assert code == 0
        out = capsys.readouterr().out
        assert "belong to other shards" in out
        assert main(["merge", str(tmp_path / "merged"),
                     str(tmp_path / "shard1"), str(tmp_path / "shard2")]) == 0
        merged_out = capsys.readouterr().out
        assert "INCOMPLETE" not in merged_out
        serial = next((tmp_path / "serial").glob("*.csv"))
        merged = tmp_path / "merged" / serial.name
        assert merged.read_bytes() == serial.read_bytes()

    def test_merge_reports_missing_inputs(self, capsys, tmp_path):
        assert main(["merge", str(tmp_path / "out"),
                     str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().out

    def test_merge_with_no_tables_fails(self, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["merge", str(tmp_path / "out"), str(empty)]) == 1
        assert "no run tables found" in capsys.readouterr().out


class TestPresetTable:
    """Every path reads the one preset table; declaring a preset builds nothing."""

    @staticmethod
    def _plan(preset, *flags):
        row = CAMPAIGN_PRESETS[preset]
        args = build_parser().parse_args(["campaign", preset, *flags])
        [plan] = row.plans(args, row.suite)
        return plan

    @staticmethod
    def _write_table(path, cells):
        from test_analysis import make_record

        from repro.eval.runtable import RunTable

        RunTable([make_record(condition=cell.condition, seed=cell.seed,
                              spec_key=cell.spec_key) for cell in cells]
                 ).write_csv(path)

    @pytest.mark.parametrize("preset", sorted(CAMPAIGN_PRESETS))
    def test_dry_run_matches_its_transcript(self, preset, capsys, monkeypatch):
        from repro.agents import registry

        def refuse(key):
            raise AssertionError(f"declaring {preset!r} built system {key!r}")

        monkeypatch.setattr(registry, "get_system", refuse)
        assert main(["campaign", preset, "--dry-run"]) == 0
        assert capsys.readouterr().out == \
            (DRY_RUN_DIR / f"{preset}.txt").read_text()

    def test_dry_run_over_a_partial_table_counts_only_missing_cells(
            self, capsys, tmp_path):
        plan = self._plan("repetitions", "--trials", "4")
        self._write_table(tmp_path / f"{plan.name}.csv", plan.cells()[:3])
        assert main(["campaign", "repetitions", "--trials", "4", "--dry-run",
                     "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == (
            f"[repetitions] campaign {plan.name} (out {tmp_path}):\n"
            "  repetitions/ber=0.0001: 4 cells\n"
            "  total 4 cells, 1 pending (3 already in the run table)\n"
            "dry run: 1 campaign(s), 4 cells, 1 pending; nothing was trained "
            "or executed\n")

    def test_dry_run_counts_only_the_grids_cells(self, capsys, tmp_path):
        """A table left by a 4-trial run holds all of a 2-trial grid's cells,
        and two rows outside it that no count includes."""
        plan = self._plan("repetitions", "--trials", "4")
        self._write_table(tmp_path / f"{plan.name}.csv", plan.cells())
        assert main(["campaign", "repetitions", "--trials", "2", "--dry-run",
                     "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == (
            f"[repetitions] campaign {plan.name} (out {tmp_path}):\n"
            "  repetitions/ber=0.0001: 2 cells\n"
            "  total 2 cells, 0 pending (2 already in the run table)\n"
            "dry run: 1 campaign(s), 2 cells, 0 pending; nothing was trained "
            "or executed\n")

    def test_shard_run_counts_other_shards_from_pending_cells(self, capsys,
                                                              tmp_path):
        """The resumed table holds every cell of shard 1, one of shard 2's
        and a row outside the grid: rows held count the grid's cells only,
        and one cell is left for the other shard, whatever the table's
        size."""
        import dataclasses

        from repro.eval.shard import Shard

        plan = self._plan("repetitions", "--trials", "4")
        mine, others = Shard(1, 2).split(plan.cells())
        assert mine and len(others) >= 2
        stale = dataclasses.replace(mine[0], seed=99)
        csv_path = tmp_path / f"{plan.name}.csv"
        self._write_table(csv_path, mine + others[:1] + [stale])
        rows = len(mine) + 1
        assert main(["campaign", "repetitions", "--trials", "4",
                     "--shard", "1/2", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert (f"[repetitions] {csv_path}: 0 cells executed, {rows} rows held\n"
                f"shard 1/2: executed 0 new cells, {rows} rows persisted; "
                f"{len(others) - 1} cells belong to other shards\n") in out

    @pytest.mark.parametrize("preset", [name for name in sorted(CAMPAIGN_PRESETS)
                                        if CAMPAIGN_PRESETS[name].plans])
    def test_declared_tasks_belong_to_the_row_suite(self, preset):
        row = CAMPAIGN_PRESETS[preset]
        args = build_parser().parse_args(["campaign", preset])
        tasks = {spec.task for plan in row.plans(args, row.suite)
                 for spec in plan.specs}
        assert tasks and tasks <= set(_suite(row.suite).task_names)


class TestReportCli:
    """`repro-create report`: pack building, checking, diffing (no models)."""

    @staticmethod
    def _sweep(root, success=True):
        from test_analysis import make_record

        from repro.eval.runtable import RunTable

        records = [make_record(seed=s, success=success or s % 2 == 0)
                   for s in range(4)]
        RunTable(records).write_csv(root / "study" / "t.csv")
        return root

    def test_report_parser(self):
        args = build_parser().parse_args(
            ["report", "sweep", "--out", "pack", "--confidence", "0.99"])
        assert args.sweep == "sweep" and args.out == "pack"
        assert args.confidence == pytest.approx(0.99)
        args = build_parser().parse_args(["report", "--diff", "a", "b"])
        assert args.diff == ["a", "b"] and args.sweep is None

    def test_build_then_check_roundtrip(self, capsys, tmp_path):
        sweep = self._sweep(tmp_path / "sweep")
        pack = tmp_path / "pack"
        assert main(["report", str(sweep), "--out", str(pack)]) == 0
        out = capsys.readouterr().out
        assert "study" in out and "pack:" in out and "hash" in out
        assert (pack / "manifest.json").is_file()
        assert main(["report", "--check", str(pack)]) == 0
        assert "verifies against its manifest" in capsys.readouterr().out

    def test_check_detects_corruption(self, capsys, tmp_path):
        pack = tmp_path / "pack"
        assert main(["report", str(self._sweep(tmp_path / "sweep")),
                     "--out", str(pack)]) == 0
        (pack / "figures" / "study.csv").unlink()
        assert main(["report", "--check", str(pack)]) == 1
        assert "missing" in capsys.readouterr().out

    def test_diff_exit_codes(self, capsys, tmp_path):
        sweep_a = self._sweep(tmp_path / "a")
        sweep_b = self._sweep(tmp_path / "b", success=False)
        for name in ("a", "b"):
            assert main(["report", str(tmp_path / name),
                         "--out", str(tmp_path / f"pack-{name}")]) == 0
        assert main(["report", "--diff", str(tmp_path / "pack-a"),
                     str(tmp_path / "pack-a")]) == 0
        assert "identical" in capsys.readouterr().out
        assert main(["report", "--diff", str(tmp_path / "pack-a"),
                     str(tmp_path / "pack-b")]) == 1
        assert "differs" in capsys.readouterr().out

    def test_report_errors(self, capsys, tmp_path):
        # build without --out, missing sweep, no mode at all: all exit 2.
        assert main(["report", str(tmp_path)]) == 2
        assert main(["report", str(tmp_path / "nope"), "--out",
                     str(tmp_path / "p")]) == 2
        assert main(["report"]) == 2
        assert main(["report", str(tmp_path), "--out", str(tmp_path / "p"),
                     "--confidence", "0.42"]) == 2
        out = capsys.readouterr().out
        assert "error:" in out
