"""Scenario catalog, vocabulary versioning, and scenario-system tests.

Covers the guarantees the versioned scenario subsystem makes:

* the default Table-10 vocabulary is **bit-identical** to the pre-catalog
  construction (golden fingerprint, sizes, token ids) — all shipped planner
  checkpoints and run tables depend on it;
* the procedural generators are deterministic across seeds and processes;
* planner checkpoints are rejected under mismatched vocabularies instead of
  silently corrupting token maps;
* ``encode_prompt`` raises on out-of-range progress instead of aliasing;
* the CLI surface (``suites``, the ``navigation``/``assembly`` presets,
  ``merge --watch``) works end to end.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.agents.vocabulary import (
    DEFAULT_MAX_PROGRESS,
    TABLE10_FINGERPRINT,
    build_vocabulary,
    scenario_vocabulary,
)
from repro.cli import CAMPAIGN_PRESETS, main
from repro.env import ALL_SUBTASKS, CATALOG, SUITES
from repro.env.scenarios import (
    ScenarioCatalog,
    ScenarioEntry,
    build_assembly_suite,
    build_navigation_suite,
    suite_fingerprint,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Golden Table-10 vocabulary (protects every shipped checkpoint)
# ----------------------------------------------------------------------
class TestTable10Golden:
    def test_fingerprint_pinned(self):
        assert build_vocabulary().fingerprint == TABLE10_FINGERPRINT

    def test_sizes_and_token_ids(self):
        vocab = build_vocabulary()
        assert (vocab.pad, vocab.bos, vocab.eos, vocab.sep) == (0, 1, 2, 3)
        assert len(vocab.task_tokens) == 21
        assert len(vocab.progress_tokens) == DEFAULT_MAX_PROGRESS
        assert len(vocab.subtask_tokens) == len(ALL_SUBTASKS)
        assert vocab.size == 63
        # Spot-pin the token layout: tasks from 4, progress after tasks,
        # subtasks last — sorted-name order throughout.
        assert vocab.task_tokens["alphabet"] == 4
        assert vocab.progress_tokens[0] == 4 + 21
        assert vocab.subtask_tokens["approach_target"] == 4 + 21 + 12
        assert vocab.subtask_tokens == {
            name: 37 + index for index, name in enumerate(ALL_SUBTASKS.names)}

    def test_explicit_suite_set_matches_default(self):
        explicit = build_vocabulary(
            suites=("minecraft", "libero", "calvin", "oxe", "manipulation"),
            registry=ALL_SUBTASKS, max_progress=DEFAULT_MAX_PROGRESS)
        assert explicit.fingerprint == TABLE10_FINGERPRINT

    def test_matches_shipped_checkpoint_shape(self):
        path = REPO_ROOT / ".model_cache"
        shipped = sorted(path.glob("planner-jarvis-*.npz"))
        assert shipped, "the jarvis planner checkpoint must be shipped"
        with np.load(shipped[0]) as data:
            assert data["embed__weight"].shape[0] == build_vocabulary().size


# ----------------------------------------------------------------------
# encode_prompt range (regression: silent clamp corrupted long prompts)
# ----------------------------------------------------------------------
class TestProgressRange:
    def test_out_of_range_progress_raises(self):
        vocab = build_vocabulary()
        with pytest.raises(ValueError, match="outside this vocabulary's range"):
            vocab.encode_prompt("wooden", vocab.max_progress)
        with pytest.raises(ValueError, match="outside this vocabulary's range"):
            vocab.encode_prompt("wooden", -1)

    def test_full_valid_range_encodes_distinct_prompts(self):
        vocab = build_vocabulary()
        prompts = {tuple(vocab.encode_prompt("wooden", p))
                   for p in range(vocab.max_progress)}
        assert len(prompts) == vocab.max_progress  # no aliasing

    def test_scenario_vocabulary_extends_progress(self):
        suite = CATALOG.build("assembly")
        vocab = scenario_vocabulary(suite)
        longest = max(len(task.plan) for task in suite.tasks())
        assert longest > DEFAULT_MAX_PROGRESS  # the scenario needs the range
        assert vocab.max_progress == longest
        task = suite.task_names[0]
        assert vocab.encode_prompt(task, longest - 1)[2] == \
            vocab.progress_tokens[longest - 1]

    def test_insufficient_max_progress_rejected(self):
        with pytest.raises(ValueError, match="cannot express the longest plan"):
            build_vocabulary(suites=(CATALOG.build("assembly"),), max_progress=12)

    def test_registry_missing_subtasks_rejected(self):
        with pytest.raises(ValueError, match="registry lacks subtasks"):
            build_vocabulary(suites=(CATALOG.build("navigation"),),
                             registry=ALL_SUBTASKS)

    def test_registry_union_deduplicates_shared_registries(self):
        # libero and calvin share one registry object, and minecraft's is
        # disjoint: the default union must not trip over either case.
        vocab = build_vocabulary(suites=("minecraft", "libero", "calvin"))
        assert set(vocab.subtask_tokens) == \
            set(SUITES["minecraft"].registry.names) | \
            set(SUITES["libero"].registry.names)


# ----------------------------------------------------------------------
# Hot-path caches (decode_plan / is_subtask_token)
# ----------------------------------------------------------------------
class TestDecodeCaches:
    def test_decode_plan_roundtrip_and_invalid_tokens(self):
        vocab = build_vocabulary()
        plan = ["mine_logs", "craft_planks"]
        tokens = vocab.encode_plan(plan)
        assert vocab.decode_plan(tokens) == plan
        assert vocab.decode_plan([999, vocab.eos]) == ["<invalid:999>"]

    def test_inverse_map_is_cached(self):
        vocab = build_vocabulary()
        assert vocab._subtask_names_by_token is vocab._subtask_names_by_token
        assert vocab._subtask_token_set is vocab._subtask_token_set

    def test_is_subtask_token(self):
        vocab = build_vocabulary()
        for name, token in vocab.subtask_tokens.items():
            assert vocab.is_subtask_token(token)
        assert not vocab.is_subtask_token(vocab.eos)
        assert not vocab.is_subtask_token(vocab.task_tokens["wooden"])


# ----------------------------------------------------------------------
# Procedural generators
# ----------------------------------------------------------------------
class TestGenerators:
    def test_navigation_plan_bounds_and_registry(self):
        suite = build_navigation_suite()
        assert len(suite) == 6
        for task in suite.tasks():
            assert 6 <= len(task.plan) <= 14
            assert len(set(task.plan)) == len(task.plan)  # duplicate-free
            for subtask in task.plan:
                assert subtask in suite.registry
            assert task.plan[-1] == "activate_beacon"

    def test_assembly_plan_bounds_and_shared_subrecipes(self):
        suite = build_assembly_suite()
        assert len(suite) == 5
        longest = 0
        for task in suite.tasks():
            assert 10 <= len(task.plan) <= 20
            assert len(set(task.plan)) == len(task.plan)
            longest = max(longest, len(task.plan))
            # Shared mount sub-recipe: every fetch is followed by its align
            # and fasten steps.
            for index, subtask in enumerate(task.plan):
                if subtask.startswith("fetch_"):
                    part = subtask.removeprefix("fetch_")
                    assert task.plan[index + 1] == f"align_{part}"
                    assert task.plan[index + 2] == f"fasten_{part}"
        assert longest > DEFAULT_MAX_PROGRESS  # stresses the progress range

    def test_same_seed_is_deterministic(self):
        assert suite_fingerprint(build_navigation_suite()) == \
            suite_fingerprint(build_navigation_suite())
        assert suite_fingerprint(build_assembly_suite(seed=5)) == \
            suite_fingerprint(build_assembly_suite(seed=5))

    def test_different_seed_changes_suite(self):
        assert suite_fingerprint(build_navigation_suite(seed=1)) != \
            suite_fingerprint(build_navigation_suite(seed=2))
        assert suite_fingerprint(build_assembly_suite(seed=1)) != \
            suite_fingerprint(build_assembly_suite(seed=2))

    def test_deterministic_across_processes(self):
        """A fresh interpreter rebuilds the identical suites and vocabularies."""
        script = (
            "from repro.env.scenarios import CATALOG, suite_fingerprint\n"
            "from repro.agents.vocabulary import scenario_vocabulary\n"
            "for name in ('navigation', 'assembly'):\n"
            "    suite = CATALOG.build(name)\n"
            "    print(name, suite_fingerprint(suite),"
            " scenario_vocabulary(suite).fingerprint)\n")
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True, cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
        lines = dict()
        for line in result.stdout.splitlines():
            name, suite_fp, vocab_fp = line.split()
            lines[name] = (suite_fp, vocab_fp)
        for name in ("navigation", "assembly"):
            suite = CATALOG.build(name)
            assert lines[name] == (suite_fingerprint(suite),
                                   scenario_vocabulary(suite).fingerprint)

    def test_invalid_num_tasks_rejected(self):
        with pytest.raises(ValueError):
            build_navigation_suite(num_tasks=0)
        with pytest.raises(ValueError):
            build_assembly_suite(num_tasks=0)
        with pytest.raises(ValueError):
            build_navigation_suite(num_tasks=1000)


# ----------------------------------------------------------------------
# The catalog registry
# ----------------------------------------------------------------------
class TestCatalog:
    def test_registered_names(self):
        assert CATALOG.names() == ["assembly", "calvin", "kitchen", "libero",
                                   "manipulation", "minecraft", "navigation",
                                   "oxe"]

    def test_static_entries_alias_module_suites(self):
        for name in ("minecraft", "libero", "calvin", "oxe", "manipulation"):
            assert CATALOG.build(name) is SUITES[name]

    def test_default_build_is_memoized(self):
        assert CATALOG.build("navigation") is CATALOG.build("navigation")

    def test_parameterized_build_is_fresh(self):
        small = CATALOG.build("navigation", num_tasks=3)
        assert len(small) == 3
        assert small is not CATALOG.build("navigation")

    def test_duplicate_registration_rejected(self):
        catalog = ScenarioCatalog()
        entry = ScenarioEntry(name="x", kind="generated", vocabulary="none",
                              description="", factory=build_navigation_suite,
                              registry=CATALOG.get("navigation").registry)
        catalog.register(entry)
        with pytest.raises(KeyError):
            catalog.register(entry)
        catalog.register(entry, overwrite=True)

    def test_invalid_entry_modes_rejected(self):
        with pytest.raises(ValueError):
            ScenarioEntry(name="x", kind="nope", vocabulary="none",
                          description="", factory=build_navigation_suite,
                          registry=CATALOG.get("navigation").registry)
        with pytest.raises(ValueError):
            ScenarioEntry(name="x", kind="generated", vocabulary="nope",
                          description="", factory=build_navigation_suite,
                          registry=CATALOG.get("navigation").registry)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            CATALOG.get("warehouse")

    def test_private_catalog_does_not_poison_global_builds(self):
        # The default-build memo is per entry, so a same-named entry in a
        # different catalog never redirects the global CATALOG's builds.
        private = ScenarioCatalog()
        private.register(ScenarioEntry(
            name="navigation", kind="generated", vocabulary="none",
            description="", factory=build_assembly_suite,
            registry=CATALOG.get("assembly").registry))
        assert private.build("navigation").name == "assembly"
        assert CATALOG.build("navigation").name == "navigation"


# ----------------------------------------------------------------------
# Checkpoint-vocabulary mismatch rejection
# ----------------------------------------------------------------------
class TestVocabularyMismatch:
    def test_wrong_fingerprint_rejected(self, tmp_path):
        from repro.agents.zoo import (VocabularyMismatchError, _save_state,
                                      _verify_planner_checkpoint)

        vocab = build_vocabulary()
        path = tmp_path / "planner.npz"
        _save_state(path, {"embed.weight": np.zeros((vocab.size, 8))},
                    meta={"vocab_fingerprint": "deadbeef0000",
                          "vocab_size": vocab.size})
        with pytest.raises(VocabularyMismatchError, match="deadbeef0000"):
            _verify_planner_checkpoint(path, vocab)

    def test_wrong_size_rejected(self, tmp_path):
        from repro.agents.zoo import (VocabularyMismatchError, _save_state,
                                      _verify_planner_checkpoint)

        vocab = build_vocabulary()
        path = tmp_path / "planner.npz"
        _save_state(path, {"embed.weight": np.zeros((10, 8))},
                    meta={"vocab_fingerprint": vocab.fingerprint,
                          "vocab_size": 10})
        with pytest.raises(VocabularyMismatchError, match="vocab size"):
            _verify_planner_checkpoint(path, vocab)

    def test_legacy_checkpoint_shape_mismatch_rejected(self, tmp_path):
        """Pre-versioning checkpoints (no metadata) fall back to shape checks."""
        from repro.agents.zoo import (VocabularyMismatchError, _save_state,
                                      _verify_planner_checkpoint)

        path = tmp_path / "planner.npz"
        _save_state(path, {"embed.weight": np.zeros((63, 8))})
        scenario = scenario_vocabulary(CATALOG.build("navigation"))
        assert scenario.size != 63
        with pytest.raises(VocabularyMismatchError, match="embeds"):
            _verify_planner_checkpoint(path, scenario)

    def test_shipped_jarvis_checkpoint_rejected_under_scenario_vocab(self):
        from repro.agents.configs import PLANNER_CONFIGS
        from repro.agents.zoo import (VocabularyMismatchError,
                                      _planner_cache_path,
                                      _verify_planner_checkpoint)

        path = _planner_cache_path(PLANNER_CONFIGS["jarvis"], build_vocabulary())
        if not path.exists():
            pytest.skip("jarvis checkpoint not cached")
        with pytest.raises(VocabularyMismatchError):
            _verify_planner_checkpoint(
                path, scenario_vocabulary(CATALOG.build("navigation")))

    def test_matching_checkpoint_accepted(self, tmp_path):
        from repro.agents.zoo import _save_state, _verify_planner_checkpoint

        vocab = build_vocabulary()
        path = tmp_path / "planner.npz"
        _save_state(path, {"embed.weight": np.zeros((vocab.size, 8))},
                    meta={"vocab_fingerprint": vocab.fingerprint,
                          "vocab_size": vocab.size})
        _verify_planner_checkpoint(path, vocab)  # must not raise

    def test_controller_checkpoint_wrong_registry_rejected(self, tmp_path):
        from repro.agents.zoo import (VocabularyMismatchError,
                                      _registry_fingerprint, _save_state,
                                      _verify_controller_checkpoint)

        nav = CATALOG.get("navigation").registry
        path = tmp_path / "controller.npz"
        _save_state(path, {"subtask_embed.weight": np.zeros((len(nav), 8))},
                    meta={"id_registry_fingerprint": "deadbeef0000"})
        with pytest.raises(VocabularyMismatchError, match="deadbeef0000"):
            _verify_controller_checkpoint(path, nav)
        # Matching fingerprint is accepted.
        _save_state(path, {"subtask_embed.weight": np.zeros((len(nav), 8))},
                    meta={"id_registry_fingerprint": _registry_fingerprint(nav)})
        _verify_controller_checkpoint(path, nav)

    def test_legacy_controller_checkpoint_shape_mismatch_rejected(self, tmp_path):
        from repro.agents.zoo import (VocabularyMismatchError, _save_state,
                                      _verify_controller_checkpoint)

        path = tmp_path / "controller.npz"
        _save_state(path, {"subtask_embed.weight": np.zeros((26, 8))})
        nav = CATALOG.get("navigation").registry
        assert len(nav) != 26
        with pytest.raises(VocabularyMismatchError, match="embeds"):
            _verify_controller_checkpoint(path, nav)
        _verify_controller_checkpoint(path, None)  # ALL_SUBTASKS: accepted

    def test_metadata_roundtrip_excluded_from_state(self, tmp_path):
        from repro.agents.zoo import _load_meta, _load_state, _save_state

        path = tmp_path / "model.npz"
        _save_state(path, {"layer.weight": np.ones((2, 2))},
                    meta={"vocab_fingerprint": "abc"})
        assert set(_load_state(path)) == {"layer.weight"}
        assert _load_meta(path) == {"vocab_fingerprint": "abc"}


# ----------------------------------------------------------------------
# Scenario systems (cached surrogates; trains on first-ever run)
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def navigation_system():
    from repro.agents import get_system

    return get_system("jarvis-navigation")


class TestScenarioSystems:
    def test_planner_reproduces_generated_plans(self, navigation_system):
        suite = navigation_system.suite
        planner = navigation_system.planner
        assert planner.vocab.fingerprint == \
            scenario_vocabulary(suite).fingerprint
        for task in suite.tasks()[:3]:
            assert planner.plan(task.name, 0) == list(task.plan)

    def test_clean_trial_succeeds(self, navigation_system):
        executor = navigation_system.executor()
        result = executor.run_trial(navigation_system.task_names[0], seed=0)
        assert result.success
        assert result.planner_invocations >= 1

    def test_id_registry_threaded_through_executor(self, navigation_system):
        executor = navigation_system.executor()
        assert executor.id_registry is navigation_system.registry
        assert executor.id_registry is not ALL_SUBTASKS

    def test_no_predictor_and_trait_declared(self, navigation_system):
        from repro.agents.registry import system_has_predictor

        assert navigation_system.predictor is None
        assert not system_has_predictor("jarvis-navigation")
        assert not system_has_predictor("jarvis-assembly-rotated")

    def test_scenario_resilience_structure(self, navigation_system):
        from repro.eval.experiments import scenario_resilience

        task = navigation_system.task_names[0]
        results = scenario_resilience("navigation", bers=[1e-3],
                                      tasks=[task], num_trials=2, seed=0)
        assert set(results) == {"unprotected", "AD", "WR", "AD+WR"}
        for arm in results.values():
            assert list(arm) == [task]
            assert len(arm[task].points) == 1

    def test_scenario_resilience_unknown_task_rejected(self):
        from repro.eval.experiments import scenario_resilience

        with pytest.raises(KeyError, match="unknown task"):
            scenario_resilience("navigation", bers=[1e-3], tasks=["wooden"])


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestScenarioCli:
    def test_presets_registered(self):
        assert "navigation" in CAMPAIGN_PRESETS
        assert "assembly" in CAMPAIGN_PRESETS

    def test_suites_lists_catalog_with_fingerprints(self, capsys):
        assert main(["suites"]) == 0
        out = capsys.readouterr().out
        for entry in CATALOG.entries():
            assert entry.name in out
            assert entry.fingerprint in out
        assert TABLE10_FINGERPRINT in out

    def test_navigation_dry_run_enumerates_battery(self, capsys, tmp_path):
        code = main(["campaign", "navigation", "--trials", "2", "--dry-run",
                     "--bers", "1e-3", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        for arm in ("unprotected", "AD/", "WR/", "AD+WR/"):
            assert arm in out
        assert "nothing was trained or executed" in out
        assert not list(tmp_path.glob("*.csv"))

    def test_assembly_dry_run_enumerates_battery(self, capsys):
        code = main(["campaign", "assembly", "--trials", "2", "--dry-run",
                     "--bers", "1e-3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario-assembly" in out and "AD+WR/" in out

    def test_merge_watch_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["merge", "out", "q", "--watch", "--interval", "0.5",
             "--max-polls", "3"])
        assert args.watch and args.interval == 0.5 and args.max_polls == 3


class TestMergeWatch:
    def test_shard_out_dirs_are_not_treated_as_queues(self, tmp_path):
        """Shard --out dirs carry plans/ too; --watch must not mutate them."""
        from repro.cli import _queue_roots

        shard = tmp_path / "shard1"
        (shard / "plans").mkdir(parents=True)
        queue = tmp_path / "q"
        (queue / "plans").mkdir(parents=True)
        (queue / "tasks").mkdir()
        assert _queue_roots([str(shard), str(queue)]) == [queue]
        assert not (shard / "tasks").exists()  # untouched
    def test_watch_reports_pending_queue(self, capsys, tmp_path, jarvis_system):
        queue = tmp_path / "q"
        assert main(["campaign", "repetitions", "--trials", "2",
                     "--queue", str(queue)]) == 0
        capsys.readouterr()
        code = main(["merge", str(tmp_path / "merged"), str(queue),
                     "--watch", "--interval", "0.01", "--max-polls", "2"])
        out = capsys.readouterr().out
        assert code == 1  # still pending, gave up after max polls
        assert "[watch 1]" in out and "[watch 2]" in out
        assert "pending" in out and "stopped after 2 poll(s)" in out

    def test_watch_completes_on_drained_queue(self, capsys, tmp_path,
                                              jarvis_system):
        queue = tmp_path / "q"
        assert main(["campaign", "repetitions", "--trials", "2",
                     "--queue", str(queue)]) == 0
        assert main(["worker", "--queue", str(queue), "--wait"]) == 0
        capsys.readouterr()
        code = main(["merge", str(tmp_path / "merged"), str(queue),
                     "--watch", "--interval", "0.01"])
        out = capsys.readouterr().out
        assert code == 0
        assert "complete: all cells merged" in out
        assert list((tmp_path / "merged").glob("*.csv"))


# ----------------------------------------------------------------------
# Catalog/docs consistency (same checks as the CI docs job)
# ----------------------------------------------------------------------
def test_catalog_consistency_checks_pass():
    spec = importlib.util.spec_from_file_location(
        "check_catalog", REPO_ROOT / "tools" / "check_catalog.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.collect_errors() == []
