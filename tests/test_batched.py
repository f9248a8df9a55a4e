"""Batched-runtime equivalence tests.

The batched runtime (see ``docs/architecture.md``, "The batched runtime")
is a pure performance feature at three levels — fused Q/K/V projections,
cross-prompt batched decode, and lane groups of trials
(``MissionExecutor.run_trial_group``, behind campaign batches and fleets).
Every test here asserts the contract that makes that true: batched
execution is **bit-identical** to its unbatched counterpart — outputs,
``GemmStats``, and fault-injection RNG streams.
"""

from __future__ import annotations

import csv
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.agents.planner import DeployedPlanner
from repro.agents.registry import get_system
from repro.core import ProtectionConfig
from repro.core.policies import REFERENCE_POLICIES
from repro.core.voltage_scaling import VoltageScalingConfig
from repro.eval import RunTable, TrialSpec, run_campaign
from repro.eval.runtable import record_from_trial
from repro.faults import ErrorInjector, UniformErrorModel
from repro.quant import GemmHooks, GemmStats, KernelContext


QKV = ("layer0.q", "layer0.k", "layer0.v")


def _injector(seed: int, ber: float = 1e-3, targets=None) -> ErrorInjector:
    return ErrorInjector(UniformErrorModel(ber), rng=np.random.default_rng(seed),
                         target_components=targets)


def _decode(planner, task, progress, hooks=None, **kwargs):
    """One prompt decoded alone, a stack of one: ``(tokens, logits)``."""
    [decoded] = planner.decode_tokens_batch(
        [(task, progress)], contexts=[planner.kernel_context(hooks)], **kwargs)
    return decoded


class TestFusedQKV:
    """Level 1: Q/K/V as one stacked GEMM == three split projections."""

    def test_fused_bit_identical_to_split(self, deployed_planner, rng):
        layers = {name: deployed_planner._quantized[name] for name in QKV}
        split = KernelContext(layers, spec=deployed_planner.spec)
        fused = KernelContext(layers, spec=deployed_planner.spec)
        x = rng.normal(size=(5, layers[QKV[0]].in_features))
        expected = tuple(split.qgemm(name, x) for name in QKV)
        for a, b in zip(expected, fused.qgemm_multi(QKV, x)):
            assert np.array_equal(a, b)

    def test_targeted_injection_lands_only_in_its_slice(self, deployed_planner,
                                                        rng):
        """A fault aimed at ``*.k`` flips the same bits fused as split, and
        the q/v outputs stay bit-identical to the clean reference."""
        layers = {name: deployed_planner._quantized[name] for name in QKV}
        spec = deployed_planner.spec
        x = rng.normal(size=(4, layers[QKV[0]].in_features))

        clean = KernelContext(layers, spec=spec)
        clean_out = tuple(clean.qgemm(name, x) for name in QKV)

        split_inj = _injector(99, ber=1e-2, targets=["*.k"])
        split = KernelContext(layers, hooks=GemmHooks(injector=split_inj),
                              spec=spec)
        split_out = tuple(split.qgemm(name, x) for name in QKV)

        fused_inj = _injector(99, ber=1e-2, targets=["*.k"])
        fused = KernelContext(layers, hooks=GemmHooks(injector=fused_inj),
                              spec=spec)
        fused_out = fused.qgemm_multi(QKV, x)

        assert split_inj.stats.bits_flipped > 0
        assert split_inj.stats.bits_flipped == fused_inj.stats.bits_flipped
        for i, name in enumerate(QKV):
            assert np.array_equal(split_out[i], fused_out[i]), name
        # q and v never saw the fault; k did.
        assert np.array_equal(fused_out[0], clean_out[0])
        assert np.array_equal(fused_out[2], clean_out[2])
        assert not np.array_equal(fused_out[1], clean_out[1])

    def test_mac_attribution_per_component(self, deployed_planner, rng):
        layers = {name: deployed_planner._quantized[name] for name in QKV}
        split = KernelContext(layers, hooks=GemmHooks(stats=GemmStats()),
                              spec=deployed_planner.spec)
        fused = KernelContext(layers, hooks=GemmHooks(stats=GemmStats()),
                              spec=deployed_planner.spec)
        x = rng.normal(size=(3, layers[QKV[0]].in_features))
        for name in QKV:
            split.qgemm(name, x)
        fused.qgemm_multi(QKV, x)
        assert set(fused.stats.macs_per_component) == set(QKV)
        assert split.stats == fused.stats


class TestBatchedDecode:
    """Level 2: N prompts through one batched GEMM == N serial decodes."""

    REQUESTS = [("wooden", 0), ("stone", 0), ("iron", 0), ("seed", 0)]

    def test_matches_serial_tokens_and_logits(self, deployed_planner):
        serial = [_decode(deployed_planner, t, p, collect_logits=True)
                  for t, p in self.REQUESTS]
        batched = deployed_planner.decode_tokens_batch(self.REQUESTS,
                                                       collect_logits=True)
        for (st, sl), (bt, bl) in zip(serial, batched):
            assert st == bt
            assert len(sl) == len(bl)
            for a, b in zip(sl, bl):
                assert np.array_equal(a, b)

    def test_uncached_batch_matches_serial(self, deployed_planner):
        """``use_cache=False`` equivalence holds at batch > 1 too."""
        serial = [_decode(deployed_planner, t, p, use_cache=False)
                  for t, p in self.REQUESTS]
        batched = deployed_planner.decode_tokens_batch(self.REQUESTS,
                                                       use_cache=False)
        assert [tokens for tokens, _ in batched] == \
            [tokens for tokens, _ in serial]

    def test_counters_match_serial(self, deployed_planner):
        """Each lane's ``GemmStats`` in a stack equals its decode alone."""
        def contexts():
            return [deployed_planner.kernel_context(GemmHooks(stats=GemmStats()))
                    for _ in self.REQUESTS]

        serial_ctx = contexts()
        for (t, p), ctx in zip(self.REQUESTS, serial_ctx):
            deployed_planner.plan(t, p, context=ctx)
        batch_ctx = contexts()
        deployed_planner.plan_batch(self.REQUESTS, contexts=batch_ctx)
        for sc, bc in zip(serial_ctx, batch_ctx):
            assert sc.stats.macs > 0
            assert sc.stats == bc.stats

    def test_per_prompt_rng_independence(self, deployed_planner):
        """Each lane's injection stream is untouched by its siblings: the
        flips a prompt sees in a batch equal the flips it sees alone."""
        alone_flips = []
        for i, (t, p) in enumerate(self.REQUESTS):
            hooks = GemmHooks(injector=_injector(1000 + i, ber=1e-4))
            _decode(deployed_planner, t, p, hooks=hooks)
            alone_flips.append(hooks.injector.stats.bits_flipped)

        batch_contexts = [deployed_planner.kernel_context(
                              GemmHooks(injector=_injector(1000 + i, ber=1e-4)))
                          for i in range(len(self.REQUESTS))]
        deployed_planner.decode_tokens_batch(self.REQUESTS,
                                             contexts=batch_contexts)
        batch_flips = [c.injector.stats.bits_flipped for c in batch_contexts]
        assert batch_flips == alone_flips
        assert sum(batch_flips) > 0

    def test_injected_tokens_match_serial(self, deployed_planner):
        serial = [_decode(deployed_planner, t, p,
                          hooks=GemmHooks(injector=_injector(50 + i)))[0]
                  for i, (t, p) in enumerate(self.REQUESTS)]
        batched = deployed_planner.decode_tokens_batch(
            self.REQUESTS,
            contexts=[deployed_planner.kernel_context(
                          GemmHooks(injector=_injector(50 + i)))
                      for i in range(len(self.REQUESTS))])
        assert [tokens for tokens, _ in batched] == serial

    def test_single_prompt_fault_never_perturbs_siblings(self, deployed_planner):
        """A fault targeted at one lane leaves every other lane's output
        bit-identical to its clean decode."""
        clean = [_decode(deployed_planner, t, p, collect_logits=True)
                 for t, p in self.REQUESTS]
        hooks = [None, GemmHooks(injector=_injector(7, ber=1e-2)), None, None]
        batched = deployed_planner.decode_tokens_batch(
            self.REQUESTS, collect_logits=True,
            contexts=[deployed_planner.kernel_context(h) for h in hooks])
        assert hooks[1].injector.stats.bits_flipped > 0
        for i in (0, 2, 3):
            assert batched[i][0] == clean[i][0], f"lane {i} tokens perturbed"
            for a, b in zip(clean[i][1], batched[i][1]):
                assert np.array_equal(a, b), f"lane {i} logits perturbed"

    def test_batch_of_one_matches_serial(self, deployed_planner):
        """``plan``, the one-prompt entry, decodes what a batch of one does."""
        [(tokens, _)] = deployed_planner.decode_tokens_batch([("wooden", 0)])
        assert deployed_planner.plan("wooden", 0) == \
            deployed_planner.vocab.decode_plan(tokens)

    def test_one_context_per_prompt(self, deployed_planner):
        with pytest.raises(ValueError, match="3 contexts for 4 prompts"):
            deployed_planner.decode_tokens_batch(
                self.REQUESTS,
                contexts=[deployed_planner.kernel_context() for _ in range(3)])


def _wooden(seeds, protection=None):
    """``wooden`` lanes, one per seed, planner and controller under
    ``protection``."""
    return [("wooden", seed, protection, protection) for seed in seeds]


class TestExecutorTrialBatch:
    """Level 3 (executor): a ``run_trial_group`` of one task's seeds ==
    seed-for-seed ``run_trial``."""

    def _payloads(self, trials, spec_key="k", condition="c"):
        return [record_from_trial(trial, spec_key=spec_key, condition=condition,
                                  system="jarvis", task="wooden", seed=seed,
                                  trial_index=seed).result_payload()
                for seed, trial in enumerate(trials)]

    def test_batch_matches_serial_trials(self, jarvis_executor):
        protection = ProtectionConfig(error_model=UniformErrorModel(1e-3),
                                      anomaly_detection=True)
        seeds = [0, 1, 2, 3]
        serial = [jarvis_executor.run_trial("wooden", seed=s,
                                            planner_protection=protection,
                                            controller_protection=protection)
                  for s in seeds]
        batched = jarvis_executor.run_trial_group(_wooden(seeds, protection))
        assert self._payloads(batched) == self._payloads(serial)

    def test_single_seed_falls_back_to_run_trial(self, jarvis_executor):
        serial = jarvis_executor.run_trial("wooden", seed=5)
        [batched] = jarvis_executor.run_trial_group(_wooden([5]))
        assert self._payloads([batched]) == self._payloads([serial])

    def test_empty_seed_list_returns_empty(self, jarvis_executor):
        assert jarvis_executor.run_trial_group([]) == []

    def test_duplicate_seeds_get_identical_lanes(self, jarvis_executor):
        """Each lane owns its RNG streams, so a repeated seed repeats its
        trial exactly — no cross-lane stream sharing."""
        protection = ProtectionConfig(error_model=UniformErrorModel(1e-3))
        first, second, other = jarvis_executor.run_trial_group(
            _wooden([4, 4, 9], protection))
        assert self._payloads([first]) == self._payloads([second])
        assert self._payloads([first]) != self._payloads([other])

    def test_differing_protections_stay_batch_local(self, jarvis_executor):
        """A protection applies to every seed of its batch and leaks into no
        other batch: a clean batch after a protected one still matches the
        fault-free serial trials seed for seed."""
        protection = ProtectionConfig(error_model=UniformErrorModel(1e-2))
        seeds = [0, 1]
        protected = jarvis_executor.run_trial_group(_wooden(seeds, protection))
        assert all(t.planner_bits_flipped + t.controller_bits_flipped > 0
                   for t in protected)
        clean = jarvis_executor.run_trial_group(_wooden(seeds))
        serial = [jarvis_executor.run_trial("wooden", seed=s) for s in seeds]
        assert all(t.planner_bits_flipped + t.controller_bits_flipped == 0
                   for t in clean)
        assert self._payloads(clean) == self._payloads(serial)
        assert self._payloads(clean) != self._payloads(protected)


def _payloads(trials, tasks, seeds):
    return [record_from_trial(trial, spec_key="k", condition="c",
                              system="jarvis", task=task, seed=seed,
                              trial_index=seed).result_payload()
            for trial, task, seed in zip(trials, tasks, seeds)]


class TestPlanMemo:
    """Hook-free planner lanes decode each prompt once per executor."""

    INJECTED = ProtectionConfig(error_model=UniformErrorModel(1e-2))
    DETECTED = ProtectionConfig(anomaly_detection=True)

    @pytest.fixture()
    def decoded(self, monkeypatch):
        """The prompts of every ``plan_batch`` call, one list per call."""
        calls = []
        original = DeployedPlanner.plan_batch

        def spy(planner, requests, *args, **kwargs):
            calls.append(list(requests))
            return original(planner, requests, *args, **kwargs)

        monkeypatch.setattr(DeployedPlanner, "plan_batch", spy)
        return calls

    def test_identical_prompts_in_a_stack_decode_once(self, jarvis_system,
                                                      decoded):
        executor = jarvis_system.executor()
        seeds = [0, 1, 2, 3]
        first = executor.run_trial_group(_wooden(seeds))
        assert decoded[0] == [("wooden", 0)]
        prompts = [prompt for call in decoded for prompt in call]
        assert len(prompts) == len(set(prompts))
        calls = len(decoded)
        again = executor.run_trial_group(_wooden(seeds))
        assert len(decoded) == calls
        tasks = ["wooden"] * len(seeds)
        assert _payloads(again, tasks, seeds) == _payloads(first, tasks, seeds)
        fresh = jarvis_system.executor()
        serial = [fresh.run_trial("wooden", seed=seed) for seed in seeds]
        assert _payloads(first, tasks, seeds) == _payloads(serial, tasks, seeds)

    @pytest.mark.parametrize("protection", ["injected", "detected"])
    def test_hooked_lanes_never_read_or_fill_the_memo(self, jarvis_system,
                                                      decoded, protection):
        protection = {"injected": self.INJECTED,
                      "detected": self.DETECTED}[protection]
        executor = jarvis_system.executor()
        key = (executor.planner.kernel_plan().content_hash, "wooden", 0)
        executor._plan_memo[key] = ("no-such-subtask",)
        seeds = [5, 6]
        hooked = executor.run_trial_group(
            [("wooden", seed, protection, None) for seed in seeds])
        assert decoded[0] == [("wooden", 0)] * len(seeds)
        assert executor._plan_memo == {key: ("no-such-subtask",)}
        fresh = jarvis_system.executor()
        serial = [fresh.run_trial("wooden", seed=seed,
                                  planner_protection=protection)
                  for seed in seeds]
        tasks = ["wooden"] * len(seeds)
        assert _payloads(hooked, tasks, seeds) == _payloads(serial, tasks, seeds)
        assert fresh._plan_memo == {}

    def test_mixed_stack_equals_per_lane_trials(self, jarvis_system, decoded):
        lanes = [("wooden", 0, None), ("wooden", 1, self.INJECTED),
                 ("wooden", 2, None), ("stone", 3, self.DETECTED),
                 ("stone", 4, None), ("wooden", 5, self.INJECTED)]
        executor = jarvis_system.executor()
        mixed = executor.run_trial_group([(*lane, None) for lane in lanes])
        assert decoded[0] == [("wooden", 0), ("wooden", 0), ("stone", 0),
                              ("stone", 0), ("wooden", 0)]
        assert mixed[1].planner_bits_flipped > 0
        fresh = jarvis_system.executor()
        serial = [fresh.run_trial(task, seed=seed, planner_protection=protection)
                  for task, seed, protection in lanes]
        tasks = [task for task, _, _ in lanes]
        seeds = [seed for _, seed, _ in lanes]
        assert _payloads(mixed, tasks, seeds) == _payloads(serial, tasks, seeds)

    def test_a_planner_with_other_weights_misses(self, jarvis_system,
                                                 jarvis_system_rotated,
                                                 decoded):
        executor = jarvis_system.executor()
        executor.run_trial("wooden", seed=0)
        calls = len(decoded)
        executor.planner = jarvis_system_rotated.planner
        rotated = executor.run_trial("wooden", seed=0)
        assert decoded[calls] == [("wooden", 0)]
        assert {key[0] for key in executor._plan_memo} == {
            jarvis_system.planner.kernel_plan().content_hash,
            jarvis_system_rotated.planner.kernel_plan().content_hash}
        expected = jarvis_system_rotated.executor().run_trial("wooden", seed=0)
        assert _payloads([rotated], ["wooden"], [0]) == \
            _payloads([expected], ["wooden"], [0])

    def test_campaign_twice_in_process_equals_a_fresh_process(self, tmp_path):
        specs = [
            TrialSpec(condition="clean", system="jarvis", task="stone",
                      num_trials=3, seed=40),
            TrialSpec(condition="planner", system="jarvis", task="stone",
                      num_trials=3, seed=40,
                      planner_protection=self.INJECTED,
                      params=(("ber", "1e-2"),)),
        ]
        first = run_campaign(specs, out=tmp_path / "first", name="m")
        second = run_campaign(specs, out=tmp_path / "second", name="m")
        root = Path(__file__).resolve().parent.parent
        script = f"""
from repro.core import ProtectionConfig
from repro.eval import TrialSpec, run_campaign
from repro.faults import UniformErrorModel

injected = ProtectionConfig(error_model=UniformErrorModel(1e-2))
run_campaign([
    TrialSpec(condition="clean", system="jarvis", task="stone",
              num_trials=3, seed=40),
    TrialSpec(condition="planner", system="jarvis", task="stone",
              num_trials=3, seed=40, planner_protection=injected,
              params=(("ber", "1e-2"),)),
], out={str(tmp_path / "fresh")!r}, name="m")
"""
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        child = subprocess.run([sys.executable, "-c", script], cwd=root,
                               env=env, capture_output=True, text=True)
        assert child.returncode == 0, child.stderr[-3000:]
        for suffix in ("csv", "json"):
            fresh = (tmp_path / "fresh" / f"m.{suffix}").read_bytes()
            assert getattr(first, f"{suffix}_path").read_bytes() == fresh
            assert getattr(second, f"{suffix}_path").read_bytes() == fresh


def assert_trials_identical(group, serial):
    """Field-for-field equality, including entropy-trace contents."""
    assert len(group) == len(serial)
    for lane, (g, s) in enumerate(zip(group, serial)):
        for field in dataclasses.fields(g):
            gv, sv = getattr(g, field.name), getattr(s, field.name)
            if field.name == "entropy_trace":
                assert gv.entropies == sv.entropies, f"lane {lane}"
                assert gv.critical_flags == sv.critical_flags, f"lane {lane}"
                assert gv.voltages == sv.voltages, f"lane {lane}"
            else:
                assert gv == sv, f"lane {lane}: {field.name}"


class TestMixedTaskGroup:
    """Level 3 (fleet): a lane group whose lanes run different tasks."""

    def test_injected_group_equals_per_agent_trials(self):
        """A fleet's roster — the suite's tasks round-robin, one seed per
        agent — under per-agent injection equals per-agent ``run_trial``."""
        executor = get_system("jarvis-navigation").executor()
        tasks = executor.suite.task_names
        agents = [(tasks[index % len(tasks)], 3 + index) for index in range(6)]
        protection = ProtectionConfig(error_model=UniformErrorModel(1e-3))
        group = executor.run_trial_group(
            [(task, seed, protection, protection) for task, seed in agents])
        serial = [executor.run_trial(task, seed=seed,
                                     planner_protection=protection,
                                     controller_protection=protection)
                  for task, seed in agents]
        assert sum(trial.planner_bits_flipped + trial.controller_bits_flipped
                   for trial in group) > 0
        assert_trials_identical(group, serial)


class TestCampaignVectorPath:
    """Level 3 (campaign): vectorized and scalar runs are byte-identical."""

    def _specs(self, num_trials=3):
        return [
            TrialSpec(condition="clean", system="jarvis", task="wooden",
                      num_trials=num_trials, seed=0),
            TrialSpec(condition="faulty", system="jarvis", task="wooden",
                      num_trials=num_trials, seed=0,
                      controller_protection=ProtectionConfig(
                          error_model=UniformErrorModel(1e-3)),
                      params=(("ber", "1e-3"),)),
        ]

    @staticmethod
    def _profile_rows(out_dir, name):
        path = out_dir / "profiles" / f"{name}.csv"
        with open(path, newline="") as handle:
            return list(csv.DictReader(handle))

    def test_vector_on_off_byte_identical(self, tmp_path, scalar_reference):
        specs = self._specs()
        vec = run_campaign(specs, out=tmp_path / "vec", name="v")
        scalar = scalar_reference(specs, tmp_path / "scalar", "v")
        assert vec.csv_path.read_bytes() == \
            (tmp_path / "scalar" / "v.csv").read_bytes()
        assert vec.json_path.read_bytes() == \
            (tmp_path / "scalar" / "v.json").read_bytes()

        # Both specs' cells run as one lane group.
        vec_rows = self._profile_rows(tmp_path / "vec", "v")
        assert {(r["vector_path"], r["batch_size"]) for r in vec_rows} == \
            {("batched", "6")}
        assert {(r.vector_path, r.batch_size) for r in scalar} == \
            {("scalar", 1)}

    def test_specs_of_one_system_share_one_lane_group(self, tmp_path,
                                                      scalar_reference):
        """Controller and planner BER specs and a voltage-scaling spec of
        one system run serially as one lane group, each lane under its own
        protections, byte-identical to running each cell alone."""
        specs = self._specs(2) + [
            TrialSpec(condition="planner-faulty", system="jarvis",
                      task="wooden", num_trials=2, seed=0,
                      planner_protection=ProtectionConfig(
                          error_model=UniformErrorModel(1e-3)),
                      params=(("ber", "1e-3"), ("target", "planner"))),
            TrialSpec(condition="vs", system="jarvis", task="wooden",
                      num_trials=2, seed=0,
                      controller_protection=ProtectionConfig(
                          anomaly_detection=True,
                          voltage_scaling=VoltageScalingConfig(
                              policy=REFERENCE_POLICIES["C"])),
                      params=(("policy", "C"),))]
        grouped = run_campaign(specs, out=tmp_path / "group", name="g")
        scalar_reference(specs, tmp_path / "scalar", "g")
        for suffix in (".csv", ".json"):
            assert grouped.csv_path.with_suffix(suffix).read_bytes() == \
                (tmp_path / "scalar" / f"g{suffix}").read_bytes()
        rows = self._profile_rows(tmp_path / "group", "g")
        assert {(r["vector_path"], r["batch_size"]) for r in rows} == \
            {("batched", "8")}

    def test_planner_less_system_runs_lane_groups(self, tmp_path,
                                                  scalar_reference):
        """A system without a planner plans from ground truth per lane, and
        its cells run as lane groups like any other system's."""
        import repro.eval.campaign as campaign_module
        from repro.agents import build_jarvis_system, registry

        registry.register_system(
            "jarvis-no-planner",
            lambda: build_jarvis_system(rotate_planner=False,
                                        with_planner=False))
        try:
            specs = [dataclasses.replace(spec, system="jarvis-no-planner")
                     for spec in self._specs(2)]
            grouped = run_campaign(specs, out=tmp_path / "group", name="n")
            scalar_reference(specs, tmp_path / "scalar", "n")
            for suffix in (".csv", ".json"):
                assert grouped.csv_path.with_suffix(suffix).read_bytes() == \
                    (tmp_path / "scalar" / f"n{suffix}").read_bytes()
            rows = self._profile_rows(tmp_path / "group", "n")
            assert {(r["vector_path"], r["batch_size"]) for r in rows} == \
                {("batched", "4")}
        finally:
            registry.SYSTEM_FACTORIES.pop("jarvis-no-planner", None)
            registry.SYSTEM_HAS_PREDICTOR.pop("jarvis-no-planner", None)
            registry._SYSTEM_CACHE.pop("jarvis-no-planner", None)
            campaign_module._WORKER_EXECUTORS.pop("jarvis-no-planner", None)

    def test_parallel_vectorized_byte_identical(self, tmp_path):
        specs = self._specs(2)
        serial = run_campaign(specs, jobs=1, out=tmp_path / "s", name="p")
        pooled = run_campaign(specs, jobs=2, out=tmp_path / "p", name="p")
        assert serial.csv_path.read_bytes() == pooled.csv_path.read_bytes()

    def test_canonical_table_free_of_profile_columns(self, tmp_path):
        """batch_size / vector_path never leak into the canonical files."""
        result = run_campaign(self._specs(2)[:1], out=tmp_path, name="c")
        header = result.csv_path.read_text().splitlines()[0]
        assert "vector_path" not in header and "batch_size" not in header
        table = RunTable.read_csv(result.csv_path)
        assert all(r.batch_size == 0 and r.vector_path == "" for r in table)
