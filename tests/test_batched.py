"""Batched-runtime equivalence tests.

The batched runtime (see ``docs/architecture.md``, "The batched runtime")
is a pure performance feature at three levels — fused Q/K/V projections,
cross-prompt batched decode, and vectorized campaign trial batches.  Every
test here asserts the contract that makes that true: batched execution is
**bit-identical** to its unbatched counterpart — outputs, counters, and
fault-injection RNG streams.
"""

from __future__ import annotations

import csv

import numpy as np
import pytest

from repro.core import ProtectionConfig
from repro.eval import RunTable, TrialSpec, run_campaign
from repro.eval.runtable import record_from_trial
from repro.faults import ErrorInjector, UniformErrorModel
from repro.quant import GemmHooks, KernelContext


QKV = ("layer0.q", "layer0.k", "layer0.v")


def _injector(seed: int, ber: float = 1e-3, targets=None) -> ErrorInjector:
    return ErrorInjector(UniformErrorModel(ber), rng=np.random.default_rng(seed),
                         target_components=targets)


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
        split = KernelContext(layers, spec=deployed_planner.spec)
        fused = KernelContext(layers, spec=deployed_planner.spec)
        x = rng.normal(size=(3, layers[QKV[0]].in_features))
        for name in QKV:
            split.qgemm(name, x)
        fused.qgemm_multi(QKV, x)
        assert split.counters.macs_per_component == \
            fused.counters.macs_per_component
        assert split.counters.macs == fused.counters.macs
        assert split.counters.output_elements == fused.counters.output_elements


class TestBatchedDecode:
    """Level 2: N prompts through one batched GEMM == N serial decodes."""

    REQUESTS = [("wooden", 0), ("stone", 0), ("iron", 0), ("seed", 0)]

    def test_matches_serial_tokens_and_logits(self, deployed_planner):
        serial = [deployed_planner.decode_tokens(t, p, collect_logits=True)
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
        serial = [deployed_planner.decode_tokens(t, p, use_cache=False)
                  for t, p in self.REQUESTS]
        batched = deployed_planner.decode_tokens_batch(self.REQUESTS,
                                                       use_cache=False)
        assert [tokens for tokens, _ in batched] == \
            [tokens for tokens, _ in serial]

    def test_counters_match_serial(self, deployed_planner):
        serial_ctx = [deployed_planner.kernel_context() for _ in self.REQUESTS]
        for (t, p), ctx in zip(self.REQUESTS, serial_ctx):
            deployed_planner.plan(t, p, context=ctx)
        batch_ctx = [deployed_planner.kernel_context() for _ in self.REQUESTS]
        deployed_planner.plan_batch(self.REQUESTS, contexts=batch_ctx)
        for sc, bc in zip(serial_ctx, batch_ctx):
            assert sc.counters.as_dict() == bc.counters.as_dict()

    def test_per_prompt_rng_independence(self, deployed_planner):
        """Each lane's injection stream is untouched by its siblings: the
        flips a prompt sees in a batch equal the flips it sees alone."""
        alone_flips = []
        for i, (t, p) in enumerate(self.REQUESTS):
            hooks = GemmHooks(injector=_injector(1000 + i, ber=1e-4))
            deployed_planner.decode_tokens(t, p, hooks=hooks)
            alone_flips.append(hooks.injector.stats.bits_flipped)

        batch_hooks = [GemmHooks(injector=_injector(1000 + i, ber=1e-4))
                       for i in range(len(self.REQUESTS))]
        deployed_planner.decode_tokens_batch(self.REQUESTS, hooks=batch_hooks)
        batch_flips = [h.injector.stats.bits_flipped for h in batch_hooks]
        assert batch_flips == alone_flips
        assert sum(batch_flips) > 0

    def test_injected_tokens_match_serial(self, deployed_planner):
        serial = [deployed_planner.decode_tokens(
                      t, p, hooks=GemmHooks(injector=_injector(50 + i)))[0]
                  for i, (t, p) in enumerate(self.REQUESTS)]
        batched = deployed_planner.decode_tokens_batch(
            self.REQUESTS,
            hooks=[GemmHooks(injector=_injector(50 + i))
                   for i in range(len(self.REQUESTS))])
        assert [tokens for tokens, _ in batched] == serial

    def test_single_prompt_fault_never_perturbs_siblings(self, deployed_planner):
        """A fault targeted at one lane leaves every other lane's output
        bit-identical to its clean decode."""
        clean = [deployed_planner.decode_tokens(t, p, collect_logits=True)
                 for t, p in self.REQUESTS]
        hooks = [None, GemmHooks(injector=_injector(7, ber=1e-2)), None, None]
        batched = deployed_planner.decode_tokens_batch(self.REQUESTS,
                                                       hooks=hooks,
                                                       collect_logits=True)
        assert hooks[1].injector.stats.bits_flipped > 0
        for i in (0, 2, 3):
            assert batched[i][0] == clean[i][0], f"lane {i} tokens perturbed"
            for a, b in zip(clean[i][1], batched[i][1]):
                assert np.array_equal(a, b), f"lane {i} logits perturbed"

    def test_batch_of_one_matches_serial(self, deployed_planner):
        tokens, _ = deployed_planner.decode_tokens("wooden", 0)
        [(batched, _)] = deployed_planner.decode_tokens_batch([("wooden", 0)])
        assert batched == tokens

    def test_shared_hooks_object_rejected(self, deployed_planner):
        with pytest.raises(TypeError, match="per prompt"):
            deployed_planner.decode_tokens_batch(
                self.REQUESTS, hooks=GemmHooks(injector=_injector(0)))


class TestExecutorTrialBatch:
    """Level 3 (executor): ``run_trial_batch`` == seed-for-seed ``run_trial``."""

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
        batched = jarvis_executor.run_trial_batch(
            "wooden", seeds, planner_protection=protection,
            controller_protection=protection)
        assert self._payloads(batched) == self._payloads(serial)

    def test_single_seed_falls_back_to_run_trial(self, jarvis_executor):
        serial = jarvis_executor.run_trial("wooden", seed=5)
        [batched] = jarvis_executor.run_trial_batch("wooden", [5])
        assert self._payloads([batched]) == self._payloads([serial])

    def test_empty_seed_list_returns_empty(self, jarvis_executor):
        assert jarvis_executor.run_trial_batch("wooden", []) == []

    def test_duplicate_seeds_get_identical_lanes(self, jarvis_executor):
        """Each lane owns its RNG streams, so a repeated seed repeats its
        trial exactly — no cross-lane stream sharing."""
        protection = ProtectionConfig(error_model=UniformErrorModel(1e-3))
        first, second, other = jarvis_executor.run_trial_batch(
            "wooden", [4, 4, 9], planner_protection=protection,
            controller_protection=protection)
        assert self._payloads([first]) == self._payloads([second])
        assert self._payloads([first]) != self._payloads([other])

    def test_differing_protections_stay_batch_local(self, jarvis_executor):
        """A protection applies to every seed of its batch and leaks into no
        other batch: a clean batch after a protected one still matches the
        fault-free serial trials seed for seed."""
        protection = ProtectionConfig(error_model=UniformErrorModel(1e-2))
        seeds = [0, 1]
        protected = jarvis_executor.run_trial_batch(
            "wooden", seeds, planner_protection=protection,
            controller_protection=protection)
        assert all(t.planner_bits_flipped + t.controller_bits_flipped > 0
                   for t in protected)
        clean = jarvis_executor.run_trial_batch("wooden", seeds)
        serial = [jarvis_executor.run_trial("wooden", seed=s) for s in seeds]
        assert all(t.planner_bits_flipped + t.controller_bits_flipped == 0
                   for t in clean)
        assert self._payloads(clean) == self._payloads(serial)
        assert self._payloads(clean) != self._payloads(protected)


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

        vec_rows = self._profile_rows(tmp_path / "vec", "v")
        assert {(r["vector_path"], r["batch_size"]) for r in vec_rows} == \
            {("batched", "3")}
        assert {(r.vector_path, r.batch_size) for r in scalar} == \
            {("scalar", 1)}

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
