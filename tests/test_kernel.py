"""Tests for the fused kernel runtime and KV-cached incremental decoding.

Three equivalence contracts are asserted here:

1. ``KernelContext.qgemm`` is bit-identical to the reference
   :func:`repro.quant.quantized_matmul` pipeline — outputs and every stats
   object (``GemmStats``, ``InjectionStats``, ``AnomalyStats``);
2. fault-free KV-cached decode is byte-identical to uncached decode
   (tokens, logits, and logical MAC counts);
3. under injection, caching preserves the expected number of corrupted
   elements *per produced accumulator element*.
"""

import numpy as np
import pytest

from repro.core import AnomalyDetector
from repro.faults import ErrorInjector, SingleBitErrorModel, UniformErrorModel
from repro.hardware import EnergyModel, TimingErrorModel
from repro.nn.functional import rms_norm, silu
from repro.quant import (
    BatchedKernel,
    GemmHooks,
    GemmStats,
    INT4,
    INT8,
    KernelContext,
    KVCache,
    QuantSpec,
    QuantizedLinear,
    compute_scale,
)

SPECS = [INT8, INT4, QuantSpec(bits=8, accumulator_bits=16)]


def _layer(rng, spec=INT8, bound_factor=1.2, name="l"):
    w = rng.normal(size=(12, 6)) * 0.3
    x = rng.normal(size=(5, 12))
    bound = float(np.abs(x @ w).max()) * bound_factor
    layer = QuantizedLinear(name, w, None, compute_scale(x, spec), spec=spec,
                            output_bound=bound)
    return layer, x


class TestKernelContextEquivalence:
    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_fault_free_bit_identical(self, rng, spec):
        layer, x = _layer(rng, spec)
        ref_stats, ctx_stats = GemmStats(), GemmStats()
        ref = layer(x, hooks=GemmHooks(stats=ref_stats))
        ctx = KernelContext({"l": layer}, hooks=GemmHooks(stats=ctx_stats), spec=spec)
        out = ctx.qgemm("l", x)
        np.testing.assert_array_equal(ref, out)
        assert ref_stats.macs > 0
        assert ref_stats == ctx_stats

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_injection_and_clamp_bit_identical(self, rng, spec):
        layer, x = _layer(rng, spec)
        model = UniformErrorModel(0.02)
        ref_inj = ErrorInjector(model, rng=np.random.default_rng(7))
        ctx_inj = ErrorInjector(model, rng=np.random.default_rng(7))
        ref_det, ctx_det = AnomalyDetector(), AnomalyDetector()
        ref = layer(x, hooks=GemmHooks(injector=ref_inj, anomaly_clamp=ref_det))
        ctx = KernelContext({"l": layer}, spec=spec,
                            hooks=GemmHooks(injector=ctx_inj, anomaly_clamp=ctx_det))
        out = ctx.qgemm("l", x)
        np.testing.assert_array_equal(ref, out)
        assert ref_inj.stats.bits_flipped == ctx_inj.stats.bits_flipped
        assert ref_inj.stats.elements_corrupted == ctx_inj.stats.elements_corrupted
        assert ref_det.stats == ctx_det.stats

    def test_bias_applied(self, rng):
        w = rng.normal(size=(4, 3)) * 0.1
        bias = np.array([1.0, -2.0, 3.0])
        x = rng.normal(size=(2, 4))
        layer = QuantizedLinear("l", w, bias, compute_scale(x))
        ctx = KernelContext({"l": layer})
        np.testing.assert_array_equal(layer(x), ctx.qgemm("l", x))

    def test_quantized_input_shared_across_equal_scales(self, rng):
        """Q/K/V-style components with one input scale reuse the quantization."""
        x = rng.normal(size=(5, 12))
        params = compute_scale(x)
        layers = {
            "a": QuantizedLinear("a", rng.normal(size=(12, 6)) * 0.3, None, params),
            "b": QuantizedLinear("b", rng.normal(size=(12, 6)) * 0.3, None, params),
        }
        ctx = KernelContext(layers)
        ref_a = layers["a"](x)
        ref_b = layers["b"](x)
        np.testing.assert_array_equal(ctx.qgemm("a", x), ref_a)
        np.testing.assert_array_equal(ctx.qgemm("b", x), ref_b)

    def test_logical_rows_override_macs_only(self, rng):
        layer, x = _layer(rng)
        ctx = KernelContext({"l": layer}, hooks=GemmHooks(stats=GemmStats()))
        ctx.qgemm("l", x, logical_rows=40)
        assert ctx.stats.macs == 40 * 12 * 6
        assert ctx.stats.output_elements == x.shape[0] * 6

    def test_spec_mismatch_rejected(self, rng):
        layer, _ = _layer(rng, INT4)
        with pytest.raises(ValueError):
            KernelContext({"l": layer}, spec=INT8)

    def test_per_context_rng_stream(self, rng):
        layer, x = _layer(rng)
        injector = ErrorInjector(SingleBitErrorModel(bit=20, rate=0.05),
                                 rng=np.random.default_rng(1))
        first = KernelContext({"l": layer}, hooks=GemmHooks(injector=injector),
                              rng=np.random.default_rng(42)).qgemm("l", x)
        second = KernelContext({"l": layer}, hooks=GemmHooks(injector=injector),
                               rng=np.random.default_rng(42)).qgemm("l", x)
        np.testing.assert_array_equal(first, second)


class TestLaneRows:
    def test_lane_rows_must_cover_the_stack(self, rng):
        layer, x = _layer(rng)
        single = KernelContext({layer.name: layer}).kernel
        stacked = BatchedKernel([KernelContext({layer.name: layer})
                                 for _ in range(2)])
        for kernel, bad in ((single, [4]), (single, [5, 0]), (single, []),
                            (stacked, [2, 2]), (stacked, [5]),
                            (stacked, [2, 2, 1])):
            with pytest.raises(ValueError, match="lane_rows"):
                kernel.qgemm(layer.name, x, bad)
        np.testing.assert_array_equal(single.qgemm(layer.name, x, [5]),
                                      stacked.qgemm(layer.name, x, [2, 3]))


class TestStackReuse:
    """``BatchedKernel.of`` keeps a stack while its lanes stay the same."""

    def _contexts(self, rng, lanes):
        layer, _ = _layer(rng)
        return [KernelContext({layer.name: layer}) for _ in range(lanes)], layer

    def test_same_lanes_reuse_the_stack(self, rng):
        contexts, _ = self._contexts(rng, 3)
        kernel = BatchedKernel.of(contexts)
        assert BatchedKernel.of(list(contexts)) is kernel
        assert BatchedKernel.of(contexts[:1]) is contexts[0].kernel

    def test_a_dropped_or_reordered_lane_rebuilds(self, rng):
        contexts, _ = self._contexts(rng, 3)
        kernel = BatchedKernel.of(contexts)
        survivors = [contexts[0], contexts[2]]
        dropped = BatchedKernel.of(survivors)
        assert dropped is not kernel and dropped.contexts == survivors
        reordered = BatchedKernel.of([contexts[0], contexts[2], contexts[1]])
        assert reordered is not dropped
        assert BatchedKernel.of(contexts) is not kernel

    def test_reuse_drops_the_previous_steps_input_memo(self, rng):
        contexts, layer = self._contexts(rng, 2)
        x = rng.normal(size=(4, layer.in_features))
        kernel = BatchedKernel.of(contexts)
        expected = kernel.qgemm(layer.name, x, [2, 2])
        assert kernel._qx_source is x
        again = BatchedKernel.of(contexts)
        assert again is kernel and again._qx_source is None
        np.testing.assert_array_equal(again.qgemm(layer.name, x.copy(), [2, 2]),
                                      expected)


class TestStatsAccounting:
    def test_gemm_stats_feed_energy_and_timing(self, rng):
        layer, x = _layer(rng)
        ctx = KernelContext({"l": layer}, hooks=GemmHooks(stats=GemmStats()))
        ctx.qgemm("l", x)
        energy_model = EnergyModel()
        energy = energy_model.kernel_energy_j(ctx.stats, voltage=0.8)
        assert energy == pytest.approx(
            energy_model.compute_energy_j({0.8: ctx.stats.macs}))
        timing = TimingErrorModel()
        expected = timing.expected_corrupted_elements(ctx.stats, voltage=0.7)
        assert expected == pytest.approx(
            ctx.stats.output_elements * timing.element_error_rate(0.7))


class TestKVCache:
    def test_append_advance_views(self):
        cache = KVCache(num_layers=2, capacity=4, dim=3)
        k = np.arange(6.0).reshape(2, 3)
        cache.append(0, k, k + 10)
        cache.append(1, k + 1, k + 11)
        cache.advance(2)
        assert cache.length == 2
        np.testing.assert_array_equal(cache.keys(0, 2), k[None])
        np.testing.assert_array_equal(cache.values(1, 2), (k + 11)[None])

    def test_overflow_rejected(self):
        cache = KVCache(num_layers=1, capacity=2, dim=3)
        with pytest.raises(ValueError):
            cache.append(0, np.zeros((3, 3)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            cache.advance(3)

    def test_reset_reuses_buffers(self):
        cache = KVCache(num_layers=1, capacity=2, dim=3)
        cache.append(0, np.ones((2, 3)), np.ones((2, 3)))
        cache.advance(2)
        cache.reset()
        assert cache.length == 0
        cache.append(0, np.zeros((1, 3)), np.zeros((1, 3)))
        cache.advance(1)
        assert cache.length == 1

    def test_lane_axis_holds_each_lanes_rows(self):
        cache = KVCache(num_layers=2, capacity=4, dim=3, lanes=3)
        # Lane-major row stack: lane 0's two rows, then lane 1's, lane 2's.
        k = np.arange(18.0).reshape(6, 3)
        for layer in range(2):
            cache.append(layer, k + layer, -k - layer)
        cache.advance(2)
        assert cache.keys(1, 2).shape == (3, 2, 3)
        np.testing.assert_array_equal(cache.keys(1, 2), (k + 1).reshape(3, 2, 3))
        np.testing.assert_array_equal(cache.values(0, 2), (-k).reshape(3, 2, 3))

    def test_compaction_keeps_surviving_lanes_rows(self):
        """Lanes finishing at different steps leave the others' rows intact."""
        dim = 2
        cache = KVCache(num_layers=2, capacity=5, dim=dim, lanes=4)
        expected = {lane: [] for lane in range(4)}
        live = [0, 1, 2, 3]
        # Prefill two rows per lane, then one row per step; lane 2 finishes
        # after the prefill, lanes 0 and 3 two steps later, lane 1 last.
        for step, (rows, finished) in enumerate(
                [(2, {2}), (1, set()), (1, {0, 3}), (1, set())]):
            block = np.stack([np.full((rows, dim), 10.0 * lane + step)
                              for lane in live]).reshape(-1, dim)
            for layer in range(2):
                cache.append(layer, block + layer, block - layer)
            cache.advance(rows)
            for lane in live:
                expected[lane].extend([10.0 * lane + step] * rows)
            keep = [i for i, lane in enumerate(live) if lane not in finished]
            if len(keep) < len(live):
                cache.compact(keep)
                live = [live[i] for i in keep]
            assert cache.lanes == len(live)
            for layer in range(2):
                keys = cache.keys(layer, cache.length)
                values = cache.values(layer, cache.length)
                assert keys.shape == (len(live), cache.length, dim)
                for index, lane in enumerate(live):
                    column = np.asarray(expected[lane])[:, None]
                    np.testing.assert_array_equal(
                        keys[index], np.broadcast_to(column + layer, (cache.length, dim)))
                    np.testing.assert_array_equal(
                        values[index], np.broadcast_to(column - layer, (cache.length, dim)))
        assert live == [1]

    def test_overflow_and_bad_lanes_rejected_with_lanes(self):
        cache = KVCache(num_layers=1, capacity=2, dim=3, lanes=2)
        cache.append(0, np.zeros((4, 3)), np.zeros((4, 3)))
        cache.advance(2)
        with pytest.raises(ValueError, match="overflow"):
            cache.append(0, np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            cache.advance(1)
        cache.compact([1])
        with pytest.raises(ValueError, match="overflow"):
            cache.append(0, np.zeros((1, 3)), np.zeros((1, 3)))
        cache.reset()
        with pytest.raises(ValueError, match="split"):
            KVCache(num_layers=1, capacity=4, dim=3, lanes=2).append(
                0, np.zeros((3, 3)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            cache.compact([1])
        with pytest.raises(ValueError):
            cache.compact([])
        with pytest.raises(ValueError):
            KVCache(num_layers=1, capacity=2, dim=3, lanes=0)


# ----------------------------------------------------------------------
# Calibration pins
# ----------------------------------------------------------------------
#: ``kernel_plan().content_hash`` (SHA-256 over scales, bounds and weights)
#: of each system's planner and controller.  Calibration drives the float
#: forward passes, so a change that moves any profiled scale or anomaly
#: bound by one ulp fails here even when no golden table row changes.
PLAN_HASHES = {
    "jarvis": (
        "3692360b8fd301bcb69a4a1e2974159fb1a487035c3c98c1ba85f976a61d5b5f",
        "b1004e4b160c685385ab4786e28d0fbaa7d439436e6c40cd4a0298273c549b9f"),
    "jarvis-rotated": (
        "bf2899378ad11a2e000ec5bacb21f3a94c79e5a7b4cb49b6f22842157b41e5a2",
        "b1004e4b160c685385ab4786e28d0fbaa7d439436e6c40cd4a0298273c549b9f"),
    "jarvis-navigation": (
        "326f9cf84984e5444d6c1601ad9aaed2efde1759d8bedee1c94473225b75af69",
        "f3923d338e369fefd155e0994548af4a7195b15bbd35f7ce7c6a3f0e56cdcf1f"),
    "jarvis-assembly": (
        "de3e1e27e1acd104a600e88f2aeb980d2dc5b4db97fde631e67ba06c70e18841",
        "06952a6f93419848dbb82569da13828f0191181e2771330f104788ecef537c58"),
    "jarvis-int4": (
        "7889ba4f516c5a68ac37aca094724276f61e043cec53f9bad9856126eef242fe",
        "c68575415bf096aa15483bfd6e7c95a5fbfbf691d49e3db282bb9585298e279e"),
    "jarvis-acc20": (
        "5adfe8395bc97e0331eb644d4c5c580835880c587de9d1e1302d739cd439128c",
        "d789717ba76630139c65f5ed090bdd0a516284694cd72522b65471c276eca45e"),
    "jarvis-int4-acc16": (
        "7c03f40f0a15aab5f74ed1e54deebf27076df161e0e38988a5a1ed7daf33dc70",
        "992d820294a93357efca241b3c9b30ece9f66e753d0df52e8eb23bbb5d1bab0f"),
}


class TestCalibrationPins:
    @pytest.mark.parametrize("key", sorted(PLAN_HASHES))
    def test_plan_hashes_pinned(self, key):
        from repro.agents.registry import get_system

        system = get_system(key)
        assert (system.planner.kernel_plan().content_hash,
                system.controller.kernel_plan().content_hash) == PLAN_HASHES[key]


# ----------------------------------------------------------------------
# Planner decode equivalence (the tentpole contracts)
# ----------------------------------------------------------------------
TASKS = ["wooden", "stone", "iron", "seed"]


def _decode(planner, task, hooks, progress=0, **kwargs):
    """One prompt decoded alone through ``kernel_context(hooks)``."""
    [decoded] = planner.decode_tokens_batch(
        [(task, progress)], contexts=[planner.kernel_context(hooks)], **kwargs)
    return decoded


class TestCachedDecodeEquivalence:
    def test_cached_equals_uncached_tokens_logits_macs(self, deployed_planner):
        for task in TASKS:
            cached_stats, uncached_stats = GemmStats(), GemmStats()
            cached_tokens, cached_logits = _decode(
                deployed_planner, task, GemmHooks(stats=cached_stats),
                use_cache=True, collect_logits=True)
            uncached_tokens, uncached_logits = _decode(
                deployed_planner, task, GemmHooks(stats=uncached_stats),
                use_cache=False, collect_logits=True)
            assert cached_tokens == uncached_tokens
            assert len(cached_logits) == len(uncached_logits)
            for cached, uncached in zip(cached_logits, uncached_logits):
                np.testing.assert_array_equal(cached, uncached)
            assert cached_stats.macs == uncached_stats.macs
            assert cached_stats.gemm_calls == uncached_stats.gemm_calls
            assert cached_stats.macs_per_component == uncached_stats.macs_per_component

    def test_kernel_matches_legacy_reference_path(self, deployed_planner):
        """The fused runtime reproduces the closure-over-QuantizedLinear path."""
        planner = deployed_planner

        def legacy_decode(task, stats):
            hooks = GemmHooks(stats=stats)
            ones = np.ones(planner.config.dim)

            def forward(tokens):
                x = planner.weights.embed[np.asarray(tokens, dtype=np.int64)]
                for index in range(len(planner.weights.layers)):
                    prefix = f"layer{index}"
                    h = rms_norm(x, ones, eps=1e-6)
                    q = planner._quantized[f"{prefix}.q"](h, hooks=hooks)
                    k = planner._quantized[f"{prefix}.k"](h, hooks=hooks)
                    v = planner._quantized[f"{prefix}.v"](h, hooks=hooks)
                    attn = planner._attention_stack(q, k[None], v[None], 0)
                    x2 = x + planner._quantized[f"{prefix}.o"](attn, hooks=hooks)
                    h2 = rms_norm(x2, ones, eps=1e-6)
                    gate = silu(planner._quantized[f"{prefix}.gate"](h2, hooks=hooks))
                    up = planner._quantized[f"{prefix}.up"](h2, hooks=hooks)
                    x = x2 + planner._quantized[f"{prefix}.down"](gate * up, hooks=hooks)
                x = rms_norm(x, ones, eps=1e-6)
                return planner._quantized["head"](x[-1:], hooks=hooks)[0]

            tokens = list(planner.vocab.encode_prompt(task, 0))
            generated = []
            for _ in range(planner.config.max_plan_length + 1):
                next_token = int(np.argmax(forward(tokens)))
                generated.append(next_token)
                tokens.append(next_token)
                if next_token == planner.vocab.eos:
                    break
            return generated

        for task in ("wooden", "iron"):
            legacy_stats, kernel_stats = GemmStats(), GemmStats()
            legacy_tokens = legacy_decode(task, legacy_stats)
            kernel_tokens, _ = _decode(
                deployed_planner, task, GemmHooks(stats=kernel_stats),
                use_cache=False)
            assert legacy_tokens == kernel_tokens
            assert legacy_stats.macs == kernel_stats.macs
            assert legacy_stats.gemm_calls == kernel_stats.gemm_calls
            assert legacy_stats.macs_per_component == kernel_stats.macs_per_component
            assert legacy_stats.output_elements == kernel_stats.output_elements

    def test_exposure_rate_preserved_under_injection(self, deployed_planner):
        """Caching changes produced elements, not per-element corruption."""
        ber = 2e-3
        rates = {}
        for use_cache in (True, False):
            injector = ErrorInjector(UniformErrorModel(ber),
                                     rng=np.random.default_rng(123))
            hooks = GemmHooks(injector=injector)
            for seed, task in enumerate(TASKS * 4):
                _decode(deployed_planner, task, hooks, progress=seed % 2,
                        use_cache=use_cache)
            rates[use_cache] = injector.stats.observed_element_error_rate
        expected = ErrorInjector(UniformErrorModel(ber)) \
            .expected_element_error_rate(deployed_planner.spec)
        assert rates[True] == pytest.approx(expected, rel=0.25)
        assert rates[False] == pytest.approx(expected, rel=0.25)
        assert rates[True] == pytest.approx(rates[False], rel=0.25)

    def test_plan_api_escape_hatch(self, deployed_planner):
        cached = deployed_planner.plan("wooden", 0, use_cache=True)
        uncached = deployed_planner.plan("wooden", 0, use_cache=False)
        assert cached == uncached


class TestKernelContextOnAgents:
    def test_planner_context_reuse_across_invocations(self, deployed_planner):
        stats = GemmStats()
        context = deployed_planner.kernel_context(GemmHooks(stats=stats))
        first = deployed_planner.plan("wooden", 0, context=context)
        macs_after_first = stats.macs
        second = deployed_planner.plan("wooden", 1, context=context)
        assert first and second
        assert macs_after_first > 0
        assert stats.macs > macs_after_first

    def test_controller_context_matches_hooks_path(self, deployed_controller, rng):
        """A context built from a caller's hooks steps like the default one."""
        from repro.env.observations import OBSERVATION_DIM

        observation = rng.normal(size=(OBSERVATION_DIM,))
        stats = GemmStats()
        context = deployed_controller.kernel_context(GemmHooks(stats=stats))
        via_context = deployed_controller.act_logits(1, observation, context=context)
        default = deployed_controller.act_logits(1, observation)
        np.testing.assert_array_equal(via_context, default)
        assert stats.macs > 0
