"""The controller step's fast paths against frozen copies of the code they replace.

Each test here fails if a single bit moves:

* **batched injection** — every lane and fused slice of a stacked GEMM draws
  its flips (:meth:`ErrorInjector.draw`) and one in-place scatter applies
  them, against a test-only copy of the per-block stage it replaced (inject
  a copy, write it back, clamp);
* **in-place apply** — :func:`xor_flips` with :func:`flip_masks` against
  :func:`flip_bits`;
* **norms, softmax and entropy** — the wrapper-free versions against their
  textbook numpy formulas, compared as ``uint64`` views;
* **stacked sampling** — :func:`choose_actions` against one
  ``rng.choice(n, p=p)`` per row;
* **batched controller step** — ``act_logits_batch`` rows against serial
  ``act_logits`` under injection.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.agents.executor import choose_actions
from repro.core import AnomalyDetector, ThUnderVoltInjector
from repro.env.observations import OBSERVATION_DIM
from repro.faults import (
    ErrorInjector,
    UniformErrorModel,
    VoltageErrorModel,
    flip_bits,
    flip_masks,
    xor_flips,
)
from repro.hardware import TimingErrorModel
from repro.nn.functional import entropy, layer_norm, rms_norm, softmax
from repro.quant import (
    INT8,
    BatchedKernel,
    GemmHooks,
    GemmStats,
    KernelContext,
    QuantSpec,
    QuantizedLinear,
    compute_scale,
)
from repro.quant import kernel as kernel_module

ACC16 = QuantSpec(bits=8, accumulator_bits=16)
_TIMING = TimingErrorModel()
QKV = ("layer0.q", "layer0.k", "layer0.v")


# ----------------------------------------------------------------------
# Frozen copies of the per-block injection stage this change replaced
# ----------------------------------------------------------------------
def _old_inject(injector, acc, spec, component):
    """``ErrorInjector.inject`` / ``ThUnderVoltInjector.inject`` as they were."""
    stats = injector.stats
    stats.gemm_calls += 1
    n_elements = acc.size
    stats.elements_seen += n_elements
    if not injector.targets(component):
        return acc
    rng = injector.rng
    rates = injector.effective_rates(spec)
    if isinstance(injector, ThUnderVoltInjector):
        p_element = 1.0 - np.prod(1.0 - rates)
        p_zero = min(1.0, p_element * (1.0 + injector.collateral_factor))
        num_zeroed = int(rng.binomial(n_elements, p_zero))
        if num_zeroed == 0:
            return acc
        indices = rng.choice(n_elements, size=num_zeroed, replace=False)
        out = acc.copy().reshape(-1)
        out[indices] = 0
        injector.elements_zeroed += num_zeroed
        stats.elements_corrupted += num_zeroed
        return out.reshape(acc.shape)
    if np.all(rates == rates[0]):
        flip_counts = rng.binomial(n_elements, float(rates[0]), size=rates.size)
    else:
        flip_counts = rng.binomial(n_elements, rates)
    total_flips = int(flip_counts.sum())
    if total_flips == 0:
        return acc
    indices = rng.integers(0, n_elements, size=total_flips)
    corrupted = flip_bits(acc, indices,
                          np.repeat(np.arange(rates.size), flip_counts),
                          bits=spec.accumulator_bits)
    stats.bits_flipped += total_flips
    stats.elements_corrupted += len(set(indices.tolist()))
    if component is not None:
        per_component = stats.flips_per_component
        per_component[component] = per_component.get(component, 0) + total_flips
    return corrupted


def _old_inject_stage(context, acc, name):
    """``KernelContext._inject_stage`` as it was: inject, then write back."""
    result = _old_inject(context.injector, acc, context.spec, name)
    if result is not acc:
        acc[...] = result


def _old_hook_stages(acc, slices, contexts, bounds, spec):
    """Per lane, per component: inject the block, write it back, clamp it."""
    for context, (lo, hi) in zip(contexts, bounds):
        for name, _, c0, c1 in slices:
            if context.injector is not None:
                _old_inject_stage(context, acc[lo:hi, c0:c1], name)
            bound = context._entries[name].bound_acc
            if context.clamp is not None and bound is not None:
                acc[lo:hi, c0:c1] = context.clamp(acc[lo:hi, c0:c1], bound,
                                                  name)


# ----------------------------------------------------------------------
# Batched injection
# ----------------------------------------------------------------------
def _layers(spec, seed):
    """Q/K/V sharing one input scale, plus an ``o`` layer; 24 inputs each.

    A column at full weight scale makes the 16-bit accumulator wrap (so the
    wrap stage runs before injection) while the 24-bit one stays wrap-free.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(8, 24))
    x_params = compute_scale(x, spec)
    layers = {}
    for name, cols in zip((*QKV, "layer0.o"), (6, 5, 7, 24)):
        w = rng.normal(size=(24, cols))
        w[:, 0] = np.abs(w).max()
        inputs = x_params if name != "layer0.o" else compute_scale(
            rng.normal(size=(8, 24)), spec)
        layers[name] = QuantizedLinear(
            name, w, None, inputs, spec=spec,
            output_bound=float(np.abs(x @ w).max()) * 0.6)
    return layers


def _injector(kind, model, seed, scale, targets):
    rng = np.random.default_rng(seed)
    if kind == "thundervolt":
        injector = ThUnderVoltInjector(model, rng=rng, exposure_scale=scale)
        injector.target_components = targets
        return injector
    return ErrorInjector(model, rng=rng, exposure_scale=scale,
                         target_components=targets)


def _lane_contexts(layers, spec, kinds, clamps, model, scale, targets, seed):
    contexts = []
    for lane, (kind, clamp) in enumerate(zip(kinds, clamps)):
        injector = None if kind == "none" else _injector(
            kind, model, seed + lane, scale, targets)
        hooks = GemmHooks(injector=injector,
                          anomaly_clamp=AnomalyDetector() if clamp else None,
                          stats=GemmStats())
        contexts.append(KernelContext(layers, hooks=hooks, spec=spec))
    return contexts


def _run_steps(contexts, fused, x, lane_rows):
    """Three dependent GEMM calls, through the kernel a lane count implies."""
    if len(contexts) == 1:
        context = contexts[0]
        q, k, v = (context.qgemm_multi(QKV, x) if fused
                   else tuple(context.qgemm(name, x) for name in QKV))
        o = context.qgemm("layer0.o", np.concatenate([q, k, v, q], axis=1)[:, :24])
        return q, k, v, o
    kernel = BatchedKernel(contexts)
    q, k, v = (kernel.qgemm_multi(QKV, x, lane_rows) if fused
               else tuple(kernel.qgemm(name, x, lane_rows) for name in QKV))
    o = kernel.qgemm("layer0.o", np.concatenate([q, k, v, q], axis=1)[:, :24],
                     lane_rows)
    return q, k, v, o


_MODELS = {
    "ber1e-3": UniformErrorModel(1e-3),
    "ber2e-2": UniformErrorModel(2e-2),
    "v0.66": VoltageErrorModel(0.66, _TIMING),
    "v0.74": VoltageErrorModel(0.74, _TIMING),
}


class TestBatchedInjection:
    @given(seed=st.integers(0, 2 ** 32 - 1),
           model=st.sampled_from(sorted(_MODELS)),
           spec=st.sampled_from([INT8, ACC16]),
           lanes=st.sampled_from([1, 2, 16]),
           fused=st.booleans(),
           clamp=st.sampled_from(["off", "on", "mixed"]),
           targets=st.sampled_from([None, ["*.k"], ["*.q", "*.o"]]),
           scale=st.sampled_from([1.0, 30.0, 1000.0]),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_draw_then_scatter_equals_per_block_inject(
            self, seed, model, spec, lanes, fused, clamp, targets, scale, data):
        kinds = data.draw(st.lists(
            st.sampled_from(["error", "error", "thundervolt", "none"]),
            min_size=lanes, max_size=lanes))
        clamps = {"off": [False] * lanes, "on": [True] * lanes,
                  "mixed": [lane % 2 == 0 for lane in range(lanes)]}[clamp]
        lane_rows = data.draw(st.lists(st.integers(1, 4), min_size=lanes,
                                       max_size=lanes))
        layers = _layers(spec, seed % 1000)
        x = np.random.default_rng(seed).normal(size=(sum(lane_rows), 24)) * 2.0

        def run(stages):
            contexts = _lane_contexts(layers, spec, kinds, clamps,
                                      _MODELS[model], scale, targets, seed)
            with pytest.MonkeyPatch.context() as patch:
                if stages is not None:
                    patch.setattr(kernel_module, "_hook_stages", stages)
                outputs = _run_steps(contexts, fused, x, lane_rows)
            return outputs, contexts

        new, new_contexts = run(None)
        old, old_contexts = run(_old_hook_stages)
        for got, expected in zip(new, old):
            np.testing.assert_array_equal(got, expected)
        for got, expected in zip(new_contexts, old_contexts):
            assert got.stats == expected.stats
            if expected.injector is not None:
                assert got.injector.stats == expected.injector.stats
                assert (got.injector.rng.bit_generator.state
                        == expected.injector.rng.bit_generator.state)
                assert (getattr(got.injector, "elements_zeroed", None)
                        == getattr(expected.injector, "elements_zeroed", None))
            if expected.clamp is not None:
                assert got.clamp.stats == expected.clamp.stats

    def test_draws_follow_lane_then_component_order(self, monkeypatch):
        """Lanes sharing one injector see its stream in lane, then q/k/v order."""
        layers = _layers(INT8, 3)
        order = []
        original = ErrorInjector.draw

        def spy(self, accumulators, spec, component=None):
            order.append((accumulators.shape, component))
            return original(self, accumulators, spec, component)

        monkeypatch.setattr(ErrorInjector, "draw", spy)
        shared = ErrorInjector(UniformErrorModel(1e-2), exposure_scale=10.0,
                               rng=np.random.default_rng(0))
        contexts = [KernelContext(layers, hooks=GemmHooks(injector=shared))
                    for _ in range(2)]
        BatchedKernel(contexts).qgemm_multi(
            QKV, np.ones((5, 24)), [2, 3])
        assert order == [((2, 6), "layer0.q"), ((2, 5), "layer0.k"),
                         ((2, 7), "layer0.v"), ((3, 6), "layer0.q"),
                         ((3, 5), "layer0.k"), ((3, 7), "layer0.v")]


# ----------------------------------------------------------------------
# In-place apply
# ----------------------------------------------------------------------
class TestInPlaceApply:
    @pytest.mark.parametrize("bits", [16, 24])
    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 300),
           flips=st.integers(1, 200))
    @settings(max_examples=80, deadline=None)
    def test_equals_flip_bits_on_in_range_blocks(self, bits, seed, size, flips):
        rng = np.random.default_rng(seed)
        sign = 1 << (bits - 1)
        values = rng.integers(-sign, sign, size=size)
        # Repeated indices, and the sign bit on a third of the flips.
        indices = rng.integers(0, min(size, 7) if seed % 2 else size, size=flips)
        positions = rng.integers(0, bits, size=flips)
        positions[::3] = bits - 1
        flat = values.copy()
        xor_flips(flat, indices, flip_masks(positions, bits), bits)
        expected = flip_bits(values, indices, positions, bits=bits)
        np.testing.assert_array_equal(flat, expected)
        assert flat.min() >= -sign and flat.max() < sign

    def test_sign_bit_flips_both_ways(self):
        values = np.array([0, -1, (1 << 23) - 1, -(1 << 23), 5], dtype=np.int64)
        flat = values.copy()
        xor_flips(flat, np.arange(5), flip_masks(np.full(5, 23)))
        np.testing.assert_array_equal(
            flat, [-(1 << 23), (1 << 23) - 1, -1, 0, 5 - (1 << 23)])

    def test_bounds_checks(self):
        flat = np.zeros(4, dtype=np.int64)
        with pytest.raises(IndexError):
            xor_flips(flat, np.array([4]), flip_masks(np.array([0])))
        with pytest.raises(IndexError):
            xor_flips(flat, np.array([-1]), flip_masks(np.array([0])))
        with pytest.raises(ValueError):
            xor_flips(flat, np.array([0]), flip_masks(np.array([24])))
        with pytest.raises(ValueError):
            xor_flips(flat, np.array([0]), flip_masks(np.array([40])))
        np.testing.assert_array_equal(flat, 0)

    def test_injector_masks_zero_thundervolt_elements(self):
        injector = ThUnderVoltInjector(UniformErrorModel(5e-3),
                                       rng=np.random.default_rng(0))
        acc = np.random.default_rng(1).integers(-(1 << 23), 1 << 23, size=(40, 30))
        indices, masks = injector.draw(acc, INT8)
        flat = acc.copy().reshape(-1)
        xor_flips(flat, indices, masks)
        assert np.all(flat[indices] == 0)
        untouched = np.ones(flat.size, dtype=bool)
        untouched[indices] = False
        np.testing.assert_array_equal(flat[untouched], acc.reshape(-1)[untouched])


# ----------------------------------------------------------------------
# Norms, softmax, entropy
# ----------------------------------------------------------------------
def _layer_norm_formula(x, gamma, beta, eps=1e-5):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * gamma + beta


def _rms_norm_formula(x, gamma, eps=1e-6):
    mean_square = np.mean(x * x, axis=-1, keepdims=True)
    return x / np.sqrt(mean_square + eps) * gamma


def _softmax_formula(x, axis=-1):
    shifted = x - x.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=axis, keepdims=True)


def _entropy_formula(p, axis=-1, eps=1e-12):
    p = np.clip(p, eps, 1.0)
    return -np.sum(p * np.log(p), axis=axis)


def _same_bits(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    np.testing.assert_array_equal(got.reshape(-1).view(np.uint64),
                                  expected.reshape(-1).view(np.uint64))


class TestWrapperFreeReductions:
    @given(seed=st.integers(0, 2 ** 32 - 1),
           shape=st.sampled_from([(1,), (7,), (1, 32), (5, 32), (6, 40),
                                  (3, 5, 48), (80, 24), (2, 130)]),
           magnitude=st.integers(-8, 12), special=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_formulas(self, seed, shape, magnitude, special):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=shape) * 10.0 ** magnitude
        if special:
            flat = x.reshape(-1)
            flat[rng.integers(0, flat.size, size=3)] = [np.inf, -np.inf, np.nan]
        gamma = rng.normal(size=shape[-1])
        beta = rng.normal(size=shape[-1])
        with np.errstate(all="ignore"):
            _same_bits(layer_norm(x, gamma, beta), _layer_norm_formula(x, gamma, beta))
            _same_bits(rms_norm(x, gamma), _rms_norm_formula(x, gamma))
            _same_bits(softmax(x), _softmax_formula(x))
            _same_bits(softmax(x, axis=0), _softmax_formula(x, axis=0))
            probs = _softmax_formula(x)
            _same_bits(entropy(probs), _entropy_formula(probs))
            _same_bits(entropy(x), _entropy_formula(x))


# ----------------------------------------------------------------------
# Stacked action sampling
# ----------------------------------------------------------------------
class TestStackedSampling:
    @given(seed=st.integers(0, 2 ** 32 - 1), lanes=st.integers(1, 16),
           actions=st.integers(1, 16), sharp=st.sampled_from([0.1, 1.0, 30.0]))
    @settings(max_examples=200, deadline=None)
    def test_equals_generator_choice(self, seed, lanes, actions, sharp):
        rng = np.random.default_rng(seed)
        probs = _softmax_formula(rng.normal(size=(lanes, actions)) * sharp)
        probs[rng.random(size=probs.shape) < 0.1] = 0.0
        probs /= probs.sum(axis=1, keepdims=True).clip(1e-300)
        probs[probs.sum(axis=1) == 0, 0] = 1.0
        seeds = rng.integers(0, 2 ** 62, size=lanes)
        stacked = [np.random.default_rng(s) for s in seeds]
        per_row = [np.random.default_rng(s) for s in seeds]
        got = choose_actions(probs, stacked)
        expected = [int(g.choice(actions, p=row)) for g, row in zip(per_row, probs)]
        assert got == expected
        assert all(type(action) is int for action in got)
        for a, b in zip(stacked, per_row):
            assert a.random() == b.random()

    def test_many_draws_from_one_distribution(self):
        p = _softmax_formula(np.random.default_rng(5).normal(size=12))
        stacked, per_row = np.random.default_rng(9), np.random.default_rng(9)
        got = [choose_actions(p[None, :], [stacked])[0] for _ in range(100_000)]
        expected = [int(per_row.choice(12, p=p)) for _ in range(100_000)]
        assert got == expected
        assert stacked.bit_generator.state == per_row.bit_generator.state

    @pytest.mark.parametrize("row, message", [
        ([0.5, np.nan, 0.5], "contain NaN"),
        ([0.6, -0.1, 0.5], "non-negative"),
        ([0.5, 0.3, 0.1], "sum to 1"),
        ([0.5, 0.3, 0.3], "sum to 1"),
    ])
    def test_invalid_rows_raise_like_numpy(self, row, message):
        bad = np.array([row])
        with pytest.raises(ValueError, match=message) as numpy_error:
            np.random.default_rng(0).choice(3, p=bad[0])
        stack = np.vstack([[0.2, 0.3, 0.5], bad[0]])
        with pytest.raises(ValueError) as ours:
            choose_actions(stack, [np.random.default_rng(0)] * 2)
        assert str(ours.value) == str(numpy_error.value)


# ----------------------------------------------------------------------
# Batched controller step
# ----------------------------------------------------------------------
class TestBatchedControllerStep:
    def test_rows_equal_serial_steps_under_injection(self, deployed_controller):
        controller = deployed_controller
        rng = np.random.default_rng(11)
        lanes = 6
        requests = [(int(rng.integers(0, 8)), rng.normal(size=OBSERVATION_DIM))
                    for _ in range(lanes)]

        def contexts():
            return [controller.kernel_context(GemmHooks(
                injector=ErrorInjector(UniformErrorModel(3e-3),
                                       rng=np.random.default_rng(100 + lane),
                                       exposure_scale=4.0,
                                       target_components=None if lane % 3
                                       else ["*.k", "policy_head"]),
                anomaly_clamp=AnomalyDetector() if lane % 2 else None,
                stats=GemmStats()))
                for lane in range(lanes)]

        serial_contexts, batched_contexts = contexts(), contexts()
        for _ in range(3):
            serial = [controller.act_logits(subtask, obs, context=context)
                      for (subtask, obs), context in zip(requests, serial_contexts)]
            batched = controller.act_logits_batch(requests, batched_contexts)
            for got, expected in zip(batched, serial):
                _same_bits(got, expected)
        for got, expected in zip(batched_contexts, serial_contexts):
            assert got.stats == expected.stats
            assert got.injector.stats.bits_flipped > 0
            assert got.injector.stats == expected.injector.stats
            if expected.clamp is not None:
                assert got.clamp.stats == expected.clamp.stats
            assert (got.injector.rng.bit_generator.state
                    == expected.injector.rng.bit_generator.state)

    def test_mean_pool_over_the_lane_axis_is_per_lane_mean(self):
        rng = np.random.default_rng(2)
        for _ in range(2000):
            n, seq, dim = (int(v) for v in rng.integers(1, 20, size=3))
            x = rng.normal(size=(n * seq, dim)) * 10.0 ** rng.integers(-4, 6)
            pooled = np.add.reduce(x.reshape(n, seq, dim), axis=1)
            pooled /= seq
            expected = np.stack([x[i * seq:(i + 1) * seq].mean(axis=0)
                                 for i in range(n)])
            _same_bits(pooled, expected)

    def test_capture_equals_the_former_capture_loop(self, deployed_controller):
        """The probe in ``_forward`` records what the separate copy recorded."""
        from repro.agents.controller import _LN_EPS

        controller = deployed_controller
        observation = np.random.default_rng(4).normal(size=OBSERVATION_DIM)

        def hooks():
            return GemmHooks(injector=ErrorInjector(
                UniformErrorModel(1e-3), rng=np.random.default_rng(8),
                exposure_scale=10.0))

        def former_capture(kernel):
            cfg = controller.config
            captured = {}
            prompt = controller.subtask_embed[3][None, :]
            obs_tokens = kernel.qgemm("obs_proj", observation[None, :]).reshape(
                cfg.num_obs_tokens, cfg.dim)
            x = np.concatenate([prompt, obs_tokens], axis=0)
            for index in range(cfg.num_layers):
                prefix = f"layer{index}"
                norms = controller._norms[index]
                h = _layer_norm_formula(x, norms["attn_gamma"], norms["attn_beta"],
                                        eps=_LN_EPS)
                attn = controller._attention_stack(
                    kernel.qgemm(f"{prefix}.q", h), kernel.qgemm(f"{prefix}.k", h),
                    kernel.qgemm(f"{prefix}.v", h), 1, x.shape[0])
                x = x + kernel.qgemm(f"{prefix}.o", attn)
                captured[f"{prefix}.pre_mlp_norm"] = x.copy()
                h2 = _layer_norm_formula(x, norms["mlp_gamma"], norms["mlp_beta"],
                                         eps=_LN_EPS)
                x = x + kernel.qgemm(f"{prefix}.fc2",
                                     np.maximum(kernel.qgemm(f"{prefix}.fc1", h2), 0.0))
                captured[f"{prefix}.pre_attn_norm"] = x.copy()
            return captured

        for quantized in (True, False):
            if quantized:
                kernel = controller.kernel_context(hooks())
            else:  # a float kernel takes each call as one lane
                kernel = controller._float_kernel()
                float_qgemm = kernel.qgemm
                kernel.qgemm = lambda name, x: float_qgemm(name, x, (len(x),))
            former = former_capture(kernel)
            captured = controller.capture_activations(
                3, observation, quantized=quantized,
                context=controller.kernel_context(hooks()) if quantized else None)
            assert list(captured) == list(former)
            for name in former:
                _same_bits(captured[name], former[name])
        assert controller._activation_probe is None
