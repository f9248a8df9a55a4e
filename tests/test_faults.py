"""Tests for bit-flip primitives, error models and the runtime injector."""

from fnmatch import fnmatch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.policies import default_policy
from repro.core.voltage_scaling import AdaptiveVoltageController, VoltageScalingConfig
from repro.eval.analysis import wilson_interval
from repro.faults import (
    ErrorInjector,
    InjectionStats,
    PassthroughInjector,
    SingleBitErrorModel,
    UniformErrorModel,
    VoltageErrorModel,
    flip_bit,
    flip_bits,
    to_signed,
    to_unsigned,
    wrap_to_accumulator,
)
from repro.hardware import TimingErrorModel
from repro.quant import INT8, GemmHooks, QuantSpec

#: The 16-bit accumulator of ``jarvis-int4-acc16``.
ACC16 = QuantSpec(bits=4, accumulator_bits=16)


class TestBitflipPrimitives:
    def test_roundtrip_signed_unsigned(self):
        values = np.array([-5, 0, 7, -(2 ** 22), 2 ** 22])
        np.testing.assert_array_equal(to_signed(to_unsigned(values)), values)

    def test_flip_bit_lsb(self):
        np.testing.assert_array_equal(flip_bit(np.array([0, 1]), 0), [1, 0])

    def test_flip_sign_bit(self):
        flipped = flip_bit(np.array([0]), 23)
        assert flipped[0] == -(2 ** 23)

    def test_flip_bits_specific_elements(self):
        values = np.zeros(5, dtype=np.int64)
        out = flip_bits(values, np.array([1, 3]), np.array([2, 4]))
        assert out[1] == 4 and out[3] == 16
        assert out[0] == 0

    def test_flip_bits_same_element_composes(self):
        values = np.zeros(3, dtype=np.int64)
        out = flip_bits(values, np.array([0, 0]), np.array([1, 2]))
        assert out[0] == 6

    def test_flip_twice_is_identity(self):
        values = np.array([17, -42, 1000])
        once = flip_bits(values, np.array([0, 1, 2]), np.array([5, 10, 20]))
        twice = flip_bits(once, np.array([0, 1, 2]), np.array([5, 10, 20]))
        np.testing.assert_array_equal(twice, values)

    def test_out_of_range_checks(self):
        with pytest.raises(ValueError):
            flip_bit(np.array([0]), 30)
        with pytest.raises(ValueError):
            flip_bits(np.zeros(2, dtype=np.int64), np.array([0]), np.array([40]))
        with pytest.raises(IndexError):
            flip_bits(np.zeros(2, dtype=np.int64), np.array([5]), np.array([0]))
        with pytest.raises(ValueError):
            flip_bits(np.zeros(2, dtype=np.int64), np.array([0, 1]), np.array([0]))

    def test_wrap_to_accumulator(self):
        assert wrap_to_accumulator(np.array([2 ** 23]))[0] == -(2 ** 23)
        assert wrap_to_accumulator(np.array([2 ** 23 - 1]))[0] == 2 ** 23 - 1

    @given(st.lists(st.integers(min_value=-(2 ** 23), max_value=2 ** 23 - 1),
                    min_size=1, max_size=30),
           st.integers(min_value=0, max_value=23))
    @settings(max_examples=60, deadline=None)
    def test_flip_is_involution_property(self, values, bit):
        values = np.asarray(values, dtype=np.int64)
        np.testing.assert_array_equal(flip_bit(flip_bit(values, bit), bit), values)

    @given(st.integers(min_value=-(2 ** 23), max_value=2 ** 23 - 1))
    @settings(max_examples=60, deadline=None)
    def test_signed_unsigned_roundtrip_property(self, value):
        assert to_signed(to_unsigned(np.array([value])))[0] == value


class TestErrorModels:
    def test_uniform_rates(self):
        model = UniformErrorModel(1e-3)
        rates = model.bit_rates()
        assert rates.shape == (24,)
        assert np.all(rates == 1e-3)
        assert model.mean_rate() == pytest.approx(1e-3)

    def test_uniform_invalid(self):
        with pytest.raises(ValueError):
            UniformErrorModel(1.5)

    def test_single_bit_model(self):
        model = SingleBitErrorModel(bit=5, rate=0.1)
        rates = model.bit_rates()
        assert rates[5] == 0.1 and rates.sum() == pytest.approx(0.1)

    def test_single_bit_outside_accumulator(self):
        with pytest.raises(ValueError):
            SingleBitErrorModel(bit=40, rate=0.1).bit_rates()

    def test_voltage_model_monotone(self):
        timing = TimingErrorModel()
        low = VoltageErrorModel(0.7, timing).mean_rate()
        high = VoltageErrorModel(0.85, timing).mean_rate()
        assert low > high

    def test_voltage_model_high_bits_worse(self):
        rates = VoltageErrorModel(0.75).bit_rates()
        assert rates[23] > rates[4]

    def test_describe_strings(self):
        assert "uniform" in UniformErrorModel(1e-4).describe()
        assert "voltage" in VoltageErrorModel(0.8).describe()
        assert "single" in SingleBitErrorModel(3, 0.1).describe()


class TestErrorInjector:
    def test_zero_ber_is_noop(self, rng):
        injector = ErrorInjector(UniformErrorModel(0.0), rng=rng)
        acc = rng.integers(-1000, 1000, size=(50, 50))
        np.testing.assert_array_equal(injector.inject(acc, INT8), acc)

    def test_injection_rate_matches_expectation(self):
        injector = ErrorInjector(UniformErrorModel(1e-3), rng=np.random.default_rng(0))
        acc = np.zeros((200, 200), dtype=np.int64)
        injector.inject(acc, INT8)
        expected = 200 * 200 * 24 * 1e-3
        assert injector.stats.bits_flipped == pytest.approx(expected, rel=0.3)

    def test_exposure_scale_multiplies_rates(self):
        base = ErrorInjector(UniformErrorModel(1e-4), rng=np.random.default_rng(1))
        scaled = ErrorInjector(UniformErrorModel(1e-4), rng=np.random.default_rng(1),
                               exposure_scale=10.0)
        acc = np.zeros((100, 100), dtype=np.int64)
        base.inject(acc, INT8)
        scaled.inject(acc, INT8)
        assert scaled.stats.bits_flipped > base.stats.bits_flipped

    def test_negative_exposure_raises(self):
        with pytest.raises(ValueError):
            ErrorInjector(UniformErrorModel(1e-4), exposure_scale=-1.0)

    def test_component_targeting(self, rng):
        injector = ErrorInjector(UniformErrorModel(0.5), rng=rng,
                                 target_components=["*.k"])
        assert injector.targets("layer0.k")
        assert not injector.targets("layer0.o")
        acc = np.zeros(100, dtype=np.int64)
        untouched = injector.inject(acc, INT8, component="layer1.down")
        np.testing.assert_array_equal(untouched, acc)
        touched = injector.inject(acc, INT8, component="layer1.k")
        assert np.any(touched != 0)

    def test_disabled_injector(self, rng):
        injector = ErrorInjector(UniformErrorModel(0.5), rng=rng, enabled=False)
        acc = np.zeros(100, dtype=np.int64)
        np.testing.assert_array_equal(injector.inject(acc, INT8), acc)

    def test_stats_observed_rate(self):
        injector = ErrorInjector(UniformErrorModel(0.01), rng=np.random.default_rng(2))
        injector.inject(np.zeros(10_000, dtype=np.int64), INT8)
        assert 0 < injector.stats.observed_element_error_rate < 1
        injector.stats.reset()
        assert injector.stats.observed_element_error_rate == 0.0

    def test_original_array_not_modified(self, rng):
        injector = ErrorInjector(UniformErrorModel(0.5), rng=rng)
        acc = np.zeros(100, dtype=np.int64)
        injector.inject(acc, INT8)
        assert np.all(acc == 0)

    def test_passthrough_injector(self, rng):
        injector = PassthroughInjector()
        acc = rng.integers(-100, 100, size=50)
        np.testing.assert_array_equal(injector.inject(acc, INT8), acc)
        assert injector.stats.gemm_calls == 1
        assert injector.stats.bits_flipped == 0


# ----------------------------------------------------------------------
# Frozen reference: the injector as it drew, flipped and counted before
# the rate plan (rates rebuilt per call, unsigned round trip, np.unique).
# Test-only; the new injector must match it draw for draw.
# ----------------------------------------------------------------------
def _reference_flip_bits(values, flat_indices, bit_positions, bits):
    flat_indices = np.asarray(flat_indices, dtype=np.int64)
    bit_positions = np.asarray(bit_positions, dtype=np.int64)
    if flat_indices.shape != bit_positions.shape:
        raise ValueError("flat_indices and bit_positions must have the same shape")
    if flat_indices.size == 0:
        return np.asarray(values, dtype=np.int64).copy()
    if np.any(bit_positions < 0) or np.any(bit_positions >= bits):
        raise ValueError("bit position outside accumulator width")
    mask = (1 << bits) - 1
    out = (np.asarray(values, dtype=np.int64) & mask).ravel().copy()
    if np.any(flat_indices < 0) or np.any(flat_indices >= out.size):
        raise IndexError("element index out of range")
    np.bitwise_xor.at(out, flat_indices, np.int64(1) << bit_positions)
    out &= mask
    out = np.where(out >= 1 << (bits - 1), out - (1 << bits), out)
    return out.reshape(np.asarray(values).shape)


class _ReferenceInjector:
    def __init__(self, model, rng, exposure_scale=1.0, target_components=None):
        self.model = model
        self.rng = rng
        self.exposure_scale = exposure_scale
        self.target_components = target_components
        self.stats = InjectionStats()

    def targets(self, component):
        if self.target_components is None or component is None:
            return self.target_components is None
        return any(fnmatch(component, pattern) for pattern in self.target_components)

    def inject(self, accumulators, spec, component=None):
        self.stats.gemm_calls += 1
        self.stats.elements_seen += int(accumulators.size)
        if not self.targets(component):
            return accumulators
        rates = np.clip(self.model.bit_rates(spec.accumulator_bits)
                        * self.exposure_scale, 0.0, 1.0)
        n_elements = accumulators.size
        flip_counts = self.rng.binomial(n_elements, rates)
        total_flips = int(flip_counts.sum())
        if total_flips == 0:
            return accumulators
        indices = self.rng.integers(0, n_elements, size=total_flips)
        bits = np.repeat(np.arange(flip_counts.size, dtype=np.int64), flip_counts)
        corrupted = _reference_flip_bits(accumulators, indices, bits,
                                         spec.accumulator_bits)
        self.stats.bits_flipped += total_flips
        self.stats.elements_corrupted += int(np.unique(indices).size)
        if component is not None:
            self.stats.flips_per_component[component] = (
                self.stats.flips_per_component.get(component, 0) + total_flips)
        return corrupted


def _assert_same_call(reference, injector, acc, spec, component=None):
    """One inject call on each; outputs, stats and generator states agree."""
    before = acc.copy()
    expected = reference.inject(acc, spec, component=component)
    got = injector.inject(acc, spec, component=component)
    assert (got is acc) == (expected is acc)
    assert got.shape == expected.shape
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(acc, before)
    assert injector.stats == reference.stats
    assert injector.rng.bit_generator.state == reference.rng.bit_generator.state


_TIMING = TimingErrorModel()
_MODELS = {
    "ber0": UniformErrorModel(0.0),
    "ber1e-4": UniformErrorModel(1e-4),
    "ber3e-3": UniformErrorModel(3e-3),
    "ber1": UniformErrorModel(1.0),
    "v0.70": VoltageErrorModel(0.70, _TIMING),
    "v0.74": VoltageErrorModel(0.74, _TIMING),
    "v0.78": VoltageErrorModel(0.78, _TIMING),
    "v0.82": VoltageErrorModel(0.82, _TIMING),
    "single3": SingleBitErrorModel(bit=3, rate=0.05),
    "single15": SingleBitErrorModel(bit=15, rate=0.5),
}
#: Exposure scales: none, the usual 10x, and one that clips every rate to 1.
_SCALES = (1.0, 10.0, 1e13)
#: Shapes with 0, 1, 12 and 640 elements per layout.
_SHAPES = {
    "1d": [(0,), (1,), (12,), (640,)],
    "2d": [(0, 4), (1, 1), (3, 4), (20, 32)],
    "3d": [(2, 0, 3), (1, 1, 1), (2, 3, 2), (4, 10, 16)],
    "rows": [(0, 8), (1, 1), (3, 4), (16, 40)],
    "cols": [(0, 8), (1, 1), (3, 4), (16, 40)],
}
#: (target patterns, components of three consecutive calls).
_TARGETING = (
    (None, (None, "layer0.k", None)),
    (["*.k"], ("layer0.k", "layer0.o", "layer1.k")),
)


def _accumulator(layout, shape, bits, rng, wide):
    """An int64 accumulator, or a row / column slice of a larger one.

    ``wide`` draws values beyond the accumulator width, so the wrap of the
    whole array on a flip is pinned too.
    """
    high = 1 << (30 if wide else bits - 1)
    if layout == "rows":
        return rng.integers(-high, high, size=(shape[0] + 4, shape[1]))[2:2 + shape[0]]
    if layout == "cols":
        return rng.integers(-high, high, size=(shape[0], shape[1] + 7))[:, 3:3 + shape[1]]
    return rng.integers(-high, high, size=shape)


class TestInjectorMatchesFrozenReference:
    @pytest.mark.parametrize("spec", [INT8, ACC16], ids=["acc24", "acc16"])
    @pytest.mark.parametrize("model_name", sorted(_MODELS))
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           wide=st.booleans())
    @settings(max_examples=3, deadline=None)
    def test_same_outputs_stats_and_stream(self, model_name, spec, seed, wide):
        model = _MODELS[model_name]
        values = np.random.default_rng(seed)
        for scale in _SCALES:
            for targets, components in _TARGETING:
                for layout, shapes in _SHAPES.items():
                    for shape in shapes:
                        reference = _ReferenceInjector(
                            model, np.random.default_rng(seed), scale, targets)
                        injector = ErrorInjector(
                            model, rng=np.random.default_rng(seed),
                            exposure_scale=scale, target_components=targets)
                        acc = _accumulator(layout, shape, spec.accumulator_bits,
                                           values, wide)
                        for component in components:
                            _assert_same_call(reference, injector, acc, spec,
                                              component)
                        assert injector.rng.random() == reference.rng.random()

    @pytest.mark.parametrize("n", [0, 1, 2, 12, 160, 640, 10 ** 6])
    def test_scalar_p_binomial_is_the_array_call(self, n):
        """The numpy fact behind the one-rate fast path: same draws, same state."""
        for p in (0.0, 1e-12, 1e-4, 3e-3, 0.3, 0.5, 0.7, 0.999, 1.0):
            for size in (16, 24):
                scalar, array = np.random.default_rng(n), np.random.default_rng(n)
                np.testing.assert_array_equal(scalar.binomial(n, p, size=size),
                                              array.binomial(n, np.full(size, p)))
                assert scalar.bit_generator.state == array.bit_generator.state
                assert scalar.random() == array.random()


class TestRatePlan:
    """Every input of the cached rate plan takes effect on the very next call."""

    def _pair(self, model, seed=3):
        return (_ReferenceInjector(model, np.random.default_rng(seed)),
                ErrorInjector(model, rng=np.random.default_rng(seed)))

    def test_model_swap_by_voltage_scaling(self):
        reference, injector = self._pair(VoltageErrorModel(0.70, _TIMING))
        controller = AdaptiveVoltageController(
            config=VoltageScalingConfig(policy=default_policy(),
                                        entropy_source="oracle"),
            injector=injector, timing_model=_TIMING)
        acc = np.zeros((8, 40), dtype=np.int64)
        for voltage in (0.70, 0.82, 0.70, 0.66, 0.82):
            controller._apply_voltage(voltage)
            reference.model = injector.model
            assert injector.model.voltage == controller.voltage
            _assert_same_call(reference, injector, acc, INT8)
            np.testing.assert_array_equal(
                injector.effective_rates(INT8),
                VoltageErrorModel(controller.voltage, _TIMING).bit_rates())

    def test_exposure_scale_change(self):
        reference, injector = self._pair(UniformErrorModel(1e-4))
        acc = np.zeros((8, 40), dtype=np.int64)
        for scale in (1.0, 100.0, 100.0, 1.0, 0.0, 1e5):
            reference.exposure_scale = injector.exposure_scale = scale
            _assert_same_call(reference, injector, acc, INT8)
            np.testing.assert_array_equal(injector.effective_rates(INT8),
                                          np.clip(np.full(24, 1e-4) * scale, 0, 1))

    def test_alternating_accumulator_widths(self):
        reference, injector = self._pair(VoltageErrorModel(0.66, _TIMING))
        acc = np.zeros((8, 40), dtype=np.int64)
        for spec in (INT8, ACC16, ACC16, INT8, ACC16, INT8):
            _assert_same_call(reference, injector, acc, spec)
            assert injector.effective_rates(spec).shape == (spec.accumulator_bits,)

    def test_effective_rates_read_only(self):
        injector = ErrorInjector(UniformErrorModel(1e-3))
        rates = injector.effective_rates(INT8)
        with pytest.raises(ValueError):
            rates[0] = 0.5
        assert injector.effective_rates(INT8) is rates

    def test_negative_exposure_assigned_later_raises(self):
        injector = ErrorInjector(UniformErrorModel(1e-3))
        acc = np.zeros(100, dtype=np.int64)
        injector.inject(acc, INT8)
        injector.exposure_scale = -1.0
        with pytest.raises(ValueError):
            injector.inject(acc, INT8)
        with pytest.raises(ValueError):
            injector.effective_rates(INT8)


class TestFaultModelStatistics:
    """The injector against its own specification, over 2^20 elements.

    Measured per-bit flip rates (from the XOR of output and input) must fall
    inside 99.9% Wilson intervals around ``rate * exposure_scale``, and the
    corrupted-element rate around ``1 - prod(1 - rates)``.  Two hits of one
    bit on one element cancel; at rates of at most 3e-3 that bias stays far
    below the interval width.
    """

    CALLS, ROWS, COLS = 1024, 4, 256

    @pytest.mark.parametrize("model, scale", [
        (UniformErrorModel(1e-4), 1.0),
        (UniformErrorModel(1e-3), 1.0),
        (UniformErrorModel(3e-3), 1.0),
        (VoltageErrorModel(0.77, _TIMING), 1.0),
        (VoltageErrorModel(0.80, _TIMING), 10.0),
        (VoltageErrorModel(0.83, _TIMING), 100.0),
    ], ids=["ber1e-4", "ber1e-3", "ber3e-3", "v0.77", "v0.80x10", "v0.83x100"])
    def test_rates_inside_wilson_intervals(self, model, scale):
        injector = ErrorInjector(model, rng=np.random.default_rng(2024),
                                 exposure_scale=scale)
        rates = injector.effective_rates(INT8)
        assert rates.max() <= 3e-3
        acc = np.random.default_rng(7).integers(
            -(1 << 23), 1 << 23, size=(self.CALLS * self.ROWS, self.COLS))
        flipped = np.empty_like(acc)
        for row in range(0, acc.shape[0], self.ROWS):
            block = acc[row:row + self.ROWS]
            flipped[row:row + self.ROWS] = injector.inject(block, INT8) ^ block
        flipped &= (1 << 24) - 1
        n = acc.size
        assert n >= 10 ** 6

        for bit, rate in enumerate(rates):
            hits = int(np.count_nonzero(flipped & (1 << bit)))
            low, high = wilson_interval(hits, n, 0.999)
            assert low <= rate <= high, (bit, hits, rate)
        corrupted = int(np.count_nonzero(flipped))
        low, high = wilson_interval(corrupted, n, 0.999)
        assert low <= 1.0 - np.prod(1.0 - rates) <= high

    @pytest.mark.parametrize("batched", [False, True], ids=["context", "batched"])
    @pytest.mark.parametrize("use_cache", [True, False],
                             ids=["kv-cached", "recompute"])
    def test_exposure_invariant_through_the_kernel(self, deployed_planner,
                                                   use_cache, batched):
        """Corrupted per produced element, cached or not, serial or batched.

        KV caching changes how many accumulator elements a decode produces,
        never the chance that a produced element is corrupted: the kernel's
        ``elements_corrupted / output_elements`` must sit inside the 99.9%
        Wilson interval of ``expected_element_error_rate``.
        """
        planner = deployed_planner
        model = UniformErrorModel(1e-3)
        expected = ErrorInjector(model).expected_element_error_rate(planner.spec)
        prompts = [(task, progress) for task in ("wooden", "stone", "iron", "seed")
                   for progress in (0, 1)]
        produced = corrupted = 0
        seed = 0
        while produced < 2 ** 20:
            contexts = [planner.kernel_context(GemmHooks(injector=ErrorInjector(
                model, rng=np.random.default_rng(seed + lane))))
                for lane in range(len(prompts))]
            seed += len(prompts)
            if batched:
                planner.plan_batch(prompts, contexts=contexts, use_cache=use_cache)
            else:
                for (task, progress), context in zip(prompts, contexts):
                    planner.plan(task, progress, context=context,
                                 use_cache=use_cache)
            produced += sum(c.counters.output_elements for c in contexts)
            corrupted += sum(c.counters.elements_corrupted for c in contexts)
        low, high = wilson_interval(corrupted, produced, 0.999)
        assert low <= expected <= high, (corrupted, produced, expected)
