"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from repro.core import action_entropy, hadamard_matrix, max_entropy
from repro.core.policies import VoltagePolicy, pareto_front
from repro.env import MINECRAFT_SUBTASKS, MINECRAFT_SUITE, EmbodiedWorld, NUM_ACTIONS, WorldConfig
from repro.faults import UniformErrorModel, to_signed, to_unsigned
from repro.hardware import DigitalLDO, EnergyModel, SystolicArray, GemmWorkload, TimingErrorModel
from repro.nn import Tensor
from repro.nn.functional import softmax
from repro.quant import INT8, compute_scale, dequantize, quantize

finite_floats = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)


class TestQuantizationProperties:
    @given(st.lists(finite_floats, min_size=2, max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_error_bounded_by_half_lsb(self, values):
        values = np.asarray(values)
        assume(np.abs(values).max() > 1e-6)
        params = compute_scale(values)
        recovered = dequantize(quantize(values, params), params)
        assert np.abs(recovered - values).max() <= 0.5 * params.scale + 1e-9

    @given(st.lists(finite_floats, min_size=2, max_size=64), st.floats(0.1, 10.0))
    @example(values=[0.2, 0.1], factor=0.109375)
    @example(values=[0.2, 0.1], factor=0.125)
    @settings(max_examples=40, deadline=None)
    def test_quantization_is_scale_equivariant(self, values, factor):
        """Scaling a tensor leaves its codes unchanged, up to rounding ties.

        A power-of-two factor scales every product and quotient exactly, so
        the codes are equal.  Any other factor rounds ``v * factor`` and the
        scale, which can move ``v / scale`` across a half-integer: at
        ``values=[0.2, 0.1], factor=0.109375`` the second value lands on
        63.5 and rounds to 63 one way, 64 the other.  Codes then differ by
        one, and only at such a tie.
        """
        values = np.asarray(values)
        assume(np.abs(values).max() > 1e-3)
        params = compute_scale(values)
        scaled_params = compute_scale(values * factor)
        codes = quantize(values, params)
        scaled = quantize(values * factor, scaled_params)
        if np.frexp(factor)[0] == 0.5:
            np.testing.assert_array_equal(codes, scaled)
            return
        differ = codes != scaled
        assert np.all(np.abs(codes - scaled) <= 1)
        ratio = np.abs(values[differ] / params.scale)
        assert np.all(np.abs(ratio % 1.0 - 0.5) <= 1e-9), ratio


class TestBitLevelProperties:
    @given(st.lists(st.integers(-(2 ** 23), 2 ** 23 - 1), min_size=1, max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_unsigned_view_is_within_width(self, values):
        unsigned = to_unsigned(np.asarray(values, dtype=np.int64))
        assert unsigned.min() >= 0
        assert unsigned.max() < 2 ** 24

    @given(st.integers(0, 2 ** 24 - 1))
    @settings(max_examples=60, deadline=None)
    def test_signed_view_is_within_range(self, pattern):
        signed = to_signed(np.array([pattern]))[0]
        assert -(2 ** 23) <= signed <= 2 ** 23 - 1


class TestErrorModelProperties:
    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_uniform_model_mean_equals_ber(self, ber):
        model = UniformErrorModel(ber)
        assert abs(model.mean_rate() - ber) < 1e-12

    @given(st.floats(min_value=0.61, max_value=0.9), st.floats(min_value=0.61, max_value=0.9))
    @settings(max_examples=40, deadline=None)
    def test_timing_model_monotone_in_voltage(self, v1, v2):
        model = TimingErrorModel()
        low, high = min(v1, v2), max(v1, v2)
        assert model.mean_bit_error_rate(low) >= model.mean_bit_error_rate(high) - 1e-15


class TestEntropyProperties:
    @given(st.lists(st.floats(min_value=-20, max_value=20, allow_nan=False),
                    min_size=2, max_size=24))
    @settings(max_examples=60, deadline=None)
    def test_entropy_bounds(self, logits):
        value = action_entropy(np.asarray(logits))
        assert -1e-9 <= value <= max_entropy(len(logits)) + 1e-9

    @given(st.lists(st.floats(min_value=-20, max_value=20, allow_nan=False),
                    min_size=2, max_size=24),
           st.floats(min_value=-5, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_entropy_shift_invariant(self, logits, shift):
        logits = np.asarray(logits)
        assert action_entropy(logits) == np.float64(action_entropy(logits + shift)).round(9) \
            or abs(action_entropy(logits) - action_entropy(logits + shift)) < 1e-6

    @given(st.lists(st.floats(min_value=-30, max_value=30, allow_nan=False),
                    min_size=2, max_size=16))
    @settings(max_examples=40, deadline=None)
    def test_softmax_is_a_distribution(self, logits):
        probs = softmax(np.asarray(logits))
        assert probs.min() >= 0
        assert abs(probs.sum() - 1.0) < 1e-9


class TestRotationProperties:
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=8))
    @settings(max_examples=30, deadline=None)
    def test_hadamard_rotation_preserves_norm(self, power, rows):
        dim = 2 ** power
        rng = np.random.default_rng(rows)
        x = rng.normal(size=(rows, dim))
        rotated = x @ hadamard_matrix(dim)
        np.testing.assert_allclose(np.linalg.norm(rotated, axis=-1),
                                   np.linalg.norm(x, axis=-1), atol=1e-9)


class TestPolicyProperties:
    @given(st.floats(min_value=0.0, max_value=5.0), st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=60, deadline=None)
    def test_policy_monotone_non_increasing(self, e1, e2):
        policy = VoltagePolicy("p", (0.5, 1.0, 1.5), (0.82, 0.80, 0.78, 0.76))
        low, high = min(e1, e2), max(e1, e2)
        assert policy.voltage_for_entropy(low) >= policy.voltage_for_entropy(high)

    @given(st.lists(st.tuples(st.floats(0, 1), st.floats(0.6, 0.9)), min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_pareto_front_members_are_not_dominated(self, points):
        success = np.array([p[0] for p in points])
        voltage = np.array([p[1] for p in points])
        front = pareto_front(success, voltage)
        assert front  # at least one non-dominated point always exists
        for i in front:
            dominated = np.any((success >= success[i]) & (voltage <= voltage[i])
                               & ((success > success[i]) | (voltage < voltage[i])))
            assert not dominated


class TestHardwareProperties:
    @given(st.integers(1, 512), st.integers(1, 2048), st.integers(1, 2048))
    @settings(max_examples=40, deadline=None)
    def test_systolic_cycles_at_least_ideal(self, m, k, n):
        array = SystolicArray()
        schedule = array.schedule(GemmWorkload(m, k, n))
        ideal = m * k * n / array.config.num_pes
        assert schedule.cycles >= ideal
        assert 0 < schedule.utilization <= 1.0

    @given(st.floats(min_value=0.6, max_value=0.9))
    @settings(max_examples=40, deadline=None)
    def test_ldo_quantization_idempotent(self, voltage):
        ldo = DigitalLDO()
        once = ldo.quantize(voltage)
        assert ldo.quantize(once) == once
        assert 0.6 - 1e-9 <= once <= 0.9 + 1e-9

    @given(st.dictionaries(st.sampled_from([0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9]),
                           st.floats(min_value=1.0, max_value=1e9), min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_effective_voltage_within_schedule_range(self, macs_per_voltage):
        model = EnergyModel()
        effective = model.effective_voltage(macs_per_voltage)
        assert min(macs_per_voltage) - 1e-9 <= effective <= max(macs_per_voltage) + 1e-9


class TestAutogradProperties:
    @given(st.lists(finite_floats, min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_sum_gradient_is_ones(self, values):
        tensor = Tensor(np.asarray(values), requires_grad=True)
        tensor.sum().backward()
        np.testing.assert_allclose(tensor.grad, np.ones(len(values)))

    @given(st.lists(finite_floats, min_size=1, max_size=20), st.floats(-10, 10))
    @settings(max_examples=40, deadline=None)
    def test_linear_combination_gradient(self, values, coefficient):
        tensor = Tensor(np.asarray(values), requires_grad=True)
        (tensor * coefficient).sum().backward()
        np.testing.assert_allclose(tensor.grad, np.full(len(values), coefficient))


class TestWorldProperties:
    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=20, deadline=None)
    def test_inventory_only_grows_and_steps_monotone(self, seed):
        world = EmbodiedWorld(MINECRAFT_SUITE.get("wooden"), MINECRAFT_SUBTASKS,
                              WorldConfig(), np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 1)
        world.set_subtask("mine_logs")
        previous_inventory = set()
        previous_steps = 0
        for _ in range(40):
            world.step(int(rng.integers(0, NUM_ACTIONS)))
            assert previous_inventory <= world.inventory
            assert world.steps_taken == previous_steps + 1
            previous_inventory = set(world.inventory)
            previous_steps = world.steps_taken
