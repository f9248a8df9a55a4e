"""Tests for the circuit/chip substrate: timing, systolic array, energy, LDO, accelerator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware import (
    Accelerator,
    AcceleratorConfig,
    AnomalyDetectionRow,
    BatteryModel,
    DigitalLDO,
    EnergyModel,
    GemmWorkload,
    LdoSpec,
    MemoryConfig,
    MIN_VOLTAGE,
    NOMINAL_VOLTAGE,
    ScaleSimModel,
    SystolicArray,
    SystolicArrayConfig,
    TimingErrorModel,
    TimingModelConfig,
)


class TestTimingModel:
    def test_nominal_voltage_nearly_error_free(self):
        model = TimingErrorModel()
        assert model.mean_bit_error_rate(NOMINAL_VOLTAGE) < 1e-8

    def test_ber_monotone_in_voltage(self):
        model = TimingErrorModel()
        voltages = [0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9]
        rates = [model.mean_bit_error_rate(v) for v in voltages]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_higher_bits_fail_first(self):
        rates = TimingErrorModel().bit_error_rates(0.78)
        assert rates[23] > rates[16] > rates[8]

    @given(st.floats(min_value=0.6, max_value=0.9),
           st.integers(min_value=0, max_value=22))
    @settings(max_examples=60, deadline=None)
    def test_per_bit_monotone_in_bit_position(self, voltage, bit):
        model = TimingErrorModel()
        assert model.bit_error_rate(bit + 1, voltage) >= model.bit_error_rate(bit, voltage)

    def test_voltage_below_threshold_rejected(self):
        with pytest.raises(ValueError):
            TimingErrorModel().bit_error_rate(0, 0.2)

    def test_invalid_bit(self):
        with pytest.raises(ValueError):
            TimingErrorModel().path_delay_ns(30, 0.8)

    def test_voltage_for_ber_inverse(self):
        model = TimingErrorModel()
        target = 1e-5
        voltage = model.voltage_for_ber(target)
        assert model.mean_bit_error_rate(voltage) <= target
        assert model.mean_bit_error_rate(voltage - 0.02) > target

    def test_voltage_for_ber_bounds(self):
        model = TimingErrorModel()
        assert model.voltage_for_ber(0.999) == MIN_VOLTAGE
        with pytest.raises(ValueError):
            model.voltage_for_ber(0.0)

    def test_table_contains_requested_voltages(self):
        table = TimingErrorModel().table(np.array([0.7, 0.8]))
        assert set(table) == {0.7, 0.8}
        assert table[0.7].shape == (24,)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TimingModelConfig(threshold_voltage=1.0)

    def test_rate_memo_matches_direct_evaluation(self):
        model = TimingErrorModel()
        for voltage in (0.66, 0.74, 0.82, 0.74, 0.9):
            rates = model.bit_error_rates(voltage)
            np.testing.assert_array_equal(
                rates, [model.bit_error_rate(bit, voltage) for bit in range(24)])
            assert model.bit_error_rates(voltage) is rates
            with pytest.raises(ValueError):
                rates[0] = 0.5

    def test_rate_memo_is_bounded_and_follows_config(self, monkeypatch):
        from repro.hardware import timing

        monkeypatch.setattr(timing, "RATES_MEMO_SIZE", 4)
        model = TimingErrorModel()
        for step in range(10):
            model.bit_error_rates(0.6 + step * 1e-3)
        assert len(model._rates_memo) == 4
        before = model.bit_error_rates(0.75)
        model.config = TimingModelConfig(delay_sigma=0.08)
        after = model.bit_error_rates(0.75)
        assert after[23] != before[23]
        assert after[23] == model.bit_error_rate(23, 0.75)


class TestVendoredNormalTail:
    """``timing._ndtr`` against scipy, which is a test-only dependency.

    Equality is of float64 bit patterns, so a last-ulp difference (or a
    NaN of another sign) fails; the reference is scipy's vectorized ufunc.
    """

    @staticmethod
    def _points() -> np.ndarray:
        rng = np.random.default_rng(2024)
        parts = [rng.uniform(-40.0, 40.0, 420_000), rng.normal(0.0, 3.0, 420_000),
                 np.array([0.0, -0.0, np.inf, -np.inf, np.nan])]
        # Branch points |x| / sqrt(2) = 1 and 8 (erf vs erfc, the two erfc
        # approximations) and the underflow edge near 37.5, where the tail
        # runs through the subnormals to zero.
        for center in (np.sqrt(2.0), 8.0 * np.sqrt(2.0), 37.5):
            for sign in (1.0, -1.0):
                parts.append(sign * np.linspace(center - 0.02, center + 0.02,
                                                20_001))
                step = np.full(1000, sign * center)
                parts.append(np.nextafter(step, np.inf)
                             + np.arange(1000) * np.spacing(center))
                parts.append(np.nextafter(step, -np.inf)
                             - np.arange(1000) * np.spacing(center))
        parts.append(np.linspace(36.0, 39.0, 40_001))
        return np.concatenate(parts)

    def test_bit_identical_to_scipy(self):
        from scipy.special import ndtr
        from scipy.stats import norm

        from repro.hardware.timing import _ndtr

        x = self._points()
        assert x.size >= 1_000_000
        ours = np.array([_ndtr(-value) for value in x.tolist()])
        for reference in (ndtr(-x), norm.sf(x)):
            differ = ours.view(np.uint64) != reference.view(np.uint64)
            assert not differ.any(), x[differ][:5]
        assert ours[np.isinf(x)].tolist() == [0.0, 1.0]
        assert (ours[(x > 37.7) & np.isfinite(x)] == 0.0).all()

    @pytest.mark.parametrize("accumulator_bits", [24, 16])
    def test_rates_equal_the_scipy_model(self, accumulator_bits):
        """``bit_error_rates`` at every mV from 0.600 to 0.900 V equals the
        scipy-based ``bit_error_rate`` it replaced, bit for bit."""
        from scipy.stats import norm

        def scipy_rates(model, voltage):
            cfg = model.config
            slack_over_sigma = []
            for bit in range(cfg.accumulator_bits):
                delay = model.path_delay_ns(bit, voltage)
                sigma = max(cfg.delay_sigma * delay, 1e-9)
                slack = cfg.clock_period_ns - delay
                slack_over_sigma.append(slack / sigma)
            return np.clip(norm.sf(np.array(slack_over_sigma)) + cfg.error_floor,
                           0.0, 1.0)

        model = TimingErrorModel(TimingModelConfig(accumulator_bits=accumulator_bits))
        for millivolts in range(600, 901):
            voltage = millivolts / 1000
            ours = model.bit_error_rates(voltage)
            reference = scipy_rates(model, voltage)
            assert ours.view(np.uint64).tolist() == \
                reference.view(np.uint64).tolist(), voltage


class TestSystolicArray:
    def test_peak_throughput(self):
        config = SystolicArrayConfig()
        assert config.num_pes == 128 * 128
        assert config.peak_ops_per_second == pytest.approx(128 * 128 * 2 * 500e6)

    def test_schedule_tiles(self):
        array = SystolicArray()
        schedule = array.schedule(GemmWorkload(64, 300, 200))
        assert schedule.row_tiles == 3 and schedule.col_tiles == 2
        assert schedule.total_tiles == 6
        assert 0 < schedule.utilization <= 1.0

    def test_cycles_scale_with_m(self):
        array = SystolicArray()
        small = array.schedule(GemmWorkload(16, 128, 128)).cycles
        large = array.schedule(GemmWorkload(256, 128, 128)).cycles
        assert large > small

    def test_network_cycles_sum(self):
        array = SystolicArray()
        workloads = [GemmWorkload(8, 64, 64), GemmWorkload(8, 64, 64)]
        assert array.network_cycles(workloads) == 2 * array.schedule(workloads[0]).cycles

    def test_invalid_workload(self):
        with pytest.raises(ValueError):
            GemmWorkload(0, 4, 4)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SystolicArrayConfig(rows=0)


class TestScaleSim:
    def test_small_network_weights_fit(self):
        model = ScaleSimModel()
        report = model.simulate("tiny", [GemmWorkload(4, 64, 64)], invocations=10)
        assert report.weights_fit_on_chip
        assert report.dram_read_bytes == 64 * 64  # loaded once
        assert report.compute_cycles > 0
        assert report.macs == 10 * 4 * 64 * 64

    def test_large_network_streams_weights(self):
        model = ScaleSimModel(memory_config=MemoryConfig(sram_bytes=1024))
        report = model.simulate("big", [GemmWorkload(4, 256, 256)], invocations=3)
        assert not report.weights_fit_on_chip
        assert report.dram_read_bytes == 3 * 256 * 256

    def test_latency_positive(self):
        model = ScaleSimModel()
        report = model.simulate("net", [GemmWorkload(64, 512, 512)])
        assert model.latency_ms(report) > 0

    def test_invalid_invocations(self):
        with pytest.raises(ValueError):
            ScaleSimModel().simulate("x", [GemmWorkload(1, 1, 1)], invocations=0)


class TestEnergyModel:
    def test_voltage_scaling_quadratic(self):
        model = EnergyModel()
        assert model.voltage_scale(0.45) == pytest.approx(0.25)

    def test_lower_voltage_saves_energy(self):
        model = EnergyModel()
        assert model.mac_energy_j(1e9, 0.7) < model.mac_energy_j(1e9, 0.9)

    def test_effective_voltage_between_extremes(self):
        model = EnergyModel()
        effective = model.effective_voltage({0.9: 100, 0.7: 100})
        assert 0.7 < effective < 0.9

    def test_effective_voltage_empty(self):
        assert EnergyModel().effective_voltage({}) == NOMINAL_VOLTAGE

    def test_compute_energy_accepts_pairs(self):
        model = EnergyModel()
        a = model.compute_energy_j({0.8: 1000})
        b = model.compute_energy_j([(0.8, 1000)])
        assert a == pytest.approx(b)

    def test_breakdown_sums(self):
        model = EnergyModel()
        breakdown = model.breakdown({0.9: 1e9}, sram_bytes=1e6, dram_bytes=1e6)
        assert breakdown.total_j == pytest.approx(
            breakdown.compute_j + breakdown.sram_j + breakdown.dram_j + breakdown.overhead_j)
        assert 0 < breakdown.compute_fraction() < 1

    def test_breakdown_addition(self):
        model = EnergyModel()
        one = model.breakdown({0.9: 1e6}, 0, 0)
        both = one + one
        assert both.compute_j == pytest.approx(2 * one.compute_j)

    def test_invalid_voltage(self):
        with pytest.raises(ValueError):
            EnergyModel().voltage_scale(0.0)

    def test_battery_life_extension(self):
        battery = BatteryModel()
        assert battery.life_extension_percent(0.6) > 0
        assert battery.life_extension_percent(1.0) == pytest.approx(0.0)
        assert battery.battery_life_hours(0.5) > battery.battery_life_hours(1.0)

    def test_battery_invalid_scale(self):
        with pytest.raises(ValueError):
            BatteryModel().total_power_w(-0.1)


class TestDigitalLDO:
    def test_quantizes_to_step(self):
        ldo = DigitalLDO()
        assert ldo.quantize(0.7512) == pytest.approx(0.75)
        assert ldo.quantize(2.0) == pytest.approx(0.9)
        assert ldo.quantize(0.1) == pytest.approx(0.6)

    def test_set_voltage_records_transition(self):
        ldo = DigitalLDO()
        transition = ldo.set_voltage(0.75)
        assert ldo.voltage == pytest.approx(0.75)
        assert transition.latency_ns == pytest.approx((0.15 * 1000 / 50) * 90)
        assert ldo.num_switches == 1

    def test_noop_change_not_counted_as_switch(self):
        ldo = DigitalLDO()
        ldo.set_voltage(0.9)
        assert ldo.num_switches == 0
        assert len(ldo.trace) == 2

    def test_worst_case_latency_bounded(self):
        ldo = DigitalLDO()
        assert ldo.worst_case_latency_ns == pytest.approx(540.0)

    def test_regulation_efficiency(self):
        ldo = DigitalLDO()
        assert ldo.regulation_efficiency(15.2) == pytest.approx(0.998, abs=1e-3)
        assert ldo.regulation_efficiency(0.1) < 0.998
        with pytest.raises(ValueError):
            ldo.regulation_efficiency(0.0)

    def test_reset(self):
        ldo = DigitalLDO()
        ldo.set_voltage(0.7)
        ldo.reset()
        assert ldo.voltage == pytest.approx(0.9)
        assert ldo.num_switches == 0

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            LdoSpec(v_min=0.9, v_max=0.6)


class TestAnomalyRowAndAccelerator:
    def test_anomaly_row_overheads_are_small(self):
        row = AnomalyDetectionRow(128)
        area_frac, power_frac = row.overhead_fractions(195.5, 12.0)
        assert area_frac < 0.01 and power_frac < 0.01

    def test_anomaly_row_invalid(self):
        with pytest.raises(ValueError):
            AnomalyDetectionRow(0)
        with pytest.raises(ValueError):
            AnomalyDetectionRow(4).overhead_fractions(0.0, 1.0)

    def test_accelerator_report(self):
        accelerator = Accelerator()
        report = accelerator.report({"net": [GemmWorkload(32, 256, 256)]})
        assert report.peak_tops > 100
        assert report.total_area_mm2 > 200
        assert report.ad_area_overhead < 0.01
        assert report.ldo_power_overhead < 0.01
        assert report.latencies_ms["net"] > 0
        assert report.voltage_switch_latency_ns == pytest.approx(540.0)

    def test_accelerator_latency_scales_with_arrays(self):
        small = Accelerator(AcceleratorConfig(num_arrays=1))
        large = Accelerator(AcceleratorConfig(num_arrays=9))
        workload = [GemmWorkload(128, 1024, 1024)]
        assert large.network_latency_ms(workload) < small.network_latency_ms(workload)
