"""Tests for metrics, resilience sweeps, experiment runners and reporting."""

import numpy as np
import pytest

from repro.agents import TrialResult
from repro.core import CreateConfig, default_policy
from repro.eval import (
    SweepResult,
    banner,
    ber_sweep,
    confidence_interval,
    energy_savings_percent,
    format_series,
    format_sweep,
    format_table,
    summarize_trials,
)
from repro.eval import experiments
from repro.eval.resilience import SweepPoint, stage_entropy_profile
from repro.hardware import NOMINAL_VOLTAGE


def _fake_trial(success: bool, steps: int, macs: float = 1e6,
                voltage: float = NOMINAL_VOLTAGE) -> TrialResult:
    result = TrialResult(task="wooden", success=success, steps=steps,
                         planner_invocations=1, controller_steps=steps)
    result.controller_macs_by_voltage = {voltage: macs}
    return result


class TestMetrics:
    def test_summary_rates_and_steps(self):
        trials = [_fake_trial(True, 100), _fake_trial(True, 120), _fake_trial(False, 900)]
        summary = summarize_trials(trials)
        assert summary.success_rate == pytest.approx(2 / 3)
        assert summary.average_steps_successful == pytest.approx(110)
        assert summary.average_steps == pytest.approx((100 + 120 + 900) / 3)
        assert summary.num_trials == 3
        assert summary.mean_energy_j > 0

    def test_summary_empty_raises(self):
        with pytest.raises(ValueError):
            summarize_trials([])

    def test_effective_voltage_tracks_low_voltage_trials(self):
        low = [_fake_trial(True, 50, voltage=0.7)]
        summary = summarize_trials(low)
        assert summary.effective_voltage == pytest.approx(0.7)

    def test_confidence_interval_shrinks_with_trials(self):
        wide = confidence_interval(50, 100)
        narrow = confidence_interval(500, 1000)
        assert narrow < wide
        with pytest.raises(ValueError):
            confidence_interval(1, 0)

    def test_confidence_interval_reads_the_z_table(self):
        from repro.eval.analysis import wilson_interval
        from repro.eval.metrics import Z_SCORES

        for confidence, z in Z_SCORES.items():
            assert confidence_interval(30, 120, confidence) == \
                z * np.sqrt(0.25 * 0.75 / 120)
        # A level missing from the table fails like ``report --confidence``.
        with pytest.raises(ValueError, match="unsupported confidence 0.97") as ours:
            confidence_interval(5, 10, confidence=0.97)
        with pytest.raises(ValueError) as report:
            wilson_interval(5, 10, confidence=0.97)
        assert str(ours.value) == str(report.value)

    def test_energy_savings_percent(self):
        assert energy_savings_percent(10.0, 6.0) == pytest.approx(40.0)
        with pytest.raises(ValueError):
            energy_savings_percent(0.0, 1.0)

    def test_summary_as_dict_keys(self):
        summary = summarize_trials([_fake_trial(True, 10)])
        assert "success_rate" in summary.as_dict()


class TestSweepResult:
    def _sweep(self):
        points = [
            SweepPoint(1e-5, summarize_trials([_fake_trial(True, 50)] * 4)),
            SweepPoint(1e-4, summarize_trials([_fake_trial(True, 60)] * 3 + [_fake_trial(False, 900)])),
            SweepPoint(1e-3, summarize_trials([_fake_trial(False, 900)] * 4)),
        ]
        return SweepResult(label="test", task="wooden", points=points)

    def test_arrays(self):
        sweep = self._sweep()
        np.testing.assert_allclose(sweep.bers(), [1e-5, 1e-4, 1e-3])
        assert sweep.success_rates()[0] == 1.0
        assert sweep.average_steps()[-1] == 900

    def test_failure_threshold(self):
        sweep = self._sweep()
        assert sweep.failure_threshold(0.5) == pytest.approx(1e-3)
        assert sweep.failure_threshold(0.9) == pytest.approx(1e-4)


class TestLiveSweeps:
    def test_ber_sweep_controller_degrades_monotonically(self):
        sweep = ber_sweep("jarvis", "wooden", [1e-5, 1e-2], target="controller",
                          num_trials=4, seed=0)
        rates = sweep.success_rates()
        assert rates[0] >= rates[-1]
        assert rates[0] >= 0.75
        assert rates[-1] <= 0.25

    def test_ber_sweep_invalid_target(self):
        with pytest.raises(ValueError):
            ber_sweep("jarvis", "wooden", [1e-4], target="nobody")

    def test_stage_entropy_profile_separates(self, jarvis_system):
        profile = stage_entropy_profile(jarvis_system, "wooden", num_trials=2, seed=1)
        assert profile["separation"] > 0.3


class TestExperimentRunners:
    def test_motivation_curves_shapes(self):
        curves = experiments.motivation_curves()
        assert curves["voltages"].shape == curves["mean_ber"].shape
        assert np.all(np.diff(curves["mean_ber"]) <= 1e-12)  # BER falls as voltage rises
        assert np.all(np.diff(curves["dynamic_energy_scale"]) > 0)

    def test_timing_error_table(self):
        table = experiments.timing_error_table([0.8, 0.75])
        assert set(table) == {0.8, 0.75}
        assert np.all(table[0.75] >= table[0.8])

    def test_gemm_output_profile(self, jarvis_system):
        profile = experiments.gemm_output_profile(jarvis_system)
        assert profile["planner_max_bound"] > profile["controller_max_bound"] * 0.0
        assert profile["planner_median_bound"] > 0

    def test_rotation_study_tightens_bounds(self, jarvis_system, jarvis_system_rotated):
        study = experiments.rotation_study(jarvis_system, jarvis_system_rotated)
        assert study["outlier_ratio_after"] < study["outlier_ratio_before"]
        assert study["bound_tightening"] > 1.0

    def test_hardware_report_keys(self):
        report = experiments.hardware_report()
        assert report["peak_tops"] > 100
        assert set(report["blocks"]) == {"LDO", "AD Unit", "PE Array", "SRAM"}
        assert report["ldo_spec"]["step_v"] == pytest.approx(0.01)

    def test_model_table_contains_all_models(self):
        table = experiments.model_table()
        assert len(table) == 7
        assert table["jarvis_planner"]["modelled_params_millions"] == pytest.approx(
            table["jarvis_planner"]["paper_params_millions"], rel=0.25)

    def test_chip_energy_breakdown_fractions(self):
        breakdown = experiments.chip_energy_breakdown()
        for entry in breakdown.values():
            assert 0 < entry["compute_fraction"] < 1
            assert entry["chip_level_savings_percent"] < entry["compute_savings_percent"]
            assert entry["battery_life_extension_percent"] > 0

    def test_repetition_study_converges(self):
        rates = experiments.repetition_study("jarvis", "wooden", 1e-5,
                                             repetition_counts=[4, 8], seed=0)
        assert set(rates) == {4, 8}
        assert all(0 <= r <= 1 for r in rates.values())

    def test_interval_sweep_returns_all_intervals(self):
        result = experiments.interval_sweep("jarvis", "wooden", intervals=[1, 10],
                                            num_trials=2, seed=0)
        assert set(result) == {1, 10}

    def test_minimum_voltage_search_finds_voltage(self):
        config = CreateConfig(ad=True, wr=True, vs_policy=None)
        voltage, summaries = experiments.minimum_voltage_search(
            "jarvis-rotated", "wooden", config, voltages=[0.84, 0.80],
            num_trials=2, seed=0, success_threshold=0.5)
        assert voltage in (0.84, 0.80, NOMINAL_VOLTAGE)
        assert summaries


class TestReporting:
    def test_banner(self):
        assert "Fig. 5" in banner("Fig. 5")

    def test_format_table_alignment(self):
        text = format_table(["a", "metric"], [[1, 0.5], [2, 1234567.0]], title="T")
        assert "T" in text and "metric" in text
        assert "1.235e+06" in text

    def test_format_series(self):
        text = format_series("x", "y", [1, 2], [0.1, 0.2])
        assert text.count("\n") >= 3

    def test_format_sweep(self):
        points = [SweepPoint(1e-4, summarize_trials([_fake_trial(True, 10)]))]
        sweeps = {"label": SweepResult("label", "wooden", points)}
        text = format_sweep(sweeps, title="sweep")
        assert "label" in text and "1.0e-04" in text

    def test_format_sweep_empty(self):
        assert format_sweep({}, title="empty") == "empty"
