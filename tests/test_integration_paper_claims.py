"""Integration tests: the paper's qualitative claims must hold at test scale.

These run small numbers of trials, so they assert orderings and clear-cut
effects rather than exact percentages; the benchmarks in ``benchmarks/`` run
the full-size versions.
"""

import numpy as np
import pytest

from repro.core import (
    ConstantVoltagePolicy,
    CreateConfig,
    ProtectionConfig,
    REFERENCE_POLICIES,
    VoltageScalingConfig,
    default_policy,
)
from repro.eval import ber_sweep, summarize_trials
from repro.eval.resilience import component_sweep
from repro.faults import UniformErrorModel
from repro.hardware import EnergyModel, NOMINAL_VOLTAGE


def _wooden(count: int, seed: int, planner=None, controller=None) -> list[tuple]:
    """``count`` wooden trials seeded ``seed``, ``seed + 1``, ..., under the
    given planner and controller protections."""
    return [("wooden", seed + index, planner, controller) for index in range(count)]


class TestInsight1PlannerVsController:
    """Sec. 4.1: the controller is more error resilient than the planner."""

    def test_controller_survives_ber_that_breaks_planner(self):
        ber = 6e-4
        planner_sweep = ber_sweep("jarvis", "wooden", [ber], target="planner",
                                  num_trials=8, seed=0)
        controller_sweep = ber_sweep("jarvis", "wooden", [ber], target="controller",
                                     num_trials=8, seed=0)
        assert controller_sweep.success_rates()[0] > planner_sweep.success_rates()[0]

    def test_both_robust_at_low_ber(self):
        for target in ("planner", "controller"):
            sweep = ber_sweep("jarvis", "wooden", [1e-6], target=target,
                              num_trials=5, seed=1)
            assert sweep.success_rates()[0] >= 0.8

    def test_average_steps_grow_before_success_collapses(self):
        sweep = ber_sweep("jarvis", "wooden", [1e-6, 3e-4], target="controller",
                          num_trials=6, seed=2)
        assert sweep.average_steps()[1] > sweep.average_steps()[0]


class TestInsight2ComponentVulnerability:
    """Sec. 4.1: pre-norm components (O/Down) are more vulnerable than K in the planner."""

    def test_o_down_worse_than_k(self):
        groups = {"K": ("*.k",), "O+Down": ("*.o", "*.down")}
        results = component_sweep("jarvis", "wooden", [2e-3], groups,
                                  target="planner", num_trials=8, seed=3)
        assert results["K"].success_rates()[0] >= results["O+Down"].success_rates()[0]


class TestInsight3StageAndSubtaskDependence:
    """Sec. 4.2: resilience depends on the subtask type and execution stage."""

    def test_stochastic_subtask_more_resilient_than_sequential(self):
        ber = 1.2e-3
        seq = ber_sweep("jarvis", "log", [ber], target="controller", num_trials=8, seed=4)
        sto = ber_sweep("jarvis", "seed", [ber], target="controller", num_trials=8, seed=4)
        assert sto.success_rates()[0] >= seq.success_rates()[0]

    def test_entropy_separates_critical_steps(self, jarvis_executor):
        result = jarvis_executor.run_trial("wooden", seed=5)
        entropies, critical, _ = result.entropy_trace.as_arrays()
        assert entropies[critical].mean() < entropies[~critical].mean()


class TestAnomalyDetectionAndClearance:
    """Sec. 5.1 / 6.3: AD recovers task quality under aggressive error rates."""

    def test_ad_recovers_planner(self):
        ber = 2e-3
        base = ber_sweep("jarvis", "wooden", [ber], target="planner",
                         num_trials=8, seed=6, anomaly_detection=False)
        with_ad = ber_sweep("jarvis", "wooden", [ber], target="planner",
                            num_trials=8, seed=6, anomaly_detection=True)
        assert with_ad.success_rates()[0] > base.success_rates()[0]

    def test_ad_recovers_controller(self):
        ber = 2e-3
        base = ber_sweep("jarvis", "wooden", [ber], target="controller",
                         num_trials=8, seed=7, anomaly_detection=False)
        with_ad = ber_sweep("jarvis", "wooden", [ber], target="controller",
                            num_trials=8, seed=7, anomaly_detection=True)
        assert with_ad.success_rates()[0] >= base.success_rates()[0] + 0.2


class TestWeightRotationEnhancedPlanning:
    """Sec. 5.2 / 6.4: WR improves planner robustness beyond AD alone."""

    def test_wr_plus_ad_beats_ad_alone_at_high_ber(self):
        ber = 2e-2
        plain = ber_sweep("jarvis", "wooden", [ber], target="planner",
                          num_trials=8, seed=8, anomaly_detection=True)
        rotated = ber_sweep("jarvis-rotated", "wooden", [ber], target="planner",
                            num_trials=8, seed=8, anomaly_detection=True)
        assert rotated.success_rates()[0] >= plain.success_rates()[0]

    def test_wr_does_not_hurt_clean_accuracy(self, jarvis_system_rotated):
        result = jarvis_system_rotated.executor().run_trial("wooden", seed=9)
        assert result.success


class TestAutonomyAdaptiveVoltageScaling:
    """Sec. 5.3 / 6.5: VS lowers effective voltage without hurting success."""

    def test_vs_lowers_effective_voltage_vs_safe_constant(self, jarvis_system):
        executor = jarvis_system.executor()
        policy = REFERENCE_POLICIES["C"]
        vs_protection = ProtectionConfig(
            anomaly_detection=True,
            voltage_scaling=VoltageScalingConfig(policy=policy, entropy_source="oracle"))
        constant_protection = ProtectionConfig(voltage=policy.max_voltage(),
                                               anomaly_detection=True)
        vs_trials = executor.run_trial_group(
            _wooden(6, seed=10, controller=vs_protection))
        const_trials = executor.run_trial_group(
            _wooden(6, seed=10, controller=constant_protection))
        vs_summary = summarize_trials(vs_trials)
        const_summary = summarize_trials(const_trials)
        assert vs_summary.success_rate >= const_summary.success_rate - 0.2
        assert vs_summary.effective_voltage < const_summary.effective_voltage

    def test_vs_with_predictor_matches_oracle_closely(self, jarvis_system):
        executor = jarvis_system.executor()
        policy = default_policy()
        summaries = {}
        for source in ("oracle", "predictor"):
            protection = ProtectionConfig(
                anomaly_detection=True,
                voltage_scaling=VoltageScalingConfig(policy=policy, entropy_source=source))
            trials = executor.run_trial_group(
                _wooden(5, seed=11, controller=protection))
            summaries[source] = summarize_trials(trials)
        assert summaries["predictor"].success_rate >= summaries["oracle"].success_rate - 0.25


class TestEndToEndCreate:
    """Sec. 6.7: the full CREATE stack saves energy at iso task quality."""

    def test_full_stack_saves_energy_without_losing_success(self, jarvis_system,
                                                            jarvis_system_rotated):
        energy_model = EnergyModel()
        baseline_exec = jarvis_system.executor()
        baseline = summarize_trials(
            baseline_exec.run_trial_group(_wooden(6, seed=12)))

        config = CreateConfig(ad=True, wr=True, vs_policy=default_policy(),
                              vs_entropy_source="oracle", planner_voltage=0.78)
        create_exec = jarvis_system_rotated.executor()
        create_trials = create_exec.run_trial_group(
            _wooden(6, seed=12, planner=config.planner_protection(),
                    controller=config.controller_protection()))
        create_summary = summarize_trials(create_trials)

        assert create_summary.success_rate >= baseline.success_rate - 0.2
        assert create_summary.mean_energy_j < baseline.mean_energy_j
        savings = 1.0 - create_summary.mean_energy_j / baseline.mean_energy_j
        assert savings > 0.15

    def test_unprotected_low_voltage_fails(self, jarvis_system):
        executor = jarvis_system.executor()
        protection = ProtectionConfig(voltage=0.72)
        trials = executor.run_trial_group(
            _wooden(5, seed=13, planner=protection, controller=protection))
        assert summarize_trials(trials).success_rate <= 0.4
