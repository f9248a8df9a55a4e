"""Tests for the controller surrogate, the executor and the system builders."""

import numpy as np
import pytest

from repro.agents import (
    CONTROLLER_CONFIGS,
    ControllerConfig,
    ControllerNetwork,
    DeployedController,
    TrialResult,
    build_controller_dataset,
    build_protection_hooks,
    controller_agreement,
    get_controller_network,
)
from repro.agents.platforms import (
    PAPER_CONTROLLER_ARCHS,
    PAPER_PLANNER_ARCHS,
    controller_inference_workloads,
    planner_inference_workloads,
    predictor_inference_workloads,
    transformer_workloads,
)
from repro.core import ProtectionConfig, VoltageScalingConfig, default_policy
from repro.core.entropy import action_entropy
from repro.env import ALL_SUBTASKS, MINECRAFT_SUBTASKS, MINECRAFT_SUITE, NUM_ACTIONS, WorldConfig
from repro.faults import UniformErrorModel
from repro.hardware import NOMINAL_VOLTAGE
from repro.nn import no_grad
from repro.quant import GemmHooks


class TestControllerNetwork:
    def test_forward_shape(self):
        config = ControllerConfig(name="tiny", benchmark="minecraft", num_layers=1, dim=16,
                                  num_heads=2, mlp_dim=32)
        network = ControllerNetwork(config)
        with no_grad():
            logits = network(np.array([0, 1]), np.random.default_rng(0).normal(size=(2, 31)))
        assert logits.shape == (2, NUM_ACTIONS)

    def test_dataset_generation(self):
        ids, obs, targets = build_controller_dataset(MINECRAFT_SUITE, MINECRAFT_SUBTASKS,
                                                     num_episodes=2, seed=1)
        assert ids.shape[0] == obs.shape[0] == targets.shape[0]
        assert obs.shape[1] == 31
        np.testing.assert_allclose(targets.sum(axis=1), 1.0)

    def test_cached_controller_agrees_with_oracle(self, jarvis_system):
        network = get_controller_network("jarvis")
        assert controller_agreement(network, MINECRAFT_SUITE, MINECRAFT_SUBTASKS) >= 0.9

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ControllerConfig(name="bad", benchmark="minecraft", dim=30, num_heads=4)
        with pytest.raises(ValueError):
            ControllerConfig(name="bad", benchmark="minecraft", num_obs_tokens=0)


class TestDeployedController:
    def test_quantized_matches_float_argmax(self, deployed_controller, wooden_world):
        wooden_world.set_subtask("mine_logs")
        token = ALL_SUBTASKS.token_id("mine_logs")
        matches = 0
        for _ in range(15):
            obs = wooden_world.observation()
            float_logits = deployed_controller.act_logits(token, obs, quantized=False)
            quant_logits = deployed_controller.act_logits(token, obs, quantized=True)
            matches += int(np.argmax(float_logits) == np.argmax(quant_logits))
            wooden_world.step(int(np.argmax(float_logits)))
        assert matches >= 13

    def test_entropy_lower_on_critical_steps(self, deployed_controller):
        from repro.env import EmbodiedWorld

        world = EmbodiedWorld(MINECRAFT_SUITE.get("wooden"), MINECRAFT_SUBTASKS,
                              WorldConfig(), np.random.default_rng(7))
        world.set_subtask("mine_logs")
        token = ALL_SUBTASKS.token_id("mine_logs")
        exploration_entropy = action_entropy(
            deployed_controller.act_logits(token, world.observation(), quantized=False))
        world.inventory.add("mine_logs")
        world.set_subtask("craft_planks")
        token2 = ALL_SUBTASKS.token_id("craft_planks")
        execution_entropy = action_entropy(
            deployed_controller.act_logits(token2, world.observation(), quantized=False))
        assert execution_entropy < exploration_entropy

    def test_component_names_and_bounds(self, deployed_controller):
        names = deployed_controller.component_names()
        assert "obs_proj" in names and "policy_head" in names and "layer0.fc1" in names
        bounds = deployed_controller.output_bounds()
        assert set(bounds) == set(names)

    def test_activation_capture(self, deployed_controller, wooden_world):
        wooden_world.set_subtask("mine_logs")
        activations = deployed_controller.capture_activations(
            ALL_SUBTASKS.token_id("mine_logs"), wooden_world.observation(), quantized=False)
        assert len(activations) == 2 * deployed_controller.config.num_layers

    def test_macs_per_step_positive(self, deployed_controller):
        assert deployed_controller.macs_per_step > 10_000

    def test_injection_changes_logits(self, deployed_controller, wooden_world):
        from repro.faults import ErrorInjector

        wooden_world.set_subtask("mine_logs")
        token = ALL_SUBTASKS.token_id("mine_logs")
        obs = wooden_world.observation()
        clean = deployed_controller.act_logits(token, obs, quantized=True)
        injector = ErrorInjector(UniformErrorModel(5e-2), rng=np.random.default_rng(0))
        noisy = deployed_controller.act_logits(
            token, obs, context=deployed_controller.kernel_context(
                GemmHooks(injector=injector)))
        assert not np.allclose(clean, noisy)


class TestProtectionHooks:
    def test_clean_protection_has_no_injector(self, rng):
        hooks, injector, detector = build_protection_hooks(ProtectionConfig(), rng)
        assert injector is None and detector is None and hooks.injector is None

    def test_voltage_protection_builds_voltage_model(self, rng):
        hooks, injector, _ = build_protection_hooks(ProtectionConfig(voltage=0.75), rng)
        assert injector is not None
        assert injector.model.describe().startswith("voltage")

    def test_error_model_takes_precedence(self, rng):
        protection = ProtectionConfig(voltage=0.75, error_model=UniformErrorModel(1e-4))
        _, injector, _ = build_protection_hooks(protection, rng)
        assert injector.model.describe().startswith("uniform")

    def test_ad_flag_builds_detector(self, rng):
        _, _, detector = build_protection_hooks(
            ProtectionConfig(voltage=0.8, anomaly_detection=True), rng)
        assert detector is not None

    def test_thundervolt_kind(self, rng):
        from repro.core.baselines import ThUnderVoltInjector

        _, injector, _ = build_protection_hooks(
            ProtectionConfig(voltage=0.8, injector_kind="thundervolt"), rng)
        assert isinstance(injector, ThUnderVoltInjector)


class TestExecutor:
    def test_clean_trial_succeeds(self, jarvis_executor):
        result = jarvis_executor.run_trial("wooden", seed=11)
        assert result.success
        assert 0 < result.steps < 900
        assert result.planner_invocations >= 1
        assert result.controller_steps > 0
        assert len(result.entropy_trace) == result.controller_steps

    def test_clean_trials_across_all_minecraft_tasks(self, jarvis_executor):
        for task in ("stone", "charcoal", "seed", "log"):
            assert jarvis_executor.run_trial(task, seed=3).success

    def test_effective_voltage_nominal_when_clean(self, jarvis_executor):
        result = jarvis_executor.run_trial("wooden", seed=5)
        assert result.effective_voltage() == pytest.approx(NOMINAL_VOLTAGE)
        assert result.computational_energy_j() > 0

    def test_macs_accounting_merges_sources(self, jarvis_executor):
        result = jarvis_executor.run_trial("wooden", seed=6)
        merged = result.macs_by_voltage()
        assert sum(merged.values()) == pytest.approx(
            sum(result.planner_macs_by_voltage.values())
            + sum(result.controller_macs_by_voltage.values())
            + sum(result.predictor_macs_by_voltage.values()))

    def test_high_controller_ber_fails_and_charges_full_budget(self, jarvis_executor):
        protection = ProtectionConfig(error_model=UniformErrorModel(3e-2))
        result = jarvis_executor.run_trial("wooden", seed=7,
                                           controller_protection=protection)
        assert not result.success
        assert result.steps == jarvis_executor.world_config.task_step_limit

    def test_ground_truth_planner_path(self, jarvis_system):
        executor = jarvis_system.executor()
        executor_no_planner = type(executor)(
            controller=jarvis_system.controller, suite=jarvis_system.suite,
            registry=jarvis_system.registry, planner=None,
            predictor=jarvis_system.predictor)
        result = executor_no_planner.run_trial("wooden", seed=2)
        assert result.success
        assert result.planner_invocations == 0
        assert not result.planner_macs_by_voltage

    def test_voltage_scaling_trial_records_schedule(self, jarvis_executor):
        protection = ProtectionConfig(
            anomaly_detection=True,
            voltage_scaling=VoltageScalingConfig(policy=default_policy(),
                                                 entropy_source="oracle"))
        result = jarvis_executor.run_trial("wooden", seed=9,
                                           controller_protection=protection)
        assert result.success
        assert result.voltage_summary["mean_voltage"] < NOMINAL_VOLTAGE
        assert len(set(result.controller_macs_by_voltage)) >= 1
        assert result.effective_voltage() < NOMINAL_VOLTAGE

    def test_voltage_scaling_builds_each_rate_table_once(self, jarvis_system,
                                                         monkeypatch):
        """A VS trial evaluates the normal tail at most 24 times per distinct
        voltage, and the memoized rate tables leave its result unchanged."""
        from repro.hardware import timing

        protection = ProtectionConfig(
            anomaly_detection=True,
            voltage_scaling=VoltageScalingConfig(policy=default_policy(),
                                                 update_interval=1,
                                                 entropy_source="oracle"))

        def uncached_rates(model, voltage):
            return np.array([model.bit_error_rate(bit, voltage)
                             for bit in range(model.config.accumulator_bits)])

        with monkeypatch.context() as patch:
            patch.setattr(timing.TimingErrorModel, "bit_error_rates",
                          uncached_rates)
            reference = jarvis_system.executor().run_trial(
                "wooden", seed=9, controller_protection=protection)

        calls = []
        ndtr = timing._ndtr
        monkeypatch.setattr(timing, "_ndtr",
                            lambda x: calls.append(x) or ndtr(x))
        result = jarvis_system.executor().run_trial(
            "wooden", seed=9, controller_protection=protection)
        assert {**vars(result), "entropy_trace": None} == \
            {**vars(reference), "entropy_trace": None}
        assert vars(result.entropy_trace) == vars(reference.entropy_trace)
        voltages = set(result.entropy_trace.voltages) | {NOMINAL_VOLTAGE}
        assert result.controller_steps > 2 * len(voltages)
        assert 0 < len(calls) <= 24 * len(voltages)

    def test_predictor_macs_charged_with_predictor_source(self, jarvis_executor):
        protection = ProtectionConfig(
            anomaly_detection=True,
            voltage_scaling=VoltageScalingConfig(policy=default_policy(),
                                                 entropy_source="predictor"))
        result = jarvis_executor.run_trial("wooden", seed=10,
                                           controller_protection=protection)
        assert result.predictor_macs_by_voltage.get(NOMINAL_VOLTAGE, 0) > 0

    def test_run_trials_distinct_seeds(self, jarvis_executor):
        results = jarvis_executor.run_trial_group(
            [("wooden", seed) for seed in (100, 101, 102)])
        assert len(results) == 3
        assert len({r.steps for r in results}) >= 2

    def test_trial_result_is_dataclass_with_traces(self):
        result = TrialResult(task="x", success=True, steps=10, planner_invocations=1,
                             controller_steps=10)
        assert result.macs_by_voltage() == {}


class TestSystemBuilders:
    def test_jarvis_system_components(self, jarvis_system):
        assert jarvis_system.planner is not None
        assert jarvis_system.predictor is not None
        assert jarvis_system.suite.name == "minecraft"
        assert set(jarvis_system.task_names) == set(MINECRAFT_SUITE.task_names)

    def test_rotated_system_flag(self, jarvis_system, jarvis_system_rotated):
        assert not jarvis_system.planner_rotated
        assert jarvis_system_rotated.planner_rotated


class TestPaperScalePlatforms:
    def test_transformer_workloads_cover_all_components(self):
        arch = PAPER_PLANNER_ARCHS["jarvis"]
        workloads = transformer_workloads(arch, tokens=8)
        assert len(workloads) == 7 * arch.num_layers + 1
        with pytest.raises(ValueError):
            transformer_workloads(arch, tokens=0)

    def test_planner_workload_macs_are_teraop_scale(self):
        macs = sum(w.macs for w in planner_inference_workloads("jarvis"))
        assert macs > 1e12

    def test_controller_workload_macs_are_gigaop_scale(self):
        macs = sum(w.macs for w in controller_inference_workloads("jarvis"))
        assert 1e9 < macs < 1e12

    def test_predictor_workloads_are_tiny(self):
        macs = sum(w.macs for w in predictor_inference_workloads())
        assert macs < 1e7

    def test_paper_params_roughly_match_archs(self):
        assert PAPER_PLANNER_ARCHS["jarvis"].params_millions() == pytest.approx(7869, rel=0.15)
        assert PAPER_CONTROLLER_ARCHS["octo"].params_millions() == pytest.approx(27, rel=0.3)

    def test_unknown_platform_raises(self):
        from repro.agents.platforms import paper_stats

        with pytest.raises(KeyError):
            paper_stats("nonexistent")
