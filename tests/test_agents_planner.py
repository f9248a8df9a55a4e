"""Tests for the planner surrogate: vocabulary, training, deployment, rotation."""

import numpy as np
import pytest

from repro.agents import (
    DeployedPlanner,
    PLANNER_CONFIGS,
    PlannerConfig,
    PlannerNetwork,
    build_planner_dataset,
    build_vocabulary,
    extract_planner_weights,
    get_planner_network,
    plan_accuracy,
)
from repro.core import hadamard_matrix, rotation_matrix_for_dim
from repro.core.rotation import outlier_ratio
from repro.env import MINECRAFT_SUITE
from repro.nn import no_grad
from repro.quant import GemmHooks
from repro.faults import ErrorInjector, UniformErrorModel


class TestVocabulary:
    def test_vocabulary_covers_all_tasks_and_subtasks(self):
        vocab = build_vocabulary()
        assert "wooden" in vocab.task_tokens and "wine" in vocab.task_tokens
        assert "mine_logs" in vocab.subtask_tokens and "grasp_object" in vocab.subtask_tokens
        tokens = ([vocab.pad, vocab.bos, vocab.eos, vocab.sep]
                  + list(vocab.task_tokens.values())
                  + list(vocab.progress_tokens.values())
                  + list(vocab.subtask_tokens.values()))
        assert len(set(tokens)) == vocab.size

    def test_prompt_encoding(self):
        vocab = build_vocabulary()
        prompt = vocab.encode_prompt("wooden", 2)
        assert prompt[0] == vocab.bos and prompt[-1] == vocab.sep
        assert len(prompt) == 4

    def test_unknown_task_raises(self):
        with pytest.raises(KeyError):
            build_vocabulary().encode_prompt("unknown-task", 0)

    def test_plan_roundtrip(self):
        vocab = build_vocabulary()
        plan = ["mine_logs", "craft_planks"]
        decoded = vocab.decode_plan(vocab.encode_plan(plan))
        assert decoded == plan

    def test_decode_stops_at_eos_and_marks_invalid(self):
        vocab = build_vocabulary()
        tokens = [vocab.subtask_tokens["mine_logs"], 0, vocab.eos,
                  vocab.subtask_tokens["craft_planks"]]
        decoded = vocab.decode_plan(tokens)
        assert decoded[0] == "mine_logs"
        assert decoded[1].startswith("<invalid:")
        assert len(decoded) == 2

    def test_progress_beyond_range_raises(self):
        # Out-of-range progress used to alias to the last progress token,
        # which silently corrupts long-horizon prompts; it is now an error
        # (per-vocabulary max_progress, see tests/test_scenarios.py).
        vocab = build_vocabulary()
        with pytest.raises(ValueError):
            vocab.encode_prompt("wooden", 100)
        assert vocab.encode_prompt("wooden", vocab.max_progress - 1)[2] == \
            vocab.progress_tokens[vocab.max_progress - 1]


class TestPlannerDatasetAndNetwork:
    def test_dataset_shapes(self):
        vocab = build_vocabulary()
        tokens, mask = build_planner_dataset(MINECRAFT_SUITE, vocab, max_length=18)
        assert tokens.shape == mask.shape
        assert tokens.shape[0] == sum(len(t.plan) for t in MINECRAFT_SUITE.tasks())
        # Prompt positions are never included in the loss.
        assert not mask[:, :4].any()

    def test_network_forward_shape(self):
        vocab = build_vocabulary()
        config = PlannerConfig(name="tiny", benchmark="minecraft", num_layers=1, dim=16,
                               num_heads=2, mlp_dim=32)
        network = PlannerNetwork(config, vocab.size)
        with no_grad():
            logits = network(np.array([[1, 2, 3]]))
        assert logits.shape == (1, 3, vocab.size)

    def test_outlier_channels_installed(self):
        vocab = build_vocabulary()
        config = PLANNER_CONFIGS["jarvis"]
        network = PlannerNetwork(config, vocab.size)
        channels = network.outlier_channel_indices
        assert len(channels) == config.outlier_channels
        block = network.transformer.blocks[0]
        o_weight = np.abs(block.attn.o_proj.weight.data)
        boosted = o_weight[:, channels].mean()
        others = np.delete(o_weight, channels, axis=1).mean()
        assert boosted > 4.0 * others

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            PlannerConfig(name="bad", benchmark="minecraft", dim=30, num_heads=4)
        with pytest.raises(ValueError):
            PlannerConfig(name="bad", benchmark="minecraft", dim=16, num_heads=4,
                          outlier_channels=16)


class TestTrainedPlanner:
    def test_cached_planner_is_accurate(self, jarvis_system):
        network, vocab = get_planner_network("jarvis")
        assert plan_accuracy(network, MINECRAFT_SUITE, vocab) >= 0.95

    def test_deployed_float_plans_match_recipes(self, deployed_planner):
        for task in MINECRAFT_SUITE.tasks():
            assert deployed_planner.plan(task.name, 0, quantized=False) == list(task.plan)

    def test_deployed_quantized_plans_match_recipes(self, deployed_planner):
        for task_name in ("wooden", "stone", "iron"):
            expected = list(MINECRAFT_SUITE.get(task_name).plan)
            assert deployed_planner.plan(task_name, 0, quantized=True) == expected

    def test_replanning_from_progress(self, deployed_planner):
        task = MINECRAFT_SUITE.get("stone")
        assert deployed_planner.plan("stone", 2, quantized=True) == list(task.plan[2:])

    def test_planner_activations_have_outliers(self, deployed_planner):
        activations = deployed_planner.capture_activations("wooden", 0, quantized=False)
        ratios = [outlier_ratio(a) for a in activations.values()]
        assert max(ratios) > 5.0

    def test_output_bounds_available_for_all_components(self, deployed_planner):
        bounds = deployed_planner.output_bounds()
        assert set(bounds) == set(deployed_planner.weights.component_names())
        assert all(b > 0 for b in bounds.values())

    def test_errors_corrupt_plans_at_high_ber(self, deployed_planner):
        wrong = 0
        for seed in range(6):
            injector = ErrorInjector(UniformErrorModel(3e-3),
                                     rng=np.random.default_rng(seed))
            context = deployed_planner.kernel_context(GemmHooks(injector=injector))
            plan = deployed_planner.plan("wooden", 0, context=context)
            wrong += plan != list(MINECRAFT_SUITE.get("wooden").plan)
        assert wrong >= 4

    def test_macs_per_decode_step_grows_with_context(self, deployed_planner):
        assert deployed_planner.macs_per_decode_step(10) > deployed_planner.macs_per_decode_step(4)

    def test_logits_shape(self, deployed_planner):
        logits = deployed_planner.logits("wooden", 0, quantized=False)
        assert logits.shape == (deployed_planner.vocab.size,)


class TestWeightRotation:
    def test_extract_weights_component_names(self, jarvis_system):
        network, _ = get_planner_network("jarvis")
        weights = extract_planner_weights(network)
        names = weights.component_names()
        assert "layer0.q" in names and "head" in names
        assert len(names) == 7 * weights.config.num_layers + 1

    def test_rotation_requires_orthonormal(self, jarvis_system):
        network, _ = get_planner_network("jarvis")
        weights = extract_planner_weights(network)
        with pytest.raises(ValueError):
            weights.apply_rotation(np.ones((weights.dim, weights.dim)))
        with pytest.raises(ValueError):
            weights.apply_rotation(np.eye(4))

    def test_rotation_preserves_function(self, jarvis_system, jarvis_system_rotated):
        plain = jarvis_system.planner
        rotated = jarvis_system_rotated.planner
        for task_name in ("wooden", "chicken"):
            assert rotated.plan(task_name, 0, quantized=False) == \
                plain.plan(task_name, 0, quantized=False)

    def test_rotation_reduces_outliers_and_bounds(self, jarvis_system, jarvis_system_rotated):
        plain_acts = jarvis_system.planner.capture_activations("wooden", 0, quantized=False)
        rot_acts = jarvis_system_rotated.planner.capture_activations("wooden", 0,
                                                                     quantized=False)
        key = sorted(plain_acts)[0]
        assert outlier_ratio(rot_acts[key]) < outlier_ratio(plain_acts[key])

        plain_bounds = jarvis_system.planner.output_bounds()
        rot_bounds = jarvis_system_rotated.planner.output_bounds()
        writers = [n for n in plain_bounds if n.endswith(".o") or n.endswith(".down")]
        assert np.mean([rot_bounds[n] for n in writers]) < \
            np.mean([plain_bounds[n] for n in writers])

    def test_rotated_flag_set(self, jarvis_system_rotated):
        assert jarvis_system_rotated.planner.weights.rotated
        assert jarvis_system_rotated.planner.weights.rotation is not None

    def test_hadamard_used_for_power_of_two_dim(self):
        config = PLANNER_CONFIGS["jarvis"]
        rotation = rotation_matrix_for_dim(config.dim)
        if config.dim & (config.dim - 1) == 0:
            np.testing.assert_allclose(rotation, hadamard_matrix(config.dim))
