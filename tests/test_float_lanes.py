"""Float lane stacks: the calibration and float-reference path.

Deployed agents calibrate, and decode with ``quantized=False``, through
:class:`repro.quant.FloatKernel`, which runs a stack of lanes over a lane
axis.  Three contracts let that path stack lanes without moving a single
calibrated scale or bound:

1. a FloatKernel lane stack equals one-lane calls bit for bit, at the row
   counts the agents use, over the controller's and the planner's real
   weights;
2. stacked calibration profiles exactly the maxima of the one-sample and
   one-prompt loops it replaced (a frozen copy of them lives here);
3. ``decode_tokens_batch(quantized=False)`` equals per-request float
   decodes, tokens and logits.

Floats are compared as ``uint64`` views, so signed zeros and NaN payloads
count.  None of these contracts depends on the BLAS kernel, so CI also runs
this file under a second OpenBLAS core type; the plan hashes pinned in
``test_kernel.py`` are kernel-specific and stay there.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents.controller import DeployedController, build_controller_dataset
from repro.agents.planner import DeployedPlanner
from repro.agents.registry import get_system
from repro.agents.zoo import controller_spaces, get_controller_network
from repro.quant import CALIBRATION_STACK_LANES, Calibrator, FloatKernel

ROWS = (1, 4, 5, 17)
LANES = (1, 2, 16)


def _bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


def _agent_kernel(system, agent: str):
    """``(float kernel, component names, weight lookup, bias lookup)`` of one agent."""
    if agent == "planner":
        planner = system.planner
        return (FloatKernel(planner._float_weight),
                planner.weights.component_names(), planner._float_weight, None)
    controller = system.controller
    return (controller._float_kernel(), controller.component_names(),
            controller._float_weights.__getitem__, controller._biases.get)


class TestFloatLaneStack:
    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("lanes", LANES)
    @pytest.mark.parametrize("agent", ["planner", "controller"])
    def test_lane_stack_equals_one_lane_calls(self, jarvis_system, agent,
                                              lanes, rows):
        """Each lane equals a one-lane call and the pre-lane ``x @ W`` of its rows."""
        kernel, names, weight, bias = _agent_kernel(jarvis_system, agent)
        former = _OneLaneFloatKernel(weight, bias, observer=Calibrator())
        rng = np.random.default_rng(100 * rows + lanes)
        for name in names:
            x = rng.normal(size=(lanes * rows, weight(name).shape[0]))
            stacked = _bits(kernel.qgemm(name, x, [rows] * lanes))
            lanes_x = [x[lane * rows:(lane + 1) * rows] for lane in range(lanes)]
            alone = np.concatenate([kernel.qgemm(name, part, [rows])
                                    for part in lanes_x])
            assert np.array_equal(stacked, _bits(alone)), name
            plain = np.concatenate([former.qgemm(name, part) for part in lanes_x])
            assert np.array_equal(stacked, _bits(plain)), name

    @pytest.mark.parametrize("lanes", LANES)
    def test_strided_one_row_lanes(self, deployed_planner, lanes):
        """The planner head reads every lane's last row of a stack."""
        kernel = FloatKernel(deployed_planner._float_weight)
        rows = np.random.default_rng(lanes).normal(
            size=(lanes * 5, deployed_planner.config.dim))
        last = rows[4::5]
        stacked = kernel.qgemm("head", last, [1] * lanes)
        alone = np.concatenate([kernel.qgemm("head", last[lane:lane + 1], [1])
                                for lane in range(lanes)])
        assert np.array_equal(_bits(stacked), _bits(alone))

    def test_multi_runs_each_component_over_the_lane_axis(self, deployed_planner):
        kernel = FloatKernel(deployed_planner._float_weight)
        names = ("layer0.q", "layer0.k", "layer0.v")
        x = np.random.default_rng(3).normal(size=(4 * 5, deployed_planner.config.dim))
        fused = kernel.qgemm_multi(names, x, [5] * 4)
        for name, part in zip(names, fused):
            assert np.array_equal(_bits(part), _bits(kernel.qgemm(name, x, [5] * 4)))

    def test_observer_sees_every_lane(self, deployed_controller):
        observer = Calibrator()
        kernel = FloatKernel(deployed_controller._float_weights.__getitem__,
                             deployed_controller._biases.get, observer=observer)
        x = np.random.default_rng(5).normal(
            size=(3 * 5, deployed_controller.config.dim))
        x[12, 7] = 40.0  # the third lane holds the largest input
        out = kernel.qgemm("layer0.fc1", x, [5] * 3)
        assert observer._input_amax["layer0.fc1"] == 40.0
        assert observer._output_amax["layer0.fc1"] == np.abs(out).max()

    def test_uneven_or_uncovering_lane_rows_raise(self, deployed_planner):
        kernel = FloatKernel(deployed_planner._float_weight)
        x = np.ones((8, deployed_planner.config.dim))
        for lane_rows in ([2, 6], [3, 3], [7], [3, 3, 3]):
            with pytest.raises(ValueError, match="equal row counts covering "
                                                 "a stack of 8 rows"):
                kernel.qgemm("layer0.o", x, lane_rows)
        with pytest.raises(ValueError, match="equal row counts"):
            kernel.qgemm_multi(("layer0.q", "layer0.k"), x, [6, 2])


# ----------------------------------------------------------------------
# Calibration: stacked == the one-sample / one-prompt loops it replaced
# ----------------------------------------------------------------------
class _OneLaneFloatKernel:
    """The float kernel before lane stacks: one GEMM over the rows it is given."""

    def __init__(self, weight, bias=None, observer=None):
        self._weight = weight
        self._bias = bias
        self._observer = observer

    def qgemm(self, name, x, lane_rows=None, logical_rows=None):
        out = x @ self._weight(name)
        if self._bias is not None:
            bias = self._bias(name)
            if bias is not None:
                out = out + bias
        self._observer.observe(name, x, out)
        return out

    def qgemm_multi(self, names, x, lane_rows=None, logical_rows=None):
        return tuple(self.qgemm(name, x) for name in names)

    def release_inputs(self):
        pass


def _one_prompt_calibration(planner: DeployedPlanner) -> Calibrator:
    observer = Calibrator(planner.spec)
    kernel = _OneLaneFloatKernel(planner._float_weight, observer=observer)
    for task in planner.suite.tasks():
        for progress in range(len(task.plan)):
            planner._decode_stack([(task.name, progress)], kernel, None,
                                  max_new_tokens=None, use_cache=False)
    return observer


def _calibration_samples(controller: DeployedController):
    """The samples ``DeployedController`` profiles when given a suite."""
    config = controller.config
    suite, registry, id_registry = controller_spaces(config)
    ids, obs, _ = build_controller_dataset(suite, registry, num_episodes=6,
                                           seed=config.seed + 17,
                                           id_registry=id_registry)
    return ids[:600], obs[:600]


def _one_sample_calibration(controller: DeployedController) -> Calibrator:
    observer = Calibrator(controller.spec)
    kernel = _OneLaneFloatKernel(controller._float_weights.__getitem__,
                                 controller._biases.get, observer=observer)
    ids, obs = _calibration_samples(controller)
    for index in range(len(ids)):
        controller._forward_stack(ids[index:index + 1], obs[index:index + 1],
                                  kernel)
    return observer


def _assert_same_maxima(stacked: Calibrator, reference: Calibrator) -> None:
    for attr in ("_input_amax", "_output_amax"):
        ours, theirs = getattr(stacked, attr), getattr(reference, attr)
        assert sorted(ours) == sorted(theirs)
        for name, value in theirs.items():
            assert ours[name].hex() == value.hex(), (attr, name)


class TestStackedCalibration:
    """``jarvis`` (Table-10 suite), a scenario suite, and the INT4 spec."""

    SYSTEMS = ["jarvis", "jarvis-navigation", "jarvis-int4"]

    @pytest.mark.parametrize("key", SYSTEMS)
    def test_planner_maxima_equal_one_prompt_loop(self, key):
        planner = get_system(key).planner
        _assert_same_maxima(planner.calibrator, _one_prompt_calibration(planner))

    @pytest.mark.parametrize("key", SYSTEMS)
    def test_controller_maxima_equal_one_sample_loop(self, key):
        controller = get_system(key).controller
        _assert_same_maxima(controller.calibrator,
                            _one_sample_calibration(controller))

    @staticmethod
    def _stacks(count: int) -> list[int]:
        full, rest = divmod(count, CALIBRATION_STACK_LANES)
        return [CALIBRATION_STACK_LANES] * full + ([rest] if rest else [])

    def test_controller_stacks_hold_at_most_the_bound(self, monkeypatch):
        stacks = []
        forward = DeployedController._forward_stack

        def spy(self, subtask_ids, observations, kernel):
            stacks.append(len(subtask_ids))
            return forward(self, subtask_ids, observations, kernel)

        monkeypatch.setattr(DeployedController, "_forward_stack", spy)
        ids, obs = _calibration_samples(get_system("jarvis").controller)
        DeployedController(get_controller_network("jarvis"),
                           calibration_samples=(ids[:40], obs[:40]))
        assert CALIBRATION_STACK_LANES == 16
        assert stacks == self._stacks(40) == [16, 16, 8]

    def test_planner_stacks_hold_at_most_the_bound(self, monkeypatch,
                                                   deployed_planner):
        stacks = []
        decode = DeployedPlanner._decode_stack

        def spy(self, requests, *args, **kwargs):
            stacks.append(len(requests))
            return decode(self, requests, *args, **kwargs)

        monkeypatch.setattr(DeployedPlanner, "_decode_stack", spy)
        DeployedPlanner(deployed_planner.weights, deployed_planner.vocab,
                        deployed_planner.suite)
        prompts = sum(len(task.plan) for task in deployed_planner.suite.tasks())
        assert stacks == self._stacks(prompts)


# ----------------------------------------------------------------------
# Float decode: one stack == per-request decodes
# ----------------------------------------------------------------------
class TestFloatDecodeStack:
    #: Remaining plans of different lengths: lanes leave at EOS on
    #: different steps.
    REQUESTS = [("wooden", 0), ("stone", 0), ("iron", 3), ("seed", 0),
                ("stone", 4)]

    @pytest.mark.parametrize("use_cache", [True, False])
    def test_stack_equals_per_request_decodes(self, deployed_planner, use_cache):
        alone = [deployed_planner.decode_tokens_batch(
                     [(task, progress)], quantized=False, use_cache=use_cache,
                     collect_logits=True)[0]
                 for task, progress in self.REQUESTS]
        stacked = deployed_planner.decode_tokens_batch(
            self.REQUESTS, quantized=False, use_cache=use_cache,
            collect_logits=True)
        assert len({len(tokens) for tokens, _ in alone}) > 2
        for (tokens, logits), (stack_tokens, stack_logits) in zip(alone, stacked):
            assert stack_tokens == tokens
            assert np.array_equal(_bits(np.stack(stack_logits)),
                                  _bits(np.stack(logits)))

    def test_float_plans_follow_the_recipe(self, deployed_planner):
        plans = deployed_planner.plan_batch(self.REQUESTS, quantized=False)
        suite = deployed_planner.suite
        assert plans == [list(suite.get(task).plan[progress:])
                         for task, progress in self.REQUESTS]
