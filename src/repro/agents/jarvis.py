"""System builders: assemble deployed planner + controller + predictor into one agent.

:class:`EmbodiedSystem` is the object the evaluation harness and the examples
work with — it owns the deployed (quantized) models of one platform and hands
out :class:`~repro.agents.executor.MissionExecutor` instances.  Building a
system pulls trained weights from the model zoo (training them on first use)
and performs the deployment steps of the paper: gamma folding, optional
Hadamard weight rotation (WR), INT8 calibration and quantization.  The
calibration maxima are stored in the model cache beside the checkpoints, so
a deployment profiles its activations only when no stored calibration
matches its key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.predictor import EntropyPredictor
from ..core.rotation import rotation_matrix_for_dim
from ..env.subtasks import SubtaskRegistry
from ..env.tasks import SUITES, TaskSuite
from ..env.world import WorldConfig
from ..quant import INT8, QuantSpec
from .configs import CONTROLLER_CONFIGS, PLANNER_CONFIGS
from .controller import DeployedController
from .executor import MissionExecutor
from .planner import DeployedPlanner, extract_planner_weights
from .zoo import (
    calibrate_or_load,
    checkpoint_path,
    controller_spaces,
    get_controller_network,
    get_planner_network,
    get_predictor_network,
    registry_for_benchmark,
    suite_for,
)

__all__ = ["EmbodiedSystem", "build_jarvis_system", "build_planner_platform",
           "build_controller_platform", "build_scenario_system",
           "clear_deployments"]


@dataclass
class EmbodiedSystem:
    """A deployed embodied-AI platform ready to run missions."""

    name: str
    suite: TaskSuite
    registry: SubtaskRegistry
    controller: DeployedController
    planner: DeployedPlanner | None = None
    predictor: EntropyPredictor | None = None
    planner_rotated: bool = False
    #: Subtask-id space of the controller (None = the frozen ALL_SUBTASKS
    #: union shared by every Table-10 checkpoint; scenario systems carry
    #: their scenario's own registry).
    id_registry: SubtaskRegistry | None = None

    def executor(self, world_config: WorldConfig | None = None,
                 **kwargs) -> MissionExecutor:
        return MissionExecutor(
            controller=self.controller,
            suite=self.suite,
            registry=self.registry,
            planner=self.planner,
            predictor=self.predictor,
            world_config=world_config,
            id_registry=self.id_registry,
            **kwargs,
        )

    @property
    def task_names(self) -> list[str]:
        return self.suite.task_names


#: This process's deployed planners and controllers, keyed by what
#: determines a deployment: role, config name, rotation, quantization spec
#: and checkpoint file.  Calibration is deterministic and nothing mutates a
#: deployed model afterwards (its kernel plan is built once, then only
#: read), so systems that deploy the same model share one object:
#: ``jarvis`` and ``jarvis-rotated`` deploy their controller once.  The
#: registry drops the table with its system cache.
_DEPLOYMENTS: dict[tuple, DeployedPlanner | DeployedController] = {}


def clear_deployments() -> None:
    """Forget every shared deployment.

    The next build deploys afresh: it loads the stored calibration maxima,
    or calibrates and stores them when none match.
    """
    _DEPLOYMENTS.clear()


def _deployed(role: str, name: str, rotate: bool, spec: QuantSpec,
              build: Callable[[], DeployedPlanner | DeployedController]):
    """The shared deployment of ``build()``'s uncalibrated model.

    :func:`~repro.agents.zoo.calibrate_or_load` quantizes it from the maxima
    stored under its calibration key, or calibrates it and stores them.
    The maxima do not depend on ``spec``, so every quantization variant of
    a model shares one file.
    """
    ident = (role, name, rotate, spec, checkpoint_path(role, name))
    model = _DEPLOYMENTS.get(ident)
    if model is None:
        model = build()
        calibrate_or_load(role, name, model)
        _DEPLOYMENTS[ident] = model
    return model


def _deploy_planner(name: str, rotate: bool, spec: QuantSpec) -> DeployedPlanner:
    def build() -> DeployedPlanner:
        network, vocab = get_planner_network(name)
        weights = extract_planner_weights(network)
        if rotate:
            rotation = rotation_matrix_for_dim(
                weights.dim, np.random.default_rng(weights.config.seed))
            weights = weights.apply_rotation(rotation)
        return DeployedPlanner(weights, vocab, suite_for(PLANNER_CONFIGS[name]),
                               spec=spec, calibrate=False)
    return _deployed("planner", name, rotate, spec, build)


def _deploy_controller(name: str, spec: QuantSpec) -> DeployedController:
    def build() -> DeployedController:
        suite, registry, id_registry = controller_spaces(CONTROLLER_CONFIGS[name])
        return DeployedController(get_controller_network(name), spec=spec,
                                  calibration_suite=suite,
                                  calibration_registry=registry,
                                  id_registry=id_registry, calibrate=False)
    return _deployed("controller", name, False, spec, build)


def build_jarvis_system(rotate_planner: bool = True, with_planner: bool = True,
                        with_predictor: bool = True,
                        spec: QuantSpec = INT8) -> EmbodiedSystem:
    """The primary testbed: JARVIS-1-style agent on the Minecraft benchmark."""
    controller = _deploy_controller("jarvis", spec)
    planner = _deploy_planner("jarvis", rotate_planner, spec) if with_planner else None
    predictor = None
    if with_predictor:
        predictor = EntropyPredictor(get_predictor_network("jarvis"))
    return EmbodiedSystem(
        name="jarvis",
        suite=SUITES["minecraft"],
        registry=registry_for_benchmark("minecraft"),
        controller=controller,
        planner=planner,
        predictor=predictor,
        planner_rotated=rotate_planner,
    )


def build_scenario_system(scenario: str, rotate_planner: bool = False,
                          spec: QuantSpec = INT8) -> EmbodiedSystem:
    """A full planner + controller system on a generated catalog scenario.

    The scenario's suite and vocabulary come from the catalog
    (:mod:`repro.env.scenarios`): the planner is trained (and cached) under
    the scenario's fingerprinted vocabulary, the controller is
    imitation-trained on the generated suite with the scenario registry as
    its subtask-id space, and no entropy predictor is deployed — the
    scenario presets exercise the planner-resilience path (AD, WR), exactly
    like the cross-platform planner studies.
    """
    from ..env.scenarios import CATALOG

    entry = CATALOG.get(scenario)
    if entry.vocabulary != "scenario":
        raise ValueError(
            f"scenario {scenario!r} does not carry its own planner "
            f"vocabulary (mode {entry.vocabulary!r}); only 'scenario' "
            "entries build planner systems")
    planner = _deploy_planner(scenario, rotate_planner, spec)
    return EmbodiedSystem(
        name=f"jarvis-{scenario}" + ("-rotated" if rotate_planner else ""),
        suite=entry.build(),
        registry=entry.registry,
        controller=_deploy_controller(scenario, spec),
        planner=planner,
        predictor=None,
        planner_rotated=rotate_planner,
        id_registry=entry.registry,
    )


def build_planner_platform(name: str, rotate_planner: bool = True,
                           spec: QuantSpec = INT8) -> EmbodiedSystem:
    """Cross-platform planner evaluation (OpenVLA on LIBERO, RoboFlamingo on CALVIN).

    The platform's planner is paired with a manipulation controller (the RT-1
    surrogate) so full episodes can run; planner-level protections (AD, WR) are
    what the cross-platform study varies.
    """
    if name == "jarvis":
        return build_jarvis_system(rotate_planner=rotate_planner, spec=spec)
    if name not in PLANNER_CONFIGS:
        raise KeyError(f"unknown planner platform {name!r}")
    if PLANNER_CONFIGS[name].benchmark not in SUITES:
        raise KeyError(f"{name!r} is a catalog scenario, not a Table-10 "
                       "platform; build it with build_scenario_system")
    planner = _deploy_planner(name, rotate_planner, spec)
    controller = _deploy_controller("rt1", spec)
    benchmark = PLANNER_CONFIGS[name].benchmark
    return EmbodiedSystem(
        name=name,
        suite=SUITES[benchmark],
        registry=registry_for_benchmark(benchmark),
        controller=controller,
        planner=planner,
        planner_rotated=rotate_planner,
    )


def build_controller_platform(name: str, spec: QuantSpec = INT8,
                              suite: str | None = None) -> EmbodiedSystem:
    """Cross-platform controller evaluation (Octo / RT-1 on OXE tasks).

    Episodes follow the ground-truth plan (no planner), isolating the
    controller-level protections (AD, VS) exactly as the paper does.
    ``suite`` overrides the evaluation benchmark (e.g. ``"kitchen"`` runs the
    same deployed controller on the kitchen-rearrangement generator); the
    controller's own training/calibration benchmark is unaffected.
    """
    if name not in CONTROLLER_CONFIGS:
        raise KeyError(f"unknown controller platform {name!r}")
    if CONTROLLER_CONFIGS[name].benchmark not in SUITES:
        raise KeyError(f"{name!r} is a catalog scenario, not a Table-10 "
                       "platform; build it with build_scenario_system")
    controller = _deploy_controller(name, spec)
    benchmark = CONTROLLER_CONFIGS[name].benchmark
    if suite is not None:
        if suite not in SUITES:
            raise KeyError(f"unknown task suite {suite!r}")
        evaluation_suite = SUITES[suite]
    else:
        evaluation_suite = SUITES["oxe"] if benchmark != "minecraft" \
            else SUITES["minecraft"]
    return EmbodiedSystem(
        name=name if suite is None else f"{name}-{suite}",
        suite=evaluation_suite,
        registry=registry_for_benchmark(benchmark),
        controller=controller,
        planner=None,
    )
