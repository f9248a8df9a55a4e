"""Embodied agents: planner / controller surrogates, deployment, mission execution."""

from .configs import (
    CONTROLLER_CONFIGS,
    ControllerConfig,
    PAPER_MODEL_STATS,
    PaperModelStats,
    PLANNER_CONFIGS,
    PlannerConfig,
)
from .vocabulary import (
    PlannerVocabulary,
    TABLE10_FINGERPRINT,
    build_vocabulary,
    scenario_vocabulary,
)
from .planner import (
    DeployedPlanner,
    PlannerNetwork,
    PlannerWeights,
    build_planner_dataset,
    extract_planner_weights,
    plan_accuracy,
    train_planner,
)
from .controller import (
    ControllerNetwork,
    DeployedController,
    build_controller_dataset,
    controller_agreement,
    train_controller,
)
from .executor import MissionExecutor, TrialResult, build_protection_hooks
from .jarvis import (
    EmbodiedSystem,
    build_controller_platform,
    build_jarvis_system,
    build_planner_platform,
    build_scenario_system,
)
from .zoo import (
    VocabularyMismatchError,
    cache_directory,
    clear_cache,
    get_controller_network,
    get_planner_network,
    get_predictor_network,
    registry_for_benchmark,
)
from .registry import (
    SYSTEM_FACTORIES,
    clear_system_cache,
    get_system,
    register_system,
    system_keys,
)
from . import platforms

__all__ = [
    "PlannerConfig",
    "ControllerConfig",
    "PaperModelStats",
    "PLANNER_CONFIGS",
    "CONTROLLER_CONFIGS",
    "PAPER_MODEL_STATS",
    "PlannerVocabulary",
    "TABLE10_FINGERPRINT",
    "build_vocabulary",
    "scenario_vocabulary",
    "PlannerNetwork",
    "PlannerWeights",
    "DeployedPlanner",
    "build_planner_dataset",
    "extract_planner_weights",
    "plan_accuracy",
    "train_planner",
    "ControllerNetwork",
    "DeployedController",
    "build_controller_dataset",
    "controller_agreement",
    "train_controller",
    "MissionExecutor",
    "TrialResult",
    "build_protection_hooks",
    "EmbodiedSystem",
    "build_jarvis_system",
    "build_planner_platform",
    "build_controller_platform",
    "build_scenario_system",
    "VocabularyMismatchError",
    "cache_directory",
    "clear_cache",
    "get_planner_network",
    "get_controller_network",
    "get_predictor_network",
    "registry_for_benchmark",
    "SYSTEM_FACTORIES",
    "register_system",
    "get_system",
    "system_keys",
    "clear_system_cache",
    "platforms",
]
