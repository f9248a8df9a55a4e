"""Model zoo: train-or-load caching of the surrogate networks.

Resilience experiments repeat hundreds of trials over the same trained models,
so the zoo trains each surrogate once and caches its weights (as ``.npz``
files) keyed by a hash of its configuration.  Delete the cache directory (or
set ``REPRO_MODEL_CACHE``) to force retraining.

Planner checkpoints are additionally keyed by the **vocabulary fingerprint**
(see :class:`~repro.agents.vocabulary.PlannerVocabulary`): the vocabulary
fixes the embedding/head shapes and the meaning of every token, so a planner
is only valid under the exact vocabulary it was trained with.  Checkpoints
for the default Table-10 vocabulary keep their historical cache names (all
shipped caches stay valid); scenario vocabularies get fingerprint-suffixed
files, and loading a checkpoint under a mismatched vocabulary raises
:class:`VocabularyMismatchError` instead of silently corrupting token maps.

The cache also holds each deployment's calibration: the per-component input
and output maxima, exact as ``float.hex`` strings, in
``calibration-<role>-<name>-<key>.json``, where the key
(:func:`repro.quant.calibration_key`) hashes everything the calibration
reads.  :func:`calibrate_or_load` quantizes a deployment from them instead
of re-profiling, and calibrates and stores them on a miss;
:mod:`repro.agents.jarvis` deploys every planner and controller through it.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..core.predictor import (
    EntropyPredictorNetwork,
    PredictorConfig,
    train_entropy_predictor,
)
from ..env.scenarios import CATALOG
from ..env.subtasks import (
    ALL_SUBTASKS,
    MANIPULATION_SUBTASKS,
    MINECRAFT_SUBTASKS,
    SubtaskRegistry,
)
from ..env.tasks import SUITES, TaskSuite
from ..quant import Calibrator, QuantSpec
from .configs import CONTROLLER_CONFIGS, ControllerConfig, PLANNER_CONFIGS, PlannerConfig
from .controller import ControllerNetwork, DeployedController, train_controller
from .planner import DeployedPlanner, PlannerNetwork, train_planner
from .vocabulary import (
    PlannerVocabulary,
    TABLE10_FINGERPRINT,
    build_vocabulary,
    scenario_vocabulary,
)

__all__ = [
    "VocabularyMismatchError",
    "cache_directory",
    "clear_cache",
    "registry_for_benchmark",
    "suite_for",
    "controller_spaces",
    "checkpoint_path",
    "calibration_path",
    "calibrate_or_load",
    "get_planner_network",
    "get_controller_network",
    "get_predictor_network",
]

_CACHE_ENV = "REPRO_MODEL_CACHE"

#: npz keys carrying checkpoint metadata rather than weight tensors.
_META_PREFIX = "__meta_"


class VocabularyMismatchError(RuntimeError):
    """A planner checkpoint was loaded under a vocabulary it was not trained for.

    The vocabulary determines the embedding/head shapes *and* what every
    token means; loading across vocabularies would not crash but would
    silently emit plans in the wrong token space.  The zoo therefore hard
    rejects the load — retrain (or point ``REPRO_MODEL_CACHE`` at a cache
    trained under the requested vocabulary).
    """


def cache_directory() -> Path:
    """Directory holding cached model weights."""
    override = os.environ.get(_CACHE_ENV)
    if override:
        path = Path(override)
    else:
        path = Path(__file__).resolve().parents[3] / ".model_cache"
    path.mkdir(parents=True, exist_ok=True)
    return path


def clear_cache() -> None:
    """Delete every cached checkpoint and stored calibration."""
    directory = cache_directory()
    for file in [*directory.glob("*.npz"), *directory.glob("calibration-*.json")]:
        file.unlink()


def _config_hash(config) -> str:
    payload = json.dumps(asdict(config), sort_keys=True, default=str)
    return hashlib.sha1(payload.encode()).hexdigest()[:12]


def _save_state(path: Path, state: dict[str, np.ndarray],
                meta: dict[str, str] | None = None) -> None:
    payload = {key.replace(".", "__"): value for key, value in state.items()}
    for key, value in (meta or {}).items():
        payload[_META_PREFIX + key] = np.asarray(str(value))
    np.savez_compressed(path, **payload)


def _load_state(path: Path) -> dict[str, np.ndarray]:
    with np.load(path) as data:
        return {key.replace("__", "."): data[key] for key in data.files
                if not key.startswith(_META_PREFIX)}


def _load_meta(path: Path) -> dict[str, str]:
    with np.load(path) as data:
        return {key[len(_META_PREFIX):]: str(data[key])
                for key in data.files if key.startswith(_META_PREFIX)}


def registry_for_benchmark(benchmark: str) -> SubtaskRegistry:
    """Subtask registry used by a benchmark suite.

    Table-10 benchmarks keep their frozen registries; anything else is
    answered from the scenario catalog, so newly registered scenarios are
    covered without editing this function.
    """
    if benchmark == "minecraft":
        return MINECRAFT_SUBTASKS
    if benchmark in ("libero", "calvin", "oxe", "manipulation", "kitchen"):
        return MANIPULATION_SUBTASKS
    if benchmark in CATALOG:
        return CATALOG.get(benchmark).registry
    return MANIPULATION_SUBTASKS


def suite_for(config) -> TaskSuite:
    """The evaluation/training suite of a config's benchmark.

    Table-10 benchmarks resolve through ``SUITES``; generated scenarios
    resolve through the catalog (memoized default builds, so every caller
    shares one suite object per process).
    """
    if config.benchmark in SUITES:
        return SUITES[config.benchmark]
    return CATALOG.build(config.benchmark)


def _vocabulary_for(config: PlannerConfig, suite: TaskSuite) -> PlannerVocabulary:
    """Default vocabulary choice of a planner config's benchmark."""
    if config.benchmark in CATALOG and \
            CATALOG.get(config.benchmark).vocabulary == "scenario":
        return scenario_vocabulary(suite)
    return build_vocabulary()


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------
def _planner_cache_path(config: PlannerConfig, vocab: PlannerVocabulary) -> Path:
    """Per-(config, vocabulary-fingerprint) checkpoint path.

    Checkpoints of the default Table-10 vocabulary keep the historical
    ``planner-<name>-<confighash>.npz`` name, so every previously trained
    (and shipped) cache file stays valid; other vocabularies are suffixed
    with their fingerprint.
    """
    base = f"planner-{config.name}-{_config_hash(config)}"
    if vocab.fingerprint != TABLE10_FINGERPRINT:
        base += f"-v{vocab.fingerprint}"
    return cache_directory() / f"{base}.npz"


def _verify_planner_checkpoint(path: Path, vocab: PlannerVocabulary) -> None:
    """Reject loading ``path`` under a vocabulary it was not trained for."""
    meta = _load_meta(path)
    stored = meta.get("vocab_fingerprint")
    if stored is not None and stored != vocab.fingerprint:
        raise VocabularyMismatchError(
            f"planner checkpoint {path.name} was trained under vocabulary "
            f"{stored}, but vocabulary {vocab.fingerprint} was requested")
    size = meta.get("vocab_size")
    if size is not None and int(size) != vocab.size:
        raise VocabularyMismatchError(
            f"planner checkpoint {path.name} has vocab size {size}, "
            f"requested vocabulary has {vocab.size}")
    if stored is None:
        # Legacy checkpoint without metadata: the embedding row count is the
        # only identity signal available.
        with np.load(path) as data:
            if "embed__weight" in data.files and \
                    data["embed__weight"].shape[0] != vocab.size:
                raise VocabularyMismatchError(
                    f"planner checkpoint {path.name} embeds "
                    f"{data['embed__weight'].shape[0]} tokens, requested "
                    f"vocabulary has {vocab.size}")


def get_planner_network(name: str = "jarvis", config: PlannerConfig | None = None,
                        retrain: bool = False, epochs: int = 160,
                        vocab: PlannerVocabulary | None = None,
                        suite: TaskSuite | None = None,
                        ) -> tuple[PlannerNetwork, PlannerVocabulary]:
    """Return a trained planner network (training it on first use).

    ``vocab``/``suite`` default to the config benchmark's vocabulary and
    suite — the shared Table-10 vocabulary for paper platforms, the
    scenario's own fingerprinted vocabulary for catalog scenarios.
    Checkpoints are cached per (config, vocabulary fingerprint); loading an
    existing checkpoint verifies the fingerprint and raises
    :class:`VocabularyMismatchError` on mismatch.
    """
    config = config or PLANNER_CONFIGS[name]
    suite = suite if suite is not None else suite_for(config)
    vocab = vocab or _vocabulary_for(config, suite)
    path = _planner_cache_path(config, vocab)
    if path.exists() and not retrain:
        _verify_planner_checkpoint(path, vocab)
        network = PlannerNetwork(config, vocab.size)
        network.load_state_dict(_load_state(path))
        network.eval()
        return network, vocab
    network, vocab = train_planner(config, suite, vocab, epochs=epochs)
    _save_state(path, network.state_dict(),
                meta={"vocab_fingerprint": vocab.fingerprint,
                      "vocab_size": vocab.size})
    return network, vocab


# ----------------------------------------------------------------------
# Controller
# ----------------------------------------------------------------------
def controller_spaces(config: ControllerConfig
                       ) -> tuple[TaskSuite, SubtaskRegistry, SubtaskRegistry | None]:
    """(training suite, world registry, id registry) of a controller config.

    A ``None`` id registry means the frozen ``ALL_SUBTASKS`` embedding
    space of the Table-10 checkpoints.  Manipulation controllers (Octo /
    RT-1) train across the union of LIBERO / CALVIN / OXE episodes so they
    cover every manipulation subtask; scenario controllers train on their
    generated suite with the scenario registry as the id space.
    """
    if config.benchmark == "minecraft":
        return SUITES["minecraft"], MINECRAFT_SUBTASKS, None
    if config.benchmark in SUITES:
        return SUITES["manipulation"], MANIPULATION_SUBTASKS, None
    entry = CATALOG.get(config.benchmark)
    return entry.build(), entry.registry, entry.registry


def _registry_fingerprint(registry: SubtaskRegistry) -> str:
    """Content hash of a registry's token-id space (its sorted names)."""
    return hashlib.sha1(json.dumps(registry.names).encode()).hexdigest()[:12]


def _controller_cache_path(config: ControllerConfig,
                           id_registry: SubtaskRegistry | None) -> Path:
    """Per-(config, id-registry-fingerprint) controller checkpoint path.

    Table-10 controllers (the frozen ``ALL_SUBTASKS`` id space) keep the
    historical ``controller-<name>-<confighash>.npz`` name; scenario
    controllers are suffixed with their id registry's fingerprint, so a
    regenerated registry (renamed subtasks = shuffled token ids) can never
    silently reuse a stale checkpoint.
    """
    base = f"controller-{config.name}-{_config_hash(config)}"
    if id_registry is not None:
        base += f"-r{_registry_fingerprint(id_registry)}"
    return cache_directory() / f"{base}.npz"


def _verify_controller_checkpoint(path: Path,
                                  id_registry: SubtaskRegistry | None) -> None:
    """Reject loading ``path`` under a different subtask-id space."""
    expected = _registry_fingerprint(id_registry or ALL_SUBTASKS)
    meta = _load_meta(path)
    stored = meta.get("id_registry_fingerprint")
    if stored is not None and stored != expected:
        raise VocabularyMismatchError(
            f"controller checkpoint {path.name} was trained under subtask-id "
            f"registry {stored}, but registry {expected} was requested")
    size = len(id_registry or ALL_SUBTASKS)
    if stored is None:
        # Legacy checkpoint without metadata: embedding rows are the only
        # identity signal (shipped Table-10 caches predate the metadata).
        with np.load(path) as data:
            if "subtask_embed__weight" in data.files and \
                    data["subtask_embed__weight"].shape[0] != size:
                raise VocabularyMismatchError(
                    f"controller checkpoint {path.name} embeds "
                    f"{data['subtask_embed__weight'].shape[0]} subtasks, "
                    f"requested id registry has {size}")


def get_controller_network(name: str = "jarvis", config: ControllerConfig | None = None,
                           retrain: bool = False, num_episodes: int = 30,
                           epochs: int = 10) -> ControllerNetwork:
    """Return a trained controller network (training it on first use).

    Scenario controllers are cached per (config, subtask-id-registry
    fingerprint), mirroring the planner's per-vocabulary caching, and
    loading a checkpoint under a different id space raises
    :class:`VocabularyMismatchError`.
    """
    config = config or CONTROLLER_CONFIGS[name]
    suite, registry, id_registry = controller_spaces(config)
    path = _controller_cache_path(config, id_registry)
    if path.exists() and not retrain:
        _verify_controller_checkpoint(path, id_registry)
        network = ControllerNetwork(
            config, num_subtasks=len(id_registry) if id_registry is not None else None)
        network.load_state_dict(_load_state(path))
        network.eval()
        return network
    network = train_controller(config, suite, registry,
                               num_episodes=num_episodes, epochs=epochs,
                               id_registry=id_registry)
    _save_state(path, network.state_dict(),
                meta={"id_registry_fingerprint":
                      _registry_fingerprint(id_registry or ALL_SUBTASKS)})
    return network


def checkpoint_path(role: str, name: str) -> Path:
    """The file ``get_<role>_network(name)`` loads (or trains into).

    ``role`` is ``"planner"`` or ``"controller"``.  The path carries the
    cache directory, the config hash and the vocabulary or id-registry
    fingerprint, so it identifies the weights without loading them.
    """
    if role == "planner":
        config = PLANNER_CONFIGS[name]
        return _planner_cache_path(config, _vocabulary_for(config, suite_for(config)))
    if role == "controller":
        config = CONTROLLER_CONFIGS[name]
        return _controller_cache_path(config, controller_spaces(config)[2])
    raise ValueError(f"unknown role {role!r}")


# ----------------------------------------------------------------------
# Calibration maxima
# ----------------------------------------------------------------------
def calibration_path(role: str, name: str, key: str) -> Path:
    """Where the calibration of ``role`` ``name`` under ``key`` is stored."""
    return cache_directory() / f"calibration-{role}-{name}-{key[:16]}.json"


def calibrate_or_load(role: str, name: str,
                      model: DeployedPlanner | DeployedController) -> None:
    """Quantize ``model`` from its stored calibration, or calibrate and store it.

    The maxima live at :func:`calibration_path` under
    ``model.calibration_key()`` and are quantized under the model's own spec
    (they do not depend on it).  Without a file the model calibrates, and
    its maxima are written for the next process; a failed write only warns,
    because the model is already quantized.
    """
    key = model.calibration_key()
    path = calibration_path(role, name, key)
    stored = _read_calibration(path, key, model.component_names(), model.spec)
    if stored is not None:
        model.quantize(stored)
        return
    model.calibrate()
    _write_calibration(path, key, model.calibrator)


def _read_calibration(path: Path, key: str, components: list[str],
                      spec: QuantSpec) -> Calibrator | None:
    """The maxima stored at ``path`` under ``spec``; ``None`` if there is no file.

    A file that does not parse, holds another key (the key covers the
    file format's version) or lacks a maximum of one of ``components``
    raises a ``ValueError`` that names it.
    """
    try:
        text = path.read_text()
    except FileNotFoundError:
        return None
    try:
        stored = json.loads(text)
        if stored["key"] != key:
            raise ValueError(f"key {stored['key']}")
        maxima = [{name: float.fromhex(stored[field][name]) for name in components}
                  for field in ("input_amax", "output_amax")]
    except (ValueError, KeyError, TypeError) as error:
        raise ValueError(f"calibration file {path} does not hold this "
                         f"deployment's maxima ({type(error).__name__}: "
                         f"{error}); delete it to recalibrate") from None
    return Calibrator.from_maxima(*maxima, spec=spec)


def _write_calibration(path: Path, key: str, calibrator: Calibrator) -> None:
    """Write ``calibrator``'s maxima to ``path`` whole or not at all.

    A temporary file, then ``os.replace``; a failure warns and leaves no
    file behind.
    """
    input_amax, output_amax = calibrator.maxima()
    text = json.dumps({
        "key": key,
        "input_amax": {name: value.hex() for name, value in input_amax.items()},
        "output_amax": {name: value.hex() for name, value in output_amax.items()},
    }, indent=1, sort_keys=True) + "\n"
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        temp.write_text(text)
        os.replace(temp, path)
    except OSError as error:
        temp.unlink(missing_ok=True)
        warnings.warn(f"could not store calibration {path.name}: {error}",
                      RuntimeWarning, stacklevel=3)


# ----------------------------------------------------------------------
# Entropy predictor
# ----------------------------------------------------------------------
def get_predictor_network(controller_name: str = "jarvis",
                          config: PredictorConfig | None = None,
                          retrain: bool = False, num_episodes: int = 24,
                          epochs: int = 20) -> EntropyPredictorNetwork:
    """Return a trained entropy predictor for a controller's benchmark."""
    config = config or PredictorConfig()
    controller_config = CONTROLLER_CONFIGS[controller_name]
    path = cache_directory() / (
        f"predictor-{controller_name}-{_config_hash(config)}-"
        f"{_config_hash(controller_config)}.npz")
    if path.exists() and not retrain:
        network = EntropyPredictorNetwork(config)
        network.load_state_dict(_load_state(path))
        network.eval()
        return network
    controller_network = get_controller_network(controller_name)
    suite = SUITES["minecraft"] if controller_config.benchmark == "minecraft" \
        else SUITES["manipulation"]
    registry = registry_for_benchmark(controller_config.benchmark)
    deployed = DeployedController(controller_network, calibration_suite=suite,
                                  calibration_registry=registry)
    network, _ = train_entropy_predictor(deployed, suite, registry, config=config,
                                         num_episodes=num_episodes, epochs=epochs)
    _save_state(path, network.state_dict())
    return network
