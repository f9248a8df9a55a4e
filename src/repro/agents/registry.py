"""Named system factories: rebuild deployed systems from picklable string keys.

The campaign engine (:mod:`repro.eval.campaign`) executes trials in worker
processes.  Deployed systems hold quantized networks and calibration state and
are expensive (and pointless) to pickle, so workers instead receive a *system
key* and rebuild the system locally through this registry — the model zoo's
on-disk weight cache makes the rebuild cheap and bit-identical to the parent
process's build.

Built-in keys cover every platform of the paper::

    jarvis                  JARVIS-1 system, plain planner, with predictor
    jarvis-rotated          JARVIS-1 system, weight-rotated planner
    jarvis-int4             ... INT4 deployment variants
    jarvis-rotated-int4
    planner-openvla         cross-platform planner systems (rotated planner)
    planner-openvla-plain   ... without weight rotation
    planner-roboflamingo[-plain]
    controller-rt1          cross-platform controller systems (no planner)
    controller-octo

plus system variants beyond the paper's main configurations::

    jarvis-nopredictor          no entropy predictor (VS falls back to the
    jarvis-rotated-nopredictor  oracle entropy source)
    jarvis-acc20                custom quantization: 20-bit accumulators
    jarvis-int4-acc16           ... INT4 operands, 16-bit accumulators
    controller-rt1-kitchen      RT-1 controller on the kitchen-rearrangement
                                task generator (non-Minecraft workload)
    jarvis-navigation[-rotated] planner + controller trained on the generated
    jarvis-assembly[-rotated]   multi-room navigation / long-horizon assembly
                                scenarios, under the scenario's own
                                fingerprinted vocabulary (docs/scenarios.md)

A campaign names its systems by these keys only — a live system object is
a ``TypeError`` — so ``register_system`` is the one way to add a custom
system, which then runs like a built-in key::

    register_system("my-jarvis", lambda: build_jarvis_system(rotate_planner=True))

``get_system`` builds lazily and caches one instance per key per process.
Keys that deploy the same model share it: ``jarvis``, ``jarvis-rotated`` and
the other JARVIS variants with the same quantization spec hold one
controller object, deployed once per process from the calibration maxima
stored in the model cache (see ``repro.agents.jarvis``).

Keys double as the ``system`` column of persistent run tables (see
``docs/runtable-schema.md``), so they must stay *stable across processes
and sessions*: resuming a campaign matches rows by the spec key derived
from, among other things, this string.  Rename a key and previously
persisted campaigns will re-execute its cells under the new name.

Custom factories and parallel campaigns: pool workers started with the
``fork`` method inherit ``register_system`` additions from the parent
process; on spawn-only platforms workers re-import this module fresh and
can only rebuild the :data:`BUILTIN_SYSTEM_KEYS`.
"""

from __future__ import annotations

from typing import Callable

from ..env.tasks import SUITES
from ..quant import INT4, INT8, QuantSpec
from .configs import CONTROLLER_CONFIGS, PLANNER_CONFIGS
from .jarvis import (
    EmbodiedSystem,
    build_controller_platform,
    build_jarvis_system,
    build_planner_platform,
    build_scenario_system,
    clear_deployments,
)

__all__ = ["SYSTEM_FACTORIES", "BUILTIN_SYSTEM_KEYS", "SYSTEM_HAS_PREDICTOR",
           "SCENARIO_SYSTEM_KEYS", "register_system", "get_system",
           "system_keys", "system_has_predictor", "clear_system_cache",
           "on_system_eviction"]


def _jarvis_factory(rotate: bool, spec, with_predictor: bool = True):
    def build() -> EmbodiedSystem:
        return build_jarvis_system(rotate_planner=rotate,
                                   with_predictor=with_predictor, spec=spec)
    return build


def _planner_factory(name: str, rotate: bool):
    def build() -> EmbodiedSystem:
        return build_planner_platform(name, rotate_planner=rotate)
    return build


def _controller_factory(name: str, suite: str | None = None):
    def build() -> EmbodiedSystem:
        return build_controller_platform(name, suite=suite)
    return build


def _scenario_factory(scenario: str, rotate: bool):
    def build() -> EmbodiedSystem:
        return build_scenario_system(scenario, rotate_planner=rotate)
    return build


#: Accumulator-width variants exposed as registry keys (custom quantization).
#: 20 bits is the narrowest width whose clean INT8 accumulations never wrap
#: at surrogate layer sizes; INT4 operands fit comfortably into 16 bits.
_ACC20_INT8 = QuantSpec(bits=8, accumulator_bits=20)
_ACC16_INT4 = QuantSpec(bits=4, accumulator_bits=16)

#: Registry of system key -> zero-argument factory.
SYSTEM_FACTORIES: dict[str, Callable[[], EmbodiedSystem]] = {
    "jarvis": _jarvis_factory(False, INT8),
    "jarvis-rotated": _jarvis_factory(True, INT8),
    "jarvis-int4": _jarvis_factory(False, INT4),
    "jarvis-rotated-int4": _jarvis_factory(True, INT4),
    # Predictor-less variants: the planner/controller stack is identical, so
    # VS experiments degrade to the oracle entropy source (ROADMAP item).
    "jarvis-nopredictor": _jarvis_factory(False, INT8, with_predictor=False),
    "jarvis-rotated-nopredictor": _jarvis_factory(True, INT8, with_predictor=False),
    # Custom-quantization variants: narrower accumulators expose the
    # resilience/efficiency trade-off of cheaper MAC hardware.
    "jarvis-acc20": _jarvis_factory(False, _ACC20_INT8),
    "jarvis-int4-acc16": _jarvis_factory(False, _ACC16_INT4),
    # Scenario diversity: the RT-1 controller surrogate evaluated on the
    # generated kitchen-rearrangement suite (non-Minecraft workload).
    "controller-rt1-kitchen": _controller_factory("rt1", suite="kitchen"),
    # Catalog scenarios with their own fingerprinted planner vocabularies
    # (see repro.env.scenarios and docs/scenarios.md): a scenario-trained
    # planner + controller pair, plain and weight-rotated.
    "jarvis-navigation": _scenario_factory("navigation", False),
    "jarvis-navigation-rotated": _scenario_factory("navigation", True),
    "jarvis-assembly": _scenario_factory("assembly", False),
    "jarvis-assembly-rotated": _scenario_factory("assembly", True),
}
#: Registry keys of the catalog-scenario systems (no entropy predictor).
SCENARIO_SYSTEM_KEYS = frozenset(
    key for key in SYSTEM_FACTORIES if key.startswith("jarvis-navigation")
    or key.startswith("jarvis-assembly"))
for _name in PLANNER_CONFIGS:
    # Catalog-scenario configs (benchmark outside SUITES) are exposed through
    # the dedicated jarvis-<scenario> keys above, not as planner platforms.
    if _name != "jarvis" and PLANNER_CONFIGS[_name].benchmark in SUITES:
        SYSTEM_FACTORIES[f"planner-{_name}"] = _planner_factory(_name, True)
        SYSTEM_FACTORIES[f"planner-{_name}-plain"] = _planner_factory(_name, False)
for _name in CONTROLLER_CONFIGS:
    if _name != "jarvis" and CONTROLLER_CONFIGS[_name].benchmark in SUITES:
        SYSTEM_FACTORIES[f"controller-{_name}"] = _controller_factory(_name)

#: Keys shipped with the package (rebuildable after a bare re-import, e.g. in
#: spawn-started worker processes; ``register_system`` additions are not).
BUILTIN_SYSTEM_KEYS = frozenset(SYSTEM_FACTORIES)

#: Whether each built-in system ships an entropy predictor — declared here so
#: experiment planners (``repro-create campaign --dry-run``, queue enqueueing)
#: can pick the VS entropy source without building (and training) the system.
#: Only the JARVIS builds with ``with_predictor=True`` carry one; platform
#: planner/controller systems never do (see ``build_*_platform``).
SYSTEM_HAS_PREDICTOR: dict[str, bool] = {
    key: key.startswith("jarvis") and "nopredictor" not in key
    and key not in SCENARIO_SYSTEM_KEYS
    for key in BUILTIN_SYSTEM_KEYS
}

_SYSTEM_CACHE: dict[str, EmbodiedSystem] = {}

#: Callbacks fired whenever cached system instances are evicted, with the
#: evicted key (or ``None`` for "all").  Modules that derive per-process
#: state from cached systems — e.g. the campaign engine's worker executor
#: cache — register here so an eviction invalidates them too, instead of
#: leaving stale objects built over systems the registry no longer serves.
_EVICTION_HOOKS: list[Callable[[str | None], None]] = []


def on_system_eviction(hook: Callable[[str | None], None]
                       ) -> Callable[[str | None], None]:
    """Register a callback for system-cache evictions; returns ``hook``.

    The callback receives the evicted system key, or ``None`` when the whole
    cache is cleared.  Hooks must be idempotent and must not build systems.
    """
    _EVICTION_HOOKS.append(hook)
    return hook


def _notify_eviction(key: str | None) -> None:
    for hook in _EVICTION_HOOKS:
        hook(key)


def register_system(key: str, factory: Callable[[], EmbodiedSystem],
                    overwrite: bool = False,
                    has_predictor: bool | None = None) -> None:
    """Register a custom system factory under ``key``.

    ``factory`` must be a zero-argument callable returning a fully deployed
    :class:`EmbodiedSystem`; it should be *deterministic* (same weights and
    calibration every call), because campaign workers rebuild the system
    independently and the serial==parallel guarantee of the campaign engine
    rests on every rebuild behaving identically.  Registering an existing
    key raises unless ``overwrite=True``; either way the per-process
    instance cache for ``key`` is dropped.

    ``has_predictor`` optionally declares whether the system ships an
    entropy predictor, letting campaign planners (``--dry-run``, queue
    enqueueing) answer :func:`system_has_predictor` without building the
    system; leave ``None`` to have the first such query build and inspect.
    Registering also drops the shared deployments (see
    :func:`~repro.agents.jarvis.clear_deployments`), so the next build of any
    key deploys afresh.
    """
    if key in SYSTEM_FACTORIES and not overwrite:
        raise KeyError(f"system key {key!r} already registered")
    SYSTEM_FACTORIES[key] = factory
    _SYSTEM_CACHE.pop(key, None)
    clear_deployments()
    SYSTEM_HAS_PREDICTOR.pop(key, None)
    if has_predictor is not None:
        SYSTEM_HAS_PREDICTOR[key] = has_predictor
    _notify_eviction(key)


def _require_key(key: object) -> None:
    """Refuse anything but a key string: campaigns name systems by key only."""
    if not isinstance(key, str):
        raise TypeError(
            f"a campaign names systems by registry key (a str), not "
            f"{type(key).__name__}; add a custom system with "
            "repro.agents.registry.register_system(key, factory) and pass its key")


def system_has_predictor(key: str) -> bool:
    """Whether ``key``'s system ships an entropy predictor.

    Answered from the declared :data:`SYSTEM_HAS_PREDICTOR` table when
    possible — every built-in key is covered, so planning a campaign never
    triggers a system build — and by building + inspecting (then caching
    the answer) for custom keys registered without a declaration.
    """
    _require_key(key)
    if key not in SYSTEM_HAS_PREDICTOR:
        SYSTEM_HAS_PREDICTOR[key] = get_system(key).predictor is not None
    return SYSTEM_HAS_PREDICTOR[key]


def system_keys() -> list[str]:
    """All registered system keys, sorted (built-ins plus custom additions)."""
    return sorted(SYSTEM_FACTORIES)


def get_system(key: str) -> EmbodiedSystem:
    """Build (or fetch the per-process cached) system for ``key``.

    The first call per process runs the factory — for the built-in systems
    that trains-or-loads the surrogates through the on-disk model cache and
    deploys them quantized — and memoizes the instance; later calls are
    dictionary lookups.  Campaign pool workers rely on this cache so a
    worker builds each system at most once per campaign.  Unknown keys
    raise ``KeyError`` listing the registered alternatives.
    """
    if key not in _SYSTEM_CACHE:
        try:
            factory = SYSTEM_FACTORIES[key]
        except KeyError:
            raise KeyError(f"unknown system key {key!r}; registered keys: "
                           f"{', '.join(system_keys())}") from None
        _SYSTEM_CACHE[key] = factory()
    return _SYSTEM_CACHE[key]


def clear_system_cache() -> None:
    """Drop all cached system instances (they will be rebuilt on next use).

    The planners and controllers that built-in systems share per process
    (:func:`~repro.agents.jarvis.clear_deployments`) are dropped too, so a
    rebuild returns fresh objects, quantized from the stored calibration
    maxima (or calibrated, when none match).

    Fires the eviction hooks, so derived per-process caches — the campaign
    engine's worker executors — are invalidated in the same call instead of
    surviving with stale systems.
    """
    _SYSTEM_CACHE.clear()
    clear_deployments()
    _notify_eviction(None)
