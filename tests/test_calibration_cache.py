"""Stored calibration maxima: the model cache's calibration files.

A deployment (``repro.agents.zoo.calibrate_or_load``) quantizes from the
maxima stored under its calibration key and calibrates only on a miss,
storing what it profiled.  These tests hold the cache to that contract:

* a hit quantizes exactly as calibrating does, and the quantization
  variants of one model share its file;
* the key follows everything calibration reads and costs no rollout;
* a broken file is a ``ValueError`` that names it, and a cache that cannot
  be written still deploys;
* the shipped files equal a fresh calibration on this host's BLAS kernel,
  and a fresh process deploys the shipped systems without calibrating or
  touching the cache (the check ``perfbench`` makes).

Tests that need misses point ``REPRO_MODEL_CACHE`` at a copy of the
committed checkpoints without any calibration file.
"""

from __future__ import annotations

import errno
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro.agents.controller as controller_module
import repro.quant.quantizer as quantizer
from repro.agents.controller import CALIBRATION_RECIPE, DeployedController
from repro.agents.planner import DeployedPlanner, PlannerWeights
from repro.agents.registry import clear_system_cache, get_system
from repro.agents.zoo import (
    cache_directory,
    calibration_path,
    clear_cache,
    controller_spaces,
    get_controller_network,
)
from repro.env.subtasks import MANIPULATION_SUBTASKS
from repro.env.tasks import SUITES, TaskSuite
from repro.quant import INT4, Calibrator, QuantSpec

REPO_ROOT = Path(__file__).resolve().parent.parent

#: When this module was collected, before pytest ran any test: a
#: calibration file younger than that was written by a deploy that missed,
#: not shipped.
COLLECTED_NS = time.time_ns()

#: Calibrations shipped in the model cache: (role, config name) -> the
#: registry keys that deploy them (a planner plain and rotated).
SHIPPED = {
    ("planner", "jarvis"): ("jarvis", "jarvis-rotated"),
    ("planner", "navigation"): ("jarvis-navigation", "jarvis-navigation-rotated"),
    ("planner", "assembly"): ("jarvis-assembly", "jarvis-assembly-rotated"),
    ("controller", "jarvis"): ("jarvis",),
    ("controller", "navigation"): ("jarvis-navigation",),
    ("controller", "assembly"): ("jarvis-assembly",),
}

#: How to bring the shipped files up to date after a change that moves
#: maxima.  The key hashes data only, so the bump is what keeps a file
#: written before the change, in any cache, from matching a key again.
REGENERATE = ("regenerate the shipped calibrations: bump "
              "repro.quant.quantizer.CALIBRATION_FORMAT, delete "
              ".model_cache/calibration-*.json, build the six JARVIS and "
              "scenario systems plain and rotated (get_system), and "
              "git add -f the new files")


def _hex(calibrator: Calibrator) -> dict[str, dict[str, str]]:
    input_amax, output_amax = calibrator.maxima()
    return {"input_amax": {name: value.hex() for name, value in input_amax.items()},
            "output_amax": {name: value.hex() for name, value in output_amax.items()}}


def _stored(path: Path) -> dict[str, dict[str, str]]:
    stored = json.loads(path.read_text())
    return {field: stored[field] for field in ("input_amax", "output_amax")}


def _fresh(role: str, model, spec: QuantSpec | None = None):
    """A new deployment of ``model``'s weights and recipe, calibrated afresh."""
    spec = spec or model.spec
    if role == "planner":
        return DeployedPlanner(model.weights, model.vocab, model.suite, spec=spec)
    suite, registry, id_registry = controller_spaces(model.config)
    return DeployedController(get_controller_network(model.config.name),
                              spec=spec, calibration_suite=suite,
                              calibration_registry=registry,
                              id_registry=id_registry)


def _plan_hashes(system) -> tuple[str, str]:
    return (system.planner.kernel_plan().content_hash,
            system.controller.kernel_plan().content_hash)


def _forbid_calibration(monkeypatch) -> None:
    def calibrate(self):
        raise AssertionError(f"{type(self).__name__} calibrated on a hit")

    monkeypatch.setattr(DeployedPlanner, "calibrate", calibrate)
    monkeypatch.setattr(DeployedController, "calibrate", calibrate)


def _calibration_files(directory: Path) -> list[str]:
    """Calibration files and leftover temporary files in ``directory``."""
    return sorted(path.name for path in directory.iterdir()
                  if path.name.startswith(("calibration-", ".calibration-")))


@pytest.fixture()
def fresh_cache(tmp_path, monkeypatch):
    """A model cache with the committed checkpoints and no calibration file."""
    for checkpoint in cache_directory().glob("*.npz"):
        shutil.copy2(checkpoint, tmp_path / checkpoint.name)
    monkeypatch.setenv("REPRO_MODEL_CACHE", str(tmp_path))
    clear_system_cache()
    yield tmp_path
    clear_system_cache()


# ----------------------------------------------------------------------
# Misses store, hits load
# ----------------------------------------------------------------------
class TestStoreAndLoad:
    def test_miss_stores_its_maxima_and_a_rebuild_loads_them(self, fresh_cache,
                                                             monkeypatch):
        system = get_system("jarvis-navigation-rotated")
        for role in ("planner", "controller"):
            model = getattr(system, role)
            path = calibration_path(role, "navigation", model.calibration_key())
            assert _stored(path) == _hex(model.calibrator), role
        assert len(_calibration_files(fresh_cache)) == 2
        calibrated = _plan_hashes(system)
        clear_system_cache()
        _forbid_calibration(monkeypatch)
        loaded = get_system("jarvis-navigation-rotated")
        assert loaded.planner is not system.planner
        assert _plan_hashes(loaded) == calibrated
        for role in ("planner", "controller"):
            assert _hex(getattr(loaded, role).calibrator) == \
                _hex(getattr(system, role).calibrator), role

    def test_quantization_variants_share_one_file(self, fresh_cache,
                                                  monkeypatch):
        jarvis = get_system("jarvis")
        stored = _calibration_files(fresh_cache)
        assert len(stored) == 2
        variants = {"jarvis-int4": INT4,
                    "jarvis-acc20": QuantSpec(bits=8, accumulator_bits=20),
                    "jarvis-int4-acc16": QuantSpec(bits=4, accumulator_bits=16)}
        expected = {key: tuple(_fresh(role, getattr(jarvis, role), spec)
                               .kernel_plan().content_hash
                               for role in ("planner", "controller"))
                    for key, spec in variants.items()}
        _forbid_calibration(monkeypatch)
        for key, spec in variants.items():
            system = get_system(key)
            assert system.planner.spec == spec
            assert _plan_hashes(system) == expected[key], key
        assert _calibration_files(fresh_cache) == stored

    def test_clear_cache_removes_calibrations(self, fresh_cache):
        get_system("jarvis-navigation")
        assert len(_calibration_files(fresh_cache)) == 2
        clear_cache()
        assert sorted(fresh_cache.iterdir()) == []

    def test_unwritable_cache_still_deploys(self, fresh_cache, monkeypatch):
        reference = _plan_hashes(get_system("jarvis-assembly"))
        clear_system_cache()
        for name in _calibration_files(fresh_cache):
            (fresh_cache / name).unlink()

        def denied(*args, **kwargs):
            raise PermissionError(errno.EACCES, "Permission denied")

        # A directory the process may not write fails the temporary file;
        # a failing rename must not leave that file behind either.
        for target, attribute in ((Path, "write_text"), (os, "replace")):
            with monkeypatch.context() as patch:
                patch.setattr(target, attribute, denied)
                with pytest.warns(RuntimeWarning,
                                  match="could not store calibration"):
                    system = get_system("jarvis-assembly")
            assert _plan_hashes(system) == reference, attribute
            assert _calibration_files(fresh_cache) == [], attribute
            clear_system_cache()


class TestBrokenFiles:
    @pytest.mark.parametrize("damage", ["truncated", "missing-layer",
                                        "missing-output", "other-key"])
    def test_broken_file_raises_naming_its_path(self, fresh_cache, damage):
        controller = get_system("jarvis").controller
        path = calibration_path("controller", "jarvis",
                                controller.calibration_key())
        text = path.read_text()
        stored = json.loads(text)
        if damage == "truncated":
            text = text[:len(text) // 2]
        else:
            if damage == "missing-layer":
                del stored["output_amax"]["layer0.q"]
            elif damage == "missing-output":
                del stored["output_amax"]
            else:
                stored["key"] = "0" * 64
            text = json.dumps(stored)
        path.write_text(text)
        clear_system_cache()
        with pytest.raises(ValueError, match=re.escape(str(path))):
            get_system("jarvis")


# ----------------------------------------------------------------------
# The key
# ----------------------------------------------------------------------
class TestCalibrationKey:
    def test_planner_key_follows_weights_rotation_and_prompts(self):
        plain = get_system("jarvis").planner
        rotated = get_system("jarvis-rotated").planner
        key = plain.calibration_key()
        assert len(key) == 64 and key != rotated.calibration_key()
        assert DeployedPlanner(plain.weights, plain.vocab, plain.suite,
                               spec=INT4, calibrate=False).calibration_key() == key
        head = plain.weights.head.copy()
        head[0, 0] = np.nextafter(head[0, 0], np.inf)
        nudged = PlannerWeights(plain.weights.config, plain.weights.vocab_size,
                                plain.weights.embed, plain.weights.layers, head)
        assert DeployedPlanner(nudged, plain.vocab, plain.suite,
                               calibrate=False).calibration_key() != key
        fewer = TaskSuite(plain.suite.name, plain.suite.registry,
                          plain.suite.tasks()[:-1])
        assert DeployedPlanner(plain.weights, plain.vocab, fewer,
                               calibrate=False).calibration_key() != key

    def test_controller_key_follows_weights_and_recipe(self, monkeypatch):
        controller = get_system("jarvis").controller
        key = controller.calibration_key()
        suite, registry, _ = controller_spaces(controller.config)

        def uncalibrated(network=None, **recipe):
            recipe = {"calibration_suite": suite,
                      "calibration_registry": registry, **recipe}
            return DeployedController(network or get_controller_network("jarvis"),
                                      calibrate=False, **recipe)

        def rollout(*args, **kwargs):
            raise AssertionError("the key must not draw the calibration set")

        monkeypatch.setattr(controller_module, "build_controller_dataset", rollout)
        assert uncalibrated().calibration_key() == key
        network = get_controller_network("jarvis")
        network.policy_head.bias.data[0] += 1e-9
        assert uncalibrated(network).calibration_key() != key
        assert uncalibrated(calibration_suite=SUITES["manipulation"]
                            ).calibration_key() != key
        assert uncalibrated(calibration_registry=MANIPULATION_SUBTASKS
                            ).calibration_key() != key
        assert uncalibrated(id_registry=registry).calibration_key() != key
        monkeypatch.setitem(CALIBRATION_RECIPE, "samples", 599)
        assert uncalibrated().calibration_key() != key

    def test_format_version_enters_the_key(self, monkeypatch):
        planner = get_system("jarvis").planner
        key = planner.calibration_key()
        monkeypatch.setattr(quantizer, "CALIBRATION_FORMAT",
                            quantizer.CALIBRATION_FORMAT + 1)
        assert planner.calibration_key() != key


# ----------------------------------------------------------------------
# The shipped files
# ----------------------------------------------------------------------
class TestShippedCalibrations:
    """The committed files must be what this code calibrates today.

    Like ``TestCalibrationPins``, these hold on the BLAS kernel that wrote
    the files: elsewhere a fresh calibration profiles other maxima, and the
    rotated planners' keys differ (see ROADMAP).
    """

    @pytest.mark.parametrize(("role", "name"), sorted(SHIPPED))
    def test_shipped_maxima_equal_a_fresh_calibration(self, role, name):
        models = {getattr(get_system(key), role).calibration_key():
                  getattr(get_system(key), role) for key in SHIPPED[role, name]}
        paths = sorted(cache_directory().glob(f"calibration-{role}-{name}-*.json"))
        assert [path.name for path in paths] == sorted(
            calibration_path(role, name, key).name for key in models), \
            f"a shipped calibration file is stale or missing: {REGENERATE}"
        for key, model in models.items():
            path = calibration_path(role, name, key)
            assert path.stat().st_mtime_ns < COLLECTED_NS, \
                f"{path.name} was written during this test run: ship it"
            fresh = _fresh(role, model).calibrator
            assert _stored(path) == _hex(fresh), f"{path.name}: {REGENERATE}"

    def test_fresh_process_deploys_without_calibrating(self):
        script = """
from repro.agents import controller, planner, registry, zoo

def forbidden(*args, **kwargs):
    raise AssertionError("calibrated while deploying a shipped system")

planner.DeployedPlanner.calibrate = forbidden
controller.DeployedController.calibrate = forbidden
controller.build_controller_dataset = forbidden

def snapshot():
    return sorted((path.name, path.stat().st_size, path.stat().st_mtime_ns)
                  for path in zoo.cache_directory().iterdir())

before = snapshot()
for key in ("jarvis", "jarvis-rotated", "jarvis-navigation", "jarvis-assembly"):
    registry.get_system(key)
assert snapshot() == before, "the model cache changed"
"""
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        env.pop("REPRO_MODEL_CACHE", None)
        child = subprocess.run([sys.executable, "-c", script], cwd=REPO_ROOT,
                               env=env, capture_output=True, text=True)
        assert child.returncode == 0, child.stderr[-3000:]
