"""Shared fixtures: trained systems are built once per session (and cached on disk)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents import build_jarvis_system
from repro.env import MINECRAFT_SUBTASKS, MINECRAFT_SUITE, EmbodiedWorld, WorldConfig


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def jarvis_system():
    """JARVIS-1-style system without weight rotation (planner outliers intact)."""
    return build_jarvis_system(rotate_planner=False, with_predictor=True)


@pytest.fixture(scope="session")
def jarvis_system_rotated():
    """JARVIS-1-style system with weight-rotation-enhanced planning."""
    return build_jarvis_system(rotate_planner=True, with_predictor=True)


@pytest.fixture(scope="session")
def jarvis_executor(jarvis_system):
    return jarvis_system.executor()


@pytest.fixture(scope="session")
def scalar_reference():
    """Build a campaign's canonical tables cell by cell.

    Every cell of ``enumerate_cells(specs)`` runs alone, a lane group of
    one (``_run_cell``), the reference every engine path must match byte
    for byte.  ``reference(specs, out, name)`` writes
    ``<out>/<name>.csv`` and ``.json`` and returns the table, whose rows
    keep their profile columns.
    """
    from repro.agents.registry import get_system
    from repro.eval.campaign import _run_cell, enumerate_cells
    from repro.eval.runtable import RunTable

    def reference(specs, out, name):
        executors = {}
        table = RunTable()
        for cell in enumerate_cells(specs):
            if cell.system not in executors:
                executors[cell.system] = get_system(cell.system).executor()
            table.add(_run_cell(cell, executors[cell.system]))
        table = table.sorted({spec.key(): i for i, spec in enumerate(specs)})
        table.write_csv(out / f"{name}.csv")
        table.write_json(out / f"{name}.json")
        return table

    return reference


@pytest.fixture(scope="session")
def deployed_planner(jarvis_system):
    return jarvis_system.planner


@pytest.fixture(scope="session")
def deployed_controller(jarvis_system):
    return jarvis_system.controller


@pytest.fixture()
def wooden_world(rng) -> EmbodiedWorld:
    """A fresh world running the ``wooden`` task."""
    return EmbodiedWorld(MINECRAFT_SUITE.get("wooden"), MINECRAFT_SUBTASKS,
                         WorldConfig(), rng)
