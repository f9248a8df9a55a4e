"""Task definitions: the 21 evaluation tasks of the paper (Table 10).

A task is a named goal whose ground-truth decomposition is an ordered list of
subtasks (the "recipe").  The planner must reproduce this decomposition; the
executor only lets a subtask complete when all of its predecessors in the
recipe have completed (prerequisites), so planning errors waste steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .subtasks import MANIPULATION_SUBTASKS, MINECRAFT_SUBTASKS, SubtaskRegistry

__all__ = [
    "TaskSpec",
    "TaskSuite",
    "MINECRAFT_SUITE",
    "LIBERO_SUITE",
    "CALVIN_SUITE",
    "OXE_SUITE",
    "MANIPULATION_SUITE",
    "KITCHEN_SUITE",
    "SUITES",
    "build_kitchen_suite",
    "get_task",
]


@dataclass(frozen=True)
class TaskSpec:
    """One evaluation task."""

    name: str
    benchmark: str
    description: str
    plan: tuple[str, ...]

    def __post_init__(self):
        if not self.plan:
            raise ValueError("a task needs at least one subtask")

    @property
    def target(self) -> str:
        """The final subtask, completion of which finishes the task."""
        return self.plan[-1]

    def prerequisite_graph(self) -> "networkx.DiGraph":
        """Linear dependency chain as a DAG (earlier subtask -> later subtask).

        Needs ``networkx``, which nothing else in the package uses, so it is
        imported here rather than on every process's import path.
        """
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self.plan)
        for earlier, later in zip(self.plan, self.plan[1:]):
            graph.add_edge(earlier, later)
        return graph


class TaskSuite:
    """A benchmark: a set of tasks sharing one subtask registry."""

    def __init__(self, name: str, registry: SubtaskRegistry, tasks: list[TaskSpec]):
        self.name = name
        self.registry = registry
        self._tasks: dict[str, TaskSpec] = {}
        for task in tasks:
            if task.name in self._tasks:
                raise ValueError(f"duplicate task {task.name!r}")
            for subtask in task.plan:
                if subtask not in registry:
                    raise ValueError(
                        f"task {task.name!r} references unknown subtask {subtask!r}")
            self._tasks[task.name] = task

    def __contains__(self, name: str) -> bool:
        return name in self._tasks

    def __len__(self) -> int:
        return len(self._tasks)

    @property
    def task_names(self) -> list[str]:
        return sorted(self._tasks)

    def get(self, name: str) -> TaskSpec:
        if name not in self._tasks:
            raise KeyError(f"unknown task {name!r} in suite {self.name!r}")
        return self._tasks[name]

    def tasks(self) -> list[TaskSpec]:
        return [self._tasks[name] for name in self.task_names]


# ----------------------------------------------------------------------
# JARVIS-1 / Minecraft benchmark (paper Table 10, "Minecraft" rows)
# ----------------------------------------------------------------------
MINECRAFT_SUITE = TaskSuite("minecraft", MINECRAFT_SUBTASKS, [
    TaskSpec("wooden", "minecraft", "Obtain a wooden pickaxe in a jungle",
             ("mine_logs", "craft_planks", "craft_sticks", "craft_crafting_table",
              "craft_wooden_pickaxe")),
    TaskSpec("stone", "minecraft", "Obtain a stone pickaxe in the plains",
             ("mine_logs", "craft_planks", "craft_sticks", "craft_wooden_pickaxe",
              "mine_stone", "craft_stone_pickaxe")),
    TaskSpec("charcoal", "minecraft", "Obtain charcoal in the plains",
             ("mine_logs", "craft_planks", "craft_furnace", "smelt_charcoal")),
    TaskSpec("chicken", "minecraft", "Obtain a cooked chicken in the plains",
             ("mine_logs", "craft_planks", "craft_furnace", "hunt_chicken", "cook_chicken")),
    TaskSpec("coal", "minecraft", "Obtain coal in a savanna",
             ("mine_logs", "craft_planks", "craft_sticks", "craft_wooden_pickaxe",
              "mine_coal")),
    TaskSpec("iron", "minecraft", "Obtain an iron sword in the plains",
             ("mine_logs", "craft_planks", "craft_sticks", "craft_wooden_pickaxe",
              "mine_stone", "craft_stone_pickaxe", "mine_iron_ore", "craft_furnace",
              "smelt_iron_ingot", "craft_iron_sword")),
    TaskSpec("wool", "minecraft", "Obtain 5 white wool in the plains",
             ("mine_logs", "craft_planks", "shear_sheep")),
    TaskSpec("seed", "minecraft", "Obtain 10 wheat seeds in a savanna",
             ("harvest_grass",)),
    TaskSpec("log", "minecraft", "Obtain 10 logs in a forest",
             ("mine_logs",)),
])

# ----------------------------------------------------------------------
# LIBERO benchmark (OpenVLA planner evaluation)
# ----------------------------------------------------------------------
LIBERO_SUITE = TaskSuite("libero", MANIPULATION_SUBTASKS, [
    TaskSpec("wine", "libero", "Put wine bottle on top of cabinet",
             ("locate_object", "grasp_object", "approach_target", "place_object")),
    TaskSpec("alphabet", "libero", "Pick up alphabet soup and place it in basket",
             ("locate_object", "grasp_object", "place_object")),
    TaskSpec("bbq", "libero", "Pick up bbq sauce and place it in basket",
             ("locate_object", "grasp_object", "place_object")),
])

# ----------------------------------------------------------------------
# CALVIN benchmark (RoboFlamingo planner evaluation)
# ----------------------------------------------------------------------
CALVIN_SUITE = TaskSuite("calvin", MANIPULATION_SUBTASKS, [
    TaskSpec("button", "calvin", "Press the button to turn off the LED light",
             ("approach_target", "press_button")),
    TaskSpec("block", "calvin", "Slide the block so that it falls into the drawer",
             ("open_drawer", "locate_object", "slide_block")),
    TaskSpec("handle", "calvin", "Pull the handle to open the drawer",
             ("approach_target", "pull_handle")),
])

# ----------------------------------------------------------------------
# OXE benchmark (Octo / RT-1 controller evaluation)
# ----------------------------------------------------------------------
OXE_SUITE = TaskSuite("oxe", MANIPULATION_SUBTASKS, [
    TaskSpec("eggplant", "oxe", "Put eggplant in basket",
             ("locate_object", "grasp_object", "place_object")),
    TaskSpec("coke", "oxe", "Grasp single opened coke can",
             ("locate_object", "grasp_object")),
    TaskSpec("carrot", "oxe", "Put carrot on plate",
             ("locate_object", "grasp_object", "place_object")),
    TaskSpec("open", "oxe", "Open middle drawer",
             ("approach_target", "open_drawer")),
    TaskSpec("move", "oxe", "Move near google baked tex",
             ("locate_object", "approach_target")),
    TaskSpec("place", "oxe", "Place into closed top drawer",
             ("open_drawer", "grasp_object", "place_object")),
])

#: Union of the three manipulation benchmarks; used to train controllers that
#: must generalize across LIBERO / CALVIN / OXE episodes.
MANIPULATION_SUITE = TaskSuite(
    "manipulation", MANIPULATION_SUBTASKS,
    LIBERO_SUITE.tasks() + CALVIN_SUITE.tasks() + OXE_SUITE.tasks())


# ----------------------------------------------------------------------
# Generated kitchen-rearrangement benchmark (scenario diversity beyond the
# paper's Table 10 suites; exercises the kernel runtime on a non-Minecraft
# workload through the ``controller-rt1-kitchen`` registry key)
# ----------------------------------------------------------------------
#: (template name, plan skeleton) pairs the generator draws from.  Every
#: subtask is from the manipulation registry, so any controller trained on
#: the LIBERO/CALVIN/OXE union can execute kitchen episodes unchanged.
_KITCHEN_TEMPLATES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("serve", ("locate_object", "grasp_object", "approach_target", "place_object")),
    ("stow", ("open_drawer", "locate_object", "grasp_object", "place_object",
              "close_drawer")),
    ("clear", ("locate_object", "grasp_object", "place_object")),
    ("start-appliance", ("approach_target", "press_button")),
    ("restock", ("pull_handle", "locate_object", "grasp_object", "place_object")),
    ("tidy-counter", ("locate_object", "slide_block")),
)

_KITCHEN_OBJECTS = ("plate", "mug", "pan", "bowl", "kettle", "tray", "jar",
                    "cutting-board")


def build_kitchen_suite(num_tasks: int = 8, seed: int = 2030) -> TaskSuite:
    """Procedurally generate a kitchen-rearrangement task suite.

    Each task pairs a manipulation template with a kitchen object; the drawn
    combinations are deterministic in ``seed``, so campaign workers rebuild
    the identical suite.  Task names are *not* part of the planner
    vocabulary (see :func:`repro.agents.vocabulary.build_vocabulary`), so
    kitchen tasks run controller-only (ground-truth plans), exactly like the
    OXE controller studies.
    """
    if num_tasks < 1:
        raise ValueError("num_tasks must be positive")
    rng = np.random.default_rng(seed)
    tasks: list[TaskSpec] = []
    seen: set[str] = set()
    while len(tasks) < num_tasks:
        template, plan = _KITCHEN_TEMPLATES[int(rng.integers(len(_KITCHEN_TEMPLATES)))]
        obj = _KITCHEN_OBJECTS[int(rng.integers(len(_KITCHEN_OBJECTS)))]
        name = f"{template}-{obj}"
        if name in seen:
            continue
        seen.add(name)
        tasks.append(TaskSpec(
            name=name,
            benchmark="kitchen",
            description=f"{template.replace('-', ' ')} the {obj.replace('-', ' ')}",
            plan=plan,
        ))
    return TaskSuite("kitchen", MANIPULATION_SUBTASKS, tasks)


#: The default kitchen-rearrangement benchmark used by the campaign presets.
KITCHEN_SUITE = build_kitchen_suite()

#: All suites keyed by benchmark name.
SUITES: dict[str, TaskSuite] = {
    suite.name: suite for suite in (MINECRAFT_SUITE, LIBERO_SUITE, CALVIN_SUITE,
                                    OXE_SUITE, MANIPULATION_SUITE, KITCHEN_SUITE)
}


def get_task(name: str, benchmark: str | None = None) -> TaskSpec:
    """Look up a task by name, optionally restricted to one benchmark."""
    suites = [SUITES[benchmark]] if benchmark else SUITES.values()
    for suite in suites:
        if name in suite:
            return suite.get(name)
    raise KeyError(f"unknown task {name!r}")
