"""Command-line interface to the CREATE reproduction.

The subcommands cover the workflows a downstream user needs most often::

    python -m repro.cli hardware                      # accelerator / LDO / model tables
    python -m repro.cli policies                      # entropy-to-voltage policies A-F
    python -m repro.cli systems                       # registered system keys
    python -m repro.cli suites                        # scenario catalog + fingerprints
    python -m repro.cli mission --task wooden         # run protected missions
    python -m repro.cli characterize --target planner # BER sweep on one model
    python -m repro.cli campaign ad-controller        # declarative experiment campaigns
    python -m repro.cli campaign paper --out runs/paper --jobs 8   # the whole paper
    python -m repro.cli campaign navigation           # generated-scenario battery
    python -m repro.cli worker --queue runs/q         # drain a shared work queue
    python -m repro.cli serve runs/q                  # queue over HTTP (campaign service)
    python -m repro.cli worker --queue-url http://host:8765 --wait  # network worker
    python -m repro.cli autoscale --queue-url http://host:8765      # elastic fleet
    python -m repro.cli merge runs/merged runs/q      # merge worker/shard tables
    python -m repro.cli merge runs/merged runs/q --watch   # live re-merge loop
    python -m repro.cli report runs/paper --out runs/paper-pack  # publication pack
    python -m repro.cli report --diff runs/pack-a runs/pack-b    # compare packs

``mission``, ``characterize`` and ``campaign`` execute through the campaign
engine (:mod:`repro.eval.campaign`): ``--jobs N`` fans trials out over worker
processes, ``--batch K`` groups several (condition, seed) cells per worker
task (default: auto-tuned), and ``--out DIR`` streams the run table to disk
as cells complete, so re-runs — including runs interrupted mid-campaign —
only execute missing cells.

Campaigns also scale past one host (:mod:`repro.eval.scheduler`):
``campaign <preset> --dry-run`` prints the planned cell grid without
training or running anything; ``--queue DIR`` enqueues the grid as task
files that any number of ``worker`` daemons (on any hosts sharing the
filesystem) claim, lease, and execute; ``--shard i/N --out DIR`` statically
executes the i-th of N deterministic grid slices for queue-less clusters.
For hosts that share no filesystem, ``serve`` exposes the same queue over
HTTP/JSON (:mod:`repro.eval.service`): workers connect with ``--queue-url``
instead of ``--queue``, and ``autoscale`` keeps a local fleet sized to the
queue's depth and drain rate until it empties.  ``merge`` unions the
resulting worker/shard run tables — with conflict detection — into
canonical files byte-identical to a single-host run.

The ``campaign paper`` preset chains every figure/table preset into one
resumable full-paper sweep directory (one subdirectory per preset); see
``docs/campaigns.md`` for the preset-to-figure map and the distributed
execution walkthrough.

The first invocation of a trial-running subcommand trains and caches the
surrogate models (a few minutes); later invocations are fast.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = ["build_parser", "main", "CAMPAIGN_PRESETS", "PAPER_PRESET_CHAIN"]

# ----------------------------------------------------------------------
# Campaign presets: one row per figure/table, plus the chained paper sweep
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Preset:
    """One ``campaign`` preset: a row of :data:`CAMPAIGN_PRESETS`.

    ``plans(args, suite)`` declares the campaign plans the preset runs from
    the parsed options and the row's own ``suite``, building nothing;
    ``report(args, suite, results)`` prints the figure table from the
    finished results of those plans, in plan order.  ``options`` names the
    shared options the preset reads; the task check and the ignored-option
    notes read it.
    """

    figure: str
    options: tuple[str, ...]
    plans: Callable[[argparse.Namespace, str], list] | None = None
    report: Callable[[argparse.Namespace, str, list], None] | None = None
    suite: str = "minecraft"


def _suite(name: str):
    """The :class:`~repro.env.tasks.TaskSuite` called ``name``: a registered
    suite or a catalog scenario."""
    from .env.scenarios import CATALOG
    from .env.tasks import SUITES

    return SUITES[name] if name in SUITES else CATALOG.build(name)


def _task(args) -> str:
    """``--task``, else ``wooden``, the default task of the Minecraft presets."""
    return args.task or "wooden"


def _ad_plans(target: str, args, suite: str) -> list:
    from .eval import experiments

    return experiments.ad_evaluation_plans("jarvis", _task(args), list(args.bers),
                                           target, num_trials=args.trials,
                                           seed=args.seed)


def _wr_plans(args, suite: str) -> list:
    from .eval import experiments

    return experiments.wr_evaluation_plans("jarvis", "jarvis-rotated", _task(args),
                                           list(args.bers), num_trials=args.trials,
                                           seed=args.seed)


def _sweeps_report(what: str, args, suite: str, results: list) -> None:
    from .eval import experiments, format_sweep

    print(format_sweep(experiments.sweep_summaries(results), "success_rate",
                       title=f"{what}: success rate on {_task(args)!r}"))


def _vs_plans(args, suite: str) -> list:
    from .eval import experiments

    return experiments.vs_evaluation_plans("jarvis", _task(args),
                                           num_trials=args.trials, seed=args.seed)


def _vs_report(args, suite: str, results: list) -> None:
    from .eval import experiments, format_table

    rows = [[e.policy.name, e.success_rate, e.effective_voltage,
             e.summary.mean_energy_j * 1e3]
            for e in experiments.vs_evaluation_summary(results)]
    print(format_table(["policy", "success rate", "effective V", "energy (mJ)"],
                       rows, title=f"voltage-scaling policies on {_task(args)!r}"))


def _interval_plans(args, suite: str) -> list:
    from .eval import experiments

    return experiments.interval_sweep_plans("jarvis", _task(args),
                                            num_trials=args.trials, seed=args.seed)


def _interval_report(args, suite: str, results: list) -> None:
    from .eval import experiments, format_table

    rows = [[interval, s.success_rate, s.effective_voltage]
            for interval, s in experiments.interval_sweep_summary(results).items()]
    print(format_table(["update interval", "success rate", "effective V"], rows,
                       title=f"VS update-interval sensitivity on {_task(args)!r}"))


def _overall_plans(args, suite: str) -> list:
    from .core import CreateConfig, default_policy
    from .eval import experiments

    tasks = args.tasks or ([args.task] if args.task
                           else ["wooden", "stone", "chicken", "seed"])
    configs = {
        "unprotected": CreateConfig(ad=False, wr=False),
        "AD": CreateConfig(ad=True, wr=False),
        "AD+WR": CreateConfig(ad=True, wr=True),
        "AD+WR+VS": CreateConfig(ad=True, wr=True, vs_policy=default_policy()),
    }
    systems = {"unprotected": "jarvis", "AD": "jarvis",
               "AD+WR": "jarvis-rotated", "AD+WR+VS": "jarvis-rotated"}
    return experiments.overall_evaluation_plans(systems, tasks, configs,
                                                num_trials=args.trials,
                                                seed=args.seed)


#: Controller supply voltage of the ``kitchen`` preset's two arms.
_KITCHEN_VOLTAGE = 0.75


def _kitchen_plans(args, suite: str) -> list:
    """Kitchen-rearrangement controller suite (scenario diversity, no figure)."""
    from .core import CreateConfig
    from .eval import experiments

    configs = {
        "unprotected": CreateConfig(ad=False, wr=False,
                                    controller_voltage=_KITCHEN_VOLTAGE),
        "AD": CreateConfig(ad=True, wr=False, controller_voltage=_KITCHEN_VOLTAGE),
    }
    systems = dict.fromkeys(configs, "controller-rt1-kitchen")
    return experiments.overall_evaluation_plans(
        systems, args.tasks or _suite(suite).task_names, configs,
        num_trials=args.trials, seed=args.seed)


def _overall_report(title: str, args, suite: str, results: list) -> None:
    """Success rate per task and configuration, then mean energy."""
    from .eval import experiments, format_table

    overall = experiments.overall_evaluation_summary(results)
    labels = list(overall)
    tasks = list(overall[labels[0]].per_task)
    rows = [[task] + [overall[label].per_task[task].success_rate
                      for label in labels] for task in tasks]
    rows.append(["mean energy (mJ)"] + [overall[label].mean_energy() * 1e3
                                        for label in labels])
    print(format_table(["task"] + labels, rows, title=title))


def _baselines_plans(args, suite: str) -> list:
    from .eval import experiments

    return experiments.baseline_comparison_plans("jarvis", "jarvis-rotated",
                                                 _task(args), num_trials=args.trials,
                                                 seed=args.seed)


def _baselines_report(args, suite: str, results: list) -> None:
    from .eval import experiments, format_table

    arms = experiments.baseline_comparison_summary(results)
    voltages = sorted(arms["create"], reverse=True)
    rows = [[v] + [arms[arm][v]["success_rate"] for arm in arms] for v in voltages]
    print(format_table(["voltage (V)"] + list(arms), rows,
                       title=f"baseline comparison on {_task(args)!r} (success rate)"))


def _repetition_counts(args) -> list[int]:
    return sorted({max(1, args.trials // 4), max(1, args.trials // 2), args.trials})


def _repetitions_plans(args, suite: str) -> list:
    from .eval import experiments

    return experiments.repetition_study_plans("jarvis", _task(args), args.bers[0],
                                              _repetition_counts(args),
                                              seed=args.seed)


def _repetitions_report(args, suite: str, results: list) -> None:
    from .eval import experiments, format_table

    rates = experiments.repetition_study_summary(results, _repetition_counts(args))
    print(format_table(["repetitions", "success rate"], list(rates.items()),
                       title=f"repetition study on {_task(args)!r} "
                             f"(BER {args.bers[0]:.0e})"))


def _quantization_plans(args, suite: str) -> list:
    from .eval import experiments

    return experiments.quantization_study_plans(None, _task(args), list(args.bers),
                                                num_trials=args.trials,
                                                seed=args.seed)


def _quantization_report(args, suite: str, results: list) -> None:
    from .eval import experiments, format_table

    rates = experiments.quantization_study_summary(results)
    labels = list(rates)
    rows = [[f"{ber:.0e}"] + [rates[label][ber] for label in labels]
            for ber in args.bers]
    print(format_table(["planner BER"] + labels, rows,
                       title=f"quantization study on {_task(args)!r}"))


def _scenario_plans(args, suite: str) -> list:
    """AD/WR planner-resilience battery on the generated catalog scenario."""
    from .eval import experiments

    return experiments.scenario_resilience_plans(suite, list(args.bers),
                                                 tasks=args.tasks,
                                                 num_trials=args.trials,
                                                 seed=args.seed)


def _scenario_report(args, suite: str, results: list) -> None:
    from .env.scenarios import CATALOG
    from .eval import experiments, format_table

    sweeps = experiments.scenario_resilience_summary(results)
    arms = list(sweeps)
    tasks = list(sweeps[arms[0]])
    rows = []
    for index, ber in enumerate(args.bers):
        rows.append([f"{ber:.0e}"] + [
            float(np.mean([sweeps[arm][task].points[index].summary.success_rate
                           for task in tasks])) for arm in arms])
    print(format_table(["planner BER"] + arms, rows,
                       title=f"{suite} scenario ({len(tasks)} task(s), "
                             f"suite {CATALOG.get(suite).fingerprint}): success rate"))


def _fleet_plans(args, suite: str) -> list:
    """Fleet runtime: missions completed under per-agent BER."""
    from .eval import experiments

    return experiments.fleet_resilience_plans(
        fleet_sizes=list(args.fleet_sizes), bers=list(args.bers),
        task=args.task, scenario=suite,
        seed=args.seed)


def _fleet_report(args, suite: str, results: list) -> None:
    from .eval import experiments, format_table

    rows = []
    for fleet_size, points in experiments.fleet_resilience_summary(results).items():
        for point in points:
            rows.append([fleet_size, f"{point.ber:.0e}" if point.ber else "0",
                         point.missions_completed, point.mission_success_rate])
    print(format_table(["fleet size", "per-agent BER", "missions completed",
                        "success rate"], rows,
                       title="fleet missions under per-agent BER "
                             "(cross-agent batched stepping)"))


_TASK_BERS_TRIALS = ("task", "bers", "trials")

#: The ``campaign`` presets, one row each, keyed by preset name.
#: ``fleet`` runs one mission per agent, so its trial counts come from
#: ``--fleet-sizes``, which no other preset reads.  ``paper`` declares no
#: plans of its own: it runs the presets of :data:`PAPER_PRESET_CHAIN`.
CAMPAIGN_PRESETS = {
    "ad-planner": Preset(
        "anomaly detection on the planner (Fig. 13a)", _TASK_BERS_TRIALS,
        plans=partial(_ad_plans, "planner"),
        report=partial(_sweeps_report, "AD on the planner")),
    "ad-controller": Preset(
        "anomaly detection on the controller (Fig. 13b)", _TASK_BERS_TRIALS,
        plans=partial(_ad_plans, "controller"),
        report=partial(_sweeps_report, "AD on the controller")),
    "wr": Preset(
        "weight rotation on the planner (Fig. 13c/e)", _TASK_BERS_TRIALS,
        plans=_wr_plans, report=partial(_sweeps_report, "WR on the planner")),
    "vs": Preset(
        "voltage-scaling policies vs. constant baselines (Fig. 13d/f)",
        ("task", "trials"), plans=_vs_plans, report=_vs_report),
    "interval": Preset(
        "voltage-update-interval sensitivity (Fig. 15)", ("task", "trials"),
        plans=_interval_plans, report=_interval_report),
    "overall": Preset(
        "overall evaluation of the CREATE configurations (Fig. 16a)",
        ("task", "tasks", "trials"), plans=_overall_plans,
        report=partial(_overall_report, "overall evaluation (Fig. 16a)")),
    "baselines": Preset(
        "CREATE vs. DMR / ThUnderVolt / ABFT (Fig. 20)", ("task", "trials"),
        plans=_baselines_plans, report=_baselines_report),
    "repetitions": Preset(
        "success rate vs. repetition count (Table 5)", _TASK_BERS_TRIALS,
        plans=_repetitions_plans, report=_repetitions_report),
    "quantization": Preset(
        "INT8 vs. INT4 planner robustness (Table 6)", _TASK_BERS_TRIALS,
        plans=_quantization_plans, report=_quantization_report),
    "kitchen": Preset(
        "kitchen-rearrangement controller suite (beyond the paper)",
        ("tasks", "trials"), plans=_kitchen_plans,
        report=partial(_overall_report,
                       f"kitchen-rearrangement suite at {_KITCHEN_VOLTAGE} V "
                       "(controller-rt1-kitchen)"),
        suite="kitchen"),
    "navigation": Preset(
        "AD/WR planner battery on the generated navigation scenario",
        ("tasks", "bers", "trials"), plans=_scenario_plans,
        report=_scenario_report, suite="navigation"),
    "assembly": Preset(
        "AD/WR planner battery on the generated assembly scenario",
        ("tasks", "bers", "trials"), plans=_scenario_plans,
        report=_scenario_report, suite="assembly"),
    "fleet": Preset(
        "multi-agent fleet missions under per-agent BER (beyond the paper)",
        ("task", "bers", "fleet_sizes"), plans=_fleet_plans,
        report=_fleet_report, suite="navigation"),
    "paper": Preset(
        "chain every paper preset into one resumable full-paper sweep",
        ("task", "tasks", "bers", "trials")),
}

#: Order in which ``campaign paper`` chains the single-figure presets.
PAPER_PRESET_CHAIN = ("ad-planner", "ad-controller", "wr", "vs", "interval",
                      "overall", "baselines", "repetitions", "quantization")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-create",
        description="CREATE: cross-layer resilience characterization and optimization "
                    "for efficient yet reliable embodied AI systems (reproduction CLI)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def positive_int(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError("must be >= 1")
        return value

    def fleet_size(text: str) -> int:
        from .eval.campaign import MAX_FLEET_SIZE

        value = int(text)
        if not 1 <= value <= MAX_FLEET_SIZE:
            raise argparse.ArgumentTypeError(f"must be in 1..{MAX_FLEET_SIZE}")
        return value

    def add_engine_args(sub):
        sub.add_argument("--jobs", type=positive_int, default=1,
                         help="worker processes for trial execution (default: 1)")
        sub.add_argument("--batch", type=positive_int, default=None, metavar="K",
                         help="cells per worker task; amortizes IPC for short "
                              "trials (default: auto-tuned, ~4 batches/worker)")
        sub.add_argument("--out", default=None, metavar="DIR",
                         help="directory for the persistent run table; rows are "
                              "streamed to it as trials complete, and re-runs "
                              "resume from it, only executing missing trials")

    mission = subparsers.add_parser(
        "mission", help="run repeated task missions under a CREATE configuration")
    mission.add_argument("--task", default="wooden", help="task name (default: wooden)")
    mission.add_argument("--trials", type=positive_int, default=10,
                         help="number of repetitions")
    mission.add_argument("--seed", type=int, default=0)
    mission.add_argument("--ad", action="store_true", help="enable anomaly detection")
    mission.add_argument("--wr", action="store_true", help="deploy the weight-rotated planner")
    mission.add_argument("--vs", action="store_true",
                         help="enable autonomy-adaptive voltage scaling (policy C)")
    mission.add_argument("--planner-voltage", type=float, default=None,
                         help="planner supply voltage in volts (default: nominal 0.9)")
    mission.add_argument("--controller-voltage", type=float, default=None,
                         help="controller supply voltage (ignored when --vs is set)")
    mission.add_argument("--system", default=None, metavar="KEY",
                         help="registry key of the system to run (see the "
                              "'systems' subcommand); overrides the default "
                              "jarvis/jarvis-rotated choice")
    add_engine_args(mission)

    characterize = subparsers.add_parser(
        "characterize", help="sweep the BER injected into the planner or controller")
    characterize.add_argument("--target", choices=("planner", "controller"),
                              default="controller")
    characterize.add_argument("--task", default="wooden")
    characterize.add_argument("--bers", type=float, nargs="+",
                              default=[1e-5, 1e-4, 1e-3, 3e-3])
    characterize.add_argument("--trials", type=positive_int, default=10)
    characterize.add_argument("--ad", action="store_true", help="enable anomaly detection")
    characterize.add_argument("--seed", type=int, default=0)
    add_engine_args(characterize)

    campaign = subparsers.add_parser(
        "campaign",
        help="run a declarative experiment campaign (parallel, resumable)",
        description="Run one of the paper's experiment campaigns through the "
                    "campaign engine.  With --out, the run table is streamed "
                    "to disk as trials complete and re-runs only execute "
                    "missing (condition, seed) cells.  The 'paper' preset "
                    "chains every other preset into one resumable sweep "
                    "directory.",
        epilog="presets: " + "; ".join(f"{name} = {CAMPAIGN_PRESETS[name].figure}"
                                       for name in sorted(CAMPAIGN_PRESETS)))
    campaign.add_argument("preset", choices=sorted(CAMPAIGN_PRESETS),
                          help="which experiment campaign to run")
    campaign.add_argument("--task", default=None,
                          help="task name (default: the preset's own, e.g. wooden)")
    campaign.add_argument("--tasks", nargs="+", default=None,
                          help="task list (presets spanning several tasks)")
    campaign.add_argument("--bers", type=float, nargs="+", default=[1e-4, 1e-3, 3e-3])
    campaign.add_argument("--trials", type=positive_int, default=8)
    campaign.add_argument("--seed", type=int, default=0)
    campaign.add_argument("--fleet-sizes", type=fleet_size, nargs="+",
                          default=[1, 4, 16], metavar="N",
                          help="fleet sizes for the 'fleet' preset: agents "
                               "co-stepped through one batched kernel pass "
                               "per tick (default: 1 4 16)")
    add_engine_args(campaign)
    # Checks that depend on the chosen preset run after parsing and report
    # through this subcommand's own usage line.
    campaign.set_defaults(campaign_parser=campaign)
    campaign.add_argument("--dry-run", action="store_true",
                          help="print the planned (condition, seed) cell "
                               "counts per campaign — and per shard with "
                               "--shard — without training or running anything")
    campaign.add_argument("--shard", default=None, metavar="I/N",
                          help="execute only the I-th of N static slices of "
                               "the cell grid (1-based, e.g. 2/4); requires "
                               "--out; combine the slices afterwards with "
                               "the 'merge' subcommand")
    campaign.add_argument("--queue", default=None, metavar="DIR",
                          help="instead of executing, enqueue the cell grid "
                               "as task files in this work-queue directory "
                               "for 'worker' daemons to claim and execute")

    worker = subparsers.add_parser(
        "worker",
        help="run a worker daemon that drains a shared campaign work queue",
        description="Claim task files from a work queue (filled by "
                    "'campaign <preset> --queue DIR'), execute their "
                    "(condition, seed) cells, and stream rows to a "
                    "per-worker run table under DIR/results/.  Leases are "
                    "heartbeated while executing; leases of dead workers "
                    "expire and are re-queued, so no cell is lost.  Merge "
                    "the worker tables with the 'merge' subcommand.")
    worker.add_argument("--queue", default=None, metavar="DIR",
                        help="work-queue directory (shared filesystem)")
    worker.add_argument("--queue-url", default=None, metavar="URL",
                        help="campaign-service URL (see the 'serve' "
                             "subcommand) to pull tasks from instead of a "
                             "shared-filesystem queue directory")
    worker.add_argument("--jobs", type=positive_int, default=1,
                        help="process-pool workers for cell execution "
                             "(default: 1, in-process)")
    worker.add_argument("--plan", default=None, metavar="NAME",
                        help="plan affinity: prefer this plan's tasks and "
                             "steal from the deepest co-queued plan only "
                             "when it drains (default: deterministic task "
                             "order)")
    worker.add_argument("--id", default=None, metavar="NAME",
                        help="worker id for leases and the results "
                             "directory (default: <hostname>-<pid>)")
    worker.add_argument("--lease-ttl", type=float, default=120.0, metavar="S",
                        help="seconds without a heartbeat before a lease "
                             "expires and its task is re-queued (default: 120)")
    worker.add_argument("--poll", type=float, default=1.0, metavar="S",
                        help="seconds between queue polls while waiting "
                             "(default: 1)")
    worker.add_argument("--wait", action="store_true",
                        help="keep polling until every task is done or "
                             "failed (reclaiming expired leases), instead "
                             "of exiting when no task is claimable")
    worker.add_argument("--max-tasks", type=positive_int, default=None,
                        metavar="N", help="stop after claiming N tasks")

    serve = subparsers.add_parser(
        "serve",
        help="run the HTTP campaign service over a work-queue directory",
        description="Serve the work-queue protocol (submit plans, lease "
                    "tasks with heartbeats, stream result rows, poll merge "
                    "progress) as HTTP/JSON endpoints over a server-side "
                    "queue directory.  Workers connect with 'worker "
                    "--queue-url URL'; the directory stays a normal queue, "
                    "so 'merge' and filesystem workers keep working "
                    "alongside.  See docs/campaigns.md (campaign service).")
    serve.add_argument("root", metavar="DIR",
                       help="queue directory to serve (created if missing)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765,
                       help="bind port; 0 picks an ephemeral port "
                            "(default: 8765)")
    serve.add_argument("--lease-ttl", type=float, default=120.0, metavar="S",
                       help="seconds without a heartbeat before a lease "
                            "expires and its task is re-queued (default: 120)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every request to stdout")

    autoscale = subparsers.add_parser(
        "autoscale",
        help="spawn/retire local workers against a campaign service",
        description="Poll a campaign service's queue depth and drain rate, "
                    "keep ceil(pending / tasks-per-worker) local 'worker "
                    "--queue-url' processes running (clamped to "
                    "[--min, --max]), retire surplus workers with SIGTERM "
                    "(they finish in-flight batches and exit cleanly), and "
                    "return once the queue drains.")
    autoscale.add_argument("--queue-url", required=True, metavar="URL",
                           help="campaign-service URL to scale against")
    autoscale.add_argument("--max", dest="max_workers", type=positive_int,
                           default=4, help="fleet ceiling (default: 4)")
    autoscale.add_argument("--min", dest="min_workers", type=int, default=0,
                           help="fleet floor while work remains (default: 0)")
    autoscale.add_argument("--jobs", type=positive_int, default=1,
                           help="per-worker process-pool size (default: 1)")
    autoscale.add_argument("--tasks-per-worker", type=positive_int, default=2,
                           metavar="N",
                           help="pending tasks one worker is expected to "
                                "absorb; sets the scale-up target "
                                "(default: 2)")
    autoscale.add_argument("--poll", type=float, default=0.5, metavar="S",
                           help="seconds between depth observations "
                                "(default: 0.5)")
    autoscale.add_argument("--timeout", type=float, default=None, metavar="S",
                           help="fail if the queue has not drained after "
                                "this long (default: wait forever)")

    merge = subparsers.add_parser(
        "merge",
        help="merge worker/shard run tables into canonical table files",
        description="Union every run table found under the given "
                    "directories (queue results/, shard --out dirs) by "
                    "(spec_key, seed), verify that duplicate cells agree, "
                    "and write canonical <name>.csv/.json files under OUT "
                    "— byte-identical to a single-host run when all cells "
                    "are present.")
    merge.add_argument("out", metavar="OUT",
                       help="output directory for the merged tables")
    merge.add_argument("dirs", nargs="+", metavar="DIR",
                       help="directories holding worker/shard run tables")
    merge.add_argument("--overwrite", action="store_true",
                       help="let later inputs win on conflicting duplicate "
                            "cells instead of refusing to merge")
    merge.add_argument("--watch", action="store_true",
                       help="poll the directories and re-merge on an "
                            "interval, printing live completed/pending "
                            "counts, until every queue is drained and every "
                            "planned cell is merged")
    merge.add_argument("--interval", type=float, default=5.0, metavar="S",
                       help="seconds between --watch polls (default: 5)")
    merge.add_argument("--max-polls", type=positive_int, default=None,
                       metavar="N",
                       help="with --watch, give up after N polls instead of "
                            "waiting for the queue to drain")

    report = subparsers.add_parser(
        "report",
        help="build a publication pack from a sweep directory, or "
             "diff/verify packs",
        description="Aggregate every run table under SWEEP (a campaign "
                    "--out, 'campaign paper' sweep, or merge output "
                    "directory) into a publication pack: one deterministic "
                    "JSON + CSV + markdown summary per figure with "
                    "Wilson/bootstrap confidence intervals, plus a "
                    "manifest.json of SHA-256 content hashes.  Building "
                    "twice from the same sweep produces byte-identical "
                    "packs.  --diff compares two packs (delta tables with "
                    "significance flags); --check re-hashes a pack against "
                    "its manifest.")
    report.add_argument("sweep", nargs="?", default=None, metavar="SWEEP",
                        help="sweep directory holding the run tables")
    report.add_argument("--out", default=None, metavar="DIR",
                        help="output directory of the pack (required when "
                             "building)")
    report.add_argument("--diff", nargs=2, default=None, metavar=("A", "B"),
                        help="compare two packs instead of building one; "
                             "exit 0 when identical, 1 when they differ")
    report.add_argument("--check", default=None, metavar="PACK",
                        help="verify a pack's artifacts against its "
                             "manifest hashes instead of building one")
    report.add_argument("--confidence", type=float, default=0.95,
                        metavar="LEVEL",
                        help="confidence level of the intervals and "
                             "significance flags (0.8, 0.9, 0.95, 0.99 or "
                             "0.999; default: 0.95)")

    subparsers.add_parser("hardware", help="print the accelerator / LDO / model tables")

    subparsers.add_parser("policies", help="print the entropy-to-voltage policies A-F")

    subparsers.add_parser(
        "systems",
        help="list the registered system keys (predictor-less, custom "
             "quantization, kitchen, ... variants included)")

    subparsers.add_parser(
        "suites",
        help="list the scenario catalog: every registered task suite with "
             "its content fingerprint and planner-vocabulary identity")

    return parser


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------
def _engine_kwargs(args) -> dict:
    """Campaign-engine keyword arguments shared by the trial subcommands."""
    return {"jobs": args.jobs, "out": args.out, "batch": args.batch}


def _run_mission(args) -> int:
    from .core import CreateConfig, default_policy
    from .eval import format_table
    from .eval.campaign import TrialSpec, run_campaign, slugify

    config = CreateConfig(
        ad=args.ad,
        wr=args.wr,
        vs_policy=default_policy() if args.vs else None,
        planner_voltage=args.planner_voltage,
        controller_voltage=args.controller_voltage,
    )
    system = args.system or ("jarvis-rotated" if args.wr else "jarvis")
    if args.system is not None and args.wr and "rotated" not in args.system:
        print(f"note: --wr labels the configuration as weight-rotated, but the "
              f"system is taken verbatim from --system {args.system!r}; pass a "
              "*-rotated key to actually deploy the rotated planner")
    spec = TrialSpec(condition=config.label(),
                     system=system,
                     task=args.task, num_trials=args.trials, seed=args.seed,
                     planner_protection=config.planner_protection(),
                     controller_protection=config.controller_protection())
    result = run_campaign([spec], name=slugify(f"mission-{args.task}"),
                          **_engine_kwargs(args))
    summary = result.summary(spec.condition)
    print(format_table(["metric", "value"],
                       list(summary.as_dict().items()),
                       title=f"{config.label()} on task {args.task!r}"))
    _report_run_table(result)
    return 0


def _grid_rows(result) -> int:
    """How many cells of its own grid ``result``'s table holds.  A resumed
    table may also hold rows of an earlier, larger grid; no count the CLI
    prints includes them."""
    from .eval.campaign import enumerate_cells

    return sum(result.table.has(cell.spec_key, cell.seed)
               for cell in enumerate_cells(result.specs))


def _report_run_table(result) -> None:
    if result.csv_path is not None:
        print(f"run table: {result.csv_path} "
              f"({result.executed_trials} new trials, {_grid_rows(result)} total)")
    if result.executed_trials:
        print(f"profile: {result.profile().format()}")


def _run_characterize(args) -> int:
    from .eval import ber_sweep, format_sweep

    sweep = ber_sweep("jarvis", args.task, list(args.bers), target=args.target,
                      num_trials=args.trials, seed=args.seed, anomaly_detection=args.ad,
                      **_engine_kwargs(args))
    print(format_sweep({sweep.label: sweep}, "success_rate",
                       title=f"{args.target} success rate vs. BER on {args.task!r}"))
    print(format_sweep({sweep.label: sweep}, "average_steps", title="average steps"))
    threshold = sweep.failure_threshold()
    if np.isfinite(threshold):
        print(f"first BER with success below 50%: {threshold:.1e}")
    else:
        print("success never fell below 50% in the swept range")
    if args.out is not None:
        print(f"run tables written under {args.out}")
    return 0


def _check_campaign_tasks(args) -> None:
    """Make a ``--task`` / ``--tasks`` name outside the preset's suite a usage error.

    Runs before anything is declared or built.  An option the preset does
    not use is only noted (:func:`_warn_ignored_options`); without
    ``--task`` each preset picks its own default task.
    """
    parser = args.campaign_parser
    row = CAMPAIGN_PRESETS[args.preset]
    given = []
    if "task" in row.options and args.task is not None:
        given.append(("--task", [args.task]))
    if "tasks" in row.options and args.tasks:
        given.append(("--tasks", args.tasks))
    if not given:
        return
    suite = _suite(row.suite)
    for flag, tasks in given:
        unknown = [task for task in tasks if task not in suite]
        if unknown:
            parser.error(
                f"argument {flag}: unknown task {', '.join(map(repr, unknown))} "
                f"for the {args.preset!r} preset; the {suite.name} suite has: "
                f"{', '.join(suite.task_names)}")


def _warn_ignored_options(args) -> None:
    """Tell the user when a flag they set does not apply to the chosen preset."""
    parser = args.campaign_parser
    used = CAMPAIGN_PRESETS[args.preset].options
    for option in ("task", "tasks", "bers", "trials", "fleet_sizes"):
        if option not in used and getattr(args, option) != parser.get_default(option):
            flag = "--" + option.replace("_", "-")
            print(f"note: {flag} is not used by the {args.preset!r} preset; ignoring it")


def _preset_runs(args) -> list[tuple[str, Preset, Path | None]]:
    """(name, row, out directory) of each preset one invocation runs.

    ``paper`` expands to its chain, each preset in its own subdirectory of
    ``--out`` (so run-table names can never collide), and every path —
    execution, ``--dry-run``, ``--queue`` and ``--shard`` — uses that same
    layout, so a queued or sharded paper sweep lands in (and resumes from)
    the directories of a single-host one.
    """
    out = Path(args.out) if args.out is not None else None
    if args.preset != "paper":
        return [(args.preset, CAMPAIGN_PRESETS[args.preset], out)]
    return [(name, CAMPAIGN_PRESETS[name], out / name if out is not None else None)
            for name in PAPER_PRESET_CHAIN]


def _declared_plans(args):
    """Yield (preset name, out directory, plan) for every campaign one
    invocation declares, in execution order."""
    for name, row, out in _preset_runs(args):
        for plan in row.plans(args, row.suite):
            yield name, out, plan


def _resume_table(out: Path | None, plan):
    """The run table ``plan``'s campaign resumes from under ``out``, or an
    empty one."""
    from .eval.runtable import RunTable

    csv_path = out / f"{plan.name}.csv" if out is not None else None
    if csv_path is None or not csv_path.exists():
        return RunTable()
    return RunTable.read_csv(csv_path, strict=False)


def _run_preset(args, row: Preset, out: Path | None) -> list:
    """Run one preset's declared plans into ``out`` and print its figure."""
    from .eval.campaign import run_plans

    results = run_plans(row.plans(args, row.suite), jobs=args.jobs, out=out,
                        batch=args.batch)
    row.report(args, row.suite, results)
    return results


def _run_paper(args) -> int:
    """Chain every single-figure preset into one resumable full-paper sweep.

    Each preset runs through the same streaming/resumable engine, which
    makes the whole sweep interruptible: re-running the identical command
    picks up exactly where the previous run stopped.
    """
    runs = _preset_runs(args)
    total_executed = total_rows = 0
    for index, (name, row, out) in enumerate(runs, start=1):
        print(f"[paper {index}/{len(runs)}] {name}: {row.figure}")
        results = _run_preset(args, row, out)
        executed = sum(r.executed_trials for r in results)
        rows = sum(_grid_rows(r) for r in results)
        total_executed += executed
        total_rows += rows
        print(f"[paper {index}/{len(runs)}] {name}: "
              f"{executed} new trials, {rows} total rows\n")
    print(f"paper sweep complete: {total_executed} new trials, "
          f"{total_rows} run-table rows across {len(runs)} presets")
    if args.out is not None:
        print(f"run tables written under {args.out} (one subdirectory per preset); "
              "re-run the same command to resume after an interruption")
    return 0


def _run_campaign(args) -> int:
    _check_campaign_tasks(args)
    _warn_ignored_options(args)
    if args.dry_run or args.queue is not None or args.shard is not None:
        return _run_scheduled_campaign(args)
    if args.preset == "paper":
        return _run_paper(args)
    [(_, row, out)] = _preset_runs(args)
    _run_preset(args, row, out)
    if args.out is not None:
        print(f"run tables written under {args.out}")
    return 0


# ----------------------------------------------------------------------
# Distributed scheduling (--dry-run / --queue / --shard, worker, merge)
# ----------------------------------------------------------------------
def _run_scheduled_campaign(args) -> int:
    from .eval.shard import parse_shard

    if args.queue is not None and args.shard is not None:
        print("error: --queue and --shard are two different ways to "
              "distribute a campaign; pick one")
        return 2
    shard = None
    if args.shard is not None:
        try:
            shard = parse_shard(args.shard)
        except ValueError as exc:
            print(f"error: {exc}")
            return 2
        if not args.dry_run and args.out is None:
            print("error: --shard needs --out (each shard persists its "
                  "slice of the run table there for the final merge)")
            return 2
    if args.dry_run:
        return _campaign_dry_run(args, shard)
    if args.queue is not None:
        return _campaign_enqueue(args)
    return _campaign_shard_run(args, shard)


def _campaign_dry_run(args, shard) -> int:
    campaigns = total = pending_total = 0
    for preset, out, plan in _declared_plans(args):
        table = _resume_table(out, plan)
        pending = plan.pending(table)
        campaigns += 1
        where = f" (out {out})" if out is not None else ""
        print(f"[{preset}] campaign {plan.name}{where}:")
        for condition, cells in plan.counts():
            print(f"  {condition}: {cells} cells")
        print(f"  total {plan.total_cells} cells, {len(pending)} pending "
              f"({plan.total_cells - len(pending)} already in the run table)")
        if shard is not None:
            mine, _ = shard.split(pending)
            print(f"  shard {shard}: {len(mine)} of {len(pending)} pending cells")
        total += plan.total_cells
        pending_total += len(pending)
    print(f"dry run: {campaigns} campaign(s), {total} cells, "
          f"{pending_total} pending; nothing was trained or executed")
    return 0


def _campaign_enqueue(args) -> int:
    from .eval.scheduler import WorkQueue

    queue = WorkQueue(args.queue)
    new_tasks = new_cells = 0
    for preset, out, plan in _declared_plans(args):
        try:
            report = queue.enqueue(plan, batch=args.batch,
                                   table=_resume_table(out, plan))
        except ValueError as exc:
            print(f"error: cannot enqueue campaign {plan.name!r}: {exc}")
            return 2
        notes = []
        if report.skipped_tasks:
            notes.append(f"{report.skipped_tasks} already queued/done")
        if report.satisfied_tasks:
            notes.append(f"{report.satisfied_tasks} satisfied by the "
                         "existing run table")
        print(f"[{preset}] {plan.name}: {report.new_tasks} task files, "
              f"{report.enqueued_cells} cells"
              + (f" ({'; '.join(notes)})" if notes else ""))
        new_tasks += report.new_tasks
        new_cells += report.enqueued_cells
    counts = queue.counts()
    print(f"queue {queue.root}: enqueued {new_tasks} tasks / {new_cells} "
          f"cells; now {counts['pending']} pending, {counts['leased']} "
          f"leased, {counts['done']} done")
    print(f"start workers with: repro-create worker --queue {queue.root} "
          "--wait [--jobs N]   (any number, any host sharing this path)")
    print(f"then merge with:    repro-create merge <OUT> {queue.root}")
    return 0


def _campaign_shard_run(args, shard) -> int:
    """Execute this shard's cells of every declared campaign; print counts.

    The resumed table may hold rows outside the current grid, so its size
    says nothing: rows held count the grid's own cells, and the cells of
    other shards come from the shard split of each campaign's pending cells.
    """
    from .eval.campaign import run_campaign

    executed = rows = foreign = 0
    for preset, out, plan in _declared_plans(args):
        _, others = shard.split(plan.pending(_resume_table(out, plan)))
        result = run_campaign(plan.specs, jobs=args.jobs, out=out, name=plan.name,
                              batch=args.batch, shard=shard)
        held = _grid_rows(result)
        executed += result.executed_trials
        rows += held
        foreign += len(others)
        print(f"[{preset}] {result.csv_path}: "
              f"{result.executed_trials} cells executed, {held} rows held")
    print(f"shard {shard}: executed {executed} new cells, {rows} rows "
          f"persisted; {foreign} cells belong to other shards")
    print("run every shard, then combine the tables with: "
          f"repro-create merge <OUT> {args.out} <other shard dirs...>")
    return 0


def _run_worker(args) -> int:
    from .eval.scheduler import WorkQueue, WorkerDaemon

    if (args.queue is None) == (args.queue_url is None):
        print("error: pass exactly one of --queue DIR or --queue-url URL")
        return 2
    if args.queue_url is not None:
        from .eval.service import QueueClient, ServiceError

        try:
            queue = QueueClient(args.queue_url)
        except (ServiceError, OSError) as exc:
            print(f"error: cannot reach campaign service at "
                  f"{args.queue_url}: {exc}")
            return 2
    else:
        queue = WorkQueue(args.queue, lease_ttl=args.lease_ttl)
    daemon = WorkerDaemon(queue, jobs=args.jobs, worker_id=args.id,
                          poll_interval=args.poll, wait=args.wait,
                          max_tasks=args.max_tasks,
                          plan_affinity=args.plan, log=print)
    daemon.run()
    counts = queue.counts()
    print(f"queue {queue.root}: {counts['pending']} pending, "
          f"{counts['leased']} leased, {counts['done']} done, "
          f"{counts['failed']} failed")
    return 0 if not counts["failed"] else 1


def _run_serve(args) -> int:
    from .eval.service import CampaignService

    log = print if args.verbose else None
    service = CampaignService(args.root, host=args.host, port=args.port,
                              lease_ttl=args.lease_ttl, log=log)
    print(f"campaign service for {service.queue.root} listening on "
          f"{service.url}")
    print(f"workers connect with: repro-create worker --queue-url "
          f"{service.url} --wait")
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print("\ninterrupted; queue directory left intact")
    finally:
        service.close()
    return 0


def _run_autoscale(args) -> int:
    from .eval.service import AutoScaler, ServiceError

    scaler = AutoScaler(args.queue_url, max_workers=args.max_workers,
                        min_workers=args.min_workers, jobs=args.jobs,
                        tasks_per_worker=args.tasks_per_worker,
                        poll_interval=args.poll, log=print)
    try:
        stats = scaler.run(timeout=args.timeout)
    except (ServiceError, OSError) as exc:
        print(f"error: campaign service at {args.queue_url} "
              f"unreachable: {exc}")
        return 2
    except TimeoutError as exc:
        print(f"error: {exc}")
        return 1
    print(f"autoscaler drained the queue: spawned "
          f"{stats.workers_spawned} worker(s), retired "
          f"{stats.workers_retired}, peak fleet {stats.peak_workers}, "
          f"{stats.polls} depth polls")
    return 0


def _queue_roots(dirs) -> list:
    """The given directories that are work-queue roots.

    Both queues and static-shard ``--out`` directories carry a ``plans/``
    directory, so a queue is recognized by its ``tasks/`` directory too —
    shard result dirs must never be treated (or touched) as queues.
    """
    from pathlib import Path

    return [Path(d) for d in dirs
            if (Path(d) / "plans").is_dir() and (Path(d) / "tasks").is_dir()]


def _merge_watch(args) -> int:
    """Poll-and-re-merge loop over a draining queue (``merge --watch``).

    Each poll unions the run tables found so far (exactly like a one-shot
    ``merge``) and prints live progress: merged rows, cells still missing
    from the campaign plans, and the pending/leased/done counts of every
    queue directory.  The loop ends when all queues are drained and no
    planned cell is missing — or after ``--max-polls`` polls.
    """
    import time

    from .eval.runtable import MergeConflictError
    from .eval.scheduler import WorkQueue, merge_run_tables

    queues = _queue_roots(args.dirs)
    polls = 0
    while True:
        polls += 1
        try:
            merged = merge_run_tables(args.out, args.dirs,
                                      overwrite=args.overwrite)
        except MergeConflictError as exc:
            print(f"merge conflict: {exc}")
            return 1
        except (FileNotFoundError, ValueError) as exc:
            print(f"error: {exc}")
            return 2
        rows = sum(table.rows for table in merged)
        missing = sum(table.missing_cells for table in merged)
        counts = {"pending": 0, "leased": 0, "done": 0, "failed": 0}
        for root in queues:
            for state, count in WorkQueue(root).counts().items():
                counts[state] += count
        print(f"[watch {polls}] {len(merged)} campaign(s), {rows} rows "
              f"merged, {missing} cells pending; queue tasks: "
              f"{counts['pending']} pending, {counts['leased']} leased, "
              f"{counts['done']} done, {counts['failed']} failed")
        drained = counts["pending"] == 0 and counts["leased"] == 0
        if merged and missing == 0 and drained:
            print(f"complete: all cells merged into {args.out}")
            return 0
        if counts["failed"] and drained and not counts["pending"]:
            # Nothing left to wait for: failures need operator attention.
            print(f"queue drained with {counts['failed']} failed task(s); "
                  "inspect the queue's failed/ directory and re-enqueue")
            return 1
        if args.max_polls is not None and polls >= args.max_polls:
            print(f"stopped after {polls} poll(s); {missing} cells still "
                  "pending — re-run to keep watching")
            return 0 if missing == 0 and drained else 1
        time.sleep(args.interval)


def _run_merge(args) -> int:
    from .eval.runtable import MergeConflictError
    from .eval.scheduler import merge_run_tables

    if args.watch:
        return _merge_watch(args)
    try:
        merged = merge_run_tables(args.out, args.dirs,
                                  overwrite=args.overwrite)
    except MergeConflictError as exc:
        print(f"merge conflict: {exc}")
        return 1
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}")
        return 2
    if not merged:
        print(f"no run tables found under: {', '.join(args.dirs)}")
        return 1
    incomplete = 0
    for table in merged:
        line = (f"{table.name}: {table.rows} rows from {table.sources} "
                f"table(s) -> {table.csv_path}")
        if table.missing_cells:
            incomplete += 1
            line += f"  [INCOMPLETE: {table.missing_cells} cells missing]"
        print(line)
    if incomplete:
        print(f"{incomplete} campaign(s) incomplete — run (or finish) the "
              "remaining workers/shards and merge again")
    return 0


def _run_report(args) -> int:
    """Build, diff, or verify a publication pack (``repro-create report``)."""
    from .eval import analysis
    from .eval.runtable import MergeConflictError

    modes = sum(bool(m) for m in (args.sweep, args.diff, args.check))
    if modes != 1:
        print("error: pick exactly one of SWEEP (build), --diff A B, "
              "or --check PACK")
        return 2
    if args.confidence not in analysis.Z_SCORES:
        print(f"error: --confidence must be one of "
              f"{sorted(analysis.Z_SCORES)} (the z table is hardcoded so "
              "packs stay byte-deterministic)")
        return 2

    if args.diff is not None:
        try:
            diff = analysis.diff_packs(args.diff[0], args.diff[1],
                                       confidence=args.confidence)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}")
            return 2
        print(diff.format())
        return 0 if diff.identical else 1

    if args.check is not None:
        problems = analysis.verify_pack(args.check)
        for problem in problems:
            print(f"error: {problem}")
        if problems:
            return 1
        print(f"pack {args.check} verifies against its manifest")
        return 0

    if args.out is None:
        print("error: building a pack needs --out DIR")
        return 2
    try:
        manifest = analysis.build_pack(args.sweep, args.out,
                                       confidence=args.confidence)
    except MergeConflictError as exc:
        print(f"merge conflict while aggregating: {exc}")
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}")
        return 2
    for name, info in manifest["figures"].items():
        print(f"figure {name}: {info['rows']} row(s) from "
              f"{len(info['tables'])} table(s), {info['trials']} trials")
    print(f"pack: {args.out} ({len(manifest['files']) + 1} files, "
          f"hash {manifest['pack_hash'][:16]})")
    print(f"compare against another pack with: repro-create report "
          f"--diff {args.out} <OTHER>")
    return 0


def _run_hardware(_args) -> int:
    from .eval import format_table
    from .eval.experiments import hardware_report, model_table

    report = hardware_report()
    print(format_table(["block", "area (mm^2)", "power (W)"],
                       [[name, values["area_mm2"], values["power_w"]]
                        for name, values in report["blocks"].items()],
                       title="accelerator blocks (Fig. 12c)"))
    print()
    print(format_table(["metric", "value"], [
        ["peak TOPS", report["peak_tops"]],
        ["AD area overhead", report["ad_area_overhead"]],
        ["AD power overhead", report["ad_power_overhead"]],
        ["voltage switch latency (ns)", report["voltage_switch_latency_ns"]],
    ], title="platform summary (Table 3)"))
    print()
    table = model_table()
    print(format_table(["model", "paper params (M)", "modelled params (M)", "modelled GOps"],
                       [[name, values["paper_params_millions"],
                         values["modelled_params_millions"], values["modelled_gops"]]
                        for name, values in table.items()],
                       title="model requirements (Table 4)"))
    return 0


def _run_policies(_args) -> int:
    from .core import REFERENCE_POLICIES

    for name, policy in REFERENCE_POLICIES.items():
        print(policy.describe())
    print(f"\ndefault policy: C (paper Sec. 6.5); {len(REFERENCE_POLICIES)} reference policies")
    return 0


def _run_systems(_args) -> int:
    """List registered system keys without building any of them."""
    from .agents.registry import BUILTIN_SYSTEM_KEYS, system_keys

    keys = system_keys()
    for key in keys:
        marker = "" if key in BUILTIN_SYSTEM_KEYS else "  (registered at runtime)"
        print(f"{key}{marker}")
    print(f"\n{len(keys)} system keys; pass one to 'mission --system' or use it "
          "as the system of a custom campaign")
    return 0


def _run_suites(_args) -> int:
    """List the scenario catalog (suites, fingerprints, vocabulary identity).

    Fast: building the generated suites and their vocabularies is pure
    bookkeeping — no model is trained or loaded.  The same listing is
    checked for consistency against the docs by ``tools/check_catalog.py``.
    """
    from .agents.vocabulary import (TABLE10_FINGERPRINT, build_vocabulary,
                                    scenario_vocabulary)
    from .env.scenarios import CATALOG
    from .eval import format_table

    rows = []
    for entry in CATALOG.entries():
        suite = entry.build()
        longest = max(len(task.plan) for task in suite.tasks())
        if entry.vocabulary == "table10":
            vocab = f"table10 {TABLE10_FINGERPRINT}"
        elif entry.vocabulary == "scenario":
            vocab = f"scenario {scenario_vocabulary(suite).fingerprint}"
        else:
            vocab = "controller-only"
        rows.append([entry.name, entry.kind, len(suite), longest,
                     entry.fingerprint, vocab])
    print(format_table(
        ["suite", "kind", "tasks", "longest plan", "fingerprint", "vocabulary"],
        rows, title="scenario catalog"))
    print(f"\n{len(rows)} suites; default Table-10 vocabulary fingerprint: "
          f"{build_vocabulary().fingerprint} (pinned). Generated suites "
          "rebuild deterministically from their seed; see docs/scenarios.md")
    return 0


_COMMANDS = {
    "mission": _run_mission,
    "characterize": _run_characterize,
    "campaign": _run_campaign,
    "worker": _run_worker,
    "serve": _run_serve,
    "autoscale": _run_autoscale,
    "merge": _run_merge,
    "report": _run_report,
    "hardware": _run_hardware,
    "policies": _run_policies,
    "systems": _run_systems,
    "suites": _run_suites,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via the console
    sys.exit(main())
