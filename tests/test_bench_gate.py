"""The benchmark gate (``tools/check_bench.py``) decides what its table says.

Every CI benchmark job measures first and then runs this one checker, so
the cases below pin its verdicts against the committed baselines: each
baseline passes against itself; each bound of ``GATES`` fails just past its
value, on the fresh run and on the committed baseline alike, and holds at
it; only the bounds marked ``smoke=False`` skip a ``--smoke`` run; each
diffed metric fails just past its tolerance and passes just inside it; a
missing section fails.  :data:`CASES` is the one perturbation table all
verdict tests read, built from ``GATES`` so every bound and tolerance is
covered.
"""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path
from typing import NamedTuple

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_bench", REPO_ROOT / "tools" / "check_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_bench = _load_checker()


def _baseline(name: str) -> dict:
    return json.loads((REPO_ROOT / f"BENCH_{name}.json").read_text())


def _set(document: dict, path: str, value: float) -> dict:
    """A copy of ``document`` with the field at dotted ``path`` set to
    ``value``; a list-valued field gets ``value`` entries."""
    document = copy.deepcopy(document)
    *parents, leaf = path.split(".")
    node = document
    for key in parents:
        node = node[key]
    if isinstance(node[leaf], list):
        value = ["injected transport error"] * int(value)
    node[leaf] = value
    return document


def _drop(document: dict, section: str) -> dict:
    document = copy.deepcopy(document)
    del document[section]
    return document


def _smoke(document: dict) -> dict:
    """The same document, recorded as a ``--smoke`` run."""
    document = copy.deepcopy(document)
    if "mode" in document:
        document["mode"] = "smoke"
    else:
        document["smoke"] = True
    return document


class Case(NamedTuple):
    id: str
    gate: str
    baseline: dict
    fresh: dict
    #: ``None`` when the gate must pass, else text every error must contain.
    expect: str | None


def _cases() -> list[Case]:
    cases = []
    for name, gate in check_bench.GATES.items():
        base = _baseline(name)
        cases.append(Case(f"{name}:baseline-vs-itself", name, base, base, None))
        for bound in gate.bounds:
            step = -1 if bound.kind == "min" else 1
            past = bound.value + step * (abs(bound.value) * 1e-3 or 1)
            at = _set(base, bound.path, bound.value)
            beyond = _set(base, bound.path, past)
            smoke_expect = f"fresh run: {bound.path}" if bound.smoke else None
            cases += [
                Case(f"{name}:{bound.path}:at-bound", name, at, at, None),
                Case(f"{name}:{bound.path}:fresh-past", name, at, beyond,
                     f"fresh run: {bound.path}"),
                Case(f"{name}:{bound.path}:baseline-past", name, beyond, at,
                     f"committed baseline: {bound.path}"),
                Case(f"{name}:{bound.path}:smoke-fresh-past", name, at,
                     _smoke(beyond), smoke_expect),
            ]
        for path in gate.diffed:
            # A reference whose tolerance floor clears every bound on the
            # path, so only the regression rule can decide.
            floors = [b.value for b in gate.bounds if b.path == path]
            edge = 2 * max([check_bench.measured(base, path), *floors])
            reference = _set(base, path, edge / (1 - gate.tolerance))
            cases += [
                Case(f"{name}:{path}:within-tolerance", name, reference,
                     _set(base, path, edge * 1.001), None),
                Case(f"{name}:{path}:past-tolerance", name, reference,
                     _set(base, path, edge * 0.999), f"{path} regressed"),
            ]
        sections = {path.split(".")[0] for path in gate.diffed}
        sections |= {bound.path.split(".")[0] for bound in gate.bounds}
        for section in sorted(sections):
            cases += [
                Case(f"{name}:{section}:missing-fresh", name, base,
                     _drop(base, section), f"fresh run lacks {section}."),
                Case(f"{name}:{section}:missing-baseline", name,
                     _drop(base, section), base,
                     f"committed baseline lacks {section}."),
            ]
    return cases


CASES = _cases()


@pytest.mark.parametrize("case", CASES, ids=[case.id for case in CASES])
def test_gate_verdict(case):
    errors = check_bench.check(case.gate, case.baseline, case.fresh)
    if case.expect is None:
        assert errors == []
    else:
        assert errors and all(case.expect in error for error in errors), errors


def test_main_picks_the_gate_from_the_file_name(tmp_path, capsys):
    for name in check_bench.GATES:
        fresh = tmp_path / f"BENCH_{name}.json"
        fresh.write_text(json.dumps(_baseline(name)))
        assert check_bench.main([str(fresh)]) == 0
        assert f"{name} bench OK" in capsys.readouterr().out
    fresh = tmp_path / "BENCH_fleet.json"
    fresh.write_text(json.dumps(_set(_baseline("fleet"),
                                     "by_fleet.16.speedup", 1.0)))
    assert check_bench.main([str(fresh)]) == 1
    out = capsys.readouterr().out
    assert "ERROR: fresh run: by_fleet.16.speedup = 1, below the 3 floor" in out
    assert "ERROR: by_fleet.16.speedup regressed to 1" in out


@pytest.mark.parametrize("argv, message", [
    ([], "usage"),
    (["BENCH_kernels.json", "BENCH_fleet.json"], "usage"),
    (["bench.json"], "no gate for 'bench.json'"),
    (["BENCH_unknown.json"], "no gate for 'BENCH_unknown.json'"),
])
def test_unrecognised_arguments_exit_2(argv, message, capsys):
    assert check_bench.main(argv) == 2
    assert message in capsys.readouterr().err
