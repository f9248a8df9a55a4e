"""Fleet-runtime equivalence and metrics tests.

The fleet runtime (``src/repro/agents/fleet.py``) is level 4 of the batched
runtime: N agents stepping against one shared mission suite, all pending
planner decodes and controller forwards gathered per tick into row-stacked
:class:`~repro.quant.BatchedKernel` passes.  The contract under test is the
same as every other batching level — **bit-identical** to the per-agent
serial loop, fault-free and under injection — plus the campaign-facing
guarantees: the ``fleet`` axis never changes run-table bytes, spec keys, or
resume identity.
"""

from __future__ import annotations

import csv
import dataclasses

import pytest

from repro.agents import FleetExecutor, MAX_FLEET_SIZE
from repro.core import ProtectionConfig
from repro.eval import RunTable, TrialSpec, run_campaign
from repro.eval.runtable import record_from_trial
from repro.eval.scheduler import spec_from_dict, spec_to_dict
from repro.faults import UniformErrorModel


@pytest.fixture(scope="module")
def fleet():
    return FleetExecutor()


def _protection(ber: float = 1e-3) -> ProtectionConfig:
    return ProtectionConfig(error_model=UniformErrorModel(ber))


def assert_trials_identical(batched, serial):
    """Field-for-field equality, including entropy-trace contents."""
    for lane, (b, s) in enumerate(zip(batched, serial)):
        for field in dataclasses.fields(b):
            bv, sv = getattr(b, field.name), getattr(s, field.name)
            if field.name == "entropy_trace":
                assert bv.entropies == sv.entropies, f"lane {lane}"
                assert bv.critical_flags == sv.critical_flags, f"lane {lane}"
                assert bv.voltages == sv.voltages, f"lane {lane}"
            else:
                assert bv == sv, f"lane {lane}: {field.name}"
    assert len(batched) == len(serial)


class TestFleetBitIdentity:
    """Level 4: fleet-batched stepping == N per-agent serial loops."""

    def test_fault_free_identical(self, fleet):
        batched = fleet.run_fleet(6, seed=3, batched=True)
        serial = fleet.run_fleet(6, seed=3, batched=False)
        assert batched.roster == serial.roster
        assert_trials_identical(batched.results, serial.results)

    def test_injected_identical(self, fleet):
        protection = _protection()
        kwargs = dict(planner_protection=protection,
                      controller_protection=protection)
        batched = fleet.run_fleet(6, seed=3, batched=True, **kwargs)
        serial = fleet.run_fleet(6, seed=3, batched=False, **kwargs)
        assert batched.bits_flipped > 0
        assert_trials_identical(batched.results, serial.results)

    def test_run_table_rows_identical(self, fleet):
        """The payloads campaigns persist match row for row."""
        protection = _protection()
        kwargs = dict(planner_protection=protection,
                      controller_protection=protection)

        def payloads(result):
            return [record_from_trial(
                        trial, spec_key="k", condition="c", system="jarvis",
                        task=agent.task, seed=agent.seed,
                        trial_index=agent.agent_id).result_payload()
                    for agent, trial in zip(result.roster, result.results)]

        batched = fleet.run_fleet(5, seed=7, batched=True, **kwargs)
        serial = fleet.run_fleet(5, seed=7, batched=False, **kwargs)
        assert payloads(batched) == payloads(serial)


class TestFleetRoster:
    def test_round_robin_tasks_and_disjoint_seeds(self, fleet):
        tasks = fleet.executor.suite.task_names
        roster = fleet.roster(2 * len(tasks) + 1, seed=10)
        assert [agent.task for agent in roster[:len(tasks)]] == list(tasks)
        assert [agent.task for agent in roster[len(tasks):2 * len(tasks)]] \
            == list(tasks)
        seeds = [agent.seed for agent in roster]
        assert seeds == list(range(10, 10 + len(roster)))
        assert len(set(seeds)) == len(seeds)

    def test_fleet_size_bounds(self, fleet):
        with pytest.raises(ValueError, match="fleet size"):
            fleet.roster(0)
        with pytest.raises(ValueError, match="fleet size"):
            fleet.roster(MAX_FLEET_SIZE + 1)


class TestFleetMetrics:
    def test_aggregates_roll_up_per_agent_results(self, fleet):
        result = fleet.run_fleet(4, seed=1)
        assert result.missions_completed == \
            sum(1 for r in result.results if r.success)
        assert result.agent_steps == sum(r.steps for r in result.results)
        assert result.controller_steps == \
            sum(r.controller_steps for r in result.results)
        assert result.planner_invocations == \
            sum(r.planner_invocations for r in result.results)
        assert result.mission_success_rate == result.missions_completed / 4

    def test_summary_is_flat_and_complete(self, fleet):
        summary = fleet.run_fleet(3, seed=2).summary()
        assert set(summary) == {"fleet_size", "missions_completed",
                                "mission_success_rate", "agent_steps",
                                "controller_steps", "planner_invocations",
                                "bits_flipped"}
        assert all(isinstance(value, float) for value in summary.values())
        assert summary["fleet_size"] == 3.0


class TestTrialSpecFleetAxis:
    def _spec(self, fleet: int = 1) -> TrialSpec:
        return TrialSpec(condition="c", system="jarvis", task="wooden",
                         num_trials=4, seed=0, fleet=fleet)

    def test_fleet_bounds_validated(self):
        with pytest.raises(ValueError, match="fleet size"):
            self._spec(fleet=0)
        with pytest.raises(ValueError, match="fleet size"):
            self._spec(fleet=MAX_FLEET_SIZE + 1)

    def test_fleet_never_changes_the_signature(self):
        """Execution shape must not invalidate resume: same cells, same key."""
        assert self._spec(fleet=4).signature() == self._spec().signature()

    def test_scheduler_codec_round_trips_fleet(self):
        spec = self._spec(fleet=8)
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_scheduler_codec_defaults_legacy_specs_to_one(self):
        data = spec_to_dict(self._spec())
        del data["fleet"]
        assert spec_from_dict(data).fleet == 1


class TestCampaignFleetPath:
    """The campaign fleet path is byte-identical to scalar execution."""

    def _specs(self, fleet: int):
        return [
            TrialSpec(condition="clean", system="jarvis", task="wooden",
                      num_trials=4, seed=0, fleet=fleet),
            TrialSpec(condition="faulty", system="jarvis", task="wooden",
                      num_trials=4, seed=0, fleet=fleet,
                      controller_protection=_protection(),
                      params=(("ber", "1e-3"),)),
        ]

    @staticmethod
    def _profile_rows(out_dir, name):
        with open(out_dir / "profiles" / f"{name}.csv", newline="") as handle:
            return list(csv.DictReader(handle))

    def test_fleet_campaign_byte_identical_to_scalar(self, tmp_path,
                                                     scalar_reference):
        fleet = run_campaign(self._specs(fleet=4), out=tmp_path / "fleet",
                             name="f")
        scalar = scalar_reference(self._specs(fleet=1), tmp_path / "scalar",
                                  "f")
        assert fleet.csv_path.read_bytes() == \
            (tmp_path / "scalar" / "f.csv").read_bytes()
        assert fleet.json_path.read_bytes() == \
            (tmp_path / "scalar" / "f.json").read_bytes()

        rows = self._profile_rows(tmp_path / "fleet", "f")
        assert {(r["vector_path"], r["batch_size"], r["fleet_size"])
                for r in rows} == {("fleet", "4", "4")}
        assert {(r.vector_path, r.fleet_size) for r in scalar} == \
            {("scalar", 1)}

    def test_fleet_chunks_oversized_cells(self, tmp_path, scalar_reference):
        """num_trials > fleet splits into fleet-sized groups, same bytes."""
        spec = TrialSpec(condition="c", system="jarvis", task="wooden",
                         num_trials=5, seed=0, fleet=2)
        fleet = run_campaign([spec], out=tmp_path / "fleet", name="f")
        scalar_reference([dataclasses.replace(spec, fleet=1)],
                         tmp_path / "scalar", "f")
        assert fleet.csv_path.read_bytes() == \
            (tmp_path / "scalar" / "f.csv").read_bytes()
        rows = self._profile_rows(tmp_path / "fleet", "f")
        # 5 trials at fleet=2 -> two fleet groups of 2 plus a scalar remainder.
        assert sorted((r["vector_path"], r["batch_size"]) for r in rows) == \
            [("fleet", "2")] * 4 + [("scalar", "1")]
        assert {r["fleet_size"] for r in rows} == {"2"}

    def test_canonical_table_free_of_fleet_columns(self, tmp_path):
        result = run_campaign(self._specs(fleet=2)[:1], out=tmp_path, name="c")
        header = result.csv_path.read_text().splitlines()[0]
        assert "fleet_size" not in header
        table = RunTable.read_csv(result.csv_path)
        assert all(r.fleet_size == 0 for r in table)
