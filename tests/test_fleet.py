"""Campaign fleet-axis tests.

A fleet is a lane group of N agents
(:meth:`~repro.agents.executor.MissionExecutor.run_trial_group`): all
pending planner decodes and controller forwards gathered per tick into
row-stacked :class:`~repro.quant.BatchedKernel` passes, bit-identical to
the per-agent loop (``tests/test_batched.py`` holds that equivalence for a
mixed-task roster under injection).  The contract under test here is the
campaign-facing one: the ``TrialSpec.fleet`` axis never changes run-table
bytes, spec keys, or resume identity.
"""

from __future__ import annotations

import csv
import dataclasses

import pytest

from repro.core import ProtectionConfig
from repro.eval import RunTable, TrialSpec, run_campaign
from repro.eval.campaign import MAX_FLEET_SIZE
from repro.eval.scheduler import spec_from_dict, spec_to_dict
from repro.faults import UniformErrorModel


def _protection(ber: float = 1e-3) -> ProtectionConfig:
    return ProtectionConfig(error_model=UniformErrorModel(ber))


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
