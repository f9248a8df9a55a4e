"""Tests for the kernel plan cache and the shared-memory weight plane.

Covers the plan/context split (`KernelPlan` / plan-backed `KernelContext`),
bit-identity of plan-reuse and shared-memory execution — fault-free and
under injection — segment lifecycle (publish/attach/unlink, orphan
sweeping), the ``REPRO_SHM=0`` fallback, and the registry eviction hook
that keeps the campaign engine's worker caches coherent.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.eval.campaign as campaign
from repro.agents.executor import MissionExecutor
from repro.agents.registry import clear_system_cache
from repro.eval import TrialSpec, run_campaign
from repro.faults import ErrorInjector, SingleBitErrorModel
from repro.quant import (BatchedKernel, GemmHooks, GemmStats, KernelContext,
                         KernelPlan)
from repro.quant import weightplane

SHM_ROOT = Path("/dev/shm")


def _own_segments() -> list[str]:
    prefix = f"{weightplane.SEGMENT_PREFIX}-{os.getpid()}-"
    try:
        return sorted(p.name for p in SHM_ROOT.iterdir()
                      if p.name.startswith(prefix))
    except OSError:
        return []


@pytest.fixture()
def plan_state(deployed_planner, deployed_controller):
    """Snapshot/restore the session models' plan caches around a test."""
    saved = [(model, model._plan, model._plan_shared)
             for model in (deployed_planner, deployed_controller)]
    yield
    for model, plan, shared in saved:
        model._plan = plan
        model._plan_shared = shared


@pytest.fixture()
def clean_plane():
    """Tear down any segments a test published (idempotent)."""
    yield
    weightplane.unlink_all()
    weightplane._ATTACHED.clear()


class TestKernelPlan:
    def test_plan_cached_and_provenance(self, deployed_planner, plan_state):
        deployed_planner._plan = None
        deployed_planner._plan_shared = False
        assert deployed_planner.plan_provenance() == "miss"
        plan = deployed_planner.kernel_plan()
        assert deployed_planner.kernel_plan() is plan
        assert deployed_planner.plan_provenance() == "hit"
        assert len(plan.content_hash) == 64
        assert set(plan.component_names()) == set(deployed_planner._quantized)

    def test_plan_backed_context_bit_identical(self, deployed_planner,
                                               plan_state, rng):
        fresh = KernelContext(deployed_planner._quantized,
                              hooks=GemmHooks(stats=GemmStats()),
                              spec=deployed_planner.spec)
        reused = deployed_planner.kernel_context(GemmHooks(stats=GemmStats()))
        x = rng.normal(size=(5, deployed_planner.config.dim))
        for name in ("layer0.q", "layer0.gate", "head"):
            assert np.array_equal(fresh.qgemm(name, x), reused.qgemm(name, x))
        assert fresh.stats.gemm_calls == 3
        assert fresh.stats == reused.stats

    def test_plan_backed_bit_identical_under_injection(self, deployed_planner,
                                                       plan_state, rng):
        def context(plan_backed: bool) -> KernelContext:
            injector = ErrorInjector(SingleBitErrorModel(bit=20, rate=0.05),
                                     rng=np.random.default_rng(11))
            hooks = GemmHooks(injector=injector)
            if plan_backed:
                return deployed_planner.kernel_context(hooks)
            return KernelContext(deployed_planner._quantized, hooks=hooks,
                                 spec=deployed_planner.spec)

        fresh, reused = context(False), context(True)
        x = rng.normal(size=(4, deployed_planner.config.dim))
        for name in ("layer0.q", "layer0.up"):
            assert np.array_equal(fresh.qgemm(name, x), reused.qgemm(name, x))
        assert fresh.injector.stats == reused.injector.stats
        assert fresh.injector.stats.bits_flipped > 0

    def test_register_copies_on_write(self, deployed_planner, plan_state):
        plan = deployed_planner.kernel_plan()
        sharer = deployed_planner.kernel_context()
        forked = deployed_planner.kernel_context()
        layer = deployed_planner._quantized["head"]
        renamed = type(layer).__new__(type(layer))
        renamed.__dict__.update(layer.__dict__)
        renamed.name = "extra"
        forked.register(renamed)
        assert "extra" in forked._entries
        assert "extra" not in plan.entries
        assert "extra" not in sharer._entries
        assert forked.plan is None
        assert sharer.plan is plan

    def test_adopt_plan_hash_mismatch_rejected(self, deployed_planner,
                                               deployed_controller, plan_state):
        foreign = KernelPlan(deployed_controller._quantized,
                             spec=deployed_controller.spec)
        with pytest.raises(ValueError, match="hash"):
            deployed_planner.adopt_plan(foreign)

    def test_plan_cache_state_combination(self):
        class _Model:
            def __init__(self, state):
                self._state = state

            def plan_provenance(self):
                return self._state

        def state(planner, controller):
            executor = object.__new__(MissionExecutor)
            executor.planner = planner
            executor.controller = controller
            return executor.plan_cache_state()

        assert state(_Model("hit"), _Model("hit")) == "hit"
        assert state(_Model("miss"), _Model("hit")) == "miss"
        assert state(_Model("shm"), _Model("miss")) == "shm"
        assert state(None, _Model("hit")) == "hit"
        assert state(None, object()) == ""


class TestWeightPlane:
    def test_publish_attach_roundtrip(self, deployed_planner, plan_state,
                                      clean_plane, rng):
        plan = deployed_planner.kernel_plan()
        manifest = weightplane.publish(plan)
        assert manifest.segment in _own_segments()
        assert weightplane.publish(plan) is manifest  # idempotent
        attached = weightplane.attach(manifest)
        assert weightplane.attach(manifest) is attached  # idempotent
        assert attached.shared
        assert attached.content_hash == plan.content_hash
        for name, entry in plan.entries.items():
            twin = attached.entries[name]
            assert np.array_equal(entry.weight_q, twin.weight_q)
            assert np.array_equal(entry.weight_f, twin.weight_f)
            assert entry.combined_scale == twin.combined_scale
            assert entry.bound_acc == twin.bound_acc
            assert entry.wrap_free == twin.wrap_free
            assert not twin.weight_q.flags.writeable
        x = rng.normal(size=(3, deployed_planner.config.dim))
        assert np.array_equal(KernelContext(plan=plan).qgemm("layer0.q", x),
                              KernelContext(plan=attached).qgemm("layer0.q", x))
        weightplane.unlink_all()
        assert not _own_segments()

    def test_attach_gone_segment_raises(self, deployed_planner, plan_state,
                                        clean_plane):
        manifest = weightplane.publish(deployed_planner.kernel_plan())
        weightplane.unlink_all()
        weightplane._ATTACHED.clear()
        with pytest.raises(weightplane.SharedMemoryUnavailable):
            weightplane.attach(manifest)

    def test_sweep_orphans_reclaims_dead_creators_only(self, clean_plane):
        dead_pid = int(subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True, text=True, check=True).stdout)
        orphan = SHM_ROOT / f"{weightplane.SEGMENT_PREFIX}-{dead_pid}-deadbeef"
        live = SHM_ROOT / f"{weightplane.SEGMENT_PREFIX}-{os.getpid()}-alive0"
        orphan.write_bytes(b"x")
        live.write_bytes(b"x")
        try:
            removed = weightplane.sweep_orphans()
            assert orphan.name in removed
            assert not orphan.exists()
            assert live.exists()  # live creators are never swept
        finally:
            orphan.unlink(missing_ok=True)
            live.unlink(missing_ok=True)

    def test_disabled_by_env(self, deployed_planner, plan_state, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "0")
        assert not weightplane.enabled()
        with pytest.raises(weightplane.SharedMemoryUnavailable):
            weightplane.publish(deployed_planner.kernel_plan())
        assert campaign._publish_system_plans({"jarvis"}) is None


class TestCampaignIntegration:
    def _spec(self, trials=2):
        return [TrialSpec(condition="clean", system="jarvis", task="wooden",
                          num_trials=trials, seed=0)]

    def test_pool_shutdown_leaves_no_segments(self, tmp_path):
        run_campaign(self._spec(), jobs=2, out=tmp_path / "pool", name="shm")
        assert not _own_segments()

    def test_shm_disabled_fallback_byte_identical(self, tmp_path, monkeypatch):
        reference = run_campaign(self._spec(), jobs=1,
                                 out=tmp_path / "serial", name="fb")
        monkeypatch.setenv("REPRO_SHM", "0")
        fallback = run_campaign(self._spec(), jobs=2,
                                out=tmp_path / "fallback", name="fb")
        assert reference.csv_path.read_bytes() == fallback.csv_path.read_bytes()
        assert reference.json_path.read_bytes() == \
            fallback.json_path.read_bytes()

    def test_plan_cache_column_stamped(self, tmp_path):
        result = run_campaign(self._spec(3), jobs=1, out=tmp_path, name="prov")
        states = [record.plan_cache for record in result.records("clean")]
        assert all(state in ("miss", "hit", "shm") for state in states)
        assert states[-1] in ("hit", "shm")  # the plan survives across cells

    def test_pool_after_a_serial_run_still_adopts_the_plane(self, tmp_path):
        """A serial run leaves executors in its process; forked pool children
        must build their own, over the published plans, not inherit those."""
        from repro.eval import RunTable

        run_campaign(self._spec(), jobs=1, out=tmp_path / "serial", name="warm")
        assert "jarvis" in campaign._WORKER_EXECUTORS
        pool = run_campaign(self._spec(4), jobs=2, batch=1,
                            out=tmp_path / "pool", name="warm")
        sidecar = RunTable.read_csv(pool.profile_path)
        assert [record.plan_cache for record in sidecar] == ["shm"] * 4


class TestRegistryEviction:
    def test_clear_system_cache_evicts_worker_caches(self):
        campaign._WORKER_EXECUTORS["sentinel"] = object()
        campaign._SHM_MANIFESTS["sentinel"] = {}
        clear_system_cache()
        assert "sentinel" not in campaign._WORKER_EXECUTORS
        assert "sentinel" not in campaign._SHM_MANIFESTS

    def test_overwrite_registration_evicts_one_key(self):
        from repro.agents.registry import SYSTEM_FACTORIES, register_system
        campaign._WORKER_EXECUTORS.update(stale=object(), kept=object())
        try:
            register_system("stale", lambda: None)
            assert "stale" not in campaign._WORKER_EXECUTORS
            assert "kept" in campaign._WORKER_EXECUTORS
        finally:
            SYSTEM_FACTORIES.pop("stale", None)
            campaign._WORKER_EXECUTORS.clear()


class TestSharedDeployments:
    """Registry keys that deploy the same model share one calibrated object."""

    def test_variants_share_a_controller(self):
        from repro.agents.registry import get_system

        jarvis = get_system("jarvis")
        assert jarvis.controller is get_system("jarvis-rotated").controller
        assert jarvis.planner is not get_system("jarvis-rotated").planner
        assert jarvis.planner is get_system("jarvis-nopredictor").planner
        assert get_system("jarvis-navigation").controller is \
            get_system("jarvis-navigation-rotated").controller
        # A different QuantSpec is a different deployment.
        assert get_system("jarvis-int4").controller is not jarvis.controller

    def test_eviction_rebuilds_fresh_objects(self):
        from repro.agents import build_jarvis_system, registry

        def build():
            return build_jarvis_system(rotate_planner=False)

        before = registry.get_system("jarvis")
        clear_system_cache()
        after = registry.get_system("jarvis")
        assert after.controller is not before.controller
        assert after.planner is not before.planner
        try:
            registry.register_system("shared-deployment", build)
            shared = registry.get_system("shared-deployment")
            assert shared.controller is not after.controller
            assert registry.get_system("jarvis-rotated").controller is \
                shared.controller
            registry.register_system("shared-deployment", build, overwrite=True)
            fresh = registry.get_system("shared-deployment")
            assert fresh.controller is not shared.controller
            assert fresh.planner is not shared.planner
        finally:
            registry.SYSTEM_FACTORIES.pop("shared-deployment", None)
            registry.SYSTEM_HAS_PREDICTOR.pop("shared-deployment", None)
            registry._SYSTEM_CACHE.pop("shared-deployment", None)

    def test_pool_publishes_one_controller_segment(self, tmp_path, monkeypatch):
        specs = [TrialSpec(condition=key, system=key, task="wooden",
                           num_trials=2, seed=0)
                 for key in ("jarvis", "jarvis-rotated")]
        published = []
        publish = campaign._publish_system_plans
        monkeypatch.setattr(campaign, "_publish_system_plans",
                            lambda systems: published.append(publish(systems))
                            or published[-1])
        serial = run_campaign(specs, jobs=1, out=tmp_path / "serial", name="wp")
        pool = run_campaign(specs, jobs=2, out=tmp_path / "pool", name="wp")
        assert serial.csv_path.read_bytes() == pool.csv_path.read_bytes()
        assert serial.json_path.read_bytes() == pool.json_path.read_bytes()
        manifests = published[-1]
        assert set(manifests) == {"jarvis", "jarvis-rotated"}
        assert len({entry["controller"].segment
                    for entry in manifests.values()}) == 1
        assert len({entry["planner"].segment
                    for entry in manifests.values()}) == 2
        assert not _own_segments()


class TestBatchedKernelMemo:
    def test_release_inputs_drops_stack_memo(self, deployed_planner, rng):
        contexts = [deployed_planner.kernel_context() for _ in range(2)]
        batched = BatchedKernel(contexts)
        x = rng.normal(size=(2, deployed_planner.config.dim))
        batched.qgemm("layer0.q", x, lane_rows=[1, 1])
        assert batched._qx_source is x
        assert batched._qx is not None
        batched.release_inputs()
        assert batched._qx_source is None
        assert batched._qx is None
        assert batched._qx_scale == 0.0
