"""Vectorized active-window datapath: engagement, exactness, spills.

The scheme-by-scheme hash equivalence in ``test_engine_equivalence.py``
runs under the default profitability gate, where small test meshes
never enter the vector lane — so this file forces the lane on
(``REPRO_BATCH_VECTOR=force``) and covers what that suite then cannot:
the window actually opens on loaded traffic (non-vacuity), forced runs
stay bit-exact under fuzzed workloads including the spill triggers
(circuit setup/teardown, CONFIG traffic, gating drains), a checkpoint
captured at a chunk boundary inside a vectorized stretch restores into
the legacy engine, and the profitability/disable gates report why the
lane is off.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.harness.runner import prepare_synthetic
from repro.harness.verify import verify_equivalence
from repro.sim.checkpoint import capture_state, restore_state, state_hash

SCHEMES = ("packet_vc4", "hybrid_sdm_vc4", "hybrid_tdm_vc4",
           "hybrid_tdm_vct", "hybrid_tdm_hop_vc4", "hybrid_tdm_hop_vct")


@contextmanager
def _vector_mode(mode):
    """Pin ``REPRO_BATCH_VECTOR`` for the duration of one test body.

    A plain context manager rather than monkeypatch so it composes with
    ``@given`` (Hypothesis re-runs the body many times per test)."""
    prev = os.environ.get("REPRO_BATCH_VECTOR")
    os.environ["REPRO_BATCH_VECTOR"] = mode
    try:
        yield
    finally:
        if prev is None:
            del os.environ["REPRO_BATCH_VECTOR"]
        else:
            os.environ["REPRO_BATCH_VECTOR"] = prev


def _build(engine, scheme="hybrid_tdm_vct", rate=0.25, seed=7,
           stop_cycle=200):
    sim, net, sources = prepare_synthetic(
        scheme, "uniform_random", rate, seed=seed, width=4, height=4,
        slot_table_size=32, engine=engine)
    for src in sources:
        src.stop_cycle = stop_cycle
    return sim, net


# ---------------------------------------------------------------------------
# engagement and gating
# ---------------------------------------------------------------------------
class TestEngagement:
    def test_forced_lane_engages_on_loaded_traffic(self):
        """Guards the rest of this file against vacuity: under force, a
        loaded 4x4 run must actually execute vectorized cycles and
        exercise the spill path (vct runs carry CONFIG traffic)."""
        with _vector_mode("force"):
            sim, net = _build("batch")
            sim.run(400)
        st = sim._batch.stats()["stepper"]
        assert st["supported"]
        assert st["windows"] > 0
        assert st["vector_cycles"] > 0
        assert st["spill_router_cycles"] > 0, \
            "vct CONFIG traffic never spilled — spill path untested"

    def test_auto_mode_size_gates_small_meshes(self):
        with _vector_mode("auto"):
            sim, net = _build("batch")
            sim.run(100)
        st = sim._batch.stats()["stepper"]
        assert not st["supported"]
        assert "below profitable network size" in st["unsupported_reason"]
        assert st["vector_cycles"] == 0

    def test_disabled_by_env(self):
        with _vector_mode("0"):
            sim, net = _build("batch")
            sim.run(100)
        st = sim._batch.stats()["stepper"]
        assert not st["supported"]
        assert st["vector_cycles"] == 0

    def test_every_cycle_accounted_once_under_force(self):
        with _vector_mode("force"):
            sim, net = _build("batch")
            sim.run(600)
        stats = sim._batch.stats()
        assert (stats["steps"] + stats["cycles_skipped"]
                + stats["stepper"]["vector_cycles"]) == 600
        assert sim.cycle == 600


# ---------------------------------------------------------------------------
# probe hysteresis: a drain tail whose quiescence proof fails for long
# stretches (open gating windows waiting out the epoch) must not pay
# the O(routers) sim_quiescent proof every cycle — and the suppression
# must not outlive the stretch (the tail still fast-forwards)
# ---------------------------------------------------------------------------
class TestProbeHysteresis:
    @staticmethod
    def _drain_tail_run():
        sim, net, sources = prepare_synthetic(
            "hybrid_tdm_vct", "uniform_random", 0.05, seed=7,
            width=16, height=16, slot_table_size=32, engine="batch")
        for src in sources:
            src.stop_cycle = 300
        sim.run(3000)
        return sim._batch.stats()

    def test_drain_tail_suppresses_probes_but_still_skips(self):
        # vector lane off: this isolates the probe machinery, and the
        # satellite contract is that hysteresis pays off even then
        with _vector_mode("0"):
            stats = self._drain_tail_run()
        assert stats["probes_suppressed"] > 0, \
            "sim_quiescent proof never tripped the failure limit"
        assert stats["skips"] > 0, "suppression outlived the drain"
        assert stats["cycles_skipped"] > 0
        # the suppressed probes dwarf the full proofs actually paid
        assert stats["full_checks"] < stats["probes_suppressed"]

    def test_hysteresis_composes_with_vector_lane(self):
        """With the lane engaged (16x16 vct clears the size gate) the
        windows absorb the very stretch that caused the probe storm, so
        suppression need not trigger — the composed contract is that
        the lane runs, the tail still fast-forwards, and the full-proof
        count stays bounded either way."""
        with _vector_mode("auto"):
            stats = self._drain_tail_run()
        assert stats["stepper"]["vector_cycles"] > 0
        assert stats["skips"] > 0
        assert (stats["full_checks"] + stats["probes_suppressed"]
                < stats["cycles_skipped"])


# ---------------------------------------------------------------------------
# fuzzed differential: forced vector lane vs legacy/fast
# ---------------------------------------------------------------------------
class TestForcedDifferential:
    @given(scheme=st.sampled_from(SCHEMES),
           side=st.integers(min_value=3, max_value=4),
           rate=st.floats(min_value=0.08, max_value=0.45),
           cycles=st.integers(min_value=60, max_value=250),
           stop_frac=st.none() | st.floats(min_value=0.2, max_value=0.9),
           seed=st.integers(min_value=1, max_value=100))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_forced_lane_agrees_on_loaded_workloads(self, scheme, side,
                                                    rate, cycles,
                                                    stop_frac, seed):
        """Loaded fault-free workloads across all six schemes: the
        rates are high enough that windows open and the hybrid schemes
        drive circuit setup/teardown and CONFIG flits through the spill
        path.  On divergence Hypothesis shrinks toward the minimal
        workload and the message pins the first divergent checkpoint."""
        stop_cycle = (None if stop_frac is None
                      else max(1, int(cycles * stop_frac)))
        with _vector_mode("force"):
            report = verify_equivalence(
                scheme, rate=rate, cycles=cycles,
                interval=max(1, cycles // 4), seed=seed,
                width=side, height=side, slot_table_size=32,
                stop_cycle=stop_cycle,
                engines=("legacy", "fast", "batch"))
        assert report.ok, (
            f"engines {report.divergent_engines} diverged at cycle "
            f"{report.first_divergence}: {report.mismatches}")


# ---------------------------------------------------------------------------
# cross-engine checkpoint through a vectorized stretch
# ---------------------------------------------------------------------------
class TestCheckpointAcrossEngines:
    def test_snapshot_mid_vector_stretch_restores_into_legacy(self):
        """Run the batch engine in short chunks so the run boundary
        lands inside an otherwise-continuous vectorized stretch, then
        restore that snapshot into a legacy simulator and let both
        finish: final hashes must match.  This is the contract that a
        window truncated by ``run()`` leaves the object graph in the
        same state legacy stepping would have."""
        with _vector_mode("force"):
            sim_b, net_b = _build("batch")
            for _ in range(4):             # 4 x 25-cycle chunks; each
                sim_b.run(25)              # truncates any open window
            st = sim_b._batch.stats()["stepper"]
            assert st["vector_cycles"] > 0, \
                "no vectorized cycles before the snapshot — vacuous"
            snap = capture_state(sim_b, net_b)
            sim_b.run(300)                 # batch continues to 400
            hash_b = state_hash(capture_state(sim_b, net_b))

        sim_l, net_l = _build("legacy")    # same construction path
        restore_state(sim_l, net_l, snap)
        assert sim_l.cycle == 100
        sim_l.run(300)                     # legacy continues to 400
        hash_l = state_hash(capture_state(sim_l, net_l))
        assert hash_l == hash_b

    def test_snapshot_restores_into_forced_batch(self):
        """The reverse direction: a legacy-built snapshot drops into a
        batch simulator whose vector lane is forced on, and the lane
        re-engages on the restored (still loaded) state."""
        sim_l, net_l = _build("legacy")
        sim_l.run(60)
        snap = capture_state(sim_l, net_l)
        sim_l.run(340)
        hash_l = state_hash(capture_state(sim_l, net_l))

        with _vector_mode("force"):
            sim_b, net_b = _build("batch")
            restore_state(sim_b, net_b, snap)
            sim_b.run(340)
            hash_b = state_hash(capture_state(sim_b, net_b))
            assert sim_b._batch.stats()["stepper"]["vector_cycles"] > 0
        assert hash_b == hash_l
