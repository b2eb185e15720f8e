"""Batch engine: fast-forward exactness, layout, interleaving, N-way report.

The batch engine's speed comes from skipping provably quiescent
cycles.  The hash equivalence itself is enforced scheme-by-scheme in
``test_engine_equivalence.py``; this file covers the machinery around
it — the skip actually engages (otherwise the equivalence tests would
vacuously pass on an engine that never fast-forwards), the compiled
struct-of-arrays layout stays consistent with the object graph,
simulators stepped alternately in one process are bit-identical to solo
runs, and the N-engine divergence report (the generalisation away from
the old two-engine format) localises correctly.
"""

from __future__ import annotations

import pytest

from repro.harness.runner import prepare_synthetic
from repro.harness.verify import compare_engine_runs
from repro.sim.checkpoint import capture_state, state_hash
from repro.sim.kernel import Simulator, default_engine


def _build(engine: str, scheme: str = "hybrid_tdm_vct", rate: float = 0.12,
           seed: int = 3, stop_cycle: int = 150):
    sim, net, sources = prepare_synthetic(
        scheme, "uniform_random", rate, seed=seed, width=4, height=4,
        slot_table_size=32, engine=engine)
    for src in sources:
        src.stop_cycle = stop_cycle
    return sim, net


# ---------------------------------------------------------------------------
# fast-forward engagement and exactness
# ---------------------------------------------------------------------------
class TestFastForward:
    def test_skip_engages_on_quiescent_tail(self):
        sim, net = _build("batch")
        sim.run(600)
        stats = sim._batch.stats()
        assert stats["skips"] > 0, "batch engine never fast-forwarded"
        assert stats["cycles_skipped"] > 0
        # every cycle is accounted to exactly one lane: object step,
        # fast-forward skip, or vectorized window
        assert (stats["steps"] + stats["cycles_skipped"]
                + stats["stepper"]["vector_cycles"]) == 600
        assert sim.cycle == 600

    def test_skipped_run_matches_stepped_run(self):
        sim_b, net_b = _build("batch")
        sim_b.run(600)
        assert sim_b._batch.cycles_skipped > 0
        sim_f, net_f = _build("fast")
        sim_f.run(600)
        assert (state_hash(capture_state(sim_b, net_b))
                == state_hash(capture_state(sim_f, net_f)))

    def test_idle_network_is_one_jump_per_run_call(self):
        """With gating disabled and zero traffic the whole run segment
        collapses into a single skip."""
        sim, net = _build("batch", scheme="packet_vc4", rate=0.0)
        sim.run(50)       # let construction-time activity settle
        before = sim._batch.skips
        sim.run(4000)
        stats = sim._batch.stats()
        assert stats["skips"] - before == 1
        assert sim.cycle == 4050

    def test_gating_scheme_stops_at_epoch_boundaries(self):
        """A vct run's skips must land on the gating epoch clock, not
        jump across it (the controller's epoch tick is a real event)."""
        sim, net = _build("batch")           # hybrid_tdm_vct, epoch 256
        sim.run(600)
        stats = sim._batch.stats()
        # the tail from ~drain to 600 spans at least one 256-cycle
        # epoch boundary, so it cannot be a single jump
        assert stats["skips"] >= 2

    def test_faulted_run_never_skips(self):
        """Fault injection disables sleeping; the batch engine must
        degrade to stepping, not skip over unmodelled fault events."""
        from dataclasses import replace

        from repro.config import FaultConfig, scheme_config
        cfg = scheme_config("packet_vc4", width=3, height=3,
                            slot_table_size=32)
        cfg = replace(cfg, faults=FaultConfig(enabled=True,
                                              link_fail_count=1,
                                              link_fail_cycle=40))
        sim, net, _ = prepare_synthetic("packet_vc4", "uniform_random",
                                        0.1, seed=1, width=3, height=3,
                                        slot_table_size=32, cfg=cfg,
                                        engine="batch")
        sim.run(300)
        assert sim._batch.stats()["skips"] == 0


# ---------------------------------------------------------------------------
# compiled struct-of-arrays layout
# ---------------------------------------------------------------------------
class TestLayout:
    def test_layout_consistent_with_object_graph(self):
        sim, net = _build("batch")
        for _ in range(4):
            sim.run(100)
            sim._batch.layout.assert_consistent(sim.cycle)

    def test_layout_sees_traffic_then_drain(self):
        sim, net = _build("batch", stop_cycle=150)
        sim.run(100)
        layout = sim._batch.layout
        layout.refresh()
        assert not layout.datapath_empty(sim.cycle), \
            "mid-burst network reported empty"
        sim.run(500)
        layout.refresh()
        assert layout.datapath_empty(sim.cycle)
        summary = layout.summary()
        assert summary["buffered_flits"] == 0
        assert summary["flits_on_links"] == 0

    def test_engine_without_network_runs_but_never_skips(self):
        """A bare Simulator (no build_network) has nothing to prove
        quiescence over besides its objects; with zero registered
        objects it may trivially skip, but with any unclassified object
        it must not."""
        from repro.sim.kernel import SimObject

        class Ticker(SimObject):
            count = 0

            def control(self, cycle):
                type(self).count += 1

        sim = Simulator(seed=1, engine="batch")
        sim.add(Ticker())
        sim.run(500)
        assert Ticker.count == 500, "batch engine skipped a blocker"


# ---------------------------------------------------------------------------
# interleaved simulators: every simulator owns its id allocators, so
# stepping several in one process is pure scheduling
# ---------------------------------------------------------------------------
def _interleaved_hashes(runs, cycles: int, chunk: int):
    """Step every (sim, net) pair of *runs* alternately, *chunk* cycles
    at a time, for *cycles* cycles each; return their final hashes."""
    for _ in range(cycles // chunk):
        for sim, _net in runs:
            sim.run(chunk)
    return [state_hash(capture_state(sim, net)) for sim, net in runs]


class TestInterleaved:
    SEEDS = (3, 7, 11)

    @staticmethod
    def _build(scheme: str, seed: int, stop_cycle: int):
        sim, net, sources = prepare_synthetic(
            scheme, "uniform_random", 0.1, seed=seed, width=4, height=4,
            slot_table_size=32, engine="batch")
        for src in sources:
            src.stop_cycle = stop_cycle
        return sim, net

    def test_interleaved_sims_bit_identical_to_solo_runs(self):
        interleaved = _interleaved_hashes(
            [self._build("hybrid_tdm_vc4", s, 200) for s in self.SEEDS],
            cycles=400, chunk=25)
        solo = [_interleaved_hashes([self._build("hybrid_tdm_vc4", s, 200)],
                                    cycles=400, chunk=400)[0]
                for s in self.SEEDS]
        assert interleaved == solo

    def test_slice_size_does_not_change_results(self):
        """A 300-cycle run in 25-cycle slices alternating with other
        simulators lands on the same state as one uninterrupted
        300-cycle run."""
        a = _interleaved_hashes(
            [self._build("packet_vc4", s, 100) for s in self.SEEDS],
            cycles=300, chunk=25)
        b = _interleaved_hashes(
            [self._build("packet_vc4", s, 100) for s in self.SEEDS],
            cycles=300, chunk=300)
        assert a == b


# ---------------------------------------------------------------------------
# N-engine divergence report (regression for the two-engine assumption)
# ---------------------------------------------------------------------------
class TestCompareEngineRuns:
    ENGINES = ("legacy", "fast", "batch")

    @staticmethod
    def _fps(n):
        return [{"cycle": (i + 1) * 100, "messages_delivered": 5 * i}
                for i in range(n)]

    def test_all_equal_reports_no_divergence(self):
        hashes = {e: ["h1", "h2", "h3"] for e in self.ENGINES}
        fps = {e: self._fps(3) for e in self.ENGINES}
        cycle, divergent, mismatches = compare_engine_runs(
            self.ENGINES, hashes, fps, interval=100, cycles=300)
        assert (cycle, divergent, mismatches) == (-1, [], [])

    def test_single_engine_divergence_is_attributed(self):
        hashes = {"legacy": ["h1", "h2", "h3"],
                  "fast": ["h1", "h2", "h3"],
                  "batch": ["h1", "hX", "hY"]}
        fps = {e: self._fps(3) for e in self.ENGINES}
        fps["batch"] = self._fps(3)
        fps["batch"][1] = dict(fps["batch"][1], messages_delivered=99)
        cycle, divergent, mismatches = compare_engine_runs(
            self.ENGINES, hashes, fps, interval=100, cycles=300)
        assert cycle == 200
        assert divergent == ["batch"]
        assert any("batch" in m and "cycle 200" in m for m in mismatches)
        assert any("messages_delivered" in m for m in mismatches)

    def test_multiple_engines_can_diverge_at_one_checkpoint(self):
        """The old report format could only name one 'other' engine;
        the generalisation must attribute a shared divergence to every
        engine that broke from the baseline."""
        hashes = {"legacy": ["h1", "h2"],
                  "fast": ["h1", "hF"],
                  "batch": ["h1", "hB"]}
        fps = {e: self._fps(2) for e in self.ENGINES}
        cycle, divergent, mismatches = compare_engine_runs(
            self.ENGINES, hashes, fps, interval=100, cycles=200)
        assert cycle == 200
        assert divergent == ["fast", "batch"]
        assert len([m for m in mismatches if "state hash" in m]) == 2

    def test_truncated_interval_localises_to_run_end(self):
        hashes = {"legacy": ["h1", "h2"], "fast": ["h1", "hX"]}
        fps = {e: self._fps(2) for e in ("legacy", "fast")}
        cycle, divergent, _ = compare_engine_runs(
            ("legacy", "fast"), hashes, fps, interval=100, cycles=150)
        assert cycle == 150          # second checkpoint is the 150 mark
        assert divergent == ["fast"]

    def test_mismatched_checkpoint_counts_rejected(self):
        hashes = {"legacy": ["h1", "h2"], "fast": ["h1"]}
        fps = {"legacy": self._fps(2), "fast": self._fps(1)}
        with pytest.raises(ValueError):
            compare_engine_runs(("legacy", "fast"), hashes, fps,
                                interval=100, cycles=200)

    def test_fewer_than_two_engines_rejected(self):
        with pytest.raises(ValueError):
            compare_engine_runs(("legacy",), {"legacy": ["h1"]},
                                {"legacy": self._fps(1)},
                                interval=100, cycles=100)


# ---------------------------------------------------------------------------
# engine selection plumbing
# ---------------------------------------------------------------------------
class TestEngineSelection:
    def test_env_override_selects_batch(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "batch")
        assert default_engine() == "batch"
        sim, net, _ = prepare_synthetic("packet_vc4", "uniform_random",
                                        0.0, seed=1, width=3, height=3,
                                        slot_table_size=32)
        assert sim.engine == "batch"
        assert sim._batch is not None

    def test_env_override_rejects_unknown(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "warp")
        with pytest.raises(ValueError):
            default_engine()

    def test_explicit_engine_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "batch")
        sim, _, _ = prepare_synthetic("packet_vc4", "uniform_random",
                                      0.0, seed=1, width=3, height=3,
                                      slot_table_size=32, engine="legacy")
        assert sim.engine == "legacy"
        assert sim._batch is None
