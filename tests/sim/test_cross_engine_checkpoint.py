"""Checkpoint portability across engines.

The snapshot protocol captures *simulation* state only — scheduler
metadata (awake flags, compiled layouts, skip counters) is explicitly
excluded — so a snapshot taken under any engine must restore under any
other and continue to an identical trajectory.  These tests drive
every ordered engine pair through snapshot → restore → re-run and
require bit-identical hashes and stats, plus a snapshot taken from one
of two interleaved simulators (it restores both into its own simulator
while the other keeps running, and into a standalone one).
"""

from __future__ import annotations

import itertools

import pytest

from repro.harness.runner import prepare_synthetic
from repro.sim.checkpoint import capture_state, restore_state, state_hash

ENGINES = ("legacy", "fast", "batch")


def _build(engine: str, seed: int = 5):
    sim, net, sources = prepare_synthetic(
        "hybrid_tdm_vc4", "uniform_random", 0.15, seed=seed,
        width=4, height=4, slot_table_size=32, engine=engine)
    for src in sources:
        src.stop_cycle = 250
    return sim, net


@pytest.mark.parametrize("src_engine,dst_engine",
                         list(itertools.permutations(ENGINES, 2)))
def test_snapshot_restores_across_engines(src_engine, dst_engine):
    # reference: uninterrupted run under the source engine
    sim_a, net_a = _build(src_engine)
    sim_a.run(200)
    snap = capture_state(sim_a, net_a)
    h_snap = state_hash(snap)
    sim_a.run(200)
    h_final = state_hash(capture_state(sim_a, net_a))

    # restore into a fresh build under the destination engine
    sim_b, net_b = _build(dst_engine)
    restore_state(sim_b, net_b, snap)
    assert state_hash(capture_state(sim_b, net_b)) == h_snap, \
        f"{dst_engine} restore did not reproduce the {src_engine} snapshot"
    sim_b.run(200)
    assert state_hash(capture_state(sim_b, net_b)) == h_final, \
        f"{src_engine}->{dst_engine} continuation diverged"


def test_stats_survive_cross_engine_restore():
    sim_a, net_a = _build("legacy")
    sim_a.run(300)
    snap = capture_state(sim_a, net_a)
    sim_b, net_b = _build("batch")
    restore_state(sim_b, net_b, snap)
    assert net_b.messages_delivered == net_a.messages_delivered
    assert net_b.packets_ejected == net_a.packets_ejected
    assert net_b.flits_ejected == net_a.flits_ejected
    assert net_b.ledger.as_dict() == net_a.ledger.as_dict()


def test_interleaved_snapshot_restores_in_place_and_standalone():
    def run_both(pairs, cycles):
        for _ in range(cycles // 100):
            for sim, _net in pairs:
                sim.run(100)

    pairs = [_build("batch", seed=5), _build("batch", seed=9)]
    run_both(pairs, 200)
    sim, net = pairs[1]
    snap = capture_state(sim, net)
    run_both(pairs, 200)
    h_final = state_hash(capture_state(sim, net))

    # restore back into the same simulator and re-run while its sibling
    # keeps advancing past it: same end state
    restore_state(sim, net, snap)
    run_both(pairs, 200)
    assert state_hash(capture_state(sim, net)) == h_final

    # and into a standalone simulator under a different engine
    sim_b, net_b = _build("legacy", seed=9)
    restore_state(sim_b, net_b, snap)
    sim_b.run(200)
    assert state_hash(capture_state(sim_b, net_b)) == h_final
