"""Snapshot capture/restore, on-disk format and corruption recovery."""

from __future__ import annotations

import os

import pytest

from repro.harness.runner import prepare_synthetic
from repro.sim.checkpoint import (
    CheckpointManager,
    SnapshotCorruptError,
    SnapshotError,
    capture_state,
    load_snapshot,
    restore_state,
    save_snapshot,
    state_hash,
)


def _small(scheme: str = "hybrid_tdm_vc4", seed: int = 1):
    return prepare_synthetic(scheme, "transpose", 0.2, seed=seed,
                             width=3, height=3, slot_table_size=32)


# ---------------------------------------------------------------------------
# capture / restore semantics
# ---------------------------------------------------------------------------
class TestCaptureRestore:
    def test_capture_is_decoupled_from_live_state(self):
        sim, net, _ = _small()
        sim.run(150)
        tree = capture_state(sim, net)
        h0 = state_hash(tree)
        sim.run(50)
        assert state_hash(tree) == h0, "tree mutated by running the sim"
        assert state_hash(capture_state(sim, net)) != h0

    def test_restore_reproduces_snapshot_hash(self):
        sim_a, net_a, _ = _small()
        sim_a.run(150)
        tree = capture_state(sim_a, net_a)
        sim_b, net_b, _ = _small()
        restore_state(sim_b, net_b, tree)
        assert state_hash(capture_state(sim_b, net_b)) == state_hash(tree)
        assert sim_b.cycle == sim_a.cycle

    def test_restore_is_idempotent(self):
        sim_a, net_a, _ = _small()
        sim_a.run(150)
        tree = capture_state(sim_a, net_a)
        sim_b, net_b, _ = _small()
        restore_state(sim_b, net_b, tree)
        restore_state(sim_b, net_b, tree)
        assert state_hash(capture_state(sim_b, net_b)) == state_hash(tree)

    def test_restored_run_tracks_original(self):
        sim_a, net_a, _ = _small()
        sim_a.run(150)
        tree = capture_state(sim_a, net_a)
        sim_a.run(100)
        sim_b, net_b, _ = _small()
        restore_state(sim_b, net_b, tree)
        sim_b.run(100)
        assert (state_hash(capture_state(sim_b, net_b))
                == state_hash(capture_state(sim_a, net_a)))
        assert net_b.messages_delivered == net_a.messages_delivered

    def test_format_version_checked(self):
        sim, net, _ = _small()
        tree = capture_state(sim, net)
        tree["format"] = 999
        with pytest.raises(SnapshotError):
            restore_state(sim, net, tree)

    def test_v1_tree_rejected(self):
        """Version 1 kept the id allocators in a top-level ``ids``
        subtree; a tree of that layout must not half-restore."""
        sim, net, _ = _small()
        tree = capture_state(sim, net)
        sim_state = dict(tree["sim"])
        ids = {k: sim_state.pop(f"{k}_ids") for k in ("msg", "pkt", "conn")}
        v1 = {"format": 1, "sim": sim_state, "ids": ids, "net": tree["net"]}
        with pytest.raises(SnapshotError):
            restore_state(sim, net, v1)

    def test_id_counters_restored(self):
        sim_a, net_a, _ = _small()
        sim_a.run(150)
        tree = capture_state(sim_a, net_a)
        msg_at_snap = tree["sim"]["msg_ids"]
        assert msg_at_snap == sim_a.msg_ids.value > 0
        sim_a.run(100)  # advances this simulator's allocators
        assert sim_a.msg_ids.value > msg_at_snap
        sim_b, net_b, _ = _small()
        restore_state(sim_b, net_b, tree)
        assert sim_b.msg_ids.value == msg_at_snap
        assert sim_b.pkt_ids.value == tree["sim"]["pkt_ids"]
        assert sim_b.conn_ids.value == tree["sim"]["conn_ids"]

    def test_different_seeds_hash_differently(self):
        sim_a, net_a, _ = _small(seed=1)
        sim_b, net_b, _ = _small(seed=2)
        sim_a.run(150)
        sim_b.run(150)
        assert (state_hash(capture_state(sim_a, net_a))
                != state_hash(capture_state(sim_b, net_b)))


class TestStateHash:
    def test_callable_in_tree_fails_loudly(self):
        with pytest.raises(TypeError, match="callable"):
            state_hash({"format": 1, "oops": lambda: None})

    def test_float_bits_matter(self):
        assert state_hash({"x": 0.0}) != state_hash({"x": -0.0})

    def test_sharing_topology_is_hashed(self):
        shared = [1, 2]
        assert (state_hash({"a": shared, "b": shared})
                != state_hash({"a": [1, 2], "b": [1, 2]}))


# ---------------------------------------------------------------------------
# on-disk format
# ---------------------------------------------------------------------------
class TestSnapshotFile:
    def _tree(self):
        sim, net, _ = _small()
        sim.run(120)
        return capture_state(sim, net), sim.cycle

    def test_round_trip(self, tmp_path):
        tree, cycle = self._tree()
        path = str(tmp_path / "snap.rsnap")
        save_snapshot(path, tree, cycle, meta={"scheme": "hybrid_tdm_vc4"})
        loaded = load_snapshot(path)
        assert loaded.header["cycle"] == cycle
        assert loaded.header["meta"]["scheme"] == "hybrid_tdm_vc4"
        assert state_hash(loaded.tree) == state_hash(tree)

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        tree, cycle = self._tree()
        path = str(tmp_path / "snap.rsnap")
        save_snapshot(path, tree, cycle)
        assert os.listdir(tmp_path) == ["snap.rsnap"]

    def test_truncated_payload_detected(self, tmp_path):
        tree, cycle = self._tree()
        path = str(tmp_path / "snap.rsnap")
        save_snapshot(path, tree, cycle)
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[:-200])
        with pytest.raises(SnapshotCorruptError, match="truncated"):
            load_snapshot(path)

    def test_bit_flip_detected(self, tmp_path):
        tree, cycle = self._tree()
        path = str(tmp_path / "snap.rsnap")
        save_snapshot(path, tree, cycle)
        blob = bytearray(open(path, "rb").read())
        blob[-100] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        with pytest.raises(SnapshotCorruptError, match="checksum"):
            load_snapshot(path)

    def test_bad_magic_detected(self, tmp_path):
        path = str(tmp_path / "snap.rsnap")
        with open(path, "wb") as fh:
            fh.write(b"not a snapshot at all")
        with pytest.raises(SnapshotCorruptError, match="magic"):
            load_snapshot(path)


class TestCheckpointManager:
    def test_rotation_keeps_newest(self, tmp_path):
        sim, net, _ = _small()
        mgr = CheckpointManager(str(tmp_path), keep=2)
        for _ in range(4):
            sim.run(50)
            mgr.save(capture_state(sim, net), sim.cycle)
        snaps = mgr.list_snapshots()
        assert len(snaps) == 2
        assert mgr.load_latest().header["cycle"] == sim.cycle

    def test_fallback_to_previous_good_snapshot(self, tmp_path):
        sim, net, _ = _small()
        mgr = CheckpointManager(str(tmp_path), keep=3)
        sim.run(50)
        mgr.save(capture_state(sim, net), sim.cycle)
        good_cycle = sim.cycle
        good_hash = state_hash(capture_state(sim, net))
        sim.run(50)
        bad = mgr.save(capture_state(sim, net), sim.cycle)
        blob = bytearray(open(bad, "rb").read())
        blob[-50] ^= 0xFF  # simulated disk corruption of the newest file
        with open(bad, "wb") as fh:
            fh.write(bytes(blob))

        loaded = mgr.load_latest()
        assert loaded is not None
        assert loaded.header["cycle"] == good_cycle
        assert state_hash(loaded.tree) == good_hash
        assert len(mgr.errors) == 1 and "checksum" in mgr.errors[0]

    def test_all_corrupt_returns_none(self, tmp_path):
        sim, net, _ = _small()
        mgr = CheckpointManager(str(tmp_path), keep=2)
        sim.run(50)
        path = mgr.save(capture_state(sim, net), sim.cycle)
        with open(path, "wb") as fh:
            fh.write(b"garbage")
        assert mgr.load_latest() is None
        assert mgr.errors

    def test_keep_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(str(tmp_path), keep=0)
