"""The event-maintained busy-VC counter matches a full scan.

``PacketRouter._busy_by_vc[i]`` counts the input ports whose VC ``i``
is busy (FIFO non-empty or an output VC held).  VC-gating utilisation
sampling, ``vc_drainable`` and the batch engine's quiescence and spill
checks read it instead of scanning every port, so it must equal the
scan at every cycle boundary: on every scheme, through fault-killed
packet drains, across a snapshot restore, and inside the batch
engine's vectorized windows (including spilled routers).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config import SCHEMES, scheme_config
from repro.harness.runner import prepare_synthetic
from repro.network.router import PacketRouter
from repro.sim.checkpoint import capture_state, restore_state
from repro.sim.kernel import LivelockError


def assert_counts_exact(net) -> None:
    for r in net.routers:
        scan = [sum(p.vcs[i].busy for p in r.in_ports)
                for i in range(r.total_vcs)]
        assert r._busy_by_vc == scan, \
            f"router {r.node}: counter {r._busy_by_vc} != scan {scan}"


def step_checked(sim, net, cycles: int) -> None:
    for _ in range(cycles):
        sim.step()
        assert_counts_exact(net)


def _prepare(scheme, rate=0.35, seed=3, cfg=None, engine=None):
    return prepare_synthetic(scheme, "uniform_random", rate, seed=seed,
                             width=4, height=4, slot_table_size=32,
                             cfg=cfg, engine=engine)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_counts_exact_every_cycle_at_load(scheme):
    sim, net, _ = _prepare(scheme)
    step_checked(sim, net, 600)
    assert net.ledger.injected > 0


def test_counts_exact_through_fault_drops(monkeypatch):
    emptied = []
    drain = PacketRouter._drain_dropped

    def counting_drain(self, vcobj, pkt, inport, invc, cycle):
        had = len(vcobj.fifo)
        drain(self, vcobj, pkt, inport, invc, cycle)
        if had and not vcobj.fifo:
            emptied.append(cycle)

    monkeypatch.setattr(PacketRouter, "_drain_dropped", counting_drain)
    cfg = scheme_config("hybrid_tdm_hop_vct", width=4, height=4,
                        slot_table_size=32)
    cfg = replace(
        cfg, circuit=replace(cfg.circuit, setup_timeout=64),
        faults=replace(cfg.faults, enabled=True, config_drop_rate=0.02,
                       link_fail_count=3, link_fail_cycle=100,
                       transient_link_rate=0.002, transient_duration=100))
    sim, net, _ = _prepare("hybrid_tdm_hop_vct", rate=0.3, seed=5, cfg=cfg)
    try:
        step_checked(sim, net, 1200)
    except LivelockError:
        pass    # wedged residue behind a dead link is acceptable
    assert_counts_exact(net)
    assert net.ledger.dropped.get("packet_killed", 0) > 0
    assert emptied, "no dropped-packet drain emptied a VC: path untested"


def test_counts_rebuilt_on_restore():
    sim_a, net_a, _ = _prepare("hybrid_tdm_vct")
    sim_a.run(300)
    tree = capture_state(sim_a, net_a)
    sim_b, net_b, _ = _prepare("hybrid_tdm_vct")
    restore_state(sim_b, net_b, tree)
    assert_counts_exact(net_b)
    assert any(any(r._busy_by_vc) for r in net_b.routers), \
        "snapshot taken with every VC idle: restore path untested"
    step_checked(sim_b, net_b, 200)


def test_counts_exact_in_vector_windows_and_spills(monkeypatch):
    monkeypatch.setenv("REPRO_BATCH_VECTOR", "force")
    sim, net, _ = _prepare("hybrid_tdm_vct", rate=0.25, seed=7,
                           engine="batch")
    stepper = sim._batch.stepper
    sample = stepper._sample_gating
    checked = []

    def checked_sample(spilled):
        # runs once per vectorized cycle, after every router's transfer
        # (spilled ones object-side) has been applied
        assert_counts_exact(net)
        checked.append(sim.cycle)
        sample(spilled)

    stepper._sample_gating = checked_sample
    for _ in range(12):
        sim.run(50)
        assert_counts_exact(net)
    st = stepper.stats()
    assert checked and st["vector_cycles"] > 0
    assert st["spill_router_cycles"] > 0
