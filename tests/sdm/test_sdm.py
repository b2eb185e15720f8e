"""SDM hybrid baseline tests (S12, Jerger et al.)."""

import pytest

from repro.config import scheme_config
from repro.core.circuit import ConnState
from repro.core.decision import always_circuit
from repro.network.flit import Flit, Message, MessageClass
from repro.network.interface import Endpoint
from repro.network.topology import LOCAL, NUM_PORTS
from repro.sdm.router import sdm_packet_size

from tests.conftest import build, drain, run_traffic


class Collector(Endpoint):
    def __init__(self):
        super().__init__()
        self.received = []

    def on_message(self, msg, cycle):
        self.received.append((msg, cycle))


def sdm_net(width=4, height=4, seed=1):
    return build("hybrid_sdm_vc4", width, height, seed=seed)


def setup_plane_circuit(sim, net, src, dst, max_cycles=300):
    mgr = net.managers[src]
    mgr._maybe_setup(dst, sim.cycle)
    for _ in range(max_cycles):
        conn = mgr.connections.get(dst)
        if conn is not None and conn.state is ConnState.ACTIVE:
            return conn
        sim.step()
    return mgr.connections.get(dst)


class TestPacketSizes:
    def test_serialisation_onto_planes(self):
        """16-byte channel / 4 planes => 4-byte plane flits; a 64-byte
        line serialises into 16 flits (+1 head when packet-switched)."""
        cfg = scheme_config("hybrid_sdm_vc4")
        assert sdm_packet_size(cfg, "cs_data") == 16
        assert sdm_packet_size(cfg, "ps_data") == 17
        assert sdm_packet_size(cfg, "config") == 1

    def test_unknown_kind_rejected(self):
        cfg = scheme_config("hybrid_sdm_vc4")
        with pytest.raises(ValueError):
            sdm_packet_size(cfg, "bogus")


class TestSDMStructure:
    def test_vc_layout(self):
        _, net = sdm_net()
        r = net.router(0)
        assert r.planes == 4
        assert r.total_vcs == 4 * 4 + 1
        assert r.config_vc == 16
        assert r.plane_of_vc(0) == 0
        assert r.plane_of_vc(5) == 1
        assert r.plane_of_vc(15) == 3


class TestSDMPacketSwitched:
    def test_delivery_and_conservation(self):
        sim, net, sources = run_traffic("hybrid_sdm_vc4", "uniform_random",
                                        rate=0.15, warmup=0, measure=800)
        assert drain(sim, net, max_cycles=8000)
        generated = sum(s.messages_generated for s in sources)
        received = sum(s.messages_received for s in sources)
        assert received == generated > 0

    def test_port_buffered_and_ledger_exact_under_load(self):
        """The per-port buffered-flit counts, which the SDM traversal and
        route-compute pops must keep current, equal a scan of the input
        VCs mid-run, and the conservation ledger balances."""
        sim, net, _ = run_traffic("hybrid_sdm_vc4", "transpose", rate=0.3,
                                  warmup=0, measure=800)
        assert sum(r.occupancy() for r in net.routers) > 0
        for r in net.routers:
            assert r._port_buffered == [p.occupancy() for p in r.in_ports]
        assert net.ledger.injected > 0
        assert net.conservation_imbalance() == 0

    def test_serialisation_penalty_vs_wide_network(self):
        """At low load an SDM data packet takes longer than a full-width
        packet because of the 17-flit serialisation."""
        _, wide, _ = run_traffic("packet_vc4", "neighbor", 0.05,
                                 measure=1500)
        _, sdm, _ = run_traffic("hybrid_sdm_vc4", "neighbor", 0.05,
                                measure=1500)
        assert sdm.msg_latency.mean > wide.msg_latency.mean

    def test_packets_confined_to_one_plane(self):
        sim, net = sdm_net()
        sink = Collector()
        net.attach_endpoint(3, sink)
        msg = Message(src=0, dst=3, mclass=MessageClass.DATA,
                      size_flits=17, create_cycle=sim.cycle)
        net.ni(0).send(msg)
        sim.run(300)
        assert len(sink.received) == 1


class TestSDMCircuits:
    def test_plane_reserved_end_to_end(self):
        sim, net = sdm_net()
        conn = setup_plane_circuit(sim, net, 0, 3)
        assert conn is not None and conn.state is ConnState.ACTIVE
        plane = conn.slot0  # plane index rides the slot field
        # walk the XY path checking plane reservations
        node, inport = 0, LOCAL
        seen = 0
        from repro.network.routing import xy_outport
        from repro.network.topology import opposite_port
        while node != 3:
            r = net.router(node)
            out = r.cs_route[inport][plane]
            assert out >= 0
            nxt = net.mesh.neighbor(node, out)
            node, inport = nxt, opposite_port(out)
            seen += 1
        assert net.router(3).cs_route[inport][plane] == LOCAL
        assert seen == net.mesh.hops(0, 3)

    def test_circuit_message_streams_on_plane(self):
        sim, net = sdm_net()
        mgr = net.managers[0]
        mgr.decision_fn = always_circuit()
        sink = Collector()
        net.attach_endpoint(3, sink)
        conn = setup_plane_circuit(sim, net, 0, 3)
        assert conn.state is ConnState.ACTIVE
        msg = Message(src=0, dst=3, mclass=MessageClass.DATA,
                      size_flits=17, create_cycle=sim.cycle)
        net.ni(0).send(msg)
        sim.run(300)
        assert [m.id for m, _ in sink.received] == [msg.id]
        assert net.ni(3).counters["cs_flit_ejected"] == 16
        assert net.cs_flit_fraction() > 0

    def test_circuit_count_limited_by_planes(self):
        """At most `planes` circuits can leave one node (the paper's
        core criticism of SDM)."""
        sim, net = sdm_net(6, 6)
        mgr = net.managers[0]
        ok = 0
        for dst in (1, 2, 3, 4, 5):
            conn = setup_plane_circuit(sim, net, 0, dst)
            if conn is not None and conn.state is ConnState.ACTIVE:
                ok += 1
        assert ok <= net.cfg.sdm.planes
        assert ok >= 2  # but several did succeed

    def test_teardown_frees_plane(self):
        sim, net = sdm_net()
        conn = setup_plane_circuit(sim, net, 0, 3)
        plane = conn.slot0
        net.managers[0].teardown(conn, sim.cycle)
        sim.run(200)
        assert net.router(0).cs_route[LOCAL][plane] < 0

    def test_ps_steals_idle_circuit_plane(self):
        """Packet flits may use a reserved plane's idle cycles."""
        sim, net = sdm_net()
        conn = setup_plane_circuit(sim, net, 0, 3)
        sink = Collector()
        net.attach_endpoint(3, sink)
        # circuit idle: PS messages can still use all planes
        for _ in range(8):
            msg = Message(src=0, dst=3, mclass=MessageClass.DATA,
                          size_flits=17, create_cycle=sim.cycle)
            net.ni(0).enqueue_ps(msg)
        sim.run(800)
        assert len(sink.received) == 8


class TestSDMConfig:
    def test_vc_gating_rejected(self):
        """SDM has no VC-gating model: the combination must not build."""
        from dataclasses import replace

        from repro.config import NetworkConfig, VCGatingConfig
        cfg = scheme_config("hybrid_sdm_vc4")
        with pytest.raises(ValueError, match="SDM"):
            replace(cfg, vc_gating=replace(cfg.vc_gating, enabled=True))
        with pytest.raises(ValueError, match="SDM"):
            NetworkConfig(switching="sdm",
                          vc_gating=VCGatingConfig(enabled=True))


# ----------------------------------------------------------------------
# plane arbiter: the single-pass _sa_st against the list-and-min original
# ----------------------------------------------------------------------
def _reference_pick_plane(r, outport, plane, used_in, cycle, sa_ptr):
    """The original candidate-list arbiter: collect every ready owner of
    the plane's output VCs, pick the rotated-distance minimum, advance
    the pointer only on a multi-way arbitration."""
    v = r.rcfg.num_vcs
    base = plane * v
    owners = r.out_vc_owner[outport]
    credits = r.credits[outport]
    candidates = []
    for ovc in range(base, base + v):
        owner = owners[ovc]
        if owner is None or credits[ovc] <= 0:
            continue
        inport, invc = owner
        if used_in[inport][plane]:
            continue
        flit = r.in_ports[inport].vcs[invc].front()
        if flit is None or cycle < flit.ready_cycle:
            continue
        candidates.append((inport, invc, ovc))
    if not candidates:
        return None, 0
    if len(candidates) == 1:
        return candidates[0], 1
    key_idx = outport * r.planes + plane
    ptr = sa_ptr[key_idx]
    n = NUM_PORTS * r.total_vcs
    winner = min(candidates,
                 key=lambda c: (c[0] * r.total_vcs + c[1] - ptr) % n)
    sa_ptr[key_idx] = winner[0] * r.total_vcs + winner[1] + 1
    return winner, len(candidates)


def _reference_grants(r, cycle):
    """Grants (outport, inport, invc, ovc) in traversal order, the final
    round-robin pointers, and the candidate counts of the plane picks."""
    sa_ptr = list(r._sa_ptr)
    used_in = [list(row) for row in r._cs_in_used]
    grants, sizes = [], []
    for outport in range(NUM_PORTS):
        if not r._owned_out[outport] or r.out_links[outport] is None:
            continue
        ovc = r.config_vc
        owner = r.out_vc_owner[outport][ovc]
        if owner is not None and r.credits[outport][ovc] > 0:
            flit = r.in_ports[owner[0]].vcs[owner[1]].front()
            if flit is not None and cycle >= flit.ready_cycle:
                grants.append((outport, owner[0], owner[1], ovc))
        for plane in range(r.planes):
            if r._cs_out_used[outport][plane]:
                continue
            winner, n = _reference_pick_plane(r, outport, plane, used_in,
                                              cycle, sa_ptr)
            if winner is None:
                continue
            sizes.append(n)
            used_in[winner[0]][plane] = True
            grants.append((outport, *winner))
    return grants, sa_ptr, sizes


def _randomise_router(r, rng, cycle):
    """Random owners (plane-consistent, each input VC owning at most one
    output VC), credits, FIFO heads, ready cycles, plane-usage flags and
    pointers; returns {flit: (inport, invc)} for the FIFO heads."""
    from repro.network.flit import FlitKind, Packet

    v = r.rcfg.num_vcs
    msg = Message(src=0, dst=1, mclass=MessageClass.DATA, size_flits=1,
                  create_cycle=0)
    heads = {}
    free_in = {(ip, ivc) for ip in range(NUM_PORTS)
               for ivc in range(r.total_vcs)}
    r.out_vc_owner = [[None] * r.total_vcs for _ in range(NUM_PORTS)]
    for port in r.in_ports:
        for vc in port.vcs:
            vc.fifo.clear()
            vc.route_outport = vc.out_vc = None
    for outport in range(NUM_PORTS):
        for ovc in range(r.total_vcs):
            if rng.random() < 0.45:
                continue
            if ovc == r.config_vc:
                pool = [(ip, ivc) for ip, ivc in free_in if ivc == ovc]
            else:
                plane = ovc // v
                pool = [(ip, ivc) for ip, ivc in free_in
                        if ivc != r.config_vc and ivc // v == plane]
            if not pool:
                continue
            inport, invc = rng.choice(sorted(pool))
            free_in.discard((inport, invc))
            r.out_vc_owner[outport][ovc] = (inport, invc)
            vcobj = r.in_ports[inport].vcs[invc]
            vcobj.route_outport, vcobj.out_vc = outport, ovc
            for _ in range(rng.randint(0, 2)):
                kind = rng.choice((FlitKind.BODY, FlitKind.TAIL))
                flit = Flit(Packet(msg, 0, 1, 4), kind, 1)
                flit.ready_cycle = cycle + rng.randint(-2, 1)
                vcobj.fifo.append(flit)
            if vcobj.fifo:
                heads[vcobj.fifo[0]] = (inport, invc)
    r.credits = [[rng.randint(0, 2) for _ in range(r.total_vcs)]
                 for _ in range(NUM_PORTS)]
    r._owned_out = [sum(o is not None for o in row)
                    for row in r.out_vc_owner]
    r._port_buffered = [p.occupancy() for p in r.in_ports]
    r._buffered_flits = sum(r._port_buffered)
    r._cs_in_used = [[rng.random() < 0.2 for _ in range(r.planes)]
                     for _ in range(NUM_PORTS)]
    r._cs_out_used = [[rng.random() < 0.2 for _ in range(r.planes)]
                      for _ in range(NUM_PORTS)]
    mod = NUM_PORTS * r.total_vcs
    r._sa_ptr = [rng.randrange(mod) for _ in range(NUM_PORTS * r.planes)]
    return heads


class TestPlaneArbiter:
    def test_single_pass_matches_candidate_list_arbiter(self):
        import random

        _, net = sdm_net()
        r = net.router(5)       # interior node: every output link wired
        rng = random.Random(1234)
        cycle = 100
        sizes_seen = set()
        for _ in range(400):
            heads = _randomise_router(r, rng, cycle)
            grants, ptr, sizes = _reference_grants(r, cycle)
            sizes_seen.update(sizes)
            for link in r.out_links:
                link._pipe.clear()
            r._sa_st(cycle)
            got = []
            for outport, link in enumerate(r.out_links):
                for _due, flit in link._pipe:
                    got.append((outport, *heads[flit], flit.vc))
            assert got == grants
            assert r._sa_ptr == ptr
        # both arbitration kinds were exercised, including the
        # single-candidate pick that leaves the pointer alone
        assert 1 in sizes_seen and max(sizes_seen) >= 3


# ----------------------------------------------------------------------
# snapshots taken mid-circuit, and traced runs
# ----------------------------------------------------------------------
def _sdm_run(engine):
    from repro.harness.runner import prepare_synthetic
    sim, net, _ = prepare_synthetic("hybrid_sdm_vc4", "transpose", 0.3,
                                    seed=2, width=4, height=4,
                                    engine=engine)
    return sim, net


class TestSDMSnapshot:
    @pytest.mark.parametrize("engine", ["legacy", "fast"])
    def test_restore_while_plane_flags_dirty(self, engine):
        from repro.sim.checkpoint import (capture_state, restore_state,
                                          state_hash)
        sim_a, net_a = _sdm_run("fast")
        sim_a.run(400)
        for _ in range(2000):
            if any(r._cs_flags_dirty for r in net_a.routers):
                break
            sim_a.step()
        assert any(r._cs_flags_dirty for r in net_a.routers), \
            "no circuit flit crossed a router"
        snap = capture_state(sim_a, net_a)
        sim_a.run(300)
        want_hash = state_hash(capture_state(sim_a, net_a))
        want_idle = [r.sim_idle(sim_a.cycle) for r in net_a.routers]

        sim_b, net_b = _sdm_run(engine)
        restore_state(sim_b, net_b, snap)
        assert [r._cs_flags_dirty for r in net_b.routers] == [
            any(True in row for row in r._cs_in_used + r._cs_out_used)
            for r in net_b.routers]
        sim_b.run(300)
        assert state_hash(capture_state(sim_b, net_b)) == want_hash
        assert [r.sim_idle(sim_b.cycle) for r in net_b.routers] == want_idle


class TestSDMTrace:
    def test_traced_run_records_routes_and_matches_untraced(self, tmp_path):
        from repro.harness.runner import run_synthetic
        from repro.obs import Observability

        def run(obs=None):
            return run_synthetic("hybrid_sdm_vc4", "transpose", 0.2,
                                 warmup=300, measure=700, width=4, height=4,
                                 observability=obs)

        plain = run()
        obs = Observability(trace_jsonl=str(tmp_path / "t.jsonl"))
        traced = run(obs)
        assert obs.finalize_summary["counts"].get("flit_route", 0) > 0
        assert traced.avg_latency == plain.avg_latency
        assert traced.p99_latency == plain.p99_latency
        assert traced.accepted == plain.accepted
        assert traced.messages_delivered == plain.messages_delivered
        assert traced.cs_fraction == plain.cs_fraction
