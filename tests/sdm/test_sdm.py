"""SDM hybrid baseline tests (S12, Jerger et al.)."""

import pytest

from repro.config import scheme_config
from repro.core.circuit import ConnState
from repro.core.decision import always_circuit
from repro.network.flit import Message, MessageClass
from repro.network.interface import Endpoint
from repro.network.topology import LOCAL
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
