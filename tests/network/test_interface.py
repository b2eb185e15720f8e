"""Network interface unit tests: packetisation, reassembly, hop-off."""

from collections import deque

from repro.network.flit import FlitKind, Message, MessageClass, Packet
from repro.network.interface import Endpoint

from tests.conftest import build


class Collector(Endpoint):
    def __init__(self):
        super().__init__()
        self.received = []

    def on_message(self, msg, cycle):
        self.received.append((msg, cycle))


class TestPacketisation:
    def test_data_message_becomes_5_flits(self):
        sim, net = build("packet_vc4", 2, 2)
        msg = Message(src=0, dst=1, mclass=MessageClass.DATA, size_flits=5,
                      create_cycle=0)
        net.ni(0).send(msg)
        pkt, prebuilt = net.ni(0).ps_queue[0]
        assert pkt.size == 5
        assert prebuilt is None

    def test_ctrl_message_is_single_flit(self):
        sim, net = build("packet_vc4", 2, 2)
        msg = Message(src=0, dst=1, mclass=MessageClass.CTRL, size_flits=1,
                      create_cycle=0)
        net.ni(0).send(msg)
        pkt, _ = net.ni(0).ps_queue[0]
        assert pkt.size == 1

    def test_pending_flits_accounting(self):
        sim, net = build("packet_vc4", 2, 2)
        ni = net.ni(0)
        for _ in range(3):
            ni.send(Message(src=0, dst=1, mclass=MessageClass.DATA,
                            size_flits=5, create_cycle=0))
        assert ni.pending_flits == 15
        sim.run(100)
        assert ni.pending_flits == 0


class TestReassemblyAndDelivery:
    def test_message_delivered_once(self):
        sim, net = build("packet_vc4", 2, 2)
        sink = Collector()
        net.attach_endpoint(3, sink)
        msg = Message(src=0, dst=3, mclass=MessageClass.DATA, size_flits=5,
                      create_cycle=0)
        net.ni(0).send(msg)
        sim.run(120)
        assert [m.id for m, _ in sink.received] == [msg.id]

    def test_interleaved_packets_reassemble(self):
        sim, net = build("packet_vc4", 2, 2)
        sink = Collector()
        net.attach_endpoint(3, sink)
        ids = []
        for _ in range(4):
            m = Message(src=0, dst=3, mclass=MessageClass.DATA,
                        size_flits=5, create_cycle=0)
            net.ni(0).send(m)
            ids.append(m.id)    # stamped when the NI accepts it
        sim.run(300)
        assert sorted(m.id for m, _ in sink.received) == sorted(ids)

    def test_hop_off_forwards_to_final_destination(self):
        """A message whose final_dst differs from its packet dst is
        re-injected toward final_dst (vicinity-sharing hop-off path)."""
        sim, net = build("packet_vc4", 3, 3)
        far = Collector()
        net.attach_endpoint(8, far)
        near = Collector()
        net.attach_endpoint(4, near)
        msg = Message(src=0, dst=4, mclass=MessageClass.DATA, size_flits=5,
                      create_cycle=0, final_dst=8)
        net.ni(0).send(msg)
        sim.run(300)
        assert near.received == []          # intermediate NI forwards
        assert [m.id for m, _ in far.received] == [msg.id]
        assert net.ni(4).counters["vicinity_hop_off"] == 1

    def test_message_sent_received_counts(self):
        sim, net = build("packet_vc4", 2, 2)
        sink = Collector()
        net.attach_endpoint(1, sink)
        net.ni(0).send(Message(src=0, dst=1, mclass=MessageClass.CTRL,
                               size_flits=1, create_cycle=0))
        sim.run(60)
        assert net.ni(0).sent_messages == 1
        assert net.ni(1).received_messages == 1


class TestStreamReframing:
    def test_enqueue_stream_reframes_flit_kinds(self):
        sim, net = build("packet_vc4", 2, 2)
        ni = net.ni(0)
        msg = Message(src=0, dst=1, mclass=MessageClass.DATA, size_flits=4,
                      create_cycle=0)
        pkt = Packet(msg, 0, 1, 4, circuit=True)
        flits = deque(pkt.make_flits()[1:])  # drop the original head
        ni.enqueue_stream(pkt, flits)
        assert flits[0].kind == FlitKind.HEAD
        assert flits[-1].kind == FlitKind.TAIL
        assert all(not f.is_circuit for f in flits)

    def test_single_flit_stream_is_head_tail(self):
        sim, net = build("packet_vc4", 2, 2)
        ni = net.ni(0)
        msg = Message(src=0, dst=1, mclass=MessageClass.DATA, size_flits=4,
                      create_cycle=0)
        pkt = Packet(msg, 0, 1, 4, circuit=True)
        flits = deque(pkt.make_flits()[-1:])
        ni.enqueue_stream(pkt, flits)
        assert flits[0].kind == FlitKind.HEAD_TAIL


class TestLatencyFeedback:
    def test_ewma_tracks_observed_latency(self):
        sim, net = build("packet_vc4", 2, 2)
        sink = Collector()
        net.attach_endpoint(1, sink)
        ni = net.ni(0)
        assert ni.ps_latency_ewma == 0.0
        ni.send(Message(src=0, dst=1, mclass=MessageClass.CTRL,
                        size_flits=1, create_cycle=0))
        sim.run(60)
        assert ni.ps_latency_ewma == 9  # first sample taken verbatim
