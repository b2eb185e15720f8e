"""Messages, packets and flits.

A :class:`Message` is what an endpoint (core, cache bank, traffic source)
sends.  The network interface packetises it into a :class:`Packet` made of
:class:`Flit` objects.  Flits are the unit of link transfer and buffering.

Packet kinds follow Table I: 1-flit configuration/control packets,
4-flit circuit-switched data packets (one 64 B cache line on 16 B flits),
5-flit packet-switched data packets (head + line), 5-flit circuit-switched
packets when vicinity sharing needs a header flit for the hop-off leg.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Optional


class FlitKind(IntEnum):
    HEAD = 0
    BODY = 1
    TAIL = 2
    HEAD_TAIL = 3  # single-flit packet


class MessageClass(IntEnum):
    """Traffic classes; CONFIG rides the dedicated escape VC."""

    DATA = 0      #: cache-line-sized payload message
    CTRL = 1      #: short request / coherence control message
    CONFIG = 2    #: circuit setup / teardown / ack


class ConfigType(IntEnum):
    SETUP = 0
    TEARDOWN = 1
    ACK_SUCCESS = 2
    ACK_FAIL = 3
    #: confirmation that a teardown walk reached the connection endpoint
    #: (only emitted when the resilience layer is enabled; lets the
    #: source bound how long a TEARING record is retained)
    TEARDOWN_ACK = 4
    #: mid-path notification that an ACTIVE circuit crosses a dead link
    #: (fault injection); tells the source to tear the circuit down and
    #: demote the pair if its circuits keep dying
    NACK_CIRCUIT = 5


class ConfigPayload:
    """Payload carried by circuit-path configuration messages.

    ``slot_id`` is mutated in place as the message hops (+2 per router,
    modulo the active slot-table size).  ``orig_src``/``orig_dst`` identify
    the connection being configured even after the packet is converted
    into an acknowledgement heading back to the source.
    """

    __slots__ = ("ctype", "orig_src", "orig_dst", "slot_id", "duration",
                 "conn_id", "fail_node", "orig_slot", "generation")

    def __init__(self, ctype: ConfigType, orig_src: int, orig_dst: int,
                 slot_id: int, duration: int, conn_id: int) -> None:
        self.ctype = ctype
        self.orig_src = orig_src
        self.orig_dst = orig_dst
        self.slot_id = slot_id
        self.duration = duration
        self.conn_id = conn_id
        self.fail_node: Optional[int] = None
        #: the slot id at the source router, immutable; acknowledgements
        #: echo it so a source that lost its connection record (dynamic
        #: table resize) can still tear the path down
        self.orig_slot = slot_id
        #: TDM wheel generation at creation (see SlotClock.generation)
        self.generation = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ConfigPayload({self.ctype.name}, {self.orig_src}->"
                f"{self.orig_dst}, slot={self.slot_id}, dur={self.duration},"
                f" conn={self.conn_id})")


class Message:
    """An endpoint-level message.

    ``id`` is None until the message enters a simulation: the NI that
    first packetises it stamps it from its simulator's allocator.
    ``final_dst`` differs from ``dst`` only for vicinity-shared messages,
    which ride a circuit to ``dst`` (the circuit's endpoint) and then hop
    off to ``final_dst`` through the packet-switched network.
    """

    __slots__ = ("id", "src", "dst", "final_dst", "mclass", "size_flits",
                 "create_cycle", "payload", "reply_to", "meta")

    def __init__(self, src: int, dst: int, mclass: MessageClass,
                 size_flits: int, create_cycle: int,
                 payload=None, final_dst: Optional[int] = None) -> None:
        self.id: Optional[int] = None
        self.src = src
        self.dst = dst
        self.final_dst = dst if final_dst is None else final_dst
        self.mclass = mclass
        self.size_flits = size_flits
        self.create_cycle = create_cycle
        self.payload = payload
        self.reply_to = None
        self.meta: dict = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Message(#{self.id} {self.mclass.name} {self.src}->"
                f"{self.dst} size={self.size_flits})")


class Packet:
    """A message instance travelling on one network (one per message here).

    ``circuit`` marks the packet as travelling on a reserved TDM circuit;
    individual flits inherit this through :attr:`Flit.is_circuit` (the
    simulated equivalent of the 1-bit circuit-arrival lookahead wire).
    ``pid`` is drawn by the injecting NI from its simulator.
    """

    __slots__ = ("id", "msg", "src", "dst", "size", "mclass", "circuit",
                 "inject_cycle", "eject_cycle", "plane", "hops_taken",
                 "flits_received", "dropped", "misroutes")

    def __init__(self, msg: Message, src: int, dst: int, size: int,
                 circuit: bool = False, pid: Optional[int] = None) -> None:
        self.id = pid
        self.msg = msg
        self.src = src
        self.dst = dst
        self.size = size
        self.mclass = msg.mclass
        self.circuit = circuit
        self.inject_cycle: Optional[int] = None
        self.eject_cycle: Optional[int] = None
        self.plane: Optional[int] = None  # SDM only
        self.hops_taken = 0
        self.flits_received = 0  # reassembly progress (packet-global)
        self.dropped = False     # killed by a fault; trailing flits discard
        self.misroutes = 0       # non-minimal hops taken around dead links

    def make_flits(self) -> list:
        """Build this packet's flit train."""
        n = self.size
        if n == 1:
            kinds = (FlitKind.HEAD_TAIL,)
        else:
            kinds = [FlitKind.HEAD] + [FlitKind.BODY] * (n - 2) \
                + [FlitKind.TAIL]
        return [Flit(self, k, i) for i, k in enumerate(kinds)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "CS" if self.circuit else "PS"
        return f"Packet(#{self.id} {mode} {self.src}->{self.dst} x{self.size})"


class Flit:
    """Unit of buffering and link transfer.

    ``is_circuit`` is the simulation analogue of the one-bit lookahead
    wire from Section II-D: a router treats an arriving flit as
    circuit-switched only when the slot-table entry is valid *and* this
    flag is set (a packet-switched flit stealing a reserved slot arrives
    with the flag clear and is buffered normally).
    """

    __slots__ = ("packet", "kind", "index", "vc", "is_circuit", "ready_cycle")

    def __init__(self, packet: Packet, kind: FlitKind, index: int) -> None:
        self.packet = packet
        self.kind = kind
        self.index = index
        self.vc: int = -1
        self.is_circuit: bool = packet.circuit
        self.ready_cycle: int = 0

    @property
    def is_head(self) -> bool:
        return self.kind in (FlitKind.HEAD, FlitKind.HEAD_TAIL)

    @property
    def is_tail(self) -> bool:
        return self.kind in (FlitKind.TAIL, FlitKind.HEAD_TAIL)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Flit(pkt#{self.packet.id}[{self.index}] {self.kind.name}"
                f" vc={self.vc}{' CS' if self.is_circuit else ''})")
