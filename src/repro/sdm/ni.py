"""Network interface for the SDM hybrid network (S12).

Injection happens per plane: each plane slice is an independent narrow
channel, so the NI can stream up to one flit per plane per cycle (plus
the config escape channel).  Packet-switched packets are confined to a
single plane chosen at injection time (least-loaded productive plane) —
this is the packet serialisation the paper's Section IV critiques.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.config import NetworkConfig
from repro.network.flit import Flit, Message, MessageClass, Packet
from repro.network.interface import NetworkInterface
from repro.sdm.router import sdm_packet_size


class SDMNetworkInterface(NetworkInterface):
    """NI fronting a plane-partitioned router."""

    def __init__(self, node: int, cfg: NetworkConfig) -> None:
        super().__init__(node, cfg)
        self.planes = cfg.sdm.planes
        v = cfg.router.num_vcs
        self.total_vcs = self.planes * v + 1
        self.config_vc = self.planes * v
        self.local_credits = ([cfg.router.vc_depth] * (self.planes * v)
                              + [cfg.router.config_vc_depth])
        self.vc_in_use = [None] * self.total_vcs
        self.manager = None
        self._cs_outstanding = 0

    @property
    def _now(self) -> int:
        """Derived current-time clock — see the TDM hybrid NI for the
        full argument.  Not snapshot state."""
        last = self._last_inject
        sim = self.sim
        if sim is not None and sim.cycle - 1 > last:
            return sim.cycle - 1
        return last

    # ------------------------------------------------------------------
    def sim_idle(self, cycle: int) -> bool:
        if self._cs_outstanding:
            return False
        return NetworkInterface.sim_idle(self, cycle)

    # ------------------------------------------------------------------
    def send(self, msg: Message) -> None:
        if self.manager is not None:
            plan = self.manager.plan_message(msg, self._now)
            if plan is not None:
                self._send_circuit(msg, plan)
                return
        self.enqueue_ps(msg)

    def enqueue_ps(self, msg: Message, size_kind: Optional[str] = None) -> None:
        if size_kind is None:
            size_kind = {
                MessageClass.DATA: "ps_data",
                MessageClass.CTRL: "ctrl",
                MessageClass.CONFIG: "config",
            }[msg.mclass]
        size = sdm_packet_size(self.cfg, size_kind)
        self.ps_queue.append((self.new_packet(msg, msg.dst, size), None))
        self.sent_messages += 1
        self.sim_wake()

    def _send_circuit(self, msg: Message, plan) -> None:
        pkt = self.new_packet(msg, plan.circuit_dst, plan.size,
                              circuit=True)
        pkt.plane = plan.expected_outport  # plane index rides this field
        pkt.inject_cycle = plan.t0
        flits = pkt.make_flits()
        token = {"cancelled": False, "pkt": pkt, "pending": deque(flits)}
        on_ok, on_fail = self.make_cs_callbacks(token)
        for i, flit in enumerate(flits):
            flit.is_circuit = True
            self.router.schedule_cs_injection(
                plan.t0 + i, flit, on_ok=on_ok, on_fail=on_fail,
                token=token)
        self._cs_outstanding += plan.size
        self.sent_messages += 1
        self.counters.inc("cs_send_own")

    def make_cs_callbacks(self, token: dict):
        """(on_ok, on_fail) pair bound to *token* (also used when a
        snapshot restore rebuilds the router's injection schedule)."""
        return (lambda f, t=token: self._cs_flit_ok(f, t),
                lambda f, t=token: self._cs_flit_failed(f, t))

    def _cs_flit_ok(self, flit: Flit, token: dict) -> None:
        self._cs_outstanding -= 1
        token["pending"].remove(flit)
        self.ledger.injected += 1
        counts = self.counters._counts
        counts["flit_injected"] = counts.get("flit_injected", 0) + 1

    def _cs_flit_failed(self, flit: Flit, token: dict) -> None:
        pending: Deque[Flit] = token["pending"]
        self._cs_outstanding -= len(pending)
        token["cancelled"] = True
        pkt: Packet = token["pkt"]
        pkt.circuit = False
        self.counters.inc("cs_fallback")
        self.enqueue_stream(pkt, deque(pending))
        pending.clear()

    # ------------------------------------------------------------------
    # per-plane injection pump
    # ------------------------------------------------------------------
    def _pump_injection(self, cycle: int) -> None:
        vc_in_use = self.vc_in_use
        # allocate a VC (and thereby a plane) for the head packet
        if self.ps_queue:
            head_pkt, prebuilt = self.ps_queue[0]
            vc = self._allocate_injection_vc(head_pkt)
            if vc is not None:
                self.ps_queue.popleft()
                flits = prebuilt if prebuilt is not None \
                    else deque(head_pkt.make_flits())
                if head_pkt.plane is None:
                    head_pkt.plane = self._plane_of(vc)
                for f in flits:
                    f.vc = vc
                vc_in_use[vc] = flits
                if head_pkt.inject_cycle is None:
                    head_pkt.inject_cycle = cycle
        elif vc_in_use.count(None) == len(vc_in_use):
            return  # nothing queued, nothing streaming
        # stream one flit per plane per cycle (+ one config flit)
        v = self.cfg.router.num_vcs
        local_credits = self.local_credits
        counts = self.counters._counts
        sent_plane = [False] * self.planes
        sent_config = False
        for vc in range(self.total_vcs):
            stream = vc_in_use[vc]
            if stream is None or local_credits[vc] <= 0:
                continue
            if vc == self.config_vc:
                if sent_config:
                    continue
                sent_config = True
            else:
                plane = vc // v
                if sent_plane[plane]:
                    continue
                sent_plane[plane] = True
            flit = stream.popleft()
            local_credits[vc] -= 1
            self.inject_link.send(flit, cycle)
            self.ledger.injected += 1
            counts["flit_injected"] = counts.get("flit_injected", 0) + 1
            if not stream:
                vc_in_use[vc] = None

    def _plane_of(self, vc: int) -> int:
        return vc // self.cfg.router.num_vcs

    def _allocate_injection_vc(self, pkt: Packet) -> Optional[int]:
        vc_in_use = self.vc_in_use
        if pkt.mclass == MessageClass.CONFIG:
            vc = self.config_vc
            return vc if vc_in_use[vc] is None else None
        # least-loaded plane with a free VC (its lowest free VC)
        v = self.cfg.router.num_vcs
        best_vc, best_load = None, None
        for base in range(0, self.planes * v, v):
            free = None
            load = 0
            for vc in range(base, base + v):
                stream = vc_in_use[vc]
                if stream is None:
                    if free is None:
                        free = vc
                else:
                    load += len(stream)
            if free is None:
                continue
            if best_load is None or load < best_load:
                best_vc, best_load = free, load
        return best_vc

    # ------------------------------------------------------------------
    # snapshot protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        state = super().state_dict()
        state.update({"cs_outstanding": self._cs_outstanding})
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self._cs_outstanding = state["cs_outstanding"]

    @property
    def pending_flits(self) -> int:
        return super().pending_flits + self._cs_outstanding
