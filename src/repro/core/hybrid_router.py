"""TDM hybrid-switched router (S6, Section II-D and Figure 2).

Extends the canonical VC wormhole router with:

* per-input-port slot tables and the arrival demultiplexer — an arriving
  flit whose slot-table entry is valid *and* whose circuit lookahead bit
  is set proceeds through the pre-configured crossbar in a single cycle
  (no buffering), reaching the downstream router two cycles later;
* circuit-switched injections from the local NI, including hitchhiker
  injections onto circuits passing through this router (Section III-A1);
* time-slot stealing — a packet-switched flit may use the crossbar in a
  reserved slot whose circuit flit did not show up (the upstream 1-bit
  signal is modelled by inspecting actual arrivals, which the simulator
  knows exactly);
* in-router processing of setup/teardown configuration messages at
  route-compute time (Section II-B / Figure 1).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.config import NetworkConfig
from repro.core.slot_table import RouterSlotState, SlotClock
from repro.network.flit import ConfigType, Flit, FlitKind, MessageClass
from repro.network.router import PacketRouter
from repro.network.topology import LOCAL, Mesh, NUM_PORTS


class CSInjection:
    """One scheduled circuit-switched flit injection at the local port."""

    __slots__ = ("flit", "expected_outport", "on_ok", "on_fail", "token")

    def __init__(self, flit: Flit, expected_outport: Optional[int],
                 on_ok: Callable, on_fail: Callable, token: dict) -> None:
        self.flit = flit
        self.expected_outport = expected_outport
        self.on_ok = on_ok
        self.on_fail = on_fail
        self.token = token  # shared per-packet dict with 'cancelled' flag


class HybridRouter(PacketRouter):
    """Hybrid-switched router: packet pipeline + TDM circuit pipeline."""

    def __init__(self, node: int, cfg: NetworkConfig, mesh: Mesh,
                 clock: SlotClock) -> None:
        super().__init__(node, cfg, mesh)
        self.clock = clock
        self.slot_state = RouterSlotState(clock, cfg.slot_table.reserve_cap)
        self.dlt = None                      # node DLT (sharing enabled)
        #: manager callback for setups this router rejects
        self.on_setup_rejected: Optional[Callable] = None
        #: called (conn_id, circuit_src, cycle) when a circuit flit hit a
        #: dead link here and was diverted to the packet-switched network
        self.on_circuit_fault: Optional[Callable] = None
        #: called (payload, cycle) when a teardown walk completed its
        #: full path at this router (terminal hop)
        self.on_teardown_done: Optional[Callable] = None
        self._cs_inject: Dict[int, List[CSInjection]] = {}
        self._cs_in_used = [False] * NUM_PORTS
        self._cs_out_used = [False] * NUM_PORTS
        #: True while any crossbar-usage flag is set — lets transfer skip
        #: the per-port reset loops on circuit-free cycles (derived from
        #: the flag lists, recomputed on restore, never snapshot state)
        self._cs_flags_dirty = False

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    def transfer(self, cycle: int) -> None:
        if self._cs_flags_dirty:
            cs_in = self._cs_in_used
            cs_out = self._cs_out_used
            for i in range(NUM_PORTS):
                cs_in[i] = False
                cs_out[i] = False
            self._cs_flags_dirty = False
        # arrival demux fused in place of _process_arrivals/_demux_arrival:
        # the packet-switched buffer write (the overwhelmingly common case
        # on a loaded epoch) runs without any per-flit call; circuit flits
        # and fault-killed packets take the method paths
        arrivals = self._arrivals
        counts = self.counters._counts
        in_ports = self.in_ports
        port_buffered = self._port_buffered
        busy_by_vc = self._busy_by_vc
        pipe_lat = self.rcfg.ps_pipeline_latency
        for inport in range(NUM_PORTS):
            staged = arrivals[inport]
            if not staged:
                continue
            for flit in staged:
                counts["slot_read"] = counts.get("slot_read", 0) + 1
                if flit.is_circuit:
                    self._demux_circuit(inport, flit, cycle)
                elif flit.packet.dropped:
                    self._buffer_write(inport, flit, cycle)
                else:
                    vcobj = in_ports[inport].vcs[flit.vc]
                    fifo = vcobj.fifo
                    if not fifo:
                        if vcobj.out_vc is None:
                            busy_by_vc[flit.vc] += 1
                    elif len(fifo) >= vcobj.depth:
                        raise OverflowError(
                            "VC buffer overflow: credit protocol violated")
                    fifo.append(flit)
                    flit.ready_cycle = cycle + pipe_lat
                    self._buffered_flits += 1
                    port_buffered[inport] += 1
                    counts["buffer_write"] = counts.get("buffer_write", 0) + 1
            staged.clear()
        if self._cs_inject:
            self._process_cs_injections(cycle)
        if self._buffered_flits:
            self._route_and_va(cycle)
            self._sa_st(cycle)
        if self.gating is not None:
            self._sample_utilisation()

    def sim_idle(self, cycle: int) -> bool:
        """Packet-side idleness plus: no scheduled circuit injection and
        the crossbar-usage flags have settled back to all-False (they
        are reset at the *start* of the next transfer, so a router that
        carried a circuit flit this cycle stays awake one more cycle to
        run that reset — keeping its snapshot identical to legacy's)."""
        if self._cs_inject or self._cs_flags_dirty:
            return False
        return PacketRouter.sim_idle(self, cycle)

    # ------------------------------------------------------------------
    # circuit-switched datapath
    # ------------------------------------------------------------------
    def _demux_arrival(self, inport: int, flit: Flit, cycle: int) -> None:
        # "For each incoming flit, the router looks up the slot table"
        # (Section II) — the demux lookup is paid by every arrival
        counts = self.counters._counts
        counts["slot_read"] = counts.get("slot_read", 0) + 1
        if not flit.is_circuit:
            self._buffer_write(inport, flit, cycle)
            return
        self._demux_circuit(inport, flit, cycle)

    def _demux_circuit(self, inport: int, flit: Flit, cycle: int) -> None:
        """Circuit-arrival leg of the demux (slot_read already counted)."""
        slot = self.clock.slot(cycle)
        hit = self.slot_state.lookup_in(inport, slot)
        if hit is not None:
            outport, conn = hit
            if not self._link_up(outport):
                # the circuit crosses a dead link: divert the flit to the
                # local NI; the hop-off path carries the packet onward
                # through the (fault-aware) packet-switched network, and
                # the source is notified so it can tear down / demote
                self.counters.inc("cs_link_fault")
                if self.obs.enabled:
                    self.obs.cs_orphan(cycle, self._obs_track,
                                       flit.packet.id, "link_fault")
                if flit.is_head and self.on_circuit_fault is not None:
                    self.on_circuit_fault(conn, flit.packet.src, cycle)
                flit.is_circuit = False
                flit.packet.circuit = False
                self._cs_traverse(inport, LOCAL, flit, cycle, orphan=True)
                return
            self._cs_traverse(inport, outport, flit, cycle)
            return
        # Orphaned circuit flit: its reservation disappeared mid-flight
        # (teardown race or a dynamic-sizing table reset).  Eject it here;
        # the NI's hop-off path forwards the packet to its destination
        # through the packet-switched network.
        self.counters.inc("cs_orphan")
        if self.obs.enabled:
            self.obs.cs_orphan(cycle, self._obs_track,
                               flit.packet.id, "orphan")
        flit.is_circuit = False
        flit.packet.circuit = False
        self._cs_traverse(inport, LOCAL, flit, cycle, orphan=True)

    def _cs_traverse(self, inport: int, outport: int, flit: Flit,
                     cycle: int, orphan: bool = False) -> None:
        """Single-cycle circuit traversal through the crossbar."""
        self._cs_in_used[inport] = True
        self._cs_flags_dirty = True
        if not orphan:
            # an orphan ejection does not really use a reserved output
            self._cs_out_used[outport] = True
        counts = self.counters._counts
        counts["cs_xbar"] = counts.get("cs_xbar", 0) + 1
        counts["cs_latch"] = counts.get("cs_latch", 0) + 1
        if outport != LOCAL:
            counts["link"] = counts.get("link", 0) + 1
        flit.packet.hops_taken += 1
        ol = self.out_links[outport]
        if ol.faulty:
            ol.send(flit, cycle)        # slow path keeps drop accounting
        else:
            ol._pipe.append((cycle + ol.latency, flit))
            ol.flits_carried += 1
            ws = ol.wake_sink
            if ws is not None and not ws._sim_awake:
                ws.sim_wake()

    # ------------------------------------------------------------------
    def schedule_cs_injection(self, cycle: int, flit: Flit,
                              expected_outport: Optional[int],
                              on_ok: Callable, on_fail: Callable,
                              token: dict) -> None:
        """Register a circuit flit to enter the local crossbar input at
        exactly *cycle* (the NI computed the slot-aligned time)."""
        inj = CSInjection(flit, expected_outport, on_ok, on_fail, token)
        self._cs_inject.setdefault(cycle, []).append(inj)
        vn = self._vector_notify
        if vn is not None:
            vn(self)    # batch stepper: this router is now irregular
        self.sim_wake()

    def _process_cs_injections(self, cycle: int) -> None:
        injections = self._cs_inject.pop(cycle, None)
        if not injections:
            return
        slot = self.clock.slot(cycle)
        for inj in injections:
            if inj.token.get("cancelled"):
                continue
            if self._cs_in_used[LOCAL]:
                inj.on_fail(inj.flit)
                continue
            if inj.expected_outport is None:
                # own connection: the local input table holds the route
                self.counters.inc("slot_read")
                hit = self.slot_state.lookup_in(LOCAL, slot)
                if hit is None:
                    inj.on_fail(inj.flit)   # stale connection
                    continue
                outport, _conn = hit
            else:
                # hitchhiker: ride an idle reserved slot of a circuit
                # passing through this router (Section III-A1)
                outport = inj.expected_outport
                self.counters.inc("slot_read")
                if (not self.slot_state.output_reserved(outport, slot)
                        or self._cs_out_used[outport]):
                    inj.on_fail(inj.flit)   # contention with the owner
                    continue
            if self._cs_out_used[outport]:
                inj.on_fail(inj.flit)
                continue
            if not self._link_up(outport):
                # first hop of the circuit is dead: fall back to packet
                # switching before the flit ever enters the fabric
                self.counters.inc("cs_link_fault")
                inj.on_fail(inj.flit)
                continue
            self._cs_traverse(LOCAL, outport, inj.flit, cycle)
            inj.on_ok(inj.flit)

    # ------------------------------------------------------------------
    # snapshot protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Packet-router state plus slot tables, the node DLT and the
        pending circuit-injection schedule.

        CSInjection callbacks are closures over the NI and cannot be
        serialized: only ``(flit, expected_outport, token)`` is captured
        and the network-level load rebinds fresh callbacks through
        :meth:`rebind_cs_injections` (the token dict carries everything
        the NI needs, and its identity is shared with the NI's own
        outstanding-circuit state through the one-pass freeze)."""
        state = super().state_dict()
        state.update({
            "slot_tables": list(self.slot_state.in_tables),
            "out_owner": [list(row) for row in self.slot_state.out_owner],
            "dlt": self.dlt,
            "cs_inject": {
                cycle: [(inj.flit, inj.expected_outport, inj.token)
                        for inj in lst]
                for cycle, lst in self._cs_inject.items()},
            "cs_in_used": list(self._cs_in_used),
            "cs_out_used": list(self._cs_out_used),
        })
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.slot_state.in_tables = list(state["slot_tables"])
        self.slot_state.out_owner = [list(row) for row in state["out_owner"]]
        self.dlt = state["dlt"]
        self._cs_in_used = list(state["cs_in_used"])
        self._cs_out_used = list(state["cs_out_used"])
        self._cs_flags_dirty = (any(self._cs_in_used)
                                or any(self._cs_out_used))
        # callbacks are rebuilt once the NI reference is known
        self._cs_inject_raw = state["cs_inject"]
        self._cs_inject = {}

    def rebind_cs_injections(self, ni) -> None:
        """Rebuild the pending-injection schedule with fresh NI-bound
        callbacks (called by the network after both sides loaded)."""
        raw = getattr(self, "_cs_inject_raw", None)
        if raw is None:
            return
        del self._cs_inject_raw
        self._cs_inject = {
            cycle: [CSInjection(flit, exp, *ni.make_cs_callbacks(token), token)
                    for flit, exp, token in entries]
            for cycle, entries in raw.items()}

    # ------------------------------------------------------------------
    # packet pipeline interaction (time-slot stealing)
    # ------------------------------------------------------------------
    def _sa_st(self, cycle: int) -> None:
        """Fused switch allocation + traversal for the hybrid hot path.

        Behaviour-identical copy of ``PacketRouter._sa_st`` with the
        hybrid hooks (``_out_blocked_for_ps``, steal accounting in
        ``_traverse``) and the per-winner helpers (``_sa_pick``, the base
        traversal, the credit/link sends) inlined — this loop and the
        arrival demux above are where a loaded epoch spends its time.
        The hook methods below are kept both as documentation of the
        protocol and for any caller going through the base allocator;
        the differential-equivalence harness pins the two code paths to
        identical state trajectories.
        """
        owned = self._owned_out
        out_links = self.out_links
        cs_out = self._cs_out_used
        out_owner = self.slot_state.out_owner
        slot = cycle % self.clock.active
        stealing = self.cfg.circuit.slot_stealing
        in_ports = self.in_ports
        total_vcs = self.total_vcs
        sa_ptr = self._sa_ptr
        mod = NUM_PORTS * total_vcs
        counts = self.counters._counts
        gating = self.gating
        used_in = None
        for outport in range(NUM_PORTS):
            if not owned[outport] or out_links[outport] is None:
                continue
            # _out_blocked_for_ps, inlined
            if cs_out[outport]:
                continue
            reserved = out_owner[outport][slot] != -1
            if reserved and not stealing:
                continue
            if used_in is None:
                # _cs_used_inports, inlined: copy the circuit-usage
                # flags into the reusable scratch list
                used_in = self._used_in_scratch
                cs_in = self._cs_in_used
                for i in range(NUM_PORTS):
                    used_in[i] = cs_in[i]
            # _sa_pick, inlined: single-pass round-robin arbitration
            owners = self.out_vc_owner[outport]
            credits = self.credits[outport]
            ptr = sa_ptr[outport]
            winner = None
            winner_key = mod
            n_candidates = 0
            for ovc in range(total_vcs):
                owner = owners[ovc]
                if owner is None or credits[ovc] <= 0:
                    continue
                inport, invc = owner
                if used_in[inport]:
                    continue
                vfifo = in_ports[inport].vcs[invc].fifo
                if not vfifo or cycle < vfifo[0].ready_cycle:
                    continue
                n_candidates += 1
                key = (inport * total_vcs + invc - ptr) % mod
                if key < winner_key:
                    winner_key = key
                    winner = (inport, invc, ovc)
            if winner is None:
                continue
            counts["sw_arb"] = counts.get("sw_arb", 0) + 1
            inport, invc, ovc = winner
            if n_candidates > 1:
                # pointer only advances on a real multi-way arbitration
                sa_ptr[outport] = inport * total_vcs + invc + 1
            used_in[inport] = True
            # _traverse, inlined (with the hybrid steal accounting)
            if reserved:
                counts["slot_steal"] = counts.get("slot_steal", 0) + 1
                if self.obs.enabled:
                    self.obs.slot_steal(cycle, self._obs_track,
                                        outport, slot)
            vcobj = in_ports[inport].vcs[invc]
            flit = vcobj.fifo.popleft()
            self._buffered_flits -= 1
            self._port_buffered[inport] -= 1
            counts["buffer_read"] = counts.get("buffer_read", 0) + 1
            counts["xbar"] = counts.get("xbar", 0) + 1
            if gating is not None:
                wait = cycle - flit.ready_cycle
                self._qdelay_accum += max(0, wait)
                self._qdelay_samples += 1
            clink = self.credit_out[inport]
            if clink is not None:
                clink._pipe.append((cycle + clink.latency, invc))
                ws = clink.wake_sink
                if ws is not None and not ws._sim_awake:
                    ws.sim_wake()
            flit.vc = ovc
            if outport != LOCAL:
                credits[ovc] -= 1
                counts["link"] = counts.get("link", 0) + 1
            flit.packet.hops_taken += 1
            kind = flit.kind
            if kind is FlitKind.TAIL or kind is FlitKind.HEAD_TAIL:
                owners[ovc] = None
                owned[outport] -= 1
                vcobj.route_outport = None
                vcobj.out_vc = None
                if not vcobj.fifo:
                    self._busy_by_vc[invc] -= 1
            ol = out_links[outport]
            if ol.faulty:
                ol.send(flit, cycle)    # slow path keeps drop accounting
            else:
                ol._pipe.append((cycle + ol.latency, flit))
                ol.flits_carried += 1
                ws = ol.wake_sink
                if ws is not None and not ws._sim_awake:
                    ws.sim_wake()

    def _cs_used_inports(self, cycle: int) -> List[bool]:
        scratch = self._used_in_scratch
        cs = self._cs_in_used
        for i in range(NUM_PORTS):
            scratch[i] = cs[i]
        return scratch

    def _out_blocked_for_ps(self, outport: int, cycle: int) -> bool:
        if self._cs_out_used[outport]:
            return True
        slot = self.clock.slot(cycle)
        if self.slot_state.output_reserved(outport, slot):
            if self.cfg.circuit.slot_stealing:
                return False        # reserved but idle: stealable
            return True
        return False

    def _traverse(self, outport: int, inport: int, invc: int, ovc: int,
                  cycle: int) -> None:
        # count actual steals: a PS traversal in a reserved-but-idle slot
        slot = self.clock.slot(cycle)
        if self.slot_state.output_reserved(outport, slot):
            self.counters.inc("slot_steal")
            if self.obs.enabled:
                self.obs.slot_steal(cycle, self._obs_track, outport, slot)
        super()._traverse(outport, inport, invc, ovc, cycle)

    # ------------------------------------------------------------------
    # configuration-message processing (Section II-B)
    # ------------------------------------------------------------------
    def _compute_route(self, inport: int, head: Flit,
                       cycle: int) -> Optional[int]:
        pkt = head.packet
        if pkt.mclass != MessageClass.CONFIG:
            return super()._compute_route(inport, head, cycle)
        payload = pkt.msg.payload
        if payload.ctype == ConfigType.SETUP:
            return self._process_setup(inport, pkt, payload, cycle)
        if payload.ctype == ConfigType.TEARDOWN:
            return self._process_teardown(inport, pkt, payload, cycle)
        # acknowledgements route adaptively like any config packet
        return self._route_adaptive(pkt, inport)

    def _process_setup(self, inport: int, pkt, payload,
                       cycle: int) -> Optional[int]:
        if payload.generation != self.clock.generation:
            # the wheel was resized while this setup travelled: its slot
            # arithmetic is stale, and any prefix it reserved was wiped
            # by the reset — reject so no unreachable reservation forms
            self.counters.inc("setup_stale")
            if self.obs.enabled:
                self.obs.cs_setup(cycle, self._obs_track,
                                  payload.conn_id, "stale")
            if self.on_setup_rejected is not None:
                self.on_setup_rejected(payload, cycle)
            return None
        st = self.slot_state
        dur = payload.duration
        slot = self.clock.wrap(payload.slot_id)
        if pkt.dst == self.node:
            candidates = [LOCAL]
        else:
            candidates = self._adaptive_candidates_by_credit(pkt)
            if (self.link_health is not None
                    and self.link_health.any_faults):
                # never reserve a circuit across a dead link; an empty
                # candidate list falls through to the rejection below
                candidates = [p for p in candidates if self._link_up(p)]
        for outport in candidates:
            if st.can_reserve(inport, outport, slot, dur):
                st.reserve(inport, outport, slot, dur, payload.conn_id)
                self.counters.inc("slot_write", dur)
                if self.obs.enabled:
                    self.obs.cs_setup(cycle, self._obs_track,
                                      payload.conn_id, "reserve",
                                      slot=slot, outport=outport)
                if self.dlt is not None and inport != LOCAL:
                    # nodes along the path learn the circuit for sharing
                    self.dlt.add(payload.orig_dst, slot, dur, outport,
                                 payload.conn_id)
                    self.counters.inc("dlt_write")
                if outport == LOCAL:
                    return LOCAL  # ejects; NI acknowledges success
                payload.slot_id = self.clock.advance2[slot]
                return outport
        # no output can host the reservation: reject (Figure 1, setups
        # 2 and 3) and have this node's manager NACK the source
        self.counters.inc("setup_rejected")
        if self.obs.enabled:
            self.obs.cs_setup(cycle, self._obs_track,
                              payload.conn_id, "reject")
        if self.on_setup_rejected is not None:
            self.on_setup_rejected(payload, cycle)
        return None  # consume the setup packet here

    def _adaptive_candidates_by_credit(self, pkt) -> List[int]:
        from repro.network.routing import oe_candidate_outports
        cands = oe_candidate_outports(self.mesh, self.node, pkt.src, pkt.dst)
        if len(cands) > 1:
            cands = sorted(cands, key=lambda o: -sum(self.credits[o]))
        return cands

    def _process_teardown(self, inport: int, pkt, payload,
                          cycle: int) -> Optional[int]:
        if payload.generation != self.clock.generation:
            return None  # tables were reset wholesale; nothing to clear
        slot = self.clock.wrap(payload.slot_id)
        outport = self.slot_state.release(inport, slot, payload.duration,
                                          payload.conn_id)
        if outport is None:
            return None   # reached the point where the setup had failed
        self.counters.inc("slot_write", payload.duration)
        if self.obs.enabled:
            self.obs.cs_teardown(cycle, self._obs_track,
                                 payload.conn_id, "release")
        if self.dlt is not None:
            self.dlt.remove_conn(payload.conn_id)
        if outport == LOCAL:
            # full path torn down; under the resilience protocol this
            # node confirms the walk back to the source
            if self.obs.enabled:
                self.obs.cs_teardown(cycle, self._obs_track,
                                     payload.conn_id, "done")
            if self.on_teardown_done is not None:
                self.on_teardown_done(payload, cycle)
            return None
        payload.slot_id = self.clock.advance2[slot]
        return outport
