"""Canonical virtual-channel wormhole router (S3).

Pipeline model (per Section II-D, "packet-switched flits traverse through
the router pipeline"):

* cycle ``t``   — buffer write (BW) of an arriving flit
* cycle ``t+p`` — earliest route-compute / VC-allocation / switch-
  allocation eligibility, where ``p = ps_pipeline_latency`` (default 2,
  modelling the classic BW/RC -> VA/SA stages)
* switch traversal happens in the cycle the flit wins SA; together with
  one link cycle the flit reaches the downstream router two cycles after
  its SA win (see :mod:`repro.network.link`).

Flow control is credit-based per (output port, VC).  Wormhole semantics:
an output VC is held by an input VC from head-flit VA until the tail flit
leaves switch traversal.

Routing: X-Y for data/control packets; minimal adaptive (odd-even turn
model) on a dedicated escape VC for configuration packets.

The router exposes the extension points the TDM hybrid router overrides:
``_demux_arrival`` (slot-table demultiplexer), ``_out_blocked_for_ps``
(reserved-slot / time-slot-stealing check) and ``_compute_route``
(configuration-message processing); the SDM router overrides
``_allocate_out_vc`` (plane-restricted VC allocation).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.config import NetworkConfig
from repro.network.buffers import InputPort
from repro.network.flit import Flit, FlitKind, MessageClass
from repro.network.link import CreditLink, FlitLink
from repro.network.routing import (MISROUTE_LIMIT, fault_aware_outports,
                                   oe_candidate_outports, xy_outport)
from repro.network.topology import LOCAL, Mesh, NUM_PORTS
from repro.obs.trace import NULL_RECORDER
from repro.sim.kernel import SimObject
from repro.sim.stats import ConservationLedger, Counter, TimeWeighted

#: effectively-infinite credits for the ejection port (the NI always sinks)
EJECT_CREDITS = 1 << 30


class PacketRouter(SimObject):
    """One mesh router with 5 ports x (num_vcs data + 1 config) VCs."""

    _sim_can_sleep = True

    #: batch-engine hook: the vectorized stepper installs a callback
    #: here (hybrid routers only) so a mid-window ``schedule_cs_injection``
    #: reclassifies the router as irregular.  Scheduler metadata, never
    #: snapshot state.
    _vector_notify = None

    def __init__(self, node: int, cfg: NetworkConfig, mesh: Mesh) -> None:
        self.node = node
        self.cfg = cfg
        self.rcfg = cfg.router
        self.mesh = mesh

        v = self.rcfg.num_vcs
        self.total_vcs = v + 1  # + config escape VC
        self.config_vc = v

        self.in_ports: List[InputPort] = [
            InputPort(v, self.rcfg.vc_depth, self.rcfg.config_vc_depth)
            for _ in range(NUM_PORTS)
        ]
        # wiring, filled in by the network builder
        self.in_links: List[Optional[FlitLink]] = [None] * NUM_PORTS
        self.out_links: List[Optional[FlitLink]] = [None] * NUM_PORTS
        self.credit_out: List[Optional[CreditLink]] = [None] * NUM_PORTS
        self.credit_in: List[Optional[CreditLink]] = [None] * NUM_PORTS
        self.downstream: List[Optional[object]] = [None] * NUM_PORTS

        # credits towards downstream buffers, per (outport, vc)
        self.credits: List[List[int]] = [
            [0] * self.total_vcs for _ in range(NUM_PORTS)
        ]
        # which (inport, invc) holds each downstream VC
        self.out_vc_owner: List[List[Optional[Tuple[int, int]]]] = [
            [None] * self.total_vcs for _ in range(NUM_PORTS)
        ]

        # VC power gating state (Section III-B); 'active' is the number of
        # data VCs advertised to upstream allocators, 'powered' the number
        # whose leakage is currently paid (>= active while draining).
        self.active_vcs = v
        self.powered_vcs = v
        self.vc_power_integral = TimeWeighted(v, 0)
        self.gating = None  # attached by the network builder when enabled

        self._sa_ptr = [0] * NUM_PORTS   # round-robin pointers per outport
        self._arrivals: List[List[Flit]] = [[] for _ in range(NUM_PORTS)]
        self.counters = Counter()
        self._busy_accum = 0.0           # busy-VC integral for gating epochs
        self._busy_samples = 0
        self._qdelay_accum = 0.0         # per-flit queueing delay (gating)
        self._qdelay_samples = 0
        self._buffered_flits = 0         # fast-path guard: skip VA/SA
        #                                  loops when nothing is buffered
        self.rng = None  # set by builder (shared simulator generator)
        #: trace recorder; NULL_RECORDER keeps every guarded emission
        #: site a single falsy attribute check (never snapshot state)
        self.obs = NULL_RECORDER
        self._obs_track = f"router-{node}"

        # resilience/fault-injection state --------------------------------
        #: shared flit-conservation ledger (the network builder replaces
        #: the private default with the network-wide instance)
        self.ledger = ConservationLedger()
        #: link-health map consulted by routing when faults are injected
        self.link_health = None
        #: a fault-injected router stall freezes the transfer phase (the
        #: pipeline clock is held) until this cycle
        self.stalled_until = 0

        # fast-path transients (derived/wiring state, never snapshotted):
        #: owned downstream VCs per outport — lets switch allocation skip
        #: outports with no claimant instead of scanning every VC
        self._owned_out = [0] * NUM_PORTS
        #: buffered flits per input port — lets route-compute/VA skip
        #: ports with nothing buffered instead of scanning their VCs
        self._port_buffered = [0] * NUM_PORTS
        #: busy input VCs per VC index: ``_busy_by_vc[i]`` counts the
        #: input ports whose VC ``i`` is ``busy`` (FIFO non-empty or an
        #: output VC held).  Kept exact at every FIFO push/pop and tail
        #: release, so utilisation sampling and the drain checks are
        #: O(VCs) instead of O(ports x VCs)
        self._busy_by_vc = [0] * self.total_vcs
        #: reusable crossbar-input-usage scratch for ``_sa_st``
        self._used_in_scratch = [False] * NUM_PORTS
        #: (port, link) lists for ``deliver``, built on first use
        self._deliver_lists = None
        #: deterministic X-Y route memo indexed by destination node
        #: (destinations are dense ints, so a list beats a dict)
        self._xy_cache: List[Optional[int]] = [None] * mesh.num_nodes

    # ------------------------------------------------------------------
    # wiring helpers (used by the network builder)
    # ------------------------------------------------------------------
    def connect_input(self, inport: int, link: FlitLink,
                      credit_back: Optional[CreditLink]) -> None:
        self.in_links[inport] = link
        self.credit_out[inport] = credit_back

    def connect_output(self, outport: int, link: FlitLink,
                       credit_from: Optional[CreditLink],
                       downstream: Optional[object],
                       downstream_depth: int,
                       downstream_config_depth: int) -> None:
        self.out_links[outport] = link
        self.credit_in[outport] = credit_from
        self.downstream[outport] = downstream
        if outport == LOCAL:
            self.credits[outport] = [EJECT_CREDITS] * self.total_vcs
        else:
            self.credits[outport] = (
                [downstream_depth] * self.rcfg.num_vcs
                + [downstream_config_depth]
            )

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    def deliver(self, cycle: int) -> None:
        """Drain credit returns and stage arriving flits."""
        lists = self._deliver_lists
        if lists is None:
            lists = self._deliver_lists = (
                [(p, cl) for p, cl in enumerate(self.credit_in)
                 if cl is not None],
                [(p, fl) for p, fl in enumerate(self.in_links)
                 if fl is not None],
            )
        # pipe pops are inlined (no per-link list allocation); the
        # differential-equivalence harness guards the delivery timing
        # the removed per-flit assert used to check
        for outport, clink in lists[0]:
            pipe = clink._pipe
            if pipe:
                credits = self.credits[outport]
                while pipe and pipe[0][0] <= cycle:
                    credits[pipe.popleft()[1]] += 1
        for inport, flink in lists[1]:
            pipe = flink._pipe
            if pipe:
                staged = self._arrivals[inport]
                while pipe and pipe[0][0] <= cycle:
                    staged.append(pipe.popleft()[1])

    def sim_idle(self, cycle: int) -> bool:
        """No buffered or staged flits, nothing on any incoming link or
        credit pipe, and no always-on controller attached.

        Gating routers never sleep: ``_sample_utilisation`` integrates
        VC occupancy (and the controller epochs) every single cycle.
        """
        if self._buffered_flits or self.gating is not None \
                or cycle < self.stalled_until:
            return False
        for staged in self._arrivals:
            if staged:
                return False
        for flink in self.in_links:
            if flink is not None and flink._pipe:
                return False
        for clink in self.credit_in:
            if clink is not None and clink._pipe:
                return False
        return True

    # ------------------------------------------------------------------
    # batch-engine fast-forward protocol (see repro.sim.batch)
    # ------------------------------------------------------------------
    def sim_quiescent(self, cycle: int) -> bool:
        """True when every phase of this router is either a no-op or
        closed-form over a skipped stretch of cycles.

        For a router without gating this is exactly :meth:`sim_idle`.
        A gating router never satisfies ``sim_idle`` (its per-cycle
        utilisation sampling and the controller's epoch clock are
        always-on), so the idle predicate is evaluated with the gating
        clause masked, plus the conditions that make the always-on
        duties closed-form: every VC empty and every downstream VC
        unowned, so ``_sample_utilisation`` would add exactly ``0.0``
        each skipped cycle.
        """
        g = self.gating
        if g is None:
            return self.sim_idle(cycle)
        self.gating = None
        try:
            idle = self.sim_idle(cycle)
        finally:
            self.gating = g
        if not idle or any(self._busy_by_vc):
            return False
        for owners in self.out_vc_owner:
            for owner in owners:
                if owner is not None:
                    return False
        return True

    def sim_skip_quiet(self, k: int) -> None:
        """Apply *k* skipped quiescent cycles of always-on bookkeeping
        in O(1).  ``_sample_utilisation`` over an empty router adds
        ``busy/total == 0.0`` to the busy integral each cycle — a
        bit-exact no-op, since the accumulator is never ``-0.0`` — and
        increments the sample count; the controller's per-cycle drain
        check and pre-epoch ticks touch nothing (the batch engine never
        skips across an epoch boundary or an in-progress drain)."""
        self._busy_samples += k

    def transfer(self, cycle: int) -> None:
        if cycle < self.stalled_until:
            return
        self._process_arrivals(cycle)
        if self._buffered_flits:
            self._route_and_va(cycle)
            self._sa_st(cycle)
        if self.gating is not None:
            self._sample_utilisation()

    def control(self, cycle: int) -> None:
        if self.gating is not None:
            self.gating.tick(cycle)

    # ------------------------------------------------------------------
    # arrival handling
    # ------------------------------------------------------------------
    def _process_arrivals(self, cycle: int) -> None:
        for inport in range(NUM_PORTS):
            staged = self._arrivals[inport]
            if not staged:
                continue
            for flit in staged:
                self._demux_arrival(inport, flit, cycle)
            staged.clear()

    def _demux_arrival(self, inport: int, flit: Flit, cycle: int) -> None:
        """Hook: the hybrid router diverts circuit-switched flits here."""
        self._buffer_write(inport, flit, cycle)

    def _buffer_write(self, inport: int, flit: Flit, cycle: int) -> None:
        if flit.packet.dropped:
            # trailing flit of a packet already killed by a fault: the
            # buffer slot was never really claimed, return the credit
            self.ledger.drop("packet_killed")
            self.counters.inc("flit_discarded")
            self._return_credit(inport, flit.vc, cycle)
            return
        vcobj = self.in_ports[inport].vcs[flit.vc]
        if not vcobj.fifo and vcobj.out_vc is None:
            self._busy_by_vc[flit.vc] += 1
        vcobj.push(flit)
        flit.ready_cycle = cycle + self.rcfg.ps_pipeline_latency
        self._buffered_flits += 1
        self._port_buffered[inport] += 1
        counts = self.counters._counts
        counts["buffer_write"] = counts.get("buffer_write", 0) + 1

    # ------------------------------------------------------------------
    # route compute + VC allocation
    # ------------------------------------------------------------------
    def _route_and_va(self, cycle: int) -> None:
        in_ports = self.in_ports
        port_buffered = self._port_buffered
        head_kind = FlitKind.HEAD
        head_tail_kind = FlitKind.HEAD_TAIL
        for inport in range(NUM_PORTS):
            if not port_buffered[inport]:
                continue
            for invc, vcobj in enumerate(in_ports[inport].vcs):
                fifo = vcobj.fifo
                if vcobj.out_vc is not None or not fifo:
                    continue
                head = fifo[0]
                kind = head.kind
                if ((kind is not head_kind and kind is not head_tail_kind)
                        or cycle < head.ready_cycle):
                    continue
                if vcobj.route_outport is None:
                    out = self._compute_route(inport, head, cycle)
                    if out is None:
                        # packet consumed here (config processing) or
                        # killed by a fault (dead-link drop)
                        vcobj.pop()
                        if not fifo:
                            self._busy_by_vc[invc] -= 1
                        self._buffered_flits -= 1
                        port_buffered[inport] -= 1
                        self._return_credit(inport, invc, cycle)
                        if head.packet.dropped:
                            self.ledger.drop("packet_killed")
                            self._drain_dropped(vcobj, head.packet,
                                                inport, invc, cycle)
                        else:
                            self.ledger.consumed += 1
                        continue
                    vcobj.route_outport = out
                    if self.obs.enabled:
                        self.obs.flit_route(cycle, self._obs_track,
                                            head.packet.id, out)
                ovc = self._allocate_out_vc(vcobj.route_outport, invc)
                if ovc is not None:
                    vcobj.out_vc = ovc
                    self.out_vc_owner[vcobj.route_outport][ovc] = (inport, invc)
                    self._owned_out[vcobj.route_outport] += 1
                    self.counters.inc("vc_arb")

    def _compute_route(self, inport: int, head: Flit,
                       cycle: int) -> Optional[int]:
        """Choose the output port for *head*'s packet at this router.

        Returns None when the packet is consumed here (configuration
        messages in the hybrid router override) or killed by a fault
        (``head.packet.dropped`` is then set).
        """
        pkt = head.packet
        if pkt.mclass == MessageClass.CONFIG:
            return self._route_adaptive(pkt, inport)
        lh = self.link_health
        if lh is not None and lh.any_faults:
            return self._route_fault_aware(inport, pkt)
        # X-Y routing is a pure function of (this node, destination):
        # memoise it instead of re-deriving coordinates per packet
        out = self._xy_cache[pkt.dst]
        if out is None:
            out = self._xy_cache[pkt.dst] = xy_outport(
                self.mesh, self.node, pkt.dst)
        return out

    def _route_adaptive(self, pkt, inport: int = LOCAL) -> Optional[int]:
        """Minimal adaptive (odd-even) selection by downstream credit;
        consults the link-health map when faults are injected."""
        lh = self.link_health
        if lh is not None and lh.any_faults:
            return self._route_fault_aware(inport, pkt)
        cands = oe_candidate_outports(self.mesh, self.node, pkt.src, pkt.dst)
        return self._best_by_credit(cands)

    def _route_fault_aware(self, inport: int, pkt) -> Optional[int]:
        """Minimal-adaptive routing around dead links, with a bounded
        non-minimal escape; undeliverable packets are dropped with cause."""
        cands = fault_aware_outports(self.mesh, self.link_health,
                                     self.node, pkt.src, pkt.dst,
                                     arrival_port=inport)
        if not cands:
            pkt.dropped = True
            self.counters.inc("pkt_dropped_unreachable")
            return None
        out = self._best_by_credit(cands)
        minimal = oe_candidate_outports(self.mesh, self.node, pkt.src,
                                        pkt.dst)
        if out not in minimal:
            pkt.misroutes += 1
            if pkt.misroutes > MISROUTE_LIMIT:
                pkt.dropped = True
                self.counters.inc("pkt_dropped_misroute_limit")
                return None
            self.counters.inc("misroute")
        return out

    def _link_up(self, outport: int) -> bool:
        """True when the output link is healthy (or no faults exist)."""
        return (outport == LOCAL or self.link_health is None
                or self.link_health.up(self.node, outport))

    def _best_by_credit(self, cands: List[int]) -> int:
        if len(cands) == 1:
            return cands[0]
        best, best_free = cands[0], -1
        for out in cands:
            free = sum(self.credits[out])
            if free > best_free:
                best, best_free = out, free
        return best

    def _downstream_active_vcs(self, outport: int) -> int:
        if outport == LOCAL:
            return self.rcfg.num_vcs
        ds = self.downstream[outport]
        return ds.active_vcs if ds is not None else self.rcfg.num_vcs

    def _allocate_out_vc(self, outport: int, invc: int) -> Optional[int]:
        """Hook: the downstream VC input VC *invc* may claim at *outport*
        (the config escape VC maps to itself; the SDM router restricts
        data VCs to their plane)."""
        owners = self.out_vc_owner[outport]
        ovc = self.config_vc
        if invc == ovc:
            return ovc if owners[ovc] is None else None
        limit = self._downstream_active_vcs(outport)
        for ovc in range(limit):
            if owners[ovc] is None:
                return ovc
        return None

    # ------------------------------------------------------------------
    # switch allocation + traversal
    # ------------------------------------------------------------------
    def _out_blocked_for_ps(self, outport: int, cycle: int) -> bool:
        """Hook: hybrid router blocks outputs claimed by circuit flits."""
        return False

    def _sa_st(self, cycle: int) -> None:
        owned = self._owned_out
        used_in = None
        for outport in range(NUM_PORTS):
            # no allocated output VC -> _sa_pick cannot find a candidate;
            # skipping it (and the side-effect-free block check) early is
            # behaviour-identical and avoids the per-VC owner scan
            if not owned[outport] or self.out_links[outport] is None:
                continue
            if self._out_blocked_for_ps(outport, cycle):
                continue
            if used_in is None:
                used_in = self._cs_used_inports(cycle)
            winner = self._sa_pick(outport, used_in, cycle)
            if winner is None:
                continue
            inport, invc, ovc = winner
            used_in[inport] = True
            self._traverse(outport, inport, invc, ovc, cycle)

    def _cs_used_inports(self, cycle: int) -> List[bool]:
        """Hook: input ports whose crossbar input a circuit-switched flit
        consumed this cycle (the hybrid router overrides this).

        Returns a per-call-reusable scratch list owned by this router —
        callers may mutate it but must not keep it across cycles.
        """
        scratch = self._used_in_scratch
        for i in range(NUM_PORTS):
            scratch[i] = False
        return scratch

    def _sa_pick(self, outport: int, used_in: List[bool],
                 cycle: int) -> Optional[Tuple[int, int, int]]:
        # single-pass round-robin arbitration: every (inport, invc) pair
        # owns at most one output VC, so the rotated-distance minimum is
        # unique and can be tracked inline (no candidate list, no sort)
        owners = self.out_vc_owner[outport]
        credits = self.credits[outport]
        in_ports = self.in_ports
        total_vcs = self.total_vcs
        ptr = self._sa_ptr[outport]
        mod = NUM_PORTS * total_vcs
        winner: Optional[Tuple[int, int, int]] = None
        winner_key = mod
        n_candidates = 0
        for ovc in range(total_vcs):
            owner = owners[ovc]
            if owner is None or credits[ovc] <= 0:
                continue
            inport, invc = owner
            if used_in[inport]:
                continue
            flit = in_ports[inport].vcs[invc].front()
            if flit is None or cycle < flit.ready_cycle:
                continue
            n_candidates += 1
            key = (inport * total_vcs + invc - ptr) % mod
            if key < winner_key:
                winner_key = key
                winner = (inport, invc, ovc)
        if winner is None:
            return None
        self.counters.inc("sw_arb")
        if n_candidates > 1:
            # the pointer only advances on a real multi-way arbitration
            # (it is snapshot state: single-candidate picks must leave
            # it untouched, exactly as the list-based code did)
            self._sa_ptr[outport] = winner[0] * total_vcs + winner[1] + 1
        return winner

    def _traverse(self, outport: int, inport: int, invc: int, ovc: int,
                  cycle: int) -> None:
        vcobj = self.in_ports[inport].vcs[invc]
        flit = vcobj.pop()
        self._buffered_flits -= 1
        self._port_buffered[inport] -= 1
        counts = self.counters._counts
        counts["buffer_read"] = counts.get("buffer_read", 0) + 1
        counts["xbar"] = counts.get("xbar", 0) + 1
        if self.gating is not None:
            # in-router residency beyond the pipeline minimum: the
            # queue-delay gating metric (Section V-B4 variant)
            wait = cycle - flit.ready_cycle
            self._qdelay_accum += max(0, wait)
            self._qdelay_samples += 1
        clink = self.credit_out[inport]
        if clink is not None:
            clink.send(invc, cycle)
        flit.vc = ovc
        if outport != LOCAL:
            self.credits[outport][ovc] -= 1
            counts["link"] = counts.get("link", 0) + 1
        flit.packet.hops_taken += 1
        if flit.is_tail:
            self.out_vc_owner[outport][ovc] = None
            self._owned_out[outport] -= 1
            vcobj.clear_route()
            if not vcobj.fifo:
                self._busy_by_vc[invc] -= 1
        self.out_links[outport].send(flit, cycle)

    def _return_credit(self, inport: int, invc: int, cycle: int) -> None:
        clink = self.credit_out[inport]
        if clink is not None:
            clink.send(invc, cycle)

    def _drain_dropped(self, vcobj, pkt, inport: int, invc: int,
                       cycle: int) -> None:
        """Flush already-buffered flits of a fault-killed packet so the
        VC does not wedge behind a headless wormhole."""
        while vcobj.fifo and vcobj.fifo[0].packet is pkt:
            vcobj.pop()
            if not vcobj.fifo:
                # the VC never held an output (its head was consumed
                # at route compute), so an empty FIFO means not busy
                self._busy_by_vc[invc] -= 1
            self._buffered_flits -= 1
            self._port_buffered[inport] -= 1
            self.ledger.drop("packet_killed")
            self.counters.inc("flit_discarded")
            self._return_credit(inport, invc, cycle)

    # ------------------------------------------------------------------
    # VC power gating support (controller lives in repro.core.vc_gating)
    # ------------------------------------------------------------------
    def _sample_utilisation(self) -> None:
        """Add the busy fraction of the active data VCs to the epoch
        integral.  An idle sample adds nothing: ``+= 0.0`` is the
        identity on the (never ``-0.0``) accumulator."""
        active = self.active_vcs
        busy = sum(self._busy_by_vc[:active])
        if busy:
            self._busy_accum += busy / (NUM_PORTS * active)
        self._busy_samples += 1

    def pop_utilisation(self) -> float:
        """Mean busy fraction since the last call (gating epoch metric)."""
        util = self._busy_accum / self._busy_samples if self._busy_samples else 0.0
        self._busy_accum = 0.0
        self._busy_samples = 0
        return util

    def pop_queue_delay(self) -> float:
        """Mean per-flit queueing delay since the last call (cycles)."""
        delay = self._qdelay_accum / self._qdelay_samples \
            if self._qdelay_samples else 0.0
        self._qdelay_accum = 0.0
        self._qdelay_samples = 0
        return delay

    def vc_drainable(self, index: int) -> bool:
        """True when data VC *index* is empty and unowned on every port,
        and no downstream VC *index* of ours is still held by anyone."""
        if self._busy_by_vc[index]:
            return False
        for outport in range(NUM_PORTS):
            if self.out_vc_owner[outport][index] is not None:
                return False
        return True

    def set_powered_vcs(self, n: int, cycle: int) -> None:
        self.powered_vcs = n
        self.vc_power_integral.set(n, cycle)

    # ------------------------------------------------------------------
    # snapshot protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Mutable router state; wiring (links, downstream refs, shared
        ledger/rng/link-health) is rebuilt by the network constructor."""
        return {
            "in_ports": [p.state_dict() for p in self.in_ports],
            "arrivals": [list(a) for a in self._arrivals],
            "credits": [list(row) for row in self.credits],
            "out_vc_owner": [list(row) for row in self.out_vc_owner],
            "active_vcs": self.active_vcs,
            "powered_vcs": self.powered_vcs,
            "vc_power_integral": self.vc_power_integral,
            "sa_ptr": list(self._sa_ptr),
            "counters": self.counters,
            "busy": (self._busy_accum, self._busy_samples,
                     self._qdelay_accum, self._qdelay_samples),
            "buffered_flits": self._buffered_flits,
            "stalled_until": self.stalled_until,
            "gating": None if self.gating is None else self.gating.state_dict(),
            # every CreditLink is some router's credit_out (the side that
            # sends credits), so in-flight credits are captured exactly once
            "credit_pipes": [None if cl is None else cl.state_dict()
                             for cl in self.credit_out],
        }

    def load_state_dict(self, state: dict) -> None:
        for port, sub in zip(self.in_ports, state["in_ports"], strict=True):
            port.load_state_dict(sub)
        self._arrivals = [list(a) for a in state["arrivals"]]
        self.credits = [list(row) for row in state["credits"]]
        self.out_vc_owner = [list(row) for row in state["out_vc_owner"]]
        self._owned_out = [sum(1 for o in row if o is not None)
                           for row in self.out_vc_owner]
        self._port_buffered = [p.occupancy() for p in self.in_ports]
        self._busy_by_vc = [sum(1 for p in self.in_ports if p.vcs[i].busy)
                            for i in range(self.total_vcs)]
        self.active_vcs = state["active_vcs"]
        self.powered_vcs = state["powered_vcs"]
        self.vc_power_integral = state["vc_power_integral"]
        self._sa_ptr = list(state["sa_ptr"])
        self.counters = state["counters"]
        (self._busy_accum, self._busy_samples,
         self._qdelay_accum, self._qdelay_samples) = state["busy"]
        self._buffered_flits = state["buffered_flits"]
        self.stalled_until = state["stalled_until"]
        if self.gating is not None and state["gating"] is not None:
            self.gating.load_state_dict(state["gating"])
        for cl, sub in zip(self.credit_out, state["credit_pipes"],
                           strict=True):
            if cl is not None and sub is not None:
                cl.load_state_dict(sub)

    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        """Total buffered flits (used by drain checks and tests).

        Includes arrivals staged during ``deliver`` that a stalled
        router has not yet buffer-written, so the conservation audit
        stays exact across fault-injected router stalls.
        """
        n = sum(p.occupancy() for p in self.in_ports)
        for staged in self._arrivals:
            n += len(staged)
        return n
