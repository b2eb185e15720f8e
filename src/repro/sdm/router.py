"""SDM hybrid router: plane-sliced datapath (S12).

The router keeps ``planes * num_vcs`` data VCs per input port (VC index
``plane * num_vcs + i``) plus the config escape VC.  Each plane owns a
slice of every link and of the crossbar, so switch allocation grants up
to one flit per (output port, plane) pair per cycle, with the input-side
constraint applied per (input port, plane).

Circuit state per router:

* ``cs_route[inport][plane]``   -> reserved output port (or -1)
* ``plane_owner[outport][plane]`` -> owning connection id (or -1)

Setup messages carry the chosen plane in their payload ``slot_id`` field
(plane continuity: the same plane must be free on every hop, which is
what fundamentally limits the number of simultaneous circuits — the
paper's argument for TDM).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.config import CACHE_LINE_BYTES, NetworkConfig
from repro.network.buffers import InputPort
from repro.network.flit import ConfigType, Flit, FlitKind, MessageClass
from repro.network.router import EJECT_CREDITS, PacketRouter
from repro.network.routing import xy_outport
from repro.network.topology import LOCAL, Mesh, NUM_PORTS


def sdm_packet_size(cfg: NetworkConfig, kind: str) -> int:
    """Packet sizes in *narrow* (plane-width) flits."""
    plane_w = cfg.router.channel_width_bytes // cfg.sdm.planes
    if plane_w < 1:
        raise ValueError("more planes than channel bytes")
    d = -(-CACHE_LINE_BYTES // plane_w)
    sizes = {"config": 1, "ctrl": 1, "cs_data": d, "ps_data": d + 1}
    try:
        return sizes[kind]
    except KeyError:
        raise ValueError(f"unknown packet kind {kind!r}") from None


class SDMRouter(PacketRouter):
    """Plane-partitioned hybrid router.

    Overrides only what the planes change: plane-restricted
    :meth:`_allocate_out_vc`, the plane-parallel :meth:`_sa_st` (which
    owns the packet traversal) and the circuit datapath with its
    dirty-flag crossbar reset.  Route compute, VC allocation scanning,
    buffer writes and delivery are the packet router's.
    """

    def __init__(self, node: int, cfg: NetworkConfig, mesh: Mesh) -> None:
        self.planes = cfg.sdm.planes
        super().__init__(node, cfg, mesh)
        v = cfg.router.num_vcs
        # rebuild the input ports with planes*num_vcs data VCs + config VC
        self.total_vcs = self.planes * v + 1
        self.config_vc = self.planes * v
        self.in_ports = [
            _PlanedInputPort(self.planes, v, cfg.router.vc_depth,
                             cfg.router.config_vc_depth)
            for _ in range(NUM_PORTS)
        ]
        self.credits = [[0] * self.total_vcs for _ in range(NUM_PORTS)]
        self.out_vc_owner = [[None] * self.total_vcs for _ in range(NUM_PORTS)]
        self._sa_ptr = [0] * (NUM_PORTS * self.planes)
        self._busy_by_vc = [0] * self.total_vcs

        # circuit state
        self.cs_route: List[List[int]] = [
            [-1] * self.planes for _ in range(NUM_PORTS)]
        self.plane_owner: List[List[int]] = [
            [-1] * self.planes for _ in range(NUM_PORTS)]
        self._cs_in_used: List[List[bool]] = [
            [False] * self.planes for _ in range(NUM_PORTS)]
        self._cs_out_used: List[List[bool]] = [
            [False] * self.planes for _ in range(NUM_PORTS)]
        #: True while any plane-usage flag is set — lets transfer skip
        #: the reset on circuit-free cycles (derived from the flag rows,
        #: recomputed on restore, never snapshot state)
        self._cs_flags_dirty = False
        self._no_planes_used = [False] * self.planes
        #: reusable per-(inport, plane) crossbar-input scratch for _sa_st
        self._used_in_scratch = [[False] * self.planes
                                 for _ in range(NUM_PORTS)]
        self._cs_inject: Dict[int, List] = {}
        self.on_setup_rejected: Optional[Callable] = None

    # ------------------------------------------------------------------
    def connect_output(self, outport, link, credit_from, downstream,
                       downstream_depth, downstream_config_depth):
        super().connect_output(outport, link, credit_from, downstream,
                               downstream_depth, downstream_config_depth)
        if outport == LOCAL:
            self.credits[outport] = [EJECT_CREDITS] * self.total_vcs
        else:
            self.credits[outport] = (
                [downstream_depth] * (self.planes * self.rcfg.num_vcs)
                + [downstream_config_depth])

    def plane_of_vc(self, vc: int) -> int:
        return vc // self.rcfg.num_vcs

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    def transfer(self, cycle: int) -> None:
        cs_in = self._cs_in_used
        cs_out = self._cs_out_used
        if self._cs_flags_dirty:
            clear = self._no_planes_used
            for i in range(NUM_PORTS):
                cs_in[i][:] = clear
                cs_out[i][:] = clear
            self._cs_flags_dirty = False
        # arrival demux: a circuit flit on a reserved plane goes straight
        # to the output link pipe (a fused copy of _cs_traverse); orphans
        # and packet-switched flits take the method paths
        arrivals = self._arrivals
        for inport in range(NUM_PORTS):
            staged = arrivals[inport]
            if not staged:
                continue
            for flit in staged:
                if not flit.is_circuit:
                    self._buffer_write(inport, flit, cycle)
                    continue
                plane = flit.packet.plane
                outport = self.cs_route[inport][plane]
                if outport < 0:
                    self._cs_orphan(inport, plane, flit, cycle)
                    continue
                cs_in[inport][plane] = True
                cs_out[outport][plane] = True
                self._cs_flags_dirty = True
                counts = self.counters._counts
                counts["cs_xbar"] = counts.get("cs_xbar", 0) + 1
                counts["cs_latch"] = counts.get("cs_latch", 0) + 1
                if outport != LOCAL:
                    counts["link_narrow"] = counts.get("link_narrow", 0) + 1
                flit.packet.hops_taken += 1
                ol = self.out_links[outport]
                if ol.faulty:
                    ol.send(flit, cycle)    # slow path keeps drop accounting
                else:
                    ol._pipe.append((cycle + ol.latency, flit))
                    ol.flits_carried += 1
                    ws = ol.wake_sink
                    if ws is not None and not ws._sim_awake:
                        ws.sim_wake()
            staged.clear()
        if self._cs_inject:
            self._process_cs_injections(cycle)
        if self._buffered_flits:
            self._route_and_va(cycle)
            self._sa_st(cycle)

    def sim_idle(self, cycle: int) -> bool:
        """Idle iff the packet pipeline is idle and no circuit activity is
        pending.  The plane-usage flags are reset at the *start* of the
        next :meth:`transfer`, so a router that carried circuit traffic
        this cycle stays awake one extra cycle to run that reset."""
        if self._cs_inject or self._cs_flags_dirty:
            return False
        return PacketRouter.sim_idle(self, cycle)

    # ------------------------------------------------------------------
    # circuit datapath
    # ------------------------------------------------------------------
    def _cs_orphan(self, inport: int, plane: int, flit: Flit,
                   cycle: int) -> None:
        """The circuit flit's plane reservation vanished (teardown race):
        eject it here for hop-off through the packet-switched network."""
        self.counters.inc("cs_orphan")
        if self.obs.enabled:
            self.obs.cs_orphan(cycle, self._obs_track,
                               flit.packet.id, "orphan")
        flit.is_circuit = False
        flit.packet.circuit = False
        self._cs_traverse(inport, LOCAL, plane, flit, cycle, orphan=True)

    def _cs_traverse(self, inport: int, outport: int, plane: int,
                     flit: Flit, cycle: int, orphan: bool = False) -> None:
        self._cs_in_used[inport][plane] = True
        if not orphan:
            self._cs_out_used[outport][plane] = True
        self._cs_flags_dirty = True
        counts = self.counters._counts
        counts["cs_xbar"] = counts.get("cs_xbar", 0) + 1
        counts["cs_latch"] = counts.get("cs_latch", 0) + 1
        if outport != LOCAL:
            counts["link_narrow"] = counts.get("link_narrow", 0) + 1
        flit.packet.hops_taken += 1
        self.out_links[outport].send(flit, cycle)

    def schedule_cs_injection(self, cycle: int, flit: Flit, on_ok: Callable,
                              on_fail: Callable, token: dict) -> None:
        self._cs_inject.setdefault(cycle, []).append(
            (flit, on_ok, on_fail, token))
        self.sim_wake()

    def _process_cs_injections(self, cycle: int) -> None:
        injections = self._cs_inject.pop(cycle, None)
        if not injections:
            return
        for flit, on_ok, on_fail, token in injections:
            if token.get("cancelled"):
                continue
            plane = flit.packet.plane
            outport = self.cs_route[LOCAL][plane]
            if outport < 0 or self._cs_in_used[LOCAL][plane] \
                    or self._cs_out_used[outport][plane]:
                on_fail(flit)
                continue
            self._cs_traverse(LOCAL, outport, plane, flit, cycle)
            on_ok(flit)

    # ------------------------------------------------------------------
    # snapshot protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Packet-router state plus plane reservations and the pending
        circuit-injection schedule (callbacks excluded, rebuilt via
        :meth:`rebind_cs_injections` — see the TDM router)."""
        state = super().state_dict()
        state.update({
            "cs_route": [list(row) for row in self.cs_route],
            "plane_owner": [list(row) for row in self.plane_owner],
            "cs_in_used": [list(row) for row in self._cs_in_used],
            "cs_out_used": [list(row) for row in self._cs_out_used],
            "cs_inject": {
                cycle: [(flit, token) for flit, _ok, _fail, token in lst]
                for cycle, lst in self._cs_inject.items()},
        })
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.cs_route = [list(row) for row in state["cs_route"]]
        self.plane_owner = [list(row) for row in state["plane_owner"]]
        self._cs_in_used = [list(row) for row in state["cs_in_used"]]
        self._cs_out_used = [list(row) for row in state["cs_out_used"]]
        self._cs_flags_dirty = any(
            True in row for row in self._cs_in_used + self._cs_out_used)
        self._cs_inject_raw = state["cs_inject"]
        self._cs_inject = {}

    def rebind_cs_injections(self, ni) -> None:
        raw = getattr(self, "_cs_inject_raw", None)
        if raw is None:
            return
        del self._cs_inject_raw
        self._cs_inject = {
            cycle: [(flit, *ni.make_cs_callbacks(token), token)
                    for flit, token in entries]
            for cycle, entries in raw.items()}

    # ------------------------------------------------------------------
    # plane-aware VC allocation
    # ------------------------------------------------------------------
    def _allocate_out_vc(self, outport: int, invc: int) -> Optional[int]:
        """A data packet keeps its input VC's plane on every hop."""
        owners = self.out_vc_owner[outport]
        ovc = self.config_vc
        if invc == ovc:
            return ovc if owners[ovc] is None else None
        v = self.rcfg.num_vcs
        base = invc - invc % v
        for ovc in range(base, base + v):
            if owners[ovc] is None:
                return ovc
        return None

    # ------------------------------------------------------------------
    # plane-parallel switch allocation + traversal
    # ------------------------------------------------------------------
    def _sa_st(self, cycle: int) -> None:
        """Per outport, one grant on the config escape slice (first) and
        one per plane the circuits left idle this cycle; the input-side
        constraint is per (inport, plane).  Plane arbitration is a
        single-pass round-robin (every (inport, invc) owns at most one
        output VC, so the rotated-distance minimum is unique); the
        pointer advances only on a multi-way grant.  PS stealing of idle
        circuit planes is implicit: a plane is skipped only when a
        circuit flit actually used it this cycle."""
        owned = self._owned_out
        out_links = self.out_links
        cs_out = self._cs_out_used
        in_ports = self.in_ports
        planes = self.planes
        v = self.rcfg.num_vcs
        total_vcs = self.total_vcs
        config_vc = self.config_vc
        sa_ptr = self._sa_ptr
        mod = NUM_PORTS * total_vcs
        counts = self.counters._counts
        used_in = None
        for outport in range(NUM_PORTS):
            if not owned[outport] or out_links[outport] is None:
                continue
            if used_in is None:
                used_in = self._used_in_scratch
                cs_in = self._cs_in_used
                for i in range(NUM_PORTS):
                    used_in[i][:] = cs_in[i]
            owners = self.out_vc_owner[outport]
            credits = self.credits[outport]
            out_cs = cs_out[outport]
            for plane in range(-1, planes):
                if plane < 0:
                    # config escape slice: its owner, if ready, wins
                    ovc = config_vc
                    owner = owners[ovc]
                    if owner is None or credits[ovc] <= 0:
                        continue
                    inport, invc = owner
                    vfifo = in_ports[inport].vcs[invc].fifo
                    if not vfifo or cycle < vfifo[0].ready_cycle:
                        continue
                    counts["sw_arb"] = counts.get("sw_arb", 0) + 1
                else:
                    if out_cs[plane]:
                        continue
                    key_idx = outport * planes + plane
                    ptr = sa_ptr[key_idx]
                    winner = None
                    winner_key = mod
                    n_candidates = 0
                    base = plane * v
                    for ovc in range(base, base + v):
                        owner = owners[ovc]
                        if owner is None or credits[ovc] <= 0:
                            continue
                        inport, invc = owner
                        if used_in[inport][plane]:
                            continue
                        vfifo = in_ports[inport].vcs[invc].fifo
                        if not vfifo or cycle < vfifo[0].ready_cycle:
                            continue
                        n_candidates += 1
                        key = (inport * total_vcs + invc - ptr) % mod
                        if key < winner_key:
                            winner_key = key
                            winner = owner
                            winner_ovc = ovc
                    if winner is None:
                        continue
                    counts["sw_arb"] = counts.get("sw_arb", 0) + 1
                    inport, invc = winner
                    ovc = winner_ovc
                    if n_candidates > 1:
                        sa_ptr[key_idx] = inport * total_vcs + invc + 1
                    used_in[inport][plane] = True
                # switch traversal of the granted narrow flit
                vcobj = in_ports[inport].vcs[invc]
                flit = vcobj.fifo.popleft()
                self._buffered_flits -= 1
                self._port_buffered[inport] -= 1
                counts["buffer_read"] = counts.get("buffer_read", 0) + 1
                counts["xbar"] = counts.get("xbar", 0) + 1
                clink = self.credit_out[inport]
                if clink is not None:
                    clink._pipe.append((cycle + clink.latency, invc))
                    ws = clink.wake_sink
                    if ws is not None and not ws._sim_awake:
                        ws.sim_wake()
                flit.vc = ovc
                if outport != LOCAL:
                    credits[ovc] -= 1
                    counts["link_narrow"] = counts.get("link_narrow", 0) + 1
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

    # ------------------------------------------------------------------
    # configuration processing: plane reservation
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
            return self._process_teardown(inport, payload, cycle)
        return self._route_adaptive(pkt)

    def _process_setup(self, inport: int, pkt, payload,
                       cycle: int) -> Optional[int]:
        plane = payload.slot_id  # plane index rides the slot_id field
        if pkt.dst == self.node:
            outport = LOCAL
        else:
            outport = self._xy_cache[pkt.dst]
            if outport is None:
                outport = self._xy_cache[pkt.dst] = xy_outport(
                    self.mesh, self.node, pkt.dst)
        free = (self.cs_route[inport][plane] < 0
                and self.plane_owner[outport][plane] < 0)
        if free:
            self.cs_route[inport][plane] = outport
            self.plane_owner[outport][plane] = payload.conn_id
            self.counters.inc("plane_reserved")
            if self.obs.enabled:
                self.obs.cs_setup(cycle, self._obs_track,
                                  payload.conn_id, "reserve",
                                  plane=plane, outport=outport)
            return outport
        self.counters.inc("setup_rejected")
        if self.obs.enabled:
            self.obs.cs_setup(cycle, self._obs_track,
                              payload.conn_id, "reject")
        if self.on_setup_rejected is not None:
            self.on_setup_rejected(payload, cycle)
        return None

    def _process_teardown(self, inport: int, payload,
                          cycle: int) -> Optional[int]:
        plane = payload.slot_id
        outport = self.cs_route[inport][plane]
        if outport < 0:
            return None
        if self.plane_owner[outport][plane] != payload.conn_id:
            return None
        self.cs_route[inport][plane] = -1
        self.plane_owner[outport][plane] = -1
        if self.obs.enabled:
            self.obs.cs_teardown(cycle, self._obs_track,
                                 payload.conn_id, "release")
        if outport == LOCAL:
            return None
        return outport


class _PlanedInputPort(InputPort):
    """Input port with planes*num_vcs data VCs plus the config VC."""

    def __init__(self, planes: int, num_vcs: int, vc_depth: int,
                 config_vc_depth: int) -> None:
        super().__init__(planes * num_vcs, vc_depth, config_vc_depth)
