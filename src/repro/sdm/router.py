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
from repro.network.flit import ConfigType, Flit, MessageClass
from repro.network.router import EJECT_CREDITS, PacketRouter
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
    """Plane-partitioned hybrid router."""

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
        self._cs_inject: Dict[int, List] = {}
        self.on_setup_rejected: Optional[Callable] = None
        # transient (rebuilt on restore): per-outport owned-VC counts
        self._owned_out = [0] * NUM_PORTS

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
        for p in range(NUM_PORTS):
            for pl in range(self.planes):
                self._cs_in_used[p][pl] = False
                self._cs_out_used[p][pl] = False
        self._process_arrivals(cycle)
        self._process_cs_injections(cycle)
        if self._buffered_flits:
            self._route_and_va(cycle)
            self._sa_st(cycle)
        if self.gating is not None:
            self._sample_utilisation()

    def sim_idle(self, cycle: int) -> bool:
        """Idle iff the packet pipeline is idle and no circuit activity is
        pending.  The plane-usage flags are reset at the *start* of the
        next :meth:`transfer`, so a router that carried circuit traffic
        this cycle stays awake one extra cycle to run that reset."""
        if self._cs_inject:
            return False
        for row in self._cs_in_used:
            if True in row:
                return False
        for row in self._cs_out_used:
            if True in row:
                return False
        return PacketRouter.sim_idle(self, cycle)

    # ------------------------------------------------------------------
    # circuit datapath
    # ------------------------------------------------------------------
    def _demux_arrival(self, inport: int, flit: Flit, cycle: int) -> None:
        if not flit.is_circuit:
            self._buffer_write(inport, flit, cycle)
            return
        plane = flit.packet.plane
        outport = self.cs_route[inport][plane]
        if outport < 0:
            # reservation vanished (teardown race): eject for hop-off
            self.counters.inc("cs_orphan")
            if self.obs.enabled:
                self.obs.cs_orphan(cycle, self._obs_track,
                                   flit.packet.id, "orphan")
            flit.is_circuit = False
            flit.packet.circuit = False
            self._cs_traverse(inport, LOCAL, plane, flit, cycle, orphan=True)
            return
        self._cs_traverse(inport, outport, plane, flit, cycle)

    def _cs_traverse(self, inport: int, outport: int, plane: int,
                     flit: Flit, cycle: int, orphan: bool = False) -> None:
        self._cs_in_used[inport][plane] = True
        if not orphan:
            self._cs_out_used[outport][plane] = True
        self.counters.inc("cs_xbar")
        self.counters.inc("cs_latch")
        if outport != LOCAL:
            self.counters.inc("link_narrow")
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
    def _allocate_out_vc(self, outport: int, is_config: bool,
                         plane: int = 0) -> Optional[int]:
        owners = self.out_vc_owner[outport]
        if is_config:
            ovc = self.config_vc
            return ovc if owners[ovc] is None else None
        v = self.rcfg.num_vcs
        base = plane * v
        for ovc in range(base, base + v):
            if owners[ovc] is None:
                return ovc
        return None

    def _route_and_va(self, cycle: int) -> None:
        for inport in range(NUM_PORTS):
            port = self.in_ports[inport]
            for invc, vcobj in enumerate(port.vcs):
                if vcobj.out_vc is not None or not vcobj.fifo:
                    continue
                head = vcobj.fifo[0]
                if not head.is_head or cycle < head.ready_cycle:
                    continue
                if vcobj.route_outport is None:
                    out = self._compute_route(inport, head, cycle)
                    if out is None:
                        vcobj.pop()
                        if not vcobj.fifo:
                            self._busy_by_vc[invc] -= 1
                        self._buffered_flits -= 1
                        self._port_buffered[inport] -= 1
                        self._return_credit(inport, invc, cycle)
                        if head.packet.dropped:
                            self.ledger.drop("packet_killed")
                            self._drain_dropped(vcobj, head.packet,
                                                inport, invc, cycle)
                        else:
                            self.ledger.consumed += 1
                        continue
                    vcobj.route_outport = out
                is_config = invc == port.config_vc_index
                plane = 0 if is_config else self.plane_of_vc(invc)
                ovc = self._allocate_out_vc(vcobj.route_outport, is_config,
                                            plane)
                if ovc is not None:
                    vcobj.out_vc = ovc
                    self.out_vc_owner[vcobj.route_outport][ovc] = (inport, invc)
                    self._owned_out[vcobj.route_outport] += 1
                    self.counters.inc("vc_arb")

    # ------------------------------------------------------------------
    # plane-parallel switch allocation
    # ------------------------------------------------------------------
    def _sa_st(self, cycle: int) -> None:
        owned = self._owned_out
        used_in = None
        # config escape slice: one grant per outport per cycle
        for outport in range(NUM_PORTS):
            if not owned[outport] or self.out_links[outport] is None:
                continue
            if used_in is None:
                used_in = [row[:] for row in self._cs_in_used]
            self._sa_config(outport, cycle)
            for plane in range(self.planes):
                if self._cs_out_used[outport][plane]:
                    continue
                winner = self._sa_pick_plane(outport, plane, used_in, cycle)
                if winner is None:
                    continue
                inport, invc, ovc = winner
                used_in[inport][plane] = True
                self._traverse(outport, inport, invc, ovc, cycle)

    def _sa_config(self, outport: int, cycle: int) -> None:
        ovc = self.config_vc
        owner = self.out_vc_owner[outport][ovc]
        if owner is None or self.credits[outport][ovc] <= 0:
            return
        inport, invc = owner
        vcobj = self.in_ports[inport].vcs[invc]
        flit = vcobj.front()
        if flit is None or cycle < flit.ready_cycle:
            return
        self.counters.inc("sw_arb")
        self._traverse(outport, inport, invc, ovc, cycle)

    def _sa_pick_plane(self, outport: int, plane: int, used_in, cycle: int):
        v = self.rcfg.num_vcs
        base = plane * v
        owners = self.out_vc_owner[outport]
        credits = self.credits[outport]
        candidates = []
        for ovc in range(base, base + v):
            owner = owners[ovc]
            if owner is None or credits[ovc] <= 0:
                continue
            inport, invc = owner
            if used_in[inport][plane]:
                continue
            vcobj = self.in_ports[inport].vcs[invc]
            flit = vcobj.front()
            if flit is None or cycle < flit.ready_cycle:
                continue
            candidates.append((inport, invc, ovc))
        if not candidates:
            return None
        self.counters.inc("sw_arb")
        if len(candidates) == 1:
            return candidates[0]
        key_idx = outport * self.planes + plane
        ptr = self._sa_ptr[key_idx]
        n = NUM_PORTS * self.total_vcs
        winner = min(candidates,
                     key=lambda c: (c[0] * self.total_vcs + c[1] - ptr) % n)
        self._sa_ptr[key_idx] = winner[0] * self.total_vcs + winner[1] + 1
        return winner

    def _traverse(self, outport: int, inport: int, invc: int, ovc: int,
                  cycle: int) -> None:
        # narrow-flit link accounting (1/planes of a full-width traversal)
        vcobj = self.in_ports[inport].vcs[invc]
        flit = vcobj.pop()
        self._buffered_flits -= 1
        self._port_buffered[inport] -= 1
        self.counters.inc("buffer_read")
        self.counters.inc("xbar")
        self._return_credit(inport, invc, cycle)
        flit.vc = ovc
        if outport != LOCAL:
            self.credits[outport][ovc] -= 1
            self.counters.inc("link_narrow")
        flit.packet.hops_taken += 1
        if flit.is_tail:
            self.out_vc_owner[outport][ovc] = None
            self._owned_out[outport] -= 1
            vcobj.clear_route()
            if not vcobj.fifo:
                self._busy_by_vc[invc] -= 1
        self.out_links[outport].send(flit, cycle)

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
            from repro.network.routing import xy_outport
            outport = xy_outport(self.mesh, self.node, pkt.dst)
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
            return LOCAL if outport == LOCAL else outport
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

    # ------------------------------------------------------------------
    # PS stealing of idle circuit planes is implicit: `_sa_pick_plane`
    # only skips a plane when a circuit flit actually used it this cycle.
    # ------------------------------------------------------------------

    def _sample_utilisation(self) -> None:  # pragma: no cover - SDM has no
        pass                                # VC gating in the paper's eval


class _PlanedInputPort(InputPort):
    """Input port with planes*num_vcs data VCs plus the config VC."""

    def __init__(self, planes: int, num_vcs: int, vc_depth: int,
                 config_vc_depth: int) -> None:
        super().__init__(planes * num_vcs, vc_depth, config_vc_depth)
