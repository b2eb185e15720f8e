"""Vectorized active-window datapath for the batch engine.

The quiescence fast-forward (``engine.py``) makes *idle* stretches
nearly free, but every loaded cycle still runs the per-flit Python
pipeline.  :class:`VectorStepper` is the complementary fast lane: while
the network is *busy*, it steps whole windows of cycles with the
router datapath resolved as whole-network NumPy array operations over
the ``m_*`` mirror in :class:`~repro.sim.batch.layout.CompiledLayout`.

Bit-exactness contract
----------------------
The stepper must be indistinguishable from the legacy engine at every
cycle boundary — same winner selection, same credit timing, same
counter values (including dict insertion order), same RNG draw order.
It gets there by being *object-authoritative*:

* The objects remain the single source of truth.  Every mutation a
  vectorized phase decides on is applied as the exact scalar effect
  sequence the legacy code would run (same counter keys in the same
  order, same float accumulations, same wake calls); the mirror arrays
  are dual-written — scalar effects eagerly, mirror updates batched
  into one fancy-indexed write per array per phase — and only ever
  used to *find* work, never to hold state the objects don't.  The
  batching is exact because each phase arbitrates off a snapshot taken
  at its start and nothing reads the mirror again until the batch has
  been applied.
* Whole phases that cannot be vectorized exactly run object-side: NI
  ``inject`` and non-router ``control`` execute through the fast
  engine's awake lists, so endpoint RNG draws and manager decisions
  happen in the canonical registration order.
* Router ``control`` below the next gating epoch is a pure early
  return, and windows never cross an epoch boundary or overlap a VC
  drain — so skipping it is exact.

Vectorized per cycle (the PS pipeline of Section II-D):

* *deliver* via an event schedule: every in-flight (pipe, due) pair is
  registered in a dict keyed by due cycle, so delivery is O(arrivals),
  not O(routers).
* *VA*: eligibility (head flit present+ready, no output VC held) is a
  single boolean reduction; the few eligible heads then run the exact
  scalar allocation loop in legacy order (row-major == port-major).
* *SA/ST*: resolved sequentially over the five outports — preserving
  the legacy arbitration order and the crossbar-input constraint
  (``used_in``) — but vectorized over routers: per outport, the
  candidate masks, rotated round-robin keys and argmin winners for
  every router come out of a handful of array ops; winner effects are
  applied scalar in legacy order.

Spill rules (the opportunistic part): a router leaves the vector lane
for any cycle in which something irregular touches it — a circuit
flit or CONFIG packet arrives, a fault-killed packet shows up, a
circuit injection is scheduled, its config VC is busy, or its crossbar
flags are dirty.  Spilled routers run
their ordinary ``transfer`` and are re-derived into the mirror
afterwards.  Whole-window aborts: fault activation (``disable_sleep``)
and slot-table resizes are watched per cycle via the slot clock's
``(generation, active)`` key; epochs bound the window at entry.

Unsupported configurations (SDM routers, overridden NI pumps, tracing,
live faults, unknown control-phase objects) are detected at compile or
entry time and simply keep the stepper disabled — the batch engine
then behaves exactly as before this optimisation.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Dict, List, Optional, Set

import numpy as np

from repro.network.flit import FlitKind, MessageClass
from repro.network.interface import NetworkInterface
from repro.network.router import PacketRouter
from repro.network.routing import xy_outport
from repro.network.topology import LOCAL, NUM_PORTS
from repro.obs.trace import NULL_RECORDER
from repro.sim.batch.layout import NO_HEAD

_EMPTY_SET: frozenset = frozenset()


class VectorStepper:
    """Opportunistic vectorized window executor (see module doc)."""

    #: cycles between entry probes after a decline (amortises the
    #: O(routers) busy scan)
    PROBE_INTERVAL = 16
    #: minimum cycles to the window horizon worth paying entry cost for
    MIN_WINDOW = 16
    #: consecutive router-side-idle cycles before handing control back
    #: to the engine (whose quiescence fast-forward takes over)
    EXIT_IDLE_STREAK = 8
    #: probe back-off after an idle exit (avoids enter/exit thrash at
    #: the tail of a drained burst)
    EXIT_COOLDOWN = 32

    def __init__(self, engine, sim) -> None:
        self.engine = engine
        self.sim = sim
        self._net = None
        self._layout = None
        self._ok = False
        self.unsupported_reason: Optional[str] = "uncompiled"
        self._routers: List[PacketRouter] = []
        self._router_index: Dict[int, int] = {}
        self._interfaces: List[NetworkInterface] = []
        self._g_routers: List = []          # [(ri, router)] with gating
        self._hybrid = False
        self._clock = None
        self._stealing = False
        self._min_hot = 1
        self._g_enter = False
        self._cooldown = 0
        # static compiled arrays ------------------------------------------
        self._ones = None       # (R,) all-True row mask template
        self._rb3 = None        # (R,1,1) flat row base: ri * P * V
        # per-window state ------------------------------------------------
        self._cycle = 0
        self._wend = 0
        self._gen_key = None
        self._sched: Dict[int, list] = {}
        self._irr: Set[int] = set()
        self._in_entry: List[list] = []
        self._cin_entry: List[list] = []
        self._out_entry: List[list] = []
        self._credit_entry: List[list] = []
        self._ni_entry: Dict[int, tuple] = {}
        self._probe_pipes: tuple = ()
        self._w_inject: List = []
        self._w_control: List = []
        self._w_sleepables: List = []
        self._g_vmask = None            # (R,P,V) bool, False off gating rows
        self._g_totals: List[int] = []  # per-ri sample denominator
        self._g_deficit: Dict[int, int] = {}
        # flat views over the mirror arrays (set at window entry)
        self._f_hr = self._f_hk = self._f_free = None
        self._f_oip = self._f_oiv = self._f_cred = self._f_sap = None
        #: introspection counters (phase breakdown + tests)
        self.windows = 0
        self.window_declines = 0
        self.vector_cycles = 0
        self.spill_router_cycles = 0
        self.t_window = 0.0
        self.t_spill = 0.0

    @property
    def supported(self) -> bool:
        """Whether the vector lane compiled for this network (False
        also when disabled or below the profitability size gate)."""
        return self._ok

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def compile(self, net, layout) -> None:
        """Classify the network/simulator; sets :attr:`unsupported_reason`
        (None when the vector lane is available)."""
        self._ok = False
        self._net = net
        self._layout = layout
        mode = os.environ.get("REPRO_BATCH_VECTOR", "auto")
        if mode == "0":
            self.unsupported_reason = "disabled by REPRO_BATCH_VECTOR=0"
            return
        if net is None or layout is None:
            self.unsupported_reason = "no compiled network"
            return
        from repro.core.hybrid_router import HybridRouter
        routers = list(net.routers)
        if not routers:
            self.unsupported_reason = "no routers"
            return
        hybrid = isinstance(routers[0], HybridRouter)
        want = HybridRouter if hybrid else PacketRouter
        for r in routers:
            # exact-type check: subclasses (e.g. the SDM router) override
            # datapath internals the vector lane mirrors
            if type(r) is not want:
                self.unsupported_reason = (
                    f"unsupported router type {type(r).__name__}")
                return
        # the vectorized round-robin key assumes the uniform geometry the
        # builder produces (mod == NUM_PORTS * total_vcs == P * V)
        if layout.n_ports != NUM_PORTS or any(
                r.total_vcs != layout.n_vcs for r in routers):
            self.unsupported_reason = "non-uniform router geometry"
            return
        if hybrid:
            clock = routers[0].clock
            for r in routers:
                if r.clock is not clock:
                    self.unsupported_reason = "routers on different slot clocks"
                    return
            self._clock = clock
            self._stealing = bool(routers[0].cfg.circuit.slot_stealing)
        else:
            self._clock = None
            self._stealing = False
        self._hybrid = hybrid

        sim = self.sim
        rset = {id(r) for r in routers}
        pl = sim._phase_lists
        for obj in pl["deliver"]:
            if id(obj) not in rset:
                self.unsupported_reason = (
                    f"non-router deliver object {type(obj).__name__}")
                return
        for obj in pl["transfer"]:
            if id(obj) not in rset:
                self.unsupported_reason = (
                    f"non-router transfer object {type(obj).__name__}")
                return
        iset = {id(ni) for ni in net.interfaces}
        for obj in pl["inject"]:
            if not isinstance(obj, NetworkInterface) or id(obj) not in iset:
                self.unsupported_reason = (
                    f"unsupported inject object {type(obj).__name__}")
                return
            if (type(obj)._pump_injection
                    is not NetworkInterface._pump_injection
                    or type(obj).inject is not NetworkInterface.inject):
                self.unsupported_reason = (
                    f"{type(obj).__name__} overrides the injection pump")
                return
        from repro.core.circuit import ConnectionManager
        from repro.core.slot_sizing import SlotSizeController
        from repro.obs.metrics import MetricsSampler
        from repro.sim.kernel import Watchdog
        allowed = (PacketRouter, ConnectionManager, SlotSizeController,
                   MetricsSampler, Watchdog)
        for obj in pl["control"]:
            if not isinstance(obj, allowed):
                self.unsupported_reason = (
                    f"unmodelled control object {type(obj).__name__}")
                return

        self._routers = routers
        self._router_index = {id(r): ri for ri, r in enumerate(routers)}
        self._interfaces = list(net.interfaces)
        self._g_routers = [(ri, r) for ri, r in enumerate(routers)
                           if r.gating is not None]
        n = len(routers)
        # Profitability gate: the fixed per-cycle cost of the array
        # pass (a few dozen NumPy dispatches) must undercut the Python
        # work it replaces.  Measured crossover: gating schemes (every
        # router samples utilisation every cycle) win from ~64 routers;
        # non-gating schemes only carry enough vectorizable scan work
        # from ~256 routers.  ``REPRO_BATCH_VECTOR=force`` bypasses the
        # size gate (the differential tests use it so small meshes
        # exercise the lane); correctness is identical either way.
        if mode != "force":
            gating_net = bool(self._g_routers)
            if (gating_net and n < 64) or (not gating_net and n < 256):
                self.unsupported_reason = (
                    "below profitable network size "
                    "(REPRO_BATCH_VECTOR=force overrides)")
                return
        self._min_hot = max(3, n // 8)
        # a gating-heavy network pays O(routers) sampling every cycle
        # even when almost idle — the vector lane wins there with any
        # traffic at all, so entry is gated on a single hot router
        self._g_enter = len(self._g_routers) >= self._min_hot
        self._ones = np.ones(n, dtype=bool)
        self._rb3 = (np.arange(n, dtype=np.int64)
                     * (NUM_PORTS * layout.n_vcs))[:, None, None]
        self._probe_pipes = ()
        self._ok = True
        self.unsupported_reason = None

    # ------------------------------------------------------------------
    # entry
    # ------------------------------------------------------------------
    def maybe_run_window(self, end: int) -> int:
        """Open a vectorized window if profitable and safe; returns the
        number of cycles executed (0 when declined)."""
        if not self._ok or self._cooldown > 0:
            if self._cooldown > 0:
                self._cooldown -= 1
            return 0
        sim = self.sim
        if not sim._sleep_enabled or sim.obs is not NULL_RECORDER:
            return 0
        n_hot = 0
        for r in self._routers:
            if r._buffered_flits:
                n_hot += 1
        if n_hot == 0 or (n_hot < self._min_hot and not self._g_enter):
            self._cooldown = self.PROBE_INTERVAL - 1
            return 0
        t0 = perf_counter()
        if not self._enter(end):
            self.window_declines += 1
            self._cooldown = self.PROBE_INTERVAL - 1
            self.t_window += perf_counter() - t0
            return 0
        self.windows += 1
        executed, idle_exit = self._run_window()
        self.t_window += perf_counter() - t0
        if idle_exit:
            self._cooldown = self.EXIT_COOLDOWN
        return executed

    def _enter(self, end: int) -> bool:
        """Dynamic safety checks + full mirror derivation."""
        sim = self.sim
        cycle = sim.cycle
        lh = self._routers[0].link_health
        if lh is not None and lh.any_faults:
            return False
        wend = end
        for _, r in self._g_routers:
            g = r.gating
            if g._draining >= 0:
                return False
            if g._next_epoch < wend:
                wend = g._next_epoch
        if wend - cycle < self.MIN_WINDOW:
            return False
        for ctrl in self.engine._slot_ctrls:
            if ctrl._resize_pending:
                return False
        layout = self._layout
        layout.ensure_mirror()
        if self._hybrid:
            clock = self._clock
            self._gen_key = (clock.generation, clock.active)
            layout.derive_reserved(clock)
        self._ensure_entries()
        irr = self._irr
        sched = self._sched
        irr.clear()
        sched.clear()
        in_entry = self._in_entry
        cin_entry = self._cin_entry
        for ri, r in enumerate(self._routers):
            if r.obs.enabled or r.stalled_until > cycle:
                return False
            layout.derive_router(ri, r)
            if self._router_irregular(r):
                irr.add(ri)
            for p in range(NUM_PORTS):
                link = r.in_links[p]
                if link is not None:
                    if link.faulty:
                        return False
                    if link._pipe:
                        ent = in_entry[ri][p]
                        for due, _ in link._pipe:
                            sched.setdefault(due, []).append(ent)
                clink = r.credit_in[p]
                if clink is not None and clink._pipe:
                    ent = cin_entry[ri][p]
                    for due, _ in clink._pipe:
                        sched.setdefault(due, []).append(ent)
                ol = r.out_links[p]
                if ol is not None and ol.faulty:
                    return False
        if self._g_routers:
            self._derive_gating_arrays()
        # flat views for the bulk mirror updates (the m_* arrays are
        # allocated once and written in place, so views stay valid)
        self._f_hr = layout.m_head_ready.reshape(-1)
        self._f_hk = layout.m_head_ok.reshape(-1)
        self._f_free = layout.m_free.reshape(-1)
        self._f_oip = layout.m_own_ip.reshape(-1)
        self._f_oiv = layout.m_own_iv.reshape(-1)
        self._f_cred = layout.m_credits.reshape(-1)
        self._f_sap = layout.m_saptr.reshape(-1)
        self._wend = wend
        self._rebuild_lists()
        return True

    def _ensure_entries(self) -> None:
        """(Re)build the pipe -> consumer entry maps.

        Pipe deques are replaced wholesale by snapshot restores, so a
        cached map is only valid while the probe pipes are identical."""
        if self._probe_pipes:
            ok = True
            for link, pipe in self._probe_pipes:
                if link._pipe is not pipe:
                    ok = False
                    break
            if ok:
                return
        routers = self._routers
        pipe_map: Dict[int, tuple] = {}
        in_entry: List[list] = []
        cin_entry: List[list] = []
        probes = []
        for ri, r in enumerate(routers):
            row_f: list = []
            row_c: list = []
            for p in range(NUM_PORTS):
                il = r.in_links[p]
                if il is None:
                    row_f.append(None)
                else:
                    ent = (il._pipe, ri, p, False)
                    row_f.append(ent)
                    pipe_map[id(il._pipe)] = ent
                    if not probes:
                        probes.append((il, il._pipe))
                ci = r.credit_in[p]
                if ci is None:
                    row_c.append(None)
                else:
                    ent = (ci._pipe, ri, p, True)
                    row_c.append(ent)
                    pipe_map[id(ci._pipe)] = ent
                    if len(probes) < 2:
                        probes.append((ci, ci._pipe))
            in_entry.append(row_f)
            cin_entry.append(row_c)
        out_entry: List[list] = []
        credit_entry: List[list] = []
        for r in routers:
            row_o: list = []
            row_c = []
            for p in range(NUM_PORTS):
                ol = r.out_links[p]
                row_o.append(None if ol is None
                             else pipe_map.get(id(ol._pipe)))
                cl = r.credit_out[p]
                row_c.append(None if cl is None
                             else pipe_map.get(id(cl._pipe)))
            out_entry.append(row_o)
            credit_entry.append(row_c)
        ni_entry: Dict[int, tuple] = {}
        for ni in self._interfaces:
            il = ni.inject_link
            ent = None if il is None else pipe_map.get(id(il._pipe))
            ni_entry[id(ni)] = (ent, 0 if il is None else il.latency)
        self._in_entry = in_entry
        self._cin_entry = cin_entry
        self._out_entry = out_entry
        self._credit_entry = credit_entry
        self._ni_entry = ni_entry
        self._probe_pipes = tuple(probes)

    def _derive_gating_arrays(self) -> None:
        """Window-static sampling masks.  ``active_vcs`` only changes at
        gating-epoch boundaries, which bound the window, so one mask per
        window is exact."""
        layout = self._layout
        vmask = np.zeros((len(self._routers), NUM_PORTS, layout.n_vcs),
                         dtype=bool)
        totals = [0] * len(self._routers)
        for ri, r in self._g_routers:
            av = r.active_vcs
            vmask[ri, :, :av] = True
            totals[ri] = av * NUM_PORTS
        self._g_vmask = vmask
        self._g_totals = totals
        self._g_deficit.clear()

    def _router_irregular(self, r) -> bool:
        """Persistent conditions that keep a router object-stepped."""
        if self._hybrid and (r._cs_inject or r._cs_flags_dirty):
            return True
        if r._busy_by_vc[r.config_vc]:
            return True
        for staged in r._arrivals:
            if staged:
                return True
        return False

    def _rebuild_lists(self) -> None:
        """Mirror of the fast engine's awake-list rebuild for the phases
        the window runs object-side (router control is skipped: below
        the next epoch it is a pure early return)."""
        sim = self.sim
        sim._rebuild_awake_lists()
        self._w_inject = sim._awake_inject
        self._w_control = [o.control for o in sim._phase_lists["control"]
                           if o._sim_in_lists
                           and not isinstance(o, PacketRouter)]
        self._w_sleepables = sim._awake_sleepables

    # ------------------------------------------------------------------
    # hooks (installed for the duration of one window)
    # ------------------------------------------------------------------
    def _ni_notify(self, ni) -> None:
        """Called by the NI injection pump right after the inlined
        inject-link send: registers the delivery in the event schedule."""
        ent, lat = self._ni_entry[id(ni)]
        if ent is not None:
            sched = self._sched
            due = self._cycle + lat
            lst = sched.get(due)
            if lst is None:
                sched[due] = [ent]
            else:
                lst.append(ent)

    def _router_notify(self, r) -> None:
        """Called by ``schedule_cs_injection``: the router now holds a
        pending circuit injection and must be object-stepped."""
        self._irr.add(self._router_index[id(r)])

    # ------------------------------------------------------------------
    # the window loop
    # ------------------------------------------------------------------
    def _run_window(self):
        sim = self.sim
        layout = self._layout
        routers = self._routers
        sched = self._sched
        irr = self._irr
        hybrid = self._hybrid
        clock = self._clock
        wend = self._wend
        gating = bool(self._g_routers)
        ones = self._ones
        n_vcs = layout.n_vcs
        c = sim.cycle
        executed = 0
        idle_streak = 0
        idle_exit = False
        arrived: Set[int] = set()
        cyc_irr: Set[int] = set()
        for ni in self._interfaces:
            ni._vector_notify = self._ni_notify
        if hybrid:
            notify = self._router_notify
            for r in routers:
                r._vector_notify = notify
        try:
            while c < wend:
                if not sim._sleep_enabled:
                    break       # fault activated mid-window
                if hybrid and (clock.generation,
                               clock.active) != self._gen_key:
                    self._gen_key = (clock.generation, clock.active)
                    layout.derive_reserved(clock)
                if sim._wake_pending:
                    self._rebuild_lists()
                self._cycle = c
                # deliver ---------------------------------------------
                entries = sched.pop(c, None)
                if entries:
                    ic: list = []   # credit arrivals, bulk-mirrored
                    for pipe, ri, port, is_credit in entries:
                        if not pipe or pipe[0][0] > c:
                            continue    # duplicate entry already drained
                        r = routers[ri]
                        if is_credit:
                            crow = r.credits[port]
                            fbase = (ri * NUM_PORTS + port) * n_vcs
                            while pipe and pipe[0][0] <= c:
                                v = pipe.popleft()[1]
                                crow[v] += 1
                                ic.append(fbase + v)
                            continue
                        staged = r._arrivals[port]
                        while pipe and pipe[0][0] <= c:
                            f = pipe.popleft()[1]
                            staged.append(f)
                            if (f.is_circuit or f.packet.dropped
                                    or f.packet.mclass == MessageClass.CONFIG):
                                cyc_irr.add(ri)
                        arrived.add(ri)
                    if ic:
                        # one credit per (router, port, vc) per cycle
                        # (one SA win per downstream inport), so the
                        # fancy in-place add never sees duplicates
                        self._f_cred[ic] += 1
                # transfer: spilled routers (object-side) -------------
                if irr or cyc_irr:
                    spilled = sorted(irr | cyc_irr) if cyc_irr \
                        else sorted(irr)
                    t0 = perf_counter()
                    deficit = self._g_deficit
                    for ri in spilled:
                        r = routers[ri]
                        r.transfer(c)
                        self._capture_sends(ri, r, c)
                        if self._router_irregular(r):
                            # still irregular: its mirror rows stay
                            # stale, which is safe — they are masked
                            # out of VA/SA and the gating sampler, and
                            # ``irr`` non-empty already blocks the
                            # idle exit — so the O(P*V) re-derive is
                            # deferred to the return transition
                            irr.add(ri)
                        else:
                            layout.derive_router(ri, r)
                            irr.discard(ri)
                        if gating and r.gating is not None:
                            # sampled itself inside transfer; subtract
                            # from the deferred bulk sample count
                            deficit[ri] = deficit.get(ri, 0) + 1
                        arrived.discard(ri)
                    self.spill_router_cycles += len(spilled)
                    self.t_spill += perf_counter() - t0
                    spilled_set: frozenset = frozenset(spilled)
                    cyc_irr.clear()
                    mask = ones.copy()
                    mask[spilled] = False
                else:
                    spilled_set = _EMPTY_SET
                    mask = None
                # transfer: regular arrivals + vector VA/SA -----------
                if arrived:
                    hu_i: list = []
                    hu_r: list = []
                    hu_k: list = []
                    for ri in sorted(arrived):
                        self._stage_arrivals(routers[ri], ri, c,
                                             hu_i, hu_r, hu_k)
                    arrived.clear()
                    if hu_i:
                        self._f_hr[hu_i] = hu_r
                        self._f_hk[hu_i] = hu_k
                self._vector_va(mask, c)
                self._vector_sa(mask, c)
                if gating:
                    self._sample_gating(spilled_set)
                # inject + control (object-side, canonical order) -----
                for method in self._w_inject:
                    method(c)
                for method in self._w_control:
                    method(c)
                # sleep scan (same cadence as the fast engine) --------
                if c & 3 == 3:
                    slept = False
                    for obj in self._w_sleepables:
                        if obj._sim_awake and obj.sim_idle(c):
                            obj._sim_awake = False
                            obj._sim_in_lists = False
                            slept = True
                    if slept:
                        self._rebuild_lists()
                c += 1
                sim.cycle = c
                executed += 1
                if sched or irr \
                        or (layout.m_head_ready != NO_HEAD).any():
                    idle_streak = 0
                else:
                    idle_streak += 1
                    if idle_streak >= self.EXIT_IDLE_STREAK:
                        idle_exit = True
                        break
        finally:
            for ni in self._interfaces:
                ni._vector_notify = None
            if hybrid:
                for r in routers:
                    r._vector_notify = None
            if gating:
                # the bulk sampler defers the unconditional
                # ``_busy_samples += 1`` (one per vectorized cycle) to
                # window exit; nothing reads it mid-window (the epoch
                # pop happens at/after ``wend``, never inside)
                deficit = self._g_deficit
                for ri, r in self._g_routers:
                    r._busy_samples += executed - deficit.get(ri, 0)
                deficit.clear()
            sched.clear()
            # the engine's fast path owns the awake lists again
            sim._wake_pending = True
            self.vector_cycles += executed
        return executed, idle_exit

    # ------------------------------------------------------------------
    # scalar effect sequences (bit-exact legacy replicas)
    # ------------------------------------------------------------------
    def _stage_arrivals(self, r, ri: int, c: int,
                        hu_i: list, hu_r: list, hu_k: list) -> None:
        """Regular-router arrival processing: the exact per-flit effect
        sequence of ``PacketRouter._buffer_write`` (base) or the inlined
        demux in ``HybridRouter.transfer`` (hybrid, all-PS arrivals).
        New-head mirror updates are appended to the ``hu_*`` bulk lists
        (applied by the caller before the vectorized VA)."""
        n_vcs = self._layout.n_vcs
        counts = r.counters._counts
        in_ports = r.in_ports
        port_buffered = r._port_buffered
        busy_by_vc = r._busy_by_vc
        pipe_lat = r.rcfg.ps_pipeline_latency
        hybrid = self._hybrid
        head_kind = FlitKind.HEAD
        head_tail_kind = FlitKind.HEAD_TAIL
        base = ri * NUM_PORTS * n_vcs
        for inport in range(NUM_PORTS):
            staged = r._arrivals[inport]
            if not staged:
                continue
            for flit in staged:
                if hybrid:
                    counts["slot_read"] = counts.get("slot_read", 0) + 1
                v = flit.vc
                vcobj = in_ports[inport].vcs[v]
                fifo = vcobj.fifo
                if len(fifo) >= vcobj.depth:
                    raise OverflowError(
                        "VC buffer overflow: credit protocol violated")
                fifo.append(flit)
                flit.ready_cycle = c + pipe_lat
                r._buffered_flits += 1
                port_buffered[inport] += 1
                counts["buffer_write"] = counts.get("buffer_write", 0) + 1
                if len(fifo) == 1:
                    if vcobj.out_vc is None:
                        busy_by_vc[v] += 1
                    hu_i.append(base + inport * n_vcs + v)
                    hu_r.append(flit.ready_cycle)
                    kind = flit.kind
                    hu_k.append(kind is head_kind
                                or kind is head_tail_kind)
            staged.clear()

    def _vector_va(self, mask, c: int) -> None:
        """Route compute + VC allocation across the whole network."""
        layout = self._layout
        elig = layout.m_head_ok & layout.m_free & (layout.m_head_ready <= c)
        if mask is not None:
            elig &= mask[:, None, None]
        if not elig.any():
            return
        routers = self._routers
        va = self._va_candidate
        n_vcs = layout.n_vcs
        pv = NUM_PORTS * n_vcs
        oi: list = []   # allocated (router, outport, ovc) flat indices
        ips: list = []
        ivs: list = []
        fi: list = []   # input-VC flat indices that became bound
        # flat row-major order == the legacy (router, inport, invc) scan
        for f in np.flatnonzero(elig.ravel()).tolist():
            ri, rem = divmod(f, pv)
            p, v = divmod(rem, n_vcs)
            va(routers[ri], ri, p, v, c, f, oi, ips, ivs, fi)
        if oi:
            self._f_oip[oi] = ips
            self._f_oiv[oi] = ivs
            self._f_free[fi] = False

    def _va_candidate(self, r, ri: int, inport: int, invc: int, c: int,
                      f: int, oi: list, ips: list, ivs: list,
                      fi: list) -> None:
        vcobj = r.in_ports[inport].vcs[invc]
        out = vcobj.route_outport
        if out is None:
            # non-CONFIG, fault-free: the memoised X-Y route (the vector
            # lane never sees CONFIG heads — the config VC spills)
            dst = vcobj.fifo[0].packet.dst
            out = r._xy_cache[dst]
            if out is None:
                out = r._xy_cache[dst] = xy_outport(r.mesh, r.node, dst)
            vcobj.route_outport = out
        owners = r.out_vc_owner[out]
        limit = r._downstream_active_vcs(out)
        ovc = None
        for k in range(limit):
            if owners[k] is None:
                ovc = k
                break
        if ovc is None:
            return
        vcobj.out_vc = ovc
        owners[ovc] = (inport, invc)
        r._owned_out[out] += 1
        r.counters.inc("vc_arb")
        n_vcs = self._layout.n_vcs
        oi.append((ri * NUM_PORTS + out) * n_vcs + ovc)
        ips.append(inport)
        ivs.append(invc)
        fi.append(f)

    def _vector_sa(self, mask, c: int) -> None:
        """Switch allocation + traversal across the whole network.

        Candidate masks, rotated round-robin keys and argmin winners
        for every (router, outport) come out of one batch of full-array
        ops; the crossbar-input constraint (a winner's inport is
        unavailable to the same router's higher outports) only binds
        when a router wins more than one outport in one cycle, so it is
        enforced by a scalar rescan of just those rows.  The rescan can
        reuse the batch snapshot: a winner at a lower outport only
        mutates that outport's state or its own input VC, which cannot
        be a candidate at another outport (one output VC per input VC).
        Same-cycle SA effects of different routers are independent, so
        resolving in (router, outport) order is unobservable."""
        layout = self._layout
        own_ip = layout.m_own_ip
        has = own_ip >= 0
        if mask is not None:
            has &= mask[:, None, None]
        if not has.any():
            return
        own_iv = layout.m_own_iv
        n_vcs = layout.n_vcs
        mod = NUM_PORTS * n_vcs
        posv = own_ip * n_vcs + own_iv
        # unowned entries gather at small negative indices (numpy wraps,
        # never faults) and are masked off by ``has``; an owner can only
        # exist behind a real link (VA routes are always link-backed),
        # so no separate ``m_has_link`` mask is needed
        front = layout.m_head_ready.reshape(-1)[posv + self._rb3] <= c
        cand = has & front & (layout.m_credits > 0)
        if self._hybrid:
            slot = c % self._clock.active
            res_slot = layout.m_reserved[:, :, slot]
            if not self._stealing:
                cand &= ~res_slot[:, :, None]
        else:
            res_slot = None
        ncand = cand.sum(axis=2)
        wr, wp = np.nonzero(ncand)
        if wr.size == 0:
            return
        key = np.where(cand, (posv - layout.m_saptr[:, :, None]) % mod,
                       mod)
        wovc = key.argmin(axis=2)
        ww = wovc[wr, wp]
        rl = wr.tolist()
        pl = wp.tolist()
        ol = ww.tolist()
        ip_w = own_ip[wr, wp, ww].tolist()
        iv_w = own_iv[wr, wp, ww].tolist()
        nc_w = ncand[wr, wp].tolist()
        rs_w = None if res_slot is None else res_slot[wr, wp].tolist()
        routers = self._routers
        sched = self._sched
        credit_entry = self._credit_entry
        out_entry = self._out_entry
        pv = NUM_PORTS * n_vcs
        tail_kind = FlitKind.TAIL
        head_kind = FlitKind.HEAD
        head_tail_kind = FlitKind.HEAD_TAIL
        # bulk mirror-update lists (flat indices are unique per cycle:
        # one winner per (router, outport), one inport per winner)
        sp_i: list = []
        sp_v: list = []
        dc: list = []
        co: list = []
        fs: list = []
        hu_i: list = []
        hu_r: list = []
        hu_k: list = []
        prev_ri = -1
        used = 0
        for k in range(len(rl)):
            ri = rl[k]
            p = pl[k]
            if ri != prev_ri:
                prev_ri = ri
                used = 0
                r = routers[ri]
                base = ri * pv
                counts = r.counters._counts
                in_ports = r.in_ports
                credit_out = r.credit_out
                out_links = r.out_links
                rcredits = r.credits
                port_buffered = r._port_buffered
                busy_by_vc = r._busy_by_vc
                sa_ptr = r._sa_ptr
                owner = r.out_vc_owner
                owned_out = r._owned_out
                has_gating = r.gating is not None
                crentry = credit_entry[ri]
                oentry = out_entry[ri]
            if used == 0:
                ovc = ol[k]
                wip = ip_w[k]
                wiv = iv_w[k]
                nc = nc_w[k]
            else:
                # this router already won a lower outport this cycle:
                # redo the pick with its inport(s) masked out, exactly
                # the legacy ``used_in`` filter (strict-less first-win
                # == argmin first occurrence)
                crow = cand[ri, p]
                krow = key[ri, p]
                iprow = own_ip[ri, p]
                best = -1
                best_key = mod
                best_ip = -1
                nc = 0
                for v in range(n_vcs):
                    if crow[v]:
                        ipv = int(iprow[v])
                        if used >> ipv & 1:
                            continue
                        nc += 1
                        kv = krow[v]
                        if kv < best_key:
                            best_key = kv
                            best = v
                            best_ip = ipv
                if nc == 0:
                    continue
                ovc = best
                wip = best_ip
                wiv = int(own_iv[ri, p, best])
            used |= 1 << wip
            # exact effect sequence of one SA win + switch traversal
            # (mirrors ``HybridRouter._sa_st``'s inlined winner body,
            # behaviour-identical to base ``_sa_pick`` + ``_traverse``)
            counts["sw_arb"] = counts.get("sw_arb", 0) + 1
            if nc > 1:
                ptr = wip * n_vcs + wiv + 1
                sa_ptr[p] = ptr
                sp_i.append(ri * NUM_PORTS + p)
                sp_v.append(ptr)
            if rs_w is not None and rs_w[k]:
                counts["slot_steal"] = counts.get("slot_steal", 0) + 1
            vcobj = in_ports[wip].vcs[wiv]
            fifo = vcobj.fifo
            flit = fifo.popleft()
            r._buffered_flits -= 1
            port_buffered[wip] -= 1
            counts["buffer_read"] = counts.get("buffer_read", 0) + 1
            counts["xbar"] = counts.get("xbar", 0) + 1
            if has_gating:
                wait = c - flit.ready_cycle
                r._qdelay_accum += max(0, wait)
                r._qdelay_samples += 1
            clink = credit_out[wip]
            if clink is not None:
                due = c + clink.latency
                clink._pipe.append((due, wiv))
                ws = clink.wake_sink
                if ws is not None and not ws._sim_awake:
                    ws.sim_wake()
                ent = crentry[wip]
                if ent is not None:
                    lst = sched.get(due)
                    if lst is None:
                        sched[due] = [ent]
                    else:
                        lst.append(ent)
            flit.vc = ovc
            if p != LOCAL:
                rcredits[p][ovc] -= 1
                dc.append(base + p * n_vcs + ovc)
                counts["link"] = counts.get("link", 0) + 1
            flit.packet.hops_taken += 1
            kind = flit.kind
            if kind is tail_kind or kind is head_tail_kind:
                owner[p][ovc] = None
                owned_out[p] -= 1
                vcobj.route_outport = None
                vcobj.out_vc = None
                if not fifo:
                    busy_by_vc[wiv] -= 1
                co.append(base + p * n_vcs + ovc)
                fs.append(base + wip * n_vcs + wiv)
            olk = out_links[p]
            due = c + olk.latency
            olk._pipe.append((due, flit))
            olk.flits_carried += 1
            ws = olk.wake_sink
            if ws is not None and not ws._sim_awake:
                ws.sim_wake()
            ent = oentry[p]
            if ent is not None:
                lst = sched.get(due)
                if lst is None:
                    sched[due] = [ent]
                else:
                    lst.append(ent)
            # head mirror for the popped VC
            hu_i.append(base + wip * n_vcs + wiv)
            if fifo:
                nf = fifo[0]
                hu_r.append(nf.ready_cycle)
                nk = nf.kind
                hu_k.append(nk is head_kind or nk is head_tail_kind)
            else:
                hu_r.append(NO_HEAD)
                hu_k.append(False)
        # bulk-apply the mirror updates (deferral is exact: the winner
        # loop only consults the pre-cycle snapshot arrays, and the
        # gating sampler runs after this method returns)
        if sp_i:
            self._f_sap[sp_i] = sp_v
        if dc:
            self._f_cred[dc] -= 1
        if co:
            self._f_oip[co] = -1
            self._f_oiv[co] = -1
            self._f_free[fs] = True
        if hu_i:
            self._f_hr[hu_i] = hu_r
            self._f_hk[hu_i] = hu_k

    def _capture_sends(self, ri: int, r, c: int) -> None:
        """Register anything an object-stepped router sent this cycle in
        the event schedule (a pipe tail due exactly ``latency`` from now
        was appended this cycle)."""
        sched = self._sched
        out_entry = self._out_entry[ri]
        credit_entry = self._credit_entry[ri]
        for p in range(NUM_PORTS):
            ol = r.out_links[p]
            if ol is not None and ol._pipe \
                    and ol._pipe[-1][0] == c + ol.latency:
                ent = out_entry[p]
                if ent is not None:
                    sched.setdefault(c + ol.latency, []).append(ent)
            cl = r.credit_out[p]
            if cl is not None and cl._pipe \
                    and cl._pipe[-1][0] == c + cl.latency:
                ent = credit_entry[p]
                if ent is not None:
                    sched.setdefault(c + cl.latency, []).append(ent)

    def _sample_gating(self, spilled) -> None:
        """Per-cycle VC utilisation sampling for gating routers, exactly
        replicating ``_sample_utilisation``: the busy count is an array
        reduction; each router with a nonzero count takes the identical
        ``busy / total`` addition with Python ints (adding an exact
        ``0.0`` to a non-negative float is the identity, so zero-count
        routers are skipped bit-exactly; the unconditional
        ``_busy_samples += 1`` is deferred to window exit).  Spilled
        routers already sampled inside their object-side ``transfer``."""
        layout = self._layout
        busy = (~layout.m_free) | (layout.m_head_ready != NO_HEAD)
        busy &= self._g_vmask
        counts = busy.sum(axis=(1, 2))
        nz = np.flatnonzero(counts)
        if nz.size == 0:
            return
        routers = self._routers
        totals = self._g_totals
        cl = counts[nz].tolist()
        for j, ri in enumerate(nz.tolist()):
            if ri in spilled:
                continue
            routers[ri]._busy_accum += cl[j] / totals[ri]

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "supported": self._ok,
            "unsupported_reason": self.unsupported_reason,
            "windows": self.windows,
            "window_declines": self.window_declines,
            "vector_cycles": self.vector_cycles,
            "spill_router_cycles": self.spill_router_cycles,
            "window_time": self.t_window,
            "spill_time": self.t_spill,
        }
