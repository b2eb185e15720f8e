"""Circuit path configuration and the per-node connection manager (S7).

Implements Section II-B:

* ``setup_msg`` / ``teardown_msg`` / ``ack_msg`` exchange over the
  packet-switched network (the messages themselves are 1-flit CONFIG
  packets on the escape VC, minimal-adaptively routed),
* retry of failed setups with a different slot id,
* eviction of long-idle connections when new setup requests need room,
* the frequent-communication trigger ("a circuit-switched path is only
  reserved for source-destination pairs that communicate frequently"),
* and the per-message switching decision plumbing of Section II-A,
  including hitchhiker/vicinity sharing plans (Section III-A).

Packet transmission never waits for a setup: a message goes out through
the packet-switched network while its path setup runs in parallel; only
messages sent *after* the ACK registers the connection use the circuit.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Dict, List, NamedTuple, Optional, Set

from repro.config import NetworkConfig
from repro.core.decision import (
    DecisionFn,
    estimate_cs_latency,
    estimate_ps_latency,
    stall_threshold_decision,
)
from repro.core.sharing import DestinationLookupTable, SaturatingCounter
from repro.core.slot_table import SlotClock
from repro.network.flit import (
    ConfigPayload,
    ConfigType,
    Message,
    MessageClass,
)
from repro.network.topology import LOCAL, Mesh
from repro.obs.trace import NULL_RECORDER
from repro.sim.kernel import SimObject


class ConnState(Enum):
    PENDING = 0   #: setup sent, waiting for the acknowledgement
    ACTIVE = 1    #: registered; messages may be circuit-switched
    TEARING = 2   #: teardown sent; slots may still be reserved downstream


class Connection:
    """Source-side record of one circuit-switched connection."""

    __slots__ = ("conn_id", "src", "dst", "slot0", "duration", "state",
                 "created", "last_used", "next_round_min", "retries", "uses",
                 "deadline", "retry_at")

    def __init__(self, conn_id: int, src: int, dst: int, slot0: int,
                 duration: int, cycle: int) -> None:
        self.conn_id = conn_id
        self.src = src
        self.dst = dst
        self.slot0 = slot0            #: arrival slot at the source router
        self.duration = duration
        self.state = ConnState.PENDING
        self.created = cycle
        self.last_used = cycle
        self.next_round_min = 0       #: earliest cycle of the next free round
        self.retries = 0
        self.uses = 0
        self.deadline = 0             #: cycle the pending op times out at
        self.retry_at = 0             #: backoff: earliest re-setup cycle

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Connection(#{self.conn_id} {self.src}->{self.dst} "
                f"slot={self.slot0} {self.state.name})")


class CSPlan(NamedTuple):
    """Injection plan returned by :meth:`ConnectionManager.plan_message`."""

    kind: str              #: 'own' | 'hitchhike' | 'vicinity'
    t0: int                #: cycle the first flit must enter the router
    size: int              #: flits in the circuit-switched packet
    circuit_dst: int       #: node where the circuit ends
    final_dst: int         #: true message destination (vicinity hop-off)
    expected_outport: Optional[int]  #: hitchhiker crossbar output, else None
    conn_id: int


class ConnectionManager(SimObject):
    """Per-node controller of circuit setups, usage and teardown.

    With ``cfg.circuit.setup_timeout > 0`` the manager also runs in the
    simulator's ``control`` phase (the builder registers it) and becomes
    loss-tolerant: pending setups and teardown walks time out, retry with
    bounded exponential backoff, and repeatedly-failing destination pairs
    are demoted to pure packet switching for a cool-down period."""

    # Connection objects are shared between ``connections``, ``by_id``
    # and ``_tearing``; the single-pass snapshot freeze preserves that
    # sharing.  Wiring (ni/router/mesh/clock/cfg/dlt/decision_fn/...) is
    # rebuilt by the network constructor and excluded.
    _state_attrs = (
        "connections", "by_id", "_dst_counts", "_window_end",
        "_vicinity_fail", "_tearing", "_fail_streak", "_demoted",
        "_fault_since", "_nacked", "recovery_samples",
        "setups_sent", "setups_ok", "setups_failed", "teardowns_sent",
        "cs_messages", "shared_messages", "setups_timed_out",
        "teardowns_timed_out", "teardowns_confirmed", "circuits_nacked",
        "pairs_demoted")

    def __init__(self, node: int, cfg: NetworkConfig, clock: SlotClock,
                 mesh: Mesh, ni, router,
                 decision_fn: Optional[DecisionFn] = None,
                 eligible_fn: Optional[Callable[[Message], bool]] = None,
                 dlt: Optional[DestinationLookupTable] = None,
                 size_controller=None) -> None:
        self.node = node
        self.cfg = cfg
        self.ccfg = cfg.circuit
        self.clock = clock
        self.mesh = mesh
        self.ni = ni
        self.router = router
        self.decision_fn = decision_fn or stall_threshold_decision(
            cfg.circuit.stall_threshold)
        if hasattr(self.decision_fn, "bind"):
            # NI-bound policies (FeedbackDecision) get a per-node copy
            import copy
            self.decision_fn = copy.copy(self.decision_fn).bind(ni)
        self.eligible_fn = eligible_fn or (
            lambda m: m.mclass == MessageClass.DATA)
        self.dlt = dlt
        self.size_controller = size_controller

        self.connections: Dict[int, Connection] = {}   # dst -> conn
        self.by_id: Dict[int, Connection] = {}
        self._dst_counts: Dict[int, int] = {}
        self._window_end = cfg.circuit.freq_window
        self._vicinity_fail: Dict[int, SaturatingCounter] = {}

        # resilience state (inert unless circuit.setup_timeout > 0)
        self._tearing: Dict[int, Connection] = {}   # conn_id -> conn
        self._fail_streak: Dict[int, int] = {}      # dst -> consecutive fails
        self._demoted: Dict[int, int] = {}          # dst -> demoted until
        self._fault_since: Dict[int, int] = {}      # dst -> first-failure cycle
        self._nacked: Set[int] = set()              # conn ids already NACKed
        self.recovery_samples: List[int] = []       # fault -> re-ACK latency

        # statistics
        self.setups_sent = 0
        self.setups_ok = 0
        self.setups_failed = 0
        self.teardowns_sent = 0
        self.cs_messages = 0
        self.shared_messages = 0
        self.setups_timed_out = 0
        self.teardowns_timed_out = 0
        self.teardowns_confirmed = 0
        self.circuits_nacked = 0
        self.pairs_demoted = 0

        #: trace recorder; NULL_RECORDER keeps every guarded emission
        #: site a single falsy attribute check (never snapshot state)
        self.obs = NULL_RECORDER
        self._obs_track = f"ni-{node}"

    # ------------------------------------------------------------------
    # reservation duration (vicinity needs one extra header slot)
    # ------------------------------------------------------------------
    @property
    def reserve_duration(self) -> int:
        return self.ccfg.duration + (1 if self.ccfg.vicinity else 0)

    # ------------------------------------------------------------------
    # per-message planning (called from the NI's send path)
    # ------------------------------------------------------------------
    def plan_message(self, msg: Message, now: int) -> Optional[CSPlan]:
        """Return a circuit-switched injection plan for *msg*, or None to
        send it through the packet-switched network."""
        if not self.ccfg.enabled or not self.eligible_fn(msg):
            return None
        self._note_traffic(msg.dst, now)

        plan = self._plan_own(msg, now)
        if plan is not None:
            return plan
        if self.ccfg.vicinity:
            plan = self._plan_vicinity(msg, now)
            if plan is not None:
                return plan
        if self.ccfg.hitchhiker and self.dlt is not None:
            plan = self._plan_hitchhike(msg, now)
            if plan is not None:
                return plan
        return None

    def _decide(self, msg: Message, t0: int, now: int, size: int,
                hops: int) -> bool:
        wait = t0 - now
        cs_lat = estimate_cs_latency(hops, wait, size)
        # the packet-switched estimate includes the source backlog: under
        # congestion a long slot wait still beats queueing behind the
        # packet-switched injection queue (Section II-A's "impact on
        # system performance")
        ps_lat = estimate_ps_latency(
            hops, self.cfg.router.ps_pipeline_latency, size)
        ps_lat = max(ps_lat, self.ni.ps_latency_ewma)
        ps_lat += self.ni.ps_backlog_flits
        return self.decision_fn(msg, wait, cs_lat, int(ps_lat))

    def _plan_own(self, msg: Message, now: int) -> Optional[CSPlan]:
        conn = self.connections.get(msg.dst)
        if conn is None or conn.state is not ConnState.ACTIVE:
            return None
        t0 = self.clock.next_cycle_for_slot(
            conn.slot0, max(now + 1, conn.next_round_min))
        size = self.cfg.packet_size("cs_data")
        if not self._decide(msg, t0, now, size,
                            self.mesh.hops(self.node, msg.dst)):
            return None
        conn.next_round_min = t0 + self.clock.active
        conn.last_used = now
        conn.uses += 1
        self.cs_messages += 1
        return CSPlan("own", t0, size, msg.dst, msg.dst, None, conn.conn_id)

    def _plan_vicinity(self, msg: Message, now: int) -> Optional[CSPlan]:
        for conn in self.connections.values():
            if conn.state is not ConnState.ACTIVE:
                continue
            if not self.mesh.are_adjacent(conn.dst, msg.dst):
                continue
            t0 = self.clock.next_cycle_for_slot(
                conn.slot0, max(now + 1, conn.next_round_min))
            size = self.cfg.packet_size("cs_vicinity")
            if not self._decide(msg, t0, now, size,
                                self.mesh.hops(self.node, conn.dst) + 1):
                # source-side contention / stall: count a sharing failure
                self._note_vicinity_failure(msg.dst, now)
                return None
            conn.next_round_min = t0 + self.clock.active
            conn.last_used = now
            self._vicinity_fail.pop(msg.dst, None)
            self.cs_messages += 1
            self.shared_messages += 1
            return CSPlan("vicinity", t0, size, conn.dst, msg.dst, None,
                          conn.conn_id)
        return None

    def _plan_hitchhike(self, msg: Message, now: int) -> Optional[CSPlan]:
        entry = self.dlt.lookup(msg.dst)
        if entry is None:
            return None
        t0 = self.clock.next_cycle_for_slot(entry.slot, now + 1)
        size = min(self.cfg.packet_size("cs_data"), entry.duration)
        if not self._decide(msg, t0, now, size,
                            self.mesh.hops(self.node, msg.dst)):
            return None
        self.cs_messages += 1
        self.shared_messages += 1
        return CSPlan("hitchhike", t0, size, msg.dst, msg.dst,
                      entry.outport, entry.conn)

    # ------------------------------------------------------------------
    # sharing failure escalation
    # ------------------------------------------------------------------
    def note_hitchhike_failure(self, dst: int, now: int) -> None:
        """Called by the NI when a hitchhiker injection lost to a real
        circuit flit; escalates to a dedicated setup on repeat failure."""
        if self.dlt is not None and self.dlt.note_failure(dst):
            self._maybe_setup(dst, now, force=True)

    def note_hitchhike_success(self, dst: int) -> None:
        if self.dlt is not None:
            self.dlt.note_success(dst)

    def _note_vicinity_failure(self, dst: int, now: int) -> None:
        ctr = self._vicinity_fail.setdefault(
            dst, SaturatingCounter(self.ccfg.sharing_fail_threshold))
        if ctr.up():
            del self._vicinity_fail[dst]
            self._maybe_setup(dst, now, force=True)

    # ------------------------------------------------------------------
    # frequency tracking -> setup trigger
    # ------------------------------------------------------------------
    def _note_traffic(self, dst: int, now: int) -> None:
        if now >= self._window_end:
            self._dst_counts.clear()
            self._window_end = now + self.ccfg.freq_window
        n = self._dst_counts.get(dst, 0) + 1
        self._dst_counts[dst] = n
        if n == self.ccfg.setup_msg_threshold:
            self._maybe_setup(dst, now)

    def _maybe_setup(self, dst: int, now: int, force: bool = False) -> None:
        if dst == self.node or dst in self.connections:
            return
        until = self._demoted.get(dst)
        if until is not None:
            if now < until:
                return   # pair demoted to packet switching: no new setups
            del self._demoted[dst]
            self._fail_streak.pop(dst, None)
        self._evict_if_crowded(now)
        self._send_setup(dst, now)

    # ------------------------------------------------------------------
    # setup / teardown / ack machinery
    # ------------------------------------------------------------------
    def _choose_slot(self, duration: int) -> Optional[int]:
        """Pick a start slot whose window is free in the source router's
        local input table (cheap local filter before the network try).

        Random probes spread reservations over the wheel; if all eight
        miss, a deterministic wrap-around scan guarantees that an existing
        free window is found.  The scan draws nothing from the RNG; it is
        part of the resilience protocol (``setup_timeout > 0``) so base
        runs keep the seed's exact setup stream (the probabilistic
        give-up included)."""
        active = self.clock.active
        table = self.router.slot_state.in_tables[LOCAL]
        rng = self.router.rng

        def window_free(start: int) -> bool:
            return all(not table.valid[(start + i) % active]
                       for i in range(duration))

        for _ in range(8):
            start = int(rng.integers(active))
            if window_free(start):
                return start
        if self.ccfg.resilience_enabled:
            for start in range(active):
                if window_free(start):
                    return start
        return None

    def _send_setup(self, dst: int, now: int,
                    conn: Optional[Connection] = None) -> None:
        duration = self.reserve_duration
        slot0 = self._choose_slot(duration)
        if slot0 is None:
            if self.size_controller is not None:
                self.size_controller.note_setup_result(False)
            return
        if conn is None:
            conn = Connection(self.ni.sim.conn_ids(), self.node, dst,
                              slot0, duration, now)
            self.connections[dst] = conn
            self.by_id[conn.conn_id] = conn
        else:
            # retry: fresh id so stale partial reservations cannot alias
            # (a timed-out conn was already dropped from by_id)
            self.by_id.pop(conn.conn_id, None)
            conn.conn_id = self.ni.sim.conn_ids()
            conn.slot0 = slot0
            conn.state = ConnState.PENDING
            self.by_id[conn.conn_id] = conn
        if self.ccfg.resilience_enabled:
            conn.deadline = now + self.ccfg.setup_timeout
            conn.retry_at = 0
        payload = ConfigPayload(ConfigType.SETUP, self.node, dst, slot0,
                                duration, conn.conn_id)
        self._send_config(dst, payload, now)
        self.setups_sent += 1
        if self.obs.enabled:
            self.obs.cs_setup(now, self._obs_track, conn.conn_id, "send",
                              dst=dst, slot=slot0)

    def _send_config(self, dst: int, payload: ConfigPayload,
                     now: int) -> None:
        payload.generation = getattr(self.clock, "generation", 0)
        msg = Message(src=self.node, dst=dst, mclass=MessageClass.CONFIG,
                      size_flits=1, create_cycle=now, payload=payload)
        self.ni.enqueue_ps(msg)

    def teardown(self, conn: Connection, now: int) -> None:
        """Send a teardown walking the tables from this source.

        Under the resilience protocol the connection enters TEARING and
        stays registered until the terminal router's TEARDOWN_ACK confirms
        the walk (or the retry budget runs out); otherwise it is forgotten
        fire-and-forget, as in the base protocol."""
        payload = ConfigPayload(ConfigType.TEARDOWN, self.node, conn.dst,
                                conn.slot0, conn.duration, conn.conn_id)
        self._send_config(conn.dst, payload, now)
        self.teardowns_sent += 1
        if self.obs.enabled:
            self.obs.cs_teardown(now, self._obs_track,
                                 conn.conn_id, "send")
        self.connections.pop(conn.dst, None)
        if self.ccfg.resilience_enabled:
            conn.state = ConnState.TEARING
            conn.deadline = now + self.ccfg.setup_timeout
            conn.retries = 0
            self._tearing[conn.conn_id] = conn
            # stays in by_id so the orphan GC treats its slots as live
        else:
            self.by_id.pop(conn.conn_id, None)

    def _evict_if_crowded(self, now: int) -> None:
        """Destroy the most idle connection when the local table is
        crowded (Section II-B: idle connections become candidates to be
        destroyed when new setup requests come in)."""
        table = self.router.slot_state.in_tables[LOCAL]
        active = self.clock.active
        if table.reserved_count(active) + self.reserve_duration \
                <= int(0.7 * active):
            return
        idle_conns = [c for c in self.connections.values()
                      if c.state is ConnState.ACTIVE
                      and now - c.last_used >= self.ccfg.idle_evict_cycles]
        if idle_conns:
            victim = min(idle_conns, key=lambda c: c.last_used)
            self.teardown(victim, now)

    # ------------------------------------------------------------------
    # inbound configuration handling (wired as ni.config_handler and
    # router.on_config_terminal)
    # ------------------------------------------------------------------
    def on_config(self, payload: ConfigPayload, cycle: int) -> None:
        """A CONFIG packet terminated at this node's NI."""
        if payload.ctype == ConfigType.SETUP:
            # setup reached its destination: reservation already made by
            # this node's router; acknowledge success back to the source
            ack = ConfigPayload(ConfigType.ACK_SUCCESS, payload.orig_src,
                                payload.orig_dst, payload.slot_id,
                                payload.duration, payload.conn_id)
            ack.orig_slot = payload.orig_slot
            self._send_config(payload.orig_src, ack, cycle)
        elif payload.ctype == ConfigType.ACK_SUCCESS:
            self._on_ack(payload, cycle, success=True)
        elif payload.ctype == ConfigType.ACK_FAIL:
            self._on_ack(payload, cycle, success=False)
        elif payload.ctype == ConfigType.TEARDOWN_ACK:
            conn = self._tearing.pop(payload.conn_id, None)
            if conn is not None:
                self.by_id.pop(conn.conn_id, None)
                self.teardowns_confirmed += 1
        elif payload.ctype == ConfigType.NACK_CIRCUIT:
            # a mid-path router reports this circuit crosses a dead link
            conn = self.by_id.get(payload.conn_id)
            if conn is not None and conn.state is ConnState.ACTIVE:
                self.circuits_nacked += 1
                self._note_pair_failure(conn.dst, cycle)
                self.teardown(conn, cycle)
        # teardown messages never terminate via the NI (they are consumed
        # inside routers), but ignore gracefully if one does

    def on_setup_rejected(self, payload: ConfigPayload, cycle: int) -> None:
        """Called by this node's *router* when it rejected a setup; sends
        the failure acknowledgement back to the requesting source."""
        ack = ConfigPayload(ConfigType.ACK_FAIL, payload.orig_src,
                            payload.orig_dst, payload.slot_id,
                            payload.duration, payload.conn_id)
        ack.orig_slot = payload.orig_slot
        ack.fail_node = self.node
        if payload.orig_src == self.node:
            # the rejection happened at the source router itself
            self._on_ack(ack, cycle, success=False)
        else:
            self._send_config(payload.orig_src, ack, cycle)

    def _on_ack(self, payload: ConfigPayload, cycle: int,
                success: bool) -> None:
        if self.obs.enabled:
            self.obs.cs_ack(cycle, self._obs_track,
                            payload.conn_id, success)
        conn = self.by_id.get(payload.conn_id)
        if self.size_controller is not None:
            self.size_controller.note_setup_result(success)
        if conn is None:
            # Stale ack: the connection record was dropped (table resize)
            # while the setup was in flight, and the setup may have
            # re-reserved slots after the reset.  Tear the path down so
            # nothing leaks; the walk is a no-op if nothing is reserved.
            tear = ConfigPayload(ConfigType.TEARDOWN, self.node,
                                 payload.orig_dst, payload.orig_slot,
                                 payload.duration, payload.conn_id)
            self._send_config(payload.orig_dst, tear, cycle)
            return
        if success:
            conn.state = ConnState.ACTIVE
            conn.next_round_min = 0
            self.setups_ok += 1
            since = self._fault_since.pop(conn.dst, None)
            if since is not None:
                # the pair recovered: a working circuit exists again
                self.recovery_samples.append(cycle - since)
            self._fail_streak.pop(conn.dst, None)
            return
        self.setups_failed += 1
        # destroy any partial reservations left along the path
        tear = ConfigPayload(ConfigType.TEARDOWN, self.node, conn.dst,
                             conn.slot0, conn.duration, conn.conn_id)
        self._send_config(conn.dst, tear, cycle)
        if conn.retries < self.ccfg.max_setup_retries:
            conn.retries += 1
            self._send_setup(conn.dst, cycle, conn=conn)
        else:
            self.connections.pop(conn.dst, None)
            self.by_id.pop(conn.conn_id, None)

    # ------------------------------------------------------------------
    # resilience: timeouts, backoff, demotion (control phase)
    # ------------------------------------------------------------------
    def control(self, cycle: int) -> None:
        """Time out lost setups / teardown walks (resilience mode only;
        the builder registers the manager as a SimObject only when
        ``circuit.setup_timeout > 0``)."""
        if not self.ccfg.resilience_enabled:
            return
        for conn in list(self.connections.values()):
            if conn.state is not ConnState.PENDING:
                continue
            if conn.retry_at:
                if cycle >= conn.retry_at:
                    conn.retry_at = 0
                    self._send_setup(conn.dst, cycle, conn=conn)
            elif conn.deadline and cycle >= conn.deadline:
                self._on_setup_timeout(conn, cycle)
        for conn in list(self._tearing.values()):
            if cycle >= conn.deadline:
                self._on_teardown_timeout(conn, cycle)

    def _backoff(self, retries: int) -> int:
        t = self.ccfg.setup_timeout
        return min(t * self.ccfg.backoff_factor ** (retries - 1),
                   t * self.ccfg.backoff_cap)

    def _on_setup_timeout(self, conn: Connection, cycle: int) -> None:
        """The SETUP or its acknowledgement was lost: clear any partial
        path, then retry after a backoff (or give up and demote)."""
        self.setups_timed_out += 1
        if self.obs.enabled:
            self.obs.cs_setup(cycle, self._obs_track,
                              conn.conn_id, "timeout")
        tear = ConfigPayload(ConfigType.TEARDOWN, self.node, conn.dst,
                             conn.slot0, conn.duration, conn.conn_id)
        self._send_config(conn.dst, tear, cycle)
        self.teardowns_sent += 1
        # drop the id: a delayed (not lost) ack now takes the stale-ack
        # path, which tears its reservations down idempotently
        self.by_id.pop(conn.conn_id, None)
        if conn.retries < self.ccfg.max_setup_retries:
            conn.retries += 1
            conn.retry_at = cycle + self._backoff(conn.retries)
        else:
            self._note_pair_failure(conn.dst, cycle)
            self.connections.pop(conn.dst, None)

    def _on_teardown_timeout(self, conn: Connection, cycle: int) -> None:
        """No TEARDOWN_ACK in time: re-walk, or abandon and leave the
        leftovers to the orphan GC."""
        self.teardowns_timed_out += 1
        if self.obs.enabled:
            self.obs.cs_teardown(cycle, self._obs_track,
                                 conn.conn_id, "timeout")
        if conn.retries < self.ccfg.max_setup_retries:
            conn.retries += 1
            conn.deadline = cycle + self._backoff(conn.retries)
            payload = ConfigPayload(ConfigType.TEARDOWN, self.node,
                                    conn.dst, conn.slot0, conn.duration,
                                    conn.conn_id)
            self._send_config(conn.dst, payload, cycle)
            self.teardowns_sent += 1
        else:
            self._tearing.pop(conn.conn_id, None)
            self.by_id.pop(conn.conn_id, None)

    def _note_pair_failure(self, dst: int, cycle: int) -> None:
        self._fault_since.setdefault(dst, cycle)
        n = self._fail_streak.get(dst, 0) + 1
        self._fail_streak[dst] = n
        if n >= self.ccfg.demote_threshold:
            self._demoted[dst] = cycle + self.ccfg.demote_cycles
            self.pairs_demoted += 1
            self._fail_streak.pop(dst, None)

    # ------------------------------------------------------------------
    # router fault callbacks (wired by the network builder)
    # ------------------------------------------------------------------
    def notify_circuit_fault(self, conn_id: int, src: int,
                             cycle: int) -> None:
        """This node's router diverted a circuit flit off a dead link;
        tell the circuit's source once so it can tear down and demote."""
        if not self.ccfg.resilience_enabled or conn_id in self._nacked:
            return
        self._nacked.add(conn_id)
        nack = ConfigPayload(ConfigType.NACK_CIRCUIT, src, self.node,
                             0, 0, conn_id)
        if src == self.node:
            self.on_config(nack, cycle)
        else:
            self._send_config(src, nack, cycle)

    def on_teardown_done(self, payload: ConfigPayload, cycle: int) -> None:
        """This node's router completed a teardown walk; confirm it to
        the source (resilience mode only — the base protocol is
        fire-and-forget and must stay message-for-message identical)."""
        if not self.ccfg.resilience_enabled:
            return
        ack = ConfigPayload(ConfigType.TEARDOWN_ACK, payload.orig_src,
                            payload.orig_dst, payload.slot_id,
                            payload.duration, payload.conn_id)
        if payload.orig_src == self.node:
            self.on_config(ack, cycle)
        else:
            self._send_config(payload.orig_src, ack, cycle)

    # ------------------------------------------------------------------
    def reset_all(self) -> None:
        """Drop every connection (slot tables were globally reset)."""
        self.connections.clear()
        self.by_id.clear()
        self._dst_counts.clear()
        self._vicinity_fail.clear()
        self._tearing.clear()
        self._fail_streak.clear()
        if self.dlt is not None:
            self.dlt.clear()
