"""Configuration dataclasses for the NoC models.

Defaults reproduce Table I of the paper:

=====================  ==========================================
Topology               36-node 2D mesh (6x6)
Technology             45 nm, 1.0 V, 1.5 GHz
Routing                minimal adaptive (configuration packets),
                       X-Y (all other packets)
Channel width          16 bytes
Packet size            1 flit (configuration), 4 flits
                       (circuit-switched), 5 flits (packet-switched
                       and circuit-switched with vicinity sharing)
Slot tables            128 entries
Virtual channels       4 per port
Buffer depth per VC    5 flits
=====================  ==========================================

Scheme presets (:func:`scheme_config`) give the exact configurations the
paper evaluates: ``packet_vc4``, ``hybrid_sdm_vc4``, ``hybrid_tdm_vc4``,
``hybrid_tdm_vct``, ``hybrid_tdm_hop_vc4`` and ``hybrid_tdm_hop_vct``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Tuple

#: Cache line size assumed throughout (bytes).  A data message is one line.
CACHE_LINE_BYTES = 64

#: Names of the evaluated network schemes.
SCHEMES = (
    "packet_vc4",
    "hybrid_sdm_vc4",
    "hybrid_tdm_vc4",
    "hybrid_tdm_vct",
    "hybrid_tdm_hop_vc4",
    "hybrid_tdm_hop_vct",
)


@dataclass
class RouterConfig:
    """Canonical virtual-channel wormhole router parameters."""

    num_vcs: int = 4              #: data virtual channels per input port
    vc_depth: int = 5             #: buffer depth (flits) per VC
    channel_width_bytes: int = 16  #: flit width == physical channel width
    #: Cycles between buffer write and earliest switch-allocation
    #: eligibility.  2 models the classic BW/RC -> VA/SA -> ST pipeline;
    #: together with the 1-cycle switch + 1-cycle link a packet-switched
    #: hop costs ``ps_pipeline_latency + 2`` cycles minimum.
    ps_pipeline_latency: int = 2
    #: Dedicated escape VC for single-flit configuration packets.  Kept
    #: separate from the data VCs so minimal-adaptive (odd-even) config
    #: routing cannot deadlock against X-Y data routing.
    config_vc_depth: int = 5

    def __post_init__(self) -> None:
        if self.num_vcs < 1:
            raise ValueError("num_vcs must be >= 1")
        if self.vc_depth < 1:
            raise ValueError("vc_depth must be >= 1")
        if self.channel_width_bytes < 1:
            raise ValueError("channel_width_bytes must be >= 1")
        if self.ps_pipeline_latency < 0:
            raise ValueError("ps_pipeline_latency must be >= 0")


@dataclass
class SlotTableConfig:
    """TDM slot-table parameters (Section II-C)."""

    size: int = 128               #: physical entries S per input port
    #: fraction of entries that may hold reservations before new slot
    #: allocation is prohibited (starvation guard, Section II-B)
    reserve_cap: float = 0.9
    #: Section II-C dynamic time-division granularity: start with a small
    #: active wheel (high per-circuit bandwidth, short slot waits) and
    #: double it whenever path allocation keeps failing, up to ``size``.
    dynamic_sizing: bool = True
    initial_active: int = 32      #: active entries at reset when dynamic
    #: consecutive network-wide setup failures that trigger a doubling
    resize_fail_threshold: int = 48

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ValueError("slot table size must be >= 2")
        if not (0.0 < self.reserve_cap <= 1.0):
            raise ValueError("reserve_cap must be in (0, 1]")
        if self.initial_active < 2 or self.initial_active > self.size:
            raise ValueError("initial_active must be in [2, size]")


@dataclass
class CircuitConfig:
    """Circuit-switching behaviour (Sections II-A, II-B, III-A)."""

    enabled: bool = True
    #: consecutive slots reserved per connection; 4 slots carry one 64 B
    #: cache line over 16 B flits.  Vicinity sharing adds 1 header slot.
    duration: int = 4
    #: messages to the same destination within ``freq_window`` cycles that
    #: make the pair "frequently communicating" and trigger a path setup
    setup_msg_threshold: int = 4
    freq_window: int = 512
    #: a failed setup is retried with a different slot id this many times
    #: before the source gives up (it will re-qualify via frequency later)
    max_setup_retries: int = 3
    #: connections idle for this many cycles become eviction candidates
    idle_evict_cycles: int = 4000
    #: hard cap on the slot wait a message accepts; beyond it the message
    #: is packet-switched regardless of queueing estimates (Section II-A).
    #: The latency comparison inside the decision handles the common case;
    #: this cap bounds worst-case round booking.
    stall_threshold: int = 128
    slot_stealing: bool = True    #: packet flits may steal idle CS slots
    hitchhiker: bool = False      #: Section III-A1 path sharing
    vicinity: bool = False        #: Section III-A2 path sharing
    dlt_size: int = 8             #: destination-lookup-table entries/node
    #: sharing failures (2-bit saturating counter) before a dedicated
    #: setup is generated; the paper uses the '10' state == 2 failures
    sharing_fail_threshold: int = 2
    # -- resilience (fault-injection studies) ---------------------------
    #: cycles a PENDING setup (or TEARING teardown) may remain
    #: unacknowledged before the manager times it out and retries.  0
    #: disables the whole resilience layer (the protocol then assumes a
    #: perfect fabric, the paper's implicit model).
    setup_timeout: int = 0
    #: retry-delay growth per timed-out attempt (bounded exponential
    #: backoff): attempt k is resent ``setup_timeout * backoff_factor**k``
    #: cycles after its timeout, capped at ``backoff_cap`` multiples.
    backoff_factor: int = 2
    backoff_cap: int = 8
    #: consecutive setup failures/timeouts to one destination before the
    #: pair is demoted to pure packet switching for ``demote_cycles``
    demote_threshold: int = 3
    demote_cycles: int = 4000

    def __post_init__(self) -> None:
        if self.duration < 1:
            raise ValueError("duration must be >= 1")
        if self.dlt_size < 1:
            raise ValueError("dlt_size must be >= 1")
        if self.setup_timeout < 0:
            raise ValueError("setup_timeout must be >= 0")
        if self.backoff_factor < 1 or self.backoff_cap < 1:
            raise ValueError("backoff parameters must be >= 1")
        if self.demote_threshold < 1 or self.demote_cycles < 0:
            raise ValueError("invalid demotion parameters")

    @property
    def resilience_enabled(self) -> bool:
        """True when the timeout/backoff/demotion machinery is active."""
        return self.setup_timeout > 0


@dataclass
class VCGatingConfig:
    """Aggressive VC power gating (Section III-B)."""

    enabled: bool = False
    epoch: int = 256              #: cycles between utilisation checks
    threshold_high: float = 0.55  #: activate one more VC above this
    threshold_low: float = 0.20   #: deactivate one VC below this
    min_vcs: int = 2              #: never gate below this many VCs/port
    #: gating metric: 'utilisation' (the paper's policy) or 'queue_delay'
    #: (the Section V-B4 future-work suggestion: gate on packet latency)
    metric: str = "utilisation"
    #: queue-delay thresholds in cycles (used when metric='queue_delay')
    delay_high: float = 8.0
    delay_low: float = 3.5

    def __post_init__(self) -> None:
        if not (0.0 <= self.threshold_low < self.threshold_high <= 1.0):
            raise ValueError("need 0 <= low < high <= 1")
        if self.min_vcs < 1:
            raise ValueError("min_vcs must be >= 1")
        if self.metric not in ("utilisation", "queue_delay"):
            raise ValueError(f"unknown gating metric {self.metric!r}")
        if not (0.0 <= self.delay_low < self.delay_high):
            raise ValueError("need 0 <= delay_low < delay_high")


@dataclass
class FaultConfig:
    """Deterministic, seeded fault injection (see ``repro.faults``).

    All stochastic draws come from the simulation-global generator, so a
    ``(seed, config)`` pair fully determines which faults strike and
    when.  Disabled by default: a default-config run performs zero extra
    RNG draws and is bit-identical to a build without this subsystem.
    """

    enabled: bool = False
    #: probability that an injected CONFIG message (SETUP / TEARDOWN /
    #: ACK) is silently lost before entering the network
    config_drop_rate: float = 0.0
    #: number of directed inter-router links that fail permanently ...
    link_fail_count: int = 0
    #: ... at this cycle
    link_fail_cycle: int = 1000
    #: per-cycle probability of a transient link blackout striking a
    #: random healthy directed link for ``transient_duration`` cycles
    transient_link_rate: float = 0.0
    transient_duration: int = 200
    #: per-cycle probability of a random router stalling (its transfer
    #: phase frozen) for ``router_stall_duration`` cycles
    router_stall_rate: float = 0.0
    router_stall_duration: int = 50
    #: per-cycle probability of corrupting (invalidating) one reserved
    #: slot-table entry of a random router input port
    slot_corrupt_rate: float = 0.0
    #: orphaned-reservation garbage collection period (cycles; 0 = off)
    orphan_gc_interval: int = 2048
    # -- watchdog -------------------------------------------------------
    watchdog: bool = True       #: install the sim watchdog when enabled
    watchdog_interval: int = 512   #: cycles between watchdog checks
    #: consecutive no-progress checks (with work in flight) that raise
    #: :class:`repro.sim.kernel.LivelockError`
    watchdog_patience: int = 4
    audit: bool = True          #: run the flit-conservation audit

    def __post_init__(self) -> None:
        for name in ("config_drop_rate", "transient_link_rate",
                     "router_stall_rate", "slot_corrupt_rate"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be in [0, 1]")
        if self.link_fail_count < 0:
            raise ValueError("link_fail_count must be >= 0")
        if self.watchdog_interval < 1 or self.watchdog_patience < 1:
            raise ValueError("watchdog parameters must be >= 1")


@dataclass
class SDMConfig:
    """Space-division-multiplexed hybrid baseline (Jerger et al. [5])."""

    planes: int = 4               #: physical link partitions

    def __post_init__(self) -> None:
        if self.planes < 2:
            raise ValueError("SDM needs at least 2 planes")


@dataclass
class CheckpointConfig:
    """Crash-safe snapshotting of long runs (off by default: zero
    overhead, bit-identical default artefacts)."""

    enabled: bool = False
    interval_cycles: int = 0      #: snapshot period; 0 = only explicit
    directory: str = ""           #: where snapshots land ("" = run dir)
    keep: int = 2                 #: rotated snapshots retained on disk

    def __post_init__(self) -> None:
        if self.interval_cycles < 0:
            raise ValueError("interval_cycles must be >= 0")
        if self.keep < 1:
            raise ValueError("keep must be >= 1")


@dataclass
class SupervisorConfig:
    """Supervised sweep execution: per-point subprocesses with timeouts
    and capped-backoff retries (off by default)."""

    enabled: bool = False
    timeout_s: float = 300.0      #: wall-clock budget per sweep point
    max_retries: int = 2          #: retries for transient failures
    backoff_s: float = 1.0        #: first retry delay
    backoff_factor: float = 2.0   #: exponential growth per retry
    backoff_cap_s: float = 30.0   #: delay ceiling
    jobs: int = 0                 #: concurrent points; 0 = os.cpu_count()
    #: heartbeat staleness after which a point's lease is reclaimed and
    #: the point re-queued — catches workers that die without an
    #: observable exit status (SIGKILL, OOM, host loss).  0 disables
    #: lease expiry (exit-status supervision only).
    lease_ttl_s: float = 60.0
    #: period of the worker-side heartbeat file writes
    heartbeat_interval_s: float = 1.0

    def __post_init__(self) -> None:
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.jobs < 0:
            raise ValueError("jobs must be >= 0 (0 = one per CPU)")
        if self.backoff_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be > 0")
        if self.lease_ttl_s < 0:
            raise ValueError("lease_ttl_s must be >= 0 (0 = disabled)")
        if 0 < self.lease_ttl_s <= self.heartbeat_interval_s:
            raise ValueError(
                f"heartbeat_interval_s ({self.heartbeat_interval_s}) must "
                f"be smaller than lease_ttl_s ({self.lease_ttl_s}): a "
                f"worker that heartbeats slower than its lease TTL is "
                f"guaranteed to be reclaimed as dead while healthy")
        if 0 < self.lease_ttl_s < 2 * self.heartbeat_interval_s:
            raise ValueError(
                f"lease_ttl_s ({self.lease_ttl_s}) must be at least 2x "
                f"heartbeat_interval_s ({self.heartbeat_interval_s}): one "
                f"delayed heartbeat would otherwise expire a healthy "
                f"worker's lease")


@dataclass
class NetworkConfig:
    """Complete description of one simulated network instance."""

    width: int = 6
    height: int = 6
    router: RouterConfig = field(default_factory=RouterConfig)
    slot_table: SlotTableConfig = field(default_factory=SlotTableConfig)
    circuit: CircuitConfig = field(default_factory=CircuitConfig)
    vc_gating: VCGatingConfig = field(default_factory=VCGatingConfig)
    sdm: SDMConfig = field(default_factory=SDMConfig)
    faults: FaultConfig = field(default_factory=FaultConfig)
    checkpoint: CheckpointConfig = field(default_factory=CheckpointConfig)
    supervisor: SupervisorConfig = field(default_factory=SupervisorConfig)
    #: 'packet', 'tdm' or 'sdm'
    switching: str = "tdm"

    def __post_init__(self) -> None:
        if self.width < 2 or self.height < 2:
            raise ValueError("mesh must be at least 2x2")
        if self.switching not in ("packet", "tdm", "sdm"):
            raise ValueError(f"unknown switching mode {self.switching!r}")
        if self.switching == "sdm" and self.vc_gating.enabled:
            # the SDM router's planes*num_vcs data VCs have no gating
            # model: the controller would read zero utilisation and gate
            # every router down while its planes carry traffic
            raise ValueError("VC gating is not supported with SDM switching")

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.width * self.height

    @property
    def data_flits_per_line(self) -> int:
        """Flits needed for one cache line on the full channel width."""
        w = self.router.channel_width_bytes
        return -(-CACHE_LINE_BYTES // w)  # ceil div

    def packet_size(self, kind: str) -> int:
        """Packet sizes from Table I.

        ``config``  -> 1 flit
        ``cs_data`` -> 4 flits (cache line, no head needed on a circuit)
        ``ps_data`` -> 5 flits (head + cache line)
        ``cs_vicinity`` -> 5 flits (header flit needed after hop-off)
        ``ctrl``    -> 1 flit (request/coherence control message)
        """
        d = self.data_flits_per_line
        sizes = {
            "config": 1,
            "ctrl": 1,
            "cs_data": d,
            "ps_data": d + 1,
            "cs_vicinity": d + 1,
        }
        try:
            return sizes[kind]
        except KeyError:
            raise ValueError(f"unknown packet kind {kind!r}") from None


def scheme_config(
    scheme: str,
    width: int = 6,
    height: int = 6,
    slot_table_size: int = 128,
    **overrides,
) -> NetworkConfig:
    """Build the :class:`NetworkConfig` for a named paper scheme.

    ``overrides`` are applied to the top-level :class:`NetworkConfig`
    via :func:`dataclasses.replace` after the preset is constructed.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")

    cfg = NetworkConfig(
        width=width,
        height=height,
        slot_table=SlotTableConfig(
            size=slot_table_size,
            initial_active=min(32, slot_table_size)),
    )
    if scheme == "packet_vc4":
        cfg = replace(cfg, switching="packet",
                      circuit=replace(cfg.circuit, enabled=False))
    elif scheme == "hybrid_sdm_vc4":
        cfg = replace(cfg, switching="sdm")
    elif scheme == "hybrid_tdm_vc4":
        cfg = replace(cfg, switching="tdm")
    elif scheme == "hybrid_tdm_vct":
        cfg = replace(cfg, switching="tdm",
                      vc_gating=replace(cfg.vc_gating, enabled=True))
    elif scheme == "hybrid_tdm_hop_vc4":
        cfg = replace(cfg, switching="tdm",
                      circuit=replace(cfg.circuit, hitchhiker=True,
                                      vicinity=True))
    elif scheme == "hybrid_tdm_hop_vct":
        cfg = replace(
            cfg,
            switching="tdm",
            circuit=replace(cfg.circuit, hitchhiker=True, vicinity=True),
            vc_gating=replace(cfg.vc_gating, enabled=True),
        )
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


def config_as_dict(cfg: NetworkConfig) -> dict:
    """Flatten a config to a plain dict (for reports and CSV headers)."""
    return dataclasses.asdict(cfg)


def table_i_summary(cfg: NetworkConfig) -> Tuple[Tuple[str, str], ...]:
    """Render the Table-I style parameter summary for *cfg*."""
    r = cfg.router
    return (
        ("Topology", f"{cfg.num_nodes}-node, 2D-Mesh ({cfg.width}x{cfg.height})"),
        ("Technology", "45nm technology at 1.0V, 1.5GHz"),
        ("Routing", "Minimal Adaptive (configuration packet); X-Y (other packet)"),
        ("Channel Width", f"{r.channel_width_bytes} Bytes"),
        ("Packet Size", "1 flit (config); "
                        f"{cfg.packet_size('cs_data')} flits (circuit-switched); "
                        f"{cfg.packet_size('ps_data')} flits (packet-switched)"),
        ("Slot Tables", f"{cfg.slot_table.size} entries"),
        ("Virtual Channels", f"{r.num_vcs}/port"),
        ("Buffer size per VC", f"{r.vc_depth} in depth"),
    )
