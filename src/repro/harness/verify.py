"""Deterministic-replay and engine-equivalence verification.

The kernel promises that "runs are exactly reproducible"; this module
checks the promise end to end through the snapshot machinery:

1. run A for ``pre_cycles``; capture a snapshot and its state hash h0;
2. continue A for ``post_cycles``; capture the final hash h1 and a
   stats fingerprint;
3. build a fresh run B through the same construction path, restore the
   snapshot, and require B's re-captured hash to equal h0 (restore is
   faithful / idempotent);
4. run B for ``post_cycles`` and require the final hash and stats
   fingerprint to match A's.

Any divergence means hidden state escaped the snapshot protocol (or a
component drew randomness outside ``Simulator.rng``) and fails loudly —
``repro verify-replay`` runs this in CI.

:func:`verify_equivalence` extends the same exact-oracle idea to the
optimised schedulers (see :mod:`repro.sim.kernel`): N builds of the
identical workload — one per engine, ``("legacy", "fast", "batch")`` by
default — run in lockstep, and every ``interval`` cycles each must
produce the same canonical ``state_hash`` and stats fingerprint as the
baseline (first) engine.  The fast engine's component-skipping and the
batch engine's compiled fast-forward are thereby gated by bit-exact
equality against the run-everything scheduler rather than eyeballed
figures; ``repro verify-equivalence`` runs this three-way in CI.  On
divergence the report localises the first divergent checkpoint and
names the engines that broke from the baseline
(:func:`compare_engine_runs` is the pure comparison core).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Sequence, Tuple

from repro.config import FaultConfig, scheme_config
from repro.harness.runner import prepare_synthetic
from repro.sim.checkpoint import capture_state, restore_state, state_hash
from repro.sim.kernel import LivelockError


@dataclass
class ReplayReport:
    """Outcome of one verify-replay experiment."""

    scheme: str
    pattern: str
    rate: float
    pre_cycles: int
    post_cycles: int
    ok: bool
    restore_hash_ok: bool       #: restore reproduced the snapshot state
    final_hash_ok: bool         #: replayed run reached identical state
    stats_ok: bool              #: replayed stats fingerprint identical
    hash_at_snapshot: str
    hash_original: str          #: end-state hash of the uninterrupted run
    hash_replayed: str          #: end-state hash after restore + re-run
    mismatches: List[str] = field(default_factory=list)


def _stats_fingerprint(sim, net) -> Dict:
    """Cheap human-diffable summary used alongside the full state hash."""
    return {
        "cycle": sim.cycle,
        "messages_delivered": net.messages_delivered,
        "packets_ejected": net.packets_ejected,
        "flits_ejected": net.flits_ejected,
        "pkt_latency_count": net.pkt_latency.count,
        "pkt_latency_sum": float(sum(net.pkt_latency.samples)),
        "ledger": net.ledger.as_dict(),
    }


def verify_replay(scheme: str, pattern: str = "transpose",
                  rate: float = 0.15, pre_cycles: int = 600,
                  post_cycles: int = 600, seed: int = 1,
                  width: int = 4, height: int = 4,
                  slot_table_size: int = 64) -> ReplayReport:
    """Snapshot mid-run, restore into a fresh build, re-run, compare."""
    build = dict(seed=seed, width=width, height=height,
                 slot_table_size=slot_table_size)

    # --- run A: uninterrupted reference --------------------------------
    sim_a, net_a, _ = prepare_synthetic(scheme, pattern, rate, **build)
    try:
        sim_a.run(pre_cycles)
        snap = capture_state(sim_a, net_a)
        h0 = state_hash(snap)
        sim_a.run(post_cycles)
    except LivelockError as exc:
        raise RuntimeError(
            f"verify-replay reference run livelocked at {exc.cycle}; "
            f"choose a lower rate") from exc
    h1 = state_hash(capture_state(sim_a, net_a))
    fp_a = _stats_fingerprint(sim_a, net_a)

    # --- run B: fresh build, restore, replay ---------------------------
    sim_b, net_b, _ = prepare_synthetic(scheme, pattern, rate, **build)
    restore_state(sim_b, net_b, snap)
    h0_restored = state_hash(capture_state(sim_b, net_b))
    restore_hash_ok = h0_restored == h0
    try:
        sim_b.run(post_cycles)
    except LivelockError as exc:
        raise RuntimeError(
            f"verify-replay replayed run livelocked at {exc.cycle} "
            f"while the reference did not — determinism broken") from exc
    h2 = state_hash(capture_state(sim_b, net_b))
    fp_b = _stats_fingerprint(sim_b, net_b)

    final_hash_ok = h2 == h1
    mismatches: List[str] = []
    if not restore_hash_ok:
        mismatches.append(
            f"restore hash {h0_restored[:16]} != snapshot hash {h0[:16]}")
    if not final_hash_ok:
        mismatches.append(
            f"final hash {h2[:16]} != reference {h1[:16]}")
    for key in fp_a:
        if fp_a[key] != fp_b[key]:
            mismatches.append(f"stats {key}: {fp_a[key]!r} != {fp_b[key]!r}")
    stats_ok = all(fp_a[key] == fp_b[key] for key in fp_a)

    return ReplayReport(
        scheme=scheme, pattern=pattern, rate=rate,
        pre_cycles=pre_cycles, post_cycles=post_cycles,
        ok=restore_hash_ok and final_hash_ok and stats_ok,
        restore_hash_ok=restore_hash_ok,
        final_hash_ok=final_hash_ok,
        stats_ok=stats_ok,
        hash_at_snapshot=h0,
        hash_original=h1,
        hash_replayed=h2,
        mismatches=mismatches,
    )


# ---------------------------------------------------------------------------
# differential engine equivalence
# ---------------------------------------------------------------------------
#: engines compared by default: the run-everything oracle first (it is
#: the baseline every other engine is diffed against), then both
#: optimised schedulers
DEFAULT_ENGINES: Tuple[str, ...] = ("legacy", "fast", "batch")


@dataclass
class EquivalenceReport:
    """Outcome of one N-way differential run.

    The first engine in :attr:`engines` is the baseline; every other
    engine's per-checkpoint hashes and stats fingerprints are compared
    against it.  :attr:`final_hashes` maps engine name to its end-state
    hash; :attr:`divergent_engines` names the engines that differed
    from the baseline at the first divergent checkpoint."""

    scheme: str
    pattern: str
    rate: float
    cycles: int
    interval: int
    seed: int
    engines: Tuple[str, ...]
    ok: bool
    checkpoints: int                 #: checkpoints compared
    first_divergence: int            #: cycle of first mismatch (-1 if none)
    final_hashes: Dict[str, str]
    divergent_engines: List[str] = field(default_factory=list)
    mismatches: List[str] = field(default_factory=list)


def compare_engine_runs(engines: Sequence[str],
                        hashes: Dict[str, List[str]],
                        fingerprints: Dict[str, List[Dict]],
                        interval: int, cycles: int,
                        ) -> Tuple[int, List[str], List[str]]:
    """Diff per-checkpoint observations of N engines against the first.

    Pure comparison (no simulation): *hashes* and *fingerprints* map
    engine name to per-checkpoint lists, all the same length.  Returns
    ``(first_divergence_cycle, divergent_engines, mismatch_messages)``
    with ``first_divergence_cycle == -1`` when every engine matches the
    baseline everywhere.  Comparison stops at the first divergent
    checkpoint (later checkpoints of an already-divergent trajectory
    carry no extra localisation information)."""
    if len(engines) < 2:
        raise ValueError("need at least two engines to compare")
    baseline = engines[0]
    n = len(hashes[baseline])
    for name in engines:
        if len(hashes[name]) != n or len(fingerprints[name]) != n:
            raise ValueError(
                f"engine {name!r} produced {len(hashes[name])} checkpoints, "
                f"baseline {baseline!r} produced {n}")
    mismatches: List[str] = []
    divergent: List[str] = []
    for i in range(n):
        done = min((i + 1) * interval, cycles)
        base_hash = hashes[baseline][i]
        base_fp = fingerprints[baseline][i]
        for name in engines[1:]:
            if hashes[name][i] == base_hash:
                continue
            divergent.append(name)
            mismatches.append(
                f"state hash at cycle {done}: {baseline} "
                f"{base_hash[:16]} != {name} {hashes[name][i][:16]}")
            fp = fingerprints[name][i]
            for key in base_fp:
                if base_fp[key] != fp[key]:
                    mismatches.append(
                        f"stats {key} at cycle {done} ({name}): "
                        f"{base_fp[key]!r} != {fp[key]!r}")
        if divergent:
            return done, divergent, mismatches
    return -1, [], []


def verify_equivalence(scheme: str, pattern: str = "uniform_random",
                       rate: float = 0.12, cycles: int = 300,
                       interval: int = 100, seed: int = 1,
                       width: int = 4, height: int = 4,
                       slot_table_size: int = 32,
                       stop_cycle: int | None = None,
                       engines: Sequence[str] = DEFAULT_ENGINES,
                       faults: Dict | None = None) -> EquivalenceReport:
    """Run one workload under N engines, compare state at checkpoints.

    Every run is built through :func:`prepare_synthetic` from the same
    seed and advanced ``interval`` cycles at a time; at every checkpoint
    the canonical state hash and the stats fingerprint must agree
    exactly with the first (baseline) engine's.  ``stop_cycle``, when set,
    stops the traffic sources mid-run so the drain/quiescent path —
    where the fast engine sleeps components and the batch engine
    fast-forwards — is exercised, not just the saturated path.
    ``faults``, when set, is a dict of
    :class:`~repro.config.FaultConfig` field overrides enabling the
    fault-injection subsystem for every engine (which makes the
    optimised engines fall back to run-everything scheduling — the
    differential check then guards exactly that fallback)."""
    if interval < 1:
        raise ValueError("interval must be >= 1")
    engines = tuple(engines)
    if len(engines) < 2:
        raise ValueError("need at least two engines to compare")
    for name in engines:
        if engines.count(name) > 1:
            raise ValueError(f"duplicate engine {name!r}")
    cfg = scheme_config(scheme, width=width, height=height,
                        slot_table_size=slot_table_size)
    if faults is not None:
        cfg = replace(cfg, faults=FaultConfig(enabled=True, **faults))

    def _run(engine: str):
        sim, net, sources = prepare_synthetic(scheme, pattern, rate,
                                              engine=engine, seed=seed,
                                              width=width, height=height,
                                              slot_table_size=slot_table_size,
                                              cfg=cfg)
        if stop_cycle is not None:
            for src in sources:
                src.stop_cycle = stop_cycle
        hashes: List[str] = []
        fps: List[Dict] = []
        done = 0
        while done < cycles:
            chunk = min(interval, cycles - done)
            try:
                sim.run(chunk)
            except LivelockError as exc:
                raise RuntimeError(
                    f"equivalence {engine} run livelocked at {exc.cycle};"
                    f" choose a lower rate") from exc
            done += chunk
            hashes.append(state_hash(capture_state(sim, net)))
            fps.append(_stats_fingerprint(sim, net))
        return hashes, fps

    all_hashes: Dict[str, List[str]] = {}
    all_fps: Dict[str, List[Dict]] = {}
    for engine in engines:
        all_hashes[engine], all_fps[engine] = _run(engine)

    first_divergence, divergent, mismatches = compare_engine_runs(
        engines, all_hashes, all_fps, interval, cycles)

    return EquivalenceReport(
        scheme=scheme, pattern=pattern, rate=rate, cycles=cycles,
        interval=interval, seed=seed, engines=engines,
        ok=not mismatches,
        checkpoints=len(all_hashes[engines[0]]),
        first_divergence=first_divergence,
        final_hashes={name: (all_hashes[name][-1] if all_hashes[name] else "")
                      for name in engines},
        divergent_engines=divergent,
        mismatches=mismatches,
    )
