"""Chaos harness: prove the sweep fabric survives induced failure.

``repro chaos`` runs one real supervised sweep twice:

* a **reference** run — serial (``jobs=1``), undisturbed — establishing
  the ground-truth rows and final state hashes for every point;
* a **chaos** run — parallel, across several resume cycles, while this
  harness injects the failure classes a farm actually sees:

  - **SIGKILL at random worker ages** (a seeded per-second hazard reads
    worker pids from the lease files and kills them mid-point);
  - **supervisor loss** (the whole supervisor process is SIGKILLed at a
    random moment, orphaning the run mid-parallel-flight);
  - **corruption between resume cycles** (random result files, checksum
    sidecars, observability artifacts, store objects and the manifest
    are truncated or bit-flipped);
  - **disk-full on artifact writes** (workers arm the store's seeded
    ENOSPC hook, so a fraction of result writes fail after spilling a
    partial tmp file).

The final cycle runs undisturbed, after which the harness asserts the
**chaos invariants**: the manifest is complete and passes its own
integrity hash, every per-point artifact validates against its recorded
checksum (including the content-addressed store copies), and the rows
*and state hashes* are point-for-point identical to the reference run.
Any violation lands in ``chaos-report.json`` and fails the command.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import random
import signal
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.config import CheckpointConfig, SupervisorConfig
from repro.harness import store
from repro.harness.supervisor import (build_sweep_points, lease_path,
                                      load_results, run_supervised_sweep,
                                      validate_result)


@dataclasses.dataclass
class ChaosConfig:
    """Knobs of one chaos campaign (all randomness from ``seed``)."""

    points: int = 8               #: sweep-grid size
    kill_rate: float = 0.3        #: per-second SIGKILL hazard per worker
    corrupt_rate: float = 0.4     #: per-file corruption probability/cycle
    diskfull_rate: float = 0.1    #: per-write ENOSPC probability (workers)
    supervisor_kill_rate: float = 0.5  #: P(kill the supervisor)/cycle
    cycles: int = 4               #: resume cycles (the last is clean)
    jobs: int = 2                 #: chaos-run concurrency
    seed: int = 0
    max_kills_per_point: int = 2  #: keep kills within the retry budget
    timeout_s: float = 120.0      #: per-point wall budget
    max_retries: int = 6          #: generous: kills + ENOSPC share it
    lease_ttl_s: float = 10.0
    heartbeat_interval_s: float = 0.5
    cycle_wall_s: float = 180.0   #: hard bound per disturbed cycle
    metrics: bool = True          #: per-point metrics artifacts (more
    #: checksum surface for the corruption pass)

    def __post_init__(self) -> None:
        if self.points < 1 or self.cycles < 2:
            raise ValueError("need >= 1 point and >= 2 cycles "
                             "(the final cycle must run clean)")
        for name in ("kill_rate", "corrupt_rate", "diskfull_rate",
                     "supervisor_kill_rate"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


def chaos_points(n: int, seed: int = 0, metrics: bool = True) -> List[Dict]:
    """A small deterministic (rate) grid sized for chaos campaigns."""
    rates = [round(0.05 + 0.35 * i / max(1, n - 1), 3) for i in range(n)]
    return build_sweep_points(
        ["packet_vc4"], "uniform_random", rates, seed=seed,
        width=3, height=3, slot_table_size=32,
        warmup=150, measure=250, metrics=metrics)


def _supervise_proc(points: List[Dict], run_dir: str,
                    sup_kw: Dict, ckpt_kw: Dict) -> None:
    """Module-level supervisor entry for the chaos subprocess."""
    run_supervised_sweep(points, run_dir, SupervisorConfig(**sup_kw),
                         CheckpointConfig(**ckpt_kw))


def _corruption_targets(run_dir: str) -> List[str]:
    """Files the corruption pass may attack.

    ``sweep.json`` is excluded: it is the sweep's source of truth — a
    run whose spec is destroyed is unrecoverable *by definition* (and
    its self-hash already guarantees the loss is detected, not acted
    on).  Lease files are transient scheduler state, also skipped.
    """
    targets = []
    manifest = os.path.join(run_dir, "manifest.json")
    if os.path.exists(manifest):
        targets.append(manifest)
    pdir = os.path.join(run_dir, "points")
    if os.path.isdir(pdir):
        targets.extend(os.path.join(pdir, n) for n in sorted(os.listdir(pdir))
                       if not n.endswith((".stderr", ".tmp", ".corrupt")))
    objdir = os.path.join(run_dir, "store", "objects")
    for sub in sorted(os.listdir(objdir)) if os.path.isdir(objdir) else []:
        subdir = os.path.join(objdir, sub)
        targets.extend(os.path.join(subdir, n)
                       for n in sorted(os.listdir(subdir)))
    return targets


def _corrupt_file(path: str, rng: random.Random) -> str:
    """Truncate or bit-flip *path* in place; returns what was done."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return "unreadable"
    if not data or rng.random() < 0.5:
        cut = rng.randrange(len(data)) if data else 0
        with open(path, "wb") as fh:
            fh.write(data[:cut])
        return f"truncated@{cut}"
    pos = rng.randrange(len(data))
    flipped = bytes([data[pos] ^ (1 << rng.randrange(8))])
    with open(path, "wb") as fh:
        fh.write(data[:pos] + flipped + data[pos + 1:])
    return f"bitflip@{pos}"


class _WorkerKiller:
    """Scans lease files and SIGKILLs live workers at a seeded hazard."""

    def __init__(self, run_dir: str, n_points: int, cfg: ChaosConfig,
                 rng: random.Random, cycle_start: float) -> None:
        self.run_dir = run_dir
        self.n_points = n_points
        self.cfg = cfg
        self.rng = rng
        self.cycle_start = cycle_start
        self.kills: List[Dict] = []
        self.kill_counts: Dict[int, int] = {}

    def scan(self, dt: float) -> None:
        hazard = min(1.0, self.cfg.kill_rate * dt)
        if hazard <= 0:
            return
        for index in range(self.n_points):
            if self.kill_counts.get(index, 0) \
                    >= self.cfg.max_kills_per_point:
                continue
            lease = store.read_json(lease_path(self.run_dir, index))
            if not lease or not lease.get("pid"):
                continue
            # never act on a stale lease from an earlier cycle: the pid
            # may have been reused by an unrelated process
            if lease.get("granted_unix", 0) < self.cycle_start - 0.5:
                continue
            if self.rng.random() >= hazard:
                continue
            try:
                os.kill(int(lease["pid"]), signal.SIGKILL)
            except (OSError, ValueError):
                continue
            self.kill_counts[index] = self.kill_counts.get(index, 0) + 1
            self.kills.append({"index": index, "pid": lease["pid"],
                               "attempt": lease.get("attempt"),
                               "age_s": round(
                                   time.time()
                                   - lease.get("granted_unix", 0), 3)})

    def kill_all(self) -> None:
        """Best-effort SIGKILL of every leased worker (orphan cleanup)."""
        for index in range(self.n_points):
            lease = store.read_json(lease_path(self.run_dir, index))
            if lease and lease.get("pid") \
                    and lease.get("granted_unix", 0) >= self.cycle_start - 0.5:
                try:
                    os.kill(int(lease["pid"]), signal.SIGKILL)
                except (OSError, ValueError):
                    pass


def validate_chaos_run(points: Sequence[Dict], run_dir: str,
                       reference: Sequence[Dict]) -> List[str]:
    """The chaos invariants; returns human-readable violations.

    1. the manifest exists, passes its integrity hash, and records
       every point completed with no failures;
    2. every per-point result and artifact validates against its
       checksums, and the manifest's recorded digests match the files;
    3. the content-addressed store holds an intact object for every
       recorded digest;
    4. rows and state hashes are point-for-point identical to
       *reference* (the undisturbed serial run).
    """
    problems: List[str] = []
    try:
        manifest = store.read_json_self_hashed(
            os.path.join(run_dir, "manifest.json"))
    except store.StoreCorruptError as exc:
        return [f"manifest failed integrity validation: {exc}"]
    if manifest is None:
        return ["manifest.json missing"]
    if manifest.get("completed") != len(points):
        problems.append(
            f"manifest incomplete: {manifest.get('completed')} of "
            f"{len(points)} points completed")
    if manifest.get("failures"):
        problems.append(
            f"manifest records {len(manifest['failures'])} failure(s)")

    artifacts = store.ArtifactStore(os.path.join(run_dir, "store"))
    records = manifest.get("points") or {}
    results = []
    for index, point in enumerate(points):
        data, sums = validate_result(run_dir, index, point)
        if data is None:
            problems.append(f"point {index}: {sums}")
            results.append(None)
            continue
        results.append(data)
        record = records.get(str(index)) or {}
        if record.get("sha256") != sums["result"]:
            problems.append(
                f"point {index}: manifest sha256 does not match the "
                f"validated result file")
        shas = [sums["result"]] + sorted((sums.get("artifacts") or {})
                                         .values())
        for sha in artifacts.fsck(shas):
            problems.append(
                f"point {index}: store object {sha[:16]}... missing "
                f"or corrupt")

    if len(reference) != len(points):
        problems.append(f"reference run has {len(reference)} results "
                        f"for {len(points)} points")
    for index, (got, want) in enumerate(zip(results, reference)):
        if got is None or want is None:
            continue
        if got["status"] != want["status"]:
            problems.append(f"point {index}: status {got['status']!r} != "
                            f"reference {want['status']!r}")
        if got["row"] != want["row"]:
            keys = [k for k in set(got["row"]) | set(want["row"])
                    if got["row"].get(k) != want["row"].get(k)]
            problems.append(f"point {index}: row differs from reference "
                            f"(keys: {sorted(keys)})")
    return problems


def run_chaos(cfg: ChaosConfig, run_dir: str,
              progress: Optional[Callable[[str], None]] = None) -> Dict:
    """One full chaos campaign; returns the (written) report dict."""
    t0 = time.time()
    log = progress or (lambda msg: None)
    rng = random.Random(cfg.seed)
    points = chaos_points(cfg.points, seed=1, metrics=cfg.metrics)
    os.makedirs(run_dir, exist_ok=True)

    sup_common = dict(
        enabled=True, timeout_s=cfg.timeout_s, backoff_s=0.05,
        backoff_cap_s=0.5, max_retries=cfg.max_retries,
        lease_ttl_s=cfg.lease_ttl_s,
        heartbeat_interval_s=cfg.heartbeat_interval_s)
    ckpt_kw = dataclasses.asdict(CheckpointConfig())

    log(f"reference: {len(points)} points, serial, undisturbed")
    ref_dir = os.path.join(run_dir, "reference")
    ref = run_supervised_sweep(points, ref_dir,
                               SupervisorConfig(jobs=1, **sup_common))
    report: Dict = {
        "config": dataclasses.asdict(cfg),
        "points": len(points),
        "kills": [], "supervisor_kills": 0, "corruptions": [],
        "supervisor_errors": 0, "cycles_run": 0,
    }
    if ref["failures"]:
        report.update(ok=False, problems=[
            f"reference run failed: {ref['failures']}"])
        _write_report(run_dir, report, t0)
        return report

    chaos_dir = os.path.join(run_dir, "chaos")
    chaos_grid = [dict(p) for p in points]
    if cfg.diskfull_rate > 0:
        for i, p in enumerate(chaos_grid):
            p["_chaos_diskfull"] = cfg.diskfull_rate
            p["_chaos_seed"] = cfg.seed * 1000003 + i

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        ctx = multiprocessing.get_context("spawn")

    for cycle in range(cfg.cycles):
        disturbed = cycle < cfg.cycles - 1
        report["cycles_run"] = cycle + 1
        cycle_start = time.time()
        grid = chaos_grid if disturbed else points
        proc = ctx.Process(
            target=_supervise_proc,
            args=(grid, chaos_dir, dict(sup_common, jobs=cfg.jobs),
                  ckpt_kw))
        proc.start()
        killer = _WorkerKiller(chaos_dir, len(points), cfg, rng,
                               cycle_start)
        sup_kill_at = None
        if disturbed and rng.random() < cfg.supervisor_kill_rate:
            # early in the cycle, while points are still in flight —
            # a kill scheduled after the supervisor exits tests nothing
            sup_kill_at = cycle_start + rng.uniform(0.15, 1.2)
        we_killed_supervisor = False
        last = time.time()
        while proc.is_alive():
            time.sleep(0.05)
            now = time.time()
            if disturbed:
                killer.scan(now - last)
            last = now
            over_wall = disturbed and now - cycle_start > cfg.cycle_wall_s
            if (sup_kill_at is not None and now >= sup_kill_at) or over_wall:
                killer.kill_all()   # no orphans left writing behind us
                proc.kill()
                we_killed_supervisor = True
                report["supervisor_kills"] += 1
                break
        proc.join()
        if proc.exitcode not in (0, None) and not we_killed_supervisor:
            report["supervisor_errors"] += 1
        if we_killed_supervisor:
            sup_desc = "KILLED mid-run"
        elif proc.exitcode == 0:
            sup_desc = "exited clean"
        else:
            sup_desc = f"exitcode {proc.exitcode}"
        log(f"cycle {cycle + 1}/{cfg.cycles}"
            f"{' (disturbed)' if disturbed else ' (clean)'}: "
            f"{len(killer.kills)} worker kill(s), supervisor {sup_desc}")
        report["kills"].extend(killer.kills)

        if disturbed:
            for target in _corruption_targets(chaos_dir):
                if rng.random() < cfg.corrupt_rate:
                    what = _corrupt_file(target, rng)
                    report["corruptions"].append({
                        "cycle": cycle + 1, "what": what,
                        "file": os.path.relpath(target, chaos_dir)})
            hits = [c for c in report["corruptions"]
                    if c["cycle"] == cycle + 1]
            if hits:
                log(f"  corrupted {len(hits)} file(s)")

    reference = load_results(ref_dir)
    problems = validate_chaos_run(points, chaos_dir, reference)
    report["ok"] = not problems
    report["problems"] = problems
    report["total_kills"] = len(report["kills"])
    report["total_corruptions"] = len(report["corruptions"])
    _write_report(run_dir, report, t0)
    return report


def _write_report(run_dir: str, report: Dict, t0: float) -> str:
    report["elapsed_s"] = round(time.time() - t0, 2)
    path = os.path.join(run_dir, "chaos-report.json")
    store.write_json_atomic(path, report)
    report["report_path"] = path
    return path
