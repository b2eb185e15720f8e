"""One repetition of a paper-benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so imports, first
builds and peak memory never carry over from one repetition (or
workload) to the next.  It prints one JSON object on stdout:

* ``setup_s``: from the start of this script, through importing
  the simulator and building one network per scheme the workload uses,
  to the start of the timed pass;
* ``wall_s`` / ``point_s``: the untraced pass and each point the
  benchmark's hook timed (``points`` counts all of them);
* ``peak_rss_mb``: the process's peak resident set size;
* ``problems``: output-check failures, one list per point;
* with ``--trace 1``, a second, traced pass: ``traced_wall_s``, the
  layer ledger and the accounting residue ``unaccounted_s``.

Every time is read from a :class:`speed.SpeedClock` (host seconds at
nominal host speed, see speed.py) except ``raw_wall_s``, which is plain
host seconds.  The clock's probe runs in this process, so it can only
tell host noise from the program's own load while the program uses one
CPU.  Each timed region therefore also reads the CPU time of this
process and its reaped children (``cpu_s`` for the pass); when that is
more than ``MAX_CPUS`` times the region's host seconds, the program ran
in parallel and the region reports host seconds instead.

Run it through ``run.py``; on its own it skips the environment pinning.
"""

import argparse
import json
import os
import resource
import sys
from time import perf_counter

from speed import SpeedClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: relative change applied to the reference by ``--perturb``
PERTURBATION = 1e-6
#: a region whose process tree used more CPUs than this on average ran
#: in parallel; the probe then competes with the program itself
MAX_CPUS = 1.2


def cpu_seconds() -> float:
    """User plus system seconds of this process and its reaped
    children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def serial(raw_s: float, cpu_s: float) -> bool:
    """Whether a region that took *raw_s* host seconds and *cpu_s* CPU
    seconds ran on one CPU, so its speed-normalised time holds."""
    return cpu_s <= MAX_CPUS * raw_s


def main(clock: SpeedClock, raw_start: float, cpu_start: float) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--perturb", default="")
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported repro from {repro.__file__}, "
                         f"not from {SRC}")
    import workloads
    from ledger import Ledger

    spec = workloads.WORKLOADS[args.workload]
    workloads.pin_run_length(spec)
    sim_seed, ref_spec, reference = workloads.load_reference(
        args.workload, args.seed)
    if args.perturb:
        reference = {label: dict(stats, **{args.perturb: stats[args.perturb]
                                           * (1 + PERTURBATION)})
                     for label, stats in reference.items()}
    engine = workloads.warm_build(spec, sim_seed)
    setup_s, raw_setup_s = clock.now(), perf_counter() - raw_start
    if not serial(raw_setup_s, cpu_seconds() - cpu_start):
        setup_s = raw_setup_s

    cpu0 = cpu_seconds()
    plain = workloads.run_pass(spec, sim_seed, clock=clock.now)
    cpu_s = cpu_seconds() - cpu0
    normalised = serial(plain.raw_wall_s, cpu_s)
    if ref_spec != spec:
        for p in plain.points:
            p.problems.append("reference was made for another workload "
                              "definition; run make_reference.py")
    else:
        workloads.check_against(plain.points, reference)
    out = {"workload": args.workload, "seed": args.seed,
           "sim_seed": sim_seed, "engine": engine, "setup_s": setup_s,
           "wall_s": plain.wall_s if normalised else plain.raw_wall_s,
           "raw_wall_s": plain.raw_wall_s, "cpu_s": cpu_s,
           "normalised": normalised, "points": len(plain.points),
           "point_s": {p.label: p.seconds if normalised else p.raw_seconds
                       for p in plain.points if p.seconds is not None},
           "problems": {p.label: p.problems for p in plain.points},
           "unaudited": {p.label: p.unaudited for p in plain.points
                         if p.unaudited}}

    if args.trace:
        ledger = Ledger(clock.now)
        ledger.calibrate()
        cpu0 = cpu_seconds()
        traced = workloads.run_pass(spec, sim_seed, ledger, clock.now)
        traced_serial = serial(traced.raw_wall_s, cpu_seconds() - cpu0)
        for p, q in zip(plain.points, traced.points, strict=True):
            if p.stats != q.stats:
                out["problems"][p.label].append(
                    f"traced statistics {q.stats} differ from untraced "
                    f"{p.stats}")
        out["traced_wall_s"] = (traced.wall_s if traced_serial
                                else traced.raw_wall_s)
        out["ledger"] = ledger.metrics()
        out["unaccounted_s"] = ledger.unaccounted_s()

    clock.stop()
    out["host_slowdown"] = clock.slowdown()
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    RAW_START, CPU_START = perf_counter(), cpu_seconds()
    CLOCK = SpeedClock()
    CLOCK.start()
    sys.exit(main(CLOCK, RAW_START, CPU_START))
