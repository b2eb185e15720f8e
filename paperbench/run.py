"""Paper-point wall-clock benchmark: the command BENCHMARK.json names.

Usage, from the repository root::

    python3 paperbench/run.py --workload sat_grid --seed 1 --seconds 30 \\
        --trace 0

Each repetition of the workload runs in a fresh interpreter
(``rep.py``), one after another, until the next one would end after
``--seconds``; every metric is the median over repetitions.  The child
environment is pinned: ``REPRO_*`` settings are cleared (the workload
fixes its own run length), hash randomisation is fixed and numeric
libraries get one thread.

Output: provenance, a table of every metric with its unit, and as the
last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (the ``end_to_end`` metrics of BENCHMARK.json with
``--trace 0``, the ``per_layer`` ones with ``--trace 1``).  A point
fails its output check on a livelock note, a flit-conservation
imbalance, zero delivered messages, statistics that differ from
``reference.json``, or (traced) statistics that differ from the
untraced pass; any failure makes the exit code 1.  A check that cannot
run on a point is printed as ``UNAUDITED`` (see README.md).
``--perturb STAT`` shifts STAT in the reference by a relative 1e-6,
which must make every point fail.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: a run must end within this many seconds
DEADLINE_S = 170.0


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def provenance() -> dict:
    """Commit (when the tree is a git checkout) and a hash of the
    simulator sources, which identifies the code in any checkout."""
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16],
            "nproc": os.cpu_count(), "python": sys.version.split()[0]}


def run_rep(args, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "rep.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace)]
    if args.perturb:
        cmd += ["--perturb", args.perturb]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"repetition failed with exit code "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def aggregate(reps) -> dict:
    """Per-metric medians over repetitions.  The slowest point is the
    point with the largest median; when the hook could not time every
    point, it is the whole pass, an upper limit."""
    med = statistics.median
    wall_s = med(r["wall_s"] for r in reps)
    if all(len(r["point_s"]) == r["points"] for r in reps):
        slowest = max(med(r["point_s"][label] for r in reps)
                      for label in reps[0]["point_s"])
    else:
        slowest = wall_s
    out = {
        "wall_s": wall_s,
        "raw_wall_s": med(r["raw_wall_s"] for r in reps),
        "cpu_s": med(r["cpu_s"] for r in reps),
        "host_slowdown": med(r["host_slowdown"] for r in reps),
        "normalised_frac": (sum(r["normalised"] for r in reps)
                            / len(reps)),
        "slowest_point_s": slowest,
        "setup_s": med(r["setup_s"] for r in reps),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in reps),
    }
    if "ledger" in reps[0]:
        for name in reps[0]["ledger"]:
            out[name] = med(r["ledger"].get(name, 0.0) for r in reps)
        out["harness.runner.points"] = reps[0]["points"]
        out["harness.runner.point_s"] = med(sum(r["point_s"].values())
                                            for r in reps)
        out["trace.overhead_s"] = med(r["traced_wall_s"] - r["wall_s"]
                                      for r in reps)
        out["trace.unaccounted_s"] = max(abs(r["unaccounted_s"])
                                         for r in reps)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(
        description="Paper-point wall-clock benchmark (see README.md)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--perturb", default="",
                    help="shift this reference statistic (self-check)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    start = time.monotonic()
    deadline = start + DEADLINE_S
    reps, durations = [], []
    while True:
        t0 = time.monotonic()
        reps.append(run_rep(args, deadline))
        durations.append(time.monotonic() - t0)
        finish = time.monotonic() - start + statistics.median(durations)
        if finish > args.seconds or finish > DEADLINE_S - 5:
            break

    values = aggregate(reps)
    attempted = sum(len(r["problems"]) for r in reps)
    failures = [(r["seed"], label, problems) for r in reps
                for label, problems in r["problems"].items() if problems]
    failed = len(failures)

    info = dict(provenance(), workload=args.workload, seed=args.seed,
                sim_seed=reps[0]["sim_seed"], engine=reps[0]["engine"],
                repetitions=len(reps), trace=args.trace)
    print("provenance " + json.dumps(info, sort_keys=True))
    for seed, label, problems in failures:
        print(f"FAILED seed {seed} {label}: {'; '.join(problems)}")
    unaudited = {label: why for r in reps
                 for label, why in r["unaudited"].items()}
    for label, why in sorted(unaudited.items()):
        print(f"UNAUDITED {label}: {'; '.join(why)}")
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    units.update(host_slowdown="x", normalised_frac="frac")
    rows = [(m["name"], values.get(m["name"]), m["unit"]) for m in wanted]
    rows.append(("failed_frac", failed / attempted, "frac"))
    rows.append(("unaudited_points", len(unaudited), "count"))
    listed = {m["name"] for m in wanted}
    rows += [(name, values[name],
              units.get(name, "s" if name.endswith("_s") else ""))
             for name in sorted(values) if name not in listed]
    for name, value, unit in rows:
        shown = "not exercised" if value is None else f"{value:.6g}"
        print(f"  {name:40s} {shown:>14s} {unit}")

    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
