"""Regenerate ``reference.json``: the simulated statistics of every
workload point, for every simulation seed the benchmark can pick,
produced by the ``legacy`` oracle engine.

Usage, from the repository root::

    python3 paperbench/make_reference.py

Rerun it only when a workload definition in ``workloads.py`` changes,
or when a change to the simulator is meant to change its results.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
os.environ["REPRO_ENGINE"] = "legacy"

import workloads  # noqa: E402

#: simulation seeds; benchmark seed n runs SEEDS[n % len(SEEDS)]
SEEDS = list(range(1, 17))


def main() -> int:
    ref = {"engine": "legacy", "seeds": SEEDS, "workloads": {}}
    for name, spec in sorted(workloads.WORKLOADS.items()):
        workloads.pin_run_length(spec)
        stats = {}
        for seed in SEEDS:
            workloads.warm_build(spec, seed)
            result = workloads.run_pass(spec, seed)
            for p in result.points:
                if p.problems:
                    raise SystemExit(f"{name} seed {seed} {p.label}: "
                                     f"{p.problems}")
            stats[str(seed)] = {p.label: p.stats for p in result.points}
            print(f"{name} seed {seed}: {result.raw_wall_s:.1f} s",
                  flush=True)
        ref["workloads"][name] = {"spec": spec, "stats": stats}
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
