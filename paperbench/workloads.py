"""Workload definitions, one timed pass, and the output check.

Each workload drives the repository's public entry points serially on
the default engine: :func:`repro.harness.experiments.fig4` for the two
grids and :class:`repro.hetero.HeteroSystem` for the closed-loop mix.
Run length is fixed here (``scale`` for the fig4 grids, explicit
warmup/measure cycles for the hetero run) so no ambient setting changes
what is measured.  See README.md in this directory for why each
workload was chosen.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.harness import experiments, runner
from repro.hetero import HeteroSystem
from repro.hetero import system as hetero_system
from repro.sdm.ni import SDMNetworkInterface
from repro.sim.kernel import LivelockError

from ledger import Ledger

WORKLOADS: Dict[str, Dict] = {
    "sat_grid": {
        "kind": "fig4", "patterns": ["tornado", "transpose"],
        "schemes": list(experiments.FIG4_SCHEMES), "rates": [0.45],
        "scale": 0.2},
    "sparse_grid": {
        "kind": "fig4", "patterns": list(experiments.PATTERNS),
        "schemes": ["packet_vc4", "hybrid_tdm_vc4"], "rates": [0.05],
        "scale": 1.0},
    "hetero_long": {
        "kind": "hetero", "scheme": "hybrid_tdm_hop_vct", "cpu": "ART",
        "gpu": "BLACKSCHOLES", "warmup": 2000, "measure": 8000},
}

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")
#: relative tolerance of the reference comparison: float summation
#: order may change in a behaviour-neutral edit, anything larger is a
#: different simulation
REL_TOL = 1e-9


@dataclass
class Point:
    label: str
    #: seconds on the pass's clock and host seconds; None when the point
    #: ran where the benchmark's hook could not time it
    seconds: Optional[float] = None
    raw_seconds: Optional[float] = None
    stats: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    #: checks that could not run on this point, with the reason
    unaudited: List[str] = field(default_factory=list)


@dataclass
class Pass:
    wall_s: float       #: seconds on the pass's clock
    raw_wall_s: float   #: host seconds
    points: List[Point]


def pin_run_length(spec: Dict) -> None:
    """Make ``REPRO_SCALE`` say what the workload needs."""
    if spec["kind"] == "fig4":
        os.environ["REPRO_SCALE"] = repr(spec["scale"])
        if runner.scale() != spec["scale"]:
            raise RuntimeError(f"run length not pinned: scale "
                               f"{runner.scale()} != {spec['scale']}")


def warm_build(spec: Dict, seed: int) -> str:
    """Build (and discard) one network per scheme the workload uses, so
    lazy imports and first-build costs land in set-up.  Returns the
    engine the builds ran on."""
    if spec["kind"] == "fig4":
        for scheme in spec["schemes"]:
            sim, _net, _sources = runner.prepare_synthetic(
                scheme, spec["patterns"][0], spec["rates"][0], seed=seed)
        return sim.engine
    return HeteroSystem(spec["scheme"], spec["cpu"], spec["gpu"],
                        seed=seed).sim.engine


def _check_conservation(point: Point, net) -> None:
    if net.ledger.injected == 0 and all(
            isinstance(ni, SDMNetworkInterface) for ni in net.interfaces):
        # the SDM NI's injection paths never add to the conservation
        # ledger, so its imbalance is minus every ejected flit; report
        # the gap on every run instead of auditing a ledger that is
        # not kept
        point.unaudited.append("conservation: the SDM NIs record no "
                               "injections in the ledger")
    elif net.conservation_imbalance():
        point.problems.append(
            f"conservation imbalance {net.conservation_imbalance()}")


def _check_run(point: Point, note: str, delivered: int) -> None:
    if note:
        point.problems.append(f"note {note}")
    if delivered == 0:
        point.problems.append("no messages delivered")


def _run_fig4(spec: Dict, seed: int, ledger: Optional[Ledger],
              clock: Callable[[], float]) -> Pass:
    """Statistics, notes and the point count come from fig4's result;
    the hook on ``runner.run_synthetic`` adds each point's times and the
    conservation check, which need the live network."""
    timed: Dict[str, Point] = {}
    built: Dict = {}
    saved = {name: getattr(runner, name) for name in
             ("prepare_synthetic", "run_synthetic", "build_network",
              "compute_energy")}

    def prepare(*args, **kwargs):
        sim, net, sources = saved["prepare_synthetic"](*args, **kwargs)
        built["net"], built["sources"] = net, sources
        if ledger is not None:
            ledger.instrument(sim, net)
        return sim, net, sources

    def point(scheme, pattern, rate, **kwargs):
        t0, raw0 = clock(), time.perf_counter()
        run = saved["run_synthetic"](scheme, pattern, rate, **kwargs)
        p = Point(f"{scheme}/{pattern}@{rate}", clock() - t0,
                  time.perf_counter() - raw0)
        net = built.pop("net")
        if ledger is not None:
            ledger.count_network(net, built["sources"])
        _check_conservation(p, net)
        timed[p.label] = p
        return run

    runner.prepare_synthetic = prepare
    runner.run_synthetic = point
    if ledger is not None:
        runner.build_network = ledger.span("network.network.build",
                                           saved["build_network"])
        runner.compute_energy = ledger.span("energy.model.compute",
                                            saved["compute_energy"])
    try:
        t0, raw0 = clock(), time.perf_counter()
        result = experiments.fig4(patterns=tuple(spec["patterns"]),
                                  schemes=tuple(spec["schemes"]),
                                  rates=tuple(spec["rates"]), seed=seed)
        wall, raw = clock() - t0, time.perf_counter() - raw0
    finally:
        for name, fn in saved.items():
            setattr(runner, name, fn)
    points: List[Point] = []
    for runs in result.extra["curves"].values():
        for run in runs:
            label = f"{run.scheme}/{run.pattern}@{run.offered}"
            p = timed.get(label) or Point(label, unaudited=[
                "conservation and timing: the point ran outside the "
                "benchmark's hook"])
            p.stats = {"accepted": run.accepted,
                       "avg_latency": run.avg_latency,
                       "p99_latency": run.p99_latency,
                       "cs_fraction": run.cs_fraction,
                       "energy_per_msg_pj": run.energy_per_message_pj,
                       "messages_delivered": run.messages_delivered}
            _check_run(p, run.note, run.messages_delivered)
            points.append(p)
    expected = len(spec["patterns"]) * len(spec["schemes"]) \
        * len(spec["rates"])
    if len(points) != expected:
        raise RuntimeError(f"fig4 returned {len(points)} points, expected "
                           f"{expected}")
    return Pass(wall, raw, points)


def _run_hetero(spec: Dict, seed: int, ledger: Optional[Ledger],
                clock: Callable[[], float]) -> Pass:
    saved = {name: getattr(hetero_system, name)
             for name in ("_make_network", "compute_energy")}
    build = functools.partial(HeteroSystem, spec["scheme"], spec["cpu"],
                              spec["gpu"], seed=seed)
    if ledger is not None:
        build = ledger.span("hetero.system.build", build)
        hetero_system._make_network = ledger.span(
            "network.network.build", saved["_make_network"])
        hetero_system.compute_energy = ledger.span(
            "energy.model.compute", saved["compute_energy"])
    try:
        t0, raw0 = clock(), time.perf_counter()
        system = build()
        if ledger is not None:
            ledger.instrument(system.sim, system.net)
        note = ""
        try:
            res = system.run(warmup=spec["warmup"], measure=spec["measure"])
        except LivelockError as exc:
            note, res = f"livelock@{exc.cycle}", None
        wall, raw = clock() - t0, time.perf_counter() - raw0
    finally:
        for name, fn in saved.items():
            setattr(hetero_system, name, fn)
    net = system.net
    if ledger is not None:
        ledger.count_network(net)
    delivered = net.messages_delivered
    p = Point(f"{spec['scheme']}/{spec['cpu']}+{spec['gpu']}", wall, raw)
    p.stats = {"accepted": net.accepted_load(),
               "avg_latency": net.pkt_latency.mean,
               "p99_latency": net.pkt_latency.percentile(99),
               "cs_fraction": res.cs_fraction if res else 0.0,
               "energy_per_msg_pj": (res.energy.total / max(1, delivered)
                                     if res else 0.0),
               "messages_delivered": delivered,
               "cpu_ipc": res.cpu_ipc if res else 0.0,
               "gpu_throughput": res.gpu_throughput if res else 0.0}
    _check_conservation(p, net)
    _check_run(p, note, delivered)
    return Pass(wall, raw, [p])


def run_pass(spec: Dict, seed: int, ledger: Optional[Ledger] = None,
             clock: Callable[[], float] = time.perf_counter) -> Pass:
    """Run the workload once, timing it and its points with *clock*;
    with *ledger*, run it traced."""
    if spec["kind"] == "fig4":
        return _run_fig4(spec, seed, ledger, clock)
    return _run_hetero(spec, seed, ledger, clock)


def load_reference(name: str, seed: int):
    """(simulation seed, workload spec, ``label -> stats``) of the
    reference for benchmark seed *seed*.

    The reference holds a fixed list of simulation seeds; the benchmark
    seed picks one of them, so the same seed always gives the same
    inputs and every input has a reference."""
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    seeds = ref["seeds"]
    sim_seed = seeds[seed % len(seeds)]
    entry = ref["workloads"][name]
    return sim_seed, entry["spec"], entry["stats"][str(sim_seed)]


def check_against(points: List[Point], reference: Dict[str, Dict]) -> None:
    """Record a problem on every point whose statistics differ from
    *reference* (``label -> stats``) or that the reference lacks."""
    for p in points:
        want = reference.get(p.label)
        if want is None:
            p.problems.append("no reference statistics")
            continue
        for name, ref in want.items():
            value = p.stats.get(name)
            if value is None or not math.isclose(
                    value, ref, rel_tol=REL_TOL, abs_tol=1e-12):
                p.problems.append(f"{name} {value!r} != reference {ref!r}")
