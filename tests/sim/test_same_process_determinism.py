"""A run's state hash is a function of (config, seed) alone.

Every entry point is called twice in one process and must land on the
same final ``state_hash`` both times: nothing a run allocates (message,
packet or connection ids included) may leak into the next one through
process-global state.  Entry points that do not return a hash are
observed through every :class:`Network` they build.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.harness import supervisor
from repro.harness.experiments import fault_sweep
from repro.harness.runner import run_synthetic
from repro.hetero.system import HeteroSystem, run_hetero_replay
from repro.network.network import Network
from repro.sim.checkpoint import capture_state, state_hash
from repro.traffic import MessageTraceRecorder

HETERO = dict(scheme="hybrid_tdm_vc4", cpu_benchmark="ART",
              gpu_benchmark="BLACKSCHOLES", seed=3)


@pytest.fixture
def built_networks(monkeypatch):
    """Every Network constructed while the test runs, in build order."""
    nets = []
    init = Network.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        nets.append(self)

    monkeypatch.setattr(Network, "__init__", spy)
    return nets


def _hashes_of_two_calls(call, nets):
    """Call *call* twice; per call, the final hashes of the networks it
    built and whatever *call* returned."""
    out = []
    for _ in range(2):
        del nets[:]
        ret = call()
        assert nets, "entry point built no network"
        out.append(([state_hash(capture_state(n.sim, n)) for n in nets],
                    ret))
    return out


def test_run_synthetic(built_networks):
    (h1, r1), (h2, r2) = _hashes_of_two_calls(
        lambda: run_synthetic("hybrid_tdm_vc4", "uniform_random", 0.2,
                              warmup=100, measure=200, seed=3, width=4,
                              height=4, slot_table_size=32,
                              with_state_hash=True),
        built_networks)
    assert r1.state_hash and r1.state_hash == r2.state_hash
    assert h1 == h2


def test_hetero_system_run(built_networks):
    (h1, r1), (h2, r2) = _hashes_of_two_calls(
        lambda: HeteroSystem(**HETERO).run(warmup=200, measure=400),
        built_networks)
    assert r1.messages_delivered == r2.messages_delivered > 0
    assert h1 == h2


def test_hetero_replay(built_networks, tmp_path):
    rec = MessageTraceRecorder()
    HeteroSystem(**HETERO).run(warmup=100, measure=200, recorder=rec)
    path = str(tmp_path / "trace.jsonl")
    rec.save(path)
    (h1, r1), (h2, r2) = _hashes_of_two_calls(
        lambda: run_hetero_replay("hybrid_tdm_vc4", path, warmup=100,
                                  measure=200, seed=3),
        built_networks)
    assert r1.messages_delivered == r2.messages_delivered > 0
    assert h1 == h2


def test_fault_sweep_point(built_networks):
    (h1, r1), (h2, r2) = _hashes_of_two_calls(
        lambda: fault_sweep(drop_rates=(0.02,), link_faults=1, width=4,
                            height=4, warmup=100, measure=300, drain=100),
        built_networks)
    assert r1.text == r2.text       # rows may hold NaN, so compare text
    assert h1 == h2


def test_supervisor_synthetic_point(built_networks, tmp_path):
    point = {"scheme": "hybrid_tdm_vc4", "pattern": "uniform_random",
             "rate": 0.2, "warmup": 100, "measure": 200, "seed": 3,
             "width": 4, "height": 4, "slot_table_size": 32}

    def call():
        out = str(tmp_path / "results" / "point-0000.json")
        os.makedirs(os.path.dirname(out), exist_ok=True)
        supervisor._worker_main(point, out, None, 0)
        with open(out) as fh:
            return json.load(fh)["row"]["state_hash"]

    (h1, r1), (h2, r2) = _hashes_of_two_calls(call, built_networks)
    assert r1 == r2
    assert h1 == h2


def test_supervisor_hetero_point(built_networks):
    point = {"scheme": HETERO["scheme"],
             "cpu_benchmark": HETERO["cpu_benchmark"],
             "gpu_benchmark": HETERO["gpu_benchmark"],
             "seed": HETERO["seed"], "warmup": 200, "measure": 400}
    (h1, r1), (h2, r2) = _hashes_of_two_calls(
        lambda: supervisor._run_hetero_point(point), built_networks)
    assert r1 == r2
    assert h1 == h2
