"""Differential equivalence: optimised engines vs the legacy oracle.

The fast engine is allowed to skip work — and the batch engine to
fast-forward whole stretches — only when skipping is unobservable.
These tests enforce that with an exact oracle: the same workload,
built from the same seed, must produce bit-identical canonical state
hashes under every engine at every checkpoint, with the run-everything
legacy scheduler as the baseline.
"""

from __future__ import annotations

import pytest

from repro.config import SCHEMES
from repro.harness.verify import verify_equivalence

ALL_SCHEMES = sorted(SCHEMES)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_engines_equivalent_under_load(scheme):
    report = verify_equivalence(scheme, rate=0.12, cycles=200,
                                interval=100)
    assert report.ok, report.mismatches
    assert report.engines == ("legacy", "fast", "batch")
    assert report.checkpoints == 2
    assert report.first_divergence == -1
    assert len(set(report.final_hashes.values())) == 1
    assert report.final_hashes["legacy"] == report.final_hashes["fast"] \
        == report.final_hashes["batch"]


@pytest.mark.parametrize("scheme",
                         ["packet_vc4", "hybrid_tdm_vc4", "hybrid_sdm_vc4"])
def test_engines_equivalent_through_drain(scheme):
    """Burst then stop the sources: the drain and the quiescent tail are
    where the fast engine sleeps components and the batch engine
    fast-forwards, so equivalence there is the non-trivial half of the
    property."""
    report = verify_equivalence(scheme, rate=0.25, cycles=400,
                                interval=100, stop_cycle=100)
    assert report.ok, report.mismatches
    assert report.checkpoints == 4


def test_engine_subset_is_selectable():
    report = verify_equivalence("packet_vc4", cycles=100, interval=100,
                                engines=("legacy", "batch"))
    assert report.ok, report.mismatches
    assert report.engines == ("legacy", "batch")
    assert set(report.final_hashes) == {"legacy", "batch"}
    assert "fast" not in report.final_hashes


def test_rejects_degenerate_engine_lists():
    with pytest.raises(ValueError):
        verify_equivalence("packet_vc4", cycles=100, engines=("fast",))
    with pytest.raises(ValueError):
        verify_equivalence("packet_vc4", cycles=100,
                           engines=("legacy", "legacy"))


def test_divergence_is_reported_not_swallowed(monkeypatch):
    """Force a divergence and check the report localises it — both the
    cycle and which engine broke from the baseline."""
    from repro.harness import verify as verify_mod

    real_hash = verify_mod.state_hash
    calls = {"n": 0}

    def corrupting_hash(tree):
        calls["n"] += 1
        h = real_hash(tree)
        # second run (fast), second checkpoint -> flip the hash
        return "corrupt" + h if calls["n"] == 4 else h

    monkeypatch.setattr(verify_mod, "state_hash", corrupting_hash)
    report = verify_equivalence("packet_vc4", cycles=200, interval=100)
    assert not report.ok
    assert report.first_divergence == 200
    assert report.divergent_engines == ["fast"]
    assert any("state hash at cycle 200" in m for m in report.mismatches)
    assert any("fast" in m for m in report.mismatches)
