"""Chaos harness smoke: induced failure must not change results."""

from __future__ import annotations

import os

import pytest

from repro.harness.chaos import (ChaosConfig, chaos_points, run_chaos,
                                 validate_chaos_run)
from repro.harness import store


class TestChaosConfig:
    def test_needs_a_clean_final_cycle(self):
        with pytest.raises(ValueError):
            ChaosConfig(cycles=1)

    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            ChaosConfig(kill_rate=-0.1)


class TestChaosCampaign:
    def test_small_campaign_converges_identical(self, tmp_path):
        """The flagship invariant, at smoke scale: kills + corruption +
        disk-full over two resume cycles, then a clean cycle, and the
        result is point-for-point identical to the serial reference."""
        cfg = ChaosConfig(points=3, cycles=3, jobs=2, seed=0,
                          kill_rate=1.0, corrupt_rate=0.5,
                          diskfull_rate=0.15, supervisor_kill_rate=0.5,
                          timeout_s=60.0)
        report = run_chaos(cfg, str(tmp_path / "campaign"))
        assert report["ok"], report["problems"]
        assert report["cycles_run"] == 3
        # the report itself is a durable artifact
        assert os.path.exists(
            os.path.join(str(tmp_path / "campaign"), "chaos-report.json"))

    def test_validation_catches_tampering(self, tmp_path):
        """validate_chaos_run is only trustworthy if it actually fails
        on a manipulated run directory."""
        cfg = ChaosConfig(points=2, cycles=2, jobs=2, seed=1,
                          kill_rate=0.0, corrupt_rate=0.0,
                          diskfull_rate=0.0, supervisor_kill_rate=0.0)
        run_dir = str(tmp_path / "campaign")
        report = run_chaos(cfg, run_dir)
        assert report["ok"], report["problems"]

        points = chaos_points(cfg.points, seed=1, metrics=cfg.metrics)
        chaos_dir = os.path.join(run_dir, "chaos")
        from repro.harness.supervisor import load_results
        reference = load_results(os.path.join(run_dir, "reference"))
        assert validate_chaos_run(points, chaos_dir, reference) == []

        # flip one byte in a result: the invariant check must notice
        path = os.path.join(chaos_dir, "points", "point-0000.json")
        data = bytearray(open(path, "rb").read())
        data[len(data) // 2] ^= 0x04
        open(path, "wb").write(bytes(data))
        problems = validate_chaos_run(points, chaos_dir, reference)
        assert any("point 0" in p for p in problems)

    def test_chaos_points_hash_like_clean_points(self):
        """Chaos injection knobs must not change what a point *is* —
        otherwise the chaos run could never validate against clean
        specs or reuse results across cycles."""
        from repro.harness.supervisor import point_spec_hash
        clean = chaos_points(2, seed=1)
        dirty = [dict(p, _chaos_diskfull=0.5, _chaos_seed=7)
                 for p in clean]
        assert [point_spec_hash(p) for p in clean] \
            == [point_spec_hash(p) for p in dirty]


class TestChaosReportShape:
    def test_report_written_even_on_reference_failure(self, tmp_path,
                                                      monkeypatch):
        # poison the reference by making every worker crash: the
        # campaign must bail out with ok=False and a written report
        from repro.harness import chaos as chaos_mod

        def bad_points(n, seed=0, metrics=True):
            pts = chaos_points(n, seed=seed, metrics=metrics)
            for p in pts:
                p["_test_fail"] = "crash"
            return pts

        monkeypatch.setattr(chaos_mod, "chaos_points", bad_points)
        cfg = ChaosConfig(points=1, cycles=2, seed=0, kill_rate=0.0,
                          corrupt_rate=0.0, diskfull_rate=0.0,
                          supervisor_kill_rate=0.0, max_retries=0)
        report = run_chaos(cfg, str(tmp_path / "campaign"))
        assert not report["ok"]
        assert "reference run failed" in report["problems"][0]
        doc = store.read_json(
            os.path.join(str(tmp_path / "campaign"), "chaos-report.json"))
        assert doc is not None and not doc["ok"]
