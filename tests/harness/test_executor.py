"""Executor transport edge cases: reap idempotency, wait_any bounds.

The supervisor's reclaim paths call ``kill``/``reap``/``poll``
unconditionally on handles in any state — these tests pin the contract
that none of those calls can raise on a worker that already exited or
was already reaped.
"""

from __future__ import annotations

import time

from repro.harness.executor import (Executor, LocalProcessExecutor,
                                    WorkerStatus, WorkSpec)
from repro.harness.supervisor import build_sweep_points


def _spec(tmp_path, name="p0", **point_overrides):
    point = build_sweep_points(["packet_vc4"], "uniform_random", [0.1],
                               width=3, height=3, slot_table_size=32,
                               warmup=50, measure=50)[0]
    point.update(point_overrides)
    return WorkSpec(index=0, point=point,
                    out_path=str(tmp_path / f"{name}.json"),
                    ckpt_dir=None, checkpoint_cycles=0)


def _wait_exit(ex, handle, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while ex.poll(handle) is WorkerStatus.RUNNING:
        assert time.monotonic() < deadline, "worker never exited"
        ex.wait_any([handle], 0.05)


class TestWaitAny:
    def test_no_handles_returns_promptly(self):
        """An idle supervisor tick with nothing in flight must not
        sleep the full timeout — it bounds the nap and re-polls."""
        ex = LocalProcessExecutor()
        start = time.monotonic()
        ex.wait_any([], 5.0)
        assert time.monotonic() - start < 1.0

    def test_default_transport_bounds_the_sleep(self):
        start = time.monotonic()
        Executor.wait_any(Executor(), [], 5.0)
        assert time.monotonic() - start < 1.0

    def test_live_worker_respects_timeout(self, tmp_path):
        """With only a hung worker in flight, wait_any returns at the
        timeout instead of blocking until the worker dies."""
        ex = LocalProcessExecutor()
        handle = ex.submit(_spec(tmp_path, _test_fail="hang"))
        try:
            start = time.monotonic()
            ex.wait_any([handle], 0.2)
            assert time.monotonic() - start < 5.0
            assert ex.poll(handle) is WorkerStatus.RUNNING
        finally:
            ex.kill(handle)
            ex.reap(handle)


class TestReapIdempotency:
    def test_reap_twice_is_harmless(self, tmp_path):
        ex = LocalProcessExecutor()
        handle = ex.submit(_spec(tmp_path))
        _wait_exit(ex, handle)
        ex.reap(handle)
        ex.reap(handle)                  # second reap: already closed

    def test_poll_after_reap_reports_exited(self, tmp_path):
        ex = LocalProcessExecutor()
        handle = ex.submit(_spec(tmp_path))
        _wait_exit(ex, handle)
        ex.reap(handle)
        assert ex.poll(handle) is WorkerStatus.EXITED

    def test_kill_after_reap_is_harmless(self, tmp_path):
        ex = LocalProcessExecutor()
        handle = ex.submit(_spec(tmp_path))
        _wait_exit(ex, handle)
        ex.reap(handle)
        ex.kill(handle)                  # reclaim path calls blindly

    def test_pid_after_reap_is_none(self, tmp_path):
        ex = LocalProcessExecutor()
        handle = ex.submit(_spec(tmp_path))
        assert isinstance(ex.pid(handle), int)
        _wait_exit(ex, handle)
        ex.reap(handle)
        assert ex.pid(handle) is None
