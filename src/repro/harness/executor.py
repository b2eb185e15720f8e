"""Pluggable worker executors for the sweep fabric.

The supervisor (:mod:`repro.harness.supervisor`) never touches process
objects directly: it submits :class:`WorkSpec` descriptions to an
:class:`Executor` and from then on owns only a *lease* on the point —
liveness is judged by heartbeat files the worker writes, not by the
executor's ability to observe an exit.  That split is what makes the
scheduler executor-agnostic: a local subprocess pool today, SSH or
container workers later, with identical retry/lease/reclaim semantics.

An executor reports each handle as ``RUNNING``, ``EXITED`` or ``LOST``.
``LOST`` models transports that can stop knowing (an SSH connection
drop, a vanished container host): the supervisor treats it exactly
like ``RUNNING`` and relies on lease expiry to reclaim the point — a
worker that dies without an observable exit status wedges nothing.
"""

from __future__ import annotations

import enum
import multiprocessing
import multiprocessing.connection
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence


class WorkerStatus(enum.Enum):
    RUNNING = "running"
    EXITED = "exited"
    #: the executor can no longer observe the worker (transport loss);
    #: only lease expiry can reclaim the point
    LOST = "lost"


@dataclass
class WorkSpec:
    """Everything an executor needs to run one sweep-point attempt."""

    index: int
    point: Dict
    out_path: str                    #: result JSON destination
    ckpt_dir: Optional[str]          #: per-point snapshot dir (or None)
    checkpoint_cycles: int
    heartbeat_path: Optional[str] = None
    heartbeat_interval_s: float = 1.0
    stderr_path: Optional[str] = None
    extra: Dict = field(default_factory=dict)


class Executor:
    """Abstract worker transport.

    Handles returned by :meth:`submit` are opaque to the supervisor;
    every other method takes them back.  Implementations must make
    :meth:`kill` and :meth:`reap` idempotent and safe on workers that
    already exited — reclaim paths call them unconditionally.
    """

    name = "abstract"

    def submit(self, spec: WorkSpec):
        raise NotImplementedError

    def poll(self, handle) -> WorkerStatus:
        raise NotImplementedError

    def kill(self, handle) -> None:
        raise NotImplementedError

    def reap(self, handle) -> None:
        """Release transport resources for a finished/killed handle."""

    def pid(self, handle) -> Optional[int]:
        """Worker OS pid when known (used by lease files and chaos)."""
        return None

    def wait_any(self, handles: Sequence, timeout: float) -> None:
        """Block until some worker may have changed state.

        The default is a bounded sleep — correct for any transport,
        since the supervisor re-polls and checks heartbeats afterwards.
        """
        time.sleep(max(0.0, min(timeout, 0.05)))


def _worker_entry(spec: WorkSpec) -> None:
    """Subprocess entry point (module-level so spawn can import it)."""
    from repro.harness.supervisor import run_worker
    run_worker(spec)


class LocalProcessExecutor(Executor):
    """One local subprocess per attempt (fork where available).

    This is PR 5's worker model behind the new interface: exits are
    observable through process sentinels, so ``wait_any`` blocks on
    them instead of polling.
    """

    name = "local-process"

    def __init__(self, context: Optional[str] = None) -> None:
        if context is None:
            try:
                self._ctx = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX fallback
                self._ctx = multiprocessing.get_context("spawn")
        else:
            self._ctx = multiprocessing.get_context(context)

    def submit(self, spec: WorkSpec):
        proc = self._ctx.Process(target=_worker_entry, args=(spec,))
        proc.start()
        return proc

    def poll(self, handle) -> WorkerStatus:
        try:
            alive = handle.is_alive()
        except ValueError:               # handle already reaped (closed)
            alive = False
        return WorkerStatus.RUNNING if alive else WorkerStatus.EXITED

    def kill(self, handle) -> None:
        try:
            if not handle.is_alive():
                return
            handle.terminate()
            handle.join(5.0)
            if handle.is_alive():  # pragma: no cover - stuck in syscall
                handle.kill()
        except ValueError:               # already reaped: nothing to kill
            pass

    def reap(self, handle) -> None:
        try:
            handle.join()
            handle.close()
        except ValueError:               # second reap: already closed
            pass

    def pid(self, handle) -> Optional[int]:
        try:
            return handle.pid
        except ValueError:  # pragma: no cover - reaped handle
            return None

    def wait_any(self, handles: Sequence, timeout: float) -> None:
        sentinels = []
        for handle in handles:
            try:
                sentinels.append(handle.sentinel)
            except ValueError:  # pragma: no cover - already closed
                pass
        if sentinels:
            multiprocessing.connection.wait(sentinels,
                                            max(0.0, timeout))
        elif timeout > 0:  # pragma: no cover - no active handles
            time.sleep(min(timeout, 0.05))
