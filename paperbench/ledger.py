"""Outside-in layer ledger for the paper benchmark.

The ledger never edits the simulator's source.  After a network is
built and before its first ``Simulator.run``, :meth:`Ledger.instrument`
replaces public methods of the built objects with timing spans stored
as *instance* attributes:

* every registered component's overridden ``deliver``/``transfer``/
  ``inject``/``control`` (the fast engine rebuilds its awake lists from
  ``obj.<phase>`` lookups, so it calls the spans);
* each endpoint's ``tick`` and ``on_message``;
* each connection manager's ``plan_message``;
* each router's ``gating.tick``;
* ``sim.run`` itself, which is the ``sim.kernel.run`` span.

A span is labelled ``<layer>.<method>``, where the layer is the module
of the object's class without the ``repro.`` prefix (a hybrid router's
inherited ``deliver`` is ``core.hybrid_router.deliver``).  Spans nest:
an endpoint tick runs inside its NI's ``inject``.  Each span's *self*
time excludes the spans nested in it.

A span costs the tracer under a microsecond, part in its parent's self
time and part inside its own timed region.  On the sparse workload that
would make up most of the kernel's self time, so :meth:`Ledger.metrics`
subtracts it, per child from the parent and per call from the span, at
the two costs :meth:`Ledger.calibrate` measures on an empty function.
Real spans cost more (the tracer also slows the code it wraps); that
rest stays in the figures, and the traced minus untraced wall time
(``trace.overhead_s``, reported by the caller) bounds it.  The corrected
self times inside the kernel's run plus the kernel's own (its
scheduling loop) add up to ``sim.kernel.run_s``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, Iterable

PHASES = ("deliver", "transfer", "inject", "control")
RUN = "sim.kernel.run"
#: spans the benchmark opens around calls made outside the kernel's
#: run loop
OUTER = ("network.network.build", "hetero.system.build",
         "energy.model.compute")


def layer_of(obj) -> str:
    module = type(obj).__module__
    return module[len("repro."):] if module.startswith("repro.") else module


class Ledger:
    """Self time, inclusive time, calls and direct children per span
    label, plus counters read from the simulated objects after each
    point."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        #: label -> [self seconds, inclusive seconds, calls, children]
        self.cells: Dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0, 0])
        self.counts: Dict[str, float] = defaultdict(float)
        self.phase_labels = set()
        #: registered phase methods x cycles run, summed over simulators
        self.phase_slots = 0
        #: tracer cost per span inside its own timing, and in its parent's
        self.inner_s = self.outer_s = 0.0
        # [child seconds, children] of the open spans; the bottom entry
        # collects the outermost spans
        self._stack = [[0.0, 0]]

    def span(self, label: str, fn: Callable) -> Callable:
        clock = self.clock
        stack = self._stack
        cell = self.cells[label]

        def timed(*args, **kwargs):
            frame = [0.0, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                cell[0] += dt - frame[0]
                cell[1] += dt
                cell[2] += 1
                cell[3] += frame[1]
                parent = stack[-1]
                parent[0] += dt
                parent[1] += 1
        return timed

    def calibrate(self, calls: int = 50000, trials: int = 5) -> None:
        """Measure the tracer's cost per span inside its own timing and
        in its parent's self time, on an empty function (median of
        *trials*)."""
        def empty(_arg):
            pass

        child = self.span("calibrate.child", empty)

        def loop():
            for i in range(calls):
                child(i)

        parent = self.span("calibrate.parent", loop)
        child_cell = self.cells.pop("calibrate.child")
        parent_cell = self.cells.pop("calibrate.parent")
        inner, outer = [], []
        for _ in range(trials):
            child_cell[1] = parent_cell[0] = 0.0
            t0 = self.clock()
            for i in range(calls):
                empty(i)
            direct = self.clock() - t0
            parent()
            inner.append((child_cell[1] - direct) / calls)
            outer.append((parent_cell[0] - direct) / calls)
        self._stack[0] = [0.0, 0]
        inner.sort()
        outer.sort()
        self.inner_s, self.outer_s = inner[trials // 2], outer[trials // 2]

    # ------------------------------------------------------------------
    def instrument(self, sim, net) -> None:
        """Wrap the built simulator and network (see the module doc)."""
        from repro.sim.kernel import SimObject

        registered = 0
        for obj in sim.objects:
            layer = layer_of(obj)
            for phase in PHASES:
                if getattr(type(obj), phase) is getattr(SimObject, phase):
                    continue
                registered += 1
                label = f"{layer}.{phase}"
                self.phase_labels.add(label)
                setattr(obj, phase, self.span(label, getattr(obj, phase)))
        for ni in net.interfaces:
            ep = ni.endpoint
            if ep is not None:
                for name in ("tick", "on_message"):
                    setattr(ep, name, self.span(f"{layer_of(ep)}.{name}",
                                                getattr(ep, name)))
        for manager in getattr(net, "managers", ()):
            manager.plan_message = self.span(
                f"{layer_of(manager)}.plan_message", manager.plan_message)
        for router in net.routers:
            gating = router.gating
            if gating is not None:
                gating.tick = self.span(f"{layer_of(gating)}.tick",
                                        gating.tick)

        run = self.span(RUN, sim.run)

        def counted_run(*args, **kwargs):
            start = sim.cycle
            try:
                return run(*args, **kwargs)
            finally:
                self.phase_slots += registered * (sim.cycle - start)
        sim.run = counted_run

    def count_network(self, net, sources: Iterable = ()) -> None:
        """Add the counters the simulated objects already keep.

        Router counters cover the measurement window (they are reset
        after warmup); manager and source counters cover the whole run.
        """
        counts = self.counts
        for router in net.routers:
            layer = layer_of(router)
            for name in ("sw_arb", "slot_steal", "setup_rejected"):
                counts[f"{layer}.{name}"] += router.counters[name]
        for manager in getattr(net, "managers", ()):
            layer = layer_of(manager)
            counts[f"{layer}.setups_sent"] += manager.setups_sent
            counts[f"{layer}.setups_ok"] += manager.setups_ok
            counts[f"{layer}.shared_messages"] += manager.shared_messages
        for source in sources:
            counts[f"{layer_of(source)}.messages"] += \
                source.messages_generated
        sizing = getattr(net, "size_controller", None)
        if sizing is not None:
            counts[f"{layer_of(sizing)}.resizes"] += sizing.resizes

    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        """Flat ``name -> value`` view: ``<label>_s`` self seconds net of
        the tracer's calibrated cost, inclusive seconds for
        ``sim.kernel.run_s`` (whose self time is
        ``sim.kernel.sched_self_s``) and ``hetero.system.build_s``, raw
        counters, and ratios."""
        inner, outer = self.inner_s, self.outer_s
        net = {label: own - calls * inner - children * outer
               for label, (own, _incl, calls, children)
               in self.cells.items()}
        out: Dict[str, float] = {f"{label}_s": seconds
                                 for label, seconds in net.items()}
        out["sim.kernel.sched_self_s"] = net.get(RUN, 0.0)
        out["sim.kernel.run_s"] = sum(
            seconds for label, seconds in net.items() if label not in OUTER)
        # the only span inside the hetero system's build is its network's
        if "hetero.system.build" in net:
            out["hetero.system.build_s"] = (
                net["hetero.system.build"]
                + net.get("network.network.build", 0.0))
        phase_calls = sum(self.cells[label][2] for label in self.phase_labels)
        out["sim.kernel.awake_frac"] = (phase_calls / self.phase_slots
                                        if self.phase_slots else 0.0)
        out.update(self.counts)
        sent = self.counts["core.circuit.setups_sent"]
        out["core.circuit.setup_ok_ratio"] = (
            self.counts["core.circuit.setups_ok"] / sent if sent else 0.0)
        out["trace.span_inner_s"] = inner
        out["trace.span_outer_s"] = outer
        return out

    def unaccounted_s(self) -> float:
        """Kernel run time not covered by spans nested in it or by the
        kernel's own self time; zero up to float rounding, by
        construction, unless a span escaped the stack discipline."""
        nested = sum(cell[0] for label, cell in self.cells.items()
                     if label != RUN and label not in OUTER)
        own, incl = self.cells[RUN][:2]
        return incl - own - nested
