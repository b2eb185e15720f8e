"""Struct-of-arrays batch engine (``Simulator(engine="batch")``).

The batch engine layers two mechanisms on top of the activity-tracked
fast scheduler:

* :mod:`repro.sim.batch.layout` compiles a built network into flat
  NumPy arrays — per-VC credits, buffer occupancies, link pipe
  registers, slot-table/DLT ownership, CS reservations — so whole-
  network predicates (is every router's datapath empty?) are single
  vectorized reductions instead of per-object method dispatch.
* :mod:`repro.sim.batch.engine` uses those predicates to *fast-forward*
  provably quiescent stretches: when every component is either asleep
  (its skipped phases are no-ops by the fast-engine contract) or doing
  closed-form always-on bookkeeping (gating utilisation sampling), the
  cycle counter jumps to the next event and the k skipped cycles are
  applied as O(1) array updates that are bit-identical to stepping.

Correctness is carried by the three-way differential harness
(:func:`repro.harness.verify.verify_equivalence` with
``engines=("legacy", "fast", "batch")``), not by construction alone.
"""

from repro.sim.batch.engine import BatchEngine
from repro.sim.batch.layout import CompiledLayout, compile_layout

__all__ = ["BatchEngine", "CompiledLayout", "compile_layout"]
