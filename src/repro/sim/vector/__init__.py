"""Vectorized struct-of-arrays engine backend.

What ``backend="auto"`` resolves to unless the route table is too large
or no kernel builds (:func:`repro.sim.engine.resolve_backend`);
``backend="vector"`` pins it.  Produces bit-identical
:class:`~repro.sim.stats.SimStats` to the reference engine — enforced per
sweep point by
``tests/test_backend_equivalence.py`` and the ``backend-equivalence``
CI job — while running the flit-movement hot path in a compiled kernel.
"""

from repro.sim.vector.engine import VectorEngine
from repro.sim.vector.fabric import VectorFabric

__all__ = ["VectorEngine", "VectorFabric"]
