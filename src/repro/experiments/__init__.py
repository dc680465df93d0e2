"""Experiment harness: the labs behind the paper's tables and figures.

Figures 8-11 and the ablations are entries of the scenario registry
(:mod:`repro.service.scenarios`), run as campaigns; each lab module here
drives engines itself and exposes ``run(scale="smoke"|"paper", ...)``
and a ``main()`` that prints its rows.  The fault, detection, topology
and CDG labs run their cells through one harness in
:mod:`repro.experiments.common` (:func:`~repro.experiments.common.run_cell`,
sized by a :class:`~repro.experiments.common.LabScale`).  ``smoke`` shrinks cycle counts
and load grids so the whole suite finishes in minutes; ``paper`` uses
the paper's 30,000-cycle measurement windows.  The runner
(:mod:`repro.experiments.runner`) runs either kind by name.  See
EXPERIMENTS.md for paper-vs-measured values.
"""

from repro.experiments.common import SCALES, Scale

__all__ = ["Scale", "SCALES"]
