"""The vector backend's endpoint gating wakes only nodes that can act.

``VectorEngine`` steps an NI only on cycles where one of the wake rules
in ``repro.sim.vector.engine`` fired.  Skipping a step that would have
done something is caught by ``test_backend_equivalence``; this file pins
the other direction — a step that does nothing is wasted time, and the
rules are meant to be exact enough that (almost) none are taken.
"""

from __future__ import annotations

import pytest

from repro.config import SimConfig
from repro.sim.engine import build_engine


def _endpoint_state(ni) -> tuple:
    """Everything one NI step can change that a later step can see."""
    controller = ni.controller
    return (
        len(ni.source_queue),
        tuple(len(q.entries) for bank in (ni.in_bank, ni.out_bank) for q in bank),
        controller.current,
        controller.messages_serviced,
        tuple(chan.owner for chan, _queue in ni._injection_pairs),
    )


def productive_fraction(cycles: int, **cfg) -> tuple[int, float]:
    engine = build_engine(SimConfig(backend="vector", **cfg))
    step_node = engine._step_node
    calls = productive = 0

    def counted(ni, node, now):
        nonlocal calls, productive
        before = _endpoint_state(ni)
        step_node(ni, node, now)
        calls += 1
        productive += _endpoint_state(ni) != before

    engine._step_node = counted
    engine.run(cycles)
    return calls, productive / calls


@pytest.mark.parametrize(
    "cfg",
    [
        # The benchmark's saturated cell (vec-sat-8x8).
        dict(scheme="PR", pattern="PAT721", dims=(8, 8), num_vcs=4,
             load=0.014, seed=3),
        # Reply reservations: admission and service can be slot-bound.
        dict(scheme="DR", pattern="PAT721", dims=(4, 4), num_vcs=4,
             load=0.05, seed=1),
        # Per-type queues, four injection pairs, MSHR-bound admission.
        dict(scheme="SA", pattern="PAT721", dims=(4, 4), num_vcs=8,
             load=0.02, seed=1),
    ],
    ids=lambda c: f"{c['scheme']}-{c['dims'][0]}x{c['dims'][1]}-{c['load']}",
)
def test_no_wasted_endpoint_steps(cfg):
    calls, fraction = productive_fraction(2000, **cfg)
    assert calls > 500, "point too light to say anything"
    assert fraction >= 0.95, (
        f"{1 - fraction:.1%} of {calls} gated NI steps changed nothing"
    )
