"""Cross-module integration tests: schemes under stress, paper shapes.

These run the full simulator near and past saturation and assert the
qualitative results the paper reports.  They use short windows, so the
assertions are deliberately coarse (orderings and large margins, not
absolute values).
"""

from repro import SimConfig
from repro.core.token import Token
from repro.sim.sweep import run_point
from tests.helpers import build_engine, record_transactions


class TestStressBehaviour:
    def test_pr_recovers_under_heavy_load(self):
        e = build_engine(scheme="PR", pattern="PAT271", num_vcs=4,
                         load=0.018, seed=3)
        w = e.run_measured(1500, 2500)
        ctl = e.scheme.controller
        assert w.messages_delivered > 1000
        assert ctl.rescues > 0  # deadlocks formed and were recovered
        # Single-token invariant held throughout (guarded by Token);
        # the token is healthy at the end.
        assert ctl.token.state in (Token.CIRCULATING, Token.HELD)

    def test_dr_deflects_under_heavy_load(self):
        e = build_engine(scheme="DR", pattern="PAT271", num_vcs=4,
                         load=0.022, seed=4)
        w = e.run_measured(1500, 2500)
        assert w.messages_delivered > 500
        assert e.scheme.controller.deflections > 0

    def test_sa_never_detects_deadlock(self):
        e = build_engine(scheme="SA", pattern="PAT721", num_vcs=8,
                         load=0.02, seed=3)
        w = e.run_measured(1500, 2500)
        assert w.messages_delivered > 1000
        assert e.scheme.deadlocks_detected == 0
        assert w.deadlocks + w.deadlocks_unresolved == 0

    def test_pr_rescued_messages_are_not_extra(self):
        e = build_engine(scheme="PR", pattern="PAT271", num_vcs=4,
                         load=0.018, seed=3)
        txns = record_transactions(e)
        e.run(4000)
        assert txns
        for txn in txns:
            assert txn.messages_used == txn.chain_length

    def test_dr_deflections_add_messages(self):
        e = build_engine(scheme="DR", pattern="PAT271", num_vcs=4,
                         load=0.022, seed=4)
        txns = record_transactions(e)
        e.run(4000)
        deflected = [t for t in txns if t.deflections]
        assert deflected
        for txn in deflected:
            assert txn.messages_used == txn.chain_length + txn.deflections


class TestPaperShapes:
    """Coarse reproductions of the headline comparisons."""

    def _saturation(self, scheme, pattern, vcs, queue_mode="auto", seed=3):
        best = 0.0
        for load in (0.008, 0.012, 0.016):
            cfg = SimConfig(scheme=scheme, pattern=pattern, num_vcs=vcs,
                            load=load, queue_mode=queue_mode, seed=seed)
            p = run_point(cfg, warmup=1200, measure=2200)
            best = max(best, p.throughput_fpc)
        return best

    def test_fig8_pr_beats_dr_with_4vcs(self):
        pr = self._saturation("PR", "PAT721", 4)
        dr = self._saturation("DR", "PAT721", 4)
        assert pr > 1.2 * dr

    def test_fig8_pr_beats_sa_on_pat100(self):
        pr = self._saturation("PR", "PAT100", 4)
        sa = self._saturation("SA", "PAT100", 4)
        assert pr > 1.2 * sa

    def test_fig11_qa_recovers_shared_queue_penalty(self):
        shared = self._saturation("PR", "PAT271", 16)
        qa = self._saturation("PR", "PAT271", 16, queue_mode="per-type")
        assert qa > shared

    def test_fig10_sa_beats_shared_queue_pr_at_16vcs(self):
        sa = self._saturation("SA", "PAT271", 16)
        pr = self._saturation("PR", "PAT271", 16)
        assert sa > pr


class TestLowLoadEquivalence:
    def test_schemes_agree_when_uncongested(self):
        # "Up to ~20% throughput the performance gap remains under 15%"
        # (Section 4.3.2): at light load all schemes deliver the same
        # traffic with similar latency.
        results = {}
        for scheme in ("DR", "PR"):
            cfg = SimConfig(scheme=scheme, pattern="PAT721", num_vcs=4,
                            load=0.004, seed=6)
            results[scheme] = run_point(cfg, warmup=800, measure=1600)
        thr = [r.throughput_fpc for r in results.values()]
        lat = [r.mean_latency for r in results.values()]
        assert max(thr) - min(thr) < 0.1 * max(thr)
        assert max(lat) - min(lat) < 0.15 * max(lat)
