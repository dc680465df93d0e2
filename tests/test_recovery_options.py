"""Tests for the token ring that progressive recovery circulates."""

from repro.core.token import default_ring
from repro.network.topology import Torus


class TestTokenRings:
    def test_ring_builders_cover_all_stops(self):
        # The ring is fixed (router, then its NIs); it must still visit every
        # router and every NI exactly once on a bristled torus.
        stops = default_ring(Torus((2, 2), bristling=2))
        routers = [s.ident for s in stops if s.kind == "router"]
        nis = [s.ident for s in stops if s.kind == "ni"]
        assert sorted(routers) == list(range(4))
        assert sorted(nis) == list(range(8))
        assert len(stops) == 12
