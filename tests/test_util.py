"""Tests for RNG determinism and error types."""

from repro.util import ConfigurationError, SimulationError, make_rng


class TestMakeRng:
    def test_same_seed_same_stream(self):
        a = make_rng(42, "traffic")
        b = make_rng(42, "traffic")
        assert a.integers(0, 1 << 30, 10).tolist() == b.integers(
            0, 1 << 30, 10
        ).tolist()

    def test_different_salts_differ(self):
        a = make_rng(42, "traffic")
        b = make_rng(42, "arbiter")
        assert a.integers(0, 1 << 30, 10).tolist() != b.integers(
            0, 1 << 30, 10
        ).tolist()

    def test_different_seeds_differ(self):
        a = make_rng(1, "x")
        b = make_rng(2, "x")
        assert a.integers(0, 1 << 30, 10).tolist() != b.integers(
            0, 1 << 30, 10
        ).tolist()

    def test_salt_hash_is_stable_across_processes(self):
        # CRC32-based mixing: the first draw for a known (seed, salt) pair
        # must never change, or saved experiment seeds become unreproducible.
        rng = make_rng(1, "traffic")
        first = int(rng.integers(0, 1 << 30))
        rng2 = make_rng(1, "traffic")
        assert int(rng2.integers(0, 1 << 30)) == first

    def test_traffic_stream_is_pinned(self):
        # The traffic reader replays numpy's PCG64 arithmetic word for
        # word; a numpy whose Generator draws differently fails here by
        # name rather than as moved result digests.
        rng = make_rng(3, "traffic")
        draws = [rng.random() if i % 3 == 0 else int(rng.integers(0, 63))
                 for i in range(32)]
        assert draws == [
            0.6315666836789621, 18, 18, 0.14170820831999087, 62, 51,
            0.5649873595796554, 13, 36, 0.13242864747845395, 45, 19,
            0.7428369692159369, 48, 60, 0.07919869317670858, 34, 42,
            0.6494542945890247, 40, 10, 0.27020340210316496, 36, 17,
            0.7216303919457085, 45, 0, 0.3860360895847257, 26, 56,
            0.8575174274760295, 51,
        ]


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(ConfigurationError, ValueError)
        assert issubclass(SimulationError, RuntimeError)
