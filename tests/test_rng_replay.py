"""The traffic stream's word reader against numpy, call by call.

:class:`repro.util.rng.WordReader` replays ``Generator.random``,
``Generator.integers(0, k)`` and ``random(n) < p`` from blocks of raw
PCG64 words.  Two checks pin that replay to numpy: a property over any
interleaving of the three calls, and the whole request stream of
:class:`SyntheticTraffic` against the ``Generator``-driven generator it
replaced, kept here as the oracle.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocol.transactions import PAT271, PAT721
from repro.traffic.synthetic import SyntheticTraffic
from repro.util.rng import WordReader, make_rng

LOADS = (0.0, 2.0**-53, 0.002, 0.5, 1.0)

_calls = st.lists(
    st.one_of(
        st.tuples(st.just("random")),
        st.tuples(st.just("integers"),
                  st.integers(1, 2**32)
                  # 2**31 + 1 rejects half its draws
                  | st.sampled_from((1, 2, 3, 63, 2**31 + 1, 2**32))),
        # scans long enough to straddle and exceed a 4096-word block
        st.tuples(st.just("scan"),
                  st.integers(0, 9000) | st.sampled_from((4095, 4096, 4097)),
                  st.sampled_from(LOADS)),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), calls=_calls)
def test_reader_returns_what_the_generator_returns(seed, calls):
    gen = make_rng(seed, "traffic")
    reader = WordReader(make_rng(seed, "traffic"))
    for call in calls:
        if call[0] == "random":
            assert reader.random() == gen.random()
        elif call[0] == "integers":
            k = call[1]
            assert reader.integers(k) == int(gen.integers(0, k))
        else:
            n, p = call[1], call[2]
            reader.mark(p)
            expect = (gen.random(n) < p).nonzero()[0].tolist()
            assert list(reader.scan(n)) == expect
    # Same position: a buffered high half is consumed by the first
    # 32-bit draw, then whole words follow.
    for _ in range(3):
        assert reader.integers(2**32) == int(gen.integers(0, 2**32))
        assert reader.random() == gen.random()


@pytest.mark.parametrize("low", [0, 2047])
@pytest.mark.parametrize("seed", range(4))
def test_scan_at_a_load_on_the_edge_of_a_word(seed, low):
    # A random word almost never lands next to the threshold, so place
    # the load there.  Word i's 11 low bits are `low`: it is the first
    # (0) or the last (2047) of the words that map to its double u.
    words = make_rng(seed, "traffic").bit_generator.random_raw(1 << 16)
    i = next(i for i, w in enumerate(words.tolist())
             if w & 2047 == low and w < 1 << 63)  # u < 0.5: p can split
    u = (int(words[i]) >> 11) * 2.0**-53
    for p in (u, np.nextafter(u, 1.0), np.nextafter(u, 0.0)):
        gen = make_rng(seed, "traffic")
        reader = WordReader(make_rng(seed, "traffic"))
        reader.mark(float(p))
        hits = list(reader.scan(i + 1))
        assert hits == (gen.random(i + 1) < p).nonzero()[0].tolist()
        assert (i in hits) == (u < p)


class _NumpyTraffic:
    """The Generator-driven ``SyntheticTraffic.step`` the reader replaced."""

    def __init__(self, pattern, load, seed, num_nodes, log):
        self.pattern, self.load, self.log = pattern, load, log
        self.rng = make_rng(seed, "traffic")
        self.n = num_nodes
        lengths = np.asarray([k for k, _ in pattern.length_probs])
        cdf = np.asarray([p for _, p in pattern.length_probs]).cumsum()
        self.lengths, self.cdf = lengths, cdf / cdf[-1]

    def step(self, now):
        if self.load <= 0.0:
            return
        hits = (self.rng.random(self.n) < self.load).nonzero()[0]
        for node in hits.tolist():
            rng, n = self.rng, self.n
            home = int(rng.integers(0, n - 1))
            if home >= node:
                home += 1
            length = int(self.lengths[
                self.cdf.searchsorted(rng.random(), side="right")])
            third = node
            if length >= 3:
                while third == node or third == home:
                    third = int(rng.integers(0, n))
            self.log.append((now, node, home, third, length))


class _Recording:
    """A pattern whose transactions are only logged."""

    def __init__(self, pattern, log):
        self._pattern, self._log = pattern, log

    def __getattr__(self, name):
        return getattr(self._pattern, name)

    def build_transaction(self, *, requester, home, third, created_cycle,
                          length):
        self._log.append((created_cycle, requester, home, third, length))
        return SimpleNamespace(root=None)


@pytest.mark.parametrize("pattern", [PAT721, PAT271], ids=lambda p: p.name)
@pytest.mark.parametrize("num_nodes,load", [(3, 0.3), (16, 0.02), (256, 0.01)])
def test_request_stream_equals_the_generator_driven_one(pattern, num_nodes,
                                                        load):
    want, got = [], []
    oracle = _NumpyTraffic(pattern, load, 5, num_nodes, want)
    traffic = SyntheticTraffic(_Recording(pattern, got), load, 5)
    node = SimpleNamespace(enqueue_root=lambda root: None)
    traffic.attach(SimpleNamespace(
        topology=SimpleNamespace(num_nodes=num_nodes),
        interfaces=[node] * num_nodes))
    for now in range(1, 5001):
        if now in (2000, 2700):
            # Engine.quiesce: generation off, then the saved load back
            for side in (oracle, traffic):
                side.load = 0.0 if now == 2000 else load
        oracle.step(now)
        traffic.step(now)
    assert len(want) > 100
    assert got == want
    assert traffic.generated == len(want)
