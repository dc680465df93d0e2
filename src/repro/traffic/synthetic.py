"""Synthetic open-loop traffic (Section 4.3.1).

Request messages — the first type of every dependency chain — are
generated at each node by a Bernoulli process at the configured applied
load (requests/node/cycle); destinations (home nodes) are uniformly
random, as is the third-party owner/sharer node used by chains of length
three or more.  All subordinate message types are generated automatically
when messages are serviced at end nodes, exactly as in FlexSim.

The draws are those of ``make_rng(seed, "traffic")`` called as
``random(num_nodes) < load`` once per cycle, then ``integers`` (home),
``random`` (chain length) and ``integers`` (third party) per request.
They are read through :class:`repro.util.rng.WordReader`, which replays
numpy's own arithmetic on the generator's raw PCG64 words, so the values,
their order and hence every run are exactly what the ``Generator`` calls
give; a cycle whose ``num_nodes`` words hold no hit costs a cursor move.
``tests/test_rng_replay.py`` pins the reader against numpy call by call,
and the whole request stream against the ``Generator``-driven generator.
"""

from __future__ import annotations

from repro.protocol.transactions import TransactionPattern
from repro.util.errors import ConfigurationError
from repro.util.rng import WordReader, make_rng


class SyntheticTraffic:
    """Bernoulli request generation over a transaction pattern."""

    def __init__(self, pattern: TransactionPattern, load: float, seed: int) -> None:
        self.pattern = pattern
        self._words = WordReader(make_rng(seed, "traffic"))
        self.load = load
        self.engine = None
        self.generated = 0

    @property
    def load(self) -> float:
        return self._load

    @load.setter
    def load(self, value: float) -> None:
        # Engine.quiesce sets 0 and back; the reader re-marks its block.
        self._load = value
        self._words.mark(value)

    def attach(self, engine) -> None:
        self.engine = engine
        n = self._num_nodes = engine.topology.num_nodes
        # a home besides the requester, and a third party besides both
        need = 2 + any(k >= 3 and p > 0 for k, p in self.pattern.length_probs)
        if n < need:
            raise ConfigurationError(f"pattern {self.pattern.name} needs at"
                                     f" least {need} nodes, the network has {n}")

    def step(self, now: int) -> None:
        if self._load <= 0.0:
            return
        for node in self._words.scan(self._num_nodes):
            self._generate(node, now)

    def _generate(self, node: int, now: int) -> None:
        n = self._num_nodes
        words = self._words
        home = words.integers(n - 1)
        if home >= node:
            home += 1
        length = self.pattern.sample_chain_length(words.random())
        third = node
        if length >= 3:
            # A third party distinct from requester and home.
            while third == node or third == home:
                third = words.integers(n)
        txn = self.pattern.build_transaction(
            requester=node, home=home, third=third, created_cycle=now, length=length
        )
        self.generated += 1
        self.engine.interfaces[node].enqueue_root(txn.root)


def pattern_couplings(pattern: TransactionPattern) -> set[tuple[str, str]]:
    """Direct (parent, child) type couplings the pattern can produce."""
    out: set[tuple[str, str]] = set()
    for length, prob in pattern.length_probs:
        if prob <= 0.0:
            continue
        names = pattern.chain_type_names(length)
        for a, b in zip(names, names[1:]):
            out.add((a, b))
    return out
