"""Synthetic open-loop traffic (Section 4.3.1).

Request messages — the first type of every dependency chain — are
generated at each node by a Bernoulli process at the configured applied
load (requests/node/cycle); destinations (home nodes) are uniformly
random, as is the third-party owner/sharer node used by chains of length
three or more.  All subordinate message types are generated automatically
when messages are serviced at end nodes, exactly as in FlexSim.
"""

from __future__ import annotations

from repro.protocol.transactions import TransactionPattern
from repro.util.errors import ConfigurationError
from repro.util.rng import make_rng


class SyntheticTraffic:
    """Bernoulli request generation over a transaction pattern."""

    def __init__(self, pattern: TransactionPattern, load: float, seed: int) -> None:
        self.pattern = pattern
        self.load = load
        self.rng = make_rng(seed, "traffic")
        self.engine = None
        self.generated = 0

    def attach(self, engine) -> None:
        self.engine = engine
        n = self._num_nodes = engine.topology.num_nodes
        # a home besides the requester, and a third party besides both
        need = 2 + any(k >= 3 and p > 0 for k, p in self.pattern.length_probs)
        if n < need:
            raise ConfigurationError(f"pattern {self.pattern.name} needs at"
                                     f" least {need} nodes, the network has {n}")

    def step(self, now: int) -> None:
        if self.load <= 0.0:
            return
        hits = (self.rng.random(self._num_nodes) < self.load).nonzero()[0]
        for node in hits.tolist():
            self._generate(node, now)

    def _generate(self, node: int, now: int) -> None:
        n = self._num_nodes
        rng = self.rng
        home = int(rng.integers(0, n - 1))
        if home >= node:
            home += 1
        length = self.pattern.sample_chain_length(rng)
        third = node
        if length >= 3:
            # A third party distinct from requester and home.
            while third == node or third == home:
                third = int(rng.integers(0, n))
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
