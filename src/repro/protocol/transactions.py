"""Transaction patterns (Table 3) and transaction construction.

A *transaction pattern* fixes the probability of each dependency-chain
length; sampling a pattern yields a concrete transaction: an ``m1`` from a
requester to a home node whose continuation spells out every subordinate
message.  The five patterns of Table 3 are provided, and the closed-form
message-type distribution implied by a pattern can be computed with
:meth:`TransactionPattern.type_distribution` (this is what regenerates
Table 3; see EXPERIMENTS.md for the PAT721 erratum).

Chain shapes (one sharer per shared block, per the paper):

========  ===========================================================
Length    Messages
========  ===========================================================
2         requester --m1--> home --m4--> requester
3 (MSI)   requester --m1--> home --m2--> third --m4--> requester
3 (O2K)   requester --ORQ--> home --FRQ--> third --TRP--> requester
4 (MSI)   requester --m1--> home --m2--> third --m3--> home
          --m4--> requester
========  ===========================================================
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.protocol.chains import GENERIC_MSI, GENERIC_ORIGIN, Protocol
from repro.protocol.message import Message, MessageSpec, MessageType, Transaction
from repro.util.errors import ConfigurationError

_txn_uid = itertools.count()


@dataclass(frozen=True)
class TransactionPattern:
    """A distribution over dependency-chain lengths (one Table 3 row).

    Parameters
    ----------
    name:
        Pattern name, e.g. ``"PAT721"``.
    protocol:
        The protocol whose chains are sampled.
    length_probs:
        Mapping from chain length to probability; must sum to 1.
    """

    name: str
    protocol: Protocol
    length_probs: tuple[tuple[int, float], ...]
    #: chain length -> its message types, filled by :meth:`chain_types`.
    _chain_types: dict = field(
        default_factory=dict, init=False, compare=False, repr=False
    )
    #: (chain lengths, their normalized CDF), for sample_chain_length.
    _length_cdf: tuple = field(default=(), init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        total = sum(p for _, p in self.length_probs)
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(
                f"{self.name}: chain-length probabilities sum to {total}, not 1"
            )
        for length, _ in self.length_probs:
            if length < 2 or length > self.protocol.max_chain_length + (
                1 if self.protocol.backoff else 0
            ):
                raise ConfigurationError(
                    f"{self.name}: unsupported chain length {length}"
                )
        cdf = np.asarray([p for _, p in self.length_probs], dtype=np.float64).cumsum()
        cdf /= cdf[-1]
        object.__setattr__(self, "_length_cdf", (
            [length for length, _ in self.length_probs], cdf.tolist()
        ))

    # ------------------------------------------------------------------
    # Chain structure
    # ------------------------------------------------------------------
    def chain_type_names(self, length: int) -> list[str]:
        """Ordered type names for a chain of the given length."""
        p = self.protocol
        if p is GENERIC_ORIGIN or p.name == "generic-origin":
            shapes = {2: ["ORQ", "TRP"], 3: ["ORQ", "FRQ", "TRP"]}
        else:
            names = [t.name for t in p.types]
            shapes = {
                2: [names[0], names[3]],
                3: [names[0], names[1], names[3]],
                4: list(names),
            }
        if length not in shapes:
            raise ConfigurationError(
                f"{self.name}: protocol {p.name} has no chain of length {length}"
            )
        return shapes[length]

    def chain_types(self, length: int) -> tuple[MessageType, ...]:
        """:meth:`chain_type_names` resolved to types, once per length."""
        types = self._chain_types.get(length)
        if types is None:
            types = self._chain_types[length] = tuple(
                self.protocol.type_named(name)
                for name in self.chain_type_names(length)
            )
        return types

    @property
    def types_used(self) -> tuple[str, ...]:
        """Type names appearing in any chain with non-zero probability.

        This determines the number of logical networks strict avoidance
        must provide (e.g. PAT100 only ever uses m1 and m4, so SA needs
        just two networks even under the four-type protocol).
        """
        used: list[str] = []
        for length, prob in self.length_probs:
            if prob <= 0.0:
                continue
            for name in self.chain_type_names(length):
                if name not in used:
                    used.append(name)
        order = {t.name: t.index for t in self.protocol.types}
        return tuple(sorted(used, key=lambda n: order[n]))

    @property
    def num_message_types(self) -> int:
        return len(self.types_used)

    @property
    def dr_valid(self) -> bool:
        """Deflective recovery needs >2 types, else it degenerates to SA.

        The paper: "for PAT100, DR is not valid, so no results are given"
        (Section 4.3.2).
        """
        return self.num_message_types > 2

    # ------------------------------------------------------------------
    # Table 3: message-type distribution
    # ------------------------------------------------------------------
    def type_distribution(self) -> dict[str, float]:
        """Closed-form fraction of network messages of each type.

        Each chain of length ``L`` contributes exactly one message of each
        of its ``L`` types; the fraction of type ``t`` is its expected
        count divided by the expected total message count.
        """
        counts: dict[str, float] = {t.name: 0.0 for t in self.protocol.types}
        total = 0.0
        for length, prob in self.length_probs:
            if prob <= 0.0:
                continue
            for name in self.chain_type_names(length):
                counts[name] += prob
            total += prob * length
        return {name: c / total for name, c in counts.items()}

    def mean_chain_length(self) -> float:
        return sum(length * prob for length, prob in self.length_probs)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample_chain_length(self, u: float) -> int:
        """The chain length the uniform draw ``u`` in [0, 1) selects.

        Given ``u = rng.random()`` this is ``rng.choice(lengths,
        p=probs)``: choice() draws the same single uniform and looks it
        up with ``searchsorted(side="right")`` in the same normalized
        CDF, which is built once per pattern instead of revalidated per
        draw.
        """
        lengths, cdf = self._length_cdf
        return lengths[bisect_right(cdf, u)]

    def build_transaction(
        self,
        requester: int,
        home: int,
        third: int,
        created_cycle: int,
        length: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> Transaction:
        """Create a transaction with a concrete message plan.

        ``third`` is the owner/sharer node used by chains of length >= 3
        (the paper assumes a single sharer per block).  The returned
        transaction's ``root`` is the initial request message, ready for
        enqueueing at the requester.
        """
        if length is None:
            if rng is None:
                raise ConfigurationError("either length or rng must be given")
            length = self.sample_chain_length(rng.random())
        types = self.chain_types(length)
        t = Transaction(
            uid=next(_txn_uid),
            requester=requester,
            home=home,
            chain_length=length,
            created_cycle=created_cycle,
        )

        # Build the continuation inside-out (last message first).
        if length == 2:
            # home -> requester
            cont = (MessageSpec(types[1], requester),)
        elif length == 3:
            # home -> third -> requester
            last = MessageSpec(types[2], requester)
            cont = (MessageSpec(types[1], third, (last,)),)
        elif length == 4:
            # home -> third -> home -> requester
            last = MessageSpec(types[3], requester)
            back = MessageSpec(types[2], home, (last,))
            cont = (MessageSpec(types[1], third, (back,)),)
        else:  # pragma: no cover - guarded in chain_type_names
            raise ConfigurationError(f"unsupported chain length {length}")

        root = Message(
            types[0],
            src=requester,
            dst=home,
            continuation=cont,
            transaction=t,
            created_cycle=created_cycle,
        )
        t.root = root
        t.outstanding = length  # one live/pending message per chain type
        t.messages_used = length
        return t


def _pattern(name: str, protocol: Protocol, probs: dict[int, float]):
    return TransactionPattern(name, protocol, tuple(sorted(probs.items())))


#: Table 3 patterns.  PAT100 models message-passing / all-home-owned
#: shared memory; PAT721..PAT271 model increasing remote ownership under
#: the MSI-style generic protocol; PAT280 models an Origin2000-like
#: protocol with chains of at most three types.
PAT100 = _pattern("PAT100", GENERIC_MSI, {2: 1.0})
PAT721 = _pattern("PAT721", GENERIC_MSI, {2: 0.7, 3: 0.2, 4: 0.1})
PAT451 = _pattern("PAT451", GENERIC_MSI, {2: 0.4, 3: 0.5, 4: 0.1})
PAT271 = _pattern("PAT271", GENERIC_MSI, {2: 0.2, 3: 0.7, 4: 0.1})
PAT280 = _pattern("PAT280", GENERIC_ORIGIN, {2: 0.2, 3: 0.8})

PATTERNS: dict[str, TransactionPattern] = {
    p.name: p for p in (PAT100, PAT721, PAT451, PAT271, PAT280)
}
