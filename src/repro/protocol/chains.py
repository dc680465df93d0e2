"""Protocol definitions: message types and allowed dependency chains.

Three protocols from the paper are provided:

* :data:`GENERIC_MSI` — the generic four-type protocol of Figure 7 under
  the S-1/MSI mapping (``m1 = RQ``, ``m2 = FRQ``, ``m3 = FRP``,
  ``m4 = RP``); chains of length 2 (``m1 < m4``), 3 (``m1 < m2 < m4``)
  and 4 (``m1 < m2 < m3 < m4``).  Used by transaction patterns PAT100,
  PAT721, PAT451 and PAT271.
* :data:`GENERIC_ORIGIN` — the generic protocol under the Origin2000
  mapping (``m1 = ORQ``, ``m2 = BRP``, ``m3 = FRQ``, ``m4 = TRP``,
  Figure 2); chains of length 2 and 3, where the backoff reply ``BRP``
  appears *only* during deflective recovery.  Used by PAT280.
* :data:`MSI_COHERENCE` — the full-map directory MSI protocol of Figure 5
  used for the trace-driven characterization; structurally identical to
  :data:`GENERIC_MSI` but with the coherence-level names.

Message lengths follow Table 2: request-class types are 4 flits, reply
types 20 flits.  The backoff reply carries only owner/sharer identity, so
it defaults to the request length (4 flits).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.protocol.message import MessageType, NetClass
from repro.util.errors import ConfigurationError

REQUEST_FLITS = 4
REPLY_FLITS = 20


@dataclass(frozen=True)
class Protocol:
    """A communication protocol: ordered message types plus a backoff type.

    ``types`` are in total (chain) order; ``backoff`` is the extra
    terminating reply used exclusively by deflective recovery and is *not*
    counted as a logical network by strict avoidance (the Origin2000 lets
    BRP share the reply network, Section 2.2).
    """

    name: str
    types: tuple[MessageType, ...]
    backoff: MessageType | None = None
    _by_name: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        mapping = {t.name: t for t in self.types}
        if self.backoff is not None:
            mapping[self.backoff.name] = self.backoff
        object.__setattr__(self, "_by_name", mapping)

    def type_named(self, name: str) -> MessageType:
        """Look up a message type by name (raises ``KeyError`` if absent)."""
        return self._by_name[name]

    @property
    def all_types(self) -> tuple[MessageType, ...]:
        """Chain types plus the backoff type, if any."""
        if self.backoff is None:
            return self.types
        return self.types + (self.backoff,)

    @property
    def max_chain_length(self) -> int:
        return len(self.types)

    def validate_chain(self, names: list[str]) -> None:
        """Ensure ``names`` respects the total order (used by tests)."""
        idx = [self.type_named(n).index for n in names]
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ConfigurationError(
                f"chain {names} violates the total order of {self.name}"
            )


def _mk(name: str, index: int, cls: NetClass, flits: int, backoff: bool = False):
    return MessageType(name, index, cls, flits, is_backoff=backoff)


#: Generic protocol, S-1/MSI mapping (paper Section 4.3.1, Figure 7).
GENERIC_MSI = Protocol(
    name="generic-msi",
    types=(
        _mk("m1", 0, NetClass.REQUEST, REQUEST_FLITS),
        _mk("m2", 1, NetClass.REQUEST, REQUEST_FLITS),
        _mk("m3", 2, NetClass.REPLY, REPLY_FLITS),
        _mk("m4", 3, NetClass.REPLY, REPLY_FLITS),
    ),
    backoff=_mk("BRP", 1, NetClass.REPLY, REQUEST_FLITS, backoff=True),
)

#: Generic protocol, Origin2000 mapping (Figure 2).  ``m2`` *is* the
#: backoff reply; the normal chains use only m1/m3/m4.
GENERIC_ORIGIN = Protocol(
    name="generic-origin",
    types=(
        _mk("ORQ", 0, NetClass.REQUEST, REQUEST_FLITS),
        _mk("FRQ", 2, NetClass.REQUEST, REQUEST_FLITS),
        _mk("TRP", 3, NetClass.REPLY, REPLY_FLITS),
    ),
    backoff=_mk("BRP", 1, NetClass.REPLY, REQUEST_FLITS, backoff=True),
)

#: Full-map directory MSI protocol (Figure 5), used for trace-driven runs.
MSI_COHERENCE = Protocol(
    name="msi",
    types=(
        _mk("RQ", 0, NetClass.REQUEST, REQUEST_FLITS),
        _mk("FRQ", 1, NetClass.REQUEST, REQUEST_FLITS),
        _mk("FRP", 2, NetClass.REPLY, REPLY_FLITS),
        _mk("RP", 3, NetClass.REPLY, REPLY_FLITS),
    ),
    backoff=_mk("BRP", 1, NetClass.REPLY, REQUEST_FLITS, backoff=True),
)

PROTOCOLS: dict[str, Protocol] = {
    p.name: p for p in (GENERIC_MSI, GENERIC_ORIGIN, MSI_COHERENCE)
}
