"""Tests for protocol definitions."""

import pytest

from repro.protocol.chains import (
    GENERIC_MSI,
    GENERIC_ORIGIN,
    MSI_COHERENCE,
    PROTOCOLS,
)
from repro.protocol.message import NetClass
from repro.util.errors import ConfigurationError


class TestGenericMsi:
    def test_four_types_in_order(self):
        names = [t.name for t in GENERIC_MSI.types]
        assert names == ["m1", "m2", "m3", "m4"]
        assert [t.index for t in GENERIC_MSI.types] == [0, 1, 2, 3]

    def test_max_chain_length(self):
        assert GENERIC_MSI.max_chain_length == 4

    def test_validate_chain_accepts_ordered(self):
        GENERIC_MSI.validate_chain(["m1", "m2", "m4"])

    def test_validate_chain_rejects_disordered(self):
        with pytest.raises(ConfigurationError):
            GENERIC_MSI.validate_chain(["m2", "m1"])

    def test_backoff_in_all_types_not_chain(self):
        assert GENERIC_MSI.backoff in GENERIC_MSI.all_types
        assert GENERIC_MSI.backoff not in GENERIC_MSI.types


class TestOriginMapping:
    def test_origin_types(self):
        names = [t.name for t in GENERIC_ORIGIN.types]
        assert names == ["ORQ", "FRQ", "TRP"]

    def test_backoff_is_brp_reply(self):
        brp = GENERIC_ORIGIN.backoff
        assert brp.name == "BRP"
        assert brp.net_class == NetClass.REPLY
        assert brp.index == 1  # the paper's m2 position (Figure 2)

    def test_frq_is_request_class(self):
        assert GENERIC_ORIGIN.type_named("FRQ").net_class == NetClass.REQUEST


class TestMsiCoherence:
    def test_s1_mapping(self):
        # "The S-1 (and MSI) protocol has m1 = RQ, m2 = FRQ, m3 = FRP,
        # and m4 = RP" (Section 4.3.1).
        names = [t.name for t in MSI_COHERENCE.types]
        assert names == ["RQ", "FRQ", "FRP", "RP"]

    def test_reply_lengths(self):
        assert MSI_COHERENCE.type_named("FRP").flits == 20
        assert MSI_COHERENCE.type_named("FRQ").flits == 4


class TestRegistry:
    def test_registry_contents(self):
        assert set(PROTOCOLS) == {"generic-msi", "generic-origin", "msi"}

    def test_type_named_raises_for_unknown(self):
        with pytest.raises(KeyError):
            GENERIC_MSI.type_named("nope")
