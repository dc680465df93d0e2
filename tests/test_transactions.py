"""Tests for transaction patterns (Table 3)."""

import pytest

from repro.protocol.chains import GENERIC_MSI
from repro.protocol.message import count_messages
from repro.protocol.transactions import (
    PAT100,
    PAT271,
    PAT280,
    PAT451,
    PAT721,
    PATTERNS,
    TransactionPattern,
)
from repro.util.errors import ConfigurationError
from repro.util.rng import make_rng


class TestTable3ClosedForm:
    """The paper's Table 3 message-type distribution columns."""

    @pytest.mark.parametrize(
        "pattern,expected",
        [
            (PAT100, {"m1": 0.500, "m2": 0.0, "m3": 0.0, "m4": 0.500}),
            (PAT451, {"m1": 0.371, "m2": 0.221, "m3": 0.037, "m4": 0.371}),
            (PAT271, {"m1": 0.345, "m2": 0.276, "m3": 0.034, "m4": 0.345}),
        ],
    )
    def test_matches_paper_rows(self, pattern, expected):
        # Paper rows are rounded to one decimal place (abs tol 0.002).
        dist = pattern.type_distribution()
        for name, want in expected.items():
            assert dist[name] == pytest.approx(want, abs=2e-3)

    def test_pat280_matches_paper_row(self):
        dist = PAT280.type_distribution()
        assert dist["ORQ"] == pytest.approx(0.357, abs=2e-3)
        assert dist["FRQ"] == pytest.approx(0.286, abs=2e-3)
        assert dist["TRP"] == pytest.approx(0.357, abs=2e-3)

    def test_pat721_documents_paper_erratum(self):
        # The paper's PAT721 row (47.7/12.4/4.2/47.7) sums to 112%; the
        # chain-length mix implies 41.7/12.5/4.2/41.7 which sums to 100%.
        dist = PAT721.type_distribution()
        assert sum(dist.values()) == pytest.approx(1.0)
        assert dist["m1"] == pytest.approx(1 / 2.4, abs=5e-4)
        assert dist["m2"] == pytest.approx(0.3 / 2.4, abs=5e-4)
        assert dist["m3"] == pytest.approx(0.1 / 2.4, abs=5e-4)

    def test_distributions_always_sum_to_one(self):
        for pattern in PATTERNS.values():
            assert sum(pattern.type_distribution().values()) == pytest.approx(1.0)

    def test_mean_chain_lengths(self):
        assert PAT100.mean_chain_length() == pytest.approx(2.0)
        assert PAT721.mean_chain_length() == pytest.approx(2.4)
        assert PAT271.mean_chain_length() == pytest.approx(2.9)
        assert PAT280.mean_chain_length() == pytest.approx(2.8)


class TestPatternMetadata:
    def test_types_used(self):
        assert PAT100.types_used == ("m1", "m4")
        assert PAT721.types_used == ("m1", "m2", "m3", "m4")
        assert PAT280.types_used == ("ORQ", "FRQ", "TRP")

    def test_dr_validity(self):
        # "for PAT100, DR is not valid" (Section 4.3.2).
        assert not PAT100.dr_valid
        assert PAT721.dr_valid and PAT280.dr_valid

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            TransactionPattern("bad", GENERIC_MSI, ((2, 0.5), (3, 0.2)))

    def test_unsupported_length_rejected(self):
        with pytest.raises(ConfigurationError):
            TransactionPattern("bad", GENERIC_MSI, ((7, 1.0),))


class TestBuildTransaction:
    def test_length2_structure(self):
        txn = PAT100.build_transaction(0, 5, 9, created_cycle=3, length=2)
        root = txn.root
        assert root.mtype.name == "m1" and root.src == 0 and root.dst == 5
        (reply,) = root.continuation
        assert reply.mtype.name == "m4" and reply.dst == 0
        assert reply.continuation == ()
        assert txn.outstanding == 2 and txn.messages_used == 2

    def test_length3_goes_through_third_party(self):
        txn = PAT721.build_transaction(0, 5, 9, 0, length=3)
        (fwd,) = txn.root.continuation
        assert fwd.mtype.name == "m2" and fwd.dst == 9
        (reply,) = fwd.continuation
        assert reply.mtype.name == "m4" and reply.dst == 0

    def test_length4_returns_via_home(self):
        txn = PAT721.build_transaction(0, 5, 9, 0, length=4)
        (fwd,) = txn.root.continuation
        (back,) = fwd.continuation
        (reply,) = back.continuation
        assert fwd.dst == 9 and back.dst == 5 and reply.dst == 0
        assert [s.mtype.name for s in (fwd, back, reply)] == ["m2", "m3", "m4"]
        assert 1 + count_messages(txn.root.continuation) == 4

    def test_pat280_uses_origin_names(self):
        txn = PAT280.build_transaction(1, 2, 3, 0, length=3)
        assert txn.root.mtype.name == "ORQ"
        (frq,) = txn.root.continuation
        assert frq.mtype.name == "FRQ"

    def test_sampling_respects_probabilities(self):
        rng = make_rng(11, "test")
        lengths = [PAT271.sample_chain_length(rng.random()) for _ in range(4000)]
        frac3 = lengths.count(3) / len(lengths)
        assert frac3 == pytest.approx(0.7, abs=0.04)

    def test_needs_length_or_rng(self):
        with pytest.raises(ConfigurationError):
            PAT100.build_transaction(0, 1, 2, 0)

    def test_chain_respects_total_order(self):
        for length in (2, 3, 4):
            names = PAT721.chain_type_names(length)
            GENERIC_MSI.validate_chain(names)
