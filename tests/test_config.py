"""Tests for SimConfig validation."""

import pytest

from repro.config import SimConfig
from repro.util.errors import ConfigurationError


class TestDefaults:
    def test_table2_defaults(self):
        cfg = SimConfig()
        assert cfg.dims == (8, 8)
        assert cfg.num_vcs == 4
        assert cfg.flit_buffer_depth == 2
        assert cfg.queue_capacity == 16
        assert cfg.service_time == 40
        assert cfg.bristling == 1
        assert cfg.detection_threshold == 25

    def test_with_returns_modified_copy(self):
        cfg = SimConfig()
        other = cfg.with_(load=0.01, scheme="DR")
        assert other.load == 0.01 and other.scheme == "DR"
        assert cfg.load != 0.01  # original untouched
        assert cfg is not other


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scheme": "XX"},
            {"queue_mode": "weird"},
            {"num_vcs": 0},
            {"flit_buffer_depth": 0},
            {"queue_capacity": 0},
            {"load": -0.1},
            {"load": 1.5},
            {"max_outstanding": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("name", ["detection_threshold", "router_timeout",
                                      "service_time", "sink_time", "cwg_interval"])
    def test_timeouts_reject_negative_allow_zero(self, name):
        for bad in (-3, -1):
            with pytest.raises(ConfigurationError, match=name):
                SimConfig(dims=(4, 4), **{name: bad})
        assert getattr(SimConfig(dims=(4, 4), **{name: 0}), name) == 0

    def test_frozen(self):
        cfg = SimConfig()
        with pytest.raises(Exception):
            cfg.load = 0.5
