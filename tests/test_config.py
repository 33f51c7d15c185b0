"""Tests for repro.config: validation and threshold resolution."""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
from repro.config import (
    DEFAULT_TX_SIZE,
    ExperimentConfig,
    ProtocolConfig,
    SystemConfig,
    quorum_for,
    validity_quorum_for,
)
from repro.errors import ConfigError


class TestSystemConfig:
    def test_f_derived(self):
        assert SystemConfig(n=4).f == 1
        assert SystemConfig(n=7).f == 2
        assert SystemConfig(n=10).f == 3
        assert SystemConfig(n=22).f == 7

    def test_explicit_f_within_bound(self):
        assert SystemConfig(n=7, f=1).f == 1

    def test_f_too_large_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(n=4, f=2)

    def test_zero_replicas_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(n=0)

    def test_quorums(self):
        system = SystemConfig(n=7)
        assert system.quorum == 5
        assert system.validity_quorum == 3
        assert quorum_for(7, 2) == 5
        assert validity_quorum_for(7, 2) == 3

    def test_replica_ids(self):
        assert list(SystemConfig(n=4).replica_ids) == [0, 1, 2, 3]

    def test_unknown_crypto(self):
        with pytest.raises(ConfigError):
            SystemConfig(n=4, crypto="rsa")

    def test_with_updates_revalidates(self):
        system = SystemConfig(n=7)
        # The resolved f carries over (still valid for n=10); pass f=-1 to
        # re-derive the maximum.
        assert system.with_updates(n=10).f == 2
        assert system.with_updates(n=10, f=-1).f == 3
        with pytest.raises(ConfigError):
            system.with_updates(n=4, f=2)


class TestProtocolConfig:
    def test_defaults(self):
        cfg = ProtocolConfig()
        assert cfg.batch_size == 400
        assert cfg.tx_size == DEFAULT_TX_SIZE
        assert cfg.commit_threshold == "f+1"
        assert cfg.coin_threshold == "2f+1"

    def test_threshold_resolution(self):
        system = SystemConfig(n=7)
        cfg = ProtocolConfig()
        assert cfg.resolve_commit_threshold(system) == 3
        assert cfg.resolve_coin_threshold(system) == 5
        alt = ProtocolConfig(commit_threshold="2f+1", coin_threshold="f+1")
        assert alt.resolve_commit_threshold(system) == 5
        assert alt.resolve_coin_threshold(system) == 3

    def test_invalid_threshold_spec(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(commit_threshold="3f+1")

    def test_invalid_batch(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(batch_size=0)


class TestExperimentConfig:
    def base(self, **kw):
        kw.setdefault("system", SystemConfig(n=4))
        return ExperimentConfig(**kw)

    def test_defaults(self):
        cfg = self.base()
        assert cfg.protocol_name == "lightdag2"
        assert cfg.adversary_name == "none"

    def test_warmup_must_fit(self):
        with pytest.raises(ConfigError):
            self.base(duration=5.0, warmup=5.0)
        with pytest.raises(ConfigError):
            self.base(duration=5.0, warmup=-1.0)

    def test_duration_positive(self):
        with pytest.raises(ConfigError):
            self.base(duration=0.0)

    def test_bandwidth_positive(self):
        with pytest.raises(ConfigError):
            self.base(bandwidth_bps=0)

    def test_with_updates(self):
        cfg = self.base().with_updates(protocol_name="tusk", seed=9)
        assert cfg.protocol_name == "tusk" and cfg.seed == 9


def test_every_config_field_is_read():
    """An option nothing reads is dead weight every test and benchmark must
    still carry: each config field is read as an attribute somewhere in
    the package outside ``config.py``."""
    package = Path(repro.__file__).parent
    read = set()
    for path in package.rglob("*.py"):
        if path.name == "config.py" and path.parent == package:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = [
        f"{cls.__name__}.{f.name}"
        for cls in (SystemConfig, ProtocolConfig, ExperimentConfig)
        for f in dataclasses.fields(cls)
        if f.name not in read
    ]
    assert unread == []
