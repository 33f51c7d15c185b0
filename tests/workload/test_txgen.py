"""Tests for repro.workload.txgen: the saturating mempool."""

import pytest

from repro.errors import ConfigError
from repro.workload.txgen import Mempool


class TestSaturatingMode:
    def test_always_full_batches(self):
        pool = Mempool(batch_size=100, tx_size=128)
        batch = pool.take(now=5.0)
        assert batch.count == 100
        assert batch.submit_time_sum == pytest.approx(500.0)

    def test_stamped_at_proposal(self):
        pool = Mempool(batch_size=10, tx_size=128)
        assert pool.take(3.0).mean_submit_time() == pytest.approx(3.0)

    def test_taken_total_accumulates(self):
        pool = Mempool(batch_size=10, tx_size=128)
        pool.take(1.0)
        pool.take(2.0)
        assert pool.taken_total == 20


class TestValidation:
    def test_bad_batch_size(self):
        with pytest.raises(ConfigError):
            Mempool(batch_size=0, tx_size=128)

    def test_from_config(self):
        from repro.config import ProtocolConfig

        pool = Mempool.from_config(ProtocolConfig(batch_size=250, tx_size=64))
        assert pool.batch_size == 250
        assert pool.tx_size == 64
