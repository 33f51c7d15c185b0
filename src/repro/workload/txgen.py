"""The saturating replica mempool.

The paper's clients submit 128-byte transactions to every replica (§VI-A);
the batch size (transactions per block) is the swept variable of Figs. 12
and 14, where the paper ramps offered load to whatever the system absorbs.
The mempool models that analytically: there is always a full batch
available, stamped at proposal time, so latency measures the pure consensus
path without one simulator event per transaction.

Each batch is a :class:`~repro.dag.block.TxBatch` carrying the exact
submit-time sum (for mean latency) and a one-element sample (percentiles).
Open-loop traffic — arrivals at an offered rate, a bounded admission queue,
per-command latency — is the client plane's job:
:mod:`repro.workload.clients` + :mod:`repro.workload.admission`, driven by
``repro loadtest``.
"""

from __future__ import annotations

from ..config import ProtocolConfig
from ..dag.block import TxBatch
from ..errors import ConfigError


class Mempool:
    """Per-replica source of full batches feeding block proposals.

    Parameters
    ----------
    batch_size:
        Transactions per block (the paper's swept knob).
    tx_size:
        Bytes per transaction (128 in §VI-A).
    """

    def __init__(self, batch_size: int, tx_size: int) -> None:
        if batch_size < 1:
            raise ConfigError("batch_size must be positive")
        self.batch_size = batch_size
        self.tx_size = tx_size
        self.taken_total = 0
        self._trace = None
        self._trace_node = -1

    def bind_trace(self, trace, node_id: int) -> None:
        """Attach a tracer so drains emit ``trace.batch`` spans — the
        tx-enqueued → batched-into-block milestone.  The span's timestamp
        equals the proposing block's ``block.propose`` time, which is how
        the analysis layer pairs the two."""
        self._trace = trace
        self._trace_node = node_id

    @classmethod
    def from_config(cls, protocol: ProtocolConfig) -> "Mempool":
        return cls(batch_size=protocol.batch_size, tx_size=protocol.tx_size)

    def take(self, now: float) -> TxBatch:
        """A full batch for a block proposed now."""
        self.taken_total += self.batch_size
        if self._trace is not None:
            self._trace.emit(
                now, "trace.batch", self._trace_node,
                count=self.batch_size, mean_submit=now, oldest=now,
            )
        return TxBatch(
            count=self.batch_size,
            tx_size=self.tx_size,
            submit_time_sum=self.batch_size * now,
            sample=(now,),
        )

    def payload_source(self):
        """Adapter matching the node's ``payload_source(now)`` hook."""
        return self.take
