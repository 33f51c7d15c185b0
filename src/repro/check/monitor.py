"""Mid-run invariant monitor.

Wired through the hooks every node already exposes — ``on_commit`` (one
call per :class:`~repro.dag.ledger.CommitRecord`) and ``on_deliver`` — so
a violation surfaces *at the simulated instant it happens*, with the
replica and timestamp in the exception, instead of as an end-of-run diff.
The checks are O(1) dictionary work per event (plus one memoized signature
verification per commit), cheap enough for the fuzzer to leave on for
every run.

Per-commit, per-node: positions dense, ``leader_index`` monotone, one
``via_leader`` per leader index, committed signature valid.  Cross-replica:
a first-writer-wins map position → (digest, leader index, committing
leader); the first replica to disagree with it is the earliest observable
safety violation (Theorems 2/6).  Per-delivery: parents must be present in
the store (the §IV-A gate) unless GC already pruned below round 1.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..crypto.hashing import Digest, short_hex
from ..dag.ledger import CommitRecord
from ..errors import InvariantViolation
from ..obs import NULL_OBS, Observability


class InvariantMonitor:
    """Incremental oracle over the honest replicas of one run.

    Usage (the harness does this when ``check_level="full"``)::

        monitor = InvariantMonitor(obs=obs)
        # per honest replica i:
        #   on_commit  = monitor.wrap_commit(i, inner_callback)
        #   on_deliver = monitor.deliver_hook(i)
        sim = Simulation(...)
        monitor.bind(sim.nodes)
        sim.run(...)
    """

    def __init__(self, obs: Optional[Observability] = None) -> None:
        self.obs = obs if obs is not None else NULL_OBS
        self._nodes: Optional[List] = None
        #: per-node next expected ledger position
        self._next_position: Dict[int, int] = {}
        #: per-node (leader_index, via_leader) of the last commit: indices
        #: are monotone, so one entry per node checks both rules
        self._last_leader: Dict[int, Tuple[int, Digest]] = {}
        #: global position map — first writer wins, everyone must agree
        self._positions: Dict[int, Tuple[Digest, int, Digest, int]] = {}
        self.commits_checked = 0
        self.deliveries_checked = 0

    def bind(self, nodes) -> None:
        """Give the monitor the node objects (for backends/stores); call
        after the simulation constructs them, before running."""
        self._nodes = list(nodes)

    # ------------------------------------------------------------------ hooks

    def wrap_commit(self, node_id: int, inner=None):
        """An ``on_commit`` callback that checks, then forwards to ``inner``."""

        def on_commit(record: CommitRecord) -> None:
            self._check_commit(node_id, record)
            if inner is not None:
                inner(record)

        return on_commit

    def deliver_hook(self, node_id: int):
        """An ``on_deliver`` hook for the same replica."""

        def on_deliver(block, now: float) -> None:
            self._check_deliver(node_id, block, now)

        return on_deliver

    # ----------------------------------------------------------------- checks

    def _fail(self, node_id: int, now: float, oracle: str, detail: str) -> None:
        if self.obs.enabled:
            self.obs.journal.emit(
                now, "oracle.violation", node_id, oracle=oracle, detail=detail
            )
        raise InvariantViolation(
            f"[t={now:.3f}s] replica {node_id}: {oracle}: {detail}"
        )

    def _check_commit(self, node_id: int, record: CommitRecord) -> None:
        self.commits_checked += 1
        now = record.commit_time
        expected = self._next_position.get(node_id, 0)
        if record.position != expected:
            self._fail(
                node_id, now, "ledger-dense",
                f"committed position {record.position}, expected {expected}",
            )
        self._next_position[node_id] = expected + 1

        last, seen_via = self._last_leader.get(
            node_id, (-1, record.via_leader)
        )
        if record.leader_index < last:
            self._fail(
                node_id, now, "leader-index-monotone",
                f"leader_index {record.leader_index} after {last}",
            )
        if record.leader_index == last and seen_via != record.via_leader:
            self._fail(
                node_id, now, "via-leader-consistent",
                f"leader index {record.leader_index} used by two leaders "
                f"{short_hex(seen_via)} and {short_hex(record.via_leader)}",
            )
        self._last_leader[node_id] = (record.leader_index, record.via_leader)

        if self._nodes is not None:
            block = record.block
            backend = self._nodes[node_id].backend
            if not backend.verify(block.author, block.digest, block.signature):
                self._fail(
                    node_id, now, "commit-signature",
                    f"block {short_hex(block.digest)} by {block.author} has "
                    f"an invalid signature",
                )

        entry = self._positions.get(record.position)
        if entry is None:
            self._positions[record.position] = (
                record.block.digest, record.leader_index,
                record.via_leader, node_id,
            )
        else:
            digest, leader_index, via_leader, first_node = entry
            if digest != record.block.digest:
                self._fail(
                    node_id, now, "position-agreement",
                    f"position {record.position} holds "
                    f"{short_hex(record.block.digest)} here but "
                    f"{short_hex(digest)} at replica {first_node}",
                )
            if leader_index != record.leader_index or via_leader != record.via_leader:
                self._fail(
                    node_id, now, "commit-metadata-agreement",
                    f"position {record.position} committed with leader index "
                    f"{record.leader_index} via {short_hex(record.via_leader)}"
                    f" here but leader index {leader_index} via "
                    f"{short_hex(via_leader)} at replica {first_node}",
                )

    def _check_deliver(self, node_id: int, block, now: float) -> None:
        self.deliveries_checked += 1
        if block.round < 1:
            self._fail(
                node_id, now, "deliver-round",
                f"delivered block in round {block.round}",
            )
        if self._nodes is None:
            return
        store = self._nodes[node_id].store
        missing = [p for p in block.parents if p not in store]
        # The §IV-A gate promises parents-before-participation; absence is
        # only explainable once GC has actually pruned rounds away.
        if missing and store.lowest_retained_round() <= 1:
            self._fail(
                node_id, now, "deliver-ancestry",
                f"delivered block {short_hex(block.digest)} (round "
                f"{block.round}) with parents missing from the store: "
                f"{[short_hex(d) for d in missing]}",
            )
