"""Post-run deep audit: per-node and cross-replica invariant oracles.

Each ``audit_*`` function inspects one node (or the honest set) after a
run and returns a list of human-readable violation strings — empty when
the invariant holds.  :func:`deep_audit` composes them all, journals the
verdict, and raises :class:`~repro.errors.InvariantViolation` on failure.

The oracles only state facts a correct replica must satisfy under *any*
message schedule and any tolerated fault pattern, so the fuzzer can run
them against arbitrary generated schedules without false positives:

==========================  ==================================================
oracle                      paper claim it checks
==========================  ==================================================
ledger positions dense,     the ledger is a totally ordered sequence (§II-A)
leader_index monotone
committed signatures        only authenticated blocks commit (integrity)
ancestry closure            a commit carries its causal history (Algorithm 1)
retrieval/store coherence   §IV-A state machine converges (no zombie state)
LightDAG2 Rule 2            one endorsement per slot, consistent with store
LightDAG2 Rule 3            blacklist ⊆ verified proofs; own blocks never
                            pair a culprit's proof with the culprit's block
leader-sequence agreement   Lemma 1 / Theorem 2: one leader sequence
commit-metadata agreement   same position ⇒ same block, same leader index,
                            same committing leader (Theorems 2 and 6)
==========================  ==================================================

The ledger oracles read what the ledger stores — the columns of each
position's header fields (digest, round, author, parents, signature) and
commit metadata (:class:`~repro.dag.ledger.LedgerColumns`) — never the
committed block, whose body is freed once the store prunes it, and never
every position as an entry object at once.  A parent that is not in the
ledger is looked up in the store, which may have pruned it too (see
:func:`audit_ledger`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..crypto.hashing import short_hex
from ..dag.ledger import check_prefix_consistency
from ..errors import InvariantViolation, ProtocolError
from ..obs import NULL_OBS, Observability

# ------------------------------------------------------------------ per-node


def audit_ledger(node, label: str) -> List[str]:
    """Ledger shape + signatures + ancestry closure for one node.

    Reads the ledger's columns (:class:`~repro.dag.ledger.LedgerColumns`)
    position by position; no :class:`~repro.dag.ledger.LedgerEntry` is
    built, so the audit does not hold a second copy of the ledger.
    """
    violations: List[str] = []
    cols = node.ledger.columns
    # A position is an index into every column, so the columns must agree
    # on how many positions there are.
    length = len(cols.digest)
    for name, column in zip(cols._fields, cols):
        if len(column) != length:
            violations.append(
                f"{label}: ledger positions not dense — column {name} has "
                f"{len(column)} entries for {length} digests"
            )
    positions = {digest: idx for idx, digest in enumerate(cols.digest)}
    last_leader_index = -1
    via_by_index = {}
    verify = node.backend.verify
    for idx, (leader_index, via_leader, author, digest, signature) in enumerate(
        zip(cols.leader_index, cols.via_leader, cols.author, cols.digest,
            cols.signature)
    ):
        if leader_index < last_leader_index:
            violations.append(
                f"{label}: leader_index decreases at position {idx} "
                f"({last_leader_index} -> {leader_index})"
            )
        last_leader_index = max(last_leader_index, leader_index)
        seen_via = via_by_index.setdefault(leader_index, via_leader)
        if seen_via != via_leader:
            violations.append(
                f"{label}: two via_leader digests under leader index "
                f"{leader_index}"
            )
        if not verify(author, digest, signature):
            violations.append(
                f"{label}: committed block {short_hex(digest)} "
                f"at position {idx} has an invalid signature"
            )

    # Ancestry closure: every parent of a committed block is committed at a
    # smaller position, is genesis, or is provably below the committing
    # leader's deterministic GC floor.  Parents absent from both the ledger
    # and the (pruned) store are exempt only when GC is configured — the
    # conservative reading that avoids false positives after pruning.
    gc_depth = node.protocol.gc_depth
    for idx, (via_leader, parents) in enumerate(zip(cols.via_leader, cols.parents)):
        leader_pos = positions.get(via_leader)
        if leader_pos is None:
            violations.append(
                f"{label}: position {idx} committed via leader "
                f"{short_hex(via_leader)} which is not in the ledger"
            )
            continue
        floor: Optional[int] = None
        if gc_depth is not None:
            floor = cols.round[leader_pos] - gc_depth
        for parent_digest in parents:
            parent_pos = positions.get(parent_digest)
            if parent_pos is not None:
                if parent_pos >= idx:
                    violations.append(
                        f"{label}: position {idx} references a parent "
                        f"committed later (position {parent_pos})"
                    )
                continue
            parent = node.store.get_optional(parent_digest)
            if parent is not None and parent.is_genesis:
                continue
            if gc_depth is None:
                violations.append(
                    f"{label}: committed block at position {idx} references "
                    f"uncommitted parent {short_hex(parent_digest)}"
                )
            elif parent is not None and floor is not None and parent.round >= floor:
                violations.append(
                    f"{label}: committed block at position {idx} references "
                    f"uncommitted parent {short_hex(parent_digest)} at round "
                    f"{parent.round}, inside the leader's GC window "
                    f"(floor {floor})"
                )
    return violations


def audit_retrieval(node, label: str) -> List[str]:
    """§IV-A retrieval state machine coherence against the store."""
    violations: List[str] = []
    state = node.retrieval.audit_state()
    store = node.store
    pending = state["pending"]
    dependents = state["dependents"]

    for digest in state["asked"]:
        if digest in store:
            violations.append(
                f"{label}: digest {short_hex(digest)} still asked for but "
                f"already delivered to the store"
            )
        if not dependents.get(digest):
            violations.append(
                f"{label}: digest {short_hex(digest)} asked for but no "
                f"parked block needs it"
            )

    union_missing = set()
    for digest, (block, missing) in pending.items():
        if digest in store:
            violations.append(
                f"{label}: pending block {short_hex(digest)} is already in "
                f"the store"
            )
        if not missing:
            violations.append(
                f"{label}: pending block {short_hex(digest)} has an empty "
                f"missing set (should have been accepted)"
            )
        for parent in missing:
            union_missing.add(parent)
            if parent in store:
                violations.append(
                    f"{label}: pending block {short_hex(digest)} waits for "
                    f"parent {short_hex(parent)} which is in the store"
                )
            if digest not in dependents.get(parent, ()):
                violations.append(
                    f"{label}: missing parent {short_hex(parent)} lacks the "
                    f"inverse dependents entry for {short_hex(digest)}"
                )
    for parent, deps in dependents.items():
        if parent not in union_missing:
            violations.append(
                f"{label}: dependents tracks {short_hex(parent)} which no "
                f"pending block is missing"
            )
        for dep in deps:
            if dep not in pending:
                violations.append(
                    f"{label}: dependents of {short_hex(parent)} reference "
                    f"unknown pending block {short_hex(dep)}"
                )
    return violations


def audit_lightdag2(node, label: str) -> List[str]:
    """LightDAG2 Rule 2/3 bookkeeping soundness (§V)."""
    violations: List[str] = []
    if node.blacklist != set(node.proofs):
        violations.append(
            f"{label}: blacklist {sorted(node.blacklist)} != proven culprits "
            f"{sorted(node.proofs)}"
        )
    for culprit, proof in node.proofs.items():
        if proof.culprit != culprit:
            violations.append(
                f"{label}: proof filed under culprit {culprit} names "
                f"{proof.culprit}"
            )
        elif not proof.verify(node.backend):
            violations.append(
                f"{label}: stored Byzantine proof against {culprit} does not "
                f"verify"
            )

    # Rule 2: the endorsement map is single-valued by construction; check
    # the endorsements are *consistent* — each names a CBC-parent-round
    # slot and, where the block is still retained, the right slot.
    for slot, digest in node.voted_refs.items():
        round_, author = slot
        if round_ > 0 and node.round_kind(round_) != 1:
            violations.append(
                f"{label}: endorsement for slot {slot} is not a first-PBC-"
                f"round slot (CBC parents live in round ⟨w,1⟩)"
            )
        endorsed = node.store.get_optional(digest)
        if endorsed is not None and endorsed.slot != slot:
            violations.append(
                f"{label}: endorsement for slot {slot} points at block "
                f"{short_hex(digest)} which sits in slot {endorsed.slot}"
            )

    # Rule 3: a block of ours that embeds the proof against a culprit must
    # not simultaneously reference one of the culprit's blocks.
    for digest, block in node.my_blocks.items():
        for proof in block.byz_proofs:
            for parent_digest in block.parents:
                parent = node.store.get_optional(parent_digest)
                if (
                    parent is not None
                    and not parent.is_genesis
                    and parent.author == proof.culprit
                ):
                    violations.append(
                        f"{label}: own block {short_hex(digest)} embeds the "
                        f"proof against {proof.culprit} yet references the "
                        f"culprit's block {short_hex(parent_digest)}"
                    )

    for digest, original in node._pending_repropose.items():
        if original.author != node.node_id:
            violations.append(
                f"{label}: pending reproposal {short_hex(digest)} is not an "
                f"own block (author {original.author})"
            )
        elif node.round_kind(original.round) != node.CBC_E:
            violations.append(
                f"{label}: pending reproposal {short_hex(digest)} is not a "
                f"CBC-round block (round {original.round})"
            )
    return violations


# -------------------------------------------------------------- cross-replica


def audit_cross_replica(nodes: Sequence, labels: Sequence[str]) -> List[str]:
    """Agreement among honest replicas: digest prefix, leader sequence, and
    per-position commit metadata."""
    violations: List[str] = []
    if not nodes:
        return violations
    try:
        check_prefix_consistency([node.ledger for node in nodes])
    except ProtocolError as exc:
        violations.append(str(exc))

    # Per-position commit metadata against the longest ledger, column by
    # column; one divergence point per pair is enough signal.
    columns = [node.ledger.columns for node in nodes]
    ref = max(range(len(columns)), key=lambda i: len(columns[i].digest))
    ref_cols = columns[ref]
    for i, cols in enumerate(columns):
        if i == ref:
            continue
        diverged = [
            pos
            for pos in (
                _first_difference(cols.leader_index, ref_cols.leader_index),
                _first_difference(cols.via_leader, ref_cols.via_leader),
            )
            if pos is not None
        ]
        if diverged:
            pos = min(diverged)
            violations.append(
                f"commit-metadata disagreement at position {pos} between "
                f"{labels[i]} and {labels[ref]}: leader_index "
                f"{cols.leader_index[pos]} vs {ref_cols.leader_index[pos]}, "
                f"via_leader {short_hex(cols.via_leader[pos])} vs "
                f"{short_hex(ref_cols.via_leader[pos])}"
            )

    # Committed-leader sequence agreement (Lemma 1 / Theorem 2): the k-th
    # committed leader is the same block everywhere, prefix-wise.
    leader_seqs = [_leader_sequence(cols) for cols in columns]
    ref_seq = max(leader_seqs, key=len)
    for i, seq in enumerate(leader_seqs):
        if seq != ref_seq[: len(seq)]:
            diverge = _first_difference(seq, ref_seq)
            violations.append(
                f"{labels[i]}: committed-leader sequence diverges at leader "
                f"index {diverge}"
            )
    return violations


def _first_difference(mine: Sequence, theirs: Sequence) -> Optional[int]:
    """First index where two columns differ over their common length."""
    shared = min(len(mine), len(theirs))
    if mine[:shared] == theirs[:shared]:
        return None
    return next(pos for pos, (a, b) in enumerate(zip(mine, theirs)) if a != b)


def _leader_sequence(cols) -> List:
    """The committed leaders in leader-index order: each index's first
    ``via_leader``."""
    seq: List = []
    for leader_index, via_leader in zip(cols.leader_index, cols.via_leader):
        if leader_index == len(seq):
            seq.append(via_leader)
    return seq


# ---------------------------------------------------------------- composition


def deep_audit(
    nodes: Sequence,
    labels: Optional[Sequence[str]] = None,
    obs: Optional[Observability] = None,
    raise_on_violation: bool = True,
    now: float = 0.0,
) -> List[str]:
    """Run every applicable oracle over the honest node set.

    Returns the collected violation strings (empty on success); raises
    :class:`~repro.errors.InvariantViolation` carrying all of them when
    ``raise_on_violation`` is set.  The verdict is journaled as
    ``oracle.audit`` (+ one ``oracle.violation`` event per finding) when
    observability is enabled.
    """
    from ..core.lightdag2 import LightDag2Node

    obs = obs if obs is not None else NULL_OBS
    if labels is None:
        labels = [f"replica {getattr(n, 'node_id', i)}" for i, n in enumerate(nodes)]
    violations: List[str] = []
    for node, label in zip(nodes, labels):
        violations.extend(audit_ledger(node, label))
        violations.extend(audit_retrieval(node, label))
        if isinstance(node, LightDag2Node):
            violations.extend(audit_lightdag2(node, label))
    violations.extend(audit_cross_replica(nodes, labels))
    if obs.enabled:
        obs.journal.emit(
            now, "oracle.audit", -1,
            nodes=len(nodes), violations=len(violations),
        )
        for text in violations:
            obs.journal.emit(now, "oracle.violation", -1, detail=text)
    if violations and raise_on_violation:
        raise InvariantViolation(
            "invariant audit failed ({} violation{}):\n  {}".format(
                len(violations), "s" if len(violations) != 1 else "",
                "\n  ".join(violations),
            )
        )
    return violations
