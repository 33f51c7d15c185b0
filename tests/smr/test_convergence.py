"""The convergence oracle, :meth:`SmrCluster.verify_convergence`, against
test-local mutant replicas.

A replica keeps no list of the commands it applied, only a checkpoint per
ledger position: the applied count and a chained digest of the applied
ids.  Each mutant below breaks one thing the oracle compares, and each must
be caught by its own comparison — the count, the chain, or the state.
"""

import hashlib

import pytest

from repro.config import SystemConfig
from repro.dag.block import TxBatch, make_block
from repro.dag.ledger import CommitRecord
from repro.errors import ProtocolError
from repro.smr.kv import KvStateMachine
from repro.smr.machine import Command
from repro.smr.replica import GENESIS_CHAIN, SmrCluster, SmrReplica

from ..conftest import applied_ids


def cmd(payload: bytes, nonce: int, client: str = "c") -> Command:
    return Command.create(client=client, payload=payload, nonce=nonce)


SET_1, SET_2, SET_J = cmd(b"SET k 1", 0), cmd(b"SET k 2", 1), cmd(b"SET j 3", 0, "d")

#: What every replica executes: the second position replays ``SET_1``, which
#: the session rule calls a duplicate, and the third applies nothing new.
BLOCKS = ([SET_1, SET_2], [SET_1, SET_J], [SET_2])


def commit_record(position, commands):
    items = tuple(c.to_bytes() for c in commands)
    batch = TxBatch(count=len(items), tx_size=8, items=items)
    block = make_block(position + 1, 0, [], payload=batch, repropose_index=position)
    return CommitRecord(position, block, 1.0 + position, b"L", 0)


RECORDS = [commit_record(position, commands) for position, commands in enumerate(BLOCKS)]


class AppliesDuplicates(SmrReplica):
    """Skips the session rule: forgets every window before each block."""

    def on_commit(self, record):
        self.sessions.clear()
        super().on_commit(record)


class SwapsTwoCommands(SmrReplica):
    """Applies the first two commands of a block in the wrong order."""

    def on_commit(self, record):
        items = record.block.payload.items
        if len(items) > 1:
            record = commit_record(record.position, [
                Command.from_bytes(raw) for raw in (items[1], items[0]) + items[2:]
            ])
        super().on_commit(record)


class TamperedState(SmrReplica):
    """Applies the same commands to a state that was not the initial one."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.machine.data["x"] = "tampered"


@pytest.fixture(scope="module")
def sim():
    """A cluster's simulation, never run: its ledgers are empty, so the
    oracle's prefix check passes and the replicas below are all it reads."""
    return SmrCluster.build(SystemConfig(n=4, crypto="hmac"), KvStateMachine).sim


def converge(sim, mutant=SmrReplica, positions=(3, 3, 3, 3)):
    """Replicas 0–2 honest and replica 3 ``mutant``, each having executed
    the first ``positions[i]`` of :data:`RECORDS`; then the oracle."""
    replicas = [SmrReplica(i, KvStateMachine()) for i in range(3)]
    replicas.append(mutant(3, KvStateMachine()))
    for replica, executed in zip(replicas, positions):
        for rec in RECORDS[:executed]:
            replica.on_commit(rec)
    SmrCluster(replicas, sim).verify_convergence()
    return replicas


class TestCheckpoints:
    def test_one_checkpoint_per_position_chains_the_applied_ids(self):
        replica = SmrReplica(0, KvStateMachine())
        order = applied_ids(replica)
        for rec in RECORDS:
            replica.on_commit(rec)
        assert order == [SET_1.command_id, SET_2.command_id, SET_J.command_id]
        chain, expected = GENESIS_CHAIN, [(0, GENESIS_CHAIN)]
        for applied in ([SET_1, SET_2], [SET_J], []):
            chain = hashlib.sha256(chain + b"".join(c.command_id for c in applied)).digest()
            expected.append((expected[-1][0] + len(applied), chain))
        assert replica.positions_executed() == 3
        assert [replica.checkpoint(k) for k in range(4)] == expected
        assert (replica.applied_count, replica.chain) == expected[-1]
        with pytest.raises(IndexError):
            replica.checkpoint(4)


class TestOracle:
    def test_honest_replicas_converge(self, sim):
        replicas = converge(sim)
        assert len({r.machine.state_digest() for r in replicas}) == 1

    def test_a_replica_one_position_behind_passes(self, sim):
        converge(sim, positions=(3, 3, 3, 2))  # equal counts: states compared
        converge(sim, positions=(3, 3, 3, 1))  # the count differs at the end

    def test_applying_a_duplicate_is_a_count_mismatch(self, sim):
        with pytest.raises(ProtocolError, match="applied 3 and 5 commands over the first 3"):
            converge(sim, AppliesDuplicates)

    def test_two_swapped_commands_are_a_chain_mismatch(self, sim):
        with pytest.raises(ProtocolError, match="different command sequences over the first 3"):
            converge(sim, SwapsTwoCommands)

    def test_the_same_commands_on_a_tampered_state_diverge_in_state(self, sim):
        with pytest.raises(ProtocolError, match="0 and 3 applied the same commands but diverged"):
            converge(sim, TamperedState)
