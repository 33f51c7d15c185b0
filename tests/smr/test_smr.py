"""Tests for the SMR layer: commands, the KV machine, replication glue."""

import pytest
from hypothesis import example, given, strategies as st

from repro.codec.primitives import Writer
from repro.config import SystemConfig
from repro.crypto.hashing import hash_fields
from repro.smr.kv import KvStateMachine
from repro.smr.machine import Command
from repro.smr.replica import SmrCluster, SmrReplica

from ..conftest import count_calls


def cmd(payload: bytes, nonce=0, client="c") -> Command:
    return Command.create(client=client, payload=payload, nonce=nonce)


class TestCommand:
    def test_roundtrip(self):
        command = cmd(b"SET a 1")
        assert Command.from_bytes(command.to_bytes()) == command
        foreign = Command(command_id=b"i" * 200, client="c", payload=b"")
        assert Command.from_bytes(foreign.to_bytes()) == foreign

    def test_unique_ids(self):
        assert cmd(b"x", nonce=1).command_id != cmd(b"x", nonce=2).command_id
        assert cmd(b"x", client="a").command_id != cmd(b"x", client="b").command_id

    # An explicit alphabet (st.text() alone builds hypothesis's unicode table
    # on first use); "✓" is three bytes, so 80 of them pass the one-byte length.
    @given(
        client=st.text("aé✓\x00", max_size=80),
        nonce=st.integers(0, 2**70),
        payload=st.binary(max_size=300),
    )
    @example(client="client-7", nonce=127, payload=b"x" * 127)
    @example(client="client-7", nonce=128, payload=b"x" * 128)
    @example(client="", nonce=-(2**63), payload=b"")
    def test_id_and_wire_form_are_the_generic_ones(self, client, nonce, payload):
        """``create`` and ``to_bytes`` build their bytes by hand; they must be
        the bytes ``hash_fields`` and the codec ``Writer`` would build."""
        command = Command.create(client=client, payload=payload, nonce=nonce)
        assert command.command_id == hash_fields("cmd", client, nonce, payload)
        assert (command.client, command.payload) == (client, payload)
        written = Writer().lp_bytes(command.command_id)
        written.lp_bytes(client.encode("utf-8")).lp_bytes(payload)
        assert command.to_bytes() == written.getvalue()
        assert Command.from_bytes(command.to_bytes()) == command

    def test_malformed_bytes_rejected(self):
        from repro.codec.primitives import CodecError

        with pytest.raises(CodecError):
            Command.from_bytes(b"\xff\xff")


class TestKvMachine:
    def setup_method(self):
        self.kv = KvStateMachine()

    def apply(self, payload, nonce=[0]):
        nonce[0] += 1
        return self.kv.apply(cmd(payload, nonce=nonce[0]))

    def test_set_get(self):
        assert self.apply(b"SET name carol") == b"OK"
        assert self.apply(b"GET name") == b"VAL carol"

    def test_get_missing(self):
        assert self.apply(b"GET ghost") == b"NIL"

    def test_get_stored_nil_distinguishable_from_missing(self):
        """Regression: a stored value "NIL" must not read back identically
        to a missing key — responses are tagged (VAL <v> / bare NIL)."""
        self.apply(b"SET k NIL")
        assert self.apply(b"GET k") == b"VAL NIL"
        assert self.apply(b"GET nope") == b"NIL"
        assert self.apply(b"GET k") != self.apply(b"GET nope")

    def test_set_value_with_spaces(self):
        self.apply(b"SET msg hello world !")
        assert self.apply(b"GET msg") == b"VAL hello world !"

    def test_del(self):
        self.apply(b"SET k v")
        assert self.apply(b"DEL k") == b"OK"
        assert self.apply(b"DEL k") == b"NIL"

    def test_cas_success_and_failure(self):
        self.apply(b"SET n 1")
        assert self.apply(b"CAS n 1 2") == b"OK"
        assert self.apply(b"CAS n 1 3") == b"FAIL"
        assert self.apply(b"GET n") == b"VAL 2"

    def test_malformed_commands_dont_raise(self):
        assert self.apply(b"SET onlykey").startswith(b"ERR")
        assert self.apply(b"FROB x").startswith(b"ERR")
        assert self.apply(b"\xff\xfe") == b"ERR not-utf8"

    def test_snapshot_deterministic(self):
        self.apply(b"SET b 2")
        self.apply(b"SET a 1")
        other = KvStateMachine()
        other.apply(cmd(b"SET a 1", nonce=10))
        other.apply(cmd(b"SET b 2", nonce=11))
        assert self.kv.snapshot() == other.snapshot()
        assert self.kv.state_digest() == other.state_digest()


class TestSmrReplicaUnit:
    def test_exactly_once_application(self):
        """The same committed command applies once even if consensus hands
        it back twice (LightDAG2 reproposal / duplicate block)."""
        from repro.dag.block import TxBatch, make_block
        from repro.dag.ledger import CommitRecord

        replica = SmrReplica(0, KvStateMachine())
        command = cmd(b"SET x 1")
        batch = TxBatch(count=1, tx_size=8, items=(command.to_bytes(),))
        block_a = make_block(2, 0, [], payload=batch, repropose_index=0)
        block_b = make_block(2, 0, [], payload=batch, repropose_index=1)
        for i, block in enumerate((block_a, block_b)):
            replica.on_commit(CommitRecord(i, block, 1.0, b"L", 0))
        assert replica.machine.applied_count == 1
        assert replica.result_of(command.command_id) == b"OK"

    def test_payload_source_drains(self):
        replica = SmrReplica(0, KvStateMachine())
        replica.submit(b"SET a 1")
        replica.submit(b"SET b 2")
        batch = replica.payload_source(now=1.0)
        assert batch.count == 2
        assert replica.payload_source(now=2.0).count == 0

    def test_result_listener(self):
        from repro.dag.block import TxBatch, make_block
        from repro.dag.ledger import CommitRecord

        replica = SmrReplica(0, KvStateMachine())
        seen = []
        replica.on_result(lambda command, result: seen.append((command.payload, result)))
        command = cmd(b"SET y 9")
        batch = TxBatch(count=1, tx_size=8, items=(command.to_bytes(),))
        replica.on_commit(CommitRecord(0, make_block(1, 0, [], payload=batch), 1.0, b"L", 0))
        assert seen == [(b"SET y 9", b"OK")]


def _commit(replica, commands, position=0, when=1.0):
    """Commit a block carrying ``commands`` straight into the replica."""
    from repro.dag.block import TxBatch, make_block
    from repro.dag.ledger import CommitRecord

    batch = TxBatch(
        count=len(commands), tx_size=8,
        items=tuple(c.to_bytes() for c in commands),
    )
    block = make_block(position + 1, 0, [], payload=batch,
                       repropose_index=position)
    replica.on_commit(CommitRecord(position, block, when, b"L", 0))


class TestWaiters:
    """Duplicate submissions resolve every waiter exactly once."""

    def test_duplicate_submit_same_id_fires_each_waiter_once(self):
        replica = SmrReplica(0, KvStateMachine())
        command = cmd(b"SET x 1")
        fired = []
        replica.submit_command(command, now=0.0,
                              waiter=lambda c, r, t: fired.append(("a", r, t)))
        # Retry of the same command while still pending: queued once, both
        # waiters registered.
        assert replica.submit_command(
            command, now=0.1, waiter=lambda c, r, t: fired.append(("b", r, t))
        )
        assert replica.pending_count() == 1
        drained = replica.payload_source(now=0.2)
        assert drained.count == 1
        _commit(replica, [command], when=1.5)
        assert fired == [("a", b"OK", 1.5), ("b", b"OK", 1.5)]
        assert replica.machine.applied_count == 1

    def test_waiters_fire_once_even_if_committed_twice(self):
        replica = SmrReplica(0, KvStateMachine())
        command = cmd(b"SET x 1")
        fired = []
        replica.submit_command(command, waiter=lambda c, r, t: fired.append(r))
        replica.payload_source(now=0.0)
        _commit(replica, [command], position=0, when=1.0)
        _commit(replica, [command], position=1, when=2.0)
        assert fired == [b"OK"]
        assert replica.machine.applied_count == 1

    def test_resubmit_after_apply_resolves_immediately_from_cache(self):
        replica = SmrReplica(0, KvStateMachine())
        command = cmd(b"SET x 1")
        replica.submit_command(command)
        replica.payload_source(now=0.0)
        _commit(replica, [command], when=1.0)
        fired = []
        assert replica.submit_command(
            command, now=5.0, waiter=lambda c, r, t: fired.append((r, t))
        )
        assert fired == [(b"OK", 5.0)]
        assert replica.pending_count() == 0
        assert replica.machine.applied_count == 1

    def test_waiterless_duplicates_still_apply_once(self):
        replica = SmrReplica(0, KvStateMachine())
        command = cmd(b"SET y 2")
        for _ in range(3):
            assert replica.submit_command(command)
        assert replica.pending_count() == 1
        replica.payload_source(now=0.0)
        _commit(replica, [command])
        assert replica.machine.applied_count == 1


class TestAdmissionInReplica:
    def _replica(self, max_pending=2, policy="reject", per_client_cap=0):
        from repro.workload.admission import AdmissionConfig, make_admission

        config = AdmissionConfig(
            max_pending=max_pending, policy=policy,
            per_client_cap=per_client_cap,
        )
        return SmrReplica(0, KvStateMachine(),
                          admission=make_admission(config))

    def test_reject_policy_refuses_past_cap(self):
        replica = self._replica(max_pending=2)
        assert replica.submit_command(cmd(b"SET a 1", nonce=1))
        assert replica.submit_command(cmd(b"SET b 2", nonce=2))
        assert not replica.submit_command(cmd(b"SET c 3", nonce=3))
        assert replica.pending_count() == 2
        assert replica.admission.rejected_total == 1

    def test_shed_oldest_evicts_and_fires_waiter_with_none(self):
        replica = self._replica(max_pending=2, policy="shed-oldest")
        oldest = cmd(b"SET a 1", nonce=1)
        shed_results = []
        replica.submit_command(oldest, now=0.0,
                               waiter=lambda c, r, t: shed_results.append((c, r)))
        replica.submit_command(cmd(b"SET b 2", nonce=2))
        assert replica.submit_command(cmd(b"SET c 3", nonce=3), now=0.5)
        assert replica.pending_count() == 2
        assert shed_results == [(oldest, None)]
        assert replica.admission.shed == 1
        # The shed command is submittable again (fresh admission).
        assert replica.submit_command(oldest, now=1.0)
        assert replica.pending_count() == 2  # displaced SET b

    def test_per_client_cap_preserves_room_for_others(self):
        replica = self._replica(max_pending=10, per_client_cap=2)
        assert replica.submit_command(cmd(b"SET a 1", nonce=1, client="greedy"))
        assert replica.submit_command(cmd(b"SET a 2", nonce=2, client="greedy"))
        assert not replica.submit_command(cmd(b"SET a 3", nonce=3, client="greedy"))
        assert replica.submit_command(cmd(b"SET b 1", nonce=4, client="polite"))
        # Draining frees the greedy client's slots.
        replica.payload_source(now=0.0)
        assert replica.submit_command(cmd(b"SET a 4", nonce=5, client="greedy"))

    def test_depth_tracks_queue_and_high_water(self):
        replica = self._replica(max_pending=8)
        for i in range(5):
            replica.submit_command(cmd(b"SET k v", nonce=i))
        assert replica.admission.depth == 5
        assert replica.admission.max_depth == 5
        replica.payload_source(now=0.0)
        assert replica.admission.depth == 0
        assert replica.admission.max_depth == 5


class TestSmrCluster:
    @pytest.mark.parametrize("protocol_name", ["lightdag1", "lightdag2"])
    def test_convergence(self, protocol_name):
        cluster = SmrCluster.build(
            SystemConfig(n=4, crypto="hmac", seed=1),
            machine_factory=KvStateMachine,
            protocol_name=protocol_name,
            seed=1,
        )
        cluster.replicas[0].submit(b"SET alice 100")
        cluster.replicas[1].submit(b"SET bob 200")
        cluster.replicas[2].submit(b"SET alice 150")  # conflicting write
        cluster.run(until=3.0)
        cluster.verify_convergence()
        states = {r.machine.state_digest() for r in cluster.replicas}
        assert len(states) == 1
        assert cluster.replicas[0].machine.data["bob"] == "200"

    def test_results_available_at_submitting_replica(self):
        cluster = SmrCluster.build(
            SystemConfig(n=4, crypto="hmac", seed=2),
            machine_factory=KvStateMachine,
            seed=2,
        )
        cid = cluster.replicas[0].submit(b"SET k v")
        cluster.run(until=3.0)
        assert cluster.replicas[0].result_of(cid) == b"OK"
        # Every replica computed the same result for the same command.
        assert all(r.result_of(cid) == b"OK" for r in cluster.replicas)

    def test_same_payload_submitted_at_two_replicas_is_two_commands(self):
        """Regression: ``submit`` named every replica's client "local" and
        counted nonces per replica, so the first submission of a payload at
        replica 0 and at replica 1 were one command id — the second was
        absorbed by exactly-once dedup and both callers read one result."""
        cluster = SmrCluster.build(
            SystemConfig(n=4, crypto="hmac", seed=4),
            machine_factory=KvStateMachine,
            seed=4,
        )
        cluster.replicas[2].submit(b"SET ctr 0")
        cluster.run(until=1.0)
        a = cluster.replicas[0].submit(b"CAS ctr 0 1")
        b = cluster.replicas[1].submit(b"CAS ctr 0 1")
        assert a != b
        cluster.run(until=4.0)
        cluster.verify_convergence()
        assert all(len(r.applied_order) == 3 for r in cluster.replicas)
        # One caller won the swap and the other was told it lost.
        results = [cluster.replicas[0].result_of(a), cluster.replicas[1].result_of(b)]
        assert sorted(results) == [b"FAIL", b"OK"]

    def test_cas_linearizes_identically(self):
        """Two racing CAS ops on one key: exactly one wins, and it is the
        same winner everywhere."""
        cluster = SmrCluster.build(
            SystemConfig(n=4, crypto="hmac", seed=3),
            machine_factory=KvStateMachine,
            seed=3,
        )
        cluster.replicas[0].submit(b"SET n 0")
        cluster.run(until=1.0)
        a = cluster.replicas[1].submit(b"CAS n 0 10")
        b = cluster.replicas[2].submit(b"CAS n 0 20")
        cluster.run(until=4.0)
        cluster.verify_convergence()
        results = {cluster.replicas[1].result_of(a), cluster.replicas[2].result_of(b)}
        assert results == {b"OK", b"FAIL"}
        final = {r.machine.data["n"] for r in cluster.replicas}
        assert len(final) == 1 and final.pop() in ("10", "20")


class TestBatchIsDecodedOncePerCluster:
    """A batch's commands are kept on the immutable batch — by the proposer
    that encoded them, or at the first commit of a batch that arrived as
    bytes; applying them stays per replica."""

    @pytest.fixture
    def decodes(self, monkeypatch):
        calls = []
        count_calls(monkeypatch, Command, "from_bytes", calls)
        return calls

    def test_one_loadtest_rung_decodes_each_committed_item_once(
        self, decodes, monkeypatch
    ):
        """Rewritten with the lean per-command path: within one process a
        rung decodes *no* item — every committed batch was built here and
        carries the commands its items were encoded from."""
        from repro.harness.loadtest import LoadtestConfig, run_loadtest
        from repro.smr.replica import batch_commands
        from repro.workload.admission import AdmissionConfig
        from repro.workload.clients import WorkloadSpec

        commits = []  # (replica, record) of every on_commit call
        count_calls(monkeypatch, SmrReplica, "on_commit", commits)
        result = run_loadtest(LoadtestConfig(
            n=4, batch_size=16, duration=4.0, warmup=1.0, seed=2,
            workload=WorkloadSpec(mode="open", rate=200.0, seed=2),
            admission=AdmissionConfig(max_pending=256),
        ))
        assert result.completed > 100 and result.verify_failures == 0
        assert decodes == []
        batches = {
            id(record.block.payload): record.block.payload for _replica, record in commits
        }
        committed = [item for batch in batches.values() for item in batch.items]
        assert len(committed) > 100 and len(commits) > 3 * len(batches)
        for batch in batches.values():
            assert batch_commands(batch) == tuple(map(Command.from_bytes, batch.items))

    def test_a_block_off_the_wire_is_decoded_at_its_first_commit(self, decodes):
        from repro.codec.blocks import block_from_bytes, block_to_bytes
        from repro.dag.block import make_block
        from repro.smr.replica import batch_commands

        proposer = SmrReplica(0, KvStateMachine())
        cids = [proposer.submit(b"SET k %d" % i) for i in range(3)]
        built = proposer.payload_source(now=1.0)
        assert [c.command_id for c in batch_commands(built)] == cids and not decodes
        received = block_from_bytes(block_to_bytes(make_block(1, 0, [], payload=built))).payload
        assert received == built and "_commands" not in vars(received)
        receivers = [SmrReplica(i, KvStateMachine()) for i in (1, 2)]
        for replica in receivers:
            _commit_batch(replica, received)
            assert replica.applied_order == cids
        assert [args[-1] for args in decodes] == list(built.items)  # once, not per replica
        assert batch_commands(received) == batch_commands(built)

    def test_every_replica_applies_the_shared_commands_itself(self, decodes):
        from repro.dag.block import TxBatch, make_block
        from repro.dag.ledger import CommitRecord

        commands = [cmd(b"SET k %d" % i, nonce=i) for i in range(3)]
        items = (commands[0].to_bytes(), b"\xff\xff", commands[1].to_bytes(),
                 commands[2].to_bytes(), commands[0].to_bytes())
        batch = TxBatch(count=len(items), tx_size=8, items=items)
        block = make_block(1, 0, [], payload=batch)
        replicas = [SmrReplica(i, KvStateMachine()) for i in range(3)]
        for replica in replicas:
            replica.on_commit(CommitRecord(0, block, 1.0, b"L", 0))
        assert len(decodes) == len(items)  # the foreign item is tried once, too
        for replica in replicas:
            assert replica.applied_order == [c.command_id for c in commands]
            assert replica.machine.data == {"k": "2"}
        assert len({id(r.machine) for r in replicas}) == 3
        assert len({id(r.results) for r in replicas}) == 3

    def test_an_equal_batch_object_decodes_for_itself(self, decodes):
        import dataclasses

        from repro.dag.block import TxBatch

        batch = TxBatch(count=1, tx_size=8, items=(cmd(b"SET a 1").to_bytes(),))
        _commit_batch(SmrReplica(0, KvStateMachine()), batch)
        twin = dataclasses.replace(batch)
        assert twin == batch and "_commands" not in twin.__dict__
        _commit_batch(SmrReplica(1, KvStateMachine()), twin)
        assert len(decodes) == 2


def _commit_batch(replica, batch):
    from repro.dag.block import make_block
    from repro.dag.ledger import CommitRecord

    replica.on_commit(CommitRecord(0, make_block(1, 0, [], payload=batch), 1.0, b"L", 0))
