"""Exactly-once by client session window (:mod:`repro.smr.replica`).

Each replica keeps, per client, the floor below which every nonce is
settled and the results of the applied nonces at or above it.  These tests
pin the session rule at one replica, across replicas, under the client
plane, and that the exactly-once state no longer grows with the run.
"""

import gc
import tracemalloc
import weakref

import pytest

from repro.codec.primitives import CodecError, Writer
from repro.config import ProtocolConfig, SystemConfig
from repro.dag.block import TxBatch, make_block
from repro.dag.ledger import CommitRecord
from repro.harness import loadtest
from repro.smr.kv import KvStateMachine
from repro.smr.machine import Command
from repro.smr.replica import SERVICE_GC_DEPTH, SmrCluster, SmrReplica, batch_commands
from repro.workload.admission import AdmissionConfig
from repro.workload.clients import GIVE_UP_S, ClientPopulation, WorkloadSpec

from ..conftest import applied_ids, count_calls


def cmd(payload: bytes, nonce: int, floor: int = 0, client: str = "c") -> Command:
    return Command.create(client=client, payload=payload, nonce=nonce, floor=floor)


def commit(replica, items, position=0):
    """Commit one block whose payload items are ``items`` (commands, or raw
    bytes for items that are not)."""
    raw = tuple(item if isinstance(item, bytes) else item.to_bytes() for item in items)
    batch = TxBatch(count=len(raw), tx_size=8, items=raw)
    block = make_block(position + 1, 0, [], payload=batch, repropose_index=position)
    replica.on_commit(CommitRecord(position, block, 1.0 + position, b"L", 0))


def build_cluster(seed, batch=16, admission=None):
    """An n=4 replicated KV under the service's GC window."""
    return SmrCluster.build(
        SystemConfig(n=4, crypto="hmac", seed=seed),
        machine_factory=KvStateMachine,
        protocol=ProtocolConfig(batch_size=batch, gc_depth=SERVICE_GC_DEPTH),
        seed=seed,
        admission=admission,
    )


class TestSessionRule:
    def test_applying_raises_the_floor_and_forgets_below_it(self):
        replica = SmrReplica(0, KvStateMachine())
        a, b, c = cmd(b"SET x 1", 1, 1), cmd(b"SET y 2", 2, 1), cmd(b"GET x", 3, 3)
        commit(replica, [a, b, c])
        session = replica.sessions["c"]
        assert (session.floor, session.done) == (3, {3: b"VAL 1"})
        assert replica.result_of(a) is None and replica.result_of(b) is None
        assert replica.result_of(c) == b"VAL 1"
        assert replica.machine.applied_count == 3

    def test_a_retry_inside_the_window_resolves_immediately(self):
        replica = SmrReplica(0, KvStateMachine())
        later = cmd(b"SET y 2", 2, 1)  # nonce 1 is still unsettled
        commit(replica, [later])
        fired = []
        assert replica.submit_command(
            later, now=4.0, waiter=lambda c, r, t: fired.append((c, r, t))
        )
        assert fired == [(later, b"OK", 4.0)]
        assert replica.pending_count() == 0
        assert replica.machine.applied_count == 1

    def test_a_submission_below_the_floor_is_refused(self):
        replica = SmrReplica(0, KvStateMachine())
        settled = cmd(b"SET x 1", 1, 1)
        commit(replica, [settled, cmd(b"SET x 2", 2, 2)])
        fired = []
        assert not replica.submit_command(settled, waiter=lambda *args: fired.append(args))
        assert fired == [] and replica.pending_count() == 0

    def test_an_earlier_nonce_committed_after_a_later_one_is_applied(self):
        """What a "highest applied nonce" watermark gets wrong: the earlier
        nonce is inside the window, so it is applied, once."""
        replica = SmrReplica(0, KvStateMachine())
        order = applied_ids(replica)
        early, late = cmd(b"SET k early", 1, 1), cmd(b"SET k late", 2, 1)
        commit(replica, [late])
        commit(replica, [early], position=1)
        commit(replica, [late, early], position=2)  # replays of both
        assert replica.machine.applied_count == 2
        assert replica.machine.data == {"k": "early"}
        assert order == [late.command_id, early.command_id]

    def test_a_floor_above_the_nonce_is_skipped_like_garbage(self):
        bad = (
            Writer().lp_bytes(b"i" * 32).lp_bytes(b"evil").uvarint(1).uvarint(2)
            .lp_bytes(b"SET k bad").getvalue()
        )
        with pytest.raises(CodecError):
            Command.from_bytes(bad)
        with pytest.raises(ValueError):
            Command.create(client="evil", payload=b"SET k bad", nonce=1, floor=2)
        good = [cmd(b"SET k %d" % i, i) for i in range(2)]
        items = (good[0], bad, b"\xff\xff", good[1])
        replicas = [SmrReplica(i, KvStateMachine()) for i in range(3)]
        for replica in replicas:
            order = applied_ids(replica)
            commit(replica, items)
            assert order == [c.command_id for c in good]
            assert "evil" not in replica.sessions
        assert len({r.machine.state_digest() for r in replicas}) == 1


class TestReplayedBlocks:
    def test_a_block_replaying_settled_commands_is_refused_everywhere(self):
        """After an open-loop run, a block that carries commands below their
        clients' floors again changes no replica's state."""
        cluster = build_cluster(seed=8)
        applied = []
        cluster.replicas[0].on_result(lambda command, result: applied.append(command))
        orders = [applied_ids(r) for r in cluster.replicas]
        population = ClientPopulation(
            WorkloadSpec(clients=16, mode="open", rate=400.0, seed=8),
            cluster, duration=4.0, warmup=1.0,
        )
        population.install()
        cluster.run(until=6.0)  # arrivals stop at 4 s; the rest commits
        cluster.verify_convergence()
        replicas = cluster.replicas
        settled = [
            c for c in applied
            if all(c.nonce < r.sessions[c.client].floor for r in replicas)
        ]
        assert len(settled) > len(applied) * 0.8 > 1000
        before = [(len(o), r.machine.state_digest()) for o, r in zip(orders, replicas)]
        assert len(set(before)) == 1
        position = len(cluster.sim.nodes[0].ledger)
        for replica in replicas:
            commit(replica, settled[:64], position=position)
            commit(replica, settled[-64:], position=position + 1)
        assert [(len(o), r.machine.state_digest()) for o, r in zip(orders, replicas)] == before
        cluster.verify_convergence()


class TestClientPlane:
    def test_after_an_open_loop_rung_every_window_is_its_clients_unsettled_span(self):
        """Every nonce a replica still remembers for a client lies between
        the lowest nonce that client had unsettled when it stamped its
        latest applied command and that command's nonce: the window, not
        the history."""
        cluster = build_cluster(seed=9)
        latest = [{} for _ in cluster.replicas]  # client -> highest applied Command

        def track(seen):
            def listener(command, result):
                top = seen.get(command.client)
                if top is None or command.nonce > top.nonce:
                    seen[command.client] = command
            return listener

        for replica, seen in zip(cluster.replicas, latest):
            replica.on_result(track(seen))
        orders = [applied_ids(r) for r in cluster.replicas]
        rate, duration = 600.0, 10.0
        population = ClientPopulation(
            WorkloadSpec(clients=16, mode="open", rate=rate, seed=9),
            cluster, duration=duration, warmup=1.0,
        )
        population.install()
        cluster.run(until=duration)
        cluster.verify_convergence()
        for replica, seen, order in zip(cluster.replicas, latest, orders):
            assert set(replica.sessions) == set(seen)
            for client, session in replica.sessions.items():
                top = seen[client]
                assert session.floor == top.floor
                assert set(session.done) <= set(range(top.floor, top.nonce + 1))
            remembered = sum(len(s.done) for s in replica.sessions.values())
            applied = len(order)
            # Each client's window spans at most what it submitted in the
            # last GIVE_UP_S, so all of them together hold at most about
            # rate * GIVE_UP_S results, against rate * duration applied.
            assert remembered <= 1.5 * rate * GIVE_UP_S
            assert remembered * 10 < applied, (remembered, applied)

    def test_a_closed_loop_shed_retry_after_a_later_nonce_applies_once(self, monkeypatch):
        """outstanding=4 under shed-oldest: a client's shed command is
        retried after a later nonce of the same client committed, and every
        replica applies it exactly once."""
        commits, done = [], []
        count_calls(monkeypatch, SmrReplica, "on_commit", commits)
        count_calls(monkeypatch, ClientPopulation, "_on_done", done)
        cluster = build_cluster(
            seed=10, admission=AdmissionConfig(max_pending=4, policy="shed-oldest")
        )
        orders = [applied_ids(r) for r in cluster.replicas]
        population = ClientPopulation(
            WorkloadSpec(clients=16, mode="closed", outstanding=4, seed=10),
            cluster, duration=5.0, warmup=1.0,
        )
        population.install()
        cluster.run(until=5.0)
        cluster.verify_convergence()
        assert population.stats.shed > 0 and population.stats.completed > 0

        shed = {op.command.command_id for _, _, op, result, *_ in done if result is None}
        answered = [op.command.command_id for _, _, op, result, *_ in done if result is not None]
        assert len(answered) == len(set(answered))  # each op answered once
        # Walk replica 0's committed sequence (duplicates included): a late
        # command is the first commit of a nonce below one of its client's
        # nonces committed before it.
        top, seen, late = {}, set(), []
        replica0 = cluster.replicas[0]
        for replica, record in commits:
            if replica is not replica0:
                continue
            for command in batch_commands(record.block.payload):
                key = (command.client, command.nonce)
                if key not in seen and command.nonce < top.get(command.client, -1):
                    late.append(command.command_id)
                seen.add(key)
                top[command.client] = max(top.get(command.client, -1), command.nonce)
        late_shed = [cid for cid in late if cid in shed]
        assert late_shed, "no shed command was retried after a later nonce committed"
        for order in orders:
            assert len(order) == len(set(order))
            assert all(order.count(cid) == 1 for cid in late_shed)
        assert set(late_shed) <= set(answered)


#: Heap retained per applied command — all four replicas, the clients and
#: the consensus layer — on an n=4 open-loop rung (1500 tx/s, batch 32,
#: 32 clients over 8 private keys each, the service GC window; Python
#: 3.11): 498 B when every replica kept every command's result, 185 B with
#: session windows, 151 B with the columnar ledger, 60 B once each replica
#: keeps one checkpoint per ledger position instead of the id of every
#: command it applied.  The rest is mostly the ledger's headers.  The bound
#: is twice the last figure.
BYTES_PER_APPLIED_COMMAND = 120


class TestCommittedBatchesReleased:
    def test_batches_below_every_horizon_are_garbage_after_a_rung(self, monkeypatch):
        """The service runs under its GC window and applies a block when it
        commits: once every replica's store has pruned a committed block,
        nothing holds its batch any more."""
        clusters, batches = [], {}

        class Recorded(loadtest.SmrCluster):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                clusters.append(self)

        real_on_commit = SmrReplica.on_commit

        def on_commit(replica, record):
            block = record.block
            if block.digest not in batches:
                batches[block.digest] = (block.round, weakref.ref(block.payload))
            real_on_commit(replica, record)

        monkeypatch.setattr(loadtest, "SmrCluster", Recorded)
        monkeypatch.setattr(SmrReplica, "on_commit", on_commit)
        result = loadtest.run_loadtest(loadtest.LoadtestConfig(
            n=4, batch_size=16, duration=5.0, warmup=1.0, seed=6,
            workload=WorkloadSpec(mode="open", rate=400.0, seed=6),
        ))
        assert result.completed > 1000 and result.verify_failures == 0
        (cluster,) = clusters
        horizon = min(node.store.lowest_retained_round() for node in cluster.sim.nodes)
        assert horizon > SERVICE_GC_DEPTH  # every replica pruned
        gc.collect()
        below = [ref for round_, ref in batches.values() if round_ < horizon]
        assert len(below) >= 4 * (horizon - 2)
        assert [ref for ref in below if ref() is not None] == []
        cluster.verify_convergence()


class TestRetainedHeap:
    def test_heap_retained_per_applied_command(self):
        cluster = build_cluster(seed=5, batch=32)
        population = ClientPopulation(
            WorkloadSpec(clients=32, mode="open", rate=1500.0, keys=8, seed=5),
            cluster, duration=10.0, warmup=1.0,
        )
        population.install()
        low, high = 3000, 12000
        heap, applied = {}, [0]

        def listener(command, result):
            applied[0] += 1
            if applied[0] in (low, high):
                gc.collect()  # retained, not yet-uncollected, heap
                heap[applied[0]] = tracemalloc.get_traced_memory()[0]

        cluster.replicas[0].on_result(listener)
        tracemalloc.start()
        try:
            cluster.sim.run(until=10.0, stop_when=lambda sim: applied[0] >= high)
        finally:
            tracemalloc.stop()
        assert set(heap) == {low, high}, "the rung stopped before 12000 commands"
        per_command = (heap[high] - heap[low]) / (high - low)
        assert per_command <= BYTES_PER_APPLIED_COMMAND, (
            f"{per_command:.0f} B retained per applied command"
        )
