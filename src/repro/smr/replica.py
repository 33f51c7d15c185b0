"""The replication glue: protocol node + state machine + clients.

:class:`SmrReplica` owns one consensus node and one state machine.  Client
commands enter through :meth:`submit` / :meth:`submit_command`; the replica
batches them into block payloads (the node's ``payload_source`` hook), and
the node's ``on_commit`` hook feeds committed blocks back in ledger order,
where commands are applied **exactly once** — consensus may commit the
same payload twice through a LightDAG2 reproposal, and clients may retry.

Exactly-once is kept per client, by session window, not by remembering
every command ever applied.  Each replica keeps one :class:`Session` per
client: the highest ``floor`` any applied command of that client carried,
and ``done`` — the result of every applied nonce at or above it.  The
session rule, the same at every replica because it reads only the ordered
commands:

* a committed command is a *duplicate*, and skipped, if its nonce is below
  the session's floor or already in ``done``;
* applying a command raises the session's floor to the command's floor and
  drops the ``done`` entries below it — the client has said it will never
  ask for them again.

So ``done`` holds the client's unsettled window, not its history.  A plain
"highest applied nonce" watermark would not do: a closed-loop client with
several commands outstanding retries a shed command after a later nonce of
its own has committed.  :meth:`submit` stamps ``floor = 0`` and so keeps
every result of a local client, for tests and examples.

The client-facing surface is completion-based: a submission may register a
*waiter* that fires exactly once with the committed result and commit
time.  Retries (same ``command_id``) are idempotent at every stage: a
command already queued is not queued twice, a command applied inside the
window resolves the new waiter immediately from ``done``, and a command
below the floor is refused.

Backpressure lives here too: an optional
:class:`~repro.workload.admission.AdmissionController` bounds the pending
queue (reject or shed-oldest under overload, per-client fairness caps),
so a replica facing more offered load than the cluster commits degrades
by refusing work instead of by growing without bound.

:class:`SmrCluster` assembles a full replicated service on the simulator
(``examples/smr_service.py`` puts :class:`SmrReplica` on the TCP runtime
itself) and exposes the cross-replica invariant check the tests rely on,
:meth:`SmrCluster.verify_convergence`.

The service keeps a window, not its history.  It runs consensus under
:data:`SERVICE_GC_DEPTH`: a block is applied when it commits, so nothing
here reads a body below the store's horizon.  And a replica keeps no list
of the commands it applied.  The applied sequence is a deterministic
function of the ordered ledger, so each replica keeps a *checkpoint* per
ledger position instead: how many commands it had applied after that
position, and a chained digest, ``chain = sha256(chain ‖ ids applied at
the position)`` — one hash per position, not one entry per command.  Two
replicas that executed the same ledger prefix the same way hold the same
checkpoint at its end.
"""

from __future__ import annotations

import hashlib
import itertools
from array import array
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from ..codec.primitives import CodecError
from ..config import ProtocolConfig, SystemConfig
from ..crypto.hashing import Digest
from ..dag.block import TxBatch
from ..dag.ledger import CommitRecord, check_prefix_consistency
from ..errors import ProtocolError
from ..workload.admission import ADMIT, SHED, make_admission
from .machine import Command, StateMachine

#: The GC window of every replicated service (``SmrCluster.build``'s default
#: protocol, ``run_loadtest``, ``examples/smr_service.py``): the depth every
#: other garbage-collected workload uses.
SERVICE_GC_DEPTH = 8

#: The chained digest before the first ledger position.
GENESIS_CHAIN = bytes(32)


class Session:
    """One client's exactly-once window at one replica: every nonce below
    ``floor`` is settled, and ``done`` maps each applied nonce at or above
    it to its result."""

    __slots__ = ("floor", "done")

    def __init__(self) -> None:
        self.floor = 0
        self.done: Dict[int, bytes] = {}


#: Completion callback: ``waiter(command, result, commit_time)``.  ``result``
#: is None when the command was shed by admission control before ordering.
Waiter = Callable[[Command, Optional[bytes], Optional[float]], None]


class SmrReplica:
    """One application replica.

    Parameters
    ----------
    replica_id:
        This replica's index in the cluster.
    machine:
        The deterministic state machine commands apply to.
    max_batch:
        Commands drained per block proposal; 0 = drain everything pending
        (the historical behaviour).  A bounded drain is what gives the
        cluster a measurable capacity — and overload a visible queue.
    admission:
        Optional :class:`~repro.workload.admission.AdmissionController`;
        absent means every submission is admitted (unbounded queue).
    obs:
        Optional :class:`~repro.obs.Observability`; with its journal on,
        every apply emits ``trace.execute``, the committed → executed
        milestone of the lifecycle.
    """

    def __init__(
        self,
        replica_id: int,
        machine: StateMachine,
        max_batch: int = 0,
        admission=None,
        obs=None,
    ) -> None:
        self.replica_id = replica_id
        self.machine = machine
        self.max_batch = max_batch
        self.admission = admission
        self._pending: Deque[Command] = deque()
        self._pending_ids: Set[Digest] = set()
        #: commands applied so far, and the chained digest of their ids
        self.applied_count = 0
        self.chain = GENESIS_CHAIN
        # Checkpoints as columns: entry k is the one after k ledger positions.
        self._counts = array("Q", [0])
        self._chains = bytearray(GENESIS_CHAIN)
        #: client name -> its exactly-once window (the module docstring).
        self.sessions: Dict[str, Session] = {}
        self._nonce = itertools.count()
        self._result_listeners: List[Callable[[Command, bytes], None]] = []
        self._waiters: Dict[Digest, List[Waiter]] = {}
        self._obs_emit = (
            obs.journal.emit if obs is not None and obs.journal.enabled else None
        )

    # -- client side -------------------------------------------------------------

    def submit(self, payload: bytes, client: Optional[str] = None) -> Command:
        """Queue a command for ordering; returns it for :meth:`result_of`.
        ``client`` defaults to a name of this replica's own, as the nonce is.
        The command's floor is 0, so its result is never forgotten."""
        if client is None:
            client = f"local-{self.replica_id}"
        command = Command.create(client=client, payload=payload, nonce=next(self._nonce))
        self.submit_command(command)
        return command

    def submit_command(
        self,
        command: Command,
        now: Optional[float] = None,
        waiter: Optional[Waiter] = None,
    ) -> bool:
        """Queue a pre-built command; returns True if it was admitted.

        Idempotent under retries (clients re-submit the same
        ``command_id``): a command applied inside its client's window
        resolves ``waiter`` immediately from ``done``; one already pending
        only registers the extra waiter.  Either way every registered
        waiter fires exactly once.  A command below its client's floor is
        settled and refused (returns False, ``waiter`` dropped unfired).

        With admission control the submission may be refused (returns
        False, ``waiter`` is dropped unfired) or may shed the oldest
        queued command (whose waiters fire with ``result=None``).
        """
        session = self.sessions.get(command.client)
        if session is not None:
            nonce = command.nonce
            if nonce < session.floor:
                return False
            if nonce in session.done:
                if waiter is not None:
                    waiter(command, session.done[nonce], now)
                return True
        cid = command.command_id
        if cid in self._pending_ids:
            if waiter is not None:
                self._waiters.setdefault(cid, []).append(waiter)
            return True
        admission = self.admission
        if admission is not None:
            verdict = admission.decide(command.client)
            if verdict == SHED:
                self._shed_oldest(now)
            elif verdict != ADMIT:
                return False
        self._pending.append(command)
        self._pending_ids.add(cid)
        if admission is not None:
            admission.note_admitted(command.client)
        if waiter is not None:
            self._waiters.setdefault(cid, []).append(waiter)
        return True

    def _shed_oldest(self, now: Optional[float]) -> None:
        victim = self._pending.popleft()
        self._pending_ids.discard(victim.command_id)
        self.admission.note_shed(victim.client)
        for waiter in self._waiters.pop(victim.command_id, ()):
            waiter(victim, None, now)

    def pending_count(self) -> int:
        """Commands queued awaiting proposal (the admission queue depth)."""
        return len(self._pending)

    def result_of(self, command: Command) -> Optional[bytes]:
        """``command``'s result while it is inside its client's window;
        None if it is not applied yet, or settled and forgotten."""
        session = self.sessions.get(command.client)
        return None if session is None else session.done.get(command.nonce)

    def on_result(self, listener: Callable[[Command, bytes], None]) -> None:
        """Call ``listener(command, result)`` for every command this replica
        applies, in the order it applies them."""
        self._result_listeners.append(listener)

    def positions_executed(self) -> int:
        """Ledger positions whose commands this replica has applied."""
        return len(self._counts) - 1

    def checkpoint(self, positions: int) -> Tuple[int, bytes]:
        """``(applied_count, chain)`` after the first ``positions`` ledger
        positions; ``(0, GENESIS_CHAIN)`` for none."""
        if not 0 <= positions < len(self._counts):
            raise IndexError(
                f"replica {self.replica_id} executed {len(self._counts) - 1} "
                f"positions, not {positions}"
            )
        start = 32 * positions
        return self._counts[positions], bytes(self._chains[start:start + 32])

    # -- protocol hooks -----------------------------------------------------------

    def payload_source(self, now: float) -> TxBatch:
        """Drain pending commands into the next block's payload."""
        pending = self._pending
        if not pending:
            return TxBatch(count=0, tx_size=0)
        take = len(pending)
        if self.max_batch:
            take = min(take, self.max_batch)
        popleft = pending.popleft
        commands = tuple([popleft() for _ in range(take)])
        self._pending_ids.difference_update([c.command_id for c in commands])
        if self.admission is not None:
            drained = self.admission.note_drained
            for command in commands:
                drained(command.client)
        items = tuple([c.to_bytes() for c in commands])
        batch = TxBatch(
            count=take,
            tx_size=max(map(len, items)),
            submit_time_sum=take * now,
            sample=(now,),
            items=items,
        )
        batch_commands(batch, commands)
        return batch

    def on_commit(self, record: CommitRecord) -> None:
        """Apply a committed block's commands in order, exactly once: the
        session rule of the module docstring.  Then record the position's
        checkpoint."""
        sessions = self.sessions
        apply = self.machine.apply
        listeners = self._result_listeners
        waiters = self._waiters
        applied = []
        for command in batch_commands(record.block.payload):
            session = sessions.get(command.client)
            if session is None:
                session = sessions[command.client] = Session()
            nonce, floor, done = command.nonce, session.floor, session.done
            if nonce < floor or nonce in done:
                continue
            result = apply(command)
            cid = command.command_id
            applied.append(cid)
            done[nonce] = result
            raised = command.floor
            if raised > floor:  # a new dict, not pops: the window stays compact
                session.floor = raised
                session.done = {k: v for k, v in done.items() if k >= raised}
            for listener in listeners:
                listener(command, result)
            if cid in waiters:  # only the submitting replica has any
                for waiter in waiters.pop(cid):
                    waiter(command, result, record.commit_time)
        self._checkpoint(applied)
        if self._obs_emit is not None:
            self._obs_emit(
                record.commit_time, "trace.execute", self.replica_id,
                digest=record.block.digest.hex()[:8],
                position=record.position,
                commands=len(applied),
            )

    def _checkpoint(self, applied: List[Digest]) -> None:
        """Close one ledger position: chain the ids applied at it."""
        self.applied_count += len(applied)
        chain = hashlib.sha256(self.chain)
        chain.update(b"".join(applied))
        self.chain = chain.digest()
        self._counts.append(self.applied_count)
        self._chains += self.chain


def batch_commands(batch: TxBatch, built_from=None) -> Tuple[Command, ...]:
    """The commands of ``batch.items``; the one reader and writer of the memo
    kept on the immutable batch, the same object at every simulated replica
    (see repro.crypto.memo).  The proposer passes the commands it encoded the
    items from; a batch that arrived as bytes is decoded at its first commit.
    """
    memo = vars(batch)
    if "_commands" not in memo:
        memo["_commands"] = built_from or tuple(_decode_commands(batch.items))
    return memo["_commands"]


def _decode_commands(items):
    for raw in items:
        try:
            yield Command.from_bytes(raw)
        except CodecError:
            continue  # non-command payload (foreign app); skip deterministically


class SmrCluster:
    """A fully wired replicated service (simulator runtime).

    >>> cluster = SmrCluster.build(SystemConfig(n=4), machine_factory=KvStateMachine)
    >>> cluster.replicas[0].submit(b"SET x 1")
    >>> cluster.run(5.0)
    >>> cluster.verify_convergence()
    """

    def __init__(self, replicas: List[SmrReplica], sim) -> None:
        self.replicas = replicas
        self.sim = sim

    @classmethod
    def build(
        cls,
        system: SystemConfig,
        machine_factory: Callable[[], StateMachine],
        protocol: Optional[ProtocolConfig] = None,
        protocol_name: str = "lightdag2",
        latency_model=None,
        schedule=None,
        seed: int = 0,
        obs=None,
        admission=None,
        collector=None,
        max_batch: Optional[int] = None,
    ) -> "SmrCluster":
        """Wire replicas, state machines, and consensus nodes together.

        ``admission`` is an :class:`~repro.workload.admission.AdmissionConfig`
        applied to every replica's pending queue.  ``collector`` is an
        optional :class:`~repro.workload.metrics.MetricsCollector` teed
        into every commit hook — it sees the same records the application
        does, giving the consensus-side TPS/latency a load test reports
        next to the client-observed numbers.  ``max_batch`` caps commands
        per proposal (default: the protocol's batch size).  ``schedule``,
        validated, is the fault schedule the cluster runs under.
        """
        from ..adversary.schedule import FaultSchedule
        from ..harness.cluster import assemble
        from ..harness.runner import PROTOCOL_REGISTRY
        from ..net.latency import UniformLatency
        from ..net.simulator import Simulation
        from ..obs import NULL_OBS

        obs = obs if obs is not None else NULL_OBS
        protocol = protocol or ProtocolConfig(batch_size=64, gc_depth=SERVICE_GC_DEPTH)
        if max_batch is None:
            max_batch = protocol.batch_size
        replicas = [
            SmrReplica(
                i,
                machine_factory(),
                max_batch=max_batch,
                admission=make_admission(admission, obs=obs, replica_id=i),
                obs=obs,
            )
            for i in range(system.n)
        ]

        def commit_hook(i: int):
            if collector is None:
                return replicas[i].on_commit
            consensus_cb = collector.callback_for(i)
            replica_cb = replicas[i].on_commit

            def tee(record):
                consensus_cb(record)
                replica_cb(record)

            return tee

        cluster = assemble(
            system,
            protocol,
            PROTOCOL_REGISTRY[protocol_name],
            payload_source=lambda i: replicas[i].payload_source,
            on_commit=commit_hook,
            obs=obs,
            schedule=schedule if schedule is not None else FaultSchedule(),
            seed=seed,
        )
        sim = Simulation(
            cluster.factories,
            latency_model=latency_model or UniformLatency(),
            adversary=cluster.adversary,
            seed=seed,
            obs=obs,
        )
        return cls(replicas=replicas, sim=sim)

    def run(self, until: float) -> None:
        self.sim.run(until=until)

    # -- invariants ----------------------------------------------------------------

    def verify_convergence(self) -> None:
        """Every pair of replicas executed their common ledger prefix alike
        and, where both applied equally much, holds the same state.

        The ledgers come first (:func:`check_prefix_consistency`).  Then,
        for each pair, the checkpoints at the shorter of the two executed
        prefixes must match: the same number of commands applied, and the
        same chained digest of their ids; a replica behind another is judged
        on the positions both executed.  Where the two applied counts are
        equal, neither applied anything past that position, so the state
        digests must match.
        """
        check_prefix_consistency([node.ledger for node in self.sim.nodes])
        replicas = self.replicas
        for a in range(len(replicas)):
            for b in range(a + 1, len(replicas)):
                ra, rb = replicas[a], replicas[b]
                common = min(ra.positions_executed(), rb.positions_executed())
                (count_a, chain_a), (count_b, chain_b) = (
                    ra.checkpoint(common), rb.checkpoint(common)
                )
                if count_a != count_b:
                    raise ProtocolError(
                        f"replicas {a} and {b} applied {count_a} and {count_b} "
                        f"commands over the first {common} ledger positions"
                    )
                if chain_a != chain_b:
                    raise ProtocolError(
                        f"replicas {a} and {b} applied different command "
                        f"sequences over the first {common} ledger positions"
                    )
                if ra.applied_count == rb.applied_count:
                    if ra.machine.state_digest() != rb.machine.state_digest():
                        raise ProtocolError(
                            f"replicas {a} and {b} applied the same commands "
                            f"but diverged in state"
                        )
