"""Which calls the tracer wraps, and how spans become per-layer metrics.

Layers are this repository's modules.  An entry is a call that crosses
*into* a layer from another one: the protocol node's three handlers, the
broadcast managers' message handlers, the DAG store's mutators, the crypto
backend's operations, and so on.  Cheap accessors (``DagStore.get``,
``is_delivered`` ...) are deliberately left alone: they run millions of
times, and wrapping them would cost more than they do.  Their time stays
with the caller.

A few entries are private names.  They are the objects the program hands
across a boundary as callbacks (``BaseDagNode._on_deliver`` is what a
broadcast manager calls to deliver), so they are where the boundary is.
"""

from __future__ import annotations

from typing import Dict, List

from .tracer import Entry, Tracer

LAYERS = (
    "net.simulator", "net.tcp", "core", "core.retrieval", "broadcast", "dag",
    "crypto", "codec", "smr", "workload", "check", "adversary",
)


def _truthy(args, result) -> int:
    return 1 if result else 0


def _rejected(args, result) -> int:
    return 0 if result else 1


def _batch_items(args, result) -> int:
    return len(args[1])


def _result_len(args, result) -> int:
    return len(result) if result is not None else 0


def _payload_txs(args, result) -> int:
    return result.count if result is not None else 0


def _entries(layer: str, prefix: str, names: str, **kwargs) -> List[Entry]:
    """One entry per name; ``prefix`` ends in ``:`` (module) or ``.`` (class)."""
    return [Entry(layer, prefix + name, **kwargs) for name in names.split()]


#: Root spans: the timed region.  (The TCP run is a coroutine, so the child
#: opens its root by hand around ``asyncio.run``.)
ROOTS = [Entry("net.simulator", "repro.net.simulator:Simulation.run")]

ENTRIES: List[Entry] = [
    # -- net.simulator / net.tcp: what a node may do to the outside world
    Entry("net.simulator", "repro.net.simulator:_SimNetworkAPI.send", req=2),
    Entry("net.simulator", "repro.net.simulator:_SimNetworkAPI.broadcast", req=1),
    Entry("net.simulator", "repro.net.simulator:_SimNetworkAPI.set_timer"),
    Entry("net.tcp", "repro.net.tcp:TcpCluster.post", req=3),
    Entry("net.tcp", "repro.net.tcp:TcpCluster.post_timer"),
    Entry("net.tcp", "repro.net.interfaces:NetworkAPI.broadcast", req=1),
    # -- core: the three Node handlers plus the delivery callback
    *_entries("core", "repro.core.base:BaseDagNode.", "on_start on_timer"),
    Entry("core", "repro.core.base:BaseDagNode.on_message", req=2),
    Entry("core", "repro.core.base:BaseDagNode._on_deliver", req=1),
    # -- core.retrieval
    Entry("core.retrieval", "repro.core.retrieval:RetrievalManager.note_pending", req=1),
    *_entries("core.retrieval", "repro.core.retrieval:RetrievalManager.",
              "revive on_retry_timer satisfied_by drop_pending", req=1),
    *_entries("core.retrieval", "repro.core.retrieval:RetrievalManager.",
              "on_request on_response gc_below"),
    # -- broadcast: CBC / PBC / RBC managers and the shared tracker
    *[
        entry
        for owner, names in (
            ("repro.broadcast.cbc:CbcManager.",
             "broadcast vote refresh_vote mark_ready deliver_retrieved"),
            ("repro.broadcast.pbc:PbcManager.",
             "broadcast refresh_vote mark_ready deliver_retrieved"),
            ("repro.broadcast.rbc:RbcManager.",
             "broadcast echo refresh_vote mark_ready deliver_retrieved"),
        )
        for entry in _entries("broadcast", owner, names, req=1)
    ],
    *[
        entry
        for owner, names in (
            ("repro.broadcast.cbc:CbcManager.", "on_val on_echo"),
            ("repro.broadcast.pbc:PbcManager.", "on_val"),
            ("repro.broadcast.rbc:RbcManager.", "on_val on_echo on_ready"),
        )
        for entry in _entries("broadcast", owner, names, req=2)
    ],
    *_entries("broadcast", "repro.broadcast.cbc:CbcManager.", "gc_below"),
    *_entries("broadcast", "repro.broadcast.pbc:PbcManager.", "gc_below equivocate"),
    *_entries("broadcast", "repro.broadcast.rbc:RbcManager.", "gc_below"),
    Entry("broadcast", "repro.broadcast.base:InstanceTracker.try_deliver",
          measure=_truthy),
    # -- dag: store mutators, validation, traversal, ledger
    Entry("dag", "repro.dag.store:DagStore.add", req=1, measure=_rejected),
    *_entries("dag", "repro.dag.store:DagStore.", "missing prune_below"),
    Entry("dag", "repro.dag.validation:validate_block_structure", req=0),
    Entry("dag", "repro.dag.validation:has_all_parents", req=0),
    Entry("dag", "repro.dag.traversal:is_ancestor", req=0),
    Entry("dag", "repro.dag.traversal:uncommitted_ancestors", req=0),
    Entry("dag", "repro.dag.traversal:reference_closure_contains", req=0),
    Entry("dag", "repro.dag.ledger:Ledger.append", req=1),
    Entry("dag", "repro.dag.block:make_block"),
    # -- crypto
    Entry("crypto", "repro.crypto.backend:CryptoBackend.sign", req=1),
    Entry("crypto", "repro.crypto.backend:CryptoBackend.verify", req=2),
    Entry("crypto", "repro.crypto.backend:CryptoBackend.verify_batch",
          measure=_batch_items),
    Entry("crypto", "repro.crypto.backend:CryptoBackend.invalid_in_batch"),
    *_entries("crypto", "repro.crypto.coin:GlobalPerfectCoin.",
              "make_share verify_share add_share"),
    *_entries("crypto", "repro.crypto.hashing:", "hash_fields hash_bytes merkle_root"),
    Entry("crypto", "repro.crypto.keys:TrustedDealer.deal"),
    # -- codec: message-level encode/decode (the simulator never calls these)
    Entry("codec", "repro.codec.messages:encode_message", req=0, measure=_result_len),
    Entry("codec", "repro.codec.messages:encoded_wire_bytes", req=0),
    Entry("codec", "repro.codec.messages:decode_message"),
    # -- smr
    *_entries("smr", "repro.smr.replica:SmrReplica.", "submit_command on_commit"),
    Entry("smr", "repro.smr.replica:SmrReplica.payload_source", measure=_payload_txs),
    Entry("smr", "repro.smr.machine:StateMachine.apply"),
    # -- workload: mempool, client population, admission, commit metrics
    Entry("workload", "repro.workload.txgen:Mempool.take"),
    *_entries("workload", "repro.workload.clients:ClientPopulation.",
              "_on_arrival _on_done"),
    *_entries("workload", "repro.workload.admission:AdmissionController.",
              "decide note_admitted note_drained note_shed"),
    Entry("workload", "repro.workload.metrics:MetricsCollector._observe"),
    # -- check / adversary (installed by sim_faults_n16 only)
    *_entries("check", "repro.check.monitor:InvariantMonitor.",
              "_check_commit _check_deliver"),
    Entry("check", "repro.check.oracles:deep_audit"),
    Entry("check", "repro.dag.ledger:check_prefix_consistency"),
    Entry("adversary", "repro.adversary.base:Adversary.on_send", req=3),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    facts: Dict[str, float],
    untraced_wall_s: float,
    traced_wall_s: float,
    fixed_work: bool,
) -> Dict[str, float]:
    """Every per-layer metric of one traced rep.

    ``fixed_work`` says the untraced rep did exactly the same work (every
    simulated workload).  The calibrated wrapper cost explains only part of
    a traced run's slowdown; the rest is diffuse (colder caches, more
    allocator and collector work), so every reported time is then scaled by
    one common factor that makes the layers add up to the untraced wall.

    ``facts`` are counts read from the program's own state after the run
    (events processed, frames sent, rounds reached ...); they are marked
    *count* in the README and are exact on simulated workloads.
    """
    split = tracer.layer_split()
    explained = sum(row["self_s"] for row in split.values())
    scale = untraced_wall_s / explained if fixed_work and explained else 1.0
    spans = tracer.by_name()
    outside = tracer.by_name(in_root=False)

    def calls(*suffixes: str) -> int:
        return sum(
            row["calls"] for name, row in spans.items() if name.endswith(suffixes)
        )

    def weight(*suffixes: str) -> int:
        return sum(
            row["weight"] for name, row in spans.items() if name.endswith(suffixes)
        )

    def seconds(column: str, *suffixes: str, table=spans) -> float:
        return scale * sum(
            row[column] for name, row in table.items() if name.endswith(suffixes)
        )

    def outermost(suffix: str) -> int:
        # A subclass handler that calls super() opens two spans for one
        # event; count only the span whose parent is not the same handler.
        return sum(
            agg.calls
            for agg in tracer.aggregates()
            if agg.name.endswith(suffix) and not agg.parent.endswith(suffix)
        )

    out: Dict[str, float] = {}
    for layer in LAYERS:
        row = split.get(layer, {"calls": 0, "self_s": 0.0, "share": 0.0})
        out[f"{layer}.calls"] = row["calls"]
        out[f"{layer}.self_s"] = scale * row["self_s"]
        out[f"{layer}.share"] = row["share"]
    out["trace.overhead_ratio"] = _ratio(traced_wall_s, untraced_wall_s)
    out["trace.spans"] = tracer.span_count()

    messages = outermost(".on_message")
    out["core.on_message_calls"] = messages
    out["core.on_timer_calls"] = outermost(".on_timer")
    out["core.us_per_message"] = _ratio(out["core.self_s"] * 1e6, messages)
    out["core.rounds_reached"] = facts.get("rounds_reached", 0)
    out["core.reproposals"] = facts.get("reproposals", 0)
    out["core.max_commit_gap_s"] = facts.get("max_commit_gap_s", 0.0)

    handled = calls(".on_val", ".on_echo", ".on_ready")
    out["broadcast.val_calls"] = calls(".on_val")
    out["broadcast.echo_calls"] = calls(".on_echo")
    out["broadcast.ready_calls"] = calls(".on_ready")
    out["broadcast.delivered"] = weight(".try_deliver")
    out["broadcast.useful_ratio"] = _ratio(out["broadcast.delivered"], handled)
    # wire copies: the simulator's count, or on TCP the frames written
    out["broadcast.msgs_per_committed_block"] = _ratio(
        facts.get("messages_sent", facts.get("frames_sent", 0)),
        facts.get("committed_blocks", 0),
    )
    out["broadcast.bytes_per_committed_tx"] = _ratio(
        facts.get("bytes_sent", 0), facts.get("committed_txs", 0)
    )

    out["dag.add_calls"] = calls("DagStore.add")
    out["dag.add_rejected"] = weight("DagStore.add")
    out["dag.validation_s"] = seconds(
        "self_s", "validate_block_structure", "has_all_parents"
    )
    out["dag.traversal_s"] = seconds(
        "self_s", "is_ancestor", "uncommitted_ancestors", "reference_closure_contains"
    )
    out["dag.ledger_appends"] = calls("Ledger.append")
    out["dag.prune_calls"] = calls("DagStore.prune_below")

    events = facts.get("events", 0)
    out["net.simulator.events"] = events
    out["net.simulator.us_per_event"] = _ratio(untraced_wall_s * 1e6, events)
    out["net.simulator.msgs_sent"] = facts.get("messages_sent", 0)
    out["net.simulator.msgs_dropped"] = facts.get("messages_dropped", 0)
    out["net.simulator.bytes_sent"] = facts.get("bytes_sent", 0)

    verifies = calls(".verify")
    out["crypto.sign_calls"] = calls(".sign")
    out["crypto.verify_calls"] = verifies
    out["crypto.verify_batch_items"] = weight(".verify_batch")
    out["crypto.coin_share_calls"] = calls(".make_share", ".verify_share", ".add_share")
    out["crypto.hash_calls"] = calls("hash_fields", "hash_bytes", "merkle_root")
    out["crypto.us_per_verify"] = _ratio(seconds("total_s", ".verify") * 1e6, verifies)

    decodes = calls("decode_message")
    encodes = calls("encode_message")
    out["codec.encode_calls"] = encodes
    out["codec.decode_calls"] = decodes
    out["codec.encode_bytes"] = weight("encode_message")
    out["codec.us_per_decode"] = _ratio(seconds("total_s", "decode_message") * 1e6, decodes)
    out["codec.encode_once_ratio"] = _ratio(facts.get("frames_sent", 0), encodes)

    out["net.tcp.frames_sent"] = facts.get("frames_sent", 0)
    out["net.tcp.frames_received"] = facts.get("frames_received", 0)
    out["net.tcp.decode_errors"] = facts.get("decode_errors", 0)

    out["core.retrieval.requests_sent"] = facts.get("retrieval_requests", 0)
    out["core.retrieval.responses_sent"] = facts.get("retrieval_responses", 0)
    out["core.retrieval.abandoned"] = facts.get("retrieval_abandoned", 0)

    batches = calls("SmrReplica.payload_source")
    out["smr.submitted"] = calls("SmrReplica.submit_command")
    out["smr.applied"] = calls(".apply")
    out["smr.txs_per_batch"] = _ratio(weight("SmrReplica.payload_source"), batches)
    out["smr.queue_wait_p50_s"] = facts.get("queue_wait_p50_s", 0.0)
    out["smr.e2e_latency_p99_s"] = facts.get("e2e_latency_p99_s", 0.0)
    out["smr.max_pending_depth"] = facts.get("max_pending_depth", 0)

    out["workload.take_calls"] = calls("Mempool.take")
    out["workload.client_callbacks"] = calls("._on_arrival", "._on_done")

    out["check.monitor_calls"] = calls("._check_commit", "._check_deliver")
    out["check.audit_s"] = seconds(
        "total_s", "deep_audit", "check_prefix_consistency", table=outside
    )
    out["adversary.on_send_calls"] = calls(".on_send")
    return out
