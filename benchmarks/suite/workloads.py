"""The six pinned workloads: what each runs and why it exists.

A workload is a function of the seed alone.  The program only ever sees the
configuration objects built here; all load is generated in-process by one
thread (a saturating ``Mempool`` or the simulated ``ClientPopulation``).

Horizons are sized so that one rep takes 4-13 s of host time on the 2-core
reference container: the contract's time cap (136 driver runs in 3420 s)
leaves about 25 s per run including set-up and the traced rep.  Every
workload is a fixed amount of work, whatever the host's speed.  Where the
issue's horizon did not fit it was shortened, never the workload dropped;
the README lists both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: Fault schedule of ``sim_faults_n16``: two equivocators from wave 2, a crash
#: a third of the way in, a 5 s partition of five replicas past the half-way
#: mark, and heavy-tailed message delays throughout.  Three faulty replicas
#: of the f=5 the system tolerates: with all five spent (the issue's three
#: crashes) and 1% link loss, 2 seeds in 10 never commit again after the
#: crash, and a benchmark needs workloads on which no operation fails.
FAULT_SCHEDULE = (
    "equivocate@0+0:replicas=13|14,wave=2;"
    "crash@20+0:victims=15;"
    "partition@35+5:group=0|1|2|3|4;"
    "delay@0+60:max=0.05,tailp=0.02,taild=0.5"
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sim" | "loadtest" | "tcp"
    why: str
    #: span-name suffixes that must have been called at least once in the
    #: traced rep's timed region — a silent zero means the wrapper missed.
    expect: Tuple[str, ...]


_SIM_EXPECT = (
    "Simulation.run", ".on_message", ".on_timer", "._on_deliver", ".on_val",
    "DagStore.add", "Ledger.append", "validate_block_structure",
    "Mempool.take", ".sign", ".verify", "hash_fields",
    "_SimNetworkAPI.broadcast", "MetricsCollector._observe",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sim_scale_n64", "sim",
            "n=64 LightDAG2, null crypto: core/broadcast/dag and the engine's "
            "fan-out-63 path do all the work; crypto and codec do none",
            _SIM_EXPECT + (".on_echo",),
        ),
        Workload(
            "sim_crypto_n16", "sim",
            "n=16 LightDAG2, schnorr: crypto is most of host time and key "
            "dealing most of set-up; bypasses protocol-layer optimisations",
            _SIM_EXPECT + (".on_echo", ".add_share", "uncommitted_ancestors"),
        ),
        Workload(
            "sim_rbc_bullshark_n31", "sim",
            "n=31 Bullshark over RBC, hmac: same broadcast/core layers used "
            "differently (echo+ready all-to-all, fast/fallback commit rule)",
            _SIM_EXPECT + (".on_echo", ".on_ready", "uncommitted_ancestors"),
        ),
        Workload(
            "sim_faults_n16", "sim",
            "n=16 LightDAG2 under equivocation, crashes, a partition, lossy "
            "links and delays with full oracles: retrieval, reproposal, checks",
            _SIM_EXPECT + (
                ".on_echo", "._check_commit", "._check_deliver", ".on_send",
                "RetrievalManager.on_request", "RetrievalManager.on_response",
                "DagStore.prune_below",
            ),
        ),
        Workload(
            "loadtest_open_n4", "loadtest",
            "n=4 replicated KV under an open-loop Poisson rate ladder: only "
            "workload where smr, clients and admission carry the load",
            (
                "Simulation.run", ".on_message", "Ledger.append",
                "SmrReplica.submit_command", "SmrReplica.payload_source",
                "SmrReplica.on_commit", ".apply", "._on_arrival", "._on_done",
                "AdmissionController.decide", "MetricsCollector._observe",
            ),
        ),
        Workload(
            "tcp_saturated_n4", "tcp",
            "n=4 LightDAG2 over loopback TCP, saturated: codec, framing and "
            "the asyncio loop are on the critical path; no simulator at all",
            (
                "TcpCluster.run", ".on_message", "Ledger.append",
                "TcpCluster.post", "encode_message", "encoded_wire_bytes",
                "decode_message", "Mempool.take", "DagStore.prune_below",
            ),
        ),
    )
}

# ------------------------------------------------------------------ sim_*


def sim_config(name: str, seed: int):
    """The ``ExperimentConfig`` of a simulated workload."""
    from repro.config import ExperimentConfig, ProtocolConfig, SystemConfig

    if name == "sim_scale_n64":
        return ExperimentConfig(
            system=SystemConfig(n=64, crypto="null", seed=seed),
            protocol=ProtocolConfig(batch_size=400, gc_depth=8),
            protocol_name="lightdag2",
            latency_model="wan4", duration=6.0, warmup=2.0, seed=seed,
        )
    if name == "sim_crypto_n16":
        return ExperimentConfig(
            system=SystemConfig(n=16, crypto="schnorr", seed=seed),
            protocol=ProtocolConfig(batch_size=400),
            protocol_name="lightdag2",
            latency_model="wan4", duration=12.0, warmup=2.0, seed=seed,
        )
    if name == "sim_rbc_bullshark_n31":
        return ExperimentConfig(
            system=SystemConfig(n=31, crypto="hmac", seed=seed),
            protocol=ProtocolConfig(batch_size=400),
            protocol_name="bullshark",
            latency_model="wan4", duration=7.0, warmup=2.0, seed=seed,
        )
    if name == "sim_faults_n16":
        return ExperimentConfig(
            system=SystemConfig(n=16, crypto="hmac", seed=seed),
            protocol=ProtocolConfig(batch_size=400, gc_depth=8),
            protocol_name="lightdag2",
            latency_model="topology:clusters=4,loss=0.01,jitter_frac=0.1",
            adversary_name="schedule:" + FAULT_SCHEDULE,
            check_level="full",
            duration=60.0, warmup=2.0, seed=seed,
        )
    raise KeyError(name)


# ------------------------------------------------------- loadtest_open_n4

#: Offered rates (tx/s), each run as its own cluster for RUNG_SECONDS.
LOAD_LADDER = (1000.0, 1250.0, 1500.0, 1750.0)
#: The rung whose client latency is the workload's latency metric.
LOAD_REFERENCE_RATE = 1250.0
#: A rung is under the limit while e2e p99 stays at or below this.
LOAD_LATENCY_LIMIT_S = 1.0
RUNG_SECONDS = 16.0
LOAD_WARMUP = 2.0


def loadtest_config(seed: int, rate: float):
    from repro.harness.loadtest import LoadtestConfig
    from repro.workload.admission import AdmissionConfig
    from repro.workload.clients import WorkloadSpec

    return LoadtestConfig(
        n=4, protocol_name="lightdag2", batch_size=16, crypto="hmac",
        duration=RUNG_SECONDS, warmup=LOAD_WARMUP, seed=seed,
        workload=WorkloadSpec(
            clients=64, mode="open", rate=rate, arrival="poisson", seed=seed
        ),
        admission=AdmissionConfig(max_pending=4096, policy="reject"),
    )


# ------------------------------------------------------- tcp_saturated_n4

#: Fixed work, counted in ledger positions: every replica commits the same
#: blocks in the same order, so "blocks TCP_WARMUP_BLOCKS .. TCP_BLOCKS" is
#: the same work at every replica, in every rep, at any host speed.  At 4
#: blocks a round that is ≈300 warm-up rounds and ≈1200 measured ones:
#: ≈0.8 s + ≈3 s on the quiet reference container.
TCP_WARMUP_BLOCKS = 1200
TCP_BLOCKS = 6000
#: A rep that has not committed TCP_BLOCKS everywhere by then has failed.
TCP_TIMEOUT_S = 60.0


def tcp_configs(seed: int):
    from repro.config import ProtocolConfig, SystemConfig

    return (
        SystemConfig(n=4, crypto="hmac", seed=seed),
        ProtocolConfig(batch_size=100, gc_depth=8),
    )
