"""Golden run fingerprints: seeded runs must stay bit-identical.

Every row of ``golden_fingerprints.json`` is one ``run_experiment`` call
reduced to hashes of what the run decided (replica 0's ledger digests),
what the engine did (``SimulationStats``) and how many random draws it made
(the simulator RNG's final state).  A refactor that claims to keep seeded
outputs unchanged passes this file without touching the JSON.

The ``smr-*`` rows are one ``run_loadtest`` call each — clients, admission
and the replicated KV on top of consensus — reduced to what every replica
applied, what the clients saw and what the engine did.

The default rows (WAN latency, no adversary) take the simulator's flat
broadcast row; the lossy-topology and fault-schedule rows take its per-copy
loop and the adversary hooks.  The lossy-topology row's ``loss=`` knob runs
as the fault phase ``loss@0+inf:p=0.02,clusters=3``: its drops are the
schedule adversary's, drawn from the adversary's RNG before the NIC, so
the simulator RNG (``rng_state_sha256``) draws latencies only.

Regenerate (only when a change means to alter simulated behaviour)::

    PYTHONPATH=src python tests/integration/test_golden_fingerprints.py

It prints, row by row, the fields that differ from the committed file
before it overwrites it.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.config import ExperimentConfig, ProtocolConfig, SystemConfig
from repro.harness import loadtest, runner
from repro.workload.admission import AdmissionConfig
from repro.workload.clients import WorkloadSpec

GOLDEN = Path(__file__).with_name("golden_fingerprints.json")

CASES = {
    f"{protocol}-seed{seed}": dict(protocol_name=protocol, seed=seed)
    for protocol in ("lightdag1", "lightdag2", "dagrider", "tusk", "bullshark")
    for seed in (11, 12)
}
CASES["lightdag2-lossy-topology"] = dict(
    protocol_name="lightdag2", seed=11,
    latency_model="topology:clusters=3,loss=0.02,jitter_frac=0.1",
)
CASES["lightdag2-fault-schedule"] = dict(
    protocol_name="lightdag2", seed=11, duration=12.0,
    adversary_name=(
        "schedule:equivocate@0+0:replicas=6,wave=2;crash@4+0:victims=5;"
        "partition@6+2:group=0|1;delay@0+12:max=0.05,tailp=0.02,taild=0.5"
    ),
)


# One row per named attack (and ``worst``), captured at the commit before
# the named attacks became fault-schedule specs: the name must keep meaning
# the same run.
for _attack, _protocol in (
    ("crash", "lightdag1"),
    ("crash", "tusk"),
    ("leader-delay", "bullshark"),
    ("equivocate", "lightdag2"),
    ("random-sched", "lightdag2"),
    ("withhold", "lightdag1"),
    ("withhold-garbage", "lightdag2"),
    ("worst", "dagrider"),
):
    CASES[f"{_protocol}-attack-{_attack}"] = dict(
        protocol_name=_protocol, seed=11, adversary_name=_attack
    )

# Real signatures and the threshold coin (``crypto="schnorr"``), one row per
# LightDAG variant and one whose Byzantine proofs carry real signatures
# (captured at 7175ce3, when the reveal was one full-width power per partial).
CASES["lightdag2-schnorr-n7"] = dict(
    protocol_name="lightdag2", seed=3, crypto="schnorr", duration=4.0
)
CASES["lightdag1-schnorr-n4"] = dict(
    protocol_name="lightdag1", seed=4, n=4, crypto="schnorr", duration=4.0
)
CASES["lightdag2-schnorr-n10-equivocate"] = dict(
    protocol_name="lightdag2", seed=5, n=10, crypto="schnorr", duration=4.0,
    adversary_name="equivocate",
)

# The client/execution plane: closed and open loop, every admission policy,
# both LightDAG variants.  ``workload``/``admission`` are constructor
# arguments of ``WorkloadSpec``/``AdmissionConfig``; the rest of
# ``LoadtestConfig`` (n=4, batch 16 unless the row says otherwise).
SMR_CASES = {
    "smr-closed-think": dict(
        seed=3, workload=dict(mode="closed", clients=32, think_s=0.01),
    ),
    "smr-open-shed-oldest": dict(
        seed=4, batch_size=8, workload=dict(mode="open", rate=3000.0),
        admission=dict(max_pending=32, policy="shed-oldest"),
    ),
    "smr-closed-reject-client-cap": dict(
        seed=5, workload=dict(mode="closed", outstanding=4),
        admission=dict(max_pending=24, policy="reject", per_client_cap=2),
    ),
    "smr-lightdag1-n7-bursty-shared": dict(
        seed=6, n=7, protocol_name="lightdag1",
        workload=dict(mode="open", rate=800.0, arrival="bursty", shared_keys=True),
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _ledger_sha(node) -> str:
    return hashlib.sha256(b"".join(node.ledger.digest_sequence())).hexdigest()


def fingerprint(case: dict) -> dict:
    """Run one case through the harness and reduce it to a comparable row."""
    sims = []

    class Recorded(runner.Simulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sims.append(self)

    case = {"n": 7, "crypto": "hmac", "duration": 6.0, "warmup": 1.0, **case}
    system = SystemConfig(n=case.pop("n"), crypto=case.pop("crypto"), seed=case["seed"])
    cfg = ExperimentConfig(
        system=system, protocol=ProtocolConfig(batch_size=50), **case
    )
    live, runner.Simulation = runner.Simulation, Recorded
    try:
        runner.run_experiment(cfg)
    finally:
        runner.Simulation = live
    (sim,) = sims
    stats = sim.stats
    return {
        "committed_blocks": len(sim.nodes[0].ledger),
        "ledger_sha256": _ledger_sha(sim.nodes[0]),
        "events": stats.events_processed,
        "sent": stats.messages_sent,
        "delivered": stats.messages_delivered,
        "dropped": stats.messages_dropped,
        "bytes": stats.bytes_sent,
        "per_node_bytes_sha256": _sha(repr(list(stats.per_node_bytes))),
        "rng_state_sha256": _sha(repr(sim.rng.getstate())),
    }


def smr_fingerprint(case: dict) -> dict:
    """Run one load test and reduce cluster, clients and engine to a row."""
    clusters, orders = [], []  # orders: each replica's applied command ids

    class Recorded(loadtest.SmrCluster):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            clusters.append(self)
            for replica in self.replicas:
                order = []
                replica.on_result(lambda command, result, order=order:
                                  order.append(command.command_id))
                orders.append(order)

    case = {"n": 4, "batch_size": 16, "duration": 5.0, "warmup": 1.0, **case}
    case["workload"] = WorkloadSpec(seed=case["seed"], **case["workload"])
    if "admission" in case:
        case["admission"] = AdmissionConfig(**case["admission"])
    cfg = loadtest.LoadtestConfig(**case)
    live, loadtest.SmrCluster = loadtest.SmrCluster, Recorded
    try:
        result = loadtest.run_loadtest(cfg)
    finally:
        loadtest.SmrCluster = live
    (cluster,) = clusters
    stats = cluster.sim.stats
    applied = hashlib.sha256()
    for replica, order in zip(cluster.replicas, orders):
        applied.update(len(order).to_bytes(8, "big"))
        applied.update(b"".join(order))
        applied.update(replica.machine.state_digest())
    seen = {k: v for k, v in vars(result).items() if k != "config"}
    return {
        "committed_blocks": len(cluster.sim.nodes[0].ledger),
        "ledger_sha256": _ledger_sha(cluster.sim.nodes[0]),
        "applied": len(orders[0]),
        "applied_and_state_sha256": applied.hexdigest(),
        "completed": result.completed,
        "pushed_back": result.rejected + result.shed,
        "result_sha256": _sha(repr(sorted(seen.items()))),
        "events": stats.events_processed,
        "sent": stats.messages_sent,
        "bytes": stats.bytes_sent,
    }


def _golden() -> dict:
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted({**CASES, **SMR_CASES})
    return golden


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_golden_fingerprint(name):
    row = fingerprint(CASES[name])
    assert row["committed_blocks"] > 0, "a fingerprint of an empty ledger pins nothing"
    assert row == _golden()[name]


@pytest.mark.parametrize("name", sorted(SMR_CASES))
def test_loadtest_matches_golden_fingerprint(name):
    row = smr_fingerprint(SMR_CASES[name])
    assert row["applied"] > 100, "a fingerprint of an idle service pins nothing"
    assert row == _golden()[name]


def _moved(old: dict, new: dict) -> str:
    """The fields of one row that differ, as ``field old -> new`` (hashes
    cut to 12 hex digits)."""
    def short(value):
        return value[:12] if isinstance(value, str) else value
    return ", ".join(
        f"{key} {short(old.get(key))} -> {short(value)}"
        for key, value in sorted(new.items()) if old.get(key) != value
    ) or "unchanged"


if __name__ == "__main__":
    rows = {name: fingerprint(case) for name, case in sorted(CASES.items())}
    rows.update((name, smr_fingerprint(case)) for name, case in sorted(SMR_CASES.items()))
    committed = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for name, row in sorted(rows.items()):
        print(f"{name}: {_moved(committed.get(name, {}), row)}")
    GOLDEN.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
