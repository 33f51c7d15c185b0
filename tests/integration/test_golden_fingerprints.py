"""Golden run fingerprints: seeded runs must stay bit-identical.

Every row of ``golden_fingerprints.json`` is one ``run_experiment`` call
reduced to hashes of what the run decided (replica 0's ledger digests),
what the engine did (``SimulationStats``) and how many random draws it made
(the simulator RNG's final state).  A refactor that claims to keep seeded
outputs unchanged passes this file without touching the JSON.

The default rows (WAN latency, no adversary) take the simulator's flat
broadcast row; the lossy-topology and fault-schedule rows take its per-copy
loop and the adversary hooks.

Regenerate (only when a change means to alter simulated behaviour)::

    PYTHONPATH=src python tests/integration/test_golden_fingerprints.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.config import ExperimentConfig, ProtocolConfig, SystemConfig
from repro.harness import runner

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


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprint(case: dict) -> dict:
    """Run one case through the harness and reduce it to a comparable row."""
    sims = []

    class Recorded(runner.Simulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sims.append(self)

    cfg = ExperimentConfig(
        system=SystemConfig(n=7, crypto="hmac", seed=case["seed"]),
        protocol=ProtocolConfig(batch_size=50),
        **{"duration": 6.0, "warmup": 1.0, **case},
    )
    live, runner.Simulation = runner.Simulation, Recorded
    try:
        runner.run_experiment(cfg)
    finally:
        runner.Simulation = live
    (sim,) = sims
    stats = sim.stats
    ledger = hashlib.sha256()
    for digest in sim.nodes[0].ledger.digest_sequence():
        ledger.update(digest)
    return {
        "committed_blocks": len(sim.nodes[0].ledger),
        "ledger_sha256": ledger.hexdigest(),
        "events": stats.events_processed,
        "sent": stats.messages_sent,
        "delivered": stats.messages_delivered,
        "dropped": stats.messages_dropped,
        "bytes": stats.bytes_sent,
        "per_node_bytes_sha256": _sha(repr(list(stats.per_node_bytes))),
        "rng_state_sha256": _sha(repr(sim.rng.getstate())),
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_golden_fingerprint(name):
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(CASES)
    row = fingerprint(CASES[name])
    assert row["committed_blocks"] > 0, "a fingerprint of an empty ledger pins nothing"
    assert row == golden[name]


if __name__ == "__main__":
    rows = {name: fingerprint(case) for name, case in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
