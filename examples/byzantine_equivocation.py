#!/usr/bin/env python3
"""LightDAG2 under the §VI-A equivocation attack, step by step.

A Byzantine replica broadcasts two contradictory blocks in a wave's first
PBC round.  Watch the protocol machinery respond (§V):

1. honest CBC proposers unknowingly reference one copy or the other;
2. Rule 2 voters detect the contradiction and send the conflicting block
   back to the proposers instead of voting;
3. proposers assemble a Byzantine proof and *repropose* clean blocks;
4. the proof propagates (Lemma 8) and every honest replica blacklists the
   equivocator — it is excluded from all future waves (Lemma 7);
5. ledgers stay identical at every honest replica (Theorem 6), and
   commits resume at full speed (Theorem 10's self-limiting argument).

Run:  python examples/byzantine_equivocation.py
"""

from repro.adversary.schedule import FaultSchedule
from repro.config import ProtocolConfig, SystemConfig
from repro.core.lightdag2 import LightDag2Node
from repro.harness.cluster import assemble
from repro.net.latency import UniformLatency
from repro.net.simulator import Simulation


def main() -> None:
    system = SystemConfig(n=7)  # tolerates f = 2
    protocol = ProtocolConfig(batch_size=100)
    byzantine = {5: 1, 6: 4}  # replica -> wave its attack starts (staggered)
    # The attack is a fault schedule: one equivocate phase per replica.
    schedule = FaultSchedule.from_spec(
        ";".join(
            f"equivocate@0+0:replicas={replica},wave={wave}"
            for replica, wave in byzantine.items()
        )
    )
    schedule.validate(system, "lightdag2")
    cluster = assemble(system, protocol, LightDag2Node, schedule=schedule)

    sim = Simulation(
        cluster.factories,
        latency_model=UniformLatency(0.02, 0.08),
        seed=11,
    )
    sim.run(until=20.0)

    print("Byzantine replicas (equivocating in first-round PBC):")
    for b, start in byzantine.items():
        node = sim.nodes[b]
        print(
            f"  replica {b}: attack from wave {start}, "
            f"equivocated {node.equivocations}x, caught={node.caught}"
        )

    # The recipe's post-run check: prefix consistency over the honest ledgers.
    honest = cluster.check(sim.nodes)
    print("\nHonest replicas:")
    for node in honest:
        print(
            f"  replica {node.node_id}: committed {len(node.ledger)} blocks, "
            f"blacklist={sorted(node.blacklist)}, "
            f"reproposals={node.reproposals}, "
            f"contradiction notices sent={node.contradictions_sent}"
        )

    print("\nSafety check: all honest ledgers agree on their common prefix ✓")

    caught_everywhere = all(
        node.blacklist == set(byzantine) for node in honest
    )
    print(
        "Exclusion: every honest replica blacklisted every equivocator "
        f"{'✓' if caught_everywhere else '✗ (still propagating)'}"
    )


if __name__ == "__main__":
    main()
