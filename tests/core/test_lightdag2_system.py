"""LightDAG2 whole-system tests: equivocation end-to-end, exclusion, liveness."""

import pytest

from repro.adversary.byzantine import EquivocatingLightDag2Node
from repro.config import ProtocolConfig, SystemConfig
from repro.core.lightdag2 import LightDag2Node
from repro.crypto.keys import TrustedDealer
from repro.dag.ledger import check_prefix_consistency
from repro.net.latency import FixedLatency, UniformLatency
from repro.net.simulator import Simulation


def build_sim(n=4, byzantine=None, latency=None, seed=1, crypto="hmac", batch=10):
    byzantine = byzantine or {}
    system = SystemConfig(n=n, crypto=crypto, seed=seed)
    protocol = ProtocolConfig(batch_size=batch)
    chains = TrustedDealer(
        system, coin_threshold=protocol.resolve_coin_threshold(system)
    ).deal()

    def factory(i):
        if i in byzantine:
            start = byzantine[i]
            return lambda net: EquivocatingLightDag2Node(
                net, system, protocol, chains[i], start_wave=start
            )
        return lambda net: LightDag2Node(net, system, protocol, chains[i])

    return Simulation(
        [factory(i) for i in range(n)],
        latency_model=latency or UniformLatency(0.02, 0.08),
        seed=seed,
    )


def honest(sim, byzantine):
    return [node for i, node in enumerate(sim.nodes) if i not in byzantine]


class TestHonestRuns:
    def test_progress_and_safety(self):
        sim = build_sim(latency=FixedLatency(0.05))
        sim.run(until=3.0)
        check_prefix_consistency([n.ledger for n in sim.nodes])
        assert all(len(n.ledger) > 20 for n in sim.nodes)

    def test_no_reproposals_without_byzantine(self):
        sim = build_sim(latency=FixedLatency(0.05))
        sim.run(until=3.0)
        assert all(n.reproposals == 0 for n in sim.nodes)
        assert all(n.contradictions_sent == 0 for n in sim.nodes)
        assert all(not n.blacklist for n in sim.nodes)

    def test_schnorr_end_to_end(self):
        sim = build_sim(latency=FixedLatency(0.05), crypto="schnorr")
        sim.run(until=1.5)
        check_prefix_consistency([n.ledger for n in sim.nodes])
        assert all(len(n.ledger) > 0 for n in sim.nodes)

    def test_faster_than_three_steps_per_round(self):
        """A LightDAG2 wave is 4 steps for 3 rounds — rounds must tick
        faster than an all-CBC protocol's 2 steps per round."""
        sim = build_sim(latency=FixedLatency(0.05))
        sim.run(until=3.0)
        # 3.0s at 4 steps/wave × 0.05s = 15 waves = 45 rounds minimum.
        assert sim.nodes[0].current_round >= 40


class TestEquivocationEndToEnd:
    def test_single_equivocator_caught_and_excluded(self):
        byz = {3: 2}
        sim = build_sim(byzantine=byz, seed=7)
        sim.run(until=10.0)
        assert sim.nodes[3].caught
        for node in honest(sim, byz):
            assert node.blacklist == {3}
        check_prefix_consistency([n.ledger for n in honest(sim, byz)])

    def test_attack_stops_after_exposure(self):
        byz = {3: 2}
        sim = build_sim(byzantine=byz, seed=7)
        sim.run(until=10.0)
        # The self-limiting property: caught -> stops equivocating.
        assert sim.nodes[3].equivocations <= 3

    def test_liveness_resumes_after_exclusion(self):
        byz = {3: 2}
        sim = build_sim(byzantine=byz, seed=7)
        sim.run(until=10.0)
        node = honest(sim, byz)[0]
        # Commits continue well past the attack wave.
        assert max(node.commit.committed_leader_waves) > 10

    def test_culprit_blocks_unreferenced_after_exposure(self):
        byz = {3: 2}
        sim = build_sim(byzantine=byz, seed=7)
        sim.run(until=10.0)
        node = honest(sim, byz)[0]
        exposure_round = None
        for record in node.ledger:
            # No gc_depth: the store still holds every committed body.
            if node.store.get(record.digest).byz_proofs:
                exposure_round = record.round
                break
        assert exposure_round is not None
        late_culprit_blocks = [
            r for r in node.ledger
            if r.author == 3 and r.round > exposure_round + 3
        ]
        assert late_culprit_blocks == []

    def test_two_staggered_equivocators(self):
        byz = {2: 1, 3: 4}
        sim = build_sim(n=7, byzantine=byz, seed=11)
        sim.run(until=15.0)
        survivors = honest(sim, byz)
        check_prefix_consistency([n.ledger for n in survivors])
        for node in survivors:
            assert node.blacklist == {2, 3}
        assert all(len(n.ledger) > 100 for n in survivors)

    def test_equivocated_payload_not_double_counted(self):
        """Both copies may commit (digest-closure commit) but they occupy
        one slot — the metrics layer dedups; here we check the ledger
        level: duplicates are adjacent same-slot blocks at most."""
        byz = {3: 2}
        sim = build_sim(byzantine=byz, seed=7)
        sim.run(until=10.0)
        node = honest(sim, byz)[0]
        slots = {}
        for record in node.ledger:
            slots.setdefault((record.round, record.author), []).append(record.digest)
        multi = {s: d for s, d in slots.items() if len(d) > 1}
        # Two committed blocks in a slot are legitimate in exactly two
        # places: the equivocator's PBC slots, and CBC slots where an honest
        # proposer's original + reproposal both delivered (Fig. 10b).
        for (round_, author) in multi:
            from repro.core.lightdag2 import LightDag2Node
            assert author == 3 or LightDag2Node.round_kind(round_) == 2, multi

    def test_determinism_under_attack(self):
        byz = {3: 2}
        a = build_sim(byzantine=byz, seed=13)
        a.run(until=6.0)
        b = build_sim(byzantine=byz, seed=13)
        b.run(until=6.0)
        assert (
            a.nodes[0].ledger.digest_sequence() == b.nodes[0].ledger.digest_sequence()
        )


class TestReproposalDynamics:
    def test_reproposals_follow_equivocation(self):
        byz = {3: 2}
        sim = build_sim(byzantine=byz, seed=7)
        sim.run(until=10.0)
        total = sum(n.reproposals for n in honest(sim, byz))
        assert total >= 1

    def test_second_round_can_exceed_n_blocks(self):
        """§VI-A: the attack entices reproposals, so more than n blocks are
        *generated* in some CBC round (n originals + ≥1 reproposal)."""
        byz = {3: 2}
        sim = build_sim(byzantine=byz, seed=7)
        sim.run(until=10.0)
        nodes = honest(sim, byz)
        generated_by_round = {}
        for node in nodes:
            for block in node.my_blocks.values():
                if LightDag2Node.round_kind(block.round) == LightDag2Node.CBC_E:
                    generated_by_round.setdefault(block.round, set()).add(block.digest)
        overloaded = [
            r for r, blocks in generated_by_round.items() if len(blocks) > len(nodes)
        ]
        assert sum(n.reproposals for n in nodes) >= 1
        assert overloaded  # some CBC round had more blocks than proposers
