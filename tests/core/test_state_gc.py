"""Long-run state bounds and stall-recovery regressions.

Two bug families this file pins down:

* **State leaks** — per-wave and per-round bookkeeping
  (``voted_refs``, ``my_blocks``, ``revealed_leaders``, coin-share
  tracking) must be pruned alongside the store when
  ``gc_depth`` is set, or a long-lived replica grows without bound even
  though its DAG is garbage-collected.

* **Stall-clock arming** — the stall rebroadcast must not treat
  simulation start as "the last delivery": it arms at the first own
  proposal, uses a startup grace period before anything was delivered,
  and fires at most once per window.
"""

import pytest

from repro.adversary.schedule import FaultSchedule, ScheduleAdversary
from repro.config import ProtocolConfig, SystemConfig
from repro.core.base import STALL_AFTER, STALL_STARTUP_GRACE
from repro.core.lightdag1 import LightDag1Node
from repro.core.lightdag2 import LightDag2Node
from repro.crypto.keys import TrustedDealer
from repro.dag.ledger import check_prefix_consistency
from repro.net.latency import FixedLatency
from repro.net.simulator import Simulation
from repro.obs import EventJournal, MetricsRegistry, Observability


def build_sim(
    node_cls=LightDag2Node,
    gc_depth=10,
    n=4,
    seed=1,
    latency=None,
    adversary=None,
    obs=None,
):
    system = SystemConfig(n=n, crypto="hmac", seed=seed)
    protocol = ProtocolConfig(batch_size=5, gc_depth=gc_depth)
    chains = TrustedDealer(
        system, coin_threshold=protocol.resolve_coin_threshold(system)
    ).deal()
    kwargs = {} if obs is None else {"obs": obs}
    return Simulation(
        [
            (lambda net, i=i: node_cls(net, system, protocol, chains[i], **kwargs))
            for i in range(n)
        ],
        latency_model=latency or FixedLatency(0.01),
        adversary=adversary,
        seed=seed,
        obs=obs if obs is not None else None,
    )


class TestBoundedGrowth:
    def test_lightdag2_bookkeeping_stays_within_gc_window(self):
        """Acceptance criterion: over a 60-wave run with gc_depth=10, every
        piece of LightDAG2/base bookkeeping stays O(window), not O(run)."""
        sim = build_sim(node_cls=LightDag2Node, gc_depth=10)
        sim.run(
            until=120.0,
            stop_when=lambda s: all(n.current_round >= 181 for n in s.nodes),
        )
        node = sim.nodes[0]
        waves_done = node.commit.last_settled_wave
        assert waves_done >= 60, f"only reached wave {waves_done}"
        retained_rounds = (
            node.current_round - node.store.lowest_retained_round() + 1
        )
        assert retained_rounds < 40  # the store window itself is bounded

        # Round-keyed LightDAG2 state: a fixed multiple of the window.
        bound = 4 * retained_rounds
        assert len(node.voted_refs) <= bound
        assert len(node.my_blocks) <= retained_rounds + 2
        assert len(node._repropose_counter) <= retained_rounds
        assert len(node._pending_repropose) <= retained_rounds

        # Wave-keyed base-engine state: bounded by the unsettled frontier.
        wave_bound = retained_rounds  # ≥ rounds/3 waves, generous
        assert len(node.revealed_leaders) <= wave_bound
        assert len(node.commit.committed_leader_waves) <= wave_bound
        assert len(node._sent_share_waves) <= wave_bound
        assert len(node._coin_requested) <= wave_bound
        assert len(node.commit._deferred) <= wave_bound

        check_prefix_consistency([n.ledger for n in sim.nodes])

    def test_no_gc_keeps_history(self):
        """Without gc_depth nothing is pruned — the leak fix must not
        eagerly drop state a non-GC run still needs."""
        sim = build_sim(node_cls=LightDag2Node, gc_depth=None)
        sim.run(until=5.0)
        node = sim.nodes[0]
        assert node.store.lowest_retained_round() == 1
        assert len(node.my_blocks) >= node.current_round - 2

    def test_straggler_can_fetch_pruned_wave_shares(self):
        """`_sent_share_waves` pruning must not break coin-share serving:
        the `_max_share_wave` guard still answers requests for waves whose
        sent-set entry was garbage-collected."""
        from repro.broadcast.messages import CoinShareMsg, CoinShareRequest

        sim = build_sim(node_cls=LightDag2Node, gc_depth=10)
        sim.run(until=8.0)
        node = sim.nodes[0]
        pruned_wave = 1
        assert pruned_wave not in node._sent_share_waves  # GC removed it
        assert node._max_share_wave > pruned_wave

        sent = []
        node.net.send = lambda dst, msg: sent.append((dst, msg))
        node.on_message(1, CoinShareRequest(pruned_wave))
        assert len(sent) == 1
        dst, msg = sent[0]
        assert dst == 1 and isinstance(msg, CoinShareMsg)

        # Future waves stay unserved (no coin foreknowledge).
        sent.clear()
        node.on_message(1, CoinShareRequest(node._max_share_wave + 5))
        assert sent == []


class TestStallClock:
    def run_with_journal(self, latency, duration, adversary=None, n=4):
        obs = Observability(MetricsRegistry(), EventJournal())
        sim = build_sim(
            node_cls=LightDag2Node, gc_depth=None, latency=latency,
            adversary=adversary, obs=obs, n=n,
        )
        sim.run(until=duration)
        return sim, obs

    def rebroadcasts(self, obs):
        return [e for e in obs.journal if e.type == "stall.rebroadcast"]

    def test_no_storm_at_startup(self):
        """Regression: slow-but-live first deliveries must not trigger
        rebroadcasts — sim start is not a delivery, and pre-delivery
        stalls get the startup grace period."""
        sim, obs = self.run_with_journal(FixedLatency(0.45), duration=1.0)
        assert self.rebroadcasts(obs) == []

    def test_isolated_replica_rebroadcasts_once_per_window(self):
        """An isolated replica (it still self-delivers its own block, so
        the startup grace does not apply) rebroadcasts after the stall
        window — and then at most once per window, not once per tick."""
        phases = FaultSchedule.from_spec("partition@0+30:group=0").phases
        adversary = ScheduleAdversary(phases, seed=0)
        duration = 12.0
        sim, obs = self.run_with_journal(
            FixedLatency(0.05), duration=duration, adversary=adversary
        )
        mine = [e for e in self.rebroadcasts(obs) if e.node == 0]
        assert mine, "an isolated proposer must eventually rebroadcast"
        assert all(e.t > STALL_AFTER for e in mine)
        # Once per window, not once per sync tick.
        assert len(mine) <= duration / STALL_AFTER + 1
        for first, second in zip(mine, mine[1:]):
            assert second.t - first.t >= STALL_AFTER * 0.99

    def test_startup_grace_before_any_delivery(self):
        """LightDAG1's CBC needs an echo quorum, so an isolated replica
        never delivers anything — that pre-delivery stall gets the longer
        startup grace before the first rebroadcast."""
        phases = FaultSchedule.from_spec("partition@0+30:group=0").phases
        adversary = ScheduleAdversary(phases, seed=0)
        obs = Observability(MetricsRegistry(), EventJournal())
        sim = build_sim(
            node_cls=LightDag1Node, gc_depth=None, latency=FixedLatency(0.05),
            adversary=adversary, obs=obs,
        )
        sim.run(until=10.0)
        assert len(sim.nodes[0].ledger) == 0  # truly isolated
        mine = [e for e in self.rebroadcasts(obs) if e.node == 0]
        assert mine, "the isolated proposer must still rebroadcast"
        assert mine[0].t > STALL_STARTUP_GRACE

    def test_steady_state_quiet(self):
        """A healthy fast run never stalls."""
        sim, obs = self.run_with_journal(FixedLatency(0.01), duration=5.0)
        assert self.rebroadcasts(obs) == []
        assert all(len(n.ledger) > 0 for n in sim.nodes)
