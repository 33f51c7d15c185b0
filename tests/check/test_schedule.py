"""Fault-schedule grammar, validation, driver, and generator tests."""

import json
import math
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.adversary.schedule import (
    ALL_KINDS,
    FaultPhase,
    FaultSchedule,
    ScheduleAdversary,
    parse_phase,
    random_schedule,
)
from repro.config import SystemConfig
from repro.errors import ConfigError


class _Msg:
    def wire_size(self):
        return 100


class TestGrammar:
    def test_phase_round_trip(self):
        spec = "delay@0.5+2.25:max=0.3,tailp=0.1,taild=1.5"
        phase = parse_phase(spec)
        assert phase.kind == "delay"
        assert phase.start == 0.5
        assert phase.duration == 2.25
        assert phase.param("max") == 0.3
        assert phase.to_spec() == spec

    def test_replica_list_round_trip(self):
        phase = parse_phase("partition@1+2:group=0|3")
        assert phase.replicas() == (0, 3)
        assert phase.to_spec() == "partition@1+2:group=0|3"

    def test_single_replica_as_int(self):
        phase = parse_phase("crash@2+0:victims=3")
        assert phase.replicas() == (3,)

    def test_string_param(self):
        phase = parse_phase("withhold@0+0:replicas=3,mode=garbage")
        assert phase.param("mode") == "garbage"

    def test_schedule_round_trip(self):
        spec = "delay@0+6:max=0.25;crash@2+0:victims=3"
        schedule = FaultSchedule.from_spec(spec)
        assert len(schedule.phases) == 2
        assert schedule.to_spec() == spec

    def test_empty_spec(self):
        assert FaultSchedule.from_spec("").phases == ()

    def test_loss_round_trips(self):
        for spec in ("loss@0+inf:p=0.01,clusters=4", "loss@1.5+2:p=0.25"):
            schedule = FaultSchedule.from_spec(spec)
            assert schedule.to_spec() == spec
            assert FaultSchedule.from_spec(schedule.to_spec()) == schedule
        phase = parse_phase("loss@0+inf:p=0.01,clusters=4")
        assert phase.param("p") == 0.01 and phase.param("clusters") == 4

    def test_whole_run_window_round_trips(self):
        """``+inf`` never closes: parsed, rendered back, active at any time."""
        spec = "delay@0+inf:max=0.2"
        phase = parse_phase(spec)
        assert phase.duration == math.inf and phase.end == math.inf
        assert phase.active(0.0) and phase.active(1e12)
        assert phase.to_spec() == spec
        assert parse_phase("leader-delay@2.5+inf:delay=1").to_spec() == (
            "leader-delay@2.5+inf:delay=1"
        )

    @pytest.mark.parametrize("bad", [
        "crash@nan+0:victims=3",   # never active: nan compares false both ways
        "delay@0+nan:max=0.2",
        "delay@inf+1:max=0.2",     # starts after every run has ended
        "delay@0+-inf:max=0.2",
    ])
    def test_non_finite_window_rejected(self, bad):
        with pytest.raises(ConfigError, match="finite start"):
            parse_phase(bad)

    @pytest.mark.parametrize("bad", [
        "delay",                 # no window
        "delay@x+1",             # non-numeric start
        "warp@0+1",              # unknown kind
        "delay@0+1:max",         # parameter without value
        "delay@-1+1",            # negative start
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ConfigError):
            parse_phase(bad)


# Phases as the parser yields them: times and float parameters on the
# grammar's millisecond grid, a one-replica list as a bare int.
_ms = st.integers(0, 10**6).map(lambda k: k / 1000)
_window = st.one_of(_ms, st.just(math.inf))
_replicas = st.one_of(
    st.integers(0, 63),
    st.lists(st.integers(0, 63), min_size=2, max_size=6, unique=True).map(tuple),
)


def _phase(kind, duration, **params):
    return st.builds(
        lambda start, duration, values: FaultPhase(
            kind, start, duration, tuple(zip(params, values))
        ),
        _ms, duration, st.tuples(*params.values()),
    )


_BY_KIND = {
    "delay": _phase("delay", _window, max=_ms, tailp=_ms, taild=_ms),
    "partition": _phase("partition", _window, group=_replicas),
    "leader-delay": _phase("leader-delay", _window, delay=_ms),
    "loss": _phase("loss", _window, p=_ms, clusters=st.integers(1, 16)),
    "crash": _phase("crash", st.just(0.0), victims=_replicas),
    "withhold": _phase("withhold", st.just(0.0), replicas=_replicas,
                       mode=st.sampled_from(["ignore", "garbage"])),
    "equivocate": _phase("equivocate", st.just(0.0), replicas=_replicas,
                         wave=st.integers(1, 9)),
    "order": _phase("order", st.just(0.0), path=_replicas),
}
_phases = st.one_of(*_BY_KIND.values())


class TestRoundTripProperty:
    def test_strategy_covers_every_kind(self):
        assert sorted(_BY_KIND) == sorted(ALL_KINDS)

    @given(st.lists(_phases, max_size=4))
    def test_any_schedule_round_trips(self, phases):
        schedule = FaultSchedule(tuple(phases))
        assert FaultSchedule.from_spec(schedule.to_spec()) == schedule


class TestValidation:
    def system(self, n=4):
        return SystemConfig(n=n, crypto="hmac", seed=0)

    def test_budget_enforced(self):
        schedule = FaultSchedule.from_spec(
            "crash@0+0:victims=2;withhold@0+0:replicas=3"
        )
        with pytest.raises(ConfigError, match="tolerates only f=1"):
            schedule.validate(self.system(), "lightdag1")

    def test_overlapping_faulty_replicas_count_once(self):
        schedule = FaultSchedule.from_spec(
            "crash@1+0:victims=3;withhold@0+0:replicas=3"
        )
        schedule.validate(self.system(), "lightdag1")

    def test_replica_out_of_range(self):
        schedule = FaultSchedule.from_spec("crash@0+0:victims=9")
        with pytest.raises(ConfigError, match="outside"):
            schedule.validate(self.system(), "lightdag1")

    def test_equivocate_lightdag2_only(self):
        schedule = FaultSchedule.from_spec("equivocate@0+0:replicas=3,wave=1")
        schedule.validate(self.system(), "lightdag2")
        with pytest.raises(ConfigError, match="lightdag2"):
            schedule.validate(self.system(), "tusk")

    def test_partition_group_checked(self):
        schedule = FaultSchedule.from_spec("partition@0+1:group=0|7")
        with pytest.raises(ConfigError):
            schedule.validate(self.system(), "lightdag1")

    @pytest.mark.parametrize("spec", [
        "loss@0+inf:p=0", "loss@0+inf:p=0.5", "loss@1+2:p=0.99,clusters=1",
        "loss@0+inf:p=0.01,clusters=4",
    ])
    def test_loss_accepted(self, spec):
        FaultSchedule.from_spec(spec).validate(self.system(), "lightdag1")

    @pytest.mark.parametrize("spec", [
        "loss@0+inf:p=1", "loss@0+inf:p=-0.1", "loss@0+inf:p=nan",
        "loss@0+inf:p=x",
        "loss@0+inf:clusters=2",  # p is required
        "loss@0+inf:p=0.1,clusters=0", "loss@0+inf:p=0.1,clusters=2.5",
    ])
    def test_loss_probability_and_clusters_checked(self, spec):
        with pytest.raises(ConfigError, match="loss phase needs p in"):
            FaultSchedule.from_spec(spec).validate(self.system(), "lightdag1")


class TestScheduleAdversary:
    def test_partition_drops_only_cross_cut_in_window(self):
        phases = FaultSchedule.from_spec("partition@1+2:group=0|1").phases
        adv = ScheduleAdversary(phases, seed=0)
        assert adv.on_send(0, 2, _Msg(), now=1.5) is None  # crosses the cut
        assert adv.on_send(0, 1, _Msg(), now=1.5) == 0.0   # same side
        assert adv.on_send(0, 2, _Msg(), now=0.5) == 0.0   # before window
        assert adv.on_send(0, 2, _Msg(), now=3.5) == 0.0   # healed
        assert adv.dropped == 1

    def test_delay_only_in_window(self):
        phases = FaultSchedule.from_spec("delay@1+2:max=0.5").phases
        adv = ScheduleAdversary(phases, seed=3)
        assert adv.on_send(0, 1, _Msg(), now=0.5) == 0.0
        inside = adv.on_send(0, 1, _Msg(), now=2.0)
        assert 0.0 <= inside <= 0.5

    def test_active_delays_accumulate(self):
        phases = FaultSchedule.from_spec(
            "delay@0+4:max=0,tailp=1,taild=1;delay@0+4:max=0,tailp=1,taild=2"
        ).phases
        adv = ScheduleAdversary(phases, seed=0)
        assert adv.on_send(0, 1, _Msg(), now=1.0) == pytest.approx(3.0)

    def test_leader_delay_adds_to_random_delays(self):
        """Only a predefined leader's VAL in a leader round waits extra, and
        the extra delay stacks on whatever the delay phases drew."""
        from repro.baselines.bullshark import BullsharkNode
        from repro.broadcast.messages import BlockVal
        from repro.dag.block import genesis_block, make_block
        from repro.harness.cluster import assemble
        from repro.net.simulator import Simulation
        from repro.config import ProtocolConfig

        schedule = FaultSchedule.from_spec(
            "delay@0+inf:max=0,tailp=1,taild=0.25;leader-delay@1+2:delay=1.5"
        )
        system = SystemConfig(n=4, crypto="hmac", seed=5)
        cluster = assemble(system, ProtocolConfig(), BullsharkNode, schedule=schedule)
        sim = Simulation(cluster.factories, adversary=cluster.adversary, seed=5)
        leader = sim.nodes[0].predefined_leader(1)
        parents = [genesis_block(a).digest for a in range(4)]
        val = BlockVal(make_block(1, leader, parents))
        bystander = BlockVal(make_block(1, (leader + 1) % 4, parents))
        adv = cluster.adversary
        assert adv.on_send(leader, 0, val, now=0.5) == 0.25   # before the phase
        assert adv.on_send(leader, 0, val, now=1.5) == 1.75   # inside it
        assert adv.on_send(leader, 0, bystander, now=1.5) == 0.25
        assert adv.on_send(leader, 0, val, now=3.0) == 0.25   # after it

    def test_loss_spares_intra_cluster_copies(self):
        """With ``clusters=K`` a copy is at risk only when its endpoints sit
        in different clusters (replica ``i`` in cluster ``i % K``), and an
        inter-cluster copy is lost at the phase's rate."""
        phases = FaultSchedule.from_spec("loss@0+inf:p=0.3,clusters=4").phases
        adv = ScheduleAdversary(phases, seed=1)
        intra = [(s, d) for s in range(16) for d in range(16)
                 if s != d and s % 4 == d % 4]
        inter = [(s, d) for s in range(16) for d in range(16) if s % 4 != d % 4]
        for _ in range(20):
            assert all(adv.on_send(s, d, _Msg(), now=1.0) == 0.0
                       for s, d in intra)
        assert adv.dropped == 0
        trials = 20 * len(inter)  # 3 840 copies
        lost = sum(
            adv.on_send(s, d, _Msg(), now=1.0) is None
            for _ in range(20) for s, d in inter
        )
        assert lost == adv.dropped
        # binomial(3840, 0.3): sd ≈ 28, so ±5 sd is ±0.037 on the rate.
        assert abs(lost / trials - 0.3) < 0.037

    def test_loss_without_clusters_hits_every_copy_in_window(self):
        phases = FaultSchedule.from_spec("loss@1+2:p=0.5").phases
        adv = ScheduleAdversary(phases, seed=2)
        assert all(adv.on_send(0, 4, _Msg(), now=0.5) == 0.0 for _ in range(50))
        assert all(adv.on_send(0, 4, _Msg(), now=3.0) == 0.0 for _ in range(50))
        lost = sum(adv.on_send(0, 4, _Msg(), now=2.0) is None for _ in range(400))
        assert 150 < lost < 250

    def test_partition_drop_draws_no_loss(self):
        """Partitions are checked first and loss before the delay draws: a
        copy the cut drops consumes no randomness, a lost copy draws no
        delay."""
        phases = FaultSchedule.from_spec(
            "partition@0+1:group=0;loss@0+inf:p=0.5;delay@0+inf:max=0.2"
        ).phases
        adv = ScheduleAdversary(phases, seed=4)
        state = adv.rng.getstate()
        assert adv.on_send(0, 1, _Msg(), now=0.5) is None
        assert adv.rng.getstate() == state
        # After the heal: one loss draw, then (if kept) one delay draw.
        outcomes = [adv.on_send(0, 1, _Msg(), now=2.0) for _ in range(200)]
        replay = ScheduleAdversary(phases, seed=4).rng
        for verdict in outcomes:
            if replay.random() < 0.5:
                assert verdict is None
            else:
                assert verdict == replay.uniform(0.0, 0.2)

    def test_no_message_phases_yields_no_adversary(self):
        schedule = FaultSchedule.from_spec("withhold@0+0:replicas=3")
        assert schedule.adversary(seed=0) is None
        assert FaultSchedule.from_spec("delay@0+1:max=0.1").adversary(0) is not None


class TestGenerator:
    def test_deterministic_in_seed(self):
        system = SystemConfig(n=4, crypto="hmac", seed=0)
        a = random_schedule(7, system, "lightdag2", 6.0)
        b = random_schedule(7, system, "lightdag2", 6.0)
        assert a.to_spec() == b.to_spec()

    def test_different_seeds_differ(self):
        system = SystemConfig(n=4, crypto="hmac", seed=0)
        specs = {random_schedule(s, system, "lightdag1", 6.0).to_spec()
                 for s in range(20)}
        assert len(specs) > 5

    def test_generated_schedules_valid(self):
        for n in (4, 7):
            system = SystemConfig(n=n, crypto="hmac", seed=0)
            for seed in range(30):
                schedule = random_schedule(seed, system, "lightdag2", 6.0)
                schedule.validate(system, "lightdag2")  # must not raise
                assert schedule.phases

    def test_no_equivocation_outside_lightdag2(self):
        system = SystemConfig(n=4, crypto="hmac", seed=0)
        for seed in range(40):
            schedule = random_schedule(seed, system, "tusk", 6.0)
            assert all(p.kind != "equivocate" for p in schedule.phases)

    @pytest.mark.parametrize("protocol", ["lightdag2", "tusk"])
    def test_draws_are_pinned(self, protocol):
        """Twenty seeds per protocol, captured before ``leader-delay`` and
        ``+inf`` joined the grammar: additions to the grammar must not move
        what the fuzzer draws (a new kind enters its ``kinds`` list only in
        a change that means to re-seed every fuzz case)."""
        pins = json.loads(
            Path(__file__).with_name("random_schedule_pins.json").read_text()
        )
        drawn = [
            random_schedule(
                seed, SystemConfig(n=7, crypto="hmac", seed=seed), protocol, 8.0
            ).to_spec()
            for seed in range(20)
        ]
        assert drawn == pins[protocol]

    def test_round_trips_through_spec(self):
        system = SystemConfig(n=7, crypto="hmac", seed=0)
        for seed in range(20):
            schedule = random_schedule(seed, system, "lightdag2", 8.0)
            spec = schedule.to_spec()
            assert FaultSchedule.from_spec(spec).to_spec() == spec
