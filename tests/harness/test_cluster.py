"""The cluster recipe: one place deals keys, one place names attacks.

Three kinds of check: structural (an AST walk over ``src/repro`` — nobody
else may deal keys or subclass the adversary seam), tabular (the attack
table, ``WORST_ATTACK``, the CLI's choices and the protocol registry must
agree, and every entry must be a valid schedule at every size), and
behavioural (one ``ExperimentConfig`` assembles the same cluster for the
simulator and for the asyncio TCP runtime).
"""

import argparse
import ast
from pathlib import Path

import pytest

import repro
from repro import cli
from repro.adversary.schedule import ATTACKS, FaultSchedule
from repro.config import ExperimentConfig, ProtocolConfig, SystemConfig
from repro.core.lightdag1 import LightDag1Node
from repro.errors import ConfigError
from repro.harness import cluster as recipe
from repro.harness import runner
from repro.harness.cluster import WORST_ATTACK, fault_schedule
from repro.harness.runner import PROTOCOL_REGISTRY
from repro.net import tcp as tcp_runtime

from ..conftest import count_calls

SRC = Path(repro.__file__).parent

#: Attacks that spend the fault budget (the rest only delay messages).
CORRUPTING = ("crash", "equivocate", "withhold", "withhold-garbage")


def schedule_of(name, n, protocol="lightdag2"):
    """The schedule an adversary name resolves to in an n-replica system."""
    return fault_schedule(ExperimentConfig(
        system=SystemConfig(n=n, crypto="hmac", seed=3),
        protocol_name=protocol, adversary_name=name,
    ))


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rpartition(".")[2]


class TestOnePlace:
    def test_only_the_recipe_deals_keys(self):
        dealers = {
            name for name, tree in _modules() if "TrustedDealer" in _names(tree)
        }
        outside_crypto = {n for n in dealers if not n.startswith("crypto/")}
        assert outside_crypto == {"harness/cluster.py"}

    def test_only_the_schedule_driver_subclasses_adversary(self):
        subclasses = {
            (name, node.name)
            for name, tree in _modules()
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for base in node.bases
            if getattr(base, "id", getattr(base, "attr", None)) == "Adversary"
        }
        assert subclasses == {("adversary/schedule.py", "ScheduleAdversary")}

    def test_adversary_package_is_five_files(self):
        assert sorted(p.name for p in (SRC / "adversary").glob("*.py")) == [
            "__init__.py", "base.py", "byzantine.py", "schedule.py", "withhold.py",
        ]


class TestAttackTable:
    def test_tables_registry_and_cli_agree(self):
        assert set(WORST_ATTACK) == set(PROTOCOL_REGISTRY)
        assert set(WORST_ATTACK.values()) <= set(ATTACKS)
        assert cli.CHECK_LEVELS is recipe.CHECK_LEVELS
        assert cli.ADVERSARY_CHOICES == [*ATTACKS, "worst"]
        for choice in cli.ADVERSARY_CHOICES:
            assert cli._adversary(choice) == choice
        with pytest.raises(argparse.ArgumentTypeError):
            cli._adversary("gremlins")

    @pytest.mark.parametrize("n", [4, 7, 16, 31])
    @pytest.mark.parametrize("name", sorted(ATTACKS))
    def test_every_attack_is_a_valid_schedule(self, name, n):
        system = SystemConfig(n=n, crypto="hmac", seed=3)
        spec = ATTACKS[name](system)
        schedule = FaultSchedule.from_spec(spec)
        schedule.validate(system, "lightdag2")
        assert schedule.to_spec() == spec
        faulty = schedule.faulty_replicas()
        assert len(faulty) == (system.f if name in CORRUPTING else 0)
        assert schedule_of(name, n) == schedule

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(ATTACKS))
    def test_no_fault_budget_no_corruption(self, name, n):
        schedule = schedule_of(name, n)
        assert schedule.faulty_replicas() == ()
        if name in CORRUPTING:
            assert schedule == FaultSchedule()

    @pytest.mark.parametrize("protocol", sorted(PROTOCOL_REGISTRY))
    def test_worst_is_a_lookup_into_the_table(self, protocol):
        worst = schedule_of("worst", 7, protocol)
        assert worst.to_spec() == ATTACKS[WORST_ATTACK[protocol]](SystemConfig(n=7))

    def test_a_name_and_its_spec_are_the_same_adversary(self):
        spec = ATTACKS["crash"](SystemConfig(n=7))
        assert schedule_of("schedule:" + spec, 7, "tusk") == (
            schedule_of("crash", 7, "tusk")
        )

    def test_unknown_names_and_misplaced_attacks_are_refused(self):
        with pytest.raises(ConfigError, match="unknown adversary"):
            schedule_of("gremlins", 4, "tusk")
        with pytest.raises(ConfigError, match="lightdag2"):
            schedule_of("equivocate", 4, "tusk")


def _config(**kwargs):
    kwargs.setdefault("adversary_name", "withhold")
    return ExperimentConfig(
        system=SystemConfig(n=4, crypto="hmac", seed=2),
        protocol=ProtocolConfig(batch_size=5, coin_threshold="f+1"),
        protocol_name="lightdag1",
        duration=1.5,
        warmup=0.5,
        latency_model="lan",
        seed=2,
        **kwargs,
    )


def _shape(nodes):
    """What assembly decides about each node, runtime aside."""
    return [
        (
            type(node).__name__,
            node.coin.threshold,
            type(getattr(node.payload_source, "__self__", None)).__name__,
            node.on_commit is not None,
            node.on_deliver_hook is not None,
        )
        for node in nodes
    ]


class TestSameClusterOnEveryRuntime:
    @pytest.mark.parametrize("level", ["prefix", "full"])
    def test_simulator_and_asyncio_assemble_alike(self, monkeypatch, level):
        """The simulator and the asyncio TCP runtime get the same cluster."""
        cfg = _config(check_level=level)
        assemblies, runtimes = [], []
        count_calls(monkeypatch, recipe, "assemble", assemblies)

        def recorded(runtime):
            class Recorded(runtime):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    runtimes.append(self)
            return Recorded

        monkeypatch.setattr(runner, "Simulation", recorded(runner.Simulation))
        monkeypatch.setattr(tcp_runtime, "TcpCluster", recorded(tcp_runtime.TcpCluster))
        runner.run_experiment(cfg)
        runner.run_async_experiment(cfg)

        (sim, tcp) = runtimes
        assert _shape(sim.nodes) == _shape(tcp.nodes)
        # f+1 = 2 is not the dealer's default threshold (2f+1 = 3).
        assert sim.nodes[0].coin.threshold == 2
        assert type(sim.nodes[3]).__name__ == "WithholdingLightDag1Node"
        assert isinstance(sim.nodes[3], LightDag1Node)
        # Both runtimes went through the same call with the same arguments.
        (for_sim, for_tcp) = assemblies
        assert for_sim[:3] == for_tcp[:3] == (
            cfg.system, cfg.protocol, LightDag1Node
        )
        monitored = [n.on_deliver_hook is not None for n in sim.nodes]
        assert monitored == [level == "full"] * 3 + [False]

    def test_unknown_check_level_is_refused(self):
        with pytest.raises(ConfigError, match="check level"):
            recipe.assemble(
                SystemConfig(n=4), ProtocolConfig(), LightDag1Node,
                check_level="paranoid",
            )

    def test_check_skips_byzantine_and_crashed_replicas(self):
        cfg = _config(adversary_name="schedule:withhold@0+0:replicas=3")
        assembly, _ = recipe.assemble_experiment(cfg, LightDag1Node)
        sim = runner.Simulation(assembly.factories, seed=2)
        sim.run(until=1.0)
        honest = assembly.check(sim.nodes, crashed={0})
        assert [node.node_id for node in honest] == [1, 2]
