"""Tests for repro.analysis: repetition stats, export, DAG visualization."""

import json

import pytest

from repro.analysis.dagviz import dag_to_ascii, dag_to_dot
from repro.analysis.obs_export import write_run_dir
from repro.analysis.stats import Aggregate, aggregate_results, repeat_experiment
from repro.config import ExperimentConfig, ProtocolConfig, SystemConfig
from repro.dag.store import DagStore


def small_config(**kw):
    kw.setdefault("duration", 4.0)
    kw.setdefault("warmup", 1.0)
    return ExperimentConfig(
        system=SystemConfig(n=4, crypto="hmac", seed=1),
        protocol=ProtocolConfig(batch_size=20),
        protocol_name="lightdag2",
        **kw,
    )


class TestAggregate:
    def test_single_sample(self):
        agg = Aggregate.of([5.0])
        assert agg.mean == 5.0 and agg.stdev == 0.0 and agg.ci95_half_width == 0.0

    def test_known_values(self):
        agg = Aggregate.of([1.0, 2.0, 3.0])
        assert agg.mean == pytest.approx(2.0)
        assert agg.stdev == pytest.approx(1.0)
        assert agg.ci95_half_width == pytest.approx(1.96 / 3**0.5)

    def test_empty_is_nan_not_crash(self):
        import math

        agg = Aggregate.of([])
        assert math.isnan(agg.mean)
        assert math.isnan(agg.stdev)
        assert math.isnan(agg.ci95_half_width)
        assert agg.samples == ()
        assert math.isnan(agg.quantile(0.5))

    def test_quantile_and_percentile_properties(self):
        agg = Aggregate.of([3.0, 1.0, 2.0])
        assert agg.quantile(0.5) == 2.0
        assert agg.p50 == 2.0
        assert agg.p95 == pytest.approx(2.9)

    def test_percentile_reexported_from_workload(self):
        # Back-compat: the old import site must keep working.
        from repro.analysis.stats import percentile
        from repro.workload.metrics import percentile as reexported

        assert reexported is percentile


class TestRepeatExperiment:
    def test_aggregates_over_seeds(self):
        repeated = repeat_experiment(small_config(), repeats=3)
        assert repeated.repeats == 3
        assert len(repeated.runs) == 3
        assert repeated.throughput.mean > 0
        # Distinct seeds must actually produce distinct runs.
        assert len(set(repeated.throughput.samples)) > 1

    def test_reproducible(self):
        a = repeat_experiment(small_config(), repeats=2)
        b = repeat_experiment(small_config(), repeats=2)
        assert a.throughput.samples == b.throughput.samples

    def test_row_shape(self):
        row = repeat_experiment(small_config(), repeats=2).row()
        assert row["repeats"] == 2
        assert "tps_ci95" in row and "latency_ci95_s" in row

    def test_invalid_repeats(self):
        with pytest.raises(ValueError):
            repeat_experiment(small_config(), repeats=0)

    def test_jobs_equivalence(self):
        a = repeat_experiment(small_config(), repeats=2, jobs=1)
        b = repeat_experiment(small_config(), repeats=2, jobs=2)
        assert a.throughput.samples == b.throughput.samples
        assert a.latency.samples == b.latency.samples


class TestAggregateResults:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_results([])

    def test_single_run_gets_zero_spread(self):
        repeated = repeat_experiment(small_config(), repeats=1)
        agg = aggregate_results(repeated.runs)
        assert agg.extras["seed_count"] == 1.0
        assert agg.extras["tps_stddev"] == 0.0
        assert agg.throughput_tps == repeated.runs[0].throughput_tps

    def test_mean_and_stddev(self):
        repeated = repeat_experiment(small_config(), repeats=3)
        agg = aggregate_results(repeated.runs)
        tps = [r.throughput_tps for r in repeated.runs]
        assert agg.throughput_tps == pytest.approx(sum(tps) / 3)
        assert agg.extras["tps_stddev"] == pytest.approx(repeated.throughput.stdev)
        assert agg.extras["seed_count"] == 3.0
        assert agg.config == repeated.runs[0].config
        # Counters aggregate to per-run means, not sums.
        assert agg.committed_txs <= max(r.committed_txs for r in repeated.runs)


class TestExport:
    @pytest.fixture(scope="class")
    def results(self):
        from repro.harness.runner import run_experiment

        return [run_experiment(small_config(seed=s)) for s in (1, 2)]

    def test_json_roundtrip(self, results, tmp_path):
        write_run_dir(tmp_path, results[0].config, results, argv=["run"])
        loaded = json.loads((tmp_path / "run.json").read_text())
        assert len(loaded["results"]) == 2
        assert loaded["results"][0]["protocol"] == "lightdag2"
        assert loaded["config"]["system"]["seed"] == results[0].config.seed
        assert "metrics" not in loaded  # no Observability: rows only

    def test_json_string_valid(self, results, tmp_path):
        write_run_dir(tmp_path, results[0].config, results, argv=["run"])
        parsed = json.loads((tmp_path / "run.json").read_text())
        assert all("tps" in row for row in parsed["results"])


class TestDagViz:
    @pytest.fixture
    def populated(self):
        from tests.dag.helpers import grow_chain

        store = DagStore(n=4)
        grow_chain(store, rounds=3, n=4)
        return store

    def test_ascii_grid_shape(self, populated):
        art = dag_to_ascii(populated)
        lines = art.splitlines()
        assert len(lines) == 6  # header + 4 replicas + legend
        assert lines[1].count("o") == 3  # 3 delivered rounds for replica 0

    def test_ascii_marks_committed(self, populated):
        from repro.dag.ledger import Ledger

        ledger = Ledger()
        k = ledger.begin_leader()
        block = populated.block_in_slot(1, 0)
        ledger.append(block, 1.0, block.digest, k)
        art = dag_to_ascii(populated, ledger=ledger)
        assert "#" in art

    def test_ascii_marks_equivocation(self):
        from repro.dag.block import genesis_block, make_block

        store = DagStore(n=4, strict=False)
        parents = [genesis_block(a).digest for a in range(4)]
        store.add(make_block(1, 0, parents))
        store.add(make_block(1, 0, parents, repropose_index=1))
        assert "X" in dag_to_ascii(store)

    def test_dot_is_wellformed(self, populated):
        dot = dag_to_dot(populated)
        assert dot.startswith("digraph dag {") and dot.endswith("}")
        assert "r1_0" in dot and "->" in dot

    def test_dot_caps_blocks(self, populated):
        dot = dag_to_dot(populated, max_blocks=2)
        assert dot.count("[") <= 4  # 1 node-attr line each + header


class TestDagVizFromRealRun:
    def test_visualize_simulation_output(self):
        from repro.core.lightdag1 import LightDag1Node
        from repro.crypto.keys import TrustedDealer
        from repro.net.latency import FixedLatency
        from repro.net.simulator import Simulation

        system = SystemConfig(n=4, crypto="hmac", seed=1)
        protocol = ProtocolConfig(batch_size=5)
        chains = TrustedDealer(system).deal()
        sim = Simulation(
            [
                (lambda net, i=i: LightDag1Node(net, system, protocol, chains[i]))
                for i in range(4)
            ],
            latency_model=FixedLatency(0.05),
            seed=1,
        )
        sim.run(until=2.0)
        node = sim.nodes[0]
        leaders = {
            node.leader_block_of(w).digest
            for w in node.commit.committed_leader_waves
            if node.leader_block_of(w) is not None
        }
        art = dag_to_ascii(node.store, ledger=node.ledger, leaders=leaders,
                           last_round=10)
        assert "L" in art and "#" in art
        dot = dag_to_dot(node.store, ledger=node.ledger, last_round=6)
        assert "fillcolor" in dot
