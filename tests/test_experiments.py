"""Tests for the experiment harnesses: each reproduces its paper claim.

``tests/test_experiment_bars.py`` holds each full run to its acceptance bar;
these tests assert the *direction* of every result (who wins, what fails,
what grows), often at smaller sizes, so a regression in any substrate shows
up here as a broken paper claim.
"""

import pytest

from repro.core import CapacityModel, PartitionPolicy
from repro.experiments import (
    e01_capacity,
    e02_frash,
    e03_partition,
    e04_slave_reads,
    e05_durability,
    e06_checkpoint,
    e07_scaleout,
    e08_placement,
    e09_multimaster,
    e10_location_cost,
    e11_availability,
    e12_pacelc,
    e13_backlog,
    e14_latency,
    e15_batch_throughput,
    e20_search_scaling,
)
from repro.experiments.runner import ExperimentResult


class TestResultContainer:
    def test_to_table_and_markdown(self):
        result = ExperimentResult(
            experiment_id="EXX", title="demo", paper_claim="claim",
            headers=["a", "b"], rows=[[1, 2]], finding="measured")
        table = result.to_table()
        assert "EXX" in table and "claim" in table and "measured" in table
        markdown = result.to_markdown()
        assert markdown.startswith("### EXX")
        assert result.row_dicts() == [{"a": 1, "b": 2}]


class TestAnalyticExperiments:
    def test_e01_capacity_matches_paper(self):
        result = e01_capacity.run()
        assert result.notes["within_tolerance"]
        figures = {row[0]: row for row in result.rows}
        assert figures["total_subscribers"][1] == 512_000_000

    def test_e01_with_custom_model(self):
        result = e01_capacity.run(CapacityModel(subscribers_per_element=4_000_000))
        figures = {row[0]: row for row in result.rows}
        assert figures["total_subscribers"][2] == 1_024_000_000

    def test_e02_frash_directions(self):
        result = e02_frash.run()
        assert result.notes["fe_favours_fast"]
        assert result.notes["ps_more_acid_than_fe"]
        assert result.notes["pc_on_partition"]
        assert len(result.rows) == 8, "all figure-5 links reported"

    def test_e06_checkpoint_sweep(self):
        result = e06_checkpoint.run()
        assert result.notes["sync_commit_slowdown"] > 10
        penalties = [row[1] for row in result.rows[:-1]]
        assert penalties == sorted(penalties, reverse=True), \
            "shorter dump periods cost more throughput"

    def test_e10_location_cost_growth(self):
        result = e10_location_cost.run(population_sizes=(1_000, 100_000),
                                       lookups_per_size=50)
        assert result.notes["logarithmic_growth"]
        assert result.notes["weak_link"]

    def test_e11_availability_needs_replication(self):
        result = e11_availability.run(simulate=False)
        assert result.notes["replication_required"]

    def test_e12_pacelc_matches_paper(self):
        result = e12_pacelc.run()
        assert result.notes["matches_paper"]
        rows = {row[0]: row for row in result.rows}
        assert rows["paper default"][1] == "PA/EL"
        assert rows["paper default"][2] == "PC/EC"
        assert rows["multi-master on partition"][2].startswith("PA")


class TestSimulationExperiments:
    def test_e03_partition_dichotomy(self):
        result = e03_partition.run(subscribers=30, operations=16, seed=3)
        assert result.notes["fe_keeps_working"]
        assert result.notes["ps_mostly_fails"]

    def test_e03_multimaster_keeps_provisioning_alive(self):
        result = e03_partition.run(
            partition_policy=PartitionPolicy.PREFER_AVAILABILITY,
            subscribers=30, operations=16, seed=3)
        assert result.notes["ps_partition_availability"] > 0.5

    def test_e04_slave_reads_faster_but_stale(self):
        result = e04_slave_reads.run(subscribers=20, operations=20, seed=5)
        assert result.notes["latency_win_factor"] > 1.5
        assert result.notes["stale_fraction_master_only"] == 0.0
        assert result.notes["stale_fraction_with_slaves"] >= 0.0

    def test_e05_durability_ordering(self):
        result = e05_durability.run(writes=12, seed=5)
        assert result.notes["async_lost"] > 0
        assert result.notes["dual_lost"] == 0
        assert result.notes["quorum_lost"] == 0
        assert result.notes["dual_latency_penalty"] > 1.0

    def test_e07_scaleout_only_provisioned_blocks(self):
        result = e07_scaleout.run(subscribers=30, seed=5)
        assert result.notes["provisioned_blocks_poa"]
        assert result.notes["alternatives_do_not_block"]
        assert result.notes["projected_sync_seconds"] > 1.0

    def test_e08_placement_backbone_fraction(self):
        result = e08_placement.run(subscribers=30, operations=30, seed=5)
        assert result.notes["backbone_fraction_random"] > \
            result.notes["backbone_fraction_home"]

    def test_e09_multimaster_divergence(self):
        result = e09_multimaster.run(seed=5)
        assert result.notes["writes_available_during_partition"]
        assert result.notes["conflicts_grow_with_divergence"]

    def test_e13_backlog_and_glitch(self):
        result = e13_backlog.run(operations=20, batch_size=20, seed=5)
        assert result.notes["clean_batch_succeeds"]
        assert result.notes["glitch_causes_manual_interventions"]
        assert result.notes["backlog_grows_under_latency"]

    def test_e14_latency_budget(self):
        result = e14_latency.run(subscribers=20, operations=30, seed=5)
        assert result.notes["processing_within_target"]
        assert result.notes["remote_master_mean_ms"] > \
            result.notes["local_mean_ms"]

    def test_e15_batch_throughput_speedup(self):
        result = e15_batch_throughput.run(batch_sizes=(1, 16), operations=64,
                                          seed=5)
        assert result.notes["speedup_at_largest_batch"] >= 1.3
        assert result.notes["codes_identical_across_batch_sizes"]
        assert result.notes["all_succeeded"]

    def test_e20_search_scaling_directions(self):
        result = e20_search_scaling.run(sizes=(1_000, 5_000), subscribers=30,
                                        seed=5)
        # Deterministic mode: the cost-model prune ratio, not wall clock.
        assert result.notes["speedup_1e5"] >= 10.0
        assert result.notes["part_a_sets_equal"]
        assert result.notes["matches_bruteforce"]
        assert result.notes["paged_equals_unpaged"]
        assert result.notes["pages"] > 1
        assert result.notes["counter_indexed"] > 0
        assert result.notes["counter_scan"] > 0
        assert result.notes["counter_relabels"] > 0
