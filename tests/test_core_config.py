"""Unit tests for UDRConfig and the analytic core models."""

import ast
import dataclasses
import pathlib

import pytest

from repro.core import (
    AvailabilityModel,
    CapacityModel,
    Characteristic,
    ClientType,
    FrashGraph,
    LocationMode,
    PartitionPolicy,
    Priority,
    ReplicationMode,
    RetryPolicy,
    UDRConfig,
    classify,
)
from repro.core.config import PlacementMode
from repro.core.pipeline import PRIORITY_ORDER, PRIORITY_WEIGHTS
from repro.core.pacelc import classify_both
from repro.sim import units


class TestUDRConfig:
    def test_defaults_are_the_papers_choices(self):
        config = UDRConfig()
        assert config.replication_mode is ReplicationMode.ASYNCHRONOUS
        assert config.partition_policy is PartitionPolicy.PREFER_CONSISTENCY
        assert config.location_mode is LocationMode.PROVISIONED_MAPS
        assert config.fe_reads_from_slave is True

    def test_derived_quantities(self):
        config = UDRConfig(regions=("a", "b"), sites_per_region=2,
                           storage_elements_per_site=3)
        assert config.total_sites == 4
        assert config.total_storage_elements == 12
        assert config.total_subscriber_capacity == 12 * 2_000_000

    def test_read_policy_per_client(self):
        config = UDRConfig()
        assert config.reads_from_slave(ClientType.APPLICATION_FE)
        assert not config.reads_from_slave(ClientType.PROVISIONING)
        master_only = UDRConfig(fe_reads_from_slave=False)
        assert not master_only.reads_from_slave(ClientType.APPLICATION_FE)
        assert not master_only.reads_from_slave(ClientType.PROVISIONING)

    def test_replace_produces_modified_copy(self):
        config = UDRConfig()
        other = config.replace(partition_policy=PartitionPolicy.PREFER_AVAILABILITY)
        assert other.multi_master_enabled()
        assert not config.multi_master_enabled()

    def test_invalid_configurations_rejected(self):
        with pytest.raises(ValueError):
            UDRConfig(regions=())
        with pytest.raises(ValueError):
            UDRConfig(replication_factor=0)
        with pytest.raises(ValueError):
            UDRConfig(replication_factor=100)
        with pytest.raises(ValueError):
            UDRConfig(checkpoint_period=0)
        with pytest.raises(ValueError):
            UDRConfig(storage_elements_per_site=0)

    def test_batch_knob_validation(self):
        with pytest.raises(ValueError):
            UDRConfig(batch_max_size=0)
        with pytest.raises(ValueError):
            UDRConfig(batch_linger_ticks=-1)

    def test_priority_defaults_and_weights(self):
        assert Priority.for_client(ClientType.APPLICATION_FE) is \
            Priority.SIGNALLING
        assert Priority.for_client(ClientType.PROVISIONING) is \
            Priority.PROVISIONING
        assert PRIORITY_ORDER == (Priority.SIGNALLING, Priority.PROVISIONING,
                                  Priority.BULK)
        assert PRIORITY_WEIGHTS == (4, 2, 1), \
            "signalling outweighs provisioning, which outweighs bulk"

    def test_removed_replication_knobs_are_rejected(self):
        removed = [
            # The mux is the only shipping driver with a fixed frame
            # charge: the options that picked or tuned a second mode.
            "replication_mux", "replication_frame_bytes",
            # Set by no caller: each became a constant, a derived value,
            # the only behaviour left, or a per-request choice.
            "ldap_servers_per_cluster", "write_quorum",
            "replication_shipment_max_records", "ps_reads_from_slave",
            "synchronous_commit", "regulatory_pins",
            "location_cache_enabled", "priority_weights", "retry_policy"]
        for knob in removed:
            with pytest.raises(TypeError):
                UDRConfig(**{knob: None})

    def test_every_field_is_set_by_a_caller(self):
        """Every field but the footprint's is set by some program outside
        the tests: a ``UDRConfig(...)`` or ``.replace(...)`` keyword or a
        string key of a dict literal (perfbench's workload configs) in
        ``src/repro`` (the config module itself aside), ``examples``,
        ``scripts`` or ``perfbench``.  A field no caller sets is a knob
        only tests turn, so it goes."""
        footprint = {"regions", "sites_per_region",
                     "subscriber_capacity_per_element"}
        root = pathlib.Path(__file__).resolve().parent.parent
        config_module = root / "src" / "repro" / "core" / "config.py"
        set_by_callers = set()
        for directory in ("src/repro", "examples", "scripts", "perfbench"):
            for path in sorted((root / directory).rglob("*.py")):
                if path == config_module or "tests" in path.parts[
                        len(root.parts):]:
                    continue
                for node in ast.walk(ast.parse(path.read_text())):
                    if isinstance(node, ast.Call):
                        function = node.func
                        name = getattr(function, "id",
                                       getattr(function, "attr", None))
                        if name in ("UDRConfig", "replace"):
                            set_by_callers.update(
                                keyword.arg for keyword in node.keywords
                                if keyword.arg is not None)
                    elif isinstance(node, ast.Dict):
                        set_by_callers.update(
                            key.value for key in node.keys
                            if isinstance(key, ast.Constant)
                            and isinstance(key.value, str))
        unset = {field.name for field in dataclasses.fields(UDRConfig)} \
            - set_by_callers - footprint
        assert not unset, f"fields no caller sets: {sorted(unset)}"

    def test_adaptive_linger_policy_validation(self):
        from repro.core import AdaptiveLingerPolicy
        assert UDRConfig().adaptive_linger is None, \
            "static lingering stays the default"
        policy = AdaptiveLingerPolicy(min_ticks=2, max_ticks=40, alpha=0.5)
        config = UDRConfig(adaptive_linger=policy)
        assert config.adaptive_linger.max_ticks == 40
        with pytest.raises(ValueError):
            AdaptiveLingerPolicy(min_ticks=-1)
        with pytest.raises(ValueError):
            AdaptiveLingerPolicy(min_ticks=10, max_ticks=5)
        with pytest.raises(ValueError):
            AdaptiveLingerPolicy(alpha=0.0)
        with pytest.raises(ValueError):
            AdaptiveLingerPolicy(alpha=1.5)
        with pytest.raises(ValueError):
            AdaptiveLingerPolicy(fill_threshold=0.0)

    def test_retry_policy_validation_and_backoff(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(retry_codes=("BUSY", "UNAVALIABLE"))  # typo caught
        policy = RetryPolicy(max_retries=3, backoff_tick=0.01,
                             backoff_multiplier=2.0)
        assert policy.backoff(1) == pytest.approx(0.01)
        assert policy.backoff(3) == pytest.approx(0.04)
        from repro.ldap import ResultCode
        assert policy.retries(ResultCode.BUSY)
        assert policy.retries(ResultCode.UNAVAILABLE)
        assert not policy.retries(ResultCode.NO_SUCH_OBJECT)


class TestCapacityModel:
    def test_paper_headline_numbers(self):
        report = CapacityModel().report()
        assert report.subscribers_per_element == 2_000_000
        assert report.subscribers_per_cluster == 32_000_000
        assert report.total_subscribers == 512_000_000
        assert report.ops_per_cluster == 32_000_000
        assert report.total_ops_per_second == 512_000_000 // 2 * 32  # 8.192e9
        assert report.ops_per_subscriber_per_second == pytest.approx(16.0)

    def test_comparison_with_paper_within_factor(self):
        comparison = CapacityModel().compare_with_paper()
        for name, (paper, model, ratio) in comparison.items():
            assert 0.8 <= ratio <= 1.25, \
                f"{name}: model {model} vs paper {paper}"

    def test_partition_size_about_200_gb(self):
        partition_bytes = CapacityModel().partition_bytes()
        assert 150 * units.GIB < partition_bytes < 250 * units.GIB

    def test_procedure_headroom(self):
        model = CapacityModel()
        classic = model.procedure_headroom(ops_per_procedure=2)
        ims = model.procedure_headroom(ops_per_procedure=6)
        assert classic > ims
        assert classic > 5, "plenty of headroom for classic procedures"

    def test_clusters_needed(self):
        model = CapacityModel()
        assert model.clusters_needed_for(0) == 0
        assert model.clusters_needed_for(1) == 1
        assert model.clusters_needed_for(32_000_000) == 1
        assert model.clusters_needed_for(32_000_001) == 2

    def test_subscribers_supported_at(self):
        model = CapacityModel()
        assert model.subscribers_supported_at(1_000_000, 10) == 100_000

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CapacityModel(subscribers_per_element=0)
        with pytest.raises(ValueError):
            CapacityModel().procedure_headroom(0)
        with pytest.raises(ValueError):
            CapacityModel().subscribers_supported_at(1, 0)
        with pytest.raises(ValueError):
            CapacityModel().clusters_needed_for(-1)


class TestFrashGraph:
    def test_paper_links_present(self):
        graph = FrashGraph()
        names = {link.name for link in graph.links}
        assert {"F-R", "F-A", "R-A", "H-R", "H-F"} <= names
        assert graph.link("H-F").weak
        assert graph.link("R-A").in_cap_scope
        assert graph.cap_scope_links() == [graph.link("R-A")]

    def test_unknown_link_rejected(self):
        with pytest.raises(KeyError):
            FrashGraph().link("X-Y")

    def test_default_config_positions_favour_fast(self):
        """Figure 6: the baseline design sits towards F on the F-A link."""
        graph = FrashGraph()
        fe = graph.evaluate(UDRConfig(), ClientType.APPLICATION_FE)
        assert fe["F-A"].position < 0.5
        assert fe["F-A"].favours() is Characteristic.FAST

    def test_ps_less_fast_than_fe_on_f_a_link(self):
        """Red (PS) dots sit closer to ACID than blue (FE) dots."""
        graph = FrashGraph()
        config = UDRConfig()
        fe = graph.evaluate(config, ClientType.APPLICATION_FE)
        ps = graph.evaluate(config, ClientType.PROVISIONING)
        assert ps["F-A"].position > fe["F-A"].position

    def test_default_favours_consistency_on_partition(self):
        graph = FrashGraph()
        positions = graph.evaluate(UDRConfig(), ClientType.PROVISIONING)
        assert positions["R-A"].position > 0.5, \
            "master-only writes push the R-A point towards ACID/consistency"

    def test_multimaster_moves_r_a_towards_resilience(self):
        graph = FrashGraph()
        base = graph.evaluate(UDRConfig(), ClientType.PROVISIONING)
        multi = graph.evaluate(
            UDRConfig(partition_policy=PartitionPolicy.PREFER_AVAILABILITY),
            ClientType.PROVISIONING)
        assert multi["R-A"].position < base["R-A"].position

    def test_quorum_replication_moves_f_a_towards_acid(self):
        graph = FrashGraph()
        async_pos = graph.evaluate(UDRConfig(), ClientType.PROVISIONING)
        quorum_pos = graph.evaluate(
            UDRConfig(replication_mode=ReplicationMode.QUORUM),
            ClientType.PROVISIONING)
        assert quorum_pos["F-A"].position > async_pos["F-A"].position

    def test_random_placement_hurts_h_r(self):
        graph = FrashGraph()
        home = graph.evaluate(UDRConfig(), ClientType.APPLICATION_FE)
        random_placement = graph.evaluate(
            UDRConfig(placement=PlacementMode.RANDOM),
            ClientType.APPLICATION_FE)
        assert random_placement["H-R"].position < home["H-R"].position

    def test_decisions_carry_rationale(self):
        decisions = FrashGraph().decisions_for(UDRConfig())
        assert all(decision.rationale for decision in decisions)
        assert any("READ_COMMITTED" in decision.name for decision in decisions)


class TestPacelc:
    def test_paper_classification_of_default_design(self):
        """Section 3.6: PA/EL for FE transactions, PC/EC for PS transactions."""
        verdicts = classify_both(UDRConfig())
        assert verdicts[ClientType.APPLICATION_FE].label == "PA/EL"
        assert verdicts[ClientType.PROVISIONING].label == "PC/EC"

    def test_multimaster_makes_provisioning_available_on_partition(self):
        config = UDRConfig(
            partition_policy=PartitionPolicy.PREFER_AVAILABILITY)
        verdict = classify(config, ClientType.PROVISIONING)
        assert verdict.on_partition == "A"

    def test_quorum_with_slave_reads_disabled_is_ec(self):
        config = UDRConfig(replication_mode=ReplicationMode.QUORUM,
                           fe_reads_from_slave=False)
        verdict = classify(config, ClientType.APPLICATION_FE)
        assert verdict.else_case == "C"

    def test_rationales_populated(self):
        verdict = classify(UDRConfig(), ClientType.PROVISIONING)
        assert verdict.rationale_partition
        assert verdict.rationale_else
        assert "PC/EC" in str(verdict) or verdict.label in str(verdict)


class TestAvailabilityModel:
    def test_replicated_design_meets_five_nines(self):
        model = AvailabilityModel(replication_factor=2,
                                  failover_time=10 * units.SECOND,
                                  partition_rate_per_year=2,
                                  partition_duration=60.0,
                                  write_share=0.1, remote_share=0.05)
        assert model.meets_five_nines()

    def test_unreplicated_design_fails_five_nines(self):
        model = AvailabilityModel(replication_factor=1)
        assert not model.meets_five_nines()
        assert model.availability() < units.FIVE_NINES

    def test_more_replicas_more_availability(self):
        one = AvailabilityModel(replication_factor=1).availability()
        two = AvailabilityModel(replication_factor=2).availability()
        three = AvailabilityModel(replication_factor=3).availability()
        assert one < two <= three

    def test_partitions_consume_budget(self):
        quiet = AvailabilityModel(partition_rate_per_year=0)
        noisy = AvailabilityModel(partition_rate_per_year=12,
                                  partition_duration=30 * units.MINUTE)
        assert noisy.downtime_per_year() > quiet.downtime_per_year()

    def test_budget_breakdown_sums(self):
        model = AvailabilityModel()
        breakdown = model.budget_breakdown()
        assert breakdown["element_failures"] + breakdown["network_partitions"] \
            == pytest.approx(model.downtime_per_year())

    def test_max_failover_time_budget(self):
        model = AvailabilityModel(partition_rate_per_year=0)
        limit = model.max_failover_time_for_five_nines()
        assert limit > 0
        tight = AvailabilityModel(partition_rate_per_year=0,
                                  failover_time=limit * 0.9)
        assert tight.meets_five_nines()

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            AvailabilityModel(element_mtbf=0)
        with pytest.raises(ValueError):
            AvailabilityModel(replication_factor=0)
        with pytest.raises(ValueError):
            AvailabilityModel(write_share=2.0)
