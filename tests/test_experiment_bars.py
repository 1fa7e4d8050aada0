"""The acceptance bar of every experiment, one table row per harness.

Each row runs one experiment exactly as ``EXPERIMENTS.md`` reports it
(``e20`` drops its 10^6 row to keep the suite's wall-clock budget; its
gate is defined at 10^5 entries) and checks the notes that carry the
paper claim or the acceptance bar of the change that added it.  A bar is
either a note name, which must be truthy, or a ``(note, op, bound)``
triple, where a string bound names another note.

``tests/test_experiments.py`` checks the same harnesses at smaller sizes
and in more detail; this table is the bar each full run must clear.
"""

import importlib.util
import operator
from pathlib import Path

import pytest

from repro.experiments import (
    e01_capacity, e02_frash, e03_partition, e04_slave_reads, e05_durability,
    e06_checkpoint, e07_scaleout, e08_placement, e09_multimaster,
    e10_location_cost, e11_availability, e12_pacelc, e13_backlog, e14_latency,
    e15_batch_throughput, e16_dispatcher_latency, e17_replication_mux,
    e18_session_qos, e19_overload_flood, e20_search_scaling,
    e23_reconciliation, e24_partition_drill,
)

OPS = {">": operator.gt, ">=": operator.ge, "==": operator.eq}

#: (experiment module, ``run()`` keyword arguments, bars)
BARS = [
    (e01_capacity, {}, ["within_tolerance"]),
    (e02_frash, {}, ["fe_favours_fast", "ps_more_acid_than_fe",
                     "pc_on_partition"]),
    (e03_partition, {}, ["fe_keeps_working", "ps_mostly_fails"]),
    (e04_slave_reads, {}, [("latency_win_factor", ">", 1.5),
                           ("stale_fraction_master_only", "==", 0.0)]),
    # Asynchronous replication loses the un-shipped tail on a crash; the
    # synchronous modes lose nothing and pay for it in latency.
    (e05_durability, {}, [("async_lost", ">", 0), ("dual_lost", "==", 0),
                          ("quorum_lost", "==", 0),
                          ("dual_latency_penalty", ">", 1.0)]),
    (e06_checkpoint, {}, [("sync_commit_slowdown", ">", 10)]),
    (e07_scaleout, {}, ["provisioned_blocks_poa",
                        "alternatives_do_not_block"]),
    (e08_placement, {}, [("backbone_fraction_random", ">",
                          "backbone_fraction_home"),
                         ("latency_ratio", ">", 1.0)]),
    (e09_multimaster, {}, ["writes_available_during_partition",
                           "conflicts_grow_with_divergence"]),
    (e10_location_cost, {}, ["logarithmic_growth", "weak_link",
                             "cache_fast_path"]),
    (e11_availability, {}, ["replication_required"]),
    (e12_pacelc, {}, ["matches_paper"]),
    (e13_backlog, {}, ["clean_batch_succeeds",
                       "glitch_causes_manual_interventions",
                       "backlog_grows_under_latency"]),
    (e14_latency, {}, ["processing_within_target",
                       ("remote_master_mean_ms", ">", "local_mean_ms")]),
    # >= 1.3x ops/s at the largest wave size, with result codes identical
    # to unbatched execution.
    (e15_batch_throughput, {}, [
        ("largest_batch_size", "==", 32), "meets_1_3x_speedup",
        ("speedup_at_largest_batch", ">=", 1.3),
        "codes_identical_across_batch_sizes", "all_succeeded"]),
    # Saturated dispatcher throughput within 10% of an explicit batch of
    # the same wave size, with result codes identical to sequential
    # execution across the whole sweep.
    (e16_dispatcher_latency, {}, [
        "within_10pct_of_explicit",
        ("dispatcher_vs_explicit_ratio", ">=", 0.9),
        "codes_match_sequential", "linger_helps_at_saturation"]),
    # Against E17's recorded per-channel polling reference, the live mux
    # needs >= 5x fewer simulator wakeups and network transfers at
    # equal-or-better replica freshness with the same records applied;
    # adaptive lingering matches the best static budget at every e16 rate;
    # the live E04/E05 counts equal the recorded polling ones.
    (e17_replication_mux, {}, [
        ("wakeup_reduction", ">=", 5.0), ("transfer_reduction", ">=", 5.0),
        "records_applied_equal", "freshness_preserved",
        "adaptive_within_5pct", "e04_semantics_unchanged",
        "e05_semantics_unchanged"]),
    # Signalling p99 under a provisioning flood improves >= 2x with
    # deadline + priority QoS; the no-QoS session run matches the legacy
    # path's codes and p99; signalling never fails.
    (e18_session_qos, {}, [
        "p99_improved_2x", ("signalling_p99_improvement", ">=", 2.0),
        "no_qos_codes_match_legacy", "no_qos_p99_matches_legacy",
        "signalling_all_ok"]),
    # At a 2x-capacity flood the armored arm's goodput is >= 1.5x the raw
    # arm's and signalling p99 stays within 1.5x of uncontended; no expired
    # ticket is answered later than deadline + one sim tick; with quota and
    # shed off, sessions are bit-identical to the raw dispatcher path; a 4x
    # flood trips shed mode and the quota absorbs most of it.
    (e19_overload_flood, {}, [
        "goodput_gain_1_5x", ("goodput_gain_at_2x", ">=", 1.5),
        "sig_p99_within_1_5x_uncontended", "expiry_within_one_tick",
        ("late_expiries", "==", 0), "no_qos_bit_identical_to_raw",
        "shed_tripped_at_4x", ("rejected_fraction_at_4x", ">", 0.5)]),
    # Indexed subtree search >= 10x faster than the brute-force scan at
    # 10^5 entries, every arm returning the brute-force result set, the
    # paged run really paginating and both serving paths exercised.
    (e20_search_scaling, {"sizes": (1_000, 10_000, 100_000),
                          "measure_wall_clock": True}, [
        ("speedup_gate_size", "==", 100_000), ("speedup_1e5", ">=", 10.0),
        "part_a_sets_equal", "matches_bruteforce", "paged_equals_unpaged",
        ("pages", ">", 1), ("counter_indexed", ">", 0),
        ("counter_scan", ">", 0)]),
    # Every injected corruption kind lands and is detected and repaired
    # within the bounded window under live traffic; replicas and locators
    # converge; the clean arm repairs nothing, the off arm is bit-identical,
    # and signalling p99 stays within 1.1x of the off arm.
    (e23_reconciliation, {}, [
        "all_corruptions_applied", "all_corruptions_repaired",
        "detection_within_bound", "replicas_converged_after_repair",
        "locators_converged_after_repair", "clean_arm_repairs_nothing",
        "off_arm_bit_identical", "p99_within_1_1x_off"]),
    # Across crashes, symmetric and one-way partitions of the master's
    # site, the detector promotes every time with zero split-brain writes
    # and zero acked-write loss; vacancy and outage stay within the lease
    # plus vote budget; every deposed master ends fenced and every drill
    # reconverges; a fault-free trace with the detector running is
    # bit-identical to the oracle deployment.
    (e24_partition_drill, {}, [
        "all_drills_promoted", "zero_split_brain", "zero_acked_loss",
        "no_violations", "detection_within_bound", "outage_within_bound",
        "all_deposed_fenced", "all_drills_converged", "all_drills_recovered",
        "quiet_plane_bit_identical"]),
]


def short_name(module):
    return module.__name__.rsplit(".", 1)[-1]


@pytest.mark.parametrize("module,kwargs,bars", BARS,
                         ids=[short_name(row[0]) for row in BARS])
def test_experiment_bar(module, kwargs, bars):
    notes = module.run(**kwargs).notes
    for bar in bars:
        if isinstance(bar, str):
            assert notes[bar], f"{bar} is {notes[bar]!r}"
            continue
        name, op, bound = bar
        limit = notes[bound] if isinstance(bound, str) else bound
        assert OPS[op](notes[name], limit), \
            f"{name} = {notes[name]!r}, expected {op} {bound} ({limit!r})"


def test_every_reported_experiment_has_a_bar():
    script = Path(__file__).resolve().parent.parent / "scripts" / \
        "generate_experiments_md.py"
    spec = importlib.util.spec_from_file_location("generate_experiments_md",
                                                  script)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    assert [short_name(row[0]) for row in BARS] == \
        [short_name(module) for module in generator.MODULES]
