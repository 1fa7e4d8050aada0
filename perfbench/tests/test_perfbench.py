"""Tests of the benchmark itself, on tiny versions of its workloads.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses

import pytest

from perfbench import measure
from perfbench.bench import WorkloadRun, percentile
from perfbench.tracing import Tracer, install, self_times, trace_generator
from perfbench.workloads import WORKLOADS

#: Tiny sizes: a few hundred ops each, so the whole file runs in seconds.
TINY = {
    "fe-read-mostly": dict(subscribers=60, sample_slices=2),
    "provisioning-write-heavy": dict(subscribers=300, sample_slices=1),
    "oss-search-campaign": dict(subscribers=150, sample_ops=300),
}


def tiny(name: str, **changes):
    return dataclasses.replace(WORKLOADS[name], setups=1,
                               **{**TINY[name], **changes})


def run_tiny(name: str, seed: int = 3) -> WorkloadRun:
    run = WorkloadRun.set_up(tiny(name), seed)
    run.start()
    run.measure(0.0, exact=True)
    run.finish()
    return run


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_passes_the_correctness_check(name):
    run = run_tiny(name)
    assert run.verify() == []
    assert run.sample.ops > 0
    assert run.failed == 0


def test_self_time_is_duration_minus_direct_children():
    # root [0, 10] -> a [1, 4] -> b [2, 3]; root -> c [5, 9]
    spans = [("root", 0.0, 10.0, -1, 1), ("a", 1.0, 4.0, 0, 1),
             ("b", 2.0, 3.0, 1, 1), ("c", 5.0, 9.0, 0, 1)]
    assert self_times(spans) == {"root": 3.0, "a": 2.0, "b": 1.0, "c": 4.0}
    # A window starting at span 1: its parent (span 0) is outside.
    assert self_times(spans[1:], first=1) == {"a": 2.0, "b": 1.0, "c": 4.0}


def test_tracer_records_nested_spans():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    outer, inner = tracer.name_id("outer"), tracer.name_id("inner")
    first = tracer.open(outer)
    second = tracer.open(inner)
    tracer.close(second)
    tracer.close(first)
    spans = tracer.spans()
    assert [span[0] for span in spans] == ["outer", "inner"]
    assert spans[1][3] == 0
    assert self_times(spans) == {"outer": 2.0, "inner": 1.0}


def test_generators_are_timed_per_resume():
    tracer = Tracer()

    def body():
        yield 1
        yield 2
        return 3

    assert list(trace_generator(tracer, "bench.client", body())) == [1, 2]
    assert [span[0] for span in tracer.spans()] == ["bench.client"] * 3


def test_install_wraps_and_restores_entry_points():
    from repro.sim.engine import Simulation
    original = Simulation.step
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        assert Simulation.step is not original
        sim = Simulation(seed=1)

        def body():
            yield sim.timeout(1.0)
        sim.process(body())
        sim.run()
        assert tracer.count("sim.step") >= 2
    finally:
        uninstall()
    assert Simulation.step is original


def test_dropped_reply_fails_the_check(monkeypatch):
    from repro.api.session import Session
    call = Session.call
    dropped = []

    def drop_one(self, operation, qos=None):
        if not dropped:
            dropped.append(operation)
            yield self.client.sim.event()  # never triggered: no reply
        response = yield from call(self, operation, qos)
        return response

    workload = tiny("fe-read-mostly")
    run = WorkloadRun.set_up(workload, 3)
    monkeypatch.setattr(Session, "call", drop_one)
    run.start()
    for _ in range(workload.sample_slices + 2):
        run.run_slice()
    run.finish()
    problems = run.verify()
    assert any("never answered" in problem for problem in problems)


def test_corrupted_search_reply_fails_the_check(monkeypatch):
    from repro.core.pipeline import SearchPath
    emit = SearchPath._emit

    def drop_last_entry(self, ctx, matches, exhausted):
        emit(self, ctx, matches[:-1], exhausted)

    monkeypatch.setattr(SearchPath, "_emit", drop_last_entry)
    run = run_tiny("oss-search-campaign")
    assert any("brute-force filter" in problem for problem in run.verify())


def test_lost_acknowledged_write_fails_the_check():
    run = run_tiny("fe-read-mostly")
    (key, attribute), _writes = next(iter(run.acked.items()))
    for replica_set in run.udr.replica_sets.values():
        store = replica_set.master_copy.store
        if store.contains(key):
            record = dict(store.get(key))
            record[attribute] = "corrupted"
            transaction = replica_set.master_copy.transactions.begin()
            transaction.write(key, record)
            transaction.commit()
    assert any("do not read back" in problem for problem in run.verify())


def test_diverged_slave_fails_the_check():
    run = run_tiny("fe-read-mostly")
    replica_set = next(iter(run.udr.replica_sets.values()))
    slave = replica_set.copy_on(replica_set.slave_names()[0])
    key = next(iter(slave.store.keys()))
    transaction = slave.transactions.begin()
    transaction.write(key, {"imsi": "diverged"})
    transaction.commit()
    assert not run.replicas_equal()


def test_same_seed_repeats_sim_metrics_and_work_counts():
    workload = tiny("provisioning-write-heavy")
    first = measure.per_layer(workload, 5)
    second = measure.per_layer(workload, 5)
    assert first.correct and second.correct
    deterministic = [name for name, unit, _better in measure.PER_LAYER
                     if unit not in ("s", "ops/s") and
                     name != "trace.overhead_ratio"]
    for name in deterministic:
        assert first.metrics[name] == second.metrics[name], name
    plain = [measure.end_to_end(workload, 5, 0.01) for _ in range(2)]
    for name in ("sim_latency_p50_ms", "sim_latency_p997_ms"):
        assert plain[0].metrics[name] == plain[1].metrics[name]
    assert plain[0].unbounded["sim_latency_p999_ms"] == \
        plain[1].unbounded["sim_latency_p999_ms"]


def test_traced_run_shows_the_switched_off_mechanisms():
    fe = measure.per_layer(tiny("fe-read-mostly"), 4).metrics
    # Above the 256-entry per-PoA cache, so the skewed stream still misses.
    provisioning = measure.per_layer(
        tiny("provisioning-write-heavy", subscribers=1_200), 4).metrics
    oss = measure.per_layer(tiny("oss-search-campaign"), 4).metrics
    for name in ("core.dispatcher.waves", "cdc.events", "cluster.probes",
                 "directory.search.examined_per_returned"):
        assert fe[name][0] == 0, name
    assert provisioning["core.dispatcher.waves"][0] > 0
    assert provisioning["cluster.promotions"][0] == 0
    assert oss["directory.search.examined_per_returned"][0] >= 1.0
    assert provisioning["core.location_cache.hit_ratio"][0] < \
        fe["core.location_cache.hit_ratio"][0]


def test_attribution_closes_on_the_traced_wall_time():
    metrics = measure.per_layer(tiny("oss-search-campaign"), 2).metrics
    layers = sum(value for name, (value, _unit) in metrics.items()
                 if name.endswith(".self_s"))
    assert metrics["other.self_s"][0] >= 0
    assert layers == pytest.approx(metrics["trace.wall_s"][0])


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 10_001)]
    assert percentile(values, 0.5) == 5_000.0
    assert percentile(values, 0.999) == 9_990.0
    assert len(values) - values.index(percentile(values, 0.999)) - 1 == 10
