"""The benchmark's metrics: the end-to-end run and the traced per-layer run.

Both return a :class:`Result`; ``run.py`` prints it.  The metric tables
here are the single source of ``BENCHMARK.json`` (``run.py
--write-manifest``).
"""

from __future__ import annotations

import gc
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from perfbench.bench import WorkloadRun
from perfbench.tracing import (
    LAYERS,
    Tracer,
    inclusive_times,
    install,
    layer_of,
    self_times,
)
from perfbench.workloads import Workload

#: ``(name, unit, better, bound)``.  Sim-clock metrics repeat exactly for a
#: seed, so their bound only has to cover the spread across seeds; the
#: wall-clock ones also cover the host's noise, which the machine-speed
#: scaling narrows but does not remove.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "ops/s", "higher", 0.25),
    ("sim_latency_p50_ms", "ms", "lower", 0.25),
    ("sim_latency_p997_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.2),
)

#: ``(name, unit)`` of the metrics an untraced run prints but
#: ``BENCHMARK.json`` does not bound.  ``failed_ratio`` is 0 whenever the run
#: is correct, and a bounded metric may never be 0.  The p99.9 is bimodal
#: across seeds on ``oss-search-campaign``: about 0.14 % of its ops lose a
#: message and wait out the 1 s link timeout, so the p99.9 reads either that
#: timeout (~1 070 ms) or the slowest search page (~150 ms), depending on
#: whether a seed's sample holds more or fewer such ops than the 0.1 % it
#: leaves.  The bounded tail is the p99.7: the 0.3 % it leaves is well above
#: that fraction, and on ``provisioning-write-heavy``, whose dispatcher
#: stalls make the slowest ~2.5 % of ops, it reads near the top of the stalls,
#: where the p99 still moved by a sixth between seeds.
UNBOUNDED: Tuple[Tuple[str, str], ...] = (
    ("sim_latency_p999_ms", "ms"),
    ("failed_ratio", "fraction"),
)

#: Per-op work counts (unit ``count/op``): tracer call counts of the named
#: spans over the deterministic sample, divided by its ops.
PER_OP_COUNTS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("sim.events", ("sim.step",)),
    ("net.transfers", ("net.transfer",)),
    ("ldap.dn.constructions", ("ldap.dn.init",)),
    ("storage.record_size.calls", ("storage.record_size",)),
    ("directory.locate.calls", ("directory.locate",)),
    ("metrics.calls", ("metrics.increment",)),
    ("api.calls", ("api.submit", "api.call", "api.search_pages",
                   "api.wait")),
)

#: ``(name, unit, better)`` of every per-layer metric, in print order.
#: ``sample.digest`` is an identity, not a quantity: the first 48 bits of
#: the hash of the sample's result codes and its final master store state.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    tuple((f"{layer}.self_s", "s", "lower") for layer in LAYERS
          if layer != "setup") + (
        ("other.self_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.untraced_ops_per_s", "ops/s", "higher"),
        ("trace.traced_ops_per_s", "ops/s", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("core.pipeline.order_s", "s", "lower"),
        ("ldap.filters.plan_s", "s", "lower"),
        ("setup.build_s", "s", "lower"),
        ("setup.load_s", "s", "lower"),
        ("setup.warm_s", "s", "lower"),
        ("storage.subscriber_count.calls", "count", "lower"),
    ) + tuple((name, "count/op", "lower") for name, _spans in PER_OP_COUNTS)
    + (
        ("storage.commits", "count", "lower"),
        ("storage.wal.appends", "count", "lower"),
        ("storage.wal_bytes_per_user_byte", "ratio", "lower"),
        ("core.dispatcher.waves", "count", "lower"),
        ("core.dispatcher.mean_wave", "ops", "higher"),
        ("core.dispatcher.queue_wait_ms", "ms", "lower"),
        ("core.location_cache.hit_ratio", "ratio", "higher"),
        ("core.location_cache.evictions", "count", "lower"),
        ("replication.shipments", "count", "lower"),
        ("replication.records_per_shipment", "records", "higher"),
        ("replication.max_lag_ms", "ms", "lower"),
        ("cdc.events", "count", "lower"),
        ("cdc.history.entries", "count", "lower"),
        ("cluster.probes", "count", "lower"),
        ("cluster.promotions", "count", "lower"),
        ("directory.search.examined_per_returned", "ratio", "lower"),
        ("directory.dit.upserts", "count", "lower"),
        ("sample.ops", "count", "higher"),
        ("sample.digest", "hash", "lower"),
    ))


@dataclass
class Result:
    """One run's verdict, its metrics by name with units, and notes."""

    problems: List[str]
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Printed after ``metrics``, but not part of the JSON result line.
    unbounded: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems


def _set_up(workload: Workload, seed: int, tracer=None) -> WorkloadRun:
    gc.collect()
    return WorkloadRun.set_up(workload, seed, tracer)


def _sample_notes(run: WorkloadRun) -> List[str]:
    sample = run.sample
    notes = [f"sample: {sample.ops} ops, digest {sample.digest()}",
             f"operations: {run.attempted} attempted, {run.failed} failed"]
    if run.searches:
        notes.append(f"searches: {run.searches} checked against brute "
                     f"force, {run.searches_short} short by lost messages")
    return notes


def end_to_end(workload: Workload, seed: int, seconds: float) -> Result:
    """Set up ``workload.setups`` times, then measure the last deployment
    for ``seconds`` of wall time with tracing off."""
    setups = []
    raw_setups = []
    for _ in range(workload.setups):
        run = None  # drop the previous deployment before building the next
        run = _set_up(workload, seed)
        raw_setups.append(run.timings["setup_s"])
        setups.append(run.timings["scaled_setup_s"])
    run.start()
    rates, normalised = run.measure(seconds)
    run.finish()
    result = Result(run.verify(), run.attempted, run.failed)
    result.notes = _sample_notes(run) + [
        f"slices: {len(rates)} of {workload.slice_s:g} sim-s; unscaled "
        f"median {statistics.median(rates):.1f} ops/s, set-up "
        f"{statistics.median(raw_setups):.3f} s"]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(normalised),
        "sim_latency_p50_ms": run.sample.latency_ms(0.5),
        "sim_latency_p997_ms": run.sample.latency_ms(0.997),
        "sim_latency_p999_ms": run.sample.latency_ms(0.999),
        "peak_rss_mb": run.sample.peak_rss_mb,
        "failed_ratio": run.failed / run.attempted,
    }
    result.metrics = {name: (values[name], unit)
                      for name, unit, _better, _bound in END_TO_END}
    result.unbounded = {name: (values[name], unit)
                        for name, unit in UNBOUNDED}
    return result


def per_layer(workload: Workload, seed: int) -> Result:
    """The traced run: one untraced pass over the deterministic sample,
    then the same pass on a fresh deployment with every layer's entry
    points wrapped.  The two must agree on every sim-clock result."""
    plain = _set_up(workload, seed)
    plain.start()
    _rates, untraced_rates = plain.measure(0.0, exact=True)
    plain.finish()
    problems = [f"untraced: {problem}" for problem in plain.verify()]
    plain_sample = plain.sample
    setup_timings = plain.timings
    del plain

    tracer = Tracer()
    uninstall = install(tracer)
    try:
        run = _set_up(workload, seed, tracer)
        setup_calls = tracer.count("storage.subscriber_count")
        window_mark = len(tracer)
        run.start()
        _rates, traced_rates = run.measure(0.0, exact=True)
        window_end = len(tracer)
        run.finish()
    finally:
        uninstall()
    problems += run.verify()
    if (run.sample.latencies, run.sample.digest(),
            run.sample.counters_end) != (plain_sample.latencies,
                                         plain_sample.digest(),
                                         plain_sample.counters_end):
        problems.append("tracing changed the sim-clock results")

    spans = tracer.spans(window_mark, window_end)
    result = Result(problems, run.attempted, run.failed)
    metrics = _layer_times(spans, window_mark, run.window_wall)
    untraced = statistics.median(untraced_rates)
    traced = statistics.median(traced_rates)
    metrics.update({
        "trace.untraced_ops_per_s": untraced,
        "trace.traced_ops_per_s": traced,
        "trace.overhead_ratio": untraced / traced,
        "setup.build_s": setup_timings["build_s"],
        "setup.load_s": setup_timings["load_s"],
        "setup.warm_s": setup_timings["warm_s"],
        "storage.subscriber_count.calls": setup_calls,
    })
    metrics.update(_work_counts(run, tracer))
    result.metrics = {name: (metrics[name], unit)
                      for name, unit, _better in PER_LAYER}
    result.notes = _sample_notes(run) + [
        f"attribution: {len(spans)} spans; layer self times plus "
        f"other.self_s add up to trace.wall_s"]
    return result


def _layer_times(spans, first: int, wall: float) -> Dict[str, float]:
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for name, seconds in self_times(spans, first).items():
        by_layer[layer_of(name)] += seconds
    metrics = {f"{layer}.self_s": seconds
               for layer, seconds in by_layer.items() if layer != "setup"}
    metrics["other.self_s"] = wall - sum(by_layer.values())
    metrics["trace.wall_s"] = wall
    inclusive = inclusive_times(spans, ("core.pipeline.order",
                                        "ldap.filters.plan"), first)
    metrics["core.pipeline.order_s"] = inclusive["core.pipeline.order"]
    metrics["ldap.filters.plan_s"] = inclusive["ldap.filters.plan"]
    return metrics


def _work_counts(run: WorkloadRun, tracer: Tracer) -> Dict[str, float]:
    sample = run.sample
    ops = sample.ops

    def calls(*names: str) -> int:
        total = 0
        for name in names:
            index = tracer.index_of(name)
            if index is not None:
                start = sample.calls_start[index] \
                    if index < len(sample.calls_start) else 0
                total += sample.calls_end[index] - start
        return total

    metrics: Dict[str, float] = {
        name: calls(*span_names) / ops for name, span_names in PER_OP_COUNTS}
    waves = sample.delta("dispatcher.waves")
    shipments = sample.delta("replication.mux.shipments")
    lookups = sample.delta("cache.lookups")
    examined = calls("core.pipeline.search_fetch")
    queued = sample.delta("dispatcher.queued")
    metrics.update({
        "storage.commits": calls("storage.commit"),
        "storage.wal.appends": calls("storage.wal.append"),
        "storage.wal_bytes_per_user_byte": run.wal_bytes_per_user_byte(),
        "core.dispatcher.waves": waves,
        "core.dispatcher.mean_wave":
            sample.delta("dispatcher.dispatched") / waves if waves else 0.0,
        "core.dispatcher.queue_wait_ms":
            sample.delta("dispatcher.queued_s") / queued * 1000.0
            if queued else 0.0,
        "core.location_cache.hit_ratio":
            sample.delta("cache.hits") / lookups if lookups else 0.0,
        "core.location_cache.evictions": sample.delta("cache.evictions"),
        "replication.shipments": shipments,
        "replication.records_per_shipment":
            sample.delta("replication.mux.records") / shipments
            if shipments else 0.0,
        "replication.max_lag_ms":
            sample.counters_end.get("replication.max_lag_s", 0.0) * 1000.0,
        "cdc.events": sample.delta("cdc.events"),
        "cdc.history.entries": sample.delta("cdc.history.entries"),
        "cluster.probes": sample.delta("cluster.ticks"),
        "cluster.promotions": sample.delta("cluster.promotions"),
        "directory.search.examined_per_returned":
            examined / sample.returned if sample.returned else 0.0,
        "directory.dit.upserts": calls("directory.dit.upsert"),
        "sample.ops": ops,
        "sample.digest": int(sample.digest()[:12], 16),
    })
    return metrics
