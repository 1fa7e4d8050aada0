"""A small registry of named counters, gauges and latency recorders."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.metrics.availability import OperationOutcomes
from repro.metrics.consistency import ConsistencyTracker
from repro.metrics.latency import LatencyRecorder


class MetricsRegistry:
    """Central home for the metrics one experiment run produces."""

    def __init__(self, name: str = "metrics"):
        self.name = name
        self._counters: Dict[str, int] = {}
        #: Which counter names match each queried prefix.  Counter names are
        #: a small, stable set while *values* churn on every request, so the
        #: membership scan is cached per prefix and only the first increment
        #: of a brand-new name extends it -- repeated
        #: :meth:`counters_with_prefix` calls (the reconciler's per-round
        #: status, the dispatcher's per-wave shed accounting) stop paying a
        #: full-registry filter each time.
        self._prefix_members: Dict[str, List[str]] = {}
        self._gauges: Dict[str, float] = {}
        self._latencies: Dict[str, LatencyRecorder] = {}
        self._outcomes: Dict[str, OperationOutcomes] = {}
        self._consistency: Dict[str, ConsistencyTracker] = {}

    # -- counters -------------------------------------------------------------

    def increment(self, name: str, amount: int = 1) -> int:
        counters = self._counters
        if name in counters:
            counters[name] += amount
        else:
            counters[name] = amount
            for prefix, members in self._prefix_members.items():
                if name.startswith(prefix):
                    members.append(name)
        return counters[name]

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def counters_with_prefix(self, prefix: str) -> Dict[str, int]:
        """All counters whose name starts with ``prefix`` (e.g. per-priority
        ``batch.priority.`` counters recorded by the batch pipeline).

        Values are read live; the name scan is cached (see
        ``_prefix_members``), so repeated calls for the same prefix cost
        O(matches), not O(all counters).
        """
        members = self._prefix_members.get(prefix)
        if members is None:
            members = [name for name in self._counters
                       if name.startswith(prefix)]
            self._prefix_members[prefix] = members
        counters = self._counters
        return {name: counters[name] for name in members}

    # -- gauges -----------------------------------------------------------------

    def set_gauge(self, name: str, value: float) -> None:
        self._gauges[name] = value

    def set_gauge_max(self, name: str, value: float) -> None:
        """Keep the all-time maximum seen for ``name`` (high-water marks,
        e.g. the dispatcher's ``dispatcher.queue_depth_max``)."""
        current = self._gauges.get(name)
        if current is None or value > current:
            self._gauges[name] = value

    def gauge(self, name: str, default: float = 0.0) -> float:
        return self._gauges.get(name, default)

    # -- structured metrics ---------------------------------------------------------

    def latency(self, name: str) -> LatencyRecorder:
        if name not in self._latencies:
            self._latencies[name] = LatencyRecorder(name)
        return self._latencies[name]

    def histogram(self, name: str) -> LatencyRecorder:
        """A value-distribution recorder; alias of :meth:`latency`.

        Used for non-latency distributions -- the replication mux's
        shipment sizes and per-record ship linger, the dispatcher's
        adaptive budgets -- which share the recorder's count/mean/percentile
        summary machinery.
        """
        return self.latency(name)

    def outcomes(self, name: str) -> OperationOutcomes:
        if name not in self._outcomes:
            self._outcomes[name] = OperationOutcomes()
        return self._outcomes[name]

    def consistency(self, name: str) -> ConsistencyTracker:
        if name not in self._consistency:
            self._consistency[name] = ConsistencyTracker()
        return self._consistency[name]

    # -- export -------------------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A plain-dict view of everything, for reports and assertions."""
        result: Dict[str, object] = {}
        result.update({f"counter.{k}": v for k, v in self._counters.items()})
        result.update({f"gauge.{k}": v for k, v in self._gauges.items()})
        for name, recorder in self._latencies.items():
            for stat, value in recorder.summary().items():
                result[f"latency.{name}.{stat}"] = value
        for name, outcomes in self._outcomes.items():
            result[f"outcomes.{name}.availability"] = outcomes.availability()
            result[f"outcomes.{name}.attempted"] = outcomes.attempted
        for name, tracker in self._consistency.items():
            result[f"consistency.{name}.stale_fraction"] = \
                tracker.stale_read_fraction()
        return result

    def names(self) -> Dict[str, list]:
        return {
            "counters": sorted(self._counters),
            "gauges": sorted(self._gauges),
            "latencies": sorted(self._latencies),
            "outcomes": sorted(self._outcomes),
            "consistency": sorted(self._consistency),
        }

    def __repr__(self) -> str:
        return (f"<MetricsRegistry {self.name!r} "
                f"counters={len(self._counters)} "
                f"latencies={len(self._latencies)}>")


class MetricsBatch:
    """Buffered metric recording, applied to a registry in batches.

    The operation pipeline records per-request metrics (outcomes, latency
    samples, consistency observations, counters) into a batch instead of
    straight into the registry; the batch coalesces counter increments and
    each admission wave flushes it once, at the wave's end, so a caller
    that inspects the registry between waves sees every finished request.
    """

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        #: Times :meth:`flush` ran; batch-path tests assert one whole
        #: ``execute_batch`` flushes exactly once.
        self.flushes = 0
        self._counters: Dict[str, int] = {}
        self._outcomes: list = []
        self._latencies: list = []
        self._reads: list = []
        #: Counter names per priority class, built once.
        self._priority_names: Dict[str, Tuple[str, str]] = {}

    # -- recording ------------------------------------------------------------

    def increment(self, name: str, amount: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + amount

    def record_answer(self, client: str, priority: str, latency: float,
                      failure: Optional[str] = None) -> None:
        """One answered request: its outcome, its latency when it
        succeeded (``failure is None``), and its priority class's
        ``batch.priority.<class>.completed`` (and ``.failed``) count."""
        names = self._priority_names.get(priority)
        if names is None:
            names = self._priority_names[priority] = (
                f"batch.priority.{priority}.completed",
                f"batch.priority.{priority}.failed")
        counters = self._counters
        counters[names[0]] = counters.get(names[0], 0) + 1
        if failure is None:
            self._outcomes.append((client, True, ""))
            self._latencies.append((client, latency))
        else:
            self._outcomes.append((client, False, failure))
            counters[names[1]] = counters.get(names[1], 0) + 1

    def record_read(self, client: str, served_from_slave: bool, stale: bool,
                    versions_behind: int) -> None:
        self._reads.append((client, served_from_slave, stale, versions_behind))

    # -- flushing -------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Buffered record count (all kinds), for introspection and tests."""
        return (len(self._counters) + len(self._outcomes)
                + len(self._latencies) + len(self._reads))

    def flush(self) -> None:
        self.flushes += 1
        registry = self.registry
        for name, amount in self._counters.items():
            registry.increment(name, amount)
        for client, success, reason in self._outcomes:
            outcomes = registry.outcomes(client)
            if success:
                outcomes.record_success()
            else:
                outcomes.record_failure(reason)
        for client, value in self._latencies:
            registry.latency(client).record(value)
        for client, served_from_slave, stale, versions_behind in self._reads:
            registry.consistency(client).record_read(
                served_from_slave=served_from_slave, stale=stale,
                versions_behind=versions_behind, client_type=client)
        self._counters.clear()
        self._outcomes.clear()
        self._latencies.clear()
        self._reads.clear()

    def __repr__(self) -> str:
        return f"<MetricsBatch pending={self.pending}>"
