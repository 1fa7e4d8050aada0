"""Set-up, timed phase, drain and correctness check of one workload run.

A run is sliced on the sim clock (``Workload.slice_s``); each slice is one
``Simulation.run(until=...)`` call timed by the wall clock, so throughput is
"operations completed in the slice per wall second of the slice" and
``ops_per_s`` is the median over slices.  The first slices are the
deterministic sample (see ``Workload.sample_slices``): its ops give the
sim-clock latency percentiles, and counters read at its end give the work
counts.  Later slices exist only so the wall clock measures long enough;
which of them run depends on wall time, which is why nothing deterministic
is read from them.

Open-loop arrivals are scheduled on the sim clock, so the generator never
runs late: every operation is submitted exactly when it is due, and its
latency from due time is its latency from submit.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import math
import resource
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.api.operations import Read, Write
from repro.core.config import ClientType
from repro.core.udr import UDRNetworkFunction
from repro.storage.records import record_size
from repro.subscriber.generator import SubscriberGenerator

from perfbench.tracing import Tracer, trace_generator
from perfbench.workloads import (
    OSS_MODIFIES_PER_PAGE,
    Op,
    Workload,
    flip_status,
    home_client,
    oss_filters,
    oss_search,
    stream_rng,
)

#: Every client retries an operation answered with a transient code (a
#: message lost on a link answers ``UNAVAILABLE``), as real front-ends and
#: provisioning systems do; without it the modelled link loss fails a few
#: operations per run.  Latency still runs from the first attempt's due time.
TRANSIENT_CODES = frozenset({"UNAVAILABLE", "BUSY"})
ATTEMPTS = 4
#: Chunks the subscriber base is loaded in, each timed on its own.
SETUP_CHUNKS = 10
#: Sim seconds a drain may take before unanswered operations count as lost.
DRAIN_LIMIT_S = 120.0
#: Sim seconds replication may take to converge after the traffic stops.
REPLICATION_LIMIT_S = 30.0


#: Wall seconds :func:`calibration_s` takes at the reference machine speed.
CALIBRATION_REFERENCE_S = 0.005


def calibration_s() -> float:
    """Wall seconds of a fixed loop shaped like the simulator's work.

    The benchmark's host is shared, and its speed for Python shifts by a
    third or more between stretches of a few seconds, for the program and
    for this loop alike: generators resumed from a heap, small dicts and
    tuples.  Wall-clock metrics are scaled by this loop's time measured
    right before and after what they time (:func:`timed`), so they read in
    units of a reference speed; a change to the program still moves them in
    full, because the loop does not run program code.
    """
    started = time.perf_counter()
    queue: List[Tuple[int, int, object]] = []
    store: Dict[str, dict] = {}

    def process(key: int):
        total = 0
        for step in range(8):
            total += yield step
            store[f"k{key % 257}"] = {"a": key, "b": str(step),
                                      "c": [key, step]}
        return total

    sequence = 0
    for key in range(300):
        generator = process(key)
        next(generator)
        sequence += 1
        heapq.heappush(queue, (sequence, sequence, generator))
    while queue:
        when, _sequence, generator = heapq.heappop(queue)
        try:
            generator.send(1)
        except StopIteration:
            continue
        sequence += 1
        heapq.heappush(queue, (when + 300, sequence, generator))
    return time.perf_counter() - started


def timed(action):
    """Run ``action()``; returns ``(its result, wall seconds, wall seconds
    scaled to the reference machine speed)``."""
    before = calibration_s()
    started = time.perf_counter()
    result = action()
    wall = time.perf_counter() - started
    calibration = (before + calibration_s()) / 2
    return result, wall, wall * CALIBRATION_REFERENCE_S / calibration


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending, non-empty list."""
    rank = math.ceil(round(fraction * len(sorted_values), 6))
    return sorted_values[min(max(rank, 1), len(sorted_values)) - 1]


@dataclass
class Sample:
    """What the deterministic sample of one run produced."""

    ops: int = 0
    #: Entries the sample's scoped searches returned.
    returned: int = 0
    latencies: List[float] = field(default_factory=list)
    codes: List[Tuple[int, str]] = field(default_factory=list)
    counters_start: Dict[str, float] = field(default_factory=dict)
    counters_end: Dict[str, float] = field(default_factory=dict)
    #: Tracer call counts per span name id at the sample's start and end.
    calls_start: List[int] = field(default_factory=list)
    calls_end: List[int] = field(default_factory=list)
    store_digest: str = ""
    #: Peak resident memory of the process when the sample closed.
    peak_rss_mb: float = 0.0

    def latency_ms(self, fraction: float) -> float:
        return percentile(sorted(self.latencies), fraction) * 1000.0

    def digest(self) -> str:
        """Result codes of the sample plus master store state at its end."""
        codes = hashlib.sha256(
            json.dumps(sorted(self.codes)).encode()).hexdigest()
        return hashlib.sha256(
            (codes + self.store_digest).encode()).hexdigest()[:16]

    def delta(self, name: str) -> float:
        return self.counters_end.get(name, 0) - \
            self.counters_start.get(name, 0)


def master_records(udr) -> Dict[str, dict]:
    """Every committed record on its partition's master copy."""
    records: Dict[str, dict] = {}
    for replica_set in udr.replica_sets.values():
        records.update(replica_set.master_copy.store.snapshot())
    return records


def store_digest(udr) -> str:
    """A hash of every master record, in key order."""
    records = master_records(udr)
    blob = json.dumps(sorted(records.items()), sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


class WorkloadRun:
    """One deployment driven by one workload's seeded op stream."""

    def __init__(self, workload: Workload, seed: int, udr, profiles,
                 tracer: Optional[Tracer] = None):
        self.workload = workload
        self.tracer = tracer
        self.seed = seed
        self.udr = udr
        self.profiles = profiles
        self.sim = udr.sim
        self.sessions = self._open_sessions()
        self.timings: Dict[str, float] = {}
        #: Operations sent and not yet answered (all / in the sample).
        self.outstanding = 0
        self.sample_outstanding = 0
        self.completed = 0
        self.sample = Sample()
        self.attempted = 0
        self.failed = 0
        self.acked: Dict[Tuple[str, str], List[Tuple[float, float, object]]] \
            = {}
        self.slices = 0
        self.sample_closed = False
        self.stopping = False
        self.problems: List[str] = []
        self.searches = 0
        self.searches_short = 0
        self.search_mismatches = 0
        #: Wall seconds the benchmark's own checks spent inside slices.
        self.bench_wall = 0.0
        self._next_index = itertools.count()
        #: Wall seconds of the slices run so far, the benchmark's own
        #: checks included.
        self.window_wall = 0.0
        self.start_time = 0.0
        self.sample_end = 0.0

    # -- set-up ---------------------------------------------------------------

    @classmethod
    def set_up(cls, workload: Workload, seed: int,
               tracer: Optional[Tracer] = None) -> "WorkloadRun":
        """Build, load and warm one deployment; records the phase times.

        With a ``tracer``, the calls into the program made here are traced
        too (the tracer's wrappers must already be installed)."""
        config = workload.config(seed)
        profiles = SubscriberGenerator(config.regions, seed=seed).generate(
            workload.subscribers)
        wall = dict.fromkeys(("build_s", "load_s", "warm_s"), 0.0)
        scaled: List[float] = []

        def phase(name: str, action):
            result, seconds, seconds_scaled = timed(action)
            wall[name] += seconds
            scaled.append(seconds_scaled)
            return result

        def build():
            udr = UDRNetworkFunction(config)
            udr.start()
            return udr

        udr = phase("build_s", build)
        run = cls(workload, seed, udr, profiles, tracer)
        # Loaded in chunks so each chunk's time is scaled by the machine
        # speed around it; one call per chunk installs the same base.
        step = max(1, len(profiles) // SETUP_CHUNKS)
        for first in range(0, len(profiles), step):
            chunk = profiles[first:first + step]
            phase("load_s", lambda: udr.load_subscriber_base(chunk))
        phase("warm_s", run.warm)
        run.timings = dict(wall, setup_s=sum(wall.values()),
                           scaled_setup_s=sum(scaled))
        return run

    def _open_sessions(self):
        udr = self.udr
        sessions = {}
        for site in udr.topology.sites:
            name = f"fe@{site.region.name}"
            if name not in sessions:
                sessions[name] = udr.attach(
                    name, site, ClientType.APPLICATION_FE).session()
        sessions["ps"] = udr.attach("ps", udr.topology.sites[0],
                                    ClientType.PROVISIONING).session()
        return sessions

    def warm(self) -> None:
        """Read every subscriber once through the workload's own clients, so
        the location caches hold what they will hold in steady state."""
        processes = []
        for profile in self.profiles:
            client = "ps" if self.workload.loop == "closed" \
                else home_client(profile)
            processes.append(self._spawn(self._transact(
                Op(-1, Read(profile.identities.imsi), client))))
        if not self._run_until(lambda: all(process.triggered
                                           for process in processes)) \
                or self.failed:
            self.problems.append(f"{self.failed} warm-up reads failed, "
                                 f"{self.outstanding} unanswered")
        self.attempted = self.failed = 0

    def _run_until(self, condition, limit: float = DRAIN_LIMIT_S,
                   step: float = 0.05) -> bool:
        deadline = self.sim.now + limit
        while not condition():
            if self.sim.now >= deadline:
                return False
            self.sim.run(until=min(deadline, self.sim.now + step))
        return True

    # -- traffic --------------------------------------------------------------

    def start(self) -> None:
        """Start the workload's traffic at the current sim time."""
        self.start_time = self.sim.now
        if self.workload.loop == "open":
            self.sample_end = self.start_time + \
                self.workload.sample_slices * self.workload.slice_s
        else:
            self.sample_end = math.inf
        self.sample.counters_start = self.counters()
        if self.tracer is not None:
            self.sample.calls_start = list(self.tracer.calls)
        self._spawn(self._arrivals() if self.workload.loop == "open"
                    else self._campaign())

    def _spawn(self, generator):
        """Run one of the benchmark's own client generators as a process;
        traced, its own time is attributed to the ``bench`` layer."""
        if self.tracer is not None:
            generator = trace_generator(self.tracer, "bench.client",
                                        generator)
        return self.sim.process(generator)

    def _transact(self, op: Op):
        """One client transaction: send ``op``, wait for the reply,
        retry on a transient code, then record the outcome."""
        due = self.sim.now
        in_sample = due < self.sample_end
        self.attempted += 1
        self.outstanding += 1
        if in_sample:
            self.sample_outstanding += 1
        session = self.sessions[op.client]
        for _attempt in range(ATTEMPTS):
            response = yield from session.call(op.operation)
            if response.result_code.name not in TRANSIENT_CODES:
                break
        now = self.sim.now
        self.outstanding -= 1
        self.completed += 1
        if not response.ok:
            self.failed += 1
        if in_sample:
            sample = self.sample
            self.sample_outstanding -= 1
            sample.ops += 1
            sample.latencies.append(now - due)
            sample.codes.append((op.index, response.result_code.name))
            if op.operation.kind == "search":
                sample.returned += len(response.entries)
        if op.write is not None and response.ok:
            key, attribute, value = op.write
            self.acked.setdefault((key, attribute), []).append(
                (due, now, value))
        return response

    def _arrivals(self):
        gaps = stream_rng(self.workload.name, self.seed, "arrivals")
        rate = self.workload.rate
        for op in self.workload.ops(self.profiles, self.seed):
            yield self.sim.timeout(gaps.expovariate(rate))
            if self.stopping:
                return
            self._spawn(self._transact(op))

    def _campaign(self):
        """The OSS client's closed loop: page a filter search, modify a slice
        of each page's hits, waiting for every reply before the next
        request.

        ``shadow`` is the benchmark's own model of every record, updated
        only by acknowledged modifies; each search's page union is compared
        with a brute-force filter over it.  A modify touches only hits
        already returned, so later pages of the same search are unaffected
        and the union must equal the model at the search's start.  The
        search path skips a candidate whose fetch was lost on the network
        (it answers with what it could reach), so a search during which
        the network lost ``n`` messages may miss at most ``n`` entries;
        with no loss the union must match exactly.
        """
        shadow = {profile.identities.imsi: profile.to_record()
                  for profile in self.profiles}
        stats = self.udr.network.stats
        filters = oss_filters(self.udr.config.regions)
        for number in itertools.count():
            if self.stopping:
                return
            checking = time.perf_counter()
            if not self.sample_closed and \
                    self.attempted >= self.workload.sample_ops:
                self.sample_end = self.sim.now
                self._close_sample()
            assertions = filters[number % len(filters)]
            expected = sorted(
                imsi for imsi, record in shadow.items()
                if all(str(record.get(attribute)) == value
                       for attribute, value in assertions))
            self.bench_wall += time.perf_counter() - checking
            losses = stats.losses
            operation = oss_search(assertions)
            returned: List[str] = []
            while operation is not None:
                response = yield from self._transact(
                    Op(next(self._next_index), operation, "ps"))
                if not response.ok:
                    break
                hits = [entry["imsi"] for entry in response.entries]
                returned.extend(hits)
                for imsi in hits[:OSS_MODIFIES_PER_PAGE]:
                    status = flip_status(shadow[imsi]["subscriberStatus"])
                    answer = yield from self._transact(Op(
                        next(self._next_index),
                        Write(imsi, {"subscriberStatus": status}), "ps",
                        (f"sub:{imsi}", "subscriberStatus", status)))
                    if answer.ok:
                        shadow[imsi]["subscriberStatus"] = status
                operation = operation.next_page(response)
            checking = time.perf_counter()
            self._check_search(sorted(returned), expected,
                               stats.losses - losses)
            self.bench_wall += time.perf_counter() - checking

    def _check_search(self, returned: List[str], expected: List[str],
                      lost: int) -> None:
        self.searches += 1
        if returned == expected:
            return
        missing = len(expected) - len(returned)
        if lost and 0 < missing <= lost and \
                len(set(returned)) == len(returned) and \
                set(returned) <= set(expected):
            self.searches_short += 1
            return
        self.search_mismatches += 1

    # -- measurement ----------------------------------------------------------

    def run_slice(self) -> Tuple[int, float]:
        """Advance one slice; returns ``(ops completed, wall seconds)``."""
        self.slices += 1
        until = self.start_time + self.slices * self.workload.slice_s
        bench_wall = self.bench_wall
        completed = self.completed
        started = time.perf_counter()
        self.sim.run(until=until)
        raw = time.perf_counter() - started
        self.window_wall += raw
        wall = raw - (self.bench_wall - bench_wall)
        if self.slices == self.workload.sample_slices:
            self._close_sample()
        return self.completed - completed, wall

    def _close_sample(self) -> None:
        self.sample_closed = True
        # Read here, not at the end of the run: later slices run for as long
        # as the wall clock says, and keep growing the audit history and
        # the latency recorders.
        self.sample.peak_rss_mb = peak_rss_mb()
        if self.tracer is not None:
            self.sample.calls_end = list(self.tracer.calls)
        self.sample.counters_end = self.counters()
        self.sample.store_digest = store_digest(self.udr)

    def sample_complete(self) -> bool:
        return self.sample_closed and not self.sample_outstanding

    def measure(self, seconds: float, exact: bool = False
                ) -> Tuple[List[float], List[float]]:
        """Run slices for at least ``seconds`` of wall time and until the
        sample is complete; with ``exact``, stop as soon as the sample is.

        Returns each slice's completed ops per wall second, as measured and
        scaled to the reference machine speed (:func:`timed`)."""
        rates: List[float] = []
        normalised: List[float] = []
        started = time.perf_counter()
        while True:
            (completed, wall), raw, scaled = timed(self.run_slice)
            rates.append(completed / wall)
            normalised.append(completed / (wall * scaled / raw))
            if self.sample_complete() and (
                    exact or time.perf_counter() - started >= seconds):
                return rates, normalised

    def counters(self) -> Dict[str, float]:
        """Work counters the program exposes, read at one sim instant."""
        udr = self.udr
        metrics = udr.metrics
        values: Dict[str, float] = {
            name: metrics.counter(name)
            for name in metrics.names()["counters"]}
        caches = list(udr.location_caches.caches.values())
        values["cache.lookups"] = sum(c.stats.lookups for c in caches)
        values["cache.hits"] = sum(c.stats.hits for c in caches)
        values["cache.evictions"] = sum(c.stats.evictions for c in caches)
        values["net.messages"] = udr.network.stats.total_messages()
        if udr.membership is not None:
            values["cluster.ticks"] = udr.membership.stats.ticks
            values["cluster.promotions"] = udr.membership.stats.promotions
        shipped = metrics.histogram("replication.mux.linger")
        values["replication.max_lag_s"] = shipped.maximum()
        queued = metrics.latency("dispatcher.linger")
        values["dispatcher.queued"] = queued.count
        values["dispatcher.queued_s"] = \
            queued.mean() * queued.count if queued.count else 0.0
        return values

    def wal_bytes_per_user_byte(self) -> float:
        """Bytes the sample's commits logged, over every copy's WAL, per
        byte of attribute value the sample's acknowledged writes changed."""
        logged = 0
        for replica_set in self.udr.replica_sets.values():
            for _element, copy in replica_set.members():
                for record in copy.wal.records:
                    if self.start_time <= record.timestamp < self.sample_end:
                        logged += sum(record_size(operation.value)
                                      for operation in record.operations)
        user = sum(record_size({attribute: value})
                   for (_key, attribute), writes in self.acked.items()
                   for submitted, _done, value in writes
                   if self.start_time <= submitted < self.sample_end)
        return logged / user if user else 0.0

    # -- end of run -----------------------------------------------------------

    def finish(self) -> None:
        """Stop the traffic, let every sent op and replication settle."""
        self.stopping = True
        if not self._run_until(lambda: not self.outstanding):
            self.problems.append(f"{self.outstanding} operations sent were "
                                 f"never answered")
        if not self._run_until(lambda: self.replicas_equal(),
                               limit=REPLICATION_LIMIT_S,
                               step=self.udr.config.replication_interval):
            self.problems.append("slave copies still differ from their "
                                 "master after replication drained")

    def replicas_equal(self) -> bool:
        for replica_set in self.udr.replica_sets.values():
            master = replica_set.master_copy.store.snapshot()
            for name in replica_set.slave_names():
                if replica_set.copy_on(name).store.snapshot() != master:
                    return False
        return True

    def verify(self) -> List[str]:
        """Every correctness failure found (empty when the run is correct)."""
        problems = list(self.problems)
        if self.failed:
            problems.append(f"{self.failed} operations answered with a "
                            f"non-success code")
        records = master_records(self.udr)
        wrong = 0
        for (key, attribute), writes in self.acked.items():
            last_submit = max(submitted for submitted, _done, _v in writes)
            # A write submitted after another completed supersedes it; the
            # master must hold one of the writes nothing superseded.
            allowed = [value for _submitted, done, value in writes
                       if done >= last_submit]
            if records.get(key, {}).get(attribute) not in allowed:
                wrong += 1
        if wrong:
            problems.append(f"{wrong} acknowledged writes do not read back "
                            f"from the master")
        if self.search_mismatches:
            problems.append(f"{self.search_mismatches} of {self.searches} "
                            f"searches returned a page union unequal to the "
                            f"brute-force filter")
        if self.udr.membership is not None and \
                self.udr.membership.stats.promotions:
            problems.append(f"{self.udr.membership.stats.promotions} "
                            f"promotions without any injected fault")
        if not self.sample.latencies:
            problems.append("the sample holds no completed operation")
        return problems
