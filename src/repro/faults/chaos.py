"""Seeded chaos campaigns with an always-on invariant checker.

A :class:`ChaosCampaign` composes a randomized schedule of element
crashes, symmetric and asymmetric network partitions, site disasters and
(when the deployment runs a reconciler) silent corruptions from one
campaign seed, injects it into a live deployment, heals everything, lets
the system quiesce, and returns a :class:`CampaignReport`.  The same
``(simulation seed, campaign seed)`` pair always produces the same
incidents at the same ticks -- a failing campaign is a replayable bug
report, not an anecdote.

While the campaign runs, an :class:`InvariantChecker` watches the
deployment from below -- a tap on every partition copy's own commits plus
a periodic sweep -- and records violations of the safety properties the
membership plane exists to guarantee:

* **no split-brain writes** -- an origin commit by a copy that is not its
  partition's master at the instant of commit;
* **fenced promotions** -- every detector-triggered promotion found the
  deposed master already crashed or fenced;
* **single primary** -- never two unfenced, in-service primary copies of
  one partition;
* **no acked write lost after heal** -- every write acknowledged by a
  master whose record still exists durably *somewhere* reaches the final
  master (writes wiped by a crash before checkpoint or shipment are the
  modelled durability gap of asynchronous replication -- e05's subject --
  and are reported separately, not as violations);
* **convergence** -- replicas byte-identical to their master, locators
  resolving every identity, once the campaign heals and quiesces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.faults.corruption import SilentCorruption
from repro.faults.failures import PartitionIncident, SiteDisaster
from repro.faults.injector import FaultInjector, FaultSchedule
from repro.net.partition import NetworkPartition
from repro.sim import Interrupt
from repro.storage.wal import WalTap


@dataclass(frozen=True)
class InvariantViolation:
    """One observed violation of a campaign safety property."""

    kind: str
    detail: str
    at: float


@dataclass
class CampaignReport:
    """What one seeded campaign did and whether the invariants held."""

    seed: int
    incidents: List[str]
    duration: float
    origin_commits: int
    acked_tracked: int
    split_brain_writes: int
    acked_writes_lost: int
    crash_durability_gap: int
    replicas_converged: bool
    locators_converged: bool
    promotions: int
    violations: List[InvariantViolation] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "CLEAN" if self.clean else \
            f"{len(self.violations)} VIOLATION(S)"
        return (f"campaign seed={self.seed}: {len(self.incidents)} "
                f"incidents, {self.promotions} promotions, "
                f"{self.origin_commits} commits, "
                f"split_brain={self.split_brain_writes}, "
                f"acked_lost={self.acked_writes_lost} "
                f"(crash gap {self.crash_durability_gap}), "
                f"converged={self.replicas_converged and self.locators_converged}"
                f" -- {status}")


class InvariantChecker:
    """WAL-level and periodic safety checks over a live deployment."""

    def __init__(self, udr, check_interval: float = 0.25):
        self.udr = udr
        self.check_interval = check_interval
        self.violations: List[InvariantViolation] = []
        #: ``(partition, key)`` -> latest acked ``(position, element)``.
        self.acked: Dict[Tuple[int, str], Tuple[Tuple[int, int], str]] = {}
        self.origin_commits = 0
        self.split_brain_writes = 0
        self.acked_writes_lost = 0
        self.crash_durability_gap = 0
        self._taps: List[WalTap] = []
        self._promotions_checked = 0
        self._running = False
        self._process = None
        for index in sorted(udr.replica_sets):
            replica_set = udr.replica_sets[index]
            for element_name in replica_set.member_names:
                self._tap(index, replica_set, element_name)

    # -- commit-time checks -----------------------------------------------------

    def _tap(self, index: int, replica_set, element_name: str) -> None:
        def on_commit(record) -> None:
            self.origin_commits += 1
            if replica_set.master_element_name != element_name:
                self.split_brain_writes += 1
                self.violations.append(InvariantViolation(
                    kind="split_brain_write",
                    detail=(f"{element_name} committed seq "
                            f"{record.commit_seq} (epoch {record.epoch}) "
                            f"on partition {index} while "
                            f"{replica_set.master_element_name} was master"),
                    at=self.udr.sim.now))
            for operation in record.operations:
                self.acked[(index, operation.key)] = (record.position,
                                                      element_name)

        self._taps.append(
            replica_set.copy_on(element_name).tap_local_commits(on_commit))

    def close(self) -> None:
        for tap in self._taps:
            tap.close()
        self._taps = []

    # -- the periodic sweep ------------------------------------------------------

    def start(self):
        if self._running:
            return self._process
        self._running = True
        self._process = self.udr.sim.process(self._sweep(),
                                             name="chaos:invariants")
        return self._process

    def stop(self) -> None:
        self._running = False
        process, self._process = self._process, None
        if process is not None and process.is_alive:
            process.interrupt("invariant checker stopped")

    def _sweep(self):
        try:
            while self._running:
                yield self.udr.sim.timeout(self.check_interval)
                if not self._running:
                    return
                self.check_now()
        except Interrupt:
            return

    def check_now(self) -> None:
        """One synchronous pass of the structural invariants."""
        for index in sorted(self.udr.replica_sets):
            replica_set = self.udr.replica_sets[index]
            primaries = []
            for name in replica_set.member_names:
                copy = replica_set.copy_on(name)
                if copy.is_primary and not copy.transactions.fenced and \
                        replica_set.element(name).available:
                    primaries.append(name)
            if len(primaries) > 1:
                self.violations.append(InvariantViolation(
                    kind="dual_primary",
                    detail=(f"partition {index} has unfenced in-service "
                            f"primaries {primaries}"),
                    at=self.udr.sim.now))
        membership = getattr(self.udr, "membership", None)
        if membership is not None:
            history = membership.protocol.history
            for record in history[self._promotions_checked:]:
                if record.trigger == "detector" and \
                        record.old_master_fenced is False:
                    self.violations.append(InvariantViolation(
                        kind="unfenced_promotion",
                        detail=(f"partition {record.partition_index} "
                                f"promoted to {record.new_master} at epoch "
                                f"{record.epoch} while deposed master "
                                f"{record.old_master} was live and "
                                f"unfenced"),
                        at=record.at))
            self._promotions_checked = len(history)

    # -- final (post-heal) checks --------------------------------------------------

    def final_check(self) -> Tuple[bool, bool]:
        """Post-heal sweep; returns (replicas converged, locators converged).

        An acked write is *lost* when the final master of its partition
        holds no version of the key at or past the acked position **and**
        the originating copy's WAL still durably carries the record -- if
        the WAL lost it too, the write died in a crash before checkpoint
        or shipment, which is the known durability gap of asynchronous
        replication (reported in ``crash_durability_gap``), not a fencing
        bug.
        """
        self.check_now()
        for (index, key) in sorted(self.acked):
            position, element_name = self.acked[(index, key)]
            replica_set = self.udr.replica_sets[index]
            master_name = replica_set.master_element_name
            if master_name is None:
                continue
            newest = replica_set.copy_on(master_name).store.latest(key)
            if newest is not None and newest.position >= position:
                continue
            origin_copy = replica_set.copy_on(element_name)
            durable = any(
                record.position == position and
                any(operation.key == key
                    for operation in record.operations)
                for record in origin_copy.wal.records)
            if durable:
                self.acked_writes_lost += 1
                self.violations.append(InvariantViolation(
                    kind="acked_write_lost",
                    detail=(f"key {key!r} acked at position {position} on "
                            f"{element_name} (partition {index}) but the "
                            f"final master {master_name} tops out at "
                            f"{newest.position if newest else None}"),
                    at=self.udr.sim.now))
            else:
                self.crash_durability_gap += 1
        replicas = self._replicas_converged()
        locators = self._locators_converged()
        if not replicas:
            self.violations.append(InvariantViolation(
                kind="replica_divergence",
                detail="replica copies differ from master state after heal",
                at=self.udr.sim.now))
        if not locators:
            self.violations.append(InvariantViolation(
                kind="locator_divergence",
                detail="a locator cannot resolve a mastered identity",
                at=self.udr.sim.now))
        return replicas, locators

    def _replicas_converged(self) -> bool:
        for replica_set in self.udr.replica_sets.values():
            master = replica_set.master_element_name
            if master is None:
                return False
            master_store = replica_set.copy_on(master).store
            truth = {key: master_store.read_committed(key)
                     for key in master_store.keys()}
            for slave in replica_set.slave_names():
                store = replica_set.copy_on(slave).store
                state = {key: store.read_committed(key)
                         for key in store.keys()}
                if state != truth:
                    return False
        return True

    def _locators_converged(self) -> bool:
        # Imported here: the directory layer is a consumer-side check, not
        # a dependency of fault injection.
        from repro.directory.errors import (
            LocatorSyncInProgress,
            UnknownIdentity,
        )
        from repro.directory.locator import ProvisionedLocator
        for replica_set in self.udr.replica_sets.values():
            master = replica_set.master_element_name
            if master is None:
                return False
            store = replica_set.copy_on(master).store
            for key in store.keys():
                record = store.get(key)
                if not isinstance(record, dict) or "imsi" not in record:
                    continue
                for locator in self.udr.locators.values():
                    if not isinstance(locator, ProvisionedLocator):
                        continue
                    try:
                        locator.locate("imsi", record["imsi"])
                    except UnknownIdentity:
                        return False
                    except LocatorSyncInProgress:
                        continue
        return True


class ChaosCampaign:
    """One seeded, randomized fault schedule plus the invariant checker.

    Parameters
    ----------
    udr:
        A started :class:`~repro.core.udr.UDRNetworkFunction`.  Campaigns
        are built for membership-enabled deployments (the acked-write
        invariant relies on epoch fencing and the rejoin handoff); they
        run against oracle deployments too, but then crashes use the
        instant oracle fail-over.
    seed:
        Campaign seed.  Incident kinds, targets, times and durations all
        derive from ``sim.rng(f"chaos.campaign.{seed}")``, so the same
        simulation seed and campaign seed replay identically.
    duration:
        Fault window length (seconds of simulated time).  All incidents
        start inside the first 60% of it, so the tail end is already
        healing before :meth:`run`'s explicit heal.
    incidents:
        How many incidents to draw.
    """

    KINDS = ("crash", "partition", "asym_partition", "disaster")

    def __init__(self, udr, seed: int, duration: float = 20.0,
                 incidents: int = 4, check_interval: float = 0.25,
                 quiesce: float = 4.0):
        if duration <= 0:
            raise ValueError("campaign duration must be positive")
        if incidents < 1:
            raise ValueError("a campaign needs at least one incident")
        self.udr = udr
        self.seed = seed
        self.duration = duration
        self.incident_count = incidents
        self.quiesce = quiesce
        self.checker = InvariantChecker(udr, check_interval=check_interval)
        self.descriptions: List[str] = []
        self._crashes: List[Tuple[float, str, float]] = []
        self._schedule: Optional[FaultSchedule] = None

    # -- planning ---------------------------------------------------------------

    def plan(self) -> FaultSchedule:
        """Draw the incident schedule from the campaign seed."""
        if self._schedule is not None:
            return self._schedule
        rng = self.udr.sim.rng(f"chaos.campaign.{self.seed}")
        schedule = FaultSchedule()
        sites = list(self.udr.topology.sites)
        elements = sorted(self.udr.elements)
        window = self.duration * 0.6
        kinds = list(self.KINDS)
        if getattr(self.udr, "reconciler", None) is not None:
            kinds.append("corruption")
        busy: Dict[str, List[Tuple[float, float]]] = {}

        def reserve(names: List[str], start: float, end: float) -> bool:
            for name in names:
                for (other_start, other_end) in busy.get(name, []):
                    if start < other_end and other_start < end:
                        return False
            for name in names:
                busy.setdefault(name, []).append((start, end))
            return True

        drawn = 0
        attempts = 0
        while drawn < self.incident_count and attempts < 200:
            attempts += 1
            kind = rng.choice(kinds)
            start = round(rng.uniform(0.5, max(window, 0.6)), 3)
            length = round(rng.uniform(1.0, max(self.duration * 0.3, 1.5)),
                           3)
            end = min(start + length, self.duration)
            if kind == "crash":
                element = rng.choice(elements)
                if not reserve([element], start, end):
                    continue
                self._crashes.append((start, element, end - start))
                self.descriptions.append(
                    f"t={start}: crash {element} (repair {end - start:.1f}s)")
            elif kind in ("partition", "asym_partition"):
                site = rng.choice(sites)
                if not reserve([f"site:{site.name}"], start, end):
                    continue
                if kind == "asym_partition":
                    partition = NetworkPartition.one_way(
                        site, name=f"chaos-oneway-{site.name}@{start}")
                    label = "one-way cut"
                else:
                    partition = NetworkPartition.isolating(
                        site, name=f"chaos-split-{site.name}@{start}")
                    label = "isolation"
                schedule.add_partition(PartitionIncident(
                    partition=partition, start=start, duration=end - start))
                self.descriptions.append(
                    f"t={start}: {label} of {site.name} for "
                    f"{end - start:.1f}s")
            elif kind == "disaster":
                site = rng.choice(sites)
                if not reserve([f"site:{site.name}"], start, end):
                    continue
                schedule.add_disaster(SiteDisaster(
                    site_name=site.name, start=start, duration=end - start))
                self.descriptions.append(
                    f"t={start}: disaster at {site.name} for "
                    f"{end - start:.1f}s")
            else:  # corruption (only drawn when a reconciler runs)
                site = rng.choice(sites)
                index = rng.choice(sorted(self.udr.replica_sets))
                if not reserve([f"corrupt:{site.name}:{index}"],
                               start, start + 0.001):
                    continue
                schedule.add_corruption(SilentCorruption(
                    site.name, index, "byte_flip", at=start))
                self.descriptions.append(
                    f"t={start}: byte flip on partition {index} at "
                    f"{site.name}")
            drawn += 1
        schedule.validate()
        self._schedule = schedule
        return schedule

    # -- running ----------------------------------------------------------------

    def run(self) -> CampaignReport:
        """Inject the planned schedule, heal, quiesce, and report.

        The caller owns the workload: start traffic processes before
        calling ``run`` (or run a silent campaign -- the structural
        invariants still apply).  Simulated time advances by
        ``duration + quiesce`` plus the longest repair overhang.
        """
        sim = self.udr.sim
        schedule = self.plan()
        injector = FaultInjector(self.udr, schedule)
        start = sim.now
        self.checker.start()
        injector.start()
        for (at, element, repair) in self._crashes:
            sim.process(self._crash_later(at, element, repair),
                        name=f"chaos:crash:{element}@{at}")
        sim.run(until=start + self.duration)
        self._heal()
        sim.run(until=start + self.duration + self.quiesce)
        self.checker.stop()
        replicas, locators = self.checker.final_check()
        self.checker.close()
        membership = getattr(self.udr, "membership", None)
        return CampaignReport(
            seed=self.seed,
            incidents=list(self.descriptions),
            duration=sim.now - start,
            origin_commits=self.checker.origin_commits,
            acked_tracked=len(self.checker.acked),
            split_brain_writes=self.checker.split_brain_writes,
            acked_writes_lost=self.checker.acked_writes_lost,
            crash_durability_gap=self.checker.crash_durability_gap,
            replicas_converged=replicas,
            locators_converged=locators,
            promotions=(membership.stats.promotions
                        if membership is not None else 0),
            violations=list(self.checker.violations),
        )

    def _crash_later(self, at: float, element_name: str, repair: float):
        sim = self.udr.sim
        if at > sim.now:
            yield sim.timeout(at - sim.now)
        element = self.udr.elements.get(element_name)
        if element is None or not element.available:
            return
        component = self.udr.availability_manager.component(element_name)
        component.repair_time = repair
        self.udr.availability_manager.fail_component(element_name,
                                                     auto_repair=True)
        if getattr(self.udr, "membership", None) is None:
            # Oracle deployments have no detector; promote immediately,
            # as every pre-membership experiment did.
            self.udr.fail_over(element_name)

    def _heal(self) -> None:
        """End every fault: partitions, site failures, element crashes."""
        self.udr.network.clear_partitions()
        for site in self.udr.topology.sites:
            if self.udr.network.site_failed(site):
                self.udr.network.restore_site(site)
        for poa in self.udr.points_of_access:
            if not poa.available:
                poa.restore()
        for name, element in sorted(self.udr.elements.items()):
            if not element.available:
                self.udr.recover_element(name)


def run_campaigns(udr_factory, seeds, **campaign_options
                  ) -> List[CampaignReport]:
    """Run one fresh deployment + campaign per seed; returns the reports.

    ``udr_factory(seed)`` must return a *started* deployment (and may
    attach whatever workload it wants).  Used by the CI smoke job and the
    chaos tests; each campaign gets an isolated simulation, so a
    violation pins its seed exactly.
    """
    reports = []
    for seed in seeds:
        udr = udr_factory(seed)
        campaign = ChaosCampaign(udr, seed=seed, **campaign_options)
        reports.append(campaign.run())
        udr.stop()
    return reports
