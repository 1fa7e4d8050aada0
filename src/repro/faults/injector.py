"""The fault injector: applies scheduled and stochastic faults to a deployment.

The injector works against a :class:`~repro.core.udr.UDRNetworkFunction`: it
schedules partition incidents and site disasters at their configured times,
and (optionally) runs a stochastic crash/repair process over the storage
elements.  Everything is driven through simulation processes so faults
interleave naturally with traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.faults.corruption import (
    CorruptionReport,
    SilentCorruption,
    apply_corruption,
)
from repro.faults.failures import (
    ElementFailureProcess,
    PartitionIncident,
    SiteDisaster,
)


@dataclass
class FaultSchedule:
    """A declarative list of incidents to apply."""

    partitions: List[PartitionIncident] = field(default_factory=list)
    disasters: List[SiteDisaster] = field(default_factory=list)
    corruptions: List[SilentCorruption] = field(default_factory=list)

    def add_partition(self, incident: PartitionIncident) -> "FaultSchedule":
        self.partitions.append(incident)
        return self

    def add_disaster(self, disaster: SiteDisaster) -> "FaultSchedule":
        self.disasters.append(disaster)
        return self

    def add_corruption(self, corruption: SilentCorruption) -> "FaultSchedule":
        self.corruptions.append(corruption)
        return self

    @property
    def empty(self) -> bool:
        return not self.partitions and not self.disasters and \
            not self.corruptions

    def validate(self) -> "FaultSchedule":
        """Reject schedules with overlapping incidents on the same target.

        Two disasters on one site, or two partition incidents sharing an
        affected site, with intersecting ``[start, end)`` windows compose
        ambiguously (which heal wins?), and two identical corruptions are
        a double-injection -- all three are almost certainly authoring
        mistakes, so the injector refuses to start them.  Cross-category
        overlap (a partition during a disaster) stays legal: compound
        faults are exactly what chaos campaigns are for.
        """
        def overlapping(a_start, a_end, b_start, b_end) -> bool:
            return a_start < b_end and b_start < a_end

        by_site: dict = {}
        for disaster in self.disasters:
            for other in by_site.get(disaster.site_name, []):
                if overlapping(disaster.start, disaster.end,
                               other.start, other.end):
                    raise ValueError(
                        f"overlapping disasters on site "
                        f"{disaster.site_name!r}: [{other.start}, "
                        f"{other.end}) and [{disaster.start}, "
                        f"{disaster.end})")
            by_site.setdefault(disaster.site_name, []).append(disaster)
        for index, first in enumerate(self.partitions):
            for second in self.partitions[index + 1:]:
                if not overlapping(first.start, first.end,
                                   second.start, second.end):
                    continue
                shared = first.partition.affected_sites() & \
                    second.partition.affected_sites()
                if shared:
                    names = sorted(site.name for site in shared)
                    raise ValueError(
                        f"overlapping partition incidents share "
                        f"site(s) {names}")
        seen = set()
        for corruption in self.corruptions:
            key = (corruption.site_name, corruption.kind, corruption.at,
                   getattr(corruption, "target_key", None))
            if key in seen:
                raise ValueError(
                    f"duplicate corruption {corruption.kind!r} at "
                    f"t={corruption.at} on site {corruption.site_name!r}")
            seen.add(key)
        return self


class FaultInjector:
    """Applies a :class:`FaultSchedule` (and optional random crashes) to a UDR."""

    def __init__(self, udr, schedule: Optional[FaultSchedule] = None):
        self.udr = udr
        self.schedule = schedule or FaultSchedule()
        self.partitions_applied = 0
        self.disasters_applied = 0
        self.element_crashes = 0
        self.corruptions_applied = 0
        #: One report per scheduled corruption, in injection order --
        #: experiments read ``applied_at`` off these to measure how long
        #: the reconciler took to notice.
        self.corruption_reports: List[CorruptionReport] = []

    # -- scheduled incidents -------------------------------------------------------

    def start(self) -> None:
        """Schedule every incident of the fault schedule as a process.

        The schedule is validated first (:meth:`FaultSchedule.validate`),
        then spawned in a deterministic order: ascending start time, and
        within one tick a *seeded* shuffle (its own rng stream, so the
        draw count never perturbs traffic randomness).  Same-tick faults
        therefore fire in the same order on every run of a seed, while
        different seeds still explore different interleavings -- which is
        what makes chaos campaigns replayable.
        """
        self.schedule.validate()
        incidents = []
        for incident in self.schedule.partitions:
            incidents.append((
                incident.start, 0, incident.partition.name,
                self._run_partition(incident),
                f"fault:partition@{incident.start}"))
        for disaster in self.schedule.disasters:
            incidents.append((
                disaster.start, 1, disaster.site_name,
                self._run_disaster(disaster),
                f"fault:disaster:{disaster.site_name}"))
        for corruption in self.schedule.corruptions:
            incidents.append((
                corruption.at, 2, f"{corruption.kind}@{corruption.site_name}",
                self._run_corruption(corruption),
                f"fault:corruption:{corruption.kind}"
                f"@{corruption.site_name}"))
        incidents.sort(key=lambda item: (item[0], item[1], item[2]))
        rng = self.udr.sim.rng("faults.schedule-order")
        start = 0
        while start < len(incidents):
            end = start
            while end < len(incidents) and \
                    incidents[end][0] == incidents[start][0]:
                end += 1
            if end - start > 1:
                group = incidents[start:end]
                rng.shuffle(group)
                incidents[start:end] = group
            start = end
        for _, _, _, generator, name in incidents:
            self.udr.sim.process(generator, name=name)

    def _run_partition(self, incident: PartitionIncident):
        sim = self.udr.sim
        if incident.start > sim.now:
            yield from sim.hold(incident.start - sim.now)
        self.udr.network.apply_partition(incident.partition)
        self.partitions_applied += 1
        yield from sim.hold(incident.duration)
        self.udr.network.heal_partition(incident.partition)

    def _run_disaster(self, disaster: SiteDisaster):
        sim = self.udr.sim
        if disaster.start > sim.now:
            yield from sim.hold(disaster.start - sim.now)
        site = self.udr.topology.site(disaster.site_name)
        self.udr.network.fail_site(site)
        for poa in self.udr.points_of_access:
            if poa.site == site:
                poa.fail()
        affected_elements = [name for name, element in self.udr.elements.items()
                             if element.site == site]
        for name in affected_elements:
            self.udr.crash_element(name, auto_repair=False)
        self.disasters_applied += 1
        yield from sim.hold(disaster.duration)
        self.udr.network.restore_site(site)
        for poa in self.udr.points_of_access:
            if poa.site == site:
                poa.restore()
        for name in affected_elements:
            self.udr.recover_element(name)

    # -- silent corruption ---------------------------------------------------------

    def _run_corruption(self, corruption: SilentCorruption,
                        max_attempts: int = 200):
        """Apply one silent corruption at its scheduled time.

        ``skip_apply`` needs an open shipment window (committed records
        not yet applied on the slave); under live traffic one opens
        within a replication interval or two, so the process retries on
        that grid until it lands -- bounded so an idle deployment cannot
        leak a spinning process.
        """
        sim = self.udr.sim
        if corruption.at > sim.now:
            yield from sim.hold(corruption.at - sim.now)
        rng = sim.rng("faults.corruption")
        report = apply_corruption(self.udr, corruption, rng)
        attempts = 1
        while not report.applied and corruption.kind == "skip_apply" and \
                attempts < max_attempts:
            yield from sim.hold(self.udr.config.replication_interval)
            report = apply_corruption(self.udr, corruption, rng)
            attempts += 1
        if report.applied:
            self.corruptions_applied += 1
        self.corruption_reports.append(report)

    # -- stochastic element failures ----------------------------------------------------

    def run_element_failures(self, process: ElementFailureProcess,
                             horizon: float, element_names=None,
                             fail_over: Optional[bool] = None) -> int:
        """Schedule stochastic crashes for elements up to ``horizon``.

        Returns the number of crash events scheduled.  Each crash triggers
        the SAF manager (repair after the process' MTTR); when ``fail_over``
        is set the partitions mastered on the crashed element are failed over
        to a surviving copy immediately, as the real system would.

        ``fail_over=None`` (the default) is membership-aware: the oracle
        fail-over fires only when the deployment has *no* membership plane
        (``config.membership is None``) -- with the plane running, its
        lease-based detector is the component that notices the crash and
        drives the quorum promotion, so an instant oracle call would dodge
        exactly the machinery under test.  Pass an explicit ``True`` or
        ``False`` to override either way.
        """
        if fail_over is None:
            fail_over = getattr(self.udr, "membership", None) is None
        rng = self.udr.sim.rng("faults.element-failures")
        names = list(element_names or self.udr.elements)
        scheduled = 0
        for name in names:
            for crash_time in process.draw_failure_times(rng, horizon):
                self.udr.sim.process(
                    self._crash_later(name, crash_time, process.mttr,
                                      fail_over),
                    name=f"fault:crash:{name}@{crash_time:.0f}")
                scheduled += 1
        return scheduled

    def _crash_later(self, element_name: str, crash_time: float,
                     mttr: float, fail_over: bool):
        sim = self.udr.sim
        if crash_time > sim.now:
            yield from sim.hold(crash_time - sim.now)
        element = self.udr.elements[element_name]
        if not element.available:
            return
        component = self.udr.availability_manager.component(element_name)
        component.repair_time = mttr
        self.udr.availability_manager.fail_component(element_name,
                                                     auto_repair=True)
        self.element_crashes += 1
        if fail_over:
            self.udr.fail_over(element_name)

    def __repr__(self) -> str:
        return (f"<FaultInjector partitions={self.partitions_applied} "
                f"disasters={self.disasters_applied} "
                f"crashes={self.element_crashes} "
                f"corruptions={self.corruptions_applied}>")
