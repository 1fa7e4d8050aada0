"""E23 — Online reconciliation: silent corruption under live traffic.

The paper's replication story guarantees convergence only for *delivered*
updates; nothing in the protocol notices state that drifts without a log
record -- a flipped replica byte, a lost locator entry, a shipment
acknowledged but never applied.  Operators meet all three in production,
which is why UDC deployments pair replication with an audit/reconciliation
plane.  This experiment injects exactly those three
:class:`~repro.faults.SilentCorruption` kinds into a deployment serving
live dispatcher traffic and measures what PR 8's CDC plane does about
them, across three arms on the same seeded trace (same deployment name,
so the network latency streams match):

* **reconciliation off** -- ``UDRConfig.cdc = None``: the PR 7 code path,
  bit for bit.  The baseline for result codes, final state and signalling
  latency;
* **on, clean** -- CDC stream + audit history + reconciler, nothing
  injected.  Must repair *nothing*, and must leave result codes and final
  replica state identical to the off arm: the plane observes, it never
  participates;
* **on, corrupted** -- the same trace with a byte flip, a locator drop
  and a skipped shipment apply landed mid-run.  Every corruption must be
  detected and repaired within two reconciliation rounds of its
  injection, replicas and locators must converge to the master state by
  the end, and signalling p99 must stay within 1.1x the off arm -- the
  reconciler's digest/repair work may not tax the serving path.

Detection latency is measured from each injection's
:class:`~repro.faults.CorruptionReport` (``applied_at``) to the first
matching :class:`~repro.cdc.reconcile.RepairAction` (``detected_at``),
i.e. the real exposure window of the drifted state.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.api.operations import Read, Write
from repro.core.config import CdcPolicy, ClientType, DispatchMode, UDRConfig
from repro.directory.errors import LocatorSyncInProgress, UnknownIdentity
from repro.directory.locator import ProvisionedLocator
from repro.experiments.common import (
    build_loaded_udr,
    drive,
    percentile,
    site_in_region,
)
from repro.experiments.runner import ExperimentResult
from repro.faults import (
    FaultInjector,
    FaultSchedule,
    SilentCorruption,
    apply_corruption,
)

HORIZON = 600.0
SIGNALLING_RATE = 100.0
RECONCILE_INTERVAL = 0.5
#: A corruption must be repaired within this many reconciliation rounds of
#: landing (one full round may already be in flight when it lands).
DETECTION_ROUNDS_BOUND = 2
#: Reserved subscribers (never written by the signalling trace), one per
#: corruption kind: drift on their records cannot be masked by a later
#: legitimate overwrite, so detection is attributable.
RESERVED = 3


def _home_site(udr, profile):
    try:
        return site_in_region(udr,
                              profile.current_region or profile.home_region)
    except KeyError:
        return udr.topology.sites[0]


def _build(seed: int, cdc: Optional[CdcPolicy]):
    config = UDRConfig(seed=seed, dispatch_mode=DispatchMode.DISPATCHER,
                       name="e23-recon", cdc=cdc)
    return build_loaded_udr(config, subscribers=48, seed=seed)


def _workload(udr, profiles, operations: int):
    """A read-heavy signalling mix over the non-reserved subscribers."""
    pairs = []
    for index in range(operations):
        profile = profiles[index % len(profiles)]
        site = _home_site(udr, profile)
        if index % 4 == 3:
            pairs.append((Write(profile.identities.imsi,
                                {"servingMsc": f"msc-{index}"}), site))
        else:
            pairs.append((Read(profile.identities.imsi), site))
    return pairs


def _arrivals(udr, stream: str, rate: float, pairs, submit, out: list):
    rng = udr.sim.rng(stream)
    for operation, site in pairs:
        yield from udr.sim.hold(rng.expovariate(rate))
        out.append(submit(operation, site))


def _partition_of_key(udr, key: str) -> int:
    for index, replica_set in udr.replica_sets.items():
        master = replica_set.master_element_name
        if master is not None and \
                key in replica_set.copy_on(master).store.keys():
            return index
    raise KeyError(f"{key!r} on no master store")


def _slave_site(udr, index: int) -> str:
    replica_set = udr.replica_sets[index]
    slave = replica_set.slave_names()[0]
    return udr.elements[slave].site.name


def _skip_apply_later(udr, corruption: SilentCorruption, key: str,
                      reports: list):
    """Open a shipment window on the reserved record, then swallow it."""
    sim = udr.sim
    yield from sim.hold(corruption.at - sim.now)
    replica_set = udr.replica_sets[corruption.partition_index]
    copy = replica_set.copy_on(replica_set.master_element_name)
    tx = copy.transactions.begin()
    tx.write(key, {"reservedMark": "pre-skip"})
    tx.commit(timestamp=sim.now)
    # The mux's wake is a scheduled process: the window stays open until
    # the simulation advances, so the swallow is deterministic.
    reports.append(apply_corruption(udr, corruption,
                                    sim.rng("e23.corruption")))


def _replicas_converged(udr) -> bool:
    for replica_set in udr.replica_sets.values():
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


def _locators_converged(udr) -> bool:
    for replica_set in udr.replica_sets.values():
        master = replica_set.master_element_name
        store = replica_set.copy_on(master).store
        for key in store.keys():
            record = store.get(key)
            if not isinstance(record, dict) or "imsi" not in record:
                continue
            for locator in udr.locators.values():
                if not isinstance(locator, ProvisionedLocator):
                    continue
                try:
                    locator.locate("imsi", record["imsi"])
                except UnknownIdentity:
                    return False
                except LocatorSyncInProgress:
                    continue
    return True


def _detection_latency(report, repairs) -> Optional[float]:
    """Injection -> first matching repair, or None when never repaired."""
    corruption = report.corruption
    for action in repairs:
        if action.detected_at < report.applied_at:
            continue
        if corruption.kind == "byte_flip":
            if action.kind == "value_restored" and \
                    action.key == report.key:
                return action.detected_at - report.applied_at
        elif corruption.kind == "locator_drop":
            if action.kind == "locator_registered" and any(
                    action.key == f"{identity_type}:{value}"
                    for identity_type, value in report.identities.items()):
                return action.detected_at - report.applied_at
        else:  # skip_apply
            if action.kind == "missing_versions" and \
                    action.element_name == report.element_name:
                return action.detected_at - report.applied_at
    return None


def _final_state(udr) -> Dict:
    state = {}
    for index, replica_set in udr.replica_sets.items():
        for member in replica_set.member_names:
            store = replica_set.copy_on(member).store
            state[(index, member)] = {key: store.read_committed(key)
                                      for key in store.keys()}
    return state


def _run_arm(seed: int, cdc: Optional[CdcPolicy], corrupt: bool,
             signalling_ops: int) -> Dict[str, object]:
    udr, profiles = _build(seed, cdc)
    working, reserved = profiles[:-RESERVED], profiles[-RESERVED:]
    pairs = _workload(udr, working, signalling_ops)
    clients = {site: udr.attach(f"hlr-fe-{site.name}", site,
                                client_type=ClientType.APPLICATION_FE)
               for site in udr.topology.sites}
    sessions = {site: client.session()
                for site, client in clients.items()}
    out: list = []
    arrivals = udr.sim.process(_arrivals(
        udr, "e23.sig", SIGNALLING_RATE, pairs,
        lambda op, site: sessions[site].submit(op), out))

    reports: list = []
    injector = None
    if corrupt:
        flip_key = f"sub:{reserved[0].identities.imsi}"
        drop_key = f"sub:{reserved[1].identities.imsi}"
        skip_key = f"sub:{reserved[2].identities.imsi}"
        flip_index = _partition_of_key(udr, flip_key)
        drop_index = _partition_of_key(udr, drop_key)
        skip_index = _partition_of_key(udr, skip_key)
        schedule = FaultSchedule() \
            .add_corruption(SilentCorruption(
                _slave_site(udr, flip_index), flip_index, "byte_flip",
                at=0.3, target_key=flip_key)) \
            .add_corruption(SilentCorruption(
                udr.elements[udr.replica_sets[drop_index]
                             .master_element_name].site.name,
                drop_index, "locator_drop", at=0.5, target_key=drop_key))
        injector = FaultInjector(udr, schedule)
        injector.start()
        udr.sim.process(_skip_apply_later(
            udr, SilentCorruption(_slave_site(udr, skip_index), skip_index,
                                  "skip_apply", at=0.7),
            skip_key, reports))

    start = udr.sim.now

    def drain_all():
        yield arrivals
        for session in sessions.values():
            yield from session.drain()

    drive(udr, drain_all(), horizon=HORIZON)
    # Let replication settle and the reconciler run its repair rounds.
    udr.sim.run_for(2.0 + 4 * RECONCILE_INTERVAL)
    if injector is not None:
        reports.extend(injector.corruption_reports)

    latencies = sorted(f.latency * 1000.0 for f in out)
    reconciler = getattr(udr, "reconciler", None)
    return {
        "codes": [f.response.result_code.name for f in out],
        "sig_p50_ms": percentile(latencies, 0.50),
        "sig_p99_ms": percentile(latencies, 0.99),
        "state": _final_state(udr),
        "reports": reports,
        "repairs": list(reconciler.repairs) if reconciler else [],
        "rounds": reconciler.rounds if reconciler else 0,
        "detected": udr.metrics.counter("reconciliation.detected"),
        "repaired": udr.metrics.counter("reconciliation.repaired"),
        "false_positives":
            udr.metrics.counter("reconciliation.false_positive"),
        "cdc_events": udr.metrics.counter("cdc.events"),
        "replicas_converged": _replicas_converged(udr),
        "locators_converged": _locators_converged(udr),
        "elapsed": udr.sim.now - start,
    }


def run(signalling_ops: int = 160, seed: int = 29) -> ExperimentResult:
    policy = CdcPolicy(reconcile_interval=RECONCILE_INTERVAL)
    off = _run_arm(seed, None, corrupt=False, signalling_ops=signalling_ops)
    clean = _run_arm(seed, policy, corrupt=False,
                     signalling_ops=signalling_ops)
    corrupted = _run_arm(seed, policy, corrupt=True,
                         signalling_ops=signalling_ops)

    applied = [report for report in corrupted["reports"] if report.applied]
    latencies = {report.corruption.kind:
                 _detection_latency(report, corrupted["repairs"])
                 for report in applied}
    all_applied = len(applied) == 3
    all_repaired = all(latency is not None for latency in latencies.values())
    bound = DETECTION_ROUNDS_BOUND * RECONCILE_INTERVAL + 0.1
    within_bound = all_repaired and all(
        latency <= bound for latency in latencies.values())
    p99_ratio = corrupted["sig_p99_ms"] / max(off["sig_p99_ms"], 1e-9)

    rows = []
    for label, arm in (("reconciliation off (PR 7 path)", off),
                       ("on, clean", clean),
                       ("on, corrupted", corrupted)):
        success = arm["codes"].count("SUCCESS") / max(len(arm["codes"]), 1)
        rows.append([
            label, round(success, 3), round(arm["sig_p50_ms"], 2),
            round(arm["sig_p99_ms"], 2), arm["rounds"], arm["detected"],
            arm["repaired"], arm["false_positives"],
        ])
    for kind in ("byte_flip", "locator_drop", "skip_apply"):
        latency = latencies.get(kind)
        rows.append([
            f"corruption: {kind}", "-", "-", "-", "-", "-",
            "repaired" if latency is not None else "MISSED",
            f"{latency:.2f} s" if latency is not None else "-",
        ])

    worst = max((latency for latency in latencies.values()
                 if latency is not None), default=0.0)
    return ExperimentResult(
        experiment_id="E23",
        title="Online reconciliation vs silent corruption under live traffic",
        paper_claim=("replication only converges what the commit logs "
                     "deliver; state that drifts without a log record -- "
                     "bit rot on a replica, a lost locator entry, a "
                     "shipment acknowledged but never applied -- stays "
                     "wrong forever unless an audit/reconciliation plane "
                     "closes the loop, and doing so must not tax the "
                     "latency-critical serving path"),
        headers=["arm / corruption", "success fraction", "sig p50 (ms)",
                 "sig p99 (ms)", "rounds", "detected", "repaired",
                 "false positives / latency"],
        rows=rows,
        finding=(f"all three injected corruption kinds are detected and "
                 f"repaired online, the slowest {worst:.2f} s after "
                 f"injection (bound: {DETECTION_ROUNDS_BOUND} rounds = "
                 f"{DETECTION_ROUNDS_BOUND * RECONCILE_INTERVAL:.1f} s); "
                 f"replicas and locators converge to master state by the "
                 f"end of the run; the clean reconciling arm repairs "
                 f"nothing and reproduces the off arm's result codes and "
                 f"final state exactly; signalling p99 with reconciliation "
                 f"running under corruption is "
                 f"{corrupted['sig_p99_ms']:.2f} ms vs "
                 f"{off['sig_p99_ms']:.2f} ms without the plane "
                 f"({p99_ratio:.2f}x)"),
        notes={
            "all_corruptions_applied": all_applied,
            "all_corruptions_repaired": all_repaired,
            "detection_within_bound": within_bound,
            "worst_detection_latency_s": round(worst, 3),
            "detection_bound_s": round(bound, 2),
            "replicas_converged_after_repair":
                corrupted["replicas_converged"],
            "locators_converged_after_repair":
                corrupted["locators_converged"],
            "clean_arm_repairs_nothing": clean["repaired"] == 0,
            "off_arm_bit_identical":
                clean["codes"] == off["codes"]
                and clean["state"] == off["state"],
            "sig_p99_off_ms": round(off["sig_p99_ms"], 2),
            "sig_p99_corrupted_ms": round(corrupted["sig_p99_ms"], 2),
            "sig_p99_ratio": round(p99_ratio, 3),
            "p99_within_1_1x_off": p99_ratio <= 1.1,
            "cdc_events_clean": clean["cdc_events"],
            "false_positives_corrupted": corrupted["false_positives"],
        },
    )
