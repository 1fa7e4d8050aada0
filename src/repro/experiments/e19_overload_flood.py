"""E19 — Overload armor: admission quotas, deadlines and shed under a flood.

The paper's capacity story (sections 2.3/4.1) assumes the UDR is *offered*
no more than it can drain; a real provisioning campaign does not read the
capacity plan.  This experiment sweeps the offered flood load from half the
measured drain capacity to 4x it and compares three arms on the same seeded
arrival trace (same deployment name, so the network latency streams match):

* **raw (PR 6)** -- sourceless dispatcher tickets, no sessions, no QoS:
  exactly the pre-armor behaviour.  Under overload the queue grows without
  bound, every wave is full of flood writes, and signalling drowns;
* **sessions, no QoS** -- the equivalence arm: quota off, shed off, empty
  profiles.  Result codes and signalling p99 must match the raw arm
  bit-for-bit (the armor is pay-for-what-you-arm);
* **armored** -- the full control loop.  The flood client carries a
  token-bucket :class:`~repro.core.config.RateLimit` (half the drain
  capacity, small burst), ``Priority.BULK`` and a deadline budget; the
  deployment arms :class:`~repro.core.config.ShedPolicy`.  Over-quota work
  is answered ``BUSY`` at ``session.submit`` before it can queue, queued
  flood that outlives its budget is expired *at the deadline* by the
  dispatcher's early-wake timeout (never later than one sim tick past it),
  and sustained depth trips shed mode (bulk deferred from wave membership,
  reads allowed onto slaves).

**Goodput** counts only useful answers: ``SUCCESS`` completions within
:data:`GOOD_LATENCY` of submission.  An overloaded system that eventually
answers everything late has throughput but no goodput -- which is why the
raw arm collapses past saturation while the armored arm holds.

The acceptance bar (the PR's gate): at the 2x-capacity point the armored
arm's goodput is >= 1.5x the raw arm's, its signalling p99 stays within
1.5x of the uncontended (no-flood) run, no expired ticket is answered later
than ``deadline + one sim tick``, and the no-QoS arm is bit-identical to
raw at every load point.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.api.operations import Read, Write
from repro.api.qos import DEADLINE_TICK, QoSProfile
from repro.core.config import (
    ClientType,
    DispatchMode,
    Priority,
    RateLimit,
    ShedPolicy,
    UDRConfig,
)
from repro.experiments.common import (
    build_loaded_udr,
    drive,
    percentile,
    site_in_region,
)
from repro.experiments.runner import ExperimentResult

#: Virtual seconds the whole simulated run may take before we give up.
HORIZON = 7200.0
SIGNALLING_RATE = 100.0
#: A completion slower than this is not goodput: the serving front-end has
#: long since timed out the subscriber-facing procedure it was part of.
GOOD_LATENCY = 0.25
#: The deployment's linger budget: e16's throughput-tuned setting at
#: saturation.  Bulk-only waves shorter than the linger hide entirely
#: inside it from signalling's point of view, which is what lets the
#: armored arm hold signalling at the uncontended latency.
LINGER_TICKS = 50
#: The armored flood's completion budget (ticks of DEADLINE_TICK) -- one
#: linger window: flood the dispatcher cannot board promptly is answered
#: at its deadline instead of stretching the queue.
FLOOD_DEADLINE_TICKS = 50
#: The armored flood's admission quota, as a fraction of drain capacity:
#: the rest stays reserved for signalling and wave-formation headroom.
FLOOD_QUOTA_FRACTION = 0.25


def _home_site(udr, profile):
    try:
        return site_in_region(udr,
                              profile.current_region or profile.home_region)
    except KeyError:
        return udr.topology.sites[0]


def _workload(udr, profiles, signalling_ops: int, flood_ops: int):
    """(operation, site) streams: live signalling plus a provisioning flood."""
    signalling = []
    for index in range(signalling_ops):
        profile = profiles[index % len(profiles)]
        site = _home_site(udr, profile)
        if index % 3 == 2:
            signalling.append((Write(profile.identities.imsi,
                                     {"servingMsc": f"msc-{index}"}), site))
        else:
            signalling.append((Read(profile.identities.imsi), site))
    ps_site = udr.topology.sites[0]
    flood = [(Write(profiles[(index * 7) % len(profiles)].identities.imsi,
                    {"svcBarPremium": bool(index % 2)}), ps_site)
             for index in range(flood_ops)]
    return signalling, flood


def _build(seed: int, armored: bool):
    """One deployment per run; every arm shares the name (latency streams).

    The shed policy trips at a queue depth just past what signalling alone
    sustains, so any flood backlog flips the deployment into degrade mode
    -- bulk deferred out of signalling's waves, reads allowed onto slaves
    -- and hysteresis holds it there until admission has squeezed the
    queue back down.
    """
    config = UDRConfig(
        seed=seed, dispatch_mode=DispatchMode.DISPATCHER,
        batch_linger_ticks=LINGER_TICKS, name="e19-flood",
        shed_policy=ShedPolicy(alpha=0.5, trip_depth=8.0, clear_depth=2.0)
        if armored else None)
    return build_loaded_udr(config, subscribers=60, seed=seed)


def _arrivals(udr, stream: str, rate: float, pairs, submit, out: list):
    """Generator: Poisson arrivals of ``pairs`` through ``submit``."""
    rng = udr.sim.rng(stream)
    for operation, site in pairs:
        yield from udr.sim.hold(rng.expovariate(rate))
        out.append(submit(operation, site))


def _collect(start: float, sig_out, flood_out) -> Dict[str, object]:
    """Outcome statistics of one run (both handle kinds quack alike)."""
    def code(handle):
        return handle.response.result_code.name

    completions = [handle.completed_at for handle in sig_out + flood_out
                   if handle.completed_at is not None]
    elapsed = max(completions) - start if completions else 0.0
    good = sum(1 for handle in sig_out + flood_out
               if code(handle) == "SUCCESS"
               and handle.latency <= GOOD_LATENCY)
    sig_latencies = sorted(handle.latency * 1000.0 for handle in sig_out)
    flood_codes = [code(handle) for handle in flood_out]
    offered = len(flood_codes)
    return {
        "goodput": good / elapsed if elapsed else 0.0,
        "sig_p50_ms": percentile(sig_latencies, 0.50),
        "sig_p99_ms": percentile(sig_latencies, 0.99),
        "rejected_fraction": (flood_codes.count("BUSY") / offered
                              if offered else 0.0),
        "expired_fraction": (flood_codes.count("TIME_LIMIT_EXCEEDED")
                             / offered if offered else 0.0),
        "codes": [code(handle) for handle in sig_out] + flood_codes,
    }


def _late_expiries(futures) -> int:
    """Expired answers later than ``deadline + one sim tick`` (must be 0)."""
    late = 0
    for future in futures:
        if future.response is None or future.deadline is None:
            continue
        if future.response.result_code.name != "TIME_LIMIT_EXCEEDED":
            continue
        if future.completed_at > future.deadline + DEADLINE_TICK + 1e-9:
            late += 1
    return late


def _measure_capacity(seed: int, operations: int = 160) -> float:
    """Drain rate of a standing flood queue: the capacity the sweep is
    offered multiples of."""
    config = UDRConfig(seed=seed, dispatch_mode=DispatchMode.DISPATCHER,
                       batch_linger_ticks=LINGER_TICKS, name="e19-capacity")
    udr, profiles = build_loaded_udr(config, subscribers=60, seed=seed)
    _signalling, flood = _workload(udr, profiles, 0, operations)
    start = udr.sim.now
    tickets = [udr.dispatcher.submit(operation.to_request(),
                                     ClientType.PROVISIONING, site)
               for operation, site in flood]

    def wait_all():
        yield udr.sim.all_of([ticket.event for ticket in tickets])

    drive(udr, wait_all(), horizon=HORIZON)
    return operations / (max(t.completed_at for t in tickets) - start)


def _run_raw(signalling_ops: int, flood_ops: int,
             seed: int) -> Dict[str, object]:
    """The PR 6 baseline: sourceless QoS-less dispatcher tickets."""
    udr, profiles = _build(seed, armored=False)
    signalling, flood = _workload(udr, profiles, signalling_ops, flood_ops)
    sig_out: list = []
    flood_out: list = []
    sig_proc = udr.sim.process(_arrivals(
        udr, "e19.sig", SIGNALLING_RATE, signalling,
        lambda op, site: udr.dispatcher.submit(
            op.to_request(), ClientType.APPLICATION_FE, site), sig_out))
    flood_rate = flood_ops * SIGNALLING_RATE / max(signalling_ops, 1)
    flood_proc = udr.sim.process(_arrivals(
        udr, "e19.flood", flood_rate, flood,
        lambda op, site: udr.dispatcher.submit(
            op.to_request(), ClientType.PROVISIONING, site), flood_out))
    start = udr.sim.now

    def drain_all():
        yield udr.sim.all_of([sig_proc, flood_proc])
        if sig_out or flood_out:
            yield udr.sim.all_of([ticket.event
                                  for ticket in sig_out + flood_out])

    drive(udr, drain_all(), horizon=HORIZON)
    return _collect(start, sig_out, flood_out)


def _run_sessions(signalling_ops: int, flood_ops: int, seed: int,
                  flood_qos: Optional[QoSProfile]) -> Dict[str, object]:
    """The sessioned arms.

    ``flood_qos=None`` is the pure-equivalence arm (quota off, shed off,
    empty profiles -- must match the raw arm bit-for-bit); an armored
    profile also arms the deployment's shed policy.
    """
    udr, profiles = _build(seed, armored=flood_qos is not None)
    signalling, flood = _workload(udr, profiles, signalling_ops, flood_ops)
    sig_clients = {site: udr.attach(f"hlr-fe-{site.name}", site)
                   for site in udr.topology.sites}
    sig_sessions = {site: client.session()
                    for site, client in sig_clients.items()}
    ps_client = udr.attach("bulk-ps", udr.topology.sites[0],
                           client_type=ClientType.PROVISIONING,
                           qos=flood_qos)
    ps_session = ps_client.session()
    sig_out: list = []
    flood_out: list = []
    sig_proc = udr.sim.process(_arrivals(
        udr, "e19.sig", SIGNALLING_RATE, signalling,
        lambda op, site: sig_sessions[site].submit(op), sig_out))
    flood_rate = flood_ops * SIGNALLING_RATE / max(signalling_ops, 1)
    flood_proc = udr.sim.process(_arrivals(
        udr, "e19.flood", flood_rate, flood,
        lambda op, _site: ps_session.submit(op), flood_out))
    start = udr.sim.now

    def drain_all():
        yield udr.sim.all_of([sig_proc, flood_proc])
        for session in list(sig_sessions.values()) + [ps_session]:
            yield from session.drain()

    drive(udr, drain_all(), horizon=HORIZON)
    stats = _collect(start, sig_out, flood_out)
    stats["late_expiries"] = _late_expiries(flood_out)
    stats["shed_activations"] = udr.metrics.counter(
        "dispatcher.shed.activations")
    stats["admission_rejected"] = udr.metrics.counter(
        "api.admission.rejected")
    return stats


def run(load_multipliers: Tuple[float, ...] = (0.5, 1.0, 2.0, 4.0),
        signalling_ops: int = 100, seed: int = 23) -> ExperimentResult:
    capacity = _measure_capacity(seed)
    window = signalling_ops / SIGNALLING_RATE
    flood_quota = RateLimit(
        rate_per_second=capacity * FLOOD_QUOTA_FRACTION,
        burst=8)
    armored_qos = QoSProfile(priority=Priority.BULK,
                             deadline_ticks=FLOOD_DEADLINE_TICKS,
                             rate_limit=flood_quota)

    # The uncontended reference: the armored deployment serving signalling
    # alone.  The 1.5x p99 bar is measured against this run.
    uncontended = _run_sessions(signalling_ops, 0, seed, armored_qos)

    rows = []
    equivalence_ok = True
    late_expiries = 0
    by_multiplier: Dict[float, Dict[str, Dict[str, object]]] = {}
    for multiplier in load_multipliers:
        flood_ops = int(round(multiplier * capacity * window))
        raw = _run_raw(signalling_ops, flood_ops, seed)
        plain = _run_sessions(signalling_ops, flood_ops, seed, None)
        armored = _run_sessions(signalling_ops, flood_ops, seed, armored_qos)
        equivalence_ok &= (plain["codes"] == raw["codes"]
                           and abs(plain["sig_p99_ms"] - raw["sig_p99_ms"])
                           < 1e-6)
        late_expiries += armored["late_expiries"]
        by_multiplier[multiplier] = {"raw": raw, "armored": armored}
        for label, stats in (("raw (PR 6)", raw),
                             ("sessions, no QoS", plain),
                             ("armored", armored)):
            rows.append([
                f"{multiplier:g}x", label,
                round(stats["goodput"], 1),
                round(stats["sig_p99_ms"], 1),
                round(stats["rejected_fraction"], 3),
                round(stats["expired_fraction"], 3),
                stats.get("shed_activations", "-"),
            ])

    two_x = by_multiplier.get(2.0) or by_multiplier[max(by_multiplier)]
    goodput_gain = (two_x["armored"]["goodput"]
                    / max(two_x["raw"]["goodput"], 1e-9))
    p99_ratio = (two_x["armored"]["sig_p99_ms"]
                 / max(uncontended["sig_p99_ms"], 1e-9))
    worst = by_multiplier[max(by_multiplier)]
    return ExperimentResult(
        experiment_id="E19",
        title="Overload armor: quotas + deadlines + shed vs an unbounded flood",
        paper_claim=("the UDR must hold its signalling latency budget "
                     "(section 2.3's 10 ms target) even when provisioning "
                     "is offered faster than the engineered drain rate "
                     "(section 4.1); admission control has to answer the "
                     "excess at the front door, not let it queue"),
        headers=["offered load", "arm", "goodput (ops/s)",
                 "signalling p99 (ms)", "rejected@admission",
                 "expired-in-queue", "shed trips"],
        rows=rows,
        finding=(f"drain capacity measures {capacity:.0f} ops/s; at 2x "
                 f"offered load the raw arm's goodput collapses to "
                 f"{two_x['raw']['goodput']:.0f} ops/s (signalling p99 "
                 f"{two_x['raw']['sig_p99_ms']:.0f} ms) while the armored "
                 f"arm holds {two_x['armored']['goodput']:.0f} ops/s "
                 f"({goodput_gain:.1f}x) with signalling p99 at "
                 f"{two_x['armored']['sig_p99_ms']:.1f} ms -- "
                 f"{p99_ratio:.2f}x the uncontended "
                 f"{uncontended['sig_p99_ms']:.1f} ms; the quota answers "
                 f"{two_x['armored']['rejected_fraction']:.0%} of the flood "
                 f"BUSY at admission and every queue expiry lands within "
                 f"one tick of its deadline"),
        notes={
            "capacity_ops": round(capacity, 1),
            "goodput_armored_at_2x": round(two_x["armored"]["goodput"], 1),
            "goodput_raw_at_2x": round(two_x["raw"]["goodput"], 1),
            "goodput_gain_at_2x": round(goodput_gain, 2),
            "goodput_gain_1_5x": goodput_gain >= 1.5,
            "sig_p99_uncontended_ms": round(uncontended["sig_p99_ms"], 1),
            "sig_p99_armored_at_2x_ms":
                round(two_x["armored"]["sig_p99_ms"], 1),
            "sig_p99_within_1_5x_uncontended": p99_ratio <= 1.5,
            "late_expiries": late_expiries,
            "expiry_within_one_tick": late_expiries == 0,
            "no_qos_bit_identical_to_raw": equivalence_ok,
            "rejected_fraction_at_4x":
                round(worst["armored"]["rejected_fraction"], 3),
            "expired_fraction_at_4x":
                round(worst["armored"]["expired_fraction"], 3),
            "shed_tripped_at_4x":
                worst["armored"]["shed_activations"] > 0,
        },
    )
