"""E18 — Session QoS: deadline + priority protect signalling under floods.

The session API (PR 5) moves QoS from the global config to the client:
``udr.attach(name, site, qos=...)`` gives each caller a typed handle whose
:class:`~repro.api.qos.QoSProfile` (priority class, retry policy,
**deadline ticks**) rides every operation through dispatcher wave formation
and the pipeline's retry stage.  This experiment measures what that buys in
the paper's nightmare scenario (section 3.3/4.1): a provisioning flood
arriving an order of magnitude faster than the UDR drains it, while live
signalling traffic must keep its latency budget.

Five runs over one seeded trace (same arrival processes, same deployment
name so the network latency streams match):

* **legacy** -- both streams enter as raw sourceless dispatcher tickets
  (``udr.dispatcher.submit`` with no source tag): no sessions, no QoS,
  the flood rides the default provisioning class and fills every wave it
  can;
* **session, no QoS** -- the same trace through sessions with empty
  profiles: the equivalence row (result codes must match legacy exactly);
* **session + priority** -- the flood attaches as ``Priority.BULK``
  (weight 1 vs signalling's 4), so wave membership starves it politely;
* **session + priority + deadline** (two budgets) -- flood operations
  also carry ``deadline_ticks``: whatever still sits in the dispatch
  queue past its budget is answered ``TIME_LIMIT_EXCEEDED`` at wave
  formation *without consuming a wave slot or a pipeline hop*, so the
  queue collapses to live work and signalling latency drops to the
  uncontended regime.

The acceptance bar (the PR's gate): signalling p99 with deadline+priority
QoS improves >= 2x over the undifferentiated legacy path, and the no-QoS
session run answers bit-identical result codes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.api.operations import Read, Write
from repro.api.qos import QoSProfile
from repro.core.config import (
    ClientType,
    DispatchMode,
    Priority,
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
SIGNALLING_RATE = 150.0
FLOOD_RATE = 2500.0


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


def _build(seed: int, linger_ticks: int):
    config = UDRConfig(seed=seed, dispatch_mode=DispatchMode.DISPATCHER,
                       batch_linger_ticks=linger_ticks, name="e18-mixed")
    return build_loaded_udr(config, subscribers=60, seed=seed)


def _arrivals(udr, stream: str, rate: float, pairs, submit, out: list):
    """Generator: Poisson arrivals of ``pairs`` through ``submit``."""
    rng = udr.sim.rng(stream)
    for operation, site in pairs:
        yield from udr.sim.hold(rng.expovariate(rate))
        out.append(submit(operation, site))


def _latency_ms(handle) -> float:
    # Legacy DispatchTickets and session ResponseFutures both expose the
    # client-perceived span; normalise to milliseconds.
    return handle.latency * 1000.0


def _collect(udr, sig_out, flood_out) -> Dict[str, object]:
    latencies = sorted(_latency_ms(handle) for handle in sig_out)
    sig_codes = [handle.response.result_code.name for handle in sig_out]
    flood_codes = [handle.response.result_code.name for handle in flood_out]
    expired = sum(1 for code in flood_codes
                  if code == "TIME_LIMIT_EXCEEDED")
    return {
        "p50_ms": percentile(latencies, 0.50),
        "p99_ms": percentile(latencies, 0.99),
        "sig_ok": sum(1 for code in sig_codes if code == "SUCCESS"),
        "flood_completed": len(flood_codes) - expired,
        "flood_expired": expired,
        "codes": sig_codes + flood_codes,
    }


def _wait_all(udr, session_like) -> None:
    drive(udr, session_like.drain(), horizon=HORIZON)


def _run_legacy(signalling_ops: int, flood_ops: int, seed: int,
                linger_ticks: int) -> Dict[str, object]:
    """The undifferentiated path: sourceless, QoS-less dispatcher tickets.

    Each request goes straight to ``udr.dispatcher.submit``: raw tickets
    with per-ticket events, no sessions, no priority override, no deadline
    -- the baseline every sessioned row is compared against.
    """
    udr, profiles = _build(seed, linger_ticks)
    signalling, flood = _workload(udr, profiles, signalling_ops, flood_ops)
    sig_out: list = []
    flood_out: list = []
    sig_proc = udr.sim.process(_arrivals(
        udr, "e18.sig", SIGNALLING_RATE, signalling,
        lambda op, site: udr.dispatcher.submit(op.to_request(),
                                               ClientType.APPLICATION_FE,
                                               site),
        sig_out))
    flood_proc = udr.sim.process(_arrivals(
        udr, "e18.flood", FLOOD_RATE, flood,
        lambda op, site: udr.dispatcher.submit(op.to_request(),
                                               ClientType.PROVISIONING, site),
        flood_out))
    drive(udr, _drain_events(udr, sig_proc, flood_proc, sig_out, flood_out),
          horizon=HORIZON)
    return _collect(udr, sig_out, flood_out)


def _drain_events(udr, sig_proc, flood_proc, sig_out, flood_out):
    """Generator: wait for both arrival processes, then every ticket."""
    yield udr.sim.all_of([sig_proc, flood_proc])
    yield udr.sim.all_of([ticket.event for ticket in sig_out + flood_out])


def _run_sessions(signalling_ops: int, flood_ops: int, seed: int,
                  linger_ticks: int,
                  flood_qos: Optional[QoSProfile]) -> Dict[str, object]:
    """The sessioned path; ``flood_qos=None`` is the pure-equivalence row."""
    udr, profiles = _build(seed, linger_ticks)
    signalling, flood = _workload(udr, profiles, signalling_ops, flood_ops)
    # One signalling client per site, mirroring real per-region front-ends;
    # one bulk provisioning client carrying the flood's QoS profile.
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
        udr, "e18.sig", SIGNALLING_RATE, signalling,
        lambda op, site: sig_sessions[site].submit(op), sig_out))
    flood_proc = udr.sim.process(_arrivals(
        udr, "e18.flood", FLOOD_RATE, flood,
        lambda op, _site: ps_session.submit(op), flood_out))

    def drain_all():
        yield udr.sim.all_of([sig_proc, flood_proc])
        for session in list(sig_sessions.values()) + [ps_session]:
            yield from session.drain()

    drive(udr, drain_all(), horizon=HORIZON)
    return _collect(udr, sig_out, flood_out)


def run(deadline_budgets: Tuple[int, ...] = (100, 25),
        signalling_ops: int = 120, flood_ops: int = 600,
        linger_ticks: int = 5, seed: int = 21) -> ExperimentResult:
    legacy = _run_legacy(signalling_ops, flood_ops, seed, linger_ticks)
    no_qos = _run_sessions(signalling_ops, flood_ops, seed, linger_ticks,
                           flood_qos=None)
    # The priority-only run is its own row (not part of the deadline
    # sweep): it isolates how much the admission class buys without load
    # shedding, and anchors the finding text.
    priority_only = _run_sessions(
        signalling_ops, flood_ops, seed, linger_ticks,
        flood_qos=QoSProfile(priority=Priority.BULK))
    rows = [
        ["legacy shim", "-", "-", round(legacy["p50_ms"], 1),
         round(legacy["p99_ms"], 1), legacy["flood_completed"],
         legacy["flood_expired"]],
        ["session, no QoS", "-", "-", round(no_qos["p50_ms"], 1),
         round(no_qos["p99_ms"], 1), no_qos["flood_completed"],
         no_qos["flood_expired"]],
        ["session + QoS", "bulk", "-", round(priority_only["p50_ms"], 1),
         round(priority_only["p99_ms"], 1),
         priority_only["flood_completed"],
         priority_only["flood_expired"]],
    ]
    best_p99 = priority_only["p99_ms"]
    for deadline_ticks in deadline_budgets:
        qos = QoSProfile(priority=Priority.BULK,
                         deadline_ticks=deadline_ticks)
        result = _run_sessions(signalling_ops, flood_ops, seed, linger_ticks,
                               flood_qos=qos)
        rows.append(["session + QoS", "bulk", deadline_ticks,
                     round(result["p50_ms"], 1), round(result["p99_ms"], 1),
                     result["flood_completed"], result["flood_expired"]])
        best_p99 = min(best_p99, result["p99_ms"])
    improvement = legacy["p99_ms"] / best_p99 if best_p99 else 0.0
    priority_only_p99 = priority_only["p99_ms"]
    return ExperimentResult(
        experiment_id="E18",
        title="Session QoS: deadlines + priority under a provisioning flood",
        paper_claim=("live signalling must hold its latency budget while "
                     "provisioning arrives in bursts an order of magnitude "
                     "above the drain rate (sections 3.3/4.1); the paper "
                     "splits the clients, the session API splits their QoS"),
        headers=["path", "flood priority", "flood deadline (ticks)",
                 "signalling p50 (ms)", "signalling p99 (ms)",
                 "flood completed", "flood expired"],
        rows=rows,
        finding=(f"under a {FLOOD_RATE:g}/s provisioning flood the "
                 f"undifferentiated legacy path drags signalling p99 to "
                 f"{legacy['p99_ms']:.0f} ms; the bulk priority class alone "
                 f"({priority_only_p99:.0f} ms p99) cannot help while waves "
                 f"have spare capacity for flood writes, but adding a "
                 f"deadline budget expires the queued flood at wave "
                 f"formation -- zero pipeline hops -- and signalling p99 "
                 f"drops to {best_p99:.0f} ms ({improvement:.1f}x better, "
                 f"p50 from {legacy['p50_ms']:.0f} ms to single-digit ms)"),
        notes={
            "signalling_p99_legacy_ms": round(legacy["p99_ms"], 1),
            "signalling_p99_best_qos_ms": round(best_p99, 1),
            "signalling_p99_improvement": round(improvement, 2),
            "p99_improved_2x": improvement >= 2.0,
            "no_qos_codes_match_legacy": no_qos["codes"] == legacy["codes"],
            "no_qos_p99_matches_legacy":
                abs(no_qos["p99_ms"] - legacy["p99_ms"]) < 1e-6,
            "signalling_all_ok":
                legacy["sig_ok"] == signalling_ops
                and no_qos["sig_ok"] == signalling_ops,
        },
    )
