"""Client sessions and QoS: protecting signalling from a provisioning flood.

Run with::

    python examples/session_qos.py

Every workload enters the UDR through the session API: attach a named
client (``udr.attach``), open a session, issue typed operations
(``Read``/``Search``/``Write``/``Provision``) and collect response futures.
The per-session :class:`~repro.api.qos.QoSProfile` is the point of this
example: a bulk provisioning client carrying ``priority=BULK`` and a
``deadline_ticks`` budget floods the deployment while a signalling client
keeps issuing live reads -- with QoS the dispatcher answers the expired
flood ``TIME_LIMIT_EXCEEDED`` at wave formation (zero pipeline hops) and
signalling latency stays in the uncontended regime.  Experiment E18
measures the same scenario with its full sweep.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import Provision, QoSProfile, Read, Write
from repro.core import (
    ClientType,
    DispatchMode,
    Priority,
    UDRConfig,
    UDRNetworkFunction,
)
from repro.metrics import format_table
from repro.subscriber import SubscriberGenerator

SIGNALLING_OPS = 80
FLOOD_OPS = 400


def build(name):
    config = UDRConfig(seed=7, dispatch_mode=DispatchMode.DISPATCHER,
                       batch_linger_ticks=5, name=name)
    udr = UDRNetworkFunction(config)
    udr.start()
    profiles = SubscriberGenerator(config.regions, seed=7).generate(48)
    udr.load_subscriber_base(profiles)
    return udr, profiles


def drive(udr, generator):
    process = udr.sim.process(generator)
    udr.sim.run_until_triggered(process, limit=udr.sim.now + 3600.0)
    return process.value


def percentile(values, fraction):
    values = sorted(values)
    index = min(len(values) - 1, round(fraction * (len(values) - 1)))
    return values[index]


def run_flooded(flood_qos, label):
    """One signalling client + one flooding bulk client; returns stats."""
    udr, profiles = build(f"session-qos-{label}")
    signalling = udr.attach("hlr-fe", udr.topology.sites[0])
    bulk = udr.attach("bulk-ps", udr.topology.sites[0],
                      client_type=ClientType.PROVISIONING, qos=flood_qos)
    sig_session, bulk_session = signalling.session(), bulk.session()
    sig_futures, flood_futures = [], []

    def signalling_arrivals():
        rng = udr.sim.rng("qos.sig")
        for index in range(SIGNALLING_OPS):
            yield from udr.sim.hold(rng.expovariate(120.0))
            profile = profiles[index % len(profiles)]
            sig_futures.append(
                sig_session.submit(Read(profile.identities.imsi)))

    def flood_arrivals():
        rng = udr.sim.rng("qos.flood")
        for index in range(FLOOD_OPS):
            yield from udr.sim.hold(rng.expovariate(2000.0))
            profile = profiles[(index * 5) % len(profiles)]
            flood_futures.append(bulk_session.submit(
                Write(profile.identities.imsi,
                      {"svcBarPremium": bool(index % 2)})))

    sig_proc = udr.sim.process(signalling_arrivals())
    flood_proc = udr.sim.process(flood_arrivals())

    def drain():
        yield udr.sim.all_of([sig_proc, flood_proc])
        yield from sig_session.drain()
        yield from bulk_session.drain()

    drive(udr, drain())
    latencies = [future.latency * 1000.0 for future in sig_futures]
    expired = sum(1 for future in flood_futures
                  if future.result().result_code.name
                  == "TIME_LIMIT_EXCEEDED")
    return {
        "p50": percentile(latencies, 0.50),
        "p99": percentile(latencies, 0.99),
        "flood_expired": expired,
        "client_requests": udr.metrics.counter(
            "api.client.hlr-fe.requests"),
    }


def main():
    print("Typed sessions in three lines:")
    udr, profiles = build("session-qos-hello")
    client = udr.attach("demo-fe", udr.topology.sites[0])
    with client.session() as session:
        response = drive(udr, session.call(Read(
            profiles[0].identities.imsi, attributes=("msisdn",))))
        print(f"  Read -> {response.result_code.name}, "
              f"msisdn={response.entry['msisdn']}")
        created = drive(udr, session.call(Provision.create(
            {"imsi": "262079999000001", "msisdn": "+49999000001",
             "homeRegion": "germany", "subscriberStatus": "active"})))
        print(f"  Provision.create -> {created.result_code.name}")
        drive(udr, session.drain())

    print("\nNow the flood drill: 2000/s bulk writes vs 120/s signalling "
          "reads.\n")
    rows = []
    for label, qos in (
            ("no QoS (legacy behaviour)", None),
            ("bulk priority only", QoSProfile(priority=Priority.BULK)),
            ("bulk + 25-tick deadline",
             QoSProfile(priority=Priority.BULK, deadline_ticks=25))):
        stats = run_flooded(qos, label.split()[0] + str(len(rows)))
        rows.append([label, f"{stats['p50']:.1f}", f"{stats['p99']:.1f}",
                     stats["flood_expired"]])
    print(format_table(
        ["flood client QoS", "signalling p50 (ms)", "signalling p99 (ms)",
         "flood ops expired"], rows))
    print("\nReading the table: priority alone cannot shrink waves while "
          "they have spare capacity for flood writes; the deadline budget "
          "is what sheds the queued flood at wave formation (answered "
          "TIME_LIMIT_EXCEEDED, zero pipeline hops) and pulls signalling "
          "back to single-digit medians.  Per-client metrics "
          "(api.client.<name>.*) split every run by who issued the "
          "traffic.")


if __name__ == "__main__":
    main()
