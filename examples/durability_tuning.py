"""Durability tuning: async vs dual-in-sequence vs quorum replication.

Run with::

    python examples/durability_tuning.py

Section 5 of the paper argues that service providers will demand tunable
durability for provisioning transactions, that Cassandra-style quorum commits
are the elegant-but-expensive end of the spectrum, and that applying
transactions "in sequence to two replicas" is the affordable middle ground.
This example provisions the same burst of subscriptions under the three
replication modes, then crashes the storage element that took the writes and
reports what each mode lost and what each mode charged in write latency.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import ClientType, ReplicationMode, UDRConfig, UDRNetworkFunction
from repro.api import Write
from repro.metrics import format_table
from repro.subscriber import SubscriberGenerator


def drive(udr, generator):
    process = udr.sim.process(generator)
    udr.sim.run_until_triggered(process)
    return process.value


def provision_and_crash(mode: ReplicationMode, writes: int = 25):
    config = UDRConfig(replication_mode=mode, seed=5,
                       replication_interval=30.0)
    udr = UDRNetworkFunction(config)
    udr.start()
    profiles = SubscriberGenerator(config.regions, seed=5).generate(60)
    udr.load_subscriber_base(profiles)

    locator = next(iter(udr.locators.values()))
    target = locator.locate("imsi", profiles[0].identities.imsi)
    victims = [p for p in profiles
               if locator.locate("imsi", p.identities.imsi) == target][:writes]
    ps_site = udr.elements[target].site

    session = udr.attach("tuning-ps", ps_site,
                         client_type=ClientType.PROVISIONING).session()
    latencies = []
    expected = {}
    for index, profile in enumerate(victims):
        operation = Write(profile.identities.imsi,
                          {"svcCfu": f"+34{index:09d}"})
        start = udr.sim.now
        response = drive(udr, session.call(operation))
        if response.ok:
            latencies.append(udr.sim.now - start)
            expected[profile.key] = f"+34{index:09d}"

    replica_set = udr.deployment.replica_set_of_element(target)
    udr.elements[target].crash(timestamp=udr.sim.now)
    lost = 0
    for key, value in expected.items():
        survivors = [replica_set.copy_on(name).store.get(key)
                     for name in replica_set.slave_names()]
        if not any(isinstance(record, dict) and record.get("svcCfu") == value
                   for record in survivors):
            lost += 1
    mean_latency_ms = (sum(latencies) / len(latencies) * 1000) \
        if latencies else 0.0
    return mean_latency_ms, len(expected), lost


def main():
    rows = []
    for mode in (ReplicationMode.ASYNCHRONOUS,
                 ReplicationMode.DUAL_IN_SEQUENCE,
                 ReplicationMode.QUORUM):
        latency_ms, committed, lost = provision_and_crash(mode)
        rows.append([mode.value, f"{latency_ms:.2f}", committed, lost])
    print("Provisioning burst followed by a crash of the storage element "
          "that took the writes:\n")
    print(format_table(
        ["replication mode", "mean write latency (ms)",
         "subscriptions provisioned", "provisioning writes lost"], rows))
    print("\nAsynchronous replication is fast but loses the un-shipped tail; "
          "dual-in-sequence and quorum lose nothing but pay one or more "
          "backbone round trips per provisioning transaction -- the exact "
          "trade-off the paper's section 5 walks the reader through.")


if __name__ == "__main__":
    main()
