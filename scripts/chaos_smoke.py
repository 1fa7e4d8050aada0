"""CI chaos smoke: seeded campaigns must run clean.

Usage::

    python scripts/chaos_smoke.py [seed ...]

Builds one membership-enabled deployment per seed, runs live signalling
traffic for the campaign window, injects the campaign's seeded fault
schedule (crashes, symmetric and one-way partitions, disasters), heals,
quiesces and asserts the invariant checker's verdict: zero split-brain
writes, zero acked writes lost, converged replicas and locators.

Every seed runs twice: once on the default configuration, and once with
the CDC plane on and WAL retention truncating master logs behind frequent
checkpoints.  The second pass also fails when the change stream reports a
retention gap (records truncated before it saw them).  Exits non-zero
with the violating seed's report on any failure.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api.operations import Read, Write  # noqa: E402
from repro.core import ClientType, UDRConfig  # noqa: E402
from repro.core.config import CdcPolicy, MembershipPolicy  # noqa: E402
from repro.core.udr import UDRNetworkFunction  # noqa: E402
from repro.faults import run_campaigns  # noqa: E402
from repro.subscriber import SubscriberGenerator  # noqa: E402

DEFAULT_SEEDS = (1, 2, 3)
DURATION = 12.0
INCIDENTS = 4
QUIESCE = 3.0
SUBSCRIBERS = 24
TRAFFIC_RATE = 40.0
#: ``(label, extra UDRConfig fields)`` of the two passes over the seeds.
CONFIGURATIONS = (
    ("default", {}),
    ("cdc+retention", {"cdc": CdcPolicy(), "wal_retention": 16,
                       "checkpoint_period": 0.5}),
)


def build_deployment(seed, **config_fields):
    """A started membership-enabled UDR with campaign-bounded traffic."""
    config = UDRConfig(seed=seed, name="chaos-smoke",
                       membership=MembershipPolicy(), **config_fields)
    udr = UDRNetworkFunction(config)
    udr.start()
    generator = SubscriberGenerator(config.regions, seed=seed)
    profiles = generator.generate(SUBSCRIBERS)
    udr.load_subscriber_base(profiles)
    sessions = [udr.attach(f"fe-{site.name}", site,
                           client_type=ClientType.APPLICATION_FE).session()
                for site in udr.topology.sites]

    def traffic():
        # Bounded to the campaign window: the quiesce phase must drain
        # replication, so the workload stops when the faults do.
        rng = udr.sim.rng("chaos.traffic")
        index = 0
        while udr.sim.now < DURATION:
            yield udr.sim.timeout(rng.expovariate(TRAFFIC_RATE))
            profile = profiles[index % len(profiles)]
            operation = (Write(profile.identities.imsi,
                               {"servingMsc": f"m-{index}"})
                         if index % 3 else Read(profile.identities.imsi))
            sessions[index % len(sessions)].submit(operation)
            index += 1

    udr.sim.process(traffic(), name="chaos:traffic")
    return udr


def main(argv):
    seeds = tuple(int(arg) for arg in argv[1:]) or DEFAULT_SEEDS
    failed = False
    campaigns = 0
    for label, config_fields in CONFIGURATIONS:
        deployments = []

        def factory(seed):
            udr = build_deployment(seed, **config_fields)
            deployments.append(udr)
            return udr

        reports = run_campaigns(factory, seeds=seeds, duration=DURATION,
                                incidents=INCIDENTS, quiesce=QUIESCE)
        for udr, report in zip(deployments, reports):
            stream = udr.change_stream
            gaps = stream.gap_records_lost if stream is not None else 0
            print(f"[{label}] {report.summary()}, "
                  f"wal_truncated={udr.replication_mux.wal_records_truncated}"
                  f", cdc_gaps={gaps}")
            for description in report.incidents:
                print(f"    {description}")
            if not report.clean:
                failed = True
                for violation in report.violations:
                    print(f"    VIOLATION {violation}")
            if gaps:
                failed = True
                print(f"    VIOLATION the change stream lost {gaps} "
                      f"record(s) to WAL retention")
        campaigns += len(reports)
    if failed:
        print("chaos smoke: FAILED")
        return 1
    print(f"chaos smoke: {campaigns} campaigns clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
