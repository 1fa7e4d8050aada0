"""Dispatcher tuning: trading p99 latency for throughput with the linger budget.

Run with::

    python examples/dispatcher_tuning.py

Under ``dispatch_mode=DISPATCHER`` front-ends enqueue individual requests
and the UDR forms admission waves from the live arrival stream: a wave is
dispatched when it fills to ``batch_max_size`` or when the oldest enqueued
request has lingered ``batch_linger_ticks`` -- whichever comes first.  The
linger budget is the knob this example turns.  Two effects compete:

* lingering merges arrivals into bigger waves, amortising the shared
  PoA/LDAP/locate hops and coalescing more writes per transaction;
* but a busy dispatcher *self-clocks*: while one wave executes, new
  arrivals queue up and the next wave fills by itself -- the classic
  group-commit observation -- so an aggressive budget mostly buys wave
  size the backlog would have delivered anyway, at a p99 cost every
  request pays.

Cross-wave write coalescing (one multi-record transaction per partition per
wave) is left on throughout, as a production deployment would run it.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import Read, Write
from repro.core import DispatchMode, UDRConfig, UDRNetworkFunction
from repro.metrics import format_table
from repro.subscriber import SubscriberGenerator

OPERATIONS = 120


def build(linger_ticks: int, rate: float):
    config = UDRConfig(seed=21, dispatch_mode=DispatchMode.DISPATCHER,
                       batch_linger_ticks=linger_ticks, coalesce_writes=True,
                       name=f"tuning-l{linger_ticks}-r{rate:g}")
    udr = UDRNetworkFunction(config)
    udr.start()
    profiles = SubscriberGenerator(config.regions, seed=21).generate(40)
    udr.load_subscriber_base(profiles)
    return udr, profiles


def measure(linger_ticks: int, rate: float):
    udr, profiles = build(linger_ticks, rate)
    site_of = {region: site for site in udr.topology.sites
               for region in [site.region.name]}
    # One front-end client per site, each with a long-lived session -- the
    # session API's front door (typed operations in, futures out).
    sessions = {site: udr.attach(f"tuning-fe-{site.name}", site).session()
                for site in udr.topology.sites}
    futures = []

    def arrivals():
        rng = udr.sim.rng("tuning.arrivals")
        for index in range(OPERATIONS):
            yield from udr.sim.hold(rng.expovariate(rate))
            profile = profiles[index % len(profiles)]
            imsi = profile.identities.imsi
            site = site_of.get(profile.current_region or profile.home_region,
                               udr.topology.sites[0])
            operation = (Write(imsi, {"servingMsc": f"msc-{index}"})
                         if index % 3 == 0 else Read(imsi))
            futures.append(sessions[site].submit(operation))

    process = udr.sim.process(arrivals())
    udr.sim.run_until_triggered(process, limit=udr.sim.now + 3600.0)

    def wait_all():
        for session in sessions.values():
            yield from session.drain()

    waiter = udr.sim.process(wait_all())
    udr.sim.run_until_triggered(waiter, limit=udr.sim.now + 3600.0)

    elapsed = max(future.completed_at for future in futures)
    latencies = sorted(future.latency for future in futures)
    p99 = latencies[min(len(latencies) - 1,
                        round(0.99 * (len(latencies) - 1)))]
    waves = udr.metrics.counter("dispatcher.waves")
    mean_wave = udr.metrics.counter("dispatcher.dispatched") / waves
    return (OPERATIONS / elapsed, mean_wave, p99 * 1000.0,
            udr.metrics.counter("batch.coalesced.groups"))


def main():
    print("Arrival-driven dispatch: the linger budget's throughput/latency "
          "trade-off\n")
    for rate, regime in ((60.0, "light load"), (350.0, "near saturation")):
        rows = []
        for linger_ticks in (0, 5, 20, 80):
            ops, mean_wave, p99_ms, groups = measure(linger_ticks, rate)
            rows.append([linger_ticks, f"{ops:.1f}", f"{mean_wave:.1f}",
                         f"{p99_ms:.1f}", groups])
        print(f"arrival rate {rate:g}/s ({regime}):")
        print(format_table(
            ["linger (ticks)", "ops/s", "mean wave size", "p99 (ms)",
             "coalesced txns"], rows))
        print()
    print("Reading the tables: the budget reliably buys wave size (and "
          "fewer, fatter coalesced transactions), and it reliably costs "
          "p99 -- every request in an under-filled wave sits out the "
          "budget.  What it does NOT buy here is throughput: a loaded "
          "dispatcher self-clocks, because arrivals that land while a "
          "wave executes fill the next wave for free.  The practical "
          "recipe: keep the budget small (a few ticks), let the backlog "
          "do the batching, and spend ticks only when wave-size-dependent "
          "savings (coalesced commits, shared backbone hops) are worth "
          "the added tail latency.")


if __name__ == "__main__":
    main()
