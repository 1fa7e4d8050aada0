"""Replication tuning: the ship-linger budget's traffic/lag trade-off.

Run with::

    python examples/replication_tuning.py

Asynchronous replication decouples transaction latency from propagation, so
its knob -- how long committed records may wait before shipping to the
slaves -- trades *background* cost against *replica lag*.  The site-pair
:class:`~repro.replication.mux.ReplicationMux`, the deployment's only
shipping driver, makes that trade-off explicit:

* it wakes **on commit** instead of polling every ``(partition, slave)``
  channel on a fixed cadence, so an idle deployment schedules zero
  replication events;
* every commit of one ship-linger window, across *all* partitions whose
  master and slave share a ``(site, site)`` link, rides **one** network
  transfer with a single framing charge;
* the linger budget (``UDRConfig.replication_interval``) bounds how stale
  a slave copy may be -- exactly the lag that becomes stale reads (E04)
  and lost transactions on a master crash (E05).

This example prints E17's recorded per-channel polling reference (the
paper's literal one-process-per-channel reading, measured before that
driver was removed), then sweeps the mux's ship-linger budget over one
seeded commit stream to show shipments and freshness moving in opposite
directions.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import UDRConfig, UDRNetworkFunction
from repro.experiments import e17_replication_mux as e17
from repro.metrics import format_table

COMMITS = 600
RATE = 400.0


def measure(interval: float):
    """Drive a Poisson commit stream; return cost and freshness figures."""
    config = UDRConfig(seed=33, storage_elements_per_site=4,
                       replication_factor=3, replication_interval=interval,
                       name=f"repl-mux-{interval:g}")
    udr = UDRNetworkFunction(config)
    udr.start()
    partitions = sorted(udr.replica_sets)
    lag_samples = []

    def committer():
        rng = udr.sim.rng("tuning.commits")
        for index in range(COMMITS):
            yield from udr.sim.hold(rng.expovariate(RATE))
            replica_set = udr.replica_sets[partitions[index % len(partitions)]]
            tx = replica_set.master_copy.transactions.begin()
            tx.write(f"rec:{index}", {"v": index})
            tx.commit(timestamp=udr.sim.now)

    def sampler():
        while True:
            yield from udr.sim.hold(0.01)
            lag_samples.append(sum(channel.lag().records
                                   for channel in udr.channels))

    process = udr.sim.process(committer())
    udr.sim.process(sampler())
    udr.sim.run_until_triggered(process, limit=3600.0)
    udr.sim.run_for(10 * interval)
    wakeups = udr.replication_mux.wakeups
    transfers = udr.network.stats.total_messages()
    mean_lag = sum(lag_samples) / len(lag_samples) if lag_samples else 0.0
    udr.stop()
    return wakeups, transfers, mean_lag


def main():
    print("Asynchronous replication: the site-pair mux's ship-linger "
          "budget\n")
    polling = e17.POLLING_FANIN
    print(f"E17's per-channel polling reference (recorded, not a live run): "
          f"48 channels over 6 site links, {e17.COMMITS} commits at "
          f"{e17.COMMIT_RATE:g}/s, 50 ms cadence:")
    print(format_table(
        ["shipping mode", "wakeups", "transfers", "mean lag (records)"],
        [["per-channel polling (recorded)", polling["wakeups"],
          polling["transfers"], f"{polling['mean_lag_records']:.1f}"]]))
    print()
    rows = []
    for interval in (0.01, 0.05, 0.2):
        wakeups, transfers, mean_lag = measure(interval)
        rows.append([f"{interval * 1000:.0f} ms", wakeups, transfers,
                     f"{mean_lag:.1f}"])
    print("ship-linger sweep (site-pair mux), 24 channels over 6 site "
          "links: budget vs replica lag:")
    print(format_table(
        ["ship-linger budget", "wakeups", "transfers",
         "mean lag (records)"], rows))
    print()
    print("Reading the tables: the mux needs a fraction of polling's "
          "wakeups and transfers because every link's streams share one "
          "shipment per window -- and because nothing at all is "
          "scheduled while nothing commits.  The ship-linger "
          "budget then moves cost and freshness in opposite directions: "
          "a long budget ships fat and rarely (cheap, but every record "
          "of the window is exposed to E04-style stale reads and "
          "E05-style loss until it ships), while shrinking the budget "
          "buys freshness only down to the backbone's own latency -- "
          "below that, shipments just queue behind the link (the 10 ms "
          "row pays 1.5x the transfers of the 50 ms row for no lag win). "
          "The default keeps the paper's 50 ms cadence: same freshness "
          "contract, none of the polling cost.")


if __name__ == "__main__":
    main()
