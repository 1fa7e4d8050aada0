"""E05 — Durability versus latency across replication modes (sections 3.1, 4.2, 5).

Under asynchronous replication "a transaction committed on the master with
ACID guarantees might not be durable if a severe failure prevents the
transaction from being replicated to at least one slave"; section 5 proposes
dual-in-sequence replication and compares it with Cassandra-style quorum
commits whose "latency increase would be too high".

The experiment provisions a burst of writes under each replication mode, then
crashes the master element immediately (before checkpointing) and counts how
many committed transactions no surviving copy holds.  It reports, per mode,
the provisioning write latency and the transactions lost.
"""

from __future__ import annotations

from typing import Dict

from repro.core.config import ClientType, ReplicationMode, UDRConfig
from repro.experiments.common import (
    ClientPool,
    build_loaded_udr,
    drive,
    write_request,
)
from repro.experiments.runner import ExperimentResult
from repro.sim import units


def _measure(mode: ReplicationMode, writes: int, seed: int,
             replication_interval: float) -> Dict[str, float]:
    config = UDRConfig(replication_mode=mode, seed=seed,
                       replication_interval=replication_interval)
    udr, profiles = build_loaded_udr(config, subscribers=90, seed=seed)
    # All writes target subscribers homed on one element so a single crash
    # threatens every one of them.
    locator = next(iter(udr.locators.values()))
    target_element = locator.locate("imsi", profiles[0].identities.imsi)
    victims = [p for p in profiles
               if locator.locate("imsi", p.identities.imsi) == target_element]
    ps_site = udr.elements[target_element].site
    pool = ClientPool(udr, prefix="e05")
    latencies = []
    expected_values = {}
    for index in range(writes):
        profile = victims[index % len(victims)]
        start = udr.sim.now
        response = drive(udr, pool.call(
            write_request(profile, svcCfu=f"+99{index:07d}"),
            ClientType.PROVISIONING, ps_site))
        if response.ok:
            latencies.append(udr.sim.now - start)
            # The latest committed value per key is what durability is about.
            expected_values[profile.key] = f"+99{index:07d}"
    # Crash the master before the async channels' next shipping round.
    replica_set = udr.deployment.replica_set_of_element(target_element)
    udr.elements[target_element].crash(timestamp=udr.sim.now)
    lost = 0
    for key, expected_value in expected_values.items():
        survived = False
        for name in replica_set.slave_names():
            value = replica_set.copy_on(name).store.get(key)
            if isinstance(value, dict) and value.get("svcCfu") == expected_value:
                survived = True
                break
        if not survived:
            lost += 1
    mean_latency = sum(latencies) / len(latencies) if latencies else 0.0
    return {
        "mean_latency_ms": units.to_milliseconds(mean_latency),
        "committed": len(expected_values),
        "lost": lost,
    }


def run(writes: int = 20, seed: int = 23) -> ExperimentResult:
    # A long async shipping interval makes the exposure window visible with a
    # small number of operations; dual and quorum replicate on the commit
    # path, so the interval does not matter for them.
    results = {
        ReplicationMode.ASYNCHRONOUS: _measure(
            ReplicationMode.ASYNCHRONOUS, writes, seed,
            replication_interval=30.0),
        ReplicationMode.DUAL_IN_SEQUENCE: _measure(
            ReplicationMode.DUAL_IN_SEQUENCE, writes, seed,
            replication_interval=30.0),
        ReplicationMode.QUORUM: _measure(
            ReplicationMode.QUORUM, writes, seed, replication_interval=30.0),
    }
    rows = []
    for mode, stats in results.items():
        rows.append([
            mode.value,
            round(stats["mean_latency_ms"], 2),
            stats["committed"],
            stats["lost"],
        ])
    async_stats = results[ReplicationMode.ASYNCHRONOUS]
    dual_stats = results[ReplicationMode.DUAL_IN_SEQUENCE]
    quorum_stats = results[ReplicationMode.QUORUM]
    latency_penalty_dual = (dual_stats["mean_latency_ms"]
                            / max(async_stats["mean_latency_ms"], 1e-9))
    return ExperimentResult(
        experiment_id="E05",
        title="Durability vs latency: async, dual-in-sequence, quorum",
        paper_claim=("async replication can lose the latest commits on a "
                     "master crash; synchronous schemes close the window at "
                     "the price of (backbone) latency, quorum being the most "
                     "expensive"),
        headers=["replication mode", "write latency (ms)",
                 "committed writes", "writes lost after master crash"],
        rows=rows,
        finding=(f"async lost {async_stats['lost']} of "
                 f"{async_stats['committed']} commits; dual-in-sequence and "
                 f"quorum lost {dual_stats['lost']} and "
                 f"{quorum_stats['lost']} at {latency_penalty_dual:.1f}x+ the "
                 f"write latency"),
        notes={
            "async_lost": async_stats["lost"],
            "dual_lost": dual_stats["lost"],
            "quorum_lost": quorum_stats["lost"],
            "dual_latency_penalty": latency_penalty_dual,
        },
    )
