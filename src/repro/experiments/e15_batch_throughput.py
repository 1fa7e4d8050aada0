"""E15 — Batched multi-request pipelining: throughput vs batch size.

The ROADMAP's batching item: carrying N requests through the PoA/LDAP/locate
stages together amortises the client-to-PoA transfers, the LDAP service
charge and the locator probes that dominate a single request's cost, so
operation throughput should grow with the admission-wave size while result
codes stay exactly those of sequential execution (the batch equivalence
property, pinned by ``tests/test_batch_equivalence.py``).

The experiment drives the same mixed-priority workload (signalling reads and
updates from application front-ends, provisioning changes from the PS site)
through ``execute_batch`` under increasing ``UDRConfig.batch_max_size`` on
otherwise-identical deployments, and reports simulated operations per second
next to the speedup over the unbatched (``batch_max_size=1``) run.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.config import ClientType, UDRConfig
from repro.core.pipeline import BatchItem
from repro.experiments.common import (
    build_loaded_udr,
    drive,
    home_site_of,
    read_request,
    write_request,
)
from repro.experiments.runner import ExperimentResult


def _workload(udr, profiles, operations: int) -> List[BatchItem]:
    """A deterministic mixed-priority request stream over the loaded base."""
    ps_site = udr.topology.sites[0]
    items = []
    for index in range(operations):
        profile = profiles[index % len(profiles)]
        if index % 4 == 0:
            items.append(BatchItem(
                write_request(profile, svcBarPremium=bool(index % 8)),
                ClientType.PROVISIONING, ps_site))
        elif index % 4 == 1:
            items.append(BatchItem(
                write_request(profile, servingMsc=f"msc-{index}"),
                ClientType.APPLICATION_FE, home_site_of(udr, profile)))
        else:
            items.append(BatchItem(read_request(profile),
                                   ClientType.APPLICATION_FE,
                                   home_site_of(udr, profile)))
    return items


def _measure(batch_max_size: int, operations: int,
             seed: int) -> Tuple[float, List[str]]:
    config = UDRConfig(seed=seed, batch_max_size=batch_max_size,
                       name=f"e15-b{batch_max_size}")
    udr, profiles = build_loaded_udr(config, subscribers=48, seed=seed)
    items = _workload(udr, profiles, operations)
    start = udr.sim.now
    # Mixed-client batches are a core-layer concern (sessions are
    # per-client), so reach the pipeline directly.
    responses = drive(udr, udr.pipeline.execute_batch(items), horizon=7200.0)
    elapsed = udr.sim.now - start
    return elapsed, [response.result_code.name for response in responses]


def run(batch_sizes=(1, 4, 8, 32), operations: int = 160,
        seed: int = 15) -> ExperimentResult:
    rows = []
    codes_by_size = {}
    ops_per_second = {}
    for batch_size in batch_sizes:
        elapsed, codes = _measure(batch_size, operations, seed)
        codes_by_size[batch_size] = codes
        ops_per_second[batch_size] = operations / elapsed
        rows.append([batch_size, round(elapsed * 1000.0, 1),
                     round(ops_per_second[batch_size], 1)])
    baseline = ops_per_second[batch_sizes[0]]
    for row, batch_size in zip(rows, batch_sizes):
        row.append(round(ops_per_second[batch_size] / baseline, 2))
    reference_codes = codes_by_size[batch_sizes[0]]
    codes_identical = all(codes == reference_codes
                          for codes in codes_by_size.values())
    largest = max(batch_sizes)
    speedup_at_largest = ops_per_second[largest] / baseline
    return ExperimentResult(
        experiment_id="E15",
        title="Batched pipelining throughput vs admission-wave size",
        paper_claim=("batching the provisioning-heavy operation path "
                     "amortises per-request coordination cost, keeping it "
                     "sublinear in the request count (ROADMAP batching item; "
                     "cf. the paper's batch provisioning discussion, "
                     "section 4.1)"),
        headers=["batch_max_size", "elapsed (ms)", "ops/s",
                 "speedup vs unbatched"],
        rows=rows,
        finding=(f"batch_max_size={largest} sustains "
                 f"{ops_per_second[largest]:.0f} ops/s against "
                 f"{baseline:.0f} ops/s unbatched "
                 f"({speedup_at_largest:.2f}x); result codes are identical "
                 f"across every batch size"),
        notes={
            "speedup_at_largest_batch": round(speedup_at_largest, 2),
            "largest_batch_size": largest,
            "meets_1_3x_speedup": speedup_at_largest >= 1.3,
            "codes_identical_across_batch_sizes": codes_identical,
            "all_succeeded": all(code == "SUCCESS"
                                 for code in reference_codes),
        },
    )
