"""E20 — Tree-accelerated search: DIT interval index vs full scan.

The paper's UDR serves "indexed single-subscriber" operations at one
million per second (section 3.5), but a directory is more than point
lookups: provisioning campaigns, auditing, and bulk exports issue *scoped*
searches (BASE / ONE_LEVEL / SUBTREE) with attribute filters.  A naive
implementation touches every record in the directory per search; this PR
gives the store an XPath-accelerator-style DIT index (pre/post interval
labels over the tree, so a whole scope is one range scan over a sorted
array) plus attribute secondary indexes with a selectivity-ordered filter
planner, and keyset-paged result streaming.

Two measurement parts:

* **Part A -- scaling sweep** of the standalone
  :class:`~repro.directory.dit.DirectoryCatalog`: the same conjunctive
  filter evaluated indexed (interval range scan + postings intersection,
  smallest first) and brute-force (every record touched) at directory
  sizes 10^3..10^6.  Brute force is capped at 10^5 entries -- beyond that
  the scan arm alone would dominate the benchmark suite's budget, which
  is itself the point.  By default the sweep reports the *deterministic*
  cost model (records the filter is evaluated on), so the generated
  EXPERIMENTS.md stays byte-stable; ``measure_wall_clock=True`` (the
  benchmark's mode) times both arms for real and gates on the measured
  ratio.
* **Part B -- end-to-end simulated runs** through a deployed UDR:
  the same scoped search served by the DIT index, by the full-scan
  fallback (``search_index_enabled=False``), and keyset-paged; every arm
  must return the bit-identical result set of a brute-force reference
  derived independently of the search path.

The PR's acceptance bar: indexed subtree search >= 10x faster than the
scan at 10^5 entries, and paged + unpaged + scan results all identical to
brute force.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.api.operations import Search
from repro.core.config import ClientType, UDRConfig
from repro.directory.dit import DirectoryCatalog
from repro.experiments.common import build_loaded_udr, drive
from repro.experiments.runner import ExperimentResult
from repro.ldap.filters import FilterPlanner, parse_filter
from repro.ldap.operations import SearchScope
from repro.ldap.schema import SubscriberSchema

#: Directory sizes of the wall-clock sweep (Part A).
DEFAULT_SIZES: Tuple[int, ...] = (1_000, 10_000, 100_000, 1_000_000)
#: Largest size at which the brute-force arm still runs.
BRUTE_FORCE_CAP = 100_000
#: Timing repetitions per arm (best-of, to shed scheduler noise).
TIMING_ROUNDS = 3

_REGIONS = ("spain", "brazil", "mexico", "argentina", "chile")
_ORGANISATIONS = tuple(f"org-{index:02d}" for index in range(10))
_STATUSES = ("active", "active", "active", "suspended")

#: The sweep's conjunctive filter: both conjuncts are indexed, and their
#: selectivities differ by 2x so the planner's ordering matters.
_SWEEP_FILTER = ("(&(objectClass=udrSubscriber)"
                 "(homeRegion=spain)(organisation=org-03))")


def _synthetic_base(count: int):
    """Deterministic ``(key, record, partition)`` triples plus a flat view.

    No RNG: regions cycle over the index and organisations over blocks of
    five, so all 50 region/organisation combinations appear with uniform
    frequency at every size and results are reproducible across runs.
    """
    triples = []
    flat: Dict[str, Tuple[object, dict]] = {}
    for index in range(count):
        imsi = f"214{index:012d}"
        record = {
            "imsi": imsi,
            "homeRegion": _REGIONS[index % len(_REGIONS)],
            "organisation": _ORGANISATIONS[
                (index // len(_REGIONS)) % len(_ORGANISATIONS)],
            "subscriberStatus": _STATUSES[index % len(_STATUSES)],
        }
        key = f"sub:{imsi}"
        triples.append((key, record, index % 4))
        dn = SubscriberSchema.subscriber_dn(imsi)
        flat[key] = (dn, SubscriberSchema.ldap_entry(record, dn))
    return triples, flat


def _indexed_search(catalog: DirectoryCatalog, flat, parsed, planner):
    """The indexed plan: interval scope span + a keyset walk of the
    listing, testing the postings.

    Returns ``(matching ids, records touched)`` -- "touched" counts the
    entries the full filter was actually evaluated on after pruning
    (``|scope ∩ postings|``), the deterministic cost the default report is
    built from.
    """
    span = catalog.scope_candidates(SubscriberSchema.BASE_DN,
                                    SearchScope.SUBTREE)
    _count, walk = catalog.keyset_walk(
        span, planner.plan(parsed).candidates(), None)
    ids = [entry_id for _sort_key, entry_id in walk]
    return (sorted(entry_id for entry_id in ids
                   if parsed.matches(flat[entry_id][1])), len(ids))


def _brute_search(flat, parsed):
    """The scan plan: every record fetched, scope + filter on each."""
    base = SubscriberSchema.BASE_DN
    return sorted(key for key, (dn, entry) in flat.items()
                  if dn.is_descendant_of(base) and parsed.matches(entry))


def _best_of(callable_, rounds: int = TIMING_ROUNDS):
    """(best wall-clock seconds, last result) of ``rounds`` runs."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        # This helper deliberately reads the real clock: it only runs when
        # the benchmark passes measure_wall_clock=True, while the registry/
        # EXPERIMENTS.md path uses the deterministic records-touched cost
        # model instead.
        # reprolint: disable=DET001 -- wall-clock timing is the measurement
        start = time.perf_counter()
        result = callable_()
        # reprolint: disable=DET001 -- wall-clock timing is the measurement
        best = min(best, time.perf_counter() - start)
    return best, result


def _run_part_a(sizes: Tuple[int, ...], measure_wall_clock: bool):
    """One sweep row per directory size.

    Deterministic mode reports records touched (byte-stable tables for the
    generated EXPERIMENTS.md); wall-clock mode times both arms for real.
    """
    rows = []
    parsed = parse_filter(_SWEEP_FILTER)
    speedup_at: Dict[int, float] = {}
    all_equal = True
    for size in sizes:
        triples, flat = _synthetic_base(size)
        catalog = DirectoryCatalog(SubscriberSchema.catalog_view,
                                   SubscriberSchema.INDEXED_ATTRIBUTES)
        catalog.bulk_load(triples)
        planner = FilterPlanner(catalog.attributes)
        if measure_wall_clock:
            indexed_s, (indexed_ids, _touched) = _best_of(
                lambda: _indexed_search(catalog, flat, parsed, planner))
            indexed_cell = f"{indexed_s * 1e3:.3f} ms"
        else:
            indexed_ids, touched = _indexed_search(catalog, flat, parsed,
                                                   planner)
            indexed_cell = f"{touched:,} touched"
        if size <= BRUTE_FORCE_CAP:
            if measure_wall_clock:
                brute_s, brute_ids = _best_of(
                    lambda: _brute_search(flat, parsed))
                speedup = brute_s / indexed_s if indexed_s else float("inf")
                scan_cell = f"{brute_s * 1e3:.3f} ms"
            else:
                brute_ids = _brute_search(flat, parsed)
                speedup = size / max(1, touched)
                scan_cell = f"{size:,} touched"
            speedup_at[size] = speedup
            equal = indexed_ids == brute_ids
            all_equal = all_equal and equal
            rows.append([size, indexed_cell, scan_cell, round(speedup, 1),
                         len(indexed_ids), "yes" if equal else "NO"])
        else:
            rows.append([size, indexed_cell, "(capped)", "-",
                         len(indexed_ids), "-"])
    return rows, speedup_at, all_equal


def _reference_result_set(profiles, filter_text: str) -> List[str]:
    """Brute-force reference: filter the generator's profiles directly.

    Built from the subscriber profiles -- never from the catalog, the DIT,
    or the search path -- so an index bug cannot hide in the reference.
    """
    parsed = parse_filter(filter_text)
    matches = []
    for profile in profiles:
        record = profile.to_record()
        entry = SubscriberSchema.ldap_entry(
            record, SubscriberSchema.subscriber_dn(profile.identities.imsi))
        if parsed.matches(entry):
            matches.append(entry["imsi"])
    return sorted(matches)


def _imsis(response) -> List[str]:
    return sorted(entry["imsi"] for entry in response.entries)


def _run_search(udr, operation: Search):
    """Submit one sessioned search on a provisioning client (master reads)."""
    client = udr.attach("e20-searcher", udr.topology.sites[0],
                        client_type=ClientType.PROVISIONING)
    session = client.session()

    def driver():
        future = session.submit(operation)
        response = yield from future.wait()
        return response

    return drive(udr, driver())


def _run_paged(udr, operation: Search):
    client = udr.attach("e20-pager", udr.topology.sites[0],
                        client_type=ClientType.PROVISIONING)
    session = client.session()

    def driver():
        pages = yield from session.search_pages(operation)
        return pages

    return drive(udr, driver())


def _run_part_b(subscribers: int, page_size: int, seed: int):
    """End-to-end rows through a deployed UDR (indexed, scan, paged)."""
    filter_text = (f"(&(objectClass=udrSubscriber)"
                   f"(homeRegion={_REGIONS[0]}))")

    indexed_udr, profiles = build_loaded_udr(
        UDRConfig(seed=seed, name="e20-indexed"), subscribers=subscribers,
        seed=seed)
    reference = _reference_result_set(profiles, filter_text)

    unpaged = _run_search(indexed_udr,
                          Search.scoped(filter_text,
                                        scope=SearchScope.SUBTREE))
    pages = _run_paged(indexed_udr,
                       Search.scoped(filter_text, scope=SearchScope.SUBTREE,
                                     page_size=page_size))
    paged_union = sorted(entry["imsi"] for page in pages
                         for entry in page.entries)
    indexed_count = indexed_udr.metrics.counter("ldap.search.indexed")
    relabels = indexed_udr.metrics.counter("directory.dit.relabels")

    scan_udr, _ = build_loaded_udr(
        UDRConfig(seed=seed, search_index_enabled=False, name="e20-scan"),
        subscribers=subscribers, seed=seed)
    scanned = _run_search(scan_udr,
                          Search.scoped(filter_text,
                                        scope=SearchScope.SUBTREE))
    scan_count = scan_udr.metrics.counter("ldap.search.scan")

    unpaged_ids = _imsis(unpaged)
    scanned_ids = _imsis(scanned)
    rows = [
        ["indexed (DIT)", unpaged.served_from, len(unpaged.entries), 1,
         "yes" if unpaged_ids == reference else "NO"],
        [f"indexed, paged ({page_size}/page)", "dit-index",
         len(paged_union), len(pages),
         "yes" if paged_union == reference else "NO"],
        ["full scan (index off)", scanned.served_from, len(scanned.entries),
         1, "yes" if scanned_ids == reference else "NO"],
    ]
    notes = {
        "e2e_result_count": len(reference),
        "paged_equals_unpaged": paged_union == unpaged_ids,
        "matches_bruteforce": (unpaged_ids == reference
                               and paged_union == reference
                               and scanned_ids == reference),
        "pages": len(pages),
        "counter_indexed": indexed_count,
        "counter_scan": scan_count,
        "counter_relabels": relabels,
    }
    return rows, notes


def run(sizes: Optional[Tuple[int, ...]] = None, subscribers: int = 60,
        page_size: int = 7, seed: int = 20,
        measure_wall_clock: bool = False) -> ExperimentResult:
    sizes = tuple(sizes) if sizes is not None else DEFAULT_SIZES
    part_a_rows, speedup_at, part_a_equal = _run_part_a(sizes,
                                                        measure_wall_clock)
    part_b_rows, part_b_notes = _run_part_b(subscribers, page_size, seed)

    sweep_label = ("A: wall-clock sweep" if measure_wall_clock
                   else "A: records-touched sweep")
    rows = [[sweep_label, "-", "-", "-", "-", "-"]]
    for size, indexed_cell, scan_cell, speedup, count, equal in part_a_rows:
        rows.append([f"  {size:,} entries", indexed_cell, scan_cell,
                     speedup, count, equal])
    rows.append(["B: end-to-end (simulated)", "-", "-", "-", "-", "-"])
    for path, served_from, count, pages, equal in part_b_rows:
        rows.append([f"  {path}", served_from, "-", pages, count, equal])

    gate_size = max(size for size in speedup_at) if speedup_at else None
    speedup_gate = speedup_at.get(gate_size, 0.0) if gate_size else 0.0
    arm = ("runs" if measure_wall_clock else "touches")
    ratio = (f"{speedup_gate:.0f}x faster than" if measure_wall_clock
             else f"{speedup_gate:.0f}x fewer records than")
    finding = (
        f"the pre/post interval DIT turns a SUBTREE scope into one range "
        f"scan and the selectivity-ordered postings intersection prunes "
        f"before any record is touched: at {gate_size:,} entries the "
        f"indexed search {arm} {ratio} the full "
        f"scan (brute force is capped there; the index keeps scaling to "
        f"{max(sizes):,}), while the end-to-end runs return "
        f"bit-identical result sets indexed, paged and scanned"
        if gate_size else
        "no size under the brute-force cap was measured")
    notes = {
        "sizes": list(sizes),
        "measure_wall_clock": measure_wall_clock,
        "speedup_1e5": round(speedup_gate, 1),
        "speedup_gate_size": gate_size,
        "part_a_sets_equal": part_a_equal,
        **part_b_notes,
    }
    return ExperimentResult(
        experiment_id="E20",
        title="Tree-accelerated search: DIT interval index vs full scan",
        paper_claim=("the UDR's capacity story (section 3.5) prices "
                     "indexed operations only; scoped searches must not "
                     "degrade to touching every record as the subscriber "
                     "base grows to millions"),
        headers=["part / directory size", "indexed", "full scan",
                 "speedup / pages", "results", "= brute force"],
        rows=rows,
        finding=finding,
        notes=notes,
    )
