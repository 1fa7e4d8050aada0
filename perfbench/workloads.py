"""The three named workloads: configuration, subscriber base and op streams.

Every input is drawn from the run's ``--seed``: the subscriber base comes
from :class:`~repro.subscriber.generator.SubscriberGenerator`, and each op
stream from its own ``random.Random`` keyed on the workload name and seed.
The program under test receives only a :class:`~repro.core.config.UDRConfig`
and the generated typed operations, through the public session API.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.api.operations import Read, Search, Write
from repro.core.config import (
    CdcPolicy,
    DispatchMode,
    MembershipPolicy,
    UDRConfig,
)


@dataclass(frozen=True)
class Op:
    """One generated operation and what a correct answer implies."""

    index: int
    operation: object
    client: str
    #: ``(storage key, attribute, value)`` for a write, else ``None``.
    write: Optional[Tuple[str, str, object]] = None


@dataclass(frozen=True)
class Workload:
    """One named workload: its deployment, its clients' traffic, its sizes."""

    name: str
    why: str
    subscribers: int
    #: ``"open"`` (Poisson arrivals on the sim clock) or ``"closed"``.
    loop: str
    #: Mean open-loop arrival rate in ops per sim second.
    rate: Optional[float]
    #: Sim seconds per measurement slice.
    slice_s: float
    #: The deployment's configuration for a seed.
    config: Callable[[int], UDRConfig]
    #: The deterministic sample, which alone gives the sim-clock latency
    #: percentiles, work counts and digest: the ops due in the first
    #: ``sample_slices`` slices (open loop), or the ops sent before the
    #: first search that starts after ``sample_ops`` ops (closed loop, where
    #: every earlier op has then completed).  Either way it holds well over
    #: 10 000 ops, so at least ten lie beyond the p99.9.
    sample_slices: int = 0
    sample_ops: int = 0
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setups: int = 1
    #: The open loop's op stream, from the subscriber base and the seed.
    ops: Optional[Callable[[list, int], Iterator[Op]]] = None


#: Per-PoA location-cache entries on ``provisioning-write-heavy``: far below
#: its 5 000-subscriber working set, so the skewed stream misses and probes
#: the locator.
PROVISIONING_CACHE_CAPACITY = 256
#: Zipf exponent of the provisioning workload's key popularity.  At 0.99
#: the hottest subscriber alone drew ~11 % of the traffic, and whether its
#: home region was the provisioning site's moved the p50 by a tenth
#: between seeds.
ZIPF_S = 0.8
#: Entries per page of the OSS campaign's paged searches.
OSS_PAGE_SIZE = 100
#: Hits of each page the OSS campaign modifies.
OSS_MODIFIES_PER_PAGE = 10


def _fe_config(seed: int) -> UDRConfig:
    return UDRConfig(seed=seed, name="perfbench-fe")


def _provisioning_config(seed: int) -> UDRConfig:
    return UDRConfig(seed=seed, name="perfbench-prov",
                     dispatch_mode=DispatchMode.DISPATCHER,
                     coalesce_writes=True, cdc=CdcPolicy(),
                     membership=MembershipPolicy(),
                     location_cache_capacity=PROVISIONING_CACHE_CAPACITY)


def _oss_config(seed: int) -> UDRConfig:
    return UDRConfig(seed=seed, name="perfbench-oss")


def stream_rng(workload: str, seed: int, purpose: str) -> random.Random:
    """An independent, seed-determined random stream."""
    return random.Random(f"perfbench:{workload}:{seed}:{purpose}")


def home_client(profile) -> str:
    return f"fe@{profile.home_region}"


def fe_read_mostly_ops(profiles, seed: int) -> Iterator[Op]:
    """90 % Read / 10 % FE Write of ``servingMsc``, uniform keys."""
    rng = stream_rng("fe-read-mostly", seed, "ops")
    for index in itertools.count():
        profile = profiles[rng.randrange(len(profiles))]
        imsi = profile.identities.imsi
        if rng.random() < 0.9:
            yield Op(index, Read(imsi), home_client(profile))
        else:
            value = f"msc-{seed}-{index}"
            yield Op(index, Write(imsi, {"servingMsc": value}),
                     home_client(profile), (profile.key, "servingMsc", value))


def popularity_ranking(profiles, seed: int) -> list:
    """Subscribers from most to least popular: shuffled within each home
    region, then dealt one region at a time.

    Where the hot subscribers live decides how many of the provisioning
    site's writes cross the backbone; with a plain shuffle that share
    changed with the seed and moved the p50 by a tenth between seeds.
    Dealing by region gives every seed the same regional mix at every
    popularity rank."""
    rng = stream_rng("provisioning-write-heavy", seed, "popularity")
    by_region: Dict[str, list] = {}
    for profile in profiles:
        by_region.setdefault(profile.home_region, []).append(profile)
    regions = [by_region[name] for name in sorted(by_region)]
    for members in regions:
        rng.shuffle(members)
    return [profile for rank in itertools.zip_longest(*regions)
            for profile in rank if profile is not None]


def provisioning_ops(profiles, seed: int) -> Iterator[Op]:
    """30 % PS service changes, 40 % FE updates, 30 % reads; Zipf keys."""
    rng = stream_rng("provisioning-write-heavy", seed, "ops")
    ranked = popularity_ranking(profiles, seed)
    cumulative = list(itertools.accumulate(
        1.0 / (rank ** ZIPF_S) for rank in range(1, len(ranked) + 1)))
    total = cumulative[-1]
    for index in itertools.count():
        profile = ranked[min(len(ranked) - 1,
                             bisect.bisect_left(cumulative,
                                                rng.random() * total))]
        imsi = profile.identities.imsi
        draw = rng.random()
        if draw < 0.3:
            value = rng.random() < 0.5
            yield Op(index, Write(imsi, {"svcBarPremium": value}), "ps",
                     (profile.key, "svcBarPremium", value))
        elif draw < 0.7:
            value = f"msc-{seed}-{index}"
            yield Op(index, Write(imsi, {"servingMsc": value}),
                     home_client(profile), (profile.key, "servingMsc", value))
        else:
            yield Op(index, Read(imsi), home_client(profile))


def oss_filters(regions) -> List[Tuple[Tuple[str, str], ...]]:
    """The campaign's conjunctions, cycled in order: region x status/flag.

    Each is a tuple of ``(attribute, value)`` equality assertions; the
    searches add ``objectClass=udrSubscriber``.
    """
    shapes = ((("subscriberStatus", "active"),),
              (("subscriberStatus", "active"), ("svcImsEnabled", "True")),
              (("subscriberStatus", "suspended"),))
    return [(("homeRegion", region),) + shape
            for shape in shapes for region in regions]


def filter_text(assertions) -> str:
    return ("(&(objectClass=udrSubscriber)"
            + "".join(f"({attribute}={value})"
                      for attribute, value in assertions) + ")")


def oss_search(assertions) -> Search:
    return Search.scoped(filter_text(assertions), page_size=OSS_PAGE_SIZE)


def flip_status(status: str) -> str:
    return "suspended" if status == "active" else "active"


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="fe-read-mostly",
        why=("signalling front-ends: 90% reads, 10% servingMsc writes at "
             "home sites, DIRECT dispatch, the cache holds the working set"),
        subscribers=1_000, loop="open", rate=2_000.0, slice_s=0.5,
        config=_fe_config,
        sample_slices=20, setups=5, ops=fe_read_mostly_ops),
    # 100 ops/s rather than the 200 first tried: every message the
    # backbone loses holds the dispatcher for the link's 1 s timeout, and at
    # 200/s two such stalls overlapped often enough to make the p99.9
    # bimodal across seeds.  The 600 sim-s sample (300 sim-s left the p99.7
    # spread by 15 % over ten seeds) holds enough stalls to steady the tail.
    Workload(
        name="provisioning-write-heavy",
        why=("provisioning and FE writes through the coalescing dispatcher "
             "with CDC and membership on; skewed keys overflow the cache"),
        subscribers=5_000, loop="open", rate=100.0, slice_s=5.0,
        config=_provisioning_config,
        sample_slices=120, setups=3, ops=provisioning_ops),
    Workload(
        name="oss-search-campaign",
        why=("one OSS client pages SUBTREE filter searches and modifies "
             "hits, so the DIT index and filter planner do the work"),
        subscribers=2_000, loop="closed", rate=None, slice_s=20.0,
        config=_oss_config, sample_ops=12_000, setups=5),
)}
