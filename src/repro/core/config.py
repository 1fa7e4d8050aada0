"""Declarative configuration of a UDR deployment and its policy knobs.

Every design decision the paper discusses is a field of :class:`UDRConfig`,
so an experiment is "build two configs that differ in one knob, run the same
workload, compare":

* ``replication_mode`` -- asynchronous (baseline), dual-in-sequence
  (section 5's proposal) or Cassandra-style quorum.
* ``partition_policy`` -- favour Consistency (single master, the default) or
  Availability (multi-master during partitions) when the backbone splits.
* ``fe_reads_from_slave`` -- section 3.3's asymmetric read policy: application
  front-ends may read slave copies, the provisioning system reads only the
  master copy.
* ``location_mode`` and ``placement`` -- provisioned identity-location maps
  (the paper's choice), cached maps, or consistent hashing; random or
  home-region selective placement.
* ``checkpoint_period`` -- the F-R disk-dump knob.

A value no caller varies is not a field: the LDAP pool size
(:data:`~repro.core.deployment.LDAP_SERVERS_PER_CLUSTER`), the quorum
write's majority, the admission weights
(:data:`~repro.core.pipeline.PRIORITY_WEIGHTS`) and the always-on
location cache are fixed, and a retry policy is set per request.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.sim import units


class ReplicationMode(enum.Enum):
    """How committed writes reach the other copies."""

    ASYNCHRONOUS = "asynchronous"
    DUAL_IN_SEQUENCE = "dual_in_sequence"
    QUORUM = "quorum"


class PartitionPolicy(enum.Enum):
    """Behaviour when the master copy is unreachable (CAP's moment of truth)."""

    PREFER_CONSISTENCY = "prefer_consistency"   # writes fail (paper default)
    PREFER_AVAILABILITY = "prefer_availability"  # multi-master, merge later


class LocationMode(enum.Enum):
    """How Points of Access resolve identities to storage elements."""

    PROVISIONED_MAPS = "provisioned_maps"
    CACHED_MAPS = "cached_maps"
    CONSISTENT_HASH = "consistent_hash"


class PlacementMode(enum.Enum):
    """How new subscriptions are assigned to storage elements."""

    RANDOM = "random"
    ROUND_ROBIN = "round_robin"
    HOME_REGION = "home_region"


class ClientType(enum.Enum):
    """The two classes of UDR clients the paper distinguishes."""

    APPLICATION_FE = "application_fe"
    PROVISIONING = "provisioning"


class DispatchMode(enum.Enum):
    """How individual client requests reach the operation pipeline.

    ``DIRECT`` (the default) is call-and-wait: every ``execute()`` drives
    its request as a one-slot wave in the caller's process, and larger
    waves only form when a caller hands the pipeline an explicit batch.
    ``DISPATCHER`` routes individual requests
    through the :class:`~repro.core.dispatcher.BatchDispatcher`: front-ends
    enqueue and the dispatcher forms admission waves by *actually waiting*
    up to ``batch_linger_ticks`` for late arrivals (or until
    ``batch_max_size`` requests have gathered), which is the continuous-load
    regime the paper's telecom workloads assume.
    """

    DIRECT = "direct"
    DISPATCHER = "dispatcher"


class Priority(enum.Enum):
    """Priority classes of batched admission (highest first).

    Signalling procedures (application front-ends serving live network
    traffic) outrank provisioning changes, which outrank bulk provisioning
    runs.  The batch admission stage dequeues the classes with a weighted
    round-robin (:data:`~repro.core.pipeline.PRIORITY_WEIGHTS`) so lower
    classes still make progress under load, but FIFO order is kept
    *within* each class.
    """

    SIGNALLING = "signalling"
    PROVISIONING = "provisioning"
    BULK = "bulk"

    @classmethod
    def for_client(cls, client_type: ClientType) -> "Priority":
        """The default class of a request when the caller sets none."""
        if client_type is ClientType.APPLICATION_FE:
            return cls.SIGNALLING
        return cls.PROVISIONING


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with backoff ticks on transient result codes.

    Applied by the batch pipeline's :class:`~repro.core.pipeline.RetryStage`:
    a failed attempt whose code is in ``retry_codes`` waits
    ``backoff_tick * backoff_multiplier**(attempt-1)`` virtual seconds and is
    re-driven.  The retry re-runs data location from scratch, so a retry
    after a fail-over -- which invalidated the PoA caches -- resolves the
    fresh location instead of the one the failed attempt used.

    ``retry_codes`` holds :class:`~repro.ldap.operations.ResultCode` *names*
    (strings), keeping the configuration layer free of LDAP imports.
    """

    max_retries: int = 2
    backoff_tick: float = 5 * units.MILLISECOND
    backoff_multiplier: float = 2.0
    retry_codes: Tuple[str, ...] = ("BUSY", "UNAVAILABLE", "FENCED")

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        if self.backoff_tick < 0:
            raise ValueError("backoff tick cannot be negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff multiplier must be at least 1")
        # Deferred import to keep the configuration layer free of LDAP
        # imports at module load; a typo here would otherwise silently
        # disable retries.
        from repro.ldap.operations import ResultCode
        known = {code.name for code in ResultCode}
        for name in self.retry_codes:
            if name not in known:
                raise ValueError(f"unknown result code {name!r} in "
                                 f"retry_codes")

    def retries(self, code) -> bool:
        """Whether ``code`` (a ResultCode) is transient under this policy."""
        return code.name in self.retry_codes

    def backoff(self, attempt: int) -> float:
        """The wait before retry number ``attempt`` (1-based)."""
        return self.backoff_tick * self.backoff_multiplier ** (attempt - 1)


@dataclass(frozen=True)
class RateLimit:
    """A token-bucket admission quota: sustained rate plus burst headroom.

    Carried by :class:`~repro.api.qos.QoSProfile` and enforced per
    :class:`~repro.api.session.UDRClient` at ``session.submit``: the bucket
    refills at ``rate_per_second`` (virtual time) up to ``burst`` tokens,
    and every admitted operation spends one.  An operation arriving with an
    empty bucket is answered ``BUSY`` immediately -- it never reaches the
    dispatcher queue or the pipeline, which is what keeps a misbehaving
    client from expiring at wave formation instead of being stopped at the
    front door.
    """

    rate_per_second: float
    burst: int = 1

    def __post_init__(self):
        if self.rate_per_second <= 0:
            raise ValueError("rate_per_second must be positive")
        if self.burst < 1:
            raise ValueError("burst must be at least 1 token")


@dataclass(frozen=True)
class ShedPolicy:
    """Sustained-overload shedding for the arrival-driven dispatcher.

    The dispatcher tracks an EWMA of its queue depth (one ``alpha``-weighted
    observation per submit and per wave).  When the smoothed depth climbs to
    ``trip_depth`` the deployment enters **shed mode**; it leaves again only
    once the smoothed depth has fallen back to ``clear_depth``.  Keeping
    ``clear_depth`` well below ``trip_depth`` is the hysteresis that stops
    the mode from chattering at the boundary.  While shedding:

    * reads may be served from slave replicas even for client types whose
      configured read policy is master-only (capacity over freshness);
    * bulk-class tickets are deferred from wave membership while any
      higher-class work is queued (they are never dropped, and a wave with
      only bulk work still dispatches it, so bulk cannot be starved into
      expiry by an empty signalling queue).
    """

    alpha: float = 0.2
    trip_depth: float = 64.0
    clear_depth: float = 16.0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.trip_depth <= 0:
            raise ValueError("trip_depth must be positive")
        if not 0 <= self.clear_depth < self.trip_depth:
            raise ValueError("clear_depth must be non-negative and below "
                             "trip_depth (the hysteresis band)")


@dataclass(frozen=True)
class AdaptiveLingerPolicy:
    """Load-adaptive linger budgets for the arrival-driven dispatcher.

    The dispatcher tracks an EWMA of observed inter-arrival times and picks
    each wave's linger budget between ``min_ticks`` and ``max_ticks`` (of
    :data:`~repro.core.pipeline.BATCH_LINGER_TICK` each):

    * **saturated** traffic (a standing queue, inter-arrivals near zero)
      needs no lingering -- waves fill on their own, the budget collapses to
      the expected remaining fill time, i.e. immediately;
    * **trickle** traffic that could not fill a meaningful fraction of a
      wave even by waiting ``max_ticks`` stops paying the linger latency tax
      and dispatches at ``min_ticks``;
    * in between, the budget is the expected time for the wave to fill,
      clamped to the configured bounds.

    ``fill_threshold`` is the fraction of ``batch_max_size`` that lingering
    ``max_ticks`` must be expected to gather before lingering is considered
    worth its latency at all (the low-rate rows of the e16 sweep, where the
    static optimum is no lingering, motivate the cut-off).  ``alpha`` is the
    EWMA smoothing factor applied to each new inter-arrival observation.
    """

    min_ticks: int = 0
    max_ticks: int = 50
    alpha: float = 0.2
    fill_threshold: float = 0.5

    def __post_init__(self):
        if self.min_ticks < 0:
            raise ValueError("min_ticks cannot be negative")
        if self.max_ticks < self.min_ticks:
            raise ValueError("max_ticks cannot be below min_ticks")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not 0.0 < self.fill_threshold <= 1.0:
            raise ValueError("fill_threshold must be in (0, 1]")


@dataclass(frozen=True)
class CdcPolicy:
    """Change-data-capture plane: WAL-tap stream, audit history, reconciler.

    Setting ``UDRConfig.cdc`` builds the CDC plane
    (:mod:`repro.cdc`): a :class:`~repro.cdc.stream.ChangeStream` taps every
    partition copy's commit log into ordered, idempotent-by-commit-seq
    change events, a :class:`~repro.cdc.history.HistoryStore` keeps the
    per-record who/what/when audit trail past ``wal_retention``, and --
    with ``reconcile_interval`` set -- a
    :class:`~repro.cdc.reconcile.Reconciler` process periodically diffs
    master vs replica vs locator state with merkle-style partition digests
    and repairs drift in place.  ``None`` (the default) builds none of it:
    no WAL subscriptions, no retention pinning, no background process --
    behaviour is bit-identical to not having the feature.
    """

    #: Virtual seconds between reconciliation rounds; ``None`` keeps the
    #: stream and history without the background reconciler.
    reconcile_interval: Optional[float] = None
    #: Buckets of the merkle-style partition digest (mismatches narrow to
    #: differing buckets, so repairs only walk suspect keys).
    digest_buckets: int = 16
    #: Simulated cost of digesting one partition copy.
    digest_time: float = 1 * units.MILLISECOND
    #: Simulated cost of repairing one confirmed-drift key.
    repair_time: float = 0.5 * units.MILLISECOND
    #: Per-record cap on retained audit entries; ``None`` keeps everything.
    history_max_entries_per_record: Optional[int] = None
    #: Per-partition cap on retained stream events; ``None`` keeps
    #: everything (replay-from-any-checkpoint needs the full stream).
    stream_retention_events: Optional[int] = None

    def __post_init__(self):
        if self.reconcile_interval is not None and self.reconcile_interval <= 0:
            raise ValueError("reconcile interval must be positive")
        if self.digest_buckets < 1:
            raise ValueError("digest needs at least one bucket")
        if self.digest_time < 0:
            raise ValueError("digest time cannot be negative")
        if self.repair_time < 0:
            raise ValueError("repair time cannot be negative")
        if self.history_max_entries_per_record is not None and \
                self.history_max_entries_per_record < 1:
            raise ValueError("history cap must be at least 1 entry")
        if self.stream_retention_events is not None and \
                self.stream_retention_events < 1:
            raise ValueError("stream retention must be at least 1 event")


@dataclass(frozen=True)
class MembershipPolicy:
    """Membership-and-fencing plane: lease detector, quorum promotion, epochs.

    Setting ``UDRConfig.membership`` builds the
    :class:`~repro.cluster.detector.MembershipPlane`: every site observes
    every storage element with heartbeats on the sim clock, a master copy
    holds a **lease** it renews only while its own site can reach a majority
    of sites, and fail-over becomes a quorum-gated
    :class:`~repro.cluster.detector.PromotionProtocol` that stamps each
    promotion with a monotonically increasing **epoch** used to fence the
    deposed master end-to-end (storage commit, replication shipment, CDC).
    ``None`` (the default) keeps the oracle ``fail_over`` entry point
    bit-identical to not having the feature: no heartbeat processes, no
    epoch stamping, no fencing checks that can fire.
    """

    #: Virtual seconds between heartbeat/lease rounds.
    heartbeat_interval: float = 100 * units.MILLISECOND
    #: Consecutive missed heartbeats before an observer suspects an element
    #: -- and, symmetrically, consecutive failed lease renewals before a
    #: master copy fences itself.  The self-fencing side is what makes the
    #: protocol split-brain-proof: a deposed master stops accepting writes
    #: no later than the instant a quorum could first agree to promote.
    lease_ticks: int = 3
    #: Sites that must agree the master is gone before promotion; ``None``
    #: derives a strict majority of ``total_sites``.
    quorum: Optional[int] = None
    #: Bounded wait for the promotion vote round-trips.  Ballots are
    #: collected concurrently and the coordinator promotes as soon as a
    #: quorum has answered; a ballot lost on the backbone must not stall
    #: the promotion for the link's full loss timeout (1 s on the default
    #: WAN profile -- several lease windows), so the vote wait is capped
    #: here and an expired round simply retries on the next heartbeat.
    vote_timeout: float = 300 * units.MILLISECOND

    def __post_init__(self):
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat interval must be positive")
        if self.lease_ticks < 1:
            raise ValueError("lease_ticks must be at least 1")
        if self.quorum is not None and self.quorum < 1:
            raise ValueError("quorum must be at least 1 site")
        if self.vote_timeout <= 0:
            raise ValueError("vote timeout must be positive")

    def quorum_for(self, total_sites: int) -> int:
        """The promotion quorum for a deployment of ``total_sites`` sites."""
        if self.quorum is not None:
            return min(self.quorum, total_sites)
        return total_sites // 2 + 1


@dataclass
class UDRConfig:
    """Everything needed to build a UDR NF deployment.

    The defaults describe a small three-country deployment suitable for
    simulation: one site per country, one blade cluster per site, two storage
    elements per cluster, replication factor 2.  The paper-scale limits (16
    SEs and 32 LDAP servers per cluster, 256 SEs per UDR) live in the
    capacity model, not here -- simulating 512 million subscribers is neither
    necessary nor useful for reproducing the trade-offs.
    """

    # -- footprint -------------------------------------------------------------
    regions: Tuple[str, ...] = ("spain", "sweden", "germany")
    sites_per_region: int = 1
    storage_elements_per_site: int = 2
    subscriber_capacity_per_element: int = 2_000_000

    # -- replication / CAP policies ---------------------------------------------
    replication_factor: int = 2
    replication_mode: ReplicationMode = ReplicationMode.ASYNCHRONOUS
    partition_policy: PartitionPolicy = PartitionPolicy.PREFER_CONSISTENCY
    #: Shipping grid of the asynchronous replication mux: a commit ships at
    #: the next multiple of this interval (the paper's polling cadence).
    replication_interval: float = 50 * units.MILLISECOND
    #: WAL retention: once a master copy's commit log holds more than this
    #: many records, the replication mux truncates it through the slowest
    #: shipped-LSN cursor of its outgoing channels (capped at the
    #: durability watermark, so crash/checkpoint semantics are untouched),
    #: bounding log memory on long runs.  ``None`` (the default) keeps the
    #: log until an explicit ``truncate_through``.
    wal_retention: Optional[int] = None
    fe_reads_from_slave: bool = True

    # -- durability ---------------------------------------------------------------
    checkpoint_period: float = 15 * units.MINUTE

    # -- data location / placement ---------------------------------------------------
    location_mode: LocationMode = LocationMode.PROVISIONED_MAPS
    placement: PlacementMode = PlacementMode.HOME_REGION
    #: Capacity of each PoA's read-through cache in front of the
    #: data-location stage; see :mod:`repro.core.location_cache`.  0 means
    #: unbounded.
    location_cache_capacity: int = 0
    #: Serve scoped Search from the interval-indexed DIT catalog; disabling
    #: falls back to a full scan over every partition (the e20 baseline).
    search_index_enabled: bool = True

    # -- batched admission -----------------------------------------------------------
    #: Most requests one admission wave of ``execute_batch`` carries through
    #: the PoA/LDAP/locate stages together.
    batch_max_size: int = 32
    #: Ticks (of ``BATCH_LINGER_TICK`` each) an under-filled admission wave
    #: lingers for late arrivals before being driven; 0 disables lingering.
    batch_linger_ticks: int = 0

    # -- arrival-driven dispatch -------------------------------------------------------
    #: How individual requests reach the pipeline: ``DIRECT`` call-and-wait
    #: (default) or ``DISPATCHER`` (front-ends enqueue into the
    #: :class:`~repro.core.dispatcher.BatchDispatcher`, which forms waves by
    #: really spending ``batch_linger_ticks`` waiting for late arrivals).
    dispatch_mode: DispatchMode = DispatchMode.DIRECT
    #: Pick each wave's linger budget from the observed arrival rate
    #: instead of the fixed ``batch_linger_ticks`` (see
    #: :class:`AdaptiveLingerPolicy`); ``None`` keeps the static budget.
    adaptive_linger: Optional[AdaptiveLingerPolicy] = None
    #: Commit every wave's writes against one partition as a single
    #: multi-record intra-SE transaction (one begin/commit charge per
    #: partition per wave) instead of one transaction per write.
    coalesce_writes: bool = False
    #: Shed/degrade under sustained overload (queue-depth EWMA with
    #: hysteresis; see :class:`ShedPolicy`); ``None`` (the default) never
    #: sheds -- dispatcher behaviour is bit-identical to not having the
    #: feature.
    shed_policy: Optional[ShedPolicy] = None

    # -- change-data-capture ------------------------------------------------------------
    #: Build the CDC plane (WAL-tap change stream, audit history and --
    #: with ``reconcile_interval`` set -- the online reconciler); ``None``
    #: (the default) is bit-identical to not having the feature.
    cdc: Optional[CdcPolicy] = None

    # -- membership / fencing -------------------------------------------------------------
    #: Build the membership-and-fencing plane (lease-based failure detector,
    #: quorum-gated promotion with epoch fencing); ``None`` (the default)
    #: keeps the oracle fail-over path bit-identical to not having the
    #: feature.
    membership: Optional[MembershipPolicy] = None

    # -- misc ---------------------------------------------------------------------------
    seed: int = 0
    name: str = "udr"

    def __post_init__(self):
        if not self.regions:
            raise ValueError("need at least one region")
        if self.sites_per_region < 1:
            raise ValueError("need at least one site per region")
        if self.storage_elements_per_site < 1:
            raise ValueError("need at least one storage element per site")
        total_elements = (len(self.regions) * self.sites_per_region
                          * self.storage_elements_per_site)
        if not 1 <= self.replication_factor <= total_elements:
            raise ValueError(
                f"replication factor {self.replication_factor} impossible "
                f"with {total_elements} storage elements")
        if self.replication_interval <= 0:
            raise ValueError("replication interval must be positive")
        if self.wal_retention is not None and self.wal_retention < 1:
            raise ValueError("wal retention must be at least 1 record")
        if self.checkpoint_period <= 0:
            raise ValueError("checkpoint period must be positive")
        if self.location_cache_capacity < 0:
            raise ValueError("location cache capacity cannot be negative")
        if self.batch_max_size < 1:
            raise ValueError("batch max size must be at least 1")
        if self.batch_linger_ticks < 0:
            raise ValueError("batch linger ticks cannot be negative")
        if self.membership is not None and \
                self.membership.quorum is not None and \
                self.membership.quorum > self.total_sites:
            raise ValueError(
                f"membership quorum {self.membership.quorum} impossible "
                f"with {self.total_sites} sites")

    # -- derived quantities ------------------------------------------------------------

    @property
    def total_sites(self) -> int:
        return len(self.regions) * self.sites_per_region

    @property
    def total_storage_elements(self) -> int:
        return self.total_sites * self.storage_elements_per_site

    @property
    def total_subscriber_capacity(self) -> int:
        return (self.total_storage_elements
                * self.subscriber_capacity_per_element)

    def reads_from_slave(self, client_type: ClientType) -> bool:
        """The paper's asymmetric read policy (section 3.3.2 vs 3.3.3):
        front-ends may read slave copies, provisioning reads the master."""
        return client_type is ClientType.APPLICATION_FE and \
            self.fe_reads_from_slave

    def multi_master_enabled(self) -> bool:
        return self.partition_policy is PartitionPolicy.PREFER_AVAILABILITY

    def replace(self, **changes) -> "UDRConfig":
        """A copy of the configuration with some fields changed."""
        from dataclasses import replace as dataclass_replace
        return dataclass_replace(self, **changes)
