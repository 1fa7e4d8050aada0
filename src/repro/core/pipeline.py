"""Pipeline layer: LDAP requests as admission waves of composable stages.

Every request walks one path, in waves.  :meth:`OperationPipeline.execute`
(``DIRECT`` dispatch: call and wait in the caller's process) drives a
one-slot wave; :meth:`OperationPipeline.execute_batch` orders an explicit
batch and cuts it into waves; :meth:`OperationPipeline.execute_wave` drives
one wave the :class:`~repro.core.dispatcher.BatchDispatcher` popped from
its queue.  Each wave owns the hops the paper describes:

* admission -- a request whose deadline already passed is answered
  ``TIME_LIMIT_EXCEEDED`` on the spot (no hop); the rest reach the closest
  Point of Access with one shared client-to-PoA transfer per client site
  (:meth:`AdmissionStage.reach_poa`);
* :class:`LdapPlanStage` -- one LDAP service charge per site group, and
  each request's translation into an operation plan;
* :class:`LocateStage` -- one location probe per distinct identity, with
  the per-PoA read-through cache fast path
  (:mod:`repro.core.location_cache`);
* one fan-out loop in :meth:`OperationPipeline._run_wave` runs the
  transactional tail per request in admission order, wrapped by
  :class:`RetryStage` (bounded retries with backoff on transient codes,
  re-locating on retry): :class:`ReadPath` / :class:`SearchPath` /
  :class:`WritePath` against the chosen copy, and :class:`ReplicateStage`
  for the synchronous replication modes' commit cost.  With
  ``UDRConfig.coalesce_writes`` a wave's writes against one partition
  instead share one multi-record intra-SE transaction
  (:class:`_CoalescedGroup`): one begin/commit charge per partition per
  wave, a failing record rolled back to its savepoint.  Both write shapes
  take every write decision from :class:`WritePath`;
* :class:`RespondStage` -- one shared PoA-to-client transfer answers each
  site group (lost responses are counted in ``response_lost``).

Stages share a per-request :class:`OperationContext` and signal failures by
raising :class:`OperationFailure`, which the pipeline maps to an LDAP result
code -- never an exception to the caller, exactly as a directory server
would answer.  Stages record metrics into a
:class:`~repro.metrics.collector.MetricsBatch` that each wave flushes once,
at its end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.balancer import PointOfAccess, closest_point_of_access
from repro.directory.errors import LocatorSyncInProgress, UnknownIdentity
from repro.ldap.operations import LdapRequest, LdapResponse, ResultCode
from repro.ldap.schema import SubscriberSchema
from repro.ldap.server import OperationPlan, PlanKind
from repro.metrics.collector import MetricsBatch, MetricsRegistry
from repro.net.errors import NetworkError
from repro.net.topology import Site
from repro.replication.errors import MasterUnreachable, NotEnoughReplicas
from repro.replication.replica_set import ReplicaSet
from repro.sim import units
from repro.storage.errors import FencedError, RecordNotFound, WriteConflict
from repro.core.config import (
    ClientType,
    LocationMode,
    Priority,
    ReplicationMode,
    RetryPolicy,
    UDRConfig,
)
from repro.core.deployment import (
    Deployment,
    IDENTITY_RECORD_ATTRIBUTE,
    find_identity_record,
)
from repro.core.location_cache import LocationCacheGroup, PoALocationCache

#: Virtual duration of one ``UDRConfig.batch_linger_ticks`` tick: how long an
#: under-filled admission wave waits for late arrivals before being driven.
BATCH_LINGER_TICK = 1 * units.MILLISECOND

#: The priority classes in dequeue order (highest first); a
#: :class:`BatchItem`'s ``rank`` indexes this tuple.
PRIORITY_ORDER: Tuple[Priority, ...] = tuple(Priority)
_PRIORITY_VALUES = tuple(priority.value for priority in PRIORITY_ORDER)
_INFINITY = float("inf")


class OperationFailure(Exception):
    """Control-flow exception mapping operational failures to result codes."""

    def __init__(self, code: ResultCode, reason: str,
                 retryable: bool = True):
        super().__init__(reason)
        self.code = code
        self.reason = reason
        #: Whether a retry policy may re-drive the request.  False for
        #: failures raised *after* the intra-SE commit (synchronous
        #: replication shortfall): the write is not idempotent any more, so
        #: a retry would observe its own first attempt and answer a wrong
        #: permanent code.
        self.retryable = retryable


class OperationContext:
    """Everything one in-flight request's stages share, and its slot in an
    admission wave."""

    __slots__ = ("request", "client_type", "client_site", "start", "poa",
                 "plan", "located_element", "entries", "served_from",
                 "rank", "attempts", "location_resolved",
                 "deadline", "retry_policy", "next_cursor", "has_more",
                 "epoch", "failure", "runnable", "response")

    def __init__(self, request: LdapRequest, client_type: ClientType,
                 client_site: Site, start: float,
                 priority: Optional[Priority] = None,
                 deadline: Optional[float] = None,
                 retry_policy=None):
        self.request = request
        self.client_type = client_type
        self.client_site = client_site
        #: When the request's wave started (its latency clock).
        self.start = start
        self.poa: Optional[PointOfAccess] = None
        self.plan: Optional[OperationPlan] = None
        self.located_element: Optional[str] = None
        self.entries: List[dict] = []
        self.served_from = ""
        #: Index of the request's priority class in :data:`PRIORITY_ORDER`
        #: (``priority``, else the client type's natural class).
        self.rank = PRIORITY_ORDER.index(
            priority or Priority.for_client(client_type))
        #: Retries the RetryStage spent on this request (0 = first try).
        self.attempts = 0
        #: Whether data location ran (``located_element is None`` is a valid
        #: outcome for CREATE, so presence cannot stand in for "resolved").
        self.location_resolved = False
        #: Absolute virtual-time deadline of this request (session QoS);
        #: ``None`` -- the legacy default -- never expires.
        self.deadline = deadline
        #: The RetryPolicy governing this request's data path; resolved at
        #: context creation (per-session override, else the config default)
        #: so the RetryStage needs no fallback logic.
        self.retry_policy = retry_policy
        #: Keyset cursor and continuation flag of a paged SEARCH page.
        self.next_cursor: Optional[str] = None
        self.has_more = False
        #: Promotion epoch of the mastership that served a write (0 while
        #: the membership plane has never promoted, or for reads).
        self.epoch = 0
        #: The failure the request will be answered with, if any.
        self.failure: Optional[OperationFailure] = None
        #: Whether the request reached the data path (admitted and
        #: translated).
        self.runnable = False
        #: The answer, once the wave has given it.
        self.response: Optional[LdapResponse] = None


class PipelineStage:
    """Base class: stages share the deployment handle and the simulation."""

    def __init__(self, pipeline: "OperationPipeline"):
        self.pipeline = pipeline
        self.sim = pipeline.sim
        self.config = pipeline.config
        self.deployment = pipeline.deployment
        self.network = pipeline.deployment.network

    def element_round_trip(self, poa: PointOfAccess, element, reason: str,
                           ledger: Optional[set] = None):
        """Generator: the PoA-to-storage-element round trip of a data path.

        Skipped for co-located copies.  ``ledger`` is a wave's set of
        ``(PoA site name, element site name)`` round trips already paid
        (names are unique within a topology, and hash without running
        Python code): requests of one wave targeting copies at the same
        site share one bulk round trip.  Failed transfers are never
        recorded in it, so every request observes the failure exactly as
        it would alone.
        """
        source, destination = poa.site, element.site
        if source is destination or source == destination:
            return
        leg = (source.name, destination.name)
        if ledger is not None and leg in ledger:
            return
        try:
            yield from self.network.round_trip(source, destination)
        except NetworkError:
            raise OperationFailure(ResultCode.UNAVAILABLE, reason) from None
        if ledger is not None:
            ledger.add(leg)

    def reachable_members(self, replica_set: ReplicaSet,
                          site: Site) -> List[str]:
        """Members that are up and reachable from ``site`` (the read and
        the write copy choices pick among them)."""
        reachable = self.network.reachable
        return [element.name for element, _copy in replica_set.members()
                if element.available and reachable(site, element.site)]


class AdmissionStage(PipelineStage):
    """Reach the closest serving Point of Access."""

    def reach_poa(self, client_site: Site) -> "PointOfAccess":
        """Generator: choose the serving PoA and pay the client-side hop,
        once per site group of a wave; raises :class:`OperationFailure`
        when no PoA serves (no answer can travel back then)."""
        poa = closest_point_of_access(self.network, client_site,
                                      self.deployment.points_of_access)
        if poa is None:
            raise OperationFailure(ResultCode.UNAVAILABLE, "no reachable PoA")
        try:
            yield from self.network.transfer(client_site, poa.site)
        except NetworkError:
            raise OperationFailure(ResultCode.UNAVAILABLE,
                                   "client to PoA failed") from None
        return poa


class LdapPlanStage(PipelineStage):
    """LDAP server processing: request translation and service time."""

    def run_group(self, poa: PointOfAccess, group: List[OperationContext]):
        """Generator: one server and one service-time charge for a site
        group; translation is still per request (each may fail
        independently, recorded on its context).

        Returns whether the group translated a CREATE (see
        :meth:`LocateStage.run_group`'s ``defer_unknown``).
        """
        if not poa.available:
            # The PoA was up when admission picked it but went down (site
            # disaster, balancer failure) during the client hop: the whole
            # site group fails, each request on its own.
            failure = OperationFailure(ResultCode.UNAVAILABLE,
                                       f"PoA {poa.name} failed in flight")
            for ctx in group:
                ctx.poa = poa
                ctx.failure = failure
            return False
        server = poa.select_server()
        yield from self.sim.hold(server.service_time())
        creates = False
        plan_of = server.plan
        for ctx in group:
            ctx.poa = poa
            plan = ctx.plan = plan_of(ctx.request)
            if plan.error is None:
                ctx.runnable = True
                creates = creates or plan.kind is PlanKind.CREATE
            else:
                ctx.failure = OperationFailure(plan.error, plan.diagnostic)
        return creates


class LocateStage(PipelineStage):
    """Resolve the data location, serving repeats from the per-PoA cache.

    A syncing locator (scale-out) bypasses and clears the PoA's cache: the
    maps being copied may supersede anything cached before the sync began.
    Synchronous stage -- location is a local map probe, not a network hop.
    """

    def run(self, ctx: OperationContext) -> None:
        plan = ctx.plan
        if plan.kind is PlanKind.SEARCH:
            # Scoped searches resolve their targets through the DIT catalog
            # (or a scan), not the identity-location maps.
            ctx.located_element = None
            ctx.location_resolved = True
            return
        try:
            ctx.located_element = self._resolve(ctx)
        except LocatorSyncInProgress:
            raise OperationFailure(ResultCode.BUSY,
                                   "locator syncing") from None
        except UnknownIdentity:
            if plan.kind is not PlanKind.CREATE:
                raise OperationFailure(ResultCode.NO_SUCH_OBJECT,
                                       "unknown identity") from None
            ctx.located_element = None
        ctx.location_resolved = True

    def run_group(self, group: List[OperationContext],
                  defer_unknown: bool = True) -> None:
        """Resolve a site group's runnable contexts, one probe per distinct
        identity.

        Requests addressing the same ``(identity type, value)`` share a
        single location-cache lookup (or locator probe on a miss); failures
        are recorded per context so one bad identity never fails its
        group-mates.  A request whose deadline has passed is left
        unresolved: the fan-out answers it ``TIME_LIMIT_EXCEEDED`` without
        touching the cache.

        ``defer_unknown`` controls identities unknown at wave start: when
        the wave contains a CREATE, an unknown identity may be created by
        an earlier request of the same wave, so resolution is deferred to
        each request's own turn in admission order (the fan-out re-runs
        locate when unresolved).  In a wave without creates the unknown
        verdict is final and is applied immediately, keeping the
        one-probe-per-identity contract.
        """
        now = self.sim.now
        by_identity: Dict[Tuple[str, str], List[OperationContext]] = {}
        for ctx in group:
            if not ctx.runnable or \
                    ctx.deadline is not None and now >= ctx.deadline:
                continue
            plan = ctx.plan
            if plan.kind is PlanKind.SEARCH:
                ctx.located_element = None
                ctx.location_resolved = True
                continue
            by_identity.setdefault(
                (plan.identity_type, plan.identity_value), []).append(ctx)
        for same in by_identity.values():
            try:
                location = self._resolve(same[0])
            except LocatorSyncInProgress:
                failure = OperationFailure(ResultCode.BUSY, "locator syncing")
                for ctx in same:
                    ctx.failure = failure
                continue
            except UnknownIdentity:
                if defer_unknown:
                    continue
                for ctx in same:
                    if ctx.plan.kind is PlanKind.CREATE:
                        ctx.located_element = None
                        ctx.location_resolved = True
                    else:
                        ctx.failure = OperationFailure(
                            ResultCode.NO_SUCH_OBJECT, "unknown identity")
                continue
            for ctx in same:
                ctx.located_element = location
                ctx.location_resolved = True

    def _resolve(self, ctx: OperationContext) -> str:
        poa, plan = ctx.poa, ctx.plan
        cache = self.pipeline.cache_for(poa)
        if cache is not None and not poa.locator_ready:
            cache.clear()
            cache = None
        if cache is None:
            return poa.locator.locate(plan.identity_type, plan.identity_value)
        location = cache.get(plan.identity_type, plan.identity_value)
        if location is not None:
            return location
        location = poa.locator.locate(plan.identity_type, plan.identity_value)
        cache.store(plan.identity_type, plan.identity_value, location)
        return location


class ReadPath(PipelineStage):
    """Serve a read from the best reachable copy the client may use."""

    def run(self, ctx: OperationContext,
            ledger: Optional[set] = None):
        plan, poa, client_type = ctx.plan, ctx.poa, ctx.client_type
        replica_set = self.deployment.replica_set_of_element(
            ctx.located_element)
        key = f"sub:{self._imsi_of(plan, replica_set, ctx.located_element)}"
        copy_element = self._choose_read_element(replica_set, poa.site,
                                                 client_type)
        if copy_element is None:
            raise OperationFailure(ResultCode.UNAVAILABLE,
                                   "no reachable copy for read")
        element = self.deployment.elements[copy_element]
        copy = replica_set.copy_on(copy_element)
        yield from self.element_round_trip(poa, element, "copy unreachable",
                                           ledger=ledger)
        yield from self.sim.hold(
            element.service_times.transaction_time(reads=1, writes=0))
        transaction = copy.transactions.begin()
        try:
            record = transaction.read(key)
        except RecordNotFound:
            transaction.abort()
            raise OperationFailure(ResultCode.NO_SUCH_OBJECT,
                                   "record not found") from None
        transaction.commit()
        served_from_slave = copy_element != replica_set.master_element_name
        stale, versions_behind = self._staleness(replica_set, copy_element,
                                                 key)
        self.pipeline.batch.record_read(
            client_type.value, served_from_slave=served_from_slave,
            stale=stale, versions_behind=versions_behind)
        entry = dict(record)
        entry["dn"] = SubscriberSchema.subscriber_dn_text(entry.get("imsi", ""))
        ctx.entries = [_project(entry, plan.requested_attributes)]
        ctx.served_from = copy_element

    def _imsi_of(self, plan: OperationPlan, replica_set: ReplicaSet,
                 located_element: str) -> str:
        if plan.identity_type == "imsi":
            return plan.identity_value
        # Non-IMSI identities: find the record through the located copy's
        # attribute values (the LDAP server would use the SE's local index).
        copy = replica_set.copy_on(located_element)
        record = self._posted_identity_record(copy, plan.identity_type,
                                              plan.identity_value)
        if record is None:
            record = find_identity_record(copy, plan.identity_type,
                                          plan.identity_value)
        if record is None:
            return plan.identity_value
        return record.get("imsi", plan.identity_value)

    def _posted_identity_record(self, copy, identity_type: str,
                                value: str) -> Optional[dict]:
        """The one record on ``copy`` the catalog's postings name for an
        identity, confirmed against the copy itself.

        ``None`` when there is no catalog, no posting, or not exactly one
        confirmed hit (a copy lagging the catalog): the caller then scans
        the copy, so the answer is the scan's answer either way.
        """
        catalog = self.deployment.catalog
        attribute = IDENTITY_RECORD_ATTRIBUTE.get(identity_type)
        if catalog is None or attribute is None:
            return None
        postings = catalog.attributes.equality_postings(attribute, value)
        if not postings:
            return None
        hits = [record for record in map(copy.store.get, postings)
                if isinstance(record, dict)
                and record.get(attribute) == value]
        return hits[0] if len(hits) == 1 else None

    def _choose_read_element(self, replica_set: ReplicaSet, poa_site: Site,
                             client_type: ClientType) -> Optional[str]:
        quarantine = self.pipeline.read_quarantine
        master_only = not self.config.reads_from_slave(client_type)
        if master_only and not quarantine and not self.pipeline.shed_active:
            # The master or nothing: the member scan below would answer
            # the same, from a list of every reachable copy.
            master = replica_set.master_element_name
            if master is None:
                return None
            element = replica_set.element(master)
            return master if element.available and self.network.reachable(
                poa_site, element.site) else None
        reachable = self.reachable_members(replica_set, poa_site)
        if not reachable:
            return None
        if quarantine:
            # Copies under reconciliation repair are skipped while another
            # live copy can serve.  The partition's own master is never
            # filtered: repairs only touch slave copies, and an element
            # quarantined as the slave of one partition may be the master
            # of another (a fully quarantined set still answers: better a
            # read racing a repair than an outage).
            cleared = [name for name in reachable
                       if name not in quarantine
                       or name == replica_set.master_element_name]
            if cleared and len(cleared) < len(reachable):
                reachable = cleared
                self.pipeline.batch.increment(
                    "reconciliation.reads_steered")
        master = replica_set.master_element_name
        if master_only and not self.pipeline.shed_active:
            # Shed mode (sustained dispatcher overload) overrides a
            # master-only read policy: serving from the nearest replica
            # trades freshness for master capacity exactly while the queue
            # needs it.
            return master if master in reachable else None
        # Prefer a copy co-located with the PoA, then the closest one.
        choice = None
        for name in reachable:
            site = replica_set.element(name).site
            if site is poa_site or site == poa_site:
                choice = name
                break
        if choice is None:
            choice = min(reachable,
                         key=lambda name: self.network.mean_one_way_latency(
                             poa_site, replica_set.element(name).site))
        if choice != master and master_only:
            # Only possible in shed mode: count the reads it diverted.
            self.pipeline.batch.increment("dispatcher.shed.slave_reads")
        return choice

    def _staleness(self, replica_set: ReplicaSet, copy_element: str,
                   key: str) -> Tuple[bool, int]:
        master_name = replica_set.master_element_name
        if master_name is None or copy_element == master_name:
            return False, 0
        master_version = replica_set.master_copy.store.latest(key)
        copy_version = replica_set.copy_on(copy_element).store.latest(key)
        if master_version is None:
            return False, 0
        if copy_version is None:
            return True, 1
        behind = master_version.commit_seq - copy_version.commit_seq
        return behind > 0, max(0, behind)


class SearchPath(PipelineStage):
    """Serve a scoped Search: DIT interval scan, postings, keyset paging.

    The indexed path resolves the scope to a span over the deployment's
    :class:`~repro.directory.dit.DirectoryCatalog` (two binary searches over
    the DIT's interval labels, plus per-node entry counts), then walks the
    catalog's materialised ``(sort_key, entry_id)`` listing from the page's
    keyset cursor: a bisect, then forward, testing the filter planner's
    postings and the scope lazily, fetching candidate records until the page
    is full and looking one candidate ahead for ``has_more``.  A page costs
    its page and the candidates it walks past, not its scope.  The sim
    charge is unchanged: the scope's comparisons plus
    ``|scope ∩ postings|``, counted without listing either.  Every input of
    the walk is fixed at page start, so writes landing during the page's
    fetches cannot move it.  The parsed filter is compiled once per
    search (:meth:`SubscriberSchema.record_predicate`) and decides on each
    fetched raw record; only a hit becomes an LDAP entry with its ``dn``.
    With ``search_index_enabled`` off (or no catalog) it degrades to a full
    scan over every partition that evaluates the filter on every entry
    view, which is the e20 baseline.  Either way the full filter decides
    every returned entry, so the index only prunes, and both paths return
    bit-identical result sets.
    """

    def run(self, ctx: OperationContext,
            ledger: Optional[set] = None):
        from repro.ldap.filters import FilterPlanner, parse_filter
        plan = ctx.plan
        parsed = parse_filter(plan.filter_text)
        after = self._parse_cursor(plan.cursor)
        catalog = self.deployment.catalog
        if self.config.search_index_enabled and catalog is not None:
            self.pipeline.batch.increment("ldap.search.indexed")
            planner = FilterPlanner(catalog.attributes)
            yield from self._run_indexed(ctx, parsed, planner.plan(parsed),
                                         after, ledger)
        else:
            self.pipeline.batch.increment("ldap.search.scan")
            yield from self._run_scan(ctx, parsed, after, ledger)
        if plan.page_size is not None:
            self.pipeline.batch.increment("ldap.search.pages")

    # -- indexed ---------------------------------------------------------------

    def _run_indexed(self, ctx: OperationContext, parsed, filter_plan,
                     after: Optional[Tuple[str, str]],
                     ledger: Optional[set]):
        plan, poa = ctx.plan, ctx.poa
        catalog = self.deployment.catalog
        span = catalog.scope_candidates(plan.base_dn, plan.scope)
        if span is None:
            raise OperationFailure(ResultCode.NO_SUCH_OBJECT,
                                   f"search base {plan.base_dn} does not "
                                   f"exist")
        predicate = SubscriberSchema.record_predicate(parsed)
        candidates, walk = catalog.keyset_walk(
            span, filter_plan.candidates(), after)
        # Resolving the scope and counting its candidates is LDAP-server
        # CPU work.
        yield from self.sim.hold((span.comparisons + candidates)
                                 * poa.ldap_pool.service_time())
        search_ledger = ledger if ledger is not None else set()
        page_size = plan.page_size
        matches: List[Tuple[str, str, dict]] = []
        for sort_key, entry_id in walk:
            partition = catalog.partition_of(entry_id)
            if partition is None:
                continue
            replica_set = self.deployment.replica_sets[partition]
            record = yield from self._fetch(ctx, replica_set, entry_id,
                                            search_ledger)
            if record is None or not predicate(record):
                continue
            matches.append((sort_key, entry_id,
                            SubscriberSchema.ldap_entry(record)))
            if page_size is not None and len(matches) >= page_size:
                break
        # A full page has more to come when the walk holds one more
        # candidate, whether or not it would match.
        self._emit(ctx, matches, exhausted=next(walk, None) is None)

    def _fetch(self, ctx: OperationContext, replica_set: ReplicaSet,
               entry_id: str, ledger: set):
        """Generator: read one candidate record from its best copy.

        Returns the raw stored record, or ``None`` when the record vanished
        or its partition has no reachable copy (the candidate is skipped, the
        scan itself survives partial unavailability).
        """
        copy_element = self.pipeline.read_path._choose_read_element(
            replica_set, ctx.poa.site, ctx.client_type)
        if copy_element is None:
            return None
        element = self.deployment.elements[copy_element]
        copy = replica_set.copy_on(copy_element)
        try:
            yield from self.element_round_trip(ctx.poa, element,
                                               "copy unreachable",
                                               ledger=ledger)
        except OperationFailure:
            return None
        yield from self.sim.hold(
            element.service_times.operation_time(reads=1, writes=0))
        record = copy.store.get(entry_id)
        return record if isinstance(record, dict) else None

    # -- scan fallback ------------------------------------------------------------

    def _run_scan(self, ctx: OperationContext, parsed,
                  after: Optional[Tuple[str, str]],
                  ledger: Optional[set]):
        plan, poa = ctx.plan, ctx.poa
        base_dn, scope = plan.base_dn, plan.scope
        eval_time = poa.ldap_pool.service_time()
        search_ledger = ledger if ledger is not None else set()
        base_exists = False
        matches: List[Tuple[str, str, dict]] = []
        for replica_set in self.deployment.replica_sets.values():
            copy_element = self.pipeline.read_path._choose_read_element(
                replica_set, poa.site, ctx.client_type)
            if copy_element is None:
                raise OperationFailure(ResultCode.UNAVAILABLE,
                                       "no reachable copy for search scan")
            element = self.deployment.elements[copy_element]
            copy = replica_set.copy_on(copy_element)
            yield from self.element_round_trip(poa, element,
                                               "copy unreachable",
                                               ledger=search_ledger)
            keys = list(copy.store.keys())
            read_time = element.service_times.operation_time(reads=1,
                                                             writes=0)
            # One aggregate charge per partition: every record is read and
            # evaluated against the filter.
            yield from self.sim.hold(len(keys) * (read_time + eval_time))
            for key in keys:
                view = SubscriberSchema.catalog_view(key, copy.store.get(key))
                if view is None:
                    continue
                dn, entry = view
                if dn.is_descendant_of(base_dn):
                    base_exists = True
                if not _scope_matches(dn, base_dn, scope):
                    continue
                if parsed.matches(entry):
                    matches.append((dn.leaf_value, key, entry))
        if not base_exists:
            raise OperationFailure(ResultCode.NO_SUCH_OBJECT,
                                   f"search base {base_dn} does not exist")
        matches.sort(key=lambda match: (match[0], match[1]))
        if after is not None:
            matches = [m for m in matches if (m[0], m[1]) > after]
        page_size = plan.page_size
        if page_size is not None and len(matches) > page_size:
            self._emit(ctx, matches[:page_size], exhausted=False)
        else:
            self._emit(ctx, matches, exhausted=True)

    # -- shared tail --------------------------------------------------------------

    @staticmethod
    def _parse_cursor(cursor: Optional[str]) -> Optional[Tuple[str, str]]:
        if cursor is None:
            return None
        sort_key, separator, entry_id = cursor.rpartition("|")
        if not separator or not entry_id:
            raise OperationFailure(ResultCode.UNWILLING_TO_PERFORM,
                                   f"malformed page cursor {cursor!r}",
                                   retryable=False)
        return sort_key, entry_id

    def _emit(self, ctx: OperationContext,
              matches: List[Tuple[str, str, dict]], exhausted: bool) -> None:
        plan = ctx.plan
        ctx.entries = [_project(entry, plan.requested_attributes)
                       for _sort_key, _entry_id, entry in matches]
        ctx.served_from = "dit-index" if (
            self.config.search_index_enabled
            and self.deployment.catalog is not None) else "full-scan"
        if plan.page_size is not None and not exhausted:
            last = matches[-1]
            ctx.next_cursor = f"{last[0]}|{last[1]}"
            ctx.has_more = True
        else:
            ctx.next_cursor = None
            ctx.has_more = False
        self.pipeline.batch.record_read(
            ctx.client_type.value, served_from_slave=False, stale=False,
            versions_behind=0)


def _scope_matches(dn, base_dn, scope) -> bool:
    """Whether ``dn`` falls inside an LDAP search scope (brute-force form)."""
    name = getattr(scope, "name", str(scope))
    if name == "BASE":
        return dn == base_dn
    if name == "ONE_LEVEL":
        return len(dn) == len(base_dn) + 1 and dn.is_descendant_of(base_dn)
    return dn.is_descendant_of(base_dn)


def _project(entry: dict, requested: Sequence[str]) -> dict:
    """An answer entry cut to the requested attributes (all when none are
    requested; the ``dn`` is always kept)."""
    if not requested:
        return entry
    wanted = set(requested) | {"dn"}
    return {name: value for name, value in entry.items() if name in wanted}


def _identities_of(attributes: Dict[str, object]) -> Dict[str, str]:
    """The identities a subscriber record carries, keyed by identity type."""
    return {identity_type: attributes.get(attribute)
            for identity_type, attribute in IDENTITY_RECORD_ATTRIBUTE.items()
            if attributes.get(attribute)}


class WritePath(PipelineStage):
    """Run a write plan against the partition's write copy.

    Owns every write decision -- :meth:`place`, :meth:`write_target`,
    :meth:`apply_plan`, :meth:`register_created`, :meth:`forget` -- for
    both :meth:`run` and the coalesced wave path
    (:meth:`OperationPipeline._coalesced_write`).
    """

    def run(self, ctx: OperationContext,
            ledger: Optional[set] = None):
        plan = ctx.plan
        self.place(ctx)
        partition_index, target_name, element, copy = \
            yield from self.write_target(ctx, ledger)
        reads = 1 if plan.kind is PlanKind.UPDATE else 0
        yield from self.sim.hold(element.service_times.transaction_time(
            reads=reads, writes=1,
            synchronous_commit=self.config.synchronous_commit))

        record, prior_value = self._apply_write(plan, copy)
        ctx.epoch = copy.transactions.epoch

        # Synchronous replication modes add their commit-path cost here.
        if record is not None and \
                self.config.replication_mode is not ReplicationMode.ASYNCHRONOUS:
            yield from self.pipeline.replicate.run(partition_index, record)

        if plan.kind is PlanKind.CREATE:
            self.register_created(ctx)
        elif plan.kind is PlanKind.DELETE and isinstance(prior_value, dict):
            self.forget(_identities_of(prior_value))

        ctx.entries = []
        ctx.served_from = target_name

    def place(self, ctx: OperationContext) -> None:
        """Choose the storage element of a CREATE the locator does not
        know yet (every other write keeps its located element)."""
        plan = ctx.plan
        if plan.kind is PlanKind.CREATE and ctx.located_element is None:
            ctx.located_element = self.deployment.place_subscriber(
                _PlacementView(plan.attributes),
                plan.attributes.get("imsi", ""))

    def write_target(self, ctx: OperationContext,
                     ledger: Optional[set] = None):
        """Generator: choose the located partition's write copy and pay the
        PoA round trip to it; returns ``(partition_index, target_name,
        element, copy)`` or raises ``UNAVAILABLE``."""
        deployment = self.deployment
        partition_index = deployment.primary_partition_of_element[
            ctx.located_element]
        replica_set = deployment.replica_sets[partition_index]
        # The coordinator picks the master whenever it is up and reachable;
        # only otherwise does the choice need every reachable copy.
        target_name = replica_set.master_element_name
        master = None if target_name is None else \
            replica_set.element(target_name)
        if master is None or not master.available or \
                not self.network.reachable(ctx.poa.site, master.site):
            try:
                target_name = deployment.coordinators[partition_index] \
                    .choose_write_element(
                        self.reachable_members(replica_set, ctx.poa.site),
                        timestamp=self.sim.now)
            except MasterUnreachable as error:
                raise OperationFailure(
                    ResultCode.UNAVAILABLE,
                    f"master unreachable ({error.reason})") from None
        element = deployment.elements[target_name]
        copy = replica_set.copy_on(target_name)
        yield from self.element_round_trip(ctx.poa, element,
                                           "write copy unreachable",
                                           ledger=ledger)
        return partition_index, target_name, element, copy

    def register_created(self, ctx: OperationContext) -> Dict[str, str]:
        """Make a CREATE's identities locatable on its element and warm the
        serving PoA's cache; returns the identities."""
        identities = _identities_of(ctx.plan.attributes)
        poa = ctx.poa
        self.deployment.register_identities(
            identities, ctx.located_element,
            all_locators=self.config.location_mode is
            LocationMode.PROVISIONED_MAPS,
            serving_locator=poa.locator)
        cache = self.pipeline.cache_for(poa)
        if cache is not None and poa.locator_ready:
            for identity_type, value in identities.items():
                cache.store(identity_type, value, ctx.located_element)
        return identities

    def forget(self, identities: Dict[str, str]) -> None:
        """Make identities unlocatable: every locator deregisters them and
        no PoA cache may serve their location any more."""
        self.deployment.deregister_identities(identities)
        self.pipeline.caches.invalidate_identities(identities)

    def _apply_write(self, plan: OperationPlan, copy):
        """Run the intra-SE transaction for a write plan.

        Returns ``(commit_record, prior_value)``; the commit record is
        ``None`` for no-op writes and ``prior_value`` is the record that
        existed before a DELETE (used to deregister its identities).  Raises
        :class:`OperationFailure` on business errors.
        """
        transaction = copy.transactions.begin()
        try:
            prior_value = self.apply_plan(transaction, plan)
        except WriteConflict:
            # Transaction.write already aborted the transaction.
            raise OperationFailure(ResultCode.BUSY,
                                   "write conflict, retry") from None
        except FencedError as error:
            # Transaction.write already aborted; the retry stage re-locates
            # and lands the write on the copy the new epoch promoted.
            raise OperationFailure(ResultCode.FENCED,
                                   f"write copy fenced: {error}") from None
        except OperationFailure:
            transaction.abort()
            raise
        try:
            record = transaction.commit(timestamp=self.sim.now)
        except FencedError as error:
            # Fenced between apply and commit: nothing was installed.
            raise OperationFailure(ResultCode.FENCED,
                                   f"write copy fenced: {error}") from None
        return record, prior_value

    def apply_plan(self, transaction, plan: OperationPlan):
        """Apply one write plan inside ``transaction`` (no begin/commit).

        The per-record half of the write path, shared by the one-transaction-
        per-write path and the coalesced multi-record transaction
        of a batch wave.  Business errors raise :class:`OperationFailure`
        *without* touching the transaction (the caller owns its lifecycle);
        a :class:`WriteConflict` from the no-wait lock grab propagates raw --
        by then ``Transaction.write`` has aborted the whole transaction.
        Write plans always address their record by IMSI (the LDAP server
        plans writes from subscriber DNs only).  Returns the record a
        DELETE removed, else ``None``.
        """
        key = f"sub:{plan.identity_value}"
        if plan.kind is PlanKind.CREATE:
            if transaction.exists(key):
                raise OperationFailure(ResultCode.ENTRY_ALREADY_EXISTS,
                                       "entry already exists")
            transaction.write(key, dict(plan.attributes))
            return None
        if plan.kind is PlanKind.UPDATE:
            try:
                transaction.modify(key, plan.changes, must_exist=True)
            except RecordNotFound:
                raise OperationFailure(ResultCode.NO_SUCH_OBJECT,
                                       "record not found") from None
            return None
        prior_value = transaction.read_or_default(key)  # DELETE
        if prior_value is None:
            raise OperationFailure(ResultCode.NO_SUCH_OBJECT,
                                   "record not found")
        transaction.delete(key)
        return prior_value


class _CoalescedGroup:
    """One wave's multi-record write transaction against one partition.

    Writes of one admission wave that target the same partition are applied
    inside a single shared intra-SE transaction: one PoA round trip paid at
    group open, per-record engine time at each record's turn, and exactly one
    commit charge (plus one synchronous-replication charge) when the group is
    flushed at wave end.  A failing record rolls back to its savepoint, so
    its result code is isolated while the surviving records still commit.
    """

    __slots__ = ("partition_index", "target_name", "element", "copy",
                 "transaction", "members", "undos")

    def __init__(self, partition_index: int, target_name: str, element,
                 copy):
        self.partition_index = partition_index
        self.target_name = target_name
        self.element = element
        self.copy = copy
        self.transaction = copy.transactions.begin()
        #: Requests whose record was applied (still uncommitted) here.
        self.members: List[OperationContext] = []
        #: Undo callables for the eager identity bookkeeping of applied
        #: CREATE/DELETE records, run (in reverse) when the whole group's
        #: writes are discarded -- an abort while applying, a fence at
        #: flush, or a synchronous-replication shortfall at flush.
        self.undos: List = []


class ReplicateStage(PipelineStage):
    """Synchronous replication cost on the commit path."""

    def run(self, partition_index: int, record):
        try:
            if self.config.replication_mode is ReplicationMode.DUAL_IN_SEQUENCE:
                yield from self.deployment.dual_replicators[partition_index] \
                    .replicate_commit(record)
            elif self.config.replication_mode is ReplicationMode.QUORUM:
                yield from self.deployment.quorum_replicators[partition_index] \
                    .replicate_commit(record)
        except NotEnoughReplicas:
            # The local commit already happened: not retryable (see
            # OperationFailure.retryable).
            raise OperationFailure(
                ResultCode.UNAVAILABLE,
                "not enough replicas for the configured durability",
                retryable=False) from None


class RespondStage(PipelineStage):
    """The answer travels back from the PoA to the client."""

    def run_group(self, poa_site: Site, client_site: Site, answers: int):
        """One shared transfer carries a wave's ``answers`` back to a site.

        A lost response times the client out: the operation's outcome is
        still decided by what happened at the UDR, but the loss counts
        ``response_lost`` once per answer so experiment reports see it.
        """
        try:
            yield from self.network.transfer(poa_site, client_site)
        except NetworkError:
            self.pipeline.batch.increment("response_lost", answers)


@dataclass(frozen=True)
class BatchItem:
    """One request of a batch: what a client hands to ``execute_batch``.

    ``priority`` defaults to the client type's natural class
    (FE -> signalling, PS -> provisioning); bulk provisioning runs pass
    :attr:`Priority.BULK` explicitly.  ``deadline`` (absolute virtual time)
    and ``retry_policy`` carry per-session QoS overrides from the
    :mod:`repro.api` layer; they default to no deadline and the config's
    retry policy.
    """

    request: LdapRequest
    client_type: ClientType
    client_site: Site
    priority: Optional[Priority] = None
    deadline: Optional[float] = None
    retry_policy: Optional["RetryPolicy"] = None
    #: Index of :meth:`priority_class` in :data:`PRIORITY_ORDER`, fixed at
    #: construction so admission never re-derives the class.
    rank: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rank", PRIORITY_ORDER.index(
            self.priority or Priority.for_client(self.client_type)))

    def priority_class(self) -> Priority:
        return PRIORITY_ORDER[self.rank]


class AdmissionQueue:
    """The weighted-priority admission order as a queue that lives on.

    One heap per priority class keyed ``(deadline or inf, arrival seq)``:
    the earliest absolute deadline first within a class, deadline-free work
    at the class's back, FIFO among ties.  :meth:`pop_wave` runs the
    weighted round robin over those heaps (``UDRConfig.priority_weights``
    quanta per turn, classes in :data:`PRIORITY_ORDER`), restarting the
    round at every call, and pops at most ``limit`` entries -- so one wave
    costs O(wave log depth) however deep the queue is.  The live entries
    are also kept in arrival order (a dict keyed on arrival seq) and their
    QoS deadlines in a heap, so the oldest entry, :meth:`expire` and
    :meth:`earliest_deadline` touch only the entries they return.  Heaps
    delete lazily: an entry removed by one view stays in the others until
    it surfaces, and is skipped there because its seq is no longer live.

    Entries are anything with a ``rank`` and a ``deadline``: batch items,
    request contexts or dispatcher tickets.
    """

    __slots__ = ("_weights", "_heaps", "_counts", "_live", "_deadlines",
                 "_next_seq", "_oldest_seq")

    def __init__(self, config: UDRConfig):
        self._weights = tuple(config.weight_of(priority)
                              for priority in PRIORITY_ORDER)
        self._heaps: Tuple[list, ...] = tuple([] for _ in PRIORITY_ORDER)
        #: Live entries per class (the heaps may also hold dead ones).
        self._counts = [0] * len(PRIORITY_ORDER)
        self._live: Dict[int, object] = {}
        self._deadlines: List[Tuple[float, int]] = []
        self._next_seq = 0
        #: No live entry has a seq below this; :meth:`oldest` advances it.
        self._oldest_seq = 0

    def __len__(self) -> int:
        return len(self._live)

    def __iter__(self):
        """The live entries in arrival order."""
        return iter(self._live.values())

    def count(self, priority: Priority) -> int:
        """Live entries of one priority class."""
        return self._counts[PRIORITY_ORDER.index(priority)]

    def push(self, entry) -> None:
        seq = self._next_seq
        self._next_seq = seq + 1
        self._live[seq] = entry
        deadline = entry.deadline
        rank = entry.rank
        self._counts[rank] += 1
        if deadline is None:
            heappush(self._heaps[rank], (_INFINITY, seq, entry))
            return
        heappush(self._heaps[rank], (deadline, seq, entry))
        deadlines = self._deadlines
        heappush(deadlines, (deadline, seq))
        if len(deadlines) > 64 and len(deadlines) > 2 * len(self._live):
            # Popped entries' deadlines outnumber the live ones: compact.
            live = self._live
            deadlines[:] = [pair for pair in deadlines if pair[1] in live]
            heapify(deadlines)

    def oldest(self):
        """The earliest-arrived live entry (the queue must not be empty)."""
        live = self._live
        seq = self._oldest_seq
        while seq not in live:
            seq += 1
        self._oldest_seq = seq
        return live[seq]

    def pop_wave(self, limit: int, defer: Optional[Priority] = None) -> list:
        """Remove and return the next ``limit`` entries in admission order.

        ``defer`` names a class left out of this wave (it stays queued).
        """
        live = self._live
        counts = self._counts
        skip = None if defer is None else PRIORITY_ORDER.index(defer)
        remaining = min(limit, len(live) - (0 if skip is None
                                            else counts[skip]))
        wave = []
        while remaining > 0:
            for rank, heap in enumerate(self._heaps):
                if rank == skip:
                    continue
                take = min(self._weights[rank], counts[rank], remaining)
                if take <= 0:
                    continue
                counts[rank] -= take
                remaining -= take
                for _ in range(take):
                    _key, seq, entry = heappop(heap)
                    while seq not in live:
                        _key, seq, entry = heappop(heap)
                    del live[seq]
                    wave.append(entry)
        return wave

    def expire(self, now: float) -> list:
        """Remove and return, in arrival order, the entries whose deadline
        is at or before ``now``."""
        deadlines = self._deadlines
        live = self._live
        counts = self._counts
        expired = []
        while deadlines and deadlines[0][0] <= now:
            seq = heappop(deadlines)[1]
            entry = live.pop(seq, None)
            if entry is not None:
                counts[entry.rank] -= 1
                expired.append((seq, entry))
        if expired:
            # A class heap sheds its expired entries only as pop_wave
            # reaches them, which a deferred class never does: compact.
            for rank, heap in enumerate(self._heaps):
                if len(heap) > 2 * counts[rank] + 64:
                    heap[:] = [key for key in heap if key[1] in live]
                    heapify(heap)
        expired.sort(key=lambda pair: pair[0])
        return [entry for _seq, entry in expired]

    def earliest_deadline(self) -> Optional[float]:
        """The earliest QoS deadline among live entries, or ``None``."""
        deadlines = self._deadlines
        live = self._live
        while deadlines and deadlines[0][1] not in live:
            heappop(deadlines)
        return deadlines[0][0] if deadlines else None


class BatchAdmissionStage(PipelineStage):
    """Admission of a whole batch: priority dequeue plus shared PoA hops.

    The dequeue is a weighted round-robin over the priority classes in
    descending order (``UDRConfig.priority_weights`` quanta per turn), FIFO
    within each class, so signalling traffic overtakes provisioning and bulk
    without starving them.  Within one class, deadline-carrying work is
    ordered by remaining slack: the earlier absolute deadline goes first,
    deadline-free work keeps its FIFO position at the back of the class --
    so a wave that cannot take everything spends its slots on the requests
    closest to expiring instead of answering them ``TIME_LIMIT_EXCEEDED``
    a wave later.  With no deadlines in play the order is exactly the PR 6
    weighted round-robin.  :class:`AdmissionQueue` is the one
    implementation of this order; the dispatcher keeps one across waves.
    The ordered queue is then cut into admission waves of at most
    ``batch_max_size`` requests; within a wave the requests of one client
    site share a single client-to-PoA transfer.
    """

    def order(self, entries: Sequence, limit: Optional[int] = None) -> list:
        """The weighted-priority admission order (slack-sorted in a class)
        of :class:`AdmissionQueue` entries.

        With ``limit`` the round robin stops after ``limit`` picks, so
        ``order(entries, k) == order(entries)[:k]`` without ordering the
        rest.
        """
        queue = AdmissionQueue(self.config)
        for entry in entries:
            queue.push(entry)
        return queue.pop_wave(len(entries) if limit is None else limit)

    def waves(self, ordered: Sequence[OperationContext]
              ) -> List[List[OperationContext]]:
        """Cut the admission order into waves of at most ``batch_max_size``."""
        size = self.config.batch_max_size
        return [list(ordered[start:start + size])
                for start in range(0, len(ordered), size)]


class RetryStage(PipelineStage):
    """Policy-driven retries around the per-request data path.

    Drives locate (when not already resolved by the shared group probe) and
    the read/write path for one context.  On an :class:`OperationFailure`
    whose code the context's :class:`~repro.core.config.RetryPolicy` calls
    transient, it waits the policy's backoff and tries again -- re-running
    data location from scratch, so a fail-over that invalidated the PoA
    caches between attempts is honoured instead of retrying against the
    stale location.  The policy is resolved at context creation (the
    per-session QoS override, else ``UDRConfig.retry_policy``, else
    ``None``); without one the stage is a plain pass-through.

    Deadline propagation: a context whose ``deadline`` has passed
    short-circuits with ``TIME_LIMIT_EXCEEDED`` before touching the data
    path, and a retry whose backoff would land past the deadline is not
    driven at all -- expired work must not consume pipeline hops.
    """

    def run(self, ctx: OperationContext,
            pending_failure: Optional[OperationFailure] = None,
            ledger: Optional[set] = None):
        policy = ctx.retry_policy
        batch = self.pipeline.batch
        failure = pending_failure
        attempt = 0
        while True:
            if failure is None and ctx.deadline is not None and \
                    self.sim.now >= ctx.deadline:
                batch.increment("api.deadline_expired")
                raise OperationFailure(ResultCode.TIME_LIMIT_EXCEEDED,
                                       "deadline expired", retryable=False)
            if failure is None:
                try:
                    if not ctx.location_resolved:
                        self.pipeline.locate.run(ctx)
                    if ctx.plan.kind is PlanKind.READ:
                        yield from self.pipeline.read_path.run(ctx,
                                                               ledger=ledger)
                    elif ctx.plan.kind is PlanKind.SEARCH:
                        yield from self.pipeline.search_path.run(ctx,
                                                                 ledger=ledger)
                    else:
                        yield from self.pipeline.write_path.run(ctx,
                                                                ledger=ledger)
                    if attempt:
                        batch.increment("batch.retry_succeeded")
                    return
                except OperationFailure as error:
                    failure = error
            if policy is None or not failure.retryable or \
                    not policy.retries(failure.code):
                raise failure
            if attempt >= policy.max_retries:
                batch.increment("batch.retry_exhausted")
                raise failure
            attempt += 1
            # Count the attempt before deciding whether its backoff fits the
            # deadline: a deadline-refused retry still *ran* (and failed) an
            # attempt, and the response's ``attempts`` must say so.
            ctx.attempts = attempt
            if ctx.deadline is not None and \
                    self.sim.now + policy.backoff(attempt) >= ctx.deadline:
                # The backoff alone would outlive the deadline: answer now
                # instead of sleeping into certain expiry.
                batch.increment("api.deadline_expired")
                raise OperationFailure(ResultCode.TIME_LIMIT_EXCEEDED,
                                       "deadline expired before retry",
                                       retryable=False)
            batch.increment("batch.retries")
            yield from self.sim.hold(policy.backoff(attempt))
            ctx.located_element = None
            ctx.location_resolved = False
            ctx.entries = []
            ctx.next_cursor = None
            ctx.has_more = False
            # A retry is a fresh message; it pays its own network hops.
            ledger = None
            failure = None


class OperationPipeline:
    """The staged operation path of one UDR deployment."""

    def __init__(self, sim, config: UDRConfig, deployment: Deployment,
                 metrics: MetricsRegistry, caches: LocationCacheGroup):
        self.sim = sim
        self.config = config
        self.deployment = deployment
        self.metrics = metrics
        self.caches = caches
        self.batch = MetricsBatch(metrics)
        self.admission = AdmissionStage(self)
        self.plan_stage = LdapPlanStage(self)
        self.locate = LocateStage(self)
        self.read_path = ReadPath(self)
        self.search_path = SearchPath(self)
        self.write_path = WritePath(self)
        self.replicate = ReplicateStage(self)
        self.respond = RespondStage(self)
        self.batch_admission = BatchAdmissionStage(self)
        self.retry_stage = RetryStage(self)
        #: Set by the dispatcher's shed controller while the deployment is
        #: in shed mode; the read path consults it to allow slave reads for
        #: master-only client types.  Plain attribute (not config) because
        #: it flips at simulation time.
        self.shed_active = False
        #: Element names whose partition copies are currently under
        #: reconciliation repair (:class:`repro.cdc.reconcile.Reconciler`);
        #: the read path avoids choosing them while another live copy can
        #: serve, so reads cannot observe half-repaired replica state.
        self.read_quarantine = set()

    # -- cache plumbing ------------------------------------------------------------

    def cache_for(self, poa: PointOfAccess) -> Optional[PoALocationCache]:
        if not self.config.location_cache_enabled:
            return None
        return self.caches.for_poa(poa)

    # -- the operation path --------------------------------------------------------

    def execute(self, request: LdapRequest, client_type: ClientType,
                client_site: Site, priority: Optional[Priority] = None,
                deadline: Optional[float] = None,
                retry_policy: Optional[RetryPolicy] = None):
        """Generator: run one LDAP request as a one-slot wave.

        ``DIRECT`` dispatch's arrival policy: the wave runs in the caller's
        process, so the caller waits exactly as long as the request takes.
        Returns an :class:`~repro.ldap.operations.LdapResponse`; never raises
        for operational failures -- they are encoded as result codes,
        exactly as a directory server would answer.  ``retry_policy``
        overrides ``UDRConfig.retry_policy``.  A ``deadline`` (absolute
        virtual time) already passed is answered ``TIME_LIMIT_EXCEEDED``
        without any hop; one that passes in flight is answered where the
        wave notices it.
        """
        ctx = OperationContext(
            request, client_type, client_site, self.sim.now, priority,
            deadline, retry_policy if retry_policy is not None
            else self.config.retry_policy)
        yield from self._run_wave([ctx], charge_linger=False)
        self.batch.flush()
        return ctx.response

    def execute_batch(self, items: Sequence[BatchItem]):
        """Generator: carry N requests through the stages together.

        ``items`` is a sequence of :class:`BatchItem`.  Returns the list of
        :class:`~repro.ldap.operations.LdapResponse` in submission order.

        The batch is put in admission order (:class:`BatchAdmissionStage`)
        and cut into waves of at most ``UDRConfig.batch_max_size``; an
        under-filled wave pays the ``batch_linger_ticks`` surcharge.  Result
        codes and final store state equal those of the same requests
        executed one by one in admission order -- which preserves
        submission order within each priority class but interleaves the
        classes by weight (pinned by ``tests/test_batch_equivalence.py``).
        The metric batch is flushed exactly once, after the last wave.
        """
        contexts = self._contexts(items)
        admission = self.batch_admission
        self.batch.increment("batch.batches")
        for wave in admission.waves(admission.order(contexts)):
            yield from self._run_wave(wave)
        self.batch.flush()
        return [ctx.response for ctx in contexts]

    def execute_wave(self, items: Sequence[BatchItem]):
        """Generator: drive one wave, in the given order, through the stages.

        The :class:`~repro.core.dispatcher.BatchDispatcher`'s unit of work:
        its queue pops each wave already sized (``<= batch_max_size``) and
        in admission order, and the wave really lingered there, so it never
        pays the explicit-batch linger surcharge.  Responses come back in
        ``items`` order; the metric batch flushes exactly once.
        """
        contexts = self._contexts(items)
        yield from self._run_wave(contexts, charge_linger=False)
        self.batch.flush()
        return [ctx.response for ctx in contexts]

    def _contexts(self, items: Sequence[BatchItem]) -> List[OperationContext]:
        """One context per item, in ``items`` order."""
        now = self.sim.now
        default_policy = self.config.retry_policy
        return [OperationContext(
                    item.request, item.client_type, item.client_site, now,
                    PRIORITY_ORDER[item.rank], item.deadline,
                    item.retry_policy if item.retry_policy is not None
                    else default_policy)
                for item in items]

    def _run_wave(self, wave: List[OperationContext],
                  charge_linger: bool = True):
        """Generator: drive one admission wave through the stages.

        A request whose deadline has already passed is answered
        ``TIME_LIMIT_EXCEEDED`` at once, with zero latency and no hop.  The
        shared front of the pipeline (PoA hop, LDAP service charge, request
        translation, group location probes) runs once per client site; the
        transactional tail then fans out over the *whole* wave in admission
        order -- not site group by site group -- so dependent requests of
        one priority class behave exactly as sequential execution
        regardless of which sites they arrive from.  One shared answer
        transfer per site group closes the wave, and each context gets its
        ``response``.

        ``charge_linger`` applies the fixed linger surcharge that models an
        under-filled *explicit* batch waiting for late arrivals.
        """
        config = self.config
        batch = self.batch
        wave_start = self.sim.now  # a lingering wave's wait counts as latency
        # Grouped by a scan, not a dict: a wave meets few client sites, and
        # hashing a Site runs Python code.
        site_groups: List[List[OperationContext]] = []
        for ctx in wave:
            ctx.start = wave_start
            deadline = ctx.deadline
            if deadline is not None and wave_start >= deadline:
                # Expired before admission: no PoA hop, no LDAP charge.
                batch.increment("api.deadline_expired")
                self._answer(ctx, ResultCode.TIME_LIMIT_EXCEEDED,
                             "deadline expired")
                continue
            site = ctx.client_site
            for group in site_groups:
                group_site = group[0].client_site
                if group_site is site or group_site == site:
                    group.append(ctx)
                    break
            else:
                site_groups.append([ctx])
        if not site_groups:
            return
        if charge_linger and config.batch_linger_ticks and \
                len(wave) < config.batch_max_size:
            # An under-filled explicit wave lingers for late arrivals.
            yield from self.sim.hold(
                config.batch_linger_ticks * BATCH_LINGER_TICK)
        defer_unknown = False
        for group in site_groups:
            try:
                # One shared PoA hop for the group.
                poa = yield from self.admission.reach_poa(
                    group[0].client_site)
            except OperationFailure as failure:
                # No answer can travel back: the group is done.
                for ctx in group:
                    self._answer(ctx, failure.code, failure.reason)
                continue
            batch.increment("batch.admitted", len(group))
            creates = yield from self.plan_stage.run_group(poa, group)
            defer_unknown = defer_unknown or creates
        # From here on, a group answered at admission is done.  Identities
        # unknown at wave start stay unresolved only when an earlier
        # request of this wave could register them (a CREATE; a DELETE can
        # only remove, which the fan-out's placement_changed covers).
        for group in site_groups:
            if group[0].response is None:
                self.locate.run_group(group, defer_unknown)
        # Fan back out: the transactional tail is per request, in admission
        # order, through the RetryStage after a deadline check and data
        # location that give the codes and counters it would.  The wave's
        # ledger lets requests targeting copies at the same site share one
        # bulk round trip ("group by target partition").  With
        # coalesce_writes a write joins its partition's shared transaction
        # instead (_coalesced_write), and a read or search first commits
        # the open groups it could observe, so it sees its wave-mates'
        # earlier writes exactly as one-by-one execution would.
        ledger: set = set()
        coalesce = config.coalesce_writes
        sim = self.sim
        groups: Dict[int, _CoalescedGroup] = {}
        placement_changed = False
        for ctx in wave:
            if not ctx.runnable:
                continue
            if placement_changed and ctx.location_resolved:
                # An earlier CREATE/DELETE of this wave may have moved or
                # removed data the shared probe resolved: re-locate at this
                # request's own turn, as one-by-one execution would.
                ctx.located_element = None
                ctx.location_resolved = False
            pending = ctx.failure
            ctx.failure = None
            if pending is None and ctx.deadline is not None and \
                    sim.now >= ctx.deadline:
                # Expired work must not consume the wave's hops.
                batch.increment("api.deadline_expired")
                pending = OperationFailure(ResultCode.TIME_LIMIT_EXCEEDED,
                                           "deadline expired",
                                           retryable=False)
            if pending is None and not ctx.location_resolved:
                try:
                    self.locate.run(ctx)
                except OperationFailure as failure:
                    pending = failure
            joined = False
            if pending is None and coalesce and ctx.plan.is_write:
                pending = yield from self._coalesced_write(ctx, groups,
                                                           ledger)
                joined = pending is None
            elif pending is None and groups:
                # Commit the groups this read could observe: the one on its
                # partition, or every one for a scoped search.
                observed = list(groups) if ctx.plan.kind is PlanKind.SEARCH \
                    else [self.deployment.primary_partition_of_element.get(
                        ctx.located_element)]
                for partition in observed:
                    if partition in groups:
                        yield from self._flush_group(groups.pop(partition))
            if not joined:
                try:
                    yield from self.retry_stage.run(
                        ctx, pending_failure=pending, ledger=ledger)
                except OperationFailure as failure:
                    ctx.failure = failure
            if ctx.failure is None and \
                    ctx.plan.kind in (PlanKind.CREATE, PlanKind.DELETE):
                placement_changed = True
        for group in groups.values():
            yield from self._flush_group(group)
        # One shared answer transfer back to each admitted client site.
        for group in site_groups:
            first = group[0]
            if first.response is not None:
                continue
            yield from self.respond.run_group(first.poa.site,
                                              first.client_site, len(group))
            for ctx in group:
                failure = ctx.failure
                if failure is None:
                    self._answer(ctx, ResultCode.SUCCESS)
                else:
                    self._answer(ctx, failure.code, failure.reason)

    def _coalesced_write(self, ctx: OperationContext,
                         groups: Dict[int, _CoalescedGroup],
                         ledger: set):
        """Generator: apply one write inside its partition's shared
        transaction; the commit (and its charge) waits for
        :meth:`_flush_group`.

        Returns ``None`` on success or the :class:`OperationFailure` the
        caller should hand to the retry stage (group open failures and
        conflict aborts are transient; business errors are final either
        way).
        """
        plan = ctx.plan
        write_path = self.write_path
        write_path.place(ctx)
        partition_index = self.deployment.primary_partition_of_element[
            ctx.located_element]
        group = groups.get(partition_index)
        if group is None:
            # The opener pays the PoA round trip once for the whole group
            # (the wave ledger covers same-site repeats).
            try:
                target = yield from write_path.write_target(ctx, ledger)
            except OperationFailure as failure:
                return failure
            group = groups[partition_index] = _CoalescedGroup(*target)
        reads = 1 if plan.kind is PlanKind.UPDATE else 0
        yield from self.sim.hold(
            group.element.service_times.operation_time(reads=reads, writes=1))
        savepoint = group.transaction.savepoint()
        try:
            prior_value = write_path.apply_plan(group.transaction, plan)
        except (WriteConflict, FencedError) as error:
            # The no-wait lock grab lost against a transaction *outside* the
            # wave (or the membership plane fenced the copy mid-wave) and
            # aborted the shared transaction: every record applied so far is
            # discarded through no fault of its own and is re-driven.  Only
            # the record that hit the conflict/fence answers BUSY/FENCED,
            # retryable under the policy -- exactly the per-write outcome.
            del groups[partition_index]
            yield from self._redrive(group, fenced=False)
            if isinstance(error, FencedError):
                return OperationFailure(ResultCode.FENCED,
                                        "write copy fenced, retry")
            return OperationFailure(ResultCode.BUSY, "write conflict, retry")
        except OperationFailure as failure:
            group.transaction.rollback_to(savepoint)
            self.batch.increment("batch.coalesced.rollbacks")
            return failure
        group.members.append(ctx)
        ctx.epoch = group.copy.transactions.epoch
        self.batch.increment("batch.coalesced.records")
        if plan.kind is PlanKind.CREATE:
            # Register eagerly (the per-write path registers after its
            # commit): later requests of this wave must locate the newcomer.
            identities = write_path.register_created(ctx)
            group.undos.append(lambda ids=identities: write_path.forget(ids))
        elif plan.kind is PlanKind.DELETE and isinstance(prior_value, dict):
            identities = _identities_of(prior_value)
            write_path.forget(identities)
            group.undos.append(
                lambda ids=identities, element=ctx.located_element:
                self._undo_delete(ids, element))
        ctx.entries = []
        ctx.served_from = group.target_name
        return None

    def _undo_delete(self, identities: Dict[str, str],
                     element_name: str) -> None:
        """Re-register a DELETE's identities when the group's outcome
        voided its eager deregistration: after a conflict abort the record
        still exists and must stay locatable; after a replication
        shortfall the per-write path would have raised *before* its
        deregistration ran, so the registrations must survive there too."""
        self.deployment.register_identities(identities, element_name,
                                            all_locators=True)

    def _redrive(self, group: _CoalescedGroup, fenced: bool):
        """Generator: undo a group that committed nothing and re-drive each
        member, re-located from scratch, through the per-record path.

        ``fenced=False``: an abort while applying (``batch.coalesced.aborts``)
        -- the members never committed, so this completes them.  ``fenced=True``:
        the commit was fenced at flush (``batch.coalesced.fenced``) -- each
        member carries the FENCED verdict its own commit would have earned
        into the retry policy.  A re-drive is a fresh message: no ledger.
        """
        self.batch.increment("batch.coalesced.fenced" if fenced
                             else "batch.coalesced.aborts")
        for undo in reversed(group.undos):
            undo()
        for ctx in group.members:
            ctx.located_element = None
            ctx.location_resolved = False
            ctx.entries = []
            pending = OperationFailure(ResultCode.FENCED,
                                       "write copy fenced") if fenced else None
            try:
                yield from self.retry_stage.run(ctx, pending_failure=pending)
            except OperationFailure as failure:
                ctx.failure = failure

    def _flush_group(self, group: _CoalescedGroup):
        """Generator: commit one coalesced group -- one commit charge (and
        one synchronous-replication drive) for all its records.  A fence at
        commit re-drives every member (:meth:`_redrive`).  A
        synchronous-replication shortfall marks every member with the same
        non-retryable code each would have earned on the per-write path,
        and reverses the eager identity bookkeeping: the per-write path
        raises *before* registering a CREATE (or deregistering a DELETE),
        so lookups must not diverge between the two modes."""
        yield from self.sim.hold(group.element.service_times.commit_charge(
            self.config.synchronous_commit))
        try:
            record = group.transaction.commit(timestamp=self.sim.now)
        except FencedError:
            # Fenced between apply and flush: nothing committed.
            yield from self._redrive(group, fenced=True)
            return
        self.batch.increment("batch.coalesced.groups")
        if record is not None and \
                self.config.replication_mode is not ReplicationMode.ASYNCHRONOUS:
            try:
                yield from self.replicate.run(group.partition_index, record)
            except OperationFailure as failure:
                for undo in reversed(group.undos):
                    undo()
                for ctx in group.members:
                    if ctx.failure is None:
                        ctx.failure = failure

    def _answer(self, ctx: OperationContext, code: ResultCode,
                reason: str = "") -> None:
        """Give ``ctx`` its response and record its metrics."""
        latency = self.sim.now - ctx.start
        ctx.response = LdapResponse(
            result_code=code, request=ctx.request, entries=list(ctx.entries),
            diagnostic_message=reason, latency=latency,
            served_from=ctx.served_from, attempts=ctx.attempts,
            next_cursor=ctx.next_cursor, has_more=ctx.has_more)
        self.batch.record_answer(
            ctx.client_type.value, _PRIORITY_VALUES[ctx.rank], latency,
            None if code.is_success else reason or code.name.lower())

    def flush_metrics(self) -> None:
        """Apply any batched metric records to the registry now."""
        self.batch.flush()

    def __repr__(self) -> str:
        return (f"<OperationPipeline {self.config.name!r} "
                f"caches={len(self.caches)}>")


class _PlacementView:
    """Adapts a new entry's attributes to the placement policy interface."""

    def __init__(self, attributes: Dict[str, object]):
        self.key = f"sub:{attributes.get('imsi', '')}"
        self.home_region = attributes.get("homeRegion")
        self.organisation = attributes.get("organisation")
