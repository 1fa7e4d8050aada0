"""Lease-based failure detection, quorum promotion and epoch fencing.

The paper's availability story assumes fail-over is *triggered correctly*;
this module supplies the trigger.  Three cooperating pieces:

* **Leases** -- every site observes every storage element each
  ``heartbeat_interval`` through the existing
  :class:`~repro.cluster.saf.AvailabilityManager` component states and the
  network's direction-aware reachability.  A probe succeeds only when the
  element is in service *and* the observer/element sites have bidirectional
  contact; ``lease_ticks`` consecutive misses raise a suspicion.
  Symmetrically, a master copy renews its own lease only while its site has
  bidirectional contact with a majority of sites, and **self-fences** after
  ``lease_ticks`` failed renewals -- so by the time a quorum could first
  agree the master is gone, the master itself has already stopped
  accepting writes.  That ordering (renewals are evaluated before
  promotions every round) is what makes the protocol split-brain-proof
  without real-time clocks.

* **Partition awareness** -- an observer whose own site cannot reach a
  majority of sites is on the minority side of a partition: its suspicions
  are classified as *link* suspicions (counted, never voted), so an
  isolated site never triggers a promotion of the elements it merely
  cannot see.

* **Quorum promotion with epochs** -- when a majority of connected sites
  suspect a master element, the :class:`PromotionProtocol` collects one
  vote round-trip per agreeing site (over the dedicated ``membership``
  network stream), promotes the most up-to-date copy on the quorum side
  through :meth:`~repro.core.lifecycle.ClusterController.fail_over` (the
  internal arm), and stamps the promotion with a monotonically increasing
  **epoch**.  The epoch fences the deposed master end-to-end: its storage
  commits answer ``FENCED``, its stale replication shipments are dropped
  by position, and the CDC stream tags records with the epoch that
  durably committed them.  A deposed master that rejoins receives its
  pending fence, replays its acked-but-unshipped tail onto the new master
  as fresh current-epoch commits (skipping keys the newer epoch already
  superseded), and is force-resynchronised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster.saf import ComponentState
from repro.net.errors import NetworkError
from repro.sim import Interrupt
from repro.storage.errors import StorageError


@dataclass(frozen=True)
class PromotionRecord:
    """One epoch-stamped promotion of a partition's mastership."""

    partition_index: int
    epoch: int
    old_master: Optional[str]
    new_master: str
    at: float
    #: How the promotion was triggered: ``"detector"`` (quorum suspicion)
    #: or ``"oracle"`` (an explicit ``fail_over`` call).
    trigger: str = "detector"
    #: Whether the deposed master was already safe (crashed or fenced) at
    #: the instant of promotion -- the split-brain invariant chaos
    #: campaigns assert for every detector-triggered promotion.  ``None``
    #: when the partition had no previous master.
    old_master_fenced: Optional[bool] = None


@dataclass
class MembershipStats:
    """Counters the membership plane keeps for experiments and tests."""

    ticks: int = 0
    suspicions: int = 0
    link_suspicions: int = 0
    self_fences: int = 0
    unfences: int = 0
    promotions: int = 0
    aborted_promotions: int = 0
    fences_delivered: int = 0
    handoff_commits: int = 0
    handoff_skipped_superseded: int = 0
    handoff_conflicts: int = 0


class PromotionProtocol:
    """Epoch registry, vote collection, fence delivery and rejoin handoff.

    The protocol owns the authoritative per-partition epoch counter.  Every
    promotion -- detector-driven or oracle -- goes through
    :meth:`register_promotions`, which advances the epoch, stamps the new
    master's transaction manager, and queues a fence for the deposed one.
    Fences that cannot be delivered (the deposed element is down or cut
    off) stay pending and are retried every membership round; delivery
    runs the rejoin handoff and a force-resync so the returning copy folds
    back in as a consistent slave.
    """

    def __init__(self, sim, deployment, controller, policy,
                 stats: Optional[MembershipStats] = None):
        self.sim = sim
        self.deployment = deployment
        self.controller = controller
        self.policy = policy
        self.stats = stats if stats is not None else MembershipStats()
        #: Authoritative promotion epoch per partition (0 = never promoted).
        self.epochs: Dict[int, int] = {}
        #: Every promotion ever performed, in order.
        self.history: List[PromotionRecord] = []
        #: Undelivered fences: ``(element name, partition)`` -> epoch.
        self.pending_fences: Dict[Tuple[str, int], int] = {}

    # -- epochs ----------------------------------------------------------------

    def epoch_of(self, partition_index: int) -> int:
        return self.epochs.get(partition_index, 0)

    def current_master_for(self, partition_index: int,
                           epoch: int) -> Optional[str]:
        """The element promoted at ``epoch`` (None for the epoch-0 seed)."""
        for record in reversed(self.history):
            if record.partition_index == partition_index and \
                    record.epoch == epoch:
                return record.new_master
        return None

    # -- promotion bookkeeping ---------------------------------------------------

    def register_promotions(self, old_master: Optional[str],
                            promotions: Dict[int, str],
                            trigger: str = "oracle") -> None:
        """Stamp completed promotions with fresh epochs and queue fences.

        Called by :meth:`~repro.core.lifecycle.ClusterController.fail_over`
        (the internal arm) after the replica sets switched masters; under
        ``membership=None`` nothing ever calls this and the oracle path is
        bit-identical to not having the feature.
        """
        for partition_index in sorted(promotions):
            new_master = promotions[partition_index]
            epoch = self.epochs.get(partition_index, 0) + 1
            self.epochs[partition_index] = epoch
            replica_set = self.deployment.replica_sets[partition_index]
            replica_set.copy_on(new_master).transactions.promote_epoch(epoch)
            old_master_fenced: Optional[bool] = None
            if old_master is not None and \
                    old_master in replica_set.member_names:
                old_master_fenced = (
                    not replica_set.element(old_master).available
                    or replica_set.copy_on(old_master).transactions.fenced)
            self.history.append(PromotionRecord(
                partition_index=partition_index, epoch=epoch,
                old_master=old_master, new_master=new_master,
                at=self.sim.now, trigger=trigger,
                old_master_fenced=old_master_fenced))
            self.stats.promotions += 1
            if old_master is not None and \
                    old_master in replica_set.member_names:
                self.pending_fences[(old_master, partition_index)] = epoch
            self._ensure_reverse_channels(replica_set)
        self.deliver_pending_fences()

    def _ensure_reverse_channels(self, replica_set) -> None:
        """Create shipping channels the promotion just made necessary.

        The deployment builder wires one channel per *initial* slave; a
        promotion turns the deposed master into a slave no channel ships
        to, which would leave it permanently behind the new master.  The
        real system establishes the reverse stream as part of the
        switchover, so the protocol does too -- only here, on the
        membership path, keeping ``membership=None`` deployments
        bit-identical to the builder's wiring.
        """
        # Imported here: repro.cluster must not depend on the replication
        # layer at import time (the deployment builder owns that wiring).
        from repro.replication.asynchronous import AsyncReplicationChannel
        deployment = self.deployment
        master_name = replica_set.master_element_name
        created = False
        for member_name in replica_set.member_names:
            if member_name == master_name:
                continue
            if any(channel.replica_set is replica_set and
                   channel.slave_element_name == member_name
                   for channel in deployment.channels):
                continue
            channel = AsyncReplicationChannel(self.sim, replica_set,
                                              member_name)
            deployment.channels.append(channel)
            deployment.replication_mux.attach(channel)
            created = True
        if created:
            deployment.replication_mux.rebind()

    # -- fence delivery / rejoin ---------------------------------------------------

    def deliver_pending_fences(self) -> int:
        """Deliver every queued fence whose deposed element is reachable.

        A fence travels from the new master's site to the deposed element,
        so delivery needs the element in service and bidirectional contact
        between the two sites.  Delivery fences the deposed copy at the
        promotion epoch, replays its acked old-epoch tail onto the new
        master, and force-resynchronises the whole element so it rejoins as
        a consistent slave.
        """
        delivered = 0
        resync_elements = []
        for key in sorted(self.pending_fences):
            element_name, partition_index = key
            epoch = self.pending_fences[key]
            replica_set = self.deployment.replica_sets.get(partition_index)
            if replica_set is None or \
                    element_name not in replica_set.member_names:
                del self.pending_fences[key]
                continue
            element = replica_set.element(element_name)
            master_name = replica_set.master_element_name
            if not element.available or master_name is None:
                continue
            master_site = replica_set.element(master_name).site
            if not self._bidirectional(master_site, element.site):
                continue
            copy = replica_set.copy_on(element_name)
            copy.transactions.fence(epoch)
            self._rejoin_handoff(replica_set, element_name, epoch)
            del self.pending_fences[key]
            self.stats.fences_delivered += 1
            delivered += 1
            if element not in resync_elements:
                resync_elements.append(element)
        for element in resync_elements:
            self.controller.resynchronise_element(element)
        return delivered

    def _rejoin_handoff(self, replica_set, deposed_name: str,
                        epoch: int) -> None:
        """Re-home the deposed master's acked-but-unshipped tail.

        Every write the deposed master acknowledged under an older epoch
        that never reached the new master is replayed as a fresh
        current-epoch commit on the new master -- through the normal
        transaction path, so replication, the CDC stream and the DIT
        catalog fold the recovered writes like any other.  Keys the newer
        epoch already superseded are skipped: the promotion's history won.
        """
        master_name = replica_set.master_element_name
        if master_name is None or master_name == deposed_name:
            return
        deposed_copy = replica_set.copy_on(deposed_name)
        master_copy = replica_set.copy_on(master_name)
        origin = deposed_copy.transactions.name
        #: key -> (value, position of the latest old-epoch write of it)
        tail: Dict[str, Tuple[object, Tuple[int, int]]] = {}
        for record in deposed_copy.wal.records:
            if record.origin != origin or record.epoch >= epoch:
                continue
            for operation in record.operations:
                tail[operation.key] = (operation.value, record.position)
        survivors = []
        for key in sorted(tail):
            value, position = tail[key]
            newest = master_copy.store.latest(key)
            if newest is not None and newest.position >= position:
                self.stats.handoff_skipped_superseded += 1
                continue
            survivors.append((key, value))
        if not survivors:
            return
        transaction = master_copy.transactions.begin()
        try:
            for key, value in survivors:
                transaction.write(key, value)
            transaction.commit(timestamp=self.sim.now)
            self.stats.handoff_commits += len(survivors)
        except StorageError:
            if transaction.is_active:
                transaction.abort(reason="rejoin handoff conflict")
            self.stats.handoff_conflicts += 1

    def _bidirectional(self, a, b) -> bool:
        network = self.deployment.network
        return network.reachable(a, b) and network.reachable(b, a)


class MembershipPlane:
    """The background detector loop driving lease renewal and promotion."""

    def __init__(self, sim, config, deployment, controller):
        self.sim = sim
        self.config = config
        self.policy = config.membership
        self.deployment = deployment
        self.controller = controller
        self.stats = MembershipStats()
        self.protocol = PromotionProtocol(sim, deployment, controller,
                                          self.policy, stats=self.stats)
        self.quorum = self.policy.quorum_for(len(deployment.topology.sites))
        #: Missed probes per ``(observer site name, element name)``.
        self._missed: Dict[Tuple[str, str], int] = {}
        #: Missed lease renewals per ``(partition, master element)``.
        self._renewals_missed: Dict[Tuple[int, str], int] = {}
        self._running = False
        self._process = None

    # -- lifecycle ---------------------------------------------------------------

    def start(self):
        if self._running:
            return self._process
        self._running = True
        self._process = self.sim.process(self._run(), name="membership")
        return self._process

    def stop(self) -> None:
        self._running = False
        process, self._process = self._process, None
        if process is not None and process.is_alive:
            process.interrupt("membership plane stopped")

    # -- convenience -------------------------------------------------------------

    def epoch_of(self, partition_index: int) -> int:
        return self.protocol.epoch_of(partition_index)

    @property
    def history(self) -> List[PromotionRecord]:
        return list(self.protocol.history)

    # -- the detector loop --------------------------------------------------------

    def _run(self):
        interval = self.policy.heartbeat_interval
        try:
            while self._running:
                yield from self.sim.hold(interval)
                if not self._running:
                    return
                self.stats.ticks += 1
                connectivity = {
                    site: self._quorum_contact(site)
                    for site in self.deployment.topology.sites}
                self._renew_leases(connectivity)
                for element_name in self._observe(connectivity):
                    yield from self._try_promote(element_name, connectivity)
                self.protocol.deliver_pending_fences()
        except Interrupt:
            return

    # -- lease renewal / self-fencing ----------------------------------------------

    def _quorum_contact(self, site) -> bool:
        """Whether ``site`` has bidirectional contact with a site majority."""
        network = self.deployment.network
        if network.site_failed(site):
            return False
        contact = 1  # a live site always reaches itself
        for other in self.deployment.topology.sites:
            if other == site or network.site_failed(other):
                continue
            if network.reachable(site, other) and \
                    network.reachable(other, site):
                contact += 1
        return contact >= self.quorum

    def _renew_leases(self, connectivity: Dict[object, bool]) -> None:
        for index in sorted(self.deployment.replica_sets):
            replica_set = self.deployment.replica_sets[index]
            master_name = replica_set.master_element_name
            if master_name is None:
                continue
            key = (index, master_name)
            element = replica_set.element(master_name)
            manager = replica_set.copy_on(master_name).transactions
            if not self._in_service(master_name):
                # A crashed master commits nothing; its lease state resets
                # (recovery resynchronises before the copy serves again).
                self._renewals_missed.pop(key, None)
                continue
            if connectivity.get(element.site, False):
                self._renewals_missed.pop(key, None)
                if manager.fenced and \
                        self.protocol.epoch_of(index) == manager.epoch:
                    # Quorum contact regained and no promotion happened in
                    # between: the self-imposed fence can be lifted.
                    manager.unfence()
                    self.stats.unfences += 1
                continue
            missed = self._renewals_missed.get(key, 0) + 1
            self._renewals_missed[key] = missed
            if missed >= self.policy.lease_ticks and not manager.fenced:
                manager.self_fence(reason="lease lost (no quorum contact)")
                self.stats.self_fences += 1

    # -- observation -------------------------------------------------------------

    def _in_service(self, element_name: str) -> bool:
        component = self.deployment.availability_manager.component(
            element_name)
        return component.state is ComponentState.IN_SERVICE

    def _observe(self, connectivity: Dict[object, bool]) -> List[str]:
        """One heartbeat round; returns master elements under quorum suspicion."""
        network = self.deployment.network
        sites = self.deployment.topology.sites
        masters = {}
        for index in sorted(self.deployment.replica_sets):
            master = self.deployment.replica_sets[index].master_element_name
            if master is not None:
                masters.setdefault(master, []).append(index)
        suspected: List[str] = []
        for element_name, element in self.deployment.elements.items():
            alive = self._in_service(element_name)
            voters = 0
            for site in sites:
                key = (site.name, element_name)
                probe = alive and \
                    network.reachable(site, element.site) and \
                    network.reachable(element.site, site)
                if probe:
                    self._missed.pop(key, None)
                    continue
                missed = self._missed.get(key, 0) + 1
                self._missed[key] = missed
                if missed < self.policy.lease_ticks:
                    continue
                if connectivity.get(site, False):
                    # A connected observer's sustained miss is an element
                    # suspicion -- it can see the majority, so the problem
                    # is the element (or its whole site), not this link.
                    self.stats.suspicions += 1
                    voters += 1
                else:
                    # An isolated observer suspects the *link*: it cannot
                    # tell a dead element from its own partition, so its
                    # vote never counts towards promotion.
                    self.stats.link_suspicions += 1
            if voters >= self.quorum and element_name in masters:
                suspected.append(element_name)
        return suspected

    # -- promotion ----------------------------------------------------------------

    def _collect_vote(self, coordinator, site, votes: List[object]):
        """One voter's ballot: a request/ack round-trip, lost on error."""
        network = self.deployment.network
        try:
            yield from network.transfer(coordinator, site, payload_bytes=64,
                                        stream="membership")
            yield from network.transfer(site, coordinator, payload_bytes=64,
                                        stream="membership")
        except NetworkError:
            return
        votes.append(site)

    def _try_promote(self, element_name: str,
                     connectivity: Dict[object, bool]):
        """Generator: bounded quorum vote, then the internal arm.

        Ballots run concurrently and the coordinator waits only until a
        quorum has answered (or ``vote_timeout`` expires -- a ballot lost
        on the WAN raises after the link's full loss timeout, which is
        several lease windows; waiting it out synchronously would blow
        the promotion bound, so an expired round aborts and the next
        heartbeat retries while the suspicion persists).
        """
        voter_sites = [site for site in self.deployment.topology.sites
                       if connectivity.get(site, False)
                       and self._missed.get((site.name, element_name), 0)
                       >= self.policy.lease_ticks]
        if len(voter_sites) < self.quorum:
            self.stats.aborted_promotions += 1
            return
        coordinator = voter_sites[0]
        votes: List[object] = [coordinator]  # the coordinator's own vote
        ballots = [self.sim.process(
            self._collect_vote(coordinator, site, votes),
            name=f"membership:vote:{site.name}")
            for site in voter_sites[1:]]
        deadline = self.sim.now + self.policy.vote_timeout
        poll = self.policy.heartbeat_interval / 2.0
        while len(votes) < self.quorum and self.sim.now < deadline and \
                any(ballot.is_alive for ballot in ballots):
            yield from self.sim.hold(min(poll, deadline - self.sim.now))
        if len(votes) < self.quorum:
            self.stats.aborted_promotions += 1
            return
        # The suspicion was read before the vote yielded.  If the suspect
        # is back in service with quorum contact, its lease state reset on
        # recovery and it is a live, unfenced master: deposing it now would
        # leave two writable masters for its partitions.
        if self._in_service(element_name) and self._quorum_contact(
                self.deployment.elements[element_name].site):
            self.stats.aborted_promotions += 1
            return
        # Promote only copies on the quorum side: a candidate without
        # quorum contact would self-fence immediately.
        candidates = [
            name for name, hosting in self.deployment.elements.items()
            if name != element_name and self._in_service(name)
            and connectivity.get(hosting.site, False)]
        promotions = self.controller.fail_over(element_name,
                                               candidates=candidates,
                                               trigger="detector")
        if not promotions:
            self.stats.aborted_promotions += 1
            return
        # A fresh mastership starts with a fresh lease.
        for partition_index, new_master in promotions.items():
            self._renewals_missed.pop((partition_index, element_name), None)
            self._renewals_missed.pop((partition_index, new_master), None)

    def __repr__(self) -> str:
        return (f"<MembershipPlane quorum={self.quorum} "
                f"promotions={self.stats.promotions} "
                f"running={self._running}>")
