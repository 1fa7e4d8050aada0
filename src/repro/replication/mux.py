"""Site-pair replication multiplexer: wake on commit, ship one transfer per link.

The paper describes its asynchronous channels as one background process per
``(partition, slave element)`` pair polling on a fixed cadence: P*(R-1)
simulator wakeups per interval and as many network transfers, even though
many of those streams travel the same ``(master site, slave site)`` backbone
link.  :class:`ReplicationMux` is the deployment's only shipping driver and
collapses that fan-in:

* **wake on commit** -- the mux taps the commit log of every member copy
  of an attached channel's partition once (:meth:`repro.storage.wal.
  WriteAheadLog.tap`) and arms the partition's links only for commits on
  the copy that is master at that instant; an idle deployment schedules
  *zero* replication events;
* **ship-linger** -- a commit arms one shipping round for its link, delayed
  to the next multiple of ``ship_linger`` (the configured replication
  interval).  Aligning to the paper's polling grid keeps replica freshness
  -- and the E04/E05 staleness/loss semantics -- record for record, while
  every commit of the window, across *all* partitions on the link, rides
  the same round;
* **one transfer per link per round** -- a round gathers each member
  channel's :meth:`~repro.replication.asynchronous.AsyncReplicationChannel.
  pending_records` and ships them as a single network transfer charged
  :data:`FRAME_BYTES` once plus the per-record bytes, then applies per
  channel in commit order;
* **fail-over re-binding** -- a promotion moves a partition's master to a
  different element (and usually site), which changes the link its
  shipments travel.  The taps already cover every member copy, so the
  lifecycle layer's :meth:`rebind` after promotions and recoveries
  retires armed rounds, re-indexes which channels travel which link and
  re-arms links with backlog; a round still re-checks each indexed
  member's live binding, so it can never ship along a stale one.

Three queue-health policies ride on the rounds:

* **stall handling** -- a stall caused by a *down endpoint* does not poll
  at all: the mux subscribes to the availability manager's recovery
  notifications and re-arms the link exactly when the component returns.
  A network-level stall (a partitioned backbone has no recovery event)
  re-arms after one ``ship_linger``, so a healing partition drains on the
  next grid point without any idle cost while everything is healthy;
* **per-shipment backpressure** -- ``shipment_max_records`` caps how many
  records one round may carry over one link, so a fat burst (a recovered
  slave's whole outage backlog, a bulk provisioning run) splits into
  bounded frames over consecutive rounds instead of one huge transfer;
* **WAL retention** -- with ``wal_retention`` set, a master commit log
  that grew past the limit is truncated through the *slowest shipped-LSN
  cursor* of its outgoing channels (capped at the durability watermark, so
  checkpoint/crash semantics are untouched), bounding log memory on long
  runs without ever dropping an unshipped record.  The log itself never
  truncates past an open tap's cursor, so a paused change-data-capture
  stream pins it too.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Dict, List, Optional, Set, Tuple

from repro.net.errors import NetworkError
from repro.replication.asynchronous import AsyncReplicationChannel
from repro.sim import units

#: Framing charge (bytes) of one shipment, paid once per link per round on
#: top of the per-record bytes.
FRAME_BYTES = 256


class ReplicationMux:
    """Owns every async channel of a deployment; ships per site pair.

    ``availability_manager`` is the deployment's
    :class:`~repro.cluster.saf.AvailabilityManager`: its recovery
    notifications re-arm links stalled on a down endpoint.
    """

    def __init__(self, sim, network, availability_manager, *,
                 ship_linger: float = 50 * units.MILLISECOND,
                 shipment_max_records: Optional[int] = None,
                 wal_retention: Optional[int] = None,
                 metrics=None):
        if ship_linger <= 0:
            raise ValueError("ship linger must be positive")
        if shipment_max_records is not None and shipment_max_records < 1:
            raise ValueError("shipment max records must be at least 1")
        if wal_retention is not None and wal_retention < 1:
            raise ValueError("wal retention must be at least 1 record")
        self.sim = sim
        self.network = network
        self.ship_linger = ship_linger
        self.shipment_max_records = shipment_max_records
        self.wal_retention = wal_retention
        self.metrics = metrics
        self.channels: List[AsyncReplicationChannel] = []
        #: Attached channels per partition (keyed by ``id(replica_set)``),
        #: in ``channels`` order; the first attach of a partition taps
        #: every member copy's log.
        self._partition_channels: Dict[int, List[AsyncReplicationChannel]] = {}
        #: Attached channels per ``(master site, slave site)`` link, in
        #: ``channels`` order; re-indexed by attach, start and rebind, the
        #: calls that follow every change of a channel's link.
        self._links: Dict[Tuple, List[AsyncReplicationChannel]] = {}
        self.wakeups = 0
        self.shipments = 0
        self.records_shipped = 0
        self.stalled_rounds = 0
        self.wal_records_truncated = 0
        #: Links with a shipping round armed (pending in the event queue).
        self._armed: Set[Tuple] = set()
        #: Per-link rotation of the member scan under a shipment cap, so
        #: the budget is not always spent on the same first channels.
        self._scan_offset: Dict[Tuple, int] = {}
        self._running = False
        #: Bumped by stop()/rebind(); an armed round whose generation is
        #: stale does nothing when it fires.
        self._generation = 0
        availability_manager.subscribe_recovery(self._on_recovery)

    # -- lifecycle ---------------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._running

    def bind_metrics(self, metrics) -> None:
        """Record wakeup counters and shipment histograms into ``metrics``."""
        self.metrics = metrics

    def _on_recovery(self, _component_name: str) -> None:
        """Re-arm every link whose backlog a recovery made shippable.

        An outage therefore costs zero replication wakeups: rounds stalled
        by a *down endpoint* wait for this notification, not a cadence.
        """
        if not self._running:
            return
        for channel in self.channels:
            if channel.has_backlog() and self._endpoints_available(channel):
                self._arm(channel.link_sites(), self._grid_delay())

    @staticmethod
    def _endpoints_available(channel: AsyncReplicationChannel) -> bool:
        ends = channel.endpoints()
        return ends is not None and ends[0].available and ends[1].available

    def attach(self, channel: AsyncReplicationChannel) -> None:
        """Take ownership of one channel and drive its primitives."""
        self.channels.append(channel)
        replica_set = channel.replica_set
        channels = self._partition_channels.get(id(replica_set))
        if channels is None:
            channels = self._partition_channels[id(replica_set)] = []
            for element_name in replica_set.member_names:
                replica_set.copy_on(element_name).wal.tap(partial(
                    self._on_commit, replica_set, element_name, channels))
        channels.append(channel)
        self._index_links()
        if self._running:
            self.rebind()

    def _index_links(self) -> None:
        links: Dict[Tuple, List[AsyncReplicationChannel]] = {}
        for channel in self.channels:
            key = channel.link_sites()
            if key is not None:
                links.setdefault(key, []).append(channel)
        self._links = links

    def _link_members(self, key) -> List[AsyncReplicationChannel]:
        """The channels shipping over link ``key`` now, in ``channels``
        order."""
        return [channel for channel in self._links.get(key, ())
                if channel.link_sites() == key]

    def _on_commit(self, replica_set, element_name: str,
                   channels: List[AsyncReplicationChannel], _record) -> None:
        if not self._running or \
                replica_set.master_element_name != element_name:
            return
        delay = self._grid_delay()
        for channel in channels:
            self._arm(channel.link_sites(), delay)

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._index_links()
        self._arm_backlog()

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        self._generation += 1
        self._armed.clear()

    def rebind(self) -> None:
        """Retire armed rounds and re-arm every link with backlog.

        Called by the lifecycle layer after fail-over promotions and
        element recoveries: a new master means a new site pair for the
        partition's shipments (its log is already tapped).
        """
        if not self._running:
            return
        self._generation += 1
        self._armed.clear()
        self._index_links()
        self._arm_backlog()

    def _arm_backlog(self) -> None:
        # Start after traffic, fail-over hand-off, element recovery.
        for channel in self.channels:
            if channel.has_backlog():
                self._arm(channel.link_sites(), self._grid_delay())

    # -- rounds ------------------------------------------------------------------

    def _grid_delay(self) -> float:
        """Delay to the next multiple of the ship-linger interval.

        The paper's polling loops tick at exactly these instants, so
        shipping on the same grid preserves replica freshness record for
        record; grid points without pending commits cost nothing.
        """
        periods = math.floor(self.sim.now / self.ship_linger) + 1
        return max(0.0, periods * self.ship_linger - self.sim.now)

    def _arm(self, key, delay: float) -> None:
        if key is None or key in self._armed or not self._running:
            return
        self._armed.add(key)
        self.sim.process(self._round(key, self._generation, delay),
                         name=f"repl-mux:{key[0].name}->{key[1].name}")

    def _round(self, key, generation: int, delay: float):
        # The link stays *armed* until the round completes, so commits that
        # land while a round's transfer is in flight never spawn an
        # overlapping round re-shipping the same in-flight records; the
        # backlog check at the end picks them up instead.
        yield from self.sim.hold(delay)
        if generation != self._generation:
            return
        self.wakeups += 1
        self._count("replication.mux.wakeups")
        stalled = yield from self._ship_link(key)
        if generation != self._generation:
            return
        self._armed.discard(key)
        if stalled:
            # A partitioned backbone has no recovery event: retry one
            # ship-linger later.
            self._arm(key, self.ship_linger)
        elif any(channel.has_backlog()
                 and self._endpoints_available(channel)
                 for channel in self._link_members(key)):
            # Commits that landed during the transfer, or a batch-limit /
            # shipment-cap truncation that left records behind.  Backlog on
            # a down endpoint does not count: it re-arms on the recovery
            # notification.
            self._arm(key, self._grid_delay())

    def _ship_link(self, key):
        """Generator: one shipping round over one ``(site, site)`` link.

        Membership is the link's indexed channels whose live binding still
        is ``key``, so fail-overs between arming and firing are honoured.
        Returns whether the transfer stalled on the network (an endpoint
        stall re-arms on recovery, not on a cadence).
        ``shipment_max_records`` caps the round's payload; what does not
        fit stays backlogged for the next grid point, and the member scan
        rotates round over round so a channel that keeps the budget busy
        cannot starve its link-mates indefinitely.
        """
        source, destination = key
        members = self._link_members(key)
        if self.shipment_max_records is not None and len(members) > 1:
            start = self._scan_offset.get(key, 0) % len(members)
            self._scan_offset[key] = start + 1
            members = members[start:] + members[:start]
        shipment = []
        budget = self.shipment_max_records
        for channel in members:
            master_element, slave_element = channel.endpoints()
            if not master_element.available or not slave_element.available:
                if channel.has_backlog():
                    channel.stalled_rounds += 1
                continue
            if budget is not None and budget <= 0:
                continue  # out of budget; stall accounting still ran above
            master_name, records = channel.pending_records()
            if budget is not None and len(records) > budget:
                records = records[:budget]
            if records:
                if budget is not None:
                    budget -= len(records)
                shipment.append((channel, master_name, records))
        if shipment:
            payload = FRAME_BYTES + sum(
                channel.bytes_per_record * len(records)
                for channel, _master, records in shipment)
            try:
                yield from self.network.transfer(source, destination,
                                                 payload_bytes=payload,
                                                 stream="replication")
            except NetworkError:
                for channel, _master, _records in shipment:
                    channel.stalled_rounds += 1
                self.stalled_rounds += 1
                self._count("replication.mux.stalled")
                return True
            total = 0
            for channel, master_name, records in shipment:
                channel.apply(master_name, records)
                total += len(records)
                if self.metrics is not None:
                    linger = self.metrics.histogram("replication.mux.linger")
                    for record in records:
                        linger.record(max(0.0, self.sim.now - record.timestamp))
            self.shipments += 1
            self.records_shipped += total
            self._count("replication.mux.shipments")
            self._count("replication.mux.records", total)
            if self.metrics is not None:
                self.metrics.histogram(
                    "replication.mux.shipment_size").record(total)
            self._apply_retention()
        return False

    # -- WAL retention -----------------------------------------------------------

    def _apply_retention(self) -> None:
        """Truncate over-long master logs through the slowest shipped cursor.

        For every master commit log longer than ``wal_retention`` records,
        drop the prefix every outgoing channel has already shipped *and*
        the checkpointer has already made durable.  A channel that never
        shipped (cursor 0) or a log with no durable prefix keeps everything
        -- retention never drops a record some slave (or a crash recovery)
        could still need.
        """
        if self.wal_retention is None:
            return
        for channels in self._partition_channels.values():
            replica_set = channels[0].replica_set
            master_name = replica_set.master_element_name
            if master_name is None:
                continue
            wal = replica_set.copy_on(master_name).wal
            if len(wal) <= self.wal_retention:
                continue
            cursors = [channel.shipped_lsn(master_name)
                       for channel in channels
                       if channel.slave_element_name != master_name]
            if not cursors:
                continue
            safe_lsn = min(min(cursors), wal.durable_lsn)
            if safe_lsn <= 0:
                continue
            dropped = wal.truncate_through(safe_lsn)
            if dropped:
                self.wal_records_truncated += dropped
                self._count("replication.wal.truncated", dropped)

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.increment(name, amount)

    def __repr__(self) -> str:
        return (f"<ReplicationMux channels={len(self.channels)} "
                f"wakeups={self.wakeups} shipments={self.shipments} "
                f"running={self._running}>")
