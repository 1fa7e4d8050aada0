"""Online reconciliation: diff master vs replica vs locator state, repair drift.

The :class:`Reconciler` runs as a background simulation process (the paper's
section-5 consistency-restoration idea turned into a *continuous* protocol):
every ``reconcile_interval`` it digests each partition copy
(:func:`~repro.cdc.digest.digest_store`), narrows any master/slave mismatch
to the differing merkle buckets, and resolves each suspect key against the
live version chains:

* a slave **behind** the master while the replication channel still holds
  unshipped backlog is in-flight lag, not drift -- the mismatch is
  dismissed and counted ``reconciliation.false_positive``;
* a slave behind with a *clean* channel (cursor at the log tail, nothing
  left to ship -- the signature of a silently skipped shipment apply) is
  confirmed drift: the missing versions are replayed from the master's
  chain, exactly as a replication apply would have installed them;
* a slave at the **same** ``commit_seq`` with different value bytes (a
  silent byte flip) is confirmed drift: the master's version is
  re-installed on top, restoring the authoritative bytes;
* a key the slave has but the master does not (a phantom) is tombstoned.

While a slave copy is under repair its element is quarantined from the
read path (``OperationPipeline.read_quarantine``), so slave-policy reads
cannot observe half-repaired state; the quarantine lifts when the copy's
repair finishes.

A locator sweep closes the third corner of the diff: every identity the
:class:`~repro.cdc.history.HistoryStore` has audited must resolve on every
provisioned data-location instance to the static primary element of its
record's partition; missing or mis-pointed entries are re-registered
(``SilentCorruption(kind="locator_drop")`` is the injected counterpart).

Counters: ``reconciliation.detected`` / ``.repaired`` / ``.false_positive``
/ ``.rounds`` / ``.locator_repaired``; every repair is also logged as a
:class:`RepairAction` with the virtual detection time, which is what e23
uses to measure detection+repair latency under live dispatcher load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cdc.digest import digest_store, keys_in_bucket
from repro.directory.errors import LocatorSyncInProgress, UnknownIdentity
from repro.directory.locator import ProvisionedLocator
from repro.storage.records import TOMBSTONE, RecordVersion


@dataclass(frozen=True)
class RepairAction:
    """One confirmed-and-repaired drift item (the e23 latency sample)."""

    partition_index: int
    element_name: str
    key: str
    kind: str  # "missing_versions" | "value_restored" | "phantom_removed"
               # | "locator_registered"
    detected_at: float

    def __repr__(self) -> str:
        return (f"<RepairAction p{self.partition_index} {self.kind} "
                f"{self.key!r} on {self.element_name!r} "
                f"at={self.detected_at:.3f}>")


class Reconciler:
    """Periodic master/replica/locator diff-and-repair consumer."""

    def __init__(self, sim, deployment, policy, metrics, *,
                 history=None, pipeline=None):
        self.sim = sim
        self.deployment = deployment
        self.policy = policy
        self.metrics = metrics
        self.history = history
        self.pipeline = pipeline
        self.rounds = 0
        self.repairs: List[RepairAction] = []
        self._running = False
        #: One counter snapshot per round (not per status() call): the
        #: status surface reads this, keeping the registry scan off any
        #: caller's hot loop.
        self._status_counters: Dict[str, int] = {}

    # -- lifecycle ---------------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._running

    def start(self) -> None:
        if self._running or self.policy.reconcile_interval is None:
            return
        self._running = True
        self.sim.process(self._run(), name="cdc:reconciler")

    def stop(self) -> None:
        self._running = False

    def _run(self):
        interval = self.policy.reconcile_interval
        while self._running:
            yield self.sim.timeout(interval)
            if not self._running:
                return
            yield from self.run_round()

    # -- one round ---------------------------------------------------------------

    def run_round(self):
        """Generator: digest, diff and repair every partition once."""
        self.rounds += 1
        self._count("reconciliation.rounds")
        for index in sorted(self.deployment.replica_sets):
            yield from self._reconcile_partition(index)
        self._reconcile_locators()
        self._status_counters = self.metrics.counters_with_prefix(
            "reconciliation.")

    def status(self) -> Dict[str, object]:
        """The reconciliation status surface (``Session.reconciliation_status``)."""
        return {
            "enabled": True,
            "running": self._running,
            "rounds": self.rounds,
            "repairs": len(self.repairs),
            "counters": dict(self._status_counters),
        }

    # -- partition diff ----------------------------------------------------------

    def _reconcile_partition(self, index: int):
        replica_set = self.deployment.replica_sets[index]
        master_name = replica_set.master_element_name
        if master_name is None:
            return
        if not self.deployment.elements[master_name].available:
            return
        master_copy = replica_set.copy_on(master_name)
        buckets = self.policy.digest_buckets
        yield self.sim.timeout(self.policy.digest_time)
        master_digest = digest_store(master_copy.store, buckets)
        for slave_name in replica_set.slave_names():
            if not self.deployment.elements[slave_name].available:
                continue
            slave_copy = replica_set.copy_on(slave_name)
            yield self.sim.timeout(self.policy.digest_time)
            slave_digest = digest_store(slave_copy.store, buckets)
            if slave_digest.root == master_digest.root:
                continue
            yield from self._repair_slave(
                index, replica_set, master_copy, slave_name, slave_copy,
                master_digest.diff(slave_digest))

    def _repair_slave(self, index, replica_set, master_copy, slave_name,
                      slave_copy, suspect_buckets):
        buckets = self.policy.digest_buckets
        channel = self._channel_for(replica_set, slave_name)
        quarantined = self.pipeline is not None
        if quarantined:
            self.pipeline.read_quarantine.add(slave_name)
        try:
            suspects = set()
            for bucket_index in suspect_buckets:
                suspects.update(keys_in_bucket(
                    master_copy.store, bucket_index, buckets))
                suspects.update(keys_in_bucket(
                    slave_copy.store, bucket_index, buckets))
            confirmed = 0
            lagged = 0
            for key in sorted(suspects):
                # Live reads, not the digest leaves: a commit that landed
                # (and possibly shipped) since the digest resolves here to
                # either equality or explained lag, never a bogus repair.
                master_version = master_copy.store.latest(key)
                slave_version = slave_copy.store.latest(key)
                if self._versions_equal(master_version, slave_version):
                    continue
                behind = slave_version is None or (
                    master_version is not None
                    and not master_version.is_delete
                    and slave_version.commit_seq < master_version.commit_seq)
                if behind and channel is not None and channel.has_backlog():
                    lagged += 1
                    continue
                confirmed += 1
                self._count("reconciliation.detected")
                yield self.sim.timeout(self.policy.repair_time)
                self._repair_key(index, slave_name, slave_copy, key,
                                 master_version, slave_version)
            if confirmed == 0 and lagged:
                self._count("reconciliation.false_positive")
        finally:
            if quarantined:
                self.pipeline.read_quarantine.discard(slave_name)

    def _repair_key(self, index: int, slave_name: str, slave_copy, key: str,
                    master_version: Optional[RecordVersion],
                    slave_version: Optional[RecordVersion]) -> None:
        if master_version is None or master_version.is_delete:
            # Phantom: the slave holds a live key the master does not.
            tombstone_seq = slave_version.commit_seq if slave_version else \
                slave_copy.store.last_applied_seq
            slave_copy.store.apply_version(RecordVersion(
                key=key, value=TOMBSTONE, commit_seq=tombstone_seq,
                transaction_id=0, origin=slave_copy.transactions.name))
            kind = "phantom_removed"
        elif slave_version is not None and \
                slave_version.commit_seq >= master_version.commit_seq:
            # Same (or newer) sequence, different bytes: restore the
            # master's authoritative version on top.
            slave_copy.store.apply_version(master_version)
            kind = "value_restored"
        else:
            # Behind with a clean channel: replay the missing suffix of the
            # master's version chain, as the skipped apply would have.
            floor = slave_version.commit_seq if slave_version else 0
            for version in slave_copy_missing_versions(
                    self._master_versions(index, key), floor):
                slave_copy.store.apply_version(version)
            kind = "missing_versions"
        self._count("reconciliation.repaired")
        self.repairs.append(RepairAction(
            partition_index=index, element_name=slave_name, key=key,
            kind=kind, detected_at=self.sim.now))

    def _master_versions(self, index: int, key: str) -> List[RecordVersion]:
        replica_set = self.deployment.replica_sets[index]
        master_name = replica_set.master_element_name
        if master_name is None:
            return []
        return replica_set.copy_on(master_name).store.versions(key)

    @staticmethod
    def _versions_equal(mine: Optional[RecordVersion],
                        theirs: Optional[RecordVersion]) -> bool:
        mine_live = mine is not None and not mine.is_delete
        theirs_live = theirs is not None and not theirs.is_delete
        if not mine_live or not theirs_live:
            return mine_live == theirs_live
        return (mine.commit_seq == theirs.commit_seq
                and mine.value == theirs.value)

    def _channel_for(self, replica_set, slave_name: str):
        for channel in self.deployment.channels:
            if channel.replica_set is replica_set and \
                    channel.slave_element_name == slave_name:
                return channel
        return None

    # -- locator sweep -----------------------------------------------------------

    def _reconcile_locators(self) -> None:
        if self.history is None:
            return
        primary_of_partition = {
            partition: element for element, partition
            in self.deployment.primary_partition_of_element.items()}
        expected: Dict[str, str] = {}
        for index, replica_set in self.deployment.replica_sets.items():
            master_name = replica_set.master_element_name
            element_name = primary_of_partition.get(index)
            if master_name is None or element_name is None:
                continue
            for key in replica_set.copy_on(master_name).store.keys():
                expected[key] = element_name
        for (identity_type, value), key in list(
                self.history.identity_entries()):
            element_name = expected.get(key)
            if element_name is None:
                continue  # record deleted (or not yet visible on a master)
            for locator in self.deployment.locators.values():
                if not isinstance(locator, ProvisionedLocator):
                    continue
                try:
                    located = locator.locate(identity_type, value)
                except UnknownIdentity:
                    located = None
                except LocatorSyncInProgress:
                    continue  # a syncing peer answers nothing reliably yet
                if located == element_name:
                    continue
                self._count("reconciliation.detected")
                locator.register({identity_type: value}, element_name)
                self._count("reconciliation.repaired")
                self._count("reconciliation.locator_repaired")
                self.repairs.append(RepairAction(
                    partition_index=self.deployment
                    .primary_partition_of_element.get(element_name, -1),
                    element_name=element_name,
                    key=f"{identity_type}:{value}",
                    kind="locator_registered", detected_at=self.sim.now))

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.increment(name, amount)

    def __repr__(self) -> str:
        return (f"<Reconciler rounds={self.rounds} "
                f"repairs={len(self.repairs)} running={self._running}>")


def slave_copy_missing_versions(master_chain: List[RecordVersion],
                                floor_seq: int) -> List[RecordVersion]:
    """The suffix of a master version chain a behind slave is missing."""
    return [version for version in master_chain
            if version.commit_seq > floor_seq]
