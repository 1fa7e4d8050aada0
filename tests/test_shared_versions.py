"""One sized version per write, shared by the log, every copy and every tap.

A commit builds one :class:`~repro.storage.records.RecordVersion` per
written key.  The log record carries it, the master and every slave
install that same object, and the DIT catalog and the CDC history fold
it.  A version merged by ``Transaction.modify`` onto the store's latest
value is sized from that value's size plus the changed attributes' terms,
and it carries ``changed`` and ``base`` so the catalog and the history
re-derive only the changed attributes -- but only when what they last
folded for the key *is* that base.

Pinned here:

* every case the fast paths cannot prove takes the full path: a base
  that is not the store's latest (snapshot read, dirty read, a key
  modified twice in one transaction, savepoint rollback), a follower that
  last folded another value (fail-over that lost an unshipped write, a
  CDC stream replaying after ``resume``), multi-attribute history diffs,
  and case variants of indexed attribute names;
* a Hypothesis property: over random create/modify/delete/savepoint/
  abort/stale-snapshot/corruption histories on a three-copy replica set,
  sizes, postings and history entries equal a full recount after every
  commit, and corrupting one copy never touches another copy's chain.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.cdc import ChangeStream, HistoryStore
from repro.cdc import history as history_module
from repro.cdc.history import HistoryEntry, _diff
from repro.cdc.stream import ChangeEvent
from repro.directory import DirectoryCatalog
from repro.ldap.schema import SubscriberSchema
from repro.storage import (
    DataPartition,
    IsolationLevel,
    ReplicaRole,
    TOMBSTONE,
    WriteConflict,
    record_size,
)
from repro.storage.records import resized
from repro.storage.storage_element import PartitionCopy


class Trio:
    """A master and two slaves of one partition, with the catalog and a
    CDC history tapped on every copy exactly as the deployment wires them."""

    def __init__(self):
        partition = DataPartition(0)
        self.copies = [
            PartitionCopy(partition,
                          ReplicaRole.PRIMARY if index == 0
                          else ReplicaRole.SECONDARY, f"se-{index}")
            for index in range(3)]
        self.master = self.copies[0]
        self.catalog = DirectoryCatalog(SubscriberSchema.catalog_view,
                                        SubscriberSchema.INDEXED_ATTRIBUTES)
        self.stream = ChangeStream()
        self.history = HistoryStore(self.stream)
        for member in self.copies:
            member.tap_local_commits(self._fold)
            self.stream.tap(0, member)
        #: ``(copy, key)`` pairs whose latest version was corrupted or
        #: lost in a fail-over, and not overwritten by a shipment since.
        self.diverged = set()
        #: Every committed value per key, in commit order: what the
        #: catalog and the history have folded.
        self.folded = {}
        self.epoch = 0

    def _fold(self, record):
        self.catalog.apply_commit(0, record)

    @property
    def slaves(self):
        return [member for member in self.copies if member is not self.master]

    def commit(self, tx, ship=True):
        """Commit ``tx`` on the master and ship it to every slave."""
        record = tx.commit()
        if record is None:
            return None
        for version in record.operations:
            self.folded.setdefault(version.key, []).append(version.value)
        for slave in self.slaves if ship else ():
            slave.transactions.apply_log_record(record)
            for key in record.keys:
                self.diverged.discard((slave, key))
        return record

    def modify(self, key, changes, ship=True):
        tx = self.master.transactions.begin()
        tx.modify(key, changes)
        return self.commit(tx, ship)

    def write(self, key, value):
        tx = self.master.transactions.begin()
        tx.write(key, value)
        return self.commit(tx)

    def fail_over(self, to_index):
        """Promote copy ``to_index``; the deposed master is fenced."""
        old = self.master
        self.epoch += 1
        self.master = self.copies[to_index]
        old.transactions.fence(self.epoch)
        self.master.transactions.promote_epoch(self.epoch)


def subscriber(imsi, **attributes):
    value = {"imsi": imsi, "msisdn": f"34{imsi}", "homeRegion": "spain",
             "subscriberStatus": "active", "servingMsc": "msc-1"}
    value.update(attributes)
    return value


def full_size(store):
    return sum(record_size(store.get(key)) for key in store.keys())


def postings(catalog):
    """``{attribute: ({value: ids}, present ids)}`` of every index."""
    snapshot = {}
    for attribute in catalog.attributes.attributes:
        index = catalog.attributes.index_for(attribute)
        snapshot[attribute] = (
            {value: set(ids) for value, ids in index._postings.items()},
            set(index.present()))
    return snapshot


def reloaded(store):
    """A catalog bulk-loaded from a store's live records."""
    return bulk_loaded({key: store.get(key) for key in store.keys()})


def bulk_loaded(values):
    """A catalog bulk-loaded from ``{key: value}`` (tombstones skipped)."""
    catalog = DirectoryCatalog(SubscriberSchema.catalog_view,
                               SubscriberSchema.INDEXED_ATTRIBUTES)
    catalog.bulk_load((key, value, 0) for key, value in values.items()
                      if value is not TOMBSTONE)
    return catalog


class PathSpy:
    """Counts the catalog's and the history's full-path calls."""

    def __init__(self, monkeypatch):
        self.catalog_full = 0
        self.history_full = 0
        original_diff_values = DirectoryCatalog._diff_values

        def diff_values(catalog, *args):
            self.catalog_full += 1
            return original_diff_values(catalog, *args)

        def diff(before, after):
            self.history_full += 1
            return _diff(before, after)

        monkeypatch.setattr(DirectoryCatalog, "_diff_values", diff_values)
        monkeypatch.setattr(history_module, "_diff", diff)

    def reset(self):
        self.catalog_full = self.history_full = 0


@pytest.fixture
def trio():
    trio = Trio()
    trio.write("sub:1", subscriber("1"))
    # The first modify refolds the created record's snapshot; after it the
    # history has a previous version and its fast path can apply too.
    trio.modify("sub:1", {"servingMsc": "msc-2"})
    return trio


class TestFirstModifyRefolds:
    """A created or bulk-loaded key's snapshot was taken from its raw
    record, so its first MODIFY refolds only the changed attributes."""

    @pytest.mark.parametrize("bulk", [False, True])
    def test_first_modify_takes_the_refold_path(self, monkeypatch, bulk):
        trio = Trio()
        trio.write("sub:1", subscriber("1"))
        if bulk:
            trio.catalog = reloaded(trio.master.store)
        spy = PathSpy(monkeypatch)
        trio.modify("sub:1", {"homeRegion": "sweden"})
        assert spy.catalog_full == 0
        assert postings(trio.catalog) == postings(reloaded(trio.master.store))

    def test_case_variant_record_is_not_kept(self, monkeypatch):
        trio = Trio()
        trio.write("sub:1", subscriber("1", HomeRegion="brazil"))
        spy = PathSpy(monkeypatch)
        trio.modify("sub:1", {"homeRegion": "sweden"})
        assert spy.catalog_full == 1
        assert postings(trio.catalog) == postings(reloaded(trio.master.store))


class TestOneVersionPerWrite:
    def test_log_master_and_slaves_share_the_version(self, trio):
        record = trio.modify("sub:1", {"homeRegion": "sweden"})
        (version,) = record.operations
        for member in trio.copies:
            assert member.store.latest("sub:1") is version
            assert member.wal.records[-1].operations[0] is version
        assert trio.stream.events(0)[-1].operations[0] is version

    def test_modify_of_the_latest_value_is_sized_by_delta(self, trio):
        base = trio.master.store.get("sub:1")
        record = trio.modify("sub:1", {"servingMsc": "msc-longer-name",
                                       "homeRegion": None})
        (version,) = record.operations
        assert version.base is base
        assert version.changed == ("servingMsc", "homeRegion")
        assert version.size == record_size(version.value)
        for member in trio.copies:
            assert member.store.live_bytes == full_size(member.store)

    def test_resized_equals_a_full_recount(self):
        base = {"a": "x", "b": [1, "yz"], "c": None}
        value = {"a": "xyz", "c": None, "d": {"nested": 1}}
        assert resized(record_size(base), base, value, ("a", "b", "d")) == \
            record_size(value)

    def test_fast_paths_apply_to_a_single_attribute_modify(self, trio,
                                                          monkeypatch):
        spy = PathSpy(monkeypatch)
        trio.modify("sub:1", {"homeRegion": "sweden"})
        assert (spy.catalog_full, spy.history_full) == (0, 0)
        assert postings(trio.catalog) == postings(reloaded(trio.master.store))
        assert trio.history.history("sub:1")[-1].changes == \
            {"homeRegion": "sweden"}


class TestBaseMustBeTheStoresLatest:
    """The committer trusts a delta only for the exact value committed,
    merged onto the value the store holds at commit."""

    def test_snapshot_read(self, trio):
        manager = trio.master.transactions
        stale = manager.begin(IsolationLevel.REPEATABLE_READ)
        trio.modify("sub:1", {"servingMsc": "msc-9"})
        stale.modify("sub:1", {"homeRegion": "germany"})
        (version,) = trio.commit(stale).operations
        assert (version.changed, version.base) == (None, None)
        assert version.value["servingMsc"] == "msc-2"  # the snapshot's
        assert trio.master.store.live_bytes == full_size(trio.master.store)

    def test_dirty_read_never_reaches_a_commit(self, trio):
        manager = trio.master.transactions
        writer = manager.begin()
        writer.write("sub:1", subscriber("1", servingMsc="dirty"))
        dirty = manager.begin(IsolationLevel.READ_UNCOMMITTED)
        assert dirty.read("sub:1")["servingMsc"] == "dirty"
        with pytest.raises(WriteConflict):
            dirty.modify("sub:1", {"homeRegion": "germany"})
        trio.commit(writer)
        # The value once read dirty is now the committed latest: a delta.
        (version,) = trio.modify("sub:1", {"homeRegion": "germany"}
                                 ).operations
        assert version.changed == ("homeRegion",)
        assert version.size == record_size(version.value)

    def test_key_modified_twice_in_one_transaction(self, trio):
        tx = trio.master.transactions.begin()
        tx.modify("sub:1", {"servingMsc": "msc-3"})
        tx.modify("sub:1", {"homeRegion": "sweden"})
        (version,) = trio.commit(tx).operations
        assert (version.changed, version.base) == (None, None)
        assert version.value["servingMsc"] == "msc-3"
        assert trio.master.store.live_bytes == full_size(trio.master.store)

    def test_write_after_modify(self, trio):
        tx = trio.master.transactions.begin()
        tx.modify("sub:1", {"servingMsc": "msc-3"})
        tx.write("sub:1", subscriber("1", note="replaced"))
        (version,) = tx.commit().operations
        assert (version.changed, version.base) == (None, None)
        assert version.size == record_size(version.value)

    def test_rollback_then_re_modify_is_a_delta(self, trio):
        tx = trio.master.transactions.begin()
        savepoint = tx.savepoint()
        tx.modify("sub:1", {"servingMsc": "rolled-back"})
        tx.rollback_to(savepoint)
        tx.modify("sub:1", {"homeRegion": "germany"})
        (version,) = tx.commit().operations
        assert version.changed == ("homeRegion",)
        assert version.base is trio.master.store.versions("sub:1")[-2].value
        assert version.value["servingMsc"] == "msc-2"
        assert version.size == record_size(version.value)

    def test_rollback_to_an_earlier_modify_is_sized_in_full(self, trio):
        tx = trio.master.transactions.begin()
        tx.modify("sub:1", {"servingMsc": "kept"})
        savepoint = tx.savepoint()
        tx.modify("sub:1", {"servingMsc": "rolled-back-and-longer"})
        tx.rollback_to(savepoint)
        (version,) = tx.commit().operations
        assert version.value["servingMsc"] == "kept"
        assert (version.changed, version.base) == (None, None)
        assert version.size == record_size(version.value)

    def test_corruption_between_read_and_commit(self, trio):
        tx = trio.master.transactions.begin()
        tx.modify("sub:1", {"servingMsc": "msc-3"})
        assert trio.master.store.replace_latest(
            "sub:1", subscriber("1", servingMsc="flipped", extra="x" * 40))
        (version,) = tx.commit().operations
        assert (version.changed, version.base) == (None, None)
        assert trio.master.store.live_bytes == full_size(trio.master.store)


class TestFollowersMustHaveFoldedTheBase:
    def test_fail_over_that_lost_an_unshipped_write(self, trio, monkeypatch):
        spy = PathSpy(monkeypatch)
        # Folded by the catalog and the history, never shipped.
        trio.modify("sub:1", {"homeRegion": "sweden"}, ship=False)
        trio.fail_over(1)
        spy.reset()
        record = trio.modify("sub:1", {"servingMsc": "msc-7"})
        (version,) = record.operations
        assert version.changed == ("servingMsc",)  # a delta in the store
        assert (spy.catalog_full, spy.history_full) == (1, 1)
        assert postings(trio.catalog) == postings(reloaded(trio.master.store))
        entry = trio.history.history("sub:1")[-1]
        assert entry.changes == {"homeRegion": "spain",
                                 "servingMsc": "msc-7"}

    def test_history_replaying_after_resume(self, trio, monkeypatch):
        spy = PathSpy(monkeypatch)
        trio.stream.pause()
        before = trio.master.store.get("sub:1")
        trio.modify("sub:1", {"servingMsc": "msc-4"})
        trio.modify("sub:1", {"homeRegion": "germany"})
        trio.write("sub:1", subscriber("1", note="rewritten"))
        trio.modify("sub:1", {"note": None})
        assert trio.history.history("sub:1")[-1].changes == \
            {"servingMsc": "msc-2"}
        trio.stream.resume()
        chain = [before] + [version.value for version in
                            trio.master.store.versions("sub:1")[-4:]]
        replayed = trio.history.history("sub:1")[-4:]
        assert [entry.changes for entry in replayed] == \
            [_diff(old, new) for old, new in zip(chain, chain[1:])]
        # Each replayed delta's base is what the trail folded just before;
        # only the plain write needed the full diff.
        assert spy.history_full == 1

    def test_history_fast_path_skipped_after_a_diverged_fold(self, trio,
                                                            monkeypatch):
        spy = PathSpy(monkeypatch)
        base = trio.master.store.get("sub:1")
        # The trail folds a value that is not the version's base.
        trio.history._latest["sub:1"] = dict(base, servingMsc="other")
        trio.modify("sub:1", {"homeRegion": "sweden"})
        assert spy.history_full == 1
        assert trio.history.history("sub:1")[-1].changes == \
            {"homeRegion": "sweden", "servingMsc": "msc-2"}


class TestHistoryKeyOrder:
    def test_multi_attribute_change_keeps_the_full_diff_order(
            self, trio, monkeypatch):
        spy = PathSpy(monkeypatch)
        before = trio.master.store.get("sub:1")
        record = trio.modify("sub:1", {"zeta": "new", "servingMsc": None,
                                       "imsi": "1", "homeRegion": "x"})
        after = record.operations[0].value
        entry = trio.history.history("sub:1")[-1]
        assert spy.history_full == 1
        assert list(entry.changes.items()) == \
            list(_diff(before, after).items())
        assert list(entry.changes) == ["homeRegion", "zeta", "servingMsc"]

    @pytest.mark.parametrize("changes, expected", [
        ({"servingMsc": "msc-2"}, {}),              # same value
        ({"servingMsc": None}, {"servingMsc": None}),
        ({"absent": None}, {}),
        ({"fresh": 3}, {"fresh": 3}),
    ])
    def test_single_attribute_edge_cases(self, trio, monkeypatch, changes,
                                         expected):
        spy = PathSpy(monkeypatch)
        trio.modify("sub:1", changes)
        assert spy.history_full == 0
        assert trio.history.history("sub:1")[-1].changes == expected


class TestCatalogCaseVariants:
    def test_case_variant_change_takes_the_full_path(self, trio,
                                                     monkeypatch):
        spy = PathSpy(monkeypatch)
        trio.modify("sub:1", {"HomeRegion": "sweden"})
        assert spy.catalog_full == 1
        assert postings(trio.catalog) == postings(reloaded(trio.master.store))
        # The record now holds two spellings of one indexed attribute, so
        # even a canonical change refolds in full until one is removed.
        spy.reset()
        trio.modify("sub:1", {"homeRegion": "germany"})
        assert spy.catalog_full == 1
        assert postings(trio.catalog) == postings(reloaded(trio.master.store))
        trio.modify("sub:1", {"HomeRegion": None})
        spy.reset()
        trio.modify("sub:1", {"homeRegion": "spain"})
        assert spy.catalog_full == 0
        assert postings(trio.catalog) == postings(reloaded(trio.master.store))


class TestSlottedCdcRecords:
    def test_defaults_repr_and_inequality(self):
        event = ChangeEvent(0, 3, 7, 9, "se-0", 1.5, ())
        assert event.epoch == 0
        assert event != ChangeEvent(0, 3, 7, 9, "se-0", 1.5, (), epoch=1)
        assert repr(event) == "<ChangeEvent p0 seq=3 keys=[]>"
        entry = HistoryEntry("k", 3, 9, "se-0", 1.5, "modify", {"v": 1})
        assert repr(entry) == \
            "<HistoryEntry 'k' seq=3 modify by='se-0' at=1.5>"
        assert entry != HistoryEntry("k", 3, 9, "se-0", 1.5, "modify",
                                     {"v": 2})


# -- the delta == full property ------------------------------------------------------

KEYS = st.sampled_from(["sub:1", "sub:2"])
#: Two spellings of one indexed attribute, another indexed attribute and
#: an unindexed one.
NAMES = st.sampled_from(["homeRegion", "HomeRegion", "msisdn", "note"])
VALUES = st.one_of(st.sampled_from(["a", "bc", ""]), st.integers(0, 9),
                   st.lists(st.sampled_from(["a", "b"]), max_size=2))
CHANGES = st.dictionaries(NAMES, st.one_of(st.none(), VALUES),
                          min_size=1, max_size=3)
RECORDS = st.dictionaries(NAMES, VALUES, max_size=3)
#: One record's turn inside a multi-record transaction.
MEMBERS = st.one_of(st.tuples(st.just("modify"), KEYS, CHANGES),
                    st.tuples(st.just("write"), KEYS, RECORDS),
                    st.tuples(st.just("delete"), KEYS))
STEPS = st.one_of(
    st.tuples(st.just("modify"), KEYS, CHANGES),
    st.tuples(st.just("modify"), KEYS, CHANGES),
    st.tuples(st.just("write"), KEYS, RECORDS),
    st.tuples(st.just("group"), st.lists(MEMBERS, min_size=1, max_size=4),
              st.integers(0, 4)),
    st.tuples(st.just("abort"), KEYS, CHANGES),
    st.tuples(st.just("stale"), KEYS, CHANGES, CHANGES),
    st.tuples(st.just("corrupt"), st.integers(1, 2), KEYS, RECORDS),
    st.tuples(st.just("failover"), KEYS, CHANGES, CHANGES,
              st.integers(1, 2)),
)


def _apply_member(tx, member):
    kind, key = member[0], member[1]
    if kind == "modify":
        tx.modify(key, member[2])
    elif kind == "write":
        tx.write(key, dict(member[2], imsi=key[4:]))
    else:
        tx.delete(key)


def _run_step(trio, step):
    manager = trio.master.transactions
    kind = step[0]
    if kind == "modify":
        trio.modify(step[1], step[2])
    elif kind == "write":
        trio.write(step[1], dict(step[2], imsi=step[1][4:]))
    elif kind == "group":
        # A coalesced multi-record transaction: each record behind its own
        # savepoint, one of them rolled back.
        tx = manager.begin()
        for position, member in enumerate(step[1]):
            savepoint = tx.savepoint()
            _apply_member(tx, member)
            if position == step[2]:
                tx.rollback_to(savepoint)
        trio.commit(tx)
    elif kind == "abort":
        tx = manager.begin()
        tx.modify(step[1], step[2])
        tx.abort()
    elif kind == "stale":
        stale = manager.begin(IsolationLevel.REPEATABLE_READ)
        trio.modify(step[1], step[2])
        stale.modify(step[1], step[3])
        trio.commit(stale)
    elif kind == "corrupt":
        _corrupt(trio, *step[1:])
    else:
        # The master commits a write it never ships, then a slave takes
        # over and writes the same key.
        _, key, lost, changes, offset = step
        old = trio.master
        trio.modify(key, lost, ship=False)
        trio.fail_over((trio.copies.index(old) + offset) % 3)
        trio.diverged.add((old, key))
        trio.modify(key, changes)


def _corrupt(trio, slave_offset, key, value):
    """Replace one slave's latest version; no other chain may move."""
    master_index = trio.copies.index(trio.master)
    victim = trio.copies[(master_index + slave_offset) % 3]
    others = [member for member in trio.copies if member is not victim]
    chains = [member.store.versions(key) for member in others]
    shared = victim.store.latest(key)
    shared_value = copy.deepcopy(getattr(shared, "value", None))
    if victim.store.replace_latest(key, dict(value, imsi=key[4:])):
        trio.diverged.add((victim, key))
    for member, chain in zip(others, chains):
        after = member.store.versions(key)
        assert len(after) == len(chain)
        assert all(a is b for a, b in zip(after, chain))
    if shared is not None:
        assert shared.value == shared_value


def _check(trio):
    for member in trio.copies:
        assert member.store.live_bytes == full_size(member.store)
    # The catalog holds what it folded: the master's snapshot, except for
    # a key the promoted master had diverged on (the catalog never sees
    # a corruption).
    last = {key: values[-1] for key, values in trio.folded.items()}
    assert postings(trio.catalog) == postings(bulk_loaded(last))
    for key in trio.master.store.versioned_keys():
        if (trio.master, key) not in trio.diverged:
            assert trio.master.store.get(key, TOMBSTONE) is last[key]
    for key, values in trio.folded.items():
        entries = trio.history.history(key)
        assert len(entries) == len(values)
        previous = None
        for value, entry in zip(values, entries):
            expected = _diff(previous, value)
            assert entry.changes == expected
            if expected is not None:
                assert list(entry.changes) == list(expected)
            previous = value
        # Every copy holds the master's own version object, except where
        # a corruption or a lost write diverged it since the last shipment.
        if (trio.master, key) in trio.diverged:
            continue
        latest = trio.master.store.latest(key)
        for member in trio.slaves:
            if (member, key) not in trio.diverged:
                assert member.store.latest(key) is latest


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(STEPS, min_size=1, max_size=12), bulk=st.booleans())
def test_delta_paths_equal_full_recounts(steps, bulk):
    trio = Trio()
    trio.write("sub:1", subscriber("1"))
    trio.write("sub:2", subscriber("2"))
    if bulk:
        # The catalog starts from a bulk load of the same records, so each
        # key's first modify folds onto a bulk-loaded snapshot.
        trio.catalog = reloaded(trio.master.store)
    for step in steps:
        _run_step(trio, step)
        _check(trio)
