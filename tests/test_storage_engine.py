"""Unit tests for the MVCC record store, records and locks."""

import ast
import copy
import pickle
import random
from collections.abc import Mapping
from dataclasses import FrozenInstanceError
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from repro.cdc.history import HistoryEntry
from repro.cdc.stream import ChangeEvent
from repro.faults import flip_store_record
from repro.storage import (
    LockManager,
    LockMode,
    RecordNotFound,
    RecordStore,
    RecordVersion,
    TOMBSTONE,
    WriteConflict,
    record_size,
)
from repro.storage.engine import staleness
from repro.storage.records import merge_attributes
from repro.storage.wal import LogRecord


def version(key, value, seq, tx=1, origin="test"):
    return RecordVersion(key=key, value=value, commit_seq=seq,
                         transaction_id=tx, origin=origin)


class TestRecordStore:
    def test_read_latest_committed(self):
        store = RecordStore()
        store.apply_version(version("imsi-1", {"msisdn": "34600000001"}, 1))
        store.apply_version(version("imsi-1", {"msisdn": "34600000002"}, 2))
        assert store.read_committed("imsi-1") == {"msisdn": "34600000002"}

    def test_missing_key_raises(self):
        store = RecordStore()
        with pytest.raises(RecordNotFound):
            store.read_committed("missing")
        assert store.get("missing", default="x") == "x"

    def test_tombstone_hides_record(self):
        store = RecordStore()
        store.apply_version(version("k", {"a": 1}, 1))
        store.apply_version(version("k", TOMBSTONE, 2))
        with pytest.raises(RecordNotFound):
            store.read_committed("k")
        assert not store.contains("k")
        assert len(store) == 0

    def test_snapshot_read_as_of(self):
        store = RecordStore()
        store.apply_version(version("k", {"v": 1}, 1))
        store.apply_version(version("k", {"v": 2}, 5))
        store.apply_version(version("k", {"v": 3}, 9))
        assert store.as_of("k", 1) == {"v": 1}
        assert store.as_of("k", 7) == {"v": 2}
        assert store.as_of("k", 100) == {"v": 3}
        with pytest.raises(RecordNotFound):
            store.as_of("k", 0)

    def test_version_chain_preserved(self):
        store = RecordStore()
        for seq in range(1, 4):
            store.apply_version(version("k", {"v": seq}, seq))
        chain = store.versions("k")
        assert [v.commit_seq for v in chain] == [1, 2, 3]

    def test_last_applied_seq_tracks_max(self):
        store = RecordStore()
        store.apply_version(version("a", {"v": 1}, 3))
        store.apply_version(version("b", {"v": 1}, 2))
        assert store.last_applied_seq == 3

    def test_live_bytes_accounting(self):
        store = RecordStore()
        store.apply_version(version("k", {"name": "alice"}, 1))
        first = store.live_bytes
        assert first > 0
        store.apply_version(version("k", {"name": "alice", "extra": "x" * 100}, 2))
        assert store.live_bytes > first
        store.apply_version(version("k", TOMBSTONE, 3))
        assert store.live_bytes == 0

    def test_dirty_values_visible_until_cleared(self):
        store = RecordStore()
        store.register_dirty(7, "k", {"v": "uncommitted"})
        assert store.dirty_value("k") == {"v": "uncommitted"}
        store.clear_dirty(7, ["k"])
        assert store.dirty_value("k") is None

    def test_snapshot_and_restore(self):
        store = RecordStore()
        store.apply_version(version("a", {"v": 1}, 1))
        store.apply_version(version("b", {"v": 2}, 2))
        image = store.snapshot()
        store.apply_version(version("c", {"v": 3}, 3))
        store.restore(image, commit_seq=2)
        assert sorted(store.keys()) == ["a", "b"]
        assert store.last_applied_seq == 2
        assert not store.contains("c")

    def test_average_record_size(self):
        store = RecordStore()
        assert store.estimated_average_record_size() == 0.0
        store.apply_version(version("a", {"v": 1}, 1))
        assert store.estimated_average_record_size() == store.live_bytes

    def test_staleness_between_copies(self):
        master, slave = RecordStore("m"), RecordStore("s")
        for seq in range(1, 6):
            master.apply_version(version("k", {"v": seq}, seq))
        for seq in range(1, 3):
            slave.apply_version(version("k", {"v": seq}, seq))
        assert staleness(master, slave) == 3
        assert staleness(slave, master) == 0


    def test_versioned_keys_include_tombstones(self):
        store = RecordStore()
        store.apply_version(version("a", {"v": 1}, 1))
        store.apply_version(version("b", {"v": 1}, 2))
        store.apply_version(version("b", TOMBSTONE, 3))
        assert sorted(store.versioned_keys()) == ["a", "b"]
        assert list(store.keys()) == ["a"]


class TestReplaceLatest:
    def test_replaces_value_in_the_same_slot(self):
        store = RecordStore()
        store.apply_version(version("k", {"v": "a"}, 1, tx=4, origin="se-0"))
        assert store.replace_latest("k", {"v": "bbbb"})
        (replaced,) = store.versions("k")
        assert replaced.value == {"v": "bbbb"}
        assert (replaced.commit_seq, replaced.transaction_id,
                replaced.origin) == (1, 4, "se-0")
        assert store.live_bytes == record_size({"v": "bbbb"})
        assert store.last_applied_seq == 1

    def test_refuses_missing_and_tombstoned_keys(self):
        store = RecordStore()
        store.apply_version(version("k", {"v": 1}, 1))
        store.apply_version(version("k", TOMBSTONE, 2))
        assert not store.replace_latest("k", {"v": 2})
        assert not store.replace_latest("missing", {"v": 2})
        assert store.versions("k")[-1].is_delete
        assert (len(store), store.live_bytes) == (0, 0)

    def test_refuses_a_tombstone_value(self):
        store = RecordStore()
        store.apply_version(version("k", {"v": 1}, 1))
        assert not store.replace_latest("k", TOMBSTONE)
        assert store.read_committed("k") == {"v": 1}

    def test_corruption_does_not_revive_a_deleted_record(self):
        store = RecordStore()
        store.apply_version(version("live", {"v": "x"}, 1))
        store.apply_version(version("gone", {"v": "y"}, 2))
        store.apply_version(version("gone", TOMBSTONE, 3))
        before = (len(store), store.live_bytes)
        assert not flip_store_record(store, "gone", random.Random(1))
        assert not store.contains("gone")
        assert (len(store), store.live_bytes) == before

    def test_corruption_keeps_the_accounting_in_step(self):
        store = RecordStore()
        store.apply_version(version("k", {"v": "abc", "imsi": "1"}, 1))
        assert flip_store_record(store, "k", random.Random(1))
        assert store.read_committed("k") == {"v": "cba~", "imsi": "1"}
        assert store.live_bytes == record_size(store.read_committed("k"))


# Random store histories: writes (re-creating deleted keys), deletes,
# snapshots, restores and in-place replacements over a few keys.
_keys = st.sampled_from(["a", "b", "c", "d"])
_scalars = st.one_of(st.text(max_size=8), st.integers(), st.booleans(),
                     st.floats(allow_nan=False))
_values = st.one_of(
    _scalars,
    st.dictionaries(st.text(min_size=1, max_size=4),
                    st.one_of(_scalars, st.lists(_scalars, max_size=3),
                              st.dictionaries(st.text(max_size=3), _scalars,
                                              max_size=2)),
                    max_size=4))
_steps = st.lists(st.one_of(
    st.tuples(st.just("write"), _keys, _values),
    st.tuples(st.just("delete"), _keys),
    st.tuples(st.just("replace"), _keys, _values),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("restore"))), max_size=40)


class TestAccountingOracle:
    """The incremental accounting always equals a from-scratch recount."""

    @settings(max_examples=150, deadline=None)
    @given(steps=_steps)
    def test_count_and_bytes_match_a_recount(self, steps):
        store = RecordStore()
        image, seq = {}, 0
        for step in steps:
            kind = step[0]
            if kind == "write":
                seq += 1
                store.apply_version(version(step[1], step[2], seq))
            elif kind == "delete":
                seq += 1
                store.apply_version(version(step[1], TOMBSTONE, seq))
            elif kind == "replace":
                live = store.contains(step[1])
                assert store.replace_latest(step[1], step[2]) == live
            elif kind == "snapshot":
                image = store.snapshot()
            else:
                store.restore(image, commit_seq=seq)
            live_keys = list(store.keys())
            assert len(store) == len(live_keys)
            assert store.live_bytes == sum(
                record_size(store.latest(key).value) for key in live_keys)
            assert all(store.contains(key) for key in live_keys)

    def test_loading_a_subscriber_base_never_walks_the_keys(self,
                                                            monkeypatch):
        from repro.core import UDRConfig, UDRNetworkFunction
        from repro.subscriber import SubscriberGenerator

        config = UDRConfig(seed=3)
        udr = UDRNetworkFunction(config)
        udr.start()
        profiles = SubscriberGenerator(config.regions, seed=3).generate(300)

        def walk(self):
            raise AssertionError("load_subscriber_base walked a store's keys")

        monkeypatch.setattr(RecordStore, "keys", walk)
        assert udr.load_subscriber_base(profiles) == 300
        monkeypatch.undo()
        assert sum(element.subscriber_count()
                   for element in udr.elements.values()) == 300


class TestPrivateStoreState:
    """Only ``storage/engine.py`` touches a ``RecordStore``'s private state."""

    PRIVATE = {"_versions", "_latest_sizes", "_live_bytes"}

    def test_no_module_outside_the_engine_reaches_in(self):
        root = Path(__file__).resolve().parents[1] / "src" / "repro"
        engine = root / "storage" / "engine.py"
        offenders = []
        for path in sorted(root.rglob("*.py")):
            if path == engine:
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            offenders.extend(
                f"{path.relative_to(root)}:{node.lineno} .{node.attr}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and node.attr in self.PRIVATE)
        assert offenders == []


class TestSlottedRecords:
    SAMPLES = (
        version("k", {"v": 1}, 3, tx=9, origin="se-1"),
        LogRecord(lsn=1, transaction_id=9, commit_seq=3,
                  operations=(version("k", {"v": 1}, 3, tx=9,
                                      origin="se-1"),),
                  origin="se-1", timestamp=2.5, epoch=1),
        HistoryEntry("k", 3, 9, "se-1", 2.5, "modify", {"v": 1}),
        ChangeEvent(0, 3, 1, 9, "se-1", 2.5, (), epoch=1),
    )

    @pytest.mark.parametrize("sample", SAMPLES,
                             ids=lambda s: type(s).__name__)
    def test_slotted_frozen_and_comparable(self, sample):
        assert not hasattr(sample, "__dict__")
        with pytest.raises(FrozenInstanceError):
            sample.key = "other"
        assert copy.copy(sample) == sample
        assert copy.deepcopy(sample) == sample
        assert pickle.loads(pickle.dumps(sample)) == sample

    def test_defaults_and_inequality(self):
        plain = RecordVersion("k", {"v": 1}, 3, 9)
        assert (plain.origin, plain.epoch) == ("", 0)
        assert plain != RecordVersion("k", {"v": 1}, 3, 9, epoch=1)
        record = LogRecord(1, 9, 3, ())
        assert (record.origin, record.timestamp, record.epoch) == ("", 0.0, 0)

    def test_size_and_delta_slots_are_not_fields(self):
        merged = RecordVersion("k", {"v": 2}, 3, 9, size=record_size({"v": 2}),
                               changed=("v",), base={"v": 1})
        plain = RecordVersion("k", {"v": 2}, 3, 9)
        assert merged == plain and repr(merged) == repr(plain)
        assert merged.size == plain.size == record_size({"v": 2})
        assert (plain.changed, plain.base) == (None, None)
        assert hash(RecordVersion("k", 1, 3, 9, size=5)) == \
            hash(RecordVersion("k", 1, 3, 9))
        assert RecordVersion("k", TOMBSTONE, 4, 9).size is None
        restored = pickle.loads(pickle.dumps(merged))
        assert (restored.size, restored.changed, restored.base) == \
            (merged.size, ("v",), {"v": 1})


class TestRecordHelpers:
    def test_record_size_grows_with_content(self):
        small = record_size({"msisdn": "346"})
        large = record_size({"msisdn": "346", "services": ["a"] * 50})
        assert large > small

    def test_record_size_of_tombstone_and_none(self):
        assert record_size(TOMBSTONE) == 16
        assert record_size(None) == 16

    def test_record_size_of_a_flat_profile(self):
        # 64 + (24 + 1 + 49 + 2) + 3 * (24 + 1 + 28)
        assert record_size({"a": "xy", "n": 1, "b": True, "f": 1.5}) == 299

    def test_subclasses_size_like_their_base_types(self):
        class Str(str):
            pass

        class Int(int):
            pass

        class Dict(dict):
            pass

        value = {"name": "alice", "n": 7, "nested": {"x": "yz"}}
        mirrored = Dict(name=Str("alice"), n=Int(7),
                        nested=Dict(x=Str("yz")))
        assert record_size(value) == record_size(mirrored)
        assert record_size("alice") == record_size(Str("alice"))
        assert record_size({1: "a"}) == record_size({"1": "a"})

    def test_none_attributes_and_other_mappings_have_pinned_sizes(self):
        class Profile(dict):
            pass

        class Frozen(Mapping):
            def __init__(self, **items):
                self._items = items

            def __getitem__(self, key):
                return self._items[key]

            def __iter__(self):
                return iter(self._items)

            def __len__(self):
                return len(self._items)

        # 64 + (24 + 1 + 48) + (24 + 1 + 49 + 1): an absent attribute is 48.
        assert record_size({"a": None, "b": "x"}) == 212
        # 64 + (24 + 1 + 28), whichever mapping type holds the attributes.
        assert record_size(MappingProxyType({"v": 1})) == 117
        assert record_size(Frozen(v=1)) == 117
        assert record_size(Profile(v=1)) == 117
        # 64 + 24 + 1 + (64 + (24 + 1 + 28) + (24 + 1 + 48)), nested.
        assert record_size({"m": Frozen(v=1, w=None)}) == 279
        assert record_size({"m": Profile(v=1, w=None)}) == 279

    def test_merge_attributes_updates_and_deletes(self):
        base = {"a": 1, "b": 2}
        merged = merge_attributes(base, {"b": None, "c": 3})
        assert merged == {"a": 1, "c": 3}
        assert base == {"a": 1, "b": 2}, "merge must not mutate the base"

    def test_merge_attributes_accepts_none_base(self):
        assert merge_attributes(None, {"a": 1}) == {"a": 1}

    def test_tombstone_is_falsy_singleton(self):
        from repro.storage.records import _Tombstone
        assert not TOMBSTONE
        assert _Tombstone() is TOMBSTONE


class TestLockManager:
    def test_exclusive_lock_conflicts(self):
        locks = LockManager()
        locks.acquire(1, "k", LockMode.EXCLUSIVE)
        with pytest.raises(WriteConflict):
            locks.acquire(2, "k", LockMode.EXCLUSIVE)
        assert locks.conflicts == 1

    def test_shared_locks_are_compatible(self):
        locks = LockManager()
        locks.acquire(1, "k", LockMode.SHARED)
        locks.acquire(2, "k", LockMode.SHARED)
        assert locks.holders("k") == {1, 2}

    def test_shared_then_exclusive_conflicts(self):
        locks = LockManager()
        locks.acquire(1, "k", LockMode.SHARED)
        with pytest.raises(WriteConflict):
            locks.acquire(2, "k", LockMode.EXCLUSIVE)

    def test_sole_holder_can_upgrade(self):
        locks = LockManager()
        locks.acquire(1, "k", LockMode.SHARED)
        locks.acquire(1, "k", LockMode.EXCLUSIVE)
        assert locks.mode("k") is LockMode.EXCLUSIVE

    def test_release_all_frees_keys(self):
        locks = LockManager()
        locks.acquire(1, "a")
        locks.acquire(1, "b")
        locks.release_all(1)
        assert len(locks) == 0
        locks.acquire(2, "a")  # must not raise

    def test_release_unknown_transaction_is_noop(self):
        locks = LockManager()
        locks.release_all(99)
        assert len(locks) == 0

    def test_held_keys(self):
        locks = LockManager()
        locks.acquire(5, "x")
        locks.acquire(5, "y")
        assert locks.held_keys(5) == {"x", "y"}

    def test_mode_of_unlocked_key_raises(self):
        with pytest.raises(KeyError):
            LockManager().mode("nothing")
