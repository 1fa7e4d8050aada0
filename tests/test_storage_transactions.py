"""Unit tests for intra-SE transactions and isolation levels."""

import pytest

from repro.storage import (
    IsolationLevel,
    RecordNotFound,
    RecordStore,
    TransactionManager,
    TransactionStateError,
    WriteAheadLog,
    WriteConflict,
)


@pytest.fixture
def manager():
    store = RecordStore("se-1:partition-0:primary")
    wal = WriteAheadLog("se-1:partition-0:primary")
    return TransactionManager(store, wal, name="se-1:partition-0:primary")


def seed(manager, key="sub-1", value=None):
    value = value if value is not None else {"msisdn": "34600000001"}
    tx = manager.begin()
    tx.write(key, value)
    tx.commit()
    return value


class TestBasicTransactions:
    def test_write_then_commit_is_visible(self, manager):
        tx = manager.begin()
        tx.write("sub-1", {"msisdn": "34600000001"})
        record = tx.commit()
        assert manager.store.read_committed("sub-1") == {"msisdn": "34600000001"}
        assert record.keys == ("sub-1",)
        assert manager.commits == 1

    def test_uncommitted_write_not_visible_to_read_committed(self, manager):
        writer = manager.begin()
        writer.write("sub-1", {"status": "new"})
        reader = manager.begin(IsolationLevel.READ_COMMITTED)
        with pytest.raises(RecordNotFound):
            reader.read("sub-1")

    def test_abort_discards_writes(self, manager):
        tx = manager.begin()
        tx.write("sub-1", {"status": "new"})
        tx.abort()
        with pytest.raises(RecordNotFound):
            manager.store.read_committed("sub-1")
        assert manager.aborts == 1

    def test_transaction_reads_its_own_writes(self, manager):
        tx = manager.begin()
        tx.write("sub-1", {"v": 1})
        assert tx.read("sub-1") == {"v": 1}

    def test_delete_writes_tombstone(self, manager):
        seed(manager)
        tx = manager.begin()
        tx.delete("sub-1")
        tx.commit()
        with pytest.raises(RecordNotFound):
            manager.store.read_committed("sub-1")

    def test_deleted_key_invisible_within_deleting_transaction(self, manager):
        seed(manager)
        tx = manager.begin()
        tx.delete("sub-1")
        with pytest.raises(RecordNotFound):
            tx.read("sub-1")

    def test_modify_merges_attributes(self, manager):
        seed(manager, value={"msisdn": "346", "barred": False})
        tx = manager.begin()
        updated = tx.modify("sub-1", {"barred": True, "msisdn": None})
        tx.commit()
        assert updated == {"barred": True}
        assert manager.store.read_committed("sub-1") == {"barred": True}

    def test_modify_of_a_missing_record_with_must_exist(self, manager):
        tx = manager.begin()
        with pytest.raises(RecordNotFound):
            tx.modify("sub-1", {"a": 1}, must_exist=True)
        assert tx.write_keys == [] and tx.is_active
        assert tx.modify("sub-1", {"a": 1}) == {"a": 1}

    def test_modify_with_must_exist_reads_the_key_once(self, manager,
                                                       monkeypatch):
        seed(manager)
        tx = manager.begin()
        reads = []
        original = type(tx).read

        def read(transaction, key):
            reads.append(key)
            return original(transaction, key)

        monkeypatch.setattr(type(tx), "read", read)
        tx.modify("sub-1", {"barred": True}, must_exist=True)
        assert reads == ["sub-1"]

    def test_modify_non_map_record_rejected(self, manager):
        seed(manager, value="just a string")
        tx = manager.begin()
        with pytest.raises(TypeError):
            tx.modify("sub-1", {"a": 1})

    def test_finished_transaction_rejects_operations(self, manager):
        tx = manager.begin()
        tx.write("k", {"v": 1})
        tx.commit()
        with pytest.raises(TransactionStateError):
            tx.write("k", {"v": 2})
        with pytest.raises(TransactionStateError):
            tx.read("k")
        with pytest.raises(TransactionStateError):
            tx.commit()

    def test_read_only_commit_produces_no_log_record(self, manager):
        seed(manager)
        tx = manager.begin()
        tx.read("sub-1")
        assert tx.commit() is None
        assert manager.read_only_commits == 1
        assert len(manager.wal) == 1  # only the seed write

    def test_run_helper_commits_on_success(self, manager):
        result = manager.run(lambda tx: tx.write("k", {"v": 1}) or "ok")
        assert result == "ok"
        assert manager.store.read_committed("k") == {"v": 1}

    def test_run_helper_aborts_on_exception(self, manager):
        def body(tx):
            tx.write("k", {"v": 1})
            raise RuntimeError("body failed")

        with pytest.raises(RuntimeError):
            manager.run(body)
        assert not manager.store.contains("k")
        assert manager.aborts == 1


class TestWriteConflicts:
    def test_concurrent_writers_conflict(self, manager):
        first = manager.begin()
        second = manager.begin()
        first.write("sub-1", {"v": 1})
        with pytest.raises(WriteConflict):
            second.write("sub-1", {"v": 2})
        assert not second.is_active, "conflicting writer is aborted (no-wait)"
        first.commit()
        assert manager.store.read_committed("sub-1") == {"v": 1}

    def test_conflict_released_after_commit(self, manager):
        first = manager.begin()
        first.write("sub-1", {"v": 1})
        first.commit()
        second = manager.begin()
        second.write("sub-1", {"v": 2})
        second.commit()
        assert manager.store.read_committed("sub-1") == {"v": 2}

    def test_conflict_released_after_abort(self, manager):
        first = manager.begin()
        first.write("sub-1", {"v": 1})
        first.abort()
        second = manager.begin()
        second.write("sub-1", {"v": 2})
        second.commit()
        assert manager.store.read_committed("sub-1") == {"v": 2}

    def test_reads_do_not_block_writes_under_read_committed(self, manager):
        seed(manager)
        reader = manager.begin(IsolationLevel.READ_COMMITTED)
        reader.read("sub-1")
        writer = manager.begin()
        writer.write("sub-1", {"v": "new"})  # must not raise
        writer.commit()
        reader.commit()


class TestIsolationLevels:
    def test_read_uncommitted_sees_dirty_data(self, manager):
        writer = manager.begin()
        writer.write("sub-1", {"status": "dirty"})
        reader = manager.begin(IsolationLevel.READ_UNCOMMITTED)
        assert reader.read("sub-1") == {"status": "dirty"}

    def test_read_committed_is_non_repeatable(self, manager):
        seed(manager, value={"v": 1})
        reader = manager.begin(IsolationLevel.READ_COMMITTED)
        assert reader.read("sub-1") == {"v": 1}
        writer = manager.begin()
        writer.write("sub-1", {"v": 2})
        writer.commit()
        assert reader.read("sub-1") == {"v": 2}, \
            "READ_COMMITTED re-reads see newer commits"

    def test_repeatable_read_pins_snapshot(self, manager):
        seed(manager, value={"v": 1})
        reader = manager.begin(IsolationLevel.REPEATABLE_READ)
        assert reader.read("sub-1") == {"v": 1}
        writer = manager.begin()
        writer.write("sub-1", {"v": 2})
        writer.commit()
        assert reader.read("sub-1") == {"v": 1}, \
            "REPEATABLE_READ keeps the begin-time snapshot"

    def test_serializable_read_blocks_writers(self, manager):
        seed(manager)
        reader = manager.begin(IsolationLevel.SERIALIZABLE)
        reader.read("sub-1")
        writer = manager.begin()
        with pytest.raises(WriteConflict):
            writer.write("sub-1", {"v": "conflict"})

    def test_default_isolation_is_read_committed(self, manager):
        tx = manager.begin()
        assert tx.isolation is IsolationLevel.READ_COMMITTED

    def test_paper_default_levels(self):
        assert IsolationLevel.default_intra_element() is IsolationLevel.READ_COMMITTED
        assert IsolationLevel.default_cross_element() is IsolationLevel.READ_UNCOMMITTED

    def test_isolation_properties(self):
        assert IsolationLevel.READ_UNCOMMITTED.allows_dirty_reads
        assert not IsolationLevel.READ_COMMITTED.allows_dirty_reads
        assert IsolationLevel.REPEATABLE_READ.uses_snapshot
        assert IsolationLevel.SERIALIZABLE.takes_read_locks
        assert not IsolationLevel.READ_COMMITTED.takes_read_locks


class TestReplicationApply:
    def test_apply_log_record_preserves_serialisation_order(self):
        master_store = RecordStore("master")
        master_wal = WriteAheadLog("master")
        master = TransactionManager(master_store, master_wal, name="master")
        slave_store = RecordStore("slave")
        slave_wal = WriteAheadLog("slave")
        slave = TransactionManager(slave_store, slave_wal, name="slave")

        records = []
        for value in range(1, 4):
            tx = master.begin()
            tx.write("sub-1", {"v": value})
            records.append(tx.commit())

        for record in records:
            slave.apply_log_record(record)

        assert slave_store.read_committed("sub-1") == {"v": 3}
        master_chain = [v.commit_seq for v in master_store.versions("sub-1")]
        slave_chain = [v.commit_seq for v in slave_store.versions("sub-1")]
        assert master_chain == slave_chain

    def test_apply_log_record_advances_commit_seq(self):
        master = TransactionManager(RecordStore(), WriteAheadLog(), name="m")
        slave = TransactionManager(RecordStore(), WriteAheadLog(), name="s")
        tx = master.begin()
        tx.write("k", {"v": 1})
        record = tx.commit()
        slave.apply_log_record(record)
        tx2 = slave.begin()
        tx2.write("k", {"v": 2})
        record2 = tx2.commit()
        assert record2.commit_seq > record.commit_seq
