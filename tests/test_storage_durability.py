"""Unit tests for the WAL, checkpointing and crash/recovery behaviour."""

import pytest

from repro.sim import units
from repro.storage import (
    CheckpointPolicy,
    Checkpointer,
    RecordStore,
    TransactionManager,
    WriteAheadLog,
)


def make_copy():
    store = RecordStore("copy")
    wal = WriteAheadLog("copy")
    manager = TransactionManager(store, wal, name="copy")
    checkpointer = Checkpointer(store, wal)
    return store, wal, manager, checkpointer


def commit_write(manager, key, value):
    tx = manager.begin()
    tx.write(key, value)
    return tx.commit()


class TestWriteAheadLog:
    def test_lsn_monotonically_increases(self):
        _, wal, manager, _ = make_copy()
        records = [commit_write(manager, f"k{i}", {"v": i}) for i in range(5)]
        assert [r.lsn for r in records] == [1, 2, 3, 4, 5]
        assert wal.last_lsn == 5

    def test_since_returns_strictly_newer_records(self):
        _, wal, manager, _ = make_copy()
        for i in range(4):
            commit_write(manager, f"k{i}", {"v": i})
        assert [r.lsn for r in wal.since(2)] == [3, 4]
        assert wal.since(10) == []

    def test_mark_durable_cannot_go_backwards(self):
        _, wal, manager, _ = make_copy()
        commit_write(manager, "k", {"v": 1})
        wal.mark_durable(1)
        with pytest.raises(ValueError):
            wal.mark_durable(0)

    def test_undurable_records_reported(self):
        _, wal, manager, _ = make_copy()
        commit_write(manager, "a", {"v": 1})
        wal.mark_durable(wal.last_lsn)
        commit_write(manager, "b", {"v": 2})
        commit_write(manager, "c", {"v": 3})
        assert len(wal.undurable_records()) == 2

    def test_truncate_through_drops_old_records(self):
        _, wal, manager, _ = make_copy()
        for i in range(4):
            commit_write(manager, f"k{i}", {"v": i})
        dropped = wal.truncate_through(2)
        assert dropped == 2
        assert [r.lsn for r in wal.records] == [3, 4]

    def test_crash_drops_volatile_tail(self):
        _, wal, manager, _ = make_copy()
        commit_write(manager, "a", {"v": 1})
        wal.mark_durable(wal.last_lsn)
        commit_write(manager, "b", {"v": 2})
        lost = wal.crash()
        assert [r.keys for r in lost] == [("b",)]
        assert wal.last_lsn == 1

    def test_fully_truncated_log_keeps_its_high_water_mark(self):
        # Retention can drop *every* record (all durable and shipped); the
        # log must not report last_lsn=0, or the next checkpoint would try
        # to move the durability watermark backwards and blow up.
        _, wal, manager, checkpointer = make_copy()
        for i in range(3):
            commit_write(manager, f"k{i}", {"v": i})
        checkpointer.checkpoint()
        assert wal.truncate_through(wal.durable_lsn) == 3
        assert len(wal) == 0
        assert wal.last_lsn == 3
        assert checkpointer.checkpoint() == 3

    def test_since_after_truncation_and_crash(self):
        """The index-arithmetic fast path must survive both log prunings:
        truncation (drops a prefix) and a crash (drops the volatile tail)."""
        _, wal, manager, _ = make_copy()
        for i in range(6):
            commit_write(manager, f"k{i}", {"v": i})
        wal.truncate_through(2)
        assert [r.lsn for r in wal.since(0)] == [3, 4, 5, 6]
        assert [r.lsn for r in wal.since(4)] == [5, 6]
        assert wal.since(6) == []
        wal.mark_durable(4)
        wal.crash()
        assert [r.lsn for r in wal.since(2)] == [3, 4]
        assert wal.since(4) == []

    def test_since_across_a_crash_hole(self):
        """A crash drops the volatile suffix but numbering carries on, so
        the next append leaves a hole in the LSNs: [1, 2, 3, 6]."""
        _, wal, manager, _ = make_copy()
        for i in range(5):
            commit_write(manager, f"k{i}", {"v": i})
        wal.mark_durable(3)
        wal.crash()
        commit_write(manager, "after", {"v": 6})
        assert [r.lsn for r in wal.records] == [1, 2, 3, 6]
        assert [r.lsn for r in wal.since(0)] == [1, 2, 3, 6]
        assert [r.lsn for r in wal.since(2)] == [3, 6]
        assert [r.lsn for r in wal.since(3)] == [6]
        assert [r.lsn for r in wal.since(4)] == [6]
        assert [r.lsn for r in wal.since(5)] == [6]
        assert wal.since(6) == []
        assert wal.since(7) == []


class TestWalTap:
    """The one commit-log follower primitive: listener, cursor and pin."""

    def test_tap_sees_every_append_until_closed(self):
        _, wal, manager, _ = make_copy()
        seen = []
        tap = wal.tap(seen.append)
        assert tap.lsn == 0 and not tap.paused
        record = commit_write(manager, "a", {"v": 1})
        assert seen == [record]
        copy = wal.append_record(record)
        assert seen == [record, copy]
        assert tap.lsn == copy.lsn
        tap.close()
        commit_write(manager, "b", {"v": 2})
        assert len(seen) == 2
        assert tap.lsn == copy.lsn
        tap.close()  # idempotent
        assert wal.taps == ()

    def test_cursor_starts_at_the_tail(self):
        _, wal, manager, _ = make_copy()
        for i in range(3):
            commit_write(manager, f"k{i}", {"v": i})
        assert wal.tap(lambda record: None).lsn == 3

    def test_origin_filter_still_advances_the_cursor(self):
        _, wal, manager, _ = make_copy()
        seen = []
        tap = wal.tap(seen.append, origin="copy")
        own = commit_write(manager, "a", {"v": 1})
        foreign = wal.append(99, 1, (), origin="elsewhere")
        assert seen == [own]
        assert tap.lsn == foreign.lsn

    def test_paused_tap_pins_truncation(self):
        _, wal, manager, _ = make_copy()
        commit_write(manager, "a", {"v": 1})
        seen = []
        tap = wal.tap(seen.append)
        tap.paused = True
        for i in range(3):
            commit_write(manager, f"k{i}", {"v": i})
        wal.mark_durable(wal.last_lsn)
        assert wal.pinned_lsn == 1
        assert wal.truncate_through(wal.last_lsn) == 1
        assert [r.lsn for r in wal.records] == [2, 3, 4]
        assert wal.truncated_through == 1
        assert seen == [] and tap.lsn == 1
        assert tap.resume() == 0
        assert [r.lsn for r in seen] == [2, 3, 4]
        assert tap.lsn == 4
        assert wal.truncate_through(wal.last_lsn) == 3

    def test_close_releases_the_pin(self):
        _, wal, manager, _ = make_copy()
        tap = wal.tap(lambda record: None)
        tap.paused = True
        for i in range(3):
            commit_write(manager, f"k{i}", {"v": i})
        assert wal.truncate_through(3) == 0
        tap.close()
        assert wal.pinned_lsn is None
        assert wal.truncate_through(3) == 3

    def test_resume_reports_records_lost_to_truncation_not_to_a_crash(self):
        _, wal, manager, _ = make_copy()
        tap = wal.tap(lambda record: None)
        tap.paused = True
        commit_write(manager, "a", {"v": 1})
        commit_write(manager, "b", {"v": 2})
        wal.crash()  # nothing durable: both records are gone
        commit_write(manager, "c", {"v": 3})
        assert tap.resume() == 0
        assert tap.lsn == 3


class TestCheckpointPolicy:
    def test_loss_window_halves_period_on_average(self):
        policy = CheckpointPolicy(period=10 * units.MINUTE)
        assert policy.expected_loss_window() == pytest.approx(5 * units.MINUTE)
        assert policy.worst_case_loss_window() == pytest.approx(10 * units.MINUTE)

    def test_synchronous_commit_has_no_loss_window(self):
        policy = CheckpointPolicy(synchronous_commit=True)
        assert policy.expected_loss_window() == 0.0
        assert policy.worst_case_loss_window() == 0.0

    def test_shorter_period_costs_more_throughput(self):
        data = 100 * units.GIB
        fast_dumps = CheckpointPolicy(period=5 * units.MINUTE)
        slow_dumps = CheckpointPolicy(period=60 * units.MINUTE)
        assert fast_dumps.throughput_penalty(data) > \
            slow_dumps.throughput_penalty(data)

    def test_penalty_capped_at_one(self):
        policy = CheckpointPolicy(period=1.0, disk_bandwidth=1 * units.MIB)
        assert policy.throughput_penalty(10 * units.GIB) == 1.0

    def test_empty_element_has_no_penalty(self):
        assert CheckpointPolicy().throughput_penalty(0) == 0.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CheckpointPolicy(period=0)
        with pytest.raises(ValueError):
            CheckpointPolicy(disk_bandwidth=0)
        with pytest.raises(ValueError):
            CheckpointPolicy(sync_write_latency=-1)


class TestCrashRecovery:
    def test_crash_loses_commits_after_checkpoint(self):
        store, _, manager, checkpointer = make_copy()
        commit_write(manager, "kept", {"v": 1})
        checkpointer.checkpoint(timestamp=100.0)
        commit_write(manager, "lost", {"v": 2})
        lost = checkpointer.crash_and_recover()
        assert [r.keys for r in lost] == [("lost",)]
        assert store.contains("kept")
        assert not store.contains("lost")

    def test_recovery_restores_checkpoint_image_exactly(self):
        store, _, manager, checkpointer = make_copy()
        commit_write(manager, "a", {"v": 1})
        commit_write(manager, "b", {"v": 2})
        checkpointer.checkpoint()
        commit_write(manager, "a", {"v": 99})
        checkpointer.crash_and_recover()
        assert store.read_committed("a") == {"v": 1}
        assert store.read_committed("b") == {"v": 2}

    def test_crash_without_checkpoint_loses_everything(self):
        store, _, manager, checkpointer = make_copy()
        commit_write(manager, "a", {"v": 1})
        lost = checkpointer.crash_and_recover()
        assert len(lost) == 1
        assert len(store) == 0

    def test_no_loss_when_nothing_written_since_checkpoint(self):
        store, _, manager, checkpointer = make_copy()
        commit_write(manager, "a", {"v": 1})
        checkpointer.checkpoint()
        lost = checkpointer.crash_and_recover()
        assert lost == []
        assert store.contains("a")

    def test_sync_commit_watermark_prevents_loss(self):
        store, wal, manager, checkpointer = make_copy()
        commit_write(manager, "a", {"v": 1})
        checkpointer.sync_commit()
        lost = wal.crash()
        assert lost == []

    def test_undurable_commit_count(self):
        _, _, manager, checkpointer = make_copy()
        commit_write(manager, "a", {"v": 1})
        assert checkpointer.undurable_commit_count() == 1
        checkpointer.checkpoint()
        assert checkpointer.undurable_commit_count() == 0

    def test_writes_after_recovery_continue_cleanly(self):
        store, _, manager, checkpointer = make_copy()
        commit_write(manager, "a", {"v": 1})
        checkpointer.checkpoint()
        commit_write(manager, "b", {"v": 2})
        checkpointer.crash_and_recover()
        commit_write(manager, "c", {"v": 3})
        assert store.contains("a")
        assert store.contains("c")
        assert not store.contains("b")
