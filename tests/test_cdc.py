"""The CDC plane: WAL-tap change stream, audit history, replay property.

Pins the PR 8 contracts:

* the :class:`~repro.cdc.stream.ChangeStream` folds each logical commit
  exactly once (origin filter + per-partition ``commit_seq`` dedupe), in
  the master's serialisation order, across replication applies, re-applied
  records and fail-over;
* ``pause``/``resume`` loses nothing (a paused tap pins its log, see
  ``test_mux_policies``), drains in order, and does not count a crash's
  lost tail as a retention gap;
* **replay == state**: replaying a partition's event stream -- full, or
  the suffix past any checkpoint -- into a store reproduces the master
  copy's exact live state (hypothesis property);
* the :class:`~repro.cdc.history.HistoryStore` answers who/what/when per
  mutation, resolves identities, caps per-record trails, and keeps
  answering past WAL truncation;
* ``Session.history`` surfaces the trail end-to-end and fails loudly when
  the CDC plane is off.
"""

import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.operations import IDENTITY_TYPES, Write
from repro.cdc import (
    ChangeStream,
    HistoryStore,
    IDENTITY_ATTRIBUTES,
    replay_events,
)
from repro.core import ClientType, UDRConfig
from repro.core.config import CdcPolicy
from repro.replication import AsyncReplicationChannel
from repro.storage import RecordStore
from repro.storage.records import TOMBSTONE

from tests.conftest import build_udr, fe_site_for, run_to_completion
from tests.helpers import build_replicated_partition, master_write, replicate


def tapped_stream(replica_set, **kwargs):
    """A stream subscribed to every member copy of one replica set."""
    stream = ChangeStream(**kwargs)
    for _, copy in replica_set.members():
        stream.tap(0, copy)
    return stream


def master_delete(replica_set, key, timestamp=0.0):
    copy = replica_set.master_copy
    tx = copy.transactions.begin()
    tx.delete(key)
    return tx.commit(timestamp=timestamp)


class TestChangeStream:
    def test_folds_commits_in_master_order(self):
        _, _, _, _, replica_set = build_replicated_partition()
        stream = tapped_stream(replica_set)
        for value in range(4):
            master_write(replica_set, f"sub-{value % 2}", {"v": value},
                         timestamp=float(value))
        events = stream.events(0)
        assert [e.commit_seq for e in events] == [1, 2, 3, 4]
        assert all(e.origin == replica_set.master_copy.transactions.name
                   for e in events)
        assert [e.timestamp for e in events] == [0.0, 1.0, 2.0, 3.0]
        assert stream.checkpoint(0) == 4

    def test_replication_apply_is_not_double_folded(self):
        sim, network, _, _, replica_set = build_replicated_partition()
        stream = tapped_stream(replica_set)
        master_write(replica_set, "sub-1", {"v": 1})
        channel = AsyncReplicationChannel(sim, replica_set, "se-1")
        replicate(sim, network, [channel])
        assert channel.records_shipped == 1
        assert replica_set.copy_on("se-1").store.contains("sub-1")
        # The slave's WAL notified the stream, but the record's origin is
        # the master's, so the slave tap filtered it: one event, no dupes.
        assert stream.events_folded == 1
        assert len(stream.events(0)) == 1

    def test_redelivered_commit_seq_is_skipped(self):
        _, _, _, _, replica_set = build_replicated_partition()
        stream = tapped_stream(replica_set)
        record = master_write(replica_set, "sub-1", {"v": 1})
        # Re-deliver the same logical commit on the master's own log (same
        # origin, same commit_seq): the dedupe line drops it.
        replica_set.master_copy.wal.append_record(record)
        assert stream.events_folded == 1
        assert stream.duplicates_skipped == 1

    def test_survives_fail_over(self):
        sim, network, _, _, replica_set = build_replicated_partition()
        stream = tapped_stream(replica_set)
        master_write(replica_set, "sub-1", {"v": 1})
        channel = AsyncReplicationChannel(sim, replica_set, "se-1")
        replicate(sim, network, [channel])
        replica_set.set_master("se-1")
        master_write(replica_set, "sub-1", {"v": 2})
        events = stream.events(0)
        assert [e.commit_seq for e in events] == [1, 2]
        # The promoted copy commits under its own name; no re-tap needed.
        assert events[0].origin != events[1].origin
        assert events[1].origin == \
            replica_set.copy_on("se-1").transactions.name

    def test_pause_resume_drains_in_order_without_gaps(self):
        _, _, _, _, replica_set = build_replicated_partition()
        stream = tapped_stream(replica_set)
        master_write(replica_set, "sub-1", {"v": 0})
        stream.pause()
        for value in range(1, 4):
            master_write(replica_set, f"sub-{value}", {"v": value})
        assert stream.events_folded == 1, "paused stream folds nothing"
        stream.resume()
        assert [e.commit_seq for e in stream.events(0)] == [1, 2, 3, 4]
        assert stream.gap_records_lost == 0
        assert stream.duplicates_skipped == 0

    def test_crash_while_paused_is_not_a_retention_gap(self):
        """Regression: a crash drops the volatile tail but LSN numbering
        carries on, so the next commit leaves a hole in the log.  That hole
        is not retention dropping records the stream never saw."""
        _, _, _, elements, replica_set = build_replicated_partition()
        stream = tapped_stream(replica_set)
        master_write(replica_set, "a", {"v": 1})
        replica_set.master_copy.checkpointer.checkpoint()
        stream.pause()
        master_write(replica_set, "b", {"v": 2})
        master_write(replica_set, "c", {"v": 3})
        elements[0].crash()
        elements[0].recover()
        master_write(replica_set, "d", {"v": 4})
        assert [r.lsn for r in replica_set.master_copy.wal.records] == \
            [1, 4]
        stream.resume()
        assert stream.gap_records_lost == 0
        assert [e.keys for e in stream.events(0)] == [("a",), ("d",)]

    def test_consumers_run_per_event(self):
        _, _, _, _, replica_set = build_replicated_partition()
        stream = tapped_stream(replica_set)
        seen = []
        stream.subscribe(seen.append)
        master_write(replica_set, "sub-1", {"v": 1})
        master_write(replica_set, "sub-2", {"v": 2})
        assert [e.commit_seq for e in seen] == [1, 2]

    def test_events_since_index_arithmetic_and_trim_fallback(self):
        _, _, _, _, replica_set = build_replicated_partition()
        stream = tapped_stream(replica_set, retention_events=3)
        for value in range(6):
            master_write(replica_set, f"sub-{value}", {"v": value})
        # Retention kept the last three events (seq 4, 5, 6).
        assert [e.commit_seq for e in stream.events(0)] == [4, 5, 6]
        assert stream.events_evicted > 0
        assert [e.commit_seq for e in stream.events_since(0, 4)] == [5, 6]
        assert stream.events_since(0, 6) == []
        # A checkpoint before the retained prefix returns everything left.
        assert [e.commit_seq for e in stream.events_since(0, 1)] == [4, 5, 6]

    def test_close_stops_folding(self):
        _, _, _, _, replica_set = build_replicated_partition()
        stream = tapped_stream(replica_set)
        master_write(replica_set, "sub-1", {"v": 1})
        stream.close()
        master_write(replica_set, "sub-2", {"v": 2})
        assert stream.events_folded == 1

    def test_invalid_retention_rejected(self):
        with pytest.raises(ValueError):
            ChangeStream(retention_events=0)


# ---------------------------------------------------------------- replay

replay_keys = st.sampled_from([f"sub-{i}" for i in range(5)])
replay_values = st.integers(0, 99)
replay_ops = st.lists(
    st.tuples(replay_keys, replay_values, st.booleans()),
    min_size=1, max_size=25)


def _live_state(store):
    return {key: store.read_committed(key) for key in store.keys()}


class TestReplayProperty:
    @settings(max_examples=30, deadline=None)
    @given(ops=replay_ops, data=st.data())
    def test_replay_from_any_checkpoint_reproduces_store_state(
            self, ops, data):
        """replay == state: the full stream, or any checkpoint's suffix
        on top of a prefix-replayed store, lands on the master's exact
        live state -- and nothing in between is order-sensitive."""
        _, _, _, _, replica_set = build_replicated_partition()
        stream = tapped_stream(replica_set)
        for key, value, is_delete in ops:
            if is_delete:
                master_delete(replica_set, key)
            else:
                master_write(replica_set, key, {"v": value})
        events = stream.events(0)
        assert [e.commit_seq for e in events] == \
            list(range(1, len(ops) + 1))
        master_state = _live_state(replica_set.master_copy.store)

        full = RecordStore("replay-full")
        replay_events(events, full)
        assert _live_state(full) == master_state

        cut = data.draw(st.integers(0, len(events)), label="checkpoint")
        resumed = RecordStore("replay-resumed")
        replay_events(events[:cut], resumed)
        checkpoint = events[cut - 1].commit_seq if cut else 0
        replay_events(stream.events_since(0, checkpoint), resumed)
        assert _live_state(resumed) == master_state

    @settings(max_examples=15, deadline=None)
    @given(ops=replay_ops)
    def test_redelivery_is_idempotent_by_commit_seq(self, ops):
        _, _, _, _, replica_set = build_replicated_partition()
        stream = tapped_stream(replica_set)
        records = []
        for key, value, is_delete in ops:
            if is_delete:
                records.append(master_delete(replica_set, key))
            else:
                records.append(master_write(replica_set, key, {"v": value}))
        folded = stream.events_folded
        for record in records:  # a full re-delivery of the log
            replica_set.master_copy.wal.append_record(record)
        assert stream.events_folded == folded
        assert stream.duplicates_skipped == len(records)


# ---------------------------------------------------------------- history

class TestHistoryStore:
    def build_trail(self):
        _, _, _, _, replica_set = build_replicated_partition()
        stream = tapped_stream(replica_set)
        history = HistoryStore(stream)
        master_write(replica_set, "sub-1",
                     {"imsi": "123", "plan": "gold", "msc": "a"},
                     timestamp=1.0)
        master_write(replica_set, "sub-1",
                     {"imsi": "123", "plan": "silver"}, timestamp=2.0)
        master_delete(replica_set, "sub-1", timestamp=3.0)
        return replica_set, history

    def test_who_what_when_per_mutation(self):
        replica_set, history = self.build_trail()
        trail = history.history("sub-1")
        assert [entry.kind for entry in trail] == \
            ["create", "modify", "delete"]
        who = replica_set.master_copy.transactions.name
        assert all(entry.origin == who for entry in trail)
        assert [entry.timestamp for entry in trail] == [1.0, 2.0, 3.0]
        # The "what": attribute-level diffs, removals marked None.
        assert trail[0].changes == {"imsi": "123", "plan": "gold",
                                    "msc": "a"}
        assert trail[1].changes == {"plan": "silver", "msc": None}
        assert trail[2].changes is None
        assert history.latest_value("sub-1") is TOMBSTONE

    def test_identity_resolution(self):
        _, history = self.build_trail()
        assert history.resolve("imsi", "123") == "sub-1"
        assert history.resolve("imsi", "999") is None
        assert len(history.history_of_identity("imsi", "123")) == 3
        assert history.history_of_identity("imsi", "999") == []
        assert dict(history.identity_entries()) == \
            {("imsi", "123"): "sub-1"}

    def test_per_record_cap_evicts_oldest(self):
        _, _, _, _, replica_set = build_replicated_partition()
        stream = tapped_stream(replica_set)
        history = HistoryStore(stream, max_entries_per_record=2)
        for value in range(5):
            master_write(replica_set, "sub-1", {"v": value})
        trail = history.history("sub-1")
        assert len(trail) == 2
        assert [entry.commit_seq for entry in trail] == [4, 5]
        assert history.entries_evicted == 3
        with pytest.raises(ValueError):
            HistoryStore(max_entries_per_record=0)

    def test_history_survives_wal_truncation(self):
        replica_set, history = self.build_trail()
        wal = replica_set.master_copy.wal
        wal.mark_durable(wal.last_lsn)
        assert wal.truncate_through(wal.last_lsn) == 3
        # The log is gone; the audit trail is not.
        assert len(history.history("sub-1")) == 3

    def test_identity_attributes_mirror_api_identity_types(self):
        # cdc duplicates the tuple to stay import-cycle-free; this is the
        # tripwire that keeps the two in lock-step.
        assert IDENTITY_ATTRIBUTES == IDENTITY_TYPES


# ---------------------------------------------------------------- session

class TestSessionHistory:
    def test_history_end_to_end(self):
        config = UDRConfig(seed=7, cdc=CdcPolicy())
        udr, profiles = build_udr(config, subscribers=20)
        profile = profiles[0]
        imsi = profile.identities.imsi
        client = udr.attach("fe@test", fe_site_for(udr, profile),
                            client_type=ClientType.PROVISIONING)
        with client.session() as session:
            response = run_to_completion(
                udr, session.call(Write(imsi, {"servingMsc": "msc-9"})))
            assert response.ok
            trail = session.history(imsi)
        assert trail, "the load + the write must both be audited"
        assert trail[0].kind == "create"
        assert trail[-1].kind == "modify"
        assert trail[-1].changes.get("servingMsc") == "msc-9"
        # "Who": the commit's originating copy names the master element.
        replica_sets = udr.replica_sets.values()
        masters = {rs.master_element_name for rs in replica_sets}
        assert any(trail[-1].origin.startswith(master)
                   for master in masters)
        assert udr.metrics.counter("api.history.queries") == 1

    def test_history_requires_cdc(self):
        udr, profiles = build_udr(UDRConfig(seed=7), subscribers=5)
        client = udr.attach("fe@test", udr.topology.sites[0])
        with client.session() as session:
            with pytest.raises(RuntimeError, match="audit history"):
                session.history(profiles[0].identities.imsi)

    def test_reconciliation_status_disabled_without_reconciler(self):
        udr, _ = build_udr(UDRConfig(seed=7), subscribers=5)
        client = udr.attach("fe@test", udr.topology.sites[0])
        with client.session() as session:
            assert session.reconciliation_status() == {"enabled": False}
