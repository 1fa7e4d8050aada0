"""Loading a subscriber base in passes equals loading it profile by profile.

``UDRNetworkFunction.load_subscriber_base`` commits every record on its
own, in order, through the copy's ``TransactionManager``; what it does per
call instead of per profile is placement (one candidate list, refreshed
only for the element whose count moved), the catalog fold
(``DirectoryCatalog.deferred``) and identity registration (one
``register_many`` per locator).  :func:`reference_load` keeps the
per-profile loop it replaced, verbatim, and a Hypothesis property loads the
same bases both ways and compares the whole deployment: every copy's
version chains, accounting, manager counters, WAL and tap cursors, the CDC
stream and history, the pending event queue, the catalog (all but its DIT
labels), the locators, the placement counters and every random stream --
across chunked calls, re-loaded keys, every placement policy and location
mode, CDC on and off, RF 2 and 3, a fail-over before the load and capacity
running out mid-call.  A short traffic burst then gets the same answers at
the same latencies on both.

Also pinned here: ``deferred()`` on mixed create/modify/delete stashes and
under an exception, ``DirectoryCatalog.bulk_load`` of keys it already holds
(their old postings are withdrawn), the one capacity scan per profile, and
value equality of sites and regions across topologies.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import Read, Search, Write
from repro.core import ClientType, UDRConfig, UDRNetworkFunction
from repro.core.config import CdcPolicy, LocationMode, PlacementMode
from repro.directory import DirectoryCatalog
from repro.ldap import SearchScope
from repro.ldap.schema import SubscriberSchema
from repro.net.topology import NetworkTopology, Region, Site
from repro.storage import DataPartition, ReplicaRole
from repro.storage.storage_element import PartitionCopy, StorageElement
from repro.subscriber import SubscriberGenerator

from tests.test_shared_versions import postings, subscriber


def reference_load(udr, profiles):
    """The per-profile loading loop the passes replaced, kept verbatim."""
    deployment = udr.deployment
    loaded = 0
    for profile in profiles:
        element_name = deployment.place_subscriber(
            profile, profile.identities.imsi)
        replica_set = deployment.replica_set_of_element(element_name)
        record = udr._commit_on_copy(replica_set.master_copy,
                                     profile.key, profile.to_record())
        for slave_name in replica_set.slave_names():
            replica_set.copy_on(slave_name).transactions.apply_log_record(
                record)
        deployment.register_identities(profile.identities.as_mapping(),
                                       element_name, all_locators=True)
        loaded += 1
    udr.subscribers_loaded += loaded
    return loaded


# -- full-state snapshots ---------------------------------------------------------


def copy_state(copy):
    store, manager, wal = copy.store, copy.transactions, copy.wal
    return (
        copy.role,
        {key: [(version.key, version.value, version.commit_seq,
                version.transaction_id, version.origin, version.epoch,
                version.size) for version in chain]
         for key, chain in store._versions.items()},
        store.live_bytes, store.last_applied_position, len(store),
        (manager._next_transaction_id, manager._next_commit_seq,
         manager.commits, manager.aborts, manager.read_only_commits,
         manager.epoch, manager.fenced),
        [(record.lsn, record.transaction_id, record.commit_seq,
          record.origin, record.timestamp, record.epoch, record.keys)
         for record in wal._records],
        [(tap.lsn, tap.origin, tap.paused) for tap in wal.taps],
    )


def catalog_state(catalog):
    """Everything but the DIT labels (and so the relabel count)."""
    dit = catalog.dit
    scopes = {
        key: [(span.size, span.comparisons) for span in (
            dit.scope(node.dn, name)
            for name in ("BASE", "ONE_LEVEL", "SUBTREE"))]
        for key, node in dit._nodes.items()}
    return (
        {key: (str(entry.dn), entry.partition_index, entry.sort_key,
               entry.values, entry.record)
         for key, entry in catalog._entries.items()},
        list(catalog._listing), [str(dn) for dn in catalog._listed_dns],
        postings(catalog), scopes, dit.entries, dit.node_count(),
    )


def locator_state(locator):
    state = [type(locator).__name__, vars(locator.stats)]
    directory = getattr(locator, "directory", None) or \
        getattr(locator, "cache", None)
    if directory is not None:
        state.append({
            identity_type: (list(index._keys), dict(index._locations),
                            index.lookups, index.comparisons)
            for identity_type, index in directory._maps.items()})
    return state


def placement_state(policy):
    state = []
    while policy is not None:
        state.append((type(policy).__name__, {
            name: value for name, value in vars(policy).items()
            if name not in ("rng", "fallback")}))
        policy = getattr(policy, "fallback", None)
    return state


def cdc_state(udr):
    stream, history = udr.change_stream, udr.history
    if stream is None:
        return None
    return (
        {partition: [(event.commit_seq, event.lsn, event.transaction_id,
                      event.origin, event.timestamp, event.epoch,
                      tuple(version.key for version in event.operations))
                     for event in events]
         for partition, events in stream._events.items()},
        dict(stream._last_seq), dict(stream._last_position),
        (stream.events_folded, stream.duplicates_skipped,
         stream.gap_records_lost, stream.events_evicted),
        {key: [(entry.commit_seq, entry.transaction_id, entry.origin,
                entry.timestamp, entry.kind, entry.changes)
               for entry in entries]
         for key, entries in history._entries.items()},
        dict(history._latest), dict(history._identity_index),
        (history.entries_recorded, history.entries_evicted),
    )


def metrics_state(udr):
    snapshot = udr.metrics.snapshot()
    return {name: value for name, value in snapshot.items()
            if name != "counter.directory.dit.relabels"}


def state(udr):
    sim = udr.sim
    return (
        {name: [copy_state(copy) for copy in element.copies]
         for name, element in udr.elements.items()},
        {index: replica_set.master_element_name
         for index, replica_set in udr.replica_sets.items()},
        cdc_state(udr),
        (sim.now, sim._sequence,
         [(when, sequence, type(event).__name__,
           getattr(event, "name", None))
          for when, sequence, event in sorted(sim._queue,
                                              key=lambda item: item[:2])]),
        sorted(map(repr, udr.replication_mux._armed)),
        catalog_state(udr.catalog),
        {name: locator_state(locator)
         for name, locator in udr.locators.items()},
        placement_state(udr.placement_policy),
        {name: stream.getstate()
         for name, stream in sim.streams._streams.items()},
        udr.subscribers_loaded,
        metrics_state(udr),
    )


# -- the property ---------------------------------------------------------------------


def build(config):
    udr = UDRNetworkFunction(config)
    udr.start()
    return udr


def load_in_calls(udr, load, calls):
    """Load every call's profiles; stops at the first error, which it
    returns as ``(call index, type, message)``."""
    for index, profiles in enumerate(calls):
        try:
            load(udr, profiles)
        except ValueError as error:
            return index, type(error).__name__, str(error)
    return None


def burst(udr, profiles):
    """A short mixed burst: reads, writes and a paged subtree search, all
    in flight together; returns every answer with its latency."""
    answers = []
    sites = udr.topology.sites
    session = udr.attach("burst-fe", sites[0]).session()
    provisioning = udr.attach("burst-ps", sites[-1],
                              ClientType.PROVISIONING).session()
    operations = []
    for index, profile in enumerate(profiles[:6]):
        imsi = profile.identities.imsi
        operations.append((session, Read(imsi)))
        if index % 2:
            operations.append((provisioning,
                               Write(imsi, {"servingMsc": f"msc-{index}"})))
    operations.append((provisioning, Search.scoped(
        "(homeRegion=spain)", scope=SearchScope.SUBTREE, page_size=4)))

    def client(index, client_session, operation):
        start = udr.sim.now
        response = yield from client_session.call(operation)
        answers.append((index, response.result_code.name,
                        sorted(str(entry.get("imsi"))
                               for entry in response.entries),
                        udr.sim.now - start))

    processes = [udr.sim.process(client(index, client_session, operation))
                 for index, (client_session, operation)
                 in enumerate(operations)]
    udr.sim.run(until=udr.sim.now + 5.0)
    assert all(process.triggered for process in processes)
    return sorted(answers)


@st.composite
def load_cases(draw):
    placement = draw(st.sampled_from(list(PlacementMode)))
    config = UDRConfig(
        seed=draw(st.integers(0, 3)),
        placement=placement,
        location_mode=draw(st.sampled_from(list(LocationMode))),
        cdc=CdcPolicy() if draw(st.booleans()) else None,
        replication_factor=draw(st.sampled_from([2, 3])),
        subscriber_capacity_per_element=draw(
            st.sampled_from([2_000_000, 2, 5])))
    profiles = SubscriberGenerator(config.regions, seed=config.seed).generate(
        draw(st.integers(1, 36)))
    sequence = list(profiles)
    for _ in range(draw(st.integers(0, 4))):
        repeat = draw(st.sampled_from(profiles))
        sequence.insert(draw(st.integers(0, len(sequence))), repeat)
    cuts = sorted(draw(st.sets(st.integers(1, len(sequence)), max_size=3)))
    calls = [sequence[start:end] for start, end
             in zip([0] + cuts, cuts + [len(sequence)]) if start < end]
    fail_over = draw(st.sampled_from(
        [None, "se-spain-dc1-0", "se-sweden-dc1-0", "se-germany-dc1-1"]))
    return config, profiles, calls, fail_over


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(load_cases())
def test_load_in_passes_equals_the_per_profile_reference(case):
    config, profiles, calls, fail_over = case
    reference, batched = build(config), build(config)
    if fail_over is not None:
        reference.fail_over(fail_over)
        batched.fail_over(fail_over)
    assert state(batched) == state(reference)

    error = load_in_calls(reference, reference_load, calls)
    assert load_in_calls(
        batched, UDRNetworkFunction.load_subscriber_base, calls) == error
    assert state(batched) == state(reference)

    assert burst(batched, profiles) == burst(reference, profiles)
    assert state(batched) == state(reference)


def test_capacity_running_out_mid_call_keeps_the_partial_load():
    """The error of the first profile that finds no room propagates; the
    profiles before it stay committed, folded and registered."""
    config = UDRConfig(seed=1, subscriber_capacity_per_element=2)
    profiles = SubscriberGenerator(config.regions, seed=1).generate(15)
    reference, batched = build(config), build(config)
    with pytest.raises(ValueError, match="no storage element has capacity"):
        reference_load(reference, profiles)
    with pytest.raises(ValueError, match="no storage element has capacity"):
        batched.load_subscriber_base(profiles)
    assert state(batched) == state(reference)
    assert len(batched.catalog) == 12
    assert batched.subscribers_loaded == 0
    assert all(locator.stats.registrations == 12
               for locator in batched.locators.values())


def test_capacity_is_the_master_elements_after_a_fail_over():
    """A write placed on a failed-over element lands on its partition's
    promoted master, so that master's room flags both candidates: the
    load stops when the masters are full instead of filling the promoted
    element past its capacity."""
    config = UDRConfig(seed=1, subscriber_capacity_per_element=2)
    profiles = SubscriberGenerator(config.regions, seed=1).generate(30)
    for load in (reference_load, UDRNetworkFunction.load_subscriber_base):
        udr = build(config)
        udr.fail_over("se-sweden-dc1-0")
        with pytest.raises(ValueError,
                           match="no storage element has capacity"):
            load(udr, profiles)
        assert max(element.subscriber_count()
                   for element in udr.elements.values()) <= 2


def test_one_capacity_scan_per_profile_plus_one_per_element(monkeypatch):
    calls = []
    count = StorageElement.subscriber_count

    def counted(element):
        calls.append(element.name)
        return count(element)

    monkeypatch.setattr(StorageElement, "subscriber_count", counted)
    config = UDRConfig(seed=2)
    profiles = SubscriberGenerator(config.regions, seed=2).generate(40)
    udr = build(config)
    udr.load_subscriber_base(profiles[:25])
    udr.load_subscriber_base(profiles[25:])
    assert len(calls) == len(profiles) + 2 * len(udr.elements)


def test_load_relabels_the_dit_once_per_call():
    config = UDRConfig(seed=3)
    profiles = SubscriberGenerator(config.regions, seed=3).generate(60)
    udr = build(config)
    for first in range(0, 60, 20):
        udr.load_subscriber_base(profiles[first:first + 20])
    assert udr.catalog.relabels == 3
    assert udr.metrics.counter("directory.dit.relabels") == 3


# -- DirectoryCatalog.deferred ----------------------------------------------------------


def new_catalog():
    return DirectoryCatalog(SubscriberSchema.catalog_view,
                            SubscriberSchema.INDEXED_ATTRIBUTES)


class TappedCopy:
    """One partition copy whose commits fold into two catalogs: ``eager``
    one by one, ``staged`` as ``deferred()`` decides."""

    def __init__(self):
        self.copy = PartitionCopy(DataPartition(0), ReplicaRole.PRIMARY,
                                  "se-0")
        self.eager, self.staged = new_catalog(), new_catalog()
        self.copy.tap_local_commits(
            lambda record: self.eager.apply_commit(0, record))
        self.copy.tap_local_commits(
            lambda record: self.staged.apply_commit(0, record))

    def write(self, imsi, **attributes):
        tx = self.copy.transactions.begin()
        tx.write(f"sub:{imsi}", subscriber(imsi, **attributes))
        tx.commit()

    def modify(self, imsi, **changes):
        tx = self.copy.transactions.begin()
        tx.modify(f"sub:{imsi}", changes)
        tx.commit()

    def delete(self, imsi):
        tx = self.copy.transactions.begin()
        tx.delete(f"sub:{imsi}")
        tx.commit()


def test_deferred_folds_a_mixed_stash_like_the_commit_hook():
    tapped = TappedCopy()
    tapped.write("100")
    tapped.write("101", homeRegion="sweden")
    with tapped.staged.deferred():
        for imsi in ("205", "201", "203"):
            tapped.write(imsi, servingMsc=f"msc-{imsi}")
        tapped.write("100", homeRegion="germany")     # an existing key
        tapped.modify("201", subscriberStatus="barred")
        tapped.delete("101")
        tapped.write("202")
        tapped.delete("203")
        tapped.write("101", homeRegion="spain")       # deleted, then back
        tapped.write("202", homeRegion="sweden")      # repeated in the stash
        # Nothing folds before the block exits.
        assert len(tapped.staged) == 2
    assert catalog_state(tapped.staged) == catalog_state(tapped.eager)
    assert sorted(tapped.staged._entries) == [
        "sub:100", "sub:101", "sub:201", "sub:202", "sub:205"]


def test_deferred_batches_only_the_leading_run_of_new_keys():
    tapped = TappedCopy()
    with tapped.staged.deferred():
        for imsi in range(300, 340):
            tapped.write(str(imsi))
    assert catalog_state(tapped.staged) == catalog_state(tapped.eager)
    assert tapped.staged.relabels == 1


def test_deferred_folds_what_was_committed_before_an_exception():
    tapped = TappedCopy()
    with pytest.raises(RuntimeError, match="boom"):
        with tapped.staged.deferred():
            tapped.write("400")
            tapped.write("401", homeRegion="sweden")
            raise RuntimeError("boom")
    assert catalog_state(tapped.staged) == catalog_state(tapped.eager)
    assert len(tapped.staged) == 2
    # The block is closed: the next commit folds at once.
    tapped.write("402")
    assert len(tapped.staged) == 3


def test_nested_deferred_folds_once_at_the_outer_exit():
    tapped = TappedCopy()
    with tapped.staged.deferred():
        with tapped.staged.deferred():
            tapped.write("500")
        assert len(tapped.staged) == 0
        tapped.write("501")
    assert catalog_state(tapped.staged) == catalog_state(tapped.eager)


# -- DirectoryCatalog.bulk_load of keys it already holds --------------------------------


@pytest.mark.parametrize("batches, in_spain", [
    ([[("sub:600", "spain")], [("sub:600", "sweden")]], []),
    ([[("sub:600", "spain"), ("sub:601", "spain"), ("sub:600", "sweden")]],
     ["sub:601"]),
], ids=["existing key", "repeated in the batch"])
def test_bulk_load_withdraws_the_old_postings_of_a_reloaded_key(batches,
                                                                in_spain):
    bulk, folded = new_catalog(), new_catalog()
    for batch in batches:
        items = [(key, subscriber(key[4:], homeRegion=region), 0)
                 for key, region in batch]
        bulk.bulk_load(items)
        for key, value, partition_index in items:
            folded.upsert(key, value, partition_index)
    assert "sub:600" not in bulk.attributes.equality_postings(
        "homeRegion", "spain")
    assert postings(bulk) == postings(folded)
    span = bulk.scope_candidates(SubscriberSchema.BASE_DN,
                                 SearchScope.SUBTREE)
    spain = frozenset(bulk.attributes.equality_postings("homeRegion",
                                                        "spain"))
    count, walk = bulk.keyset_walk(span, spain, None)
    assert (count, [entry_id for _sort_key, entry_id in walk]) == (
        len(in_spain), in_spain)
    assert catalog_state(bulk) == catalog_state(folded)


# -- Site / Region equality -------------------------------------------------------------


def test_sites_from_two_topologies_compare_and_hash_by_value():
    first, second = NetworkTopology(), NetworkTopology()
    for topology in (first, second):
        topology.add_site("spain-dc1", "spain")
        topology.add_site("sweden-dc1", "sweden")
    a, b = first.site("spain-dc1"), second.site("spain-dc1")
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert {a: "found"}[b] == "found"
    assert first.region("spain") == second.region("spain")
    assert hash(first.region("spain")) == hash(second.region("spain"))
    assert a != first.site("sweden-dc1")
    assert a != Site("spain-dc1", Region("sweden"))
    assert Region("spain") != Site("spain", Region("spain"))
    assert a != "spain-dc1"
