"""Unit tests for the interval-indexed DIT and the directory catalog."""

import random

import pytest

from repro.directory import DirectoryCatalog, DITIndex
from repro.ldap.dn import DistinguishedName
from repro.ldap.schema import SubscriberSchema
from repro.storage.records import TOMBSTONE, RecordVersion
from repro.storage.wal import LogRecord

BASE = DistinguishedName.parse("ou=subscribers,dc=udr,dc=example")


def _random_dns(rng, count):
    """Random DNs under BASE, up to three levels deep, some sharing paths."""
    dns = []
    for index in range(count):
        dn = BASE
        for level in range(rng.randint(1, 3)):
            dn = dn.child(("ou", "cn", "imsi")[level],
                          f"n{rng.randint(0, 12)}")
        # Disambiguate the leaf so every generated DN is unique.
        dns.append(dn.child("uid", f"u{index}"))
    return dns


def _brute_subtree(reference, base):
    return sorted(entry_id for dn, entry_id in reference.items()
                  if dn.is_descendant_of(base))


def _brute_one_level(reference, base):
    return sorted(entry_id for dn, entry_id in reference.items()
                  if len(dn) == len(base) + 1 and dn.is_descendant_of(base))


def _in_span(span, reference):
    """The reference entries ``span.contains`` admits, sorted."""
    return sorted(entry_id for dn, entry_id in reference.items()
                  if span.contains(dn))


def _interval_cost(dit, base):
    """Two binary searches plus the proper descendants, by brute force."""
    nodes = [key for key in dit._nodes
             if DistinguishedName.parse(key).is_descendant_of(base)
             and DistinguishedName.parse(key) != base]
    return 2 * max(1, dit.node_count().bit_length()) + len(nodes)


def _check_interval_invariant(dit):
    """pre/post must encode ancestry exactly, and _pres must stay sorted."""
    nodes = list(dit._order)
    assert dit._pres == sorted(dit._pres)
    assert [node.pre for node in dit._order] == dit._pres
    for node in nodes:
        assert node.pre < node.post
        ancestor = node.parent
        while ancestor is not None and ancestor.dn is not None:
            assert ancestor.pre < node.pre < ancestor.post
            ancestor = ancestor.parent


class TestDITIndex:
    def test_subtree_matches_bruteforce_on_random_trees(self):
        rng = random.Random(42)
        dit = DITIndex()
        reference = {}
        dns = _random_dns(rng, 300)
        for index, dn in enumerate(dns):
            dit.insert(dn, f"e{index}")
            reference[dn] = f"e{index}"
            if index % 3 == 2:  # interleave deletions
                victim = rng.choice(list(reference))
                assert dit.remove(victim)
                del reference[victim]
        _check_interval_invariant(dit)
        bases = [BASE] + [dn.parent() for dn in reference][:25]
        for base in bases:
            expected = _brute_subtree(reference, base)
            span = dit.scope(base, "SUBTREE")
            if span is None:
                assert expected == []
                continue
            assert _in_span(span, reference) == expected
            assert span.size == len(expected)
            assert span.comparisons == _interval_cost(dit, base)
            one = dit.scope(base, "ONE_LEVEL")
            assert one is not None
            assert _in_span(one, reference) == \
                _brute_one_level(reference, base)
            assert one.size == len(_brute_one_level(reference, base))
            assert one.comparisons == span.comparisons

    def test_subtree_includes_base_entry_and_base_scope(self):
        dit = DITIndex()
        parent = BASE.child("cn", "group")
        dit.insert(parent, "parent")
        dit.insert(parent.child("uid", "a"), "a")
        span = dit.scope(parent, "SUBTREE")
        assert span.size == 2
        assert span.contains(parent) and span.contains(parent.child("uid", "a"))
        assert dit.scope(parent, "ONE_LEVEL").size == 1
        assert not dit.scope(parent, "ONE_LEVEL").contains(parent)
        base = dit.scope(parent, "BASE")
        assert (base.size, base.comparisons) == (1, 1)
        assert base.contains(parent)
        assert not base.contains(parent.child("uid", "a"))
        assert dit.scope(BASE, "BASE").size == 0  # pure container
        assert dit.scope(BASE.child("cn", "missing"), "SUBTREE") is None

    def test_document_order_preserved(self):
        dit = DITIndex()
        for index in range(50):
            dit.insert(BASE.child("imsi", f"{index:03d}"), f"e{index}")
        ids = [node.entry_id for node in dit._order
               if node.entry_id is not None]
        assert ids == [f"e{index}" for index in range(50)]

    def test_relabels_amortised_on_flat_appends(self):
        dit = DITIndex()
        for index in range(5000):
            dit.insert(BASE.child("imsi", f"{index:06d}"), f"e{index}")
        # Gaps grow with fan-out at every relabel, so the count is
        # logarithmic in the number of appends, not linear.
        assert dit.relabels <= 2 * 5000 .bit_length()
        assert dit.entries == 5000

    def test_bulk_load_equivalent_to_incremental(self):
        rng = random.Random(7)
        dns = _random_dns(rng, 120)
        incremental = DITIndex()
        for index, dn in enumerate(dns):
            incremental.insert(dn, f"e{index}")
        bulk = DITIndex()
        bulk.bulk_load((dn, f"e{index}") for index, dn in enumerate(dns))
        assert bulk.relabels == 1
        for base in (BASE, dns[0].parent(), dns[-1].parent()):
            for name in ("SUBTREE", "ONE_LEVEL", "BASE"):
                assert bulk.scope(base, name).size == \
                    incremental.scope(base, name).size
        _check_interval_invariant(bulk)

    def test_remove_prunes_empty_containers(self):
        dit = DITIndex()
        deep = BASE.child("ou", "left").child("cn", "leaf")
        dit.insert(deep, "leaf")
        assert dit.contains(deep.parent())
        assert dit.remove(deep)
        assert not dit.contains(deep)
        assert not dit.contains(deep.parent())
        assert not dit.remove(deep)  # already gone
        assert dit.entries == 0


def _record(lsn, *operations):
    return LogRecord(lsn=lsn, transaction_id=lsn, commit_seq=lsn,
                     operations=tuple(RecordVersion(key, value, lsn, lsn,
                                                    "test")
                                      for key, value in operations),
                     origin="test")


class TestDirectoryCatalog:
    def _catalog(self):
        return DirectoryCatalog(SubscriberSchema.catalog_view,
                                SubscriberSchema.INDEXED_ATTRIBUTES)

    def test_apply_commit_create_modify_delete(self):
        catalog = self._catalog()
        record = {"imsi": "214070000000001", "homeRegion": "spain",
                  "organisation": "org-1"}
        catalog.apply_commit(0, _record(1, ("sub:214070000000001", record)))
        key = "sub:214070000000001"
        dn = SubscriberSchema.subscriber_dn("214070000000001")
        assert catalog.dit.contains(dn)
        assert catalog.partition_of(key) == 0
        assert catalog.sort_key_of(key) == "214070000000001"
        assert catalog.attributes.equality_postings("homeRegion", "spain") \
            == {key}

        # MODIFY moves the entry between postings, never duplicates it.
        modified = dict(record, homeRegion="brazil")
        catalog.apply_commit(0, _record(2, (key, modified)))
        assert catalog.attributes.equality_postings("homeRegion", "spain") \
            == set()
        assert catalog.attributes.equality_postings("homeRegion", "brazil") \
            == {key}
        assert catalog.dit.entries == 1

        # DELETE (a tombstone) removes entry, postings and DIT node.
        catalog.apply_commit(0, _record(3, (key, TOMBSTONE)))
        assert not catalog.dit.contains(dn)
        assert catalog.entry(key) is None
        assert catalog.attributes.equality_postings("homeRegion", "brazil") \
            == set()

    def test_non_subscriber_keys_ignored(self):
        catalog = self._catalog()
        catalog.apply_commit(0, _record(1, ("meta:checkpoint", {"x": 1})))
        assert catalog.dit.entries == 0

    def test_scope_candidates_dispatch(self):
        catalog = self._catalog()
        catalog.bulk_load([
            (f"sub:21407000000000{index}",
             {"imsi": f"21407000000000{index}", "homeRegion": "spain"},
             index % 2)
            for index in range(4)
        ])
        from repro.ldap.operations import SearchScope
        base = SubscriberSchema.BASE_DN
        subtree = catalog.scope_candidates(base, SearchScope.SUBTREE)
        assert subtree.size == len(catalog) == 4
        one = catalog.scope_candidates(base, SearchScope.ONE_LEVEL)
        assert one.size == 4  # flat tree
        entry_dn = SubscriberSchema.subscriber_dn("214070000000001")
        span = catalog.scope_candidates(entry_dn, SearchScope.BASE)
        assert span.size == 1
        count, walk = catalog.keyset_walk(span, None, None)
        assert (count, list(walk)) == \
            (1, [("214070000000001", "sub:214070000000001")])
        missing = SubscriberSchema.subscriber_dn("999")
        assert catalog.scope_candidates(missing, SearchScope.SUBTREE) is None

    def test_relabel_metric_flushes_deltas(self):
        from repro.metrics.collector import MetricsRegistry
        catalog = self._catalog()
        metrics = MetricsRegistry()
        catalog.bind_metrics(metrics)
        for index in range(2000):
            imsi = f"2140700000{index:05d}"
            catalog.apply_commit(0, _record(index + 1,
                                            (f"sub:{imsi}", {"imsi": imsi})))
        assert catalog.relabels > 0
        assert metrics.counter("directory.dit.relabels") == catalog.relabels
