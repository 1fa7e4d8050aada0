"""Interval-indexed directory information tree (the XPath-accelerator trick).

Scoped LDAP Search is a tree problem: ``scope=SUBTREE`` asks for the
descendants of a base DN, ``scope=ONE_LEVEL`` for its children.  Walking the
directory per query costs O(entries); annotating every node with a
*pre/post-order interval* instead makes both scopes one range scan over a
sorted array, because

    x is a descendant of a  <=>  pre(a) < pre(x) < post(a)

(Grust's XPath accelerator; a descendant axis *is* an LDAP subtree scope).
The labels are **gapped integers**: a new node takes two labels out of its
parent's tail gap, so the hot path (provisioning appends under the flat
``ou=subscribers`` base) never renumbers anything.  Only when a parent's gap
is exhausted does the tree relabel -- one DFS that re-sizes every gap
proportionally to the node's fan-out, so relabels stay amortised O(1) per
insert (each relabel buys room for a constant fraction of the current
subtree before the next one).  Relabels are counted and surfaced as the
``directory.dit.relabels`` metric: a hot path accidentally triggering full
renumbering shows up loudly.

:class:`DirectoryCatalog` combines the DIT with the attribute secondary
indexes (:class:`~repro.directory.indexes.AttributeIndexSet`) and a
materialised ``(sort_key, entry_id)`` listing that paged searches walk from
their keyset cursor, and keeps all three current from commit records -- the
deployment taps every partition copy's WAL for the commits that copy made
itself, so a CREATE, MODIFY or DELETE maintains the index incrementally on
the commit hook instead of rebuilding anything.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Set, Tuple)

from repro.directory.indexes import AttributeIndexSet
from repro.ldap.dn import DistinguishedName
from repro.storage.records import TOMBSTONE

#: Tail gap granted per node at relabel time: room for this many direct
#: children (plus a constant floor) before the parent must relabel again.
_RELABEL_SLACK_FLOOR = 16


class _Node:
    """One DIT node: an entry, or an interior container on an entry's path."""

    __slots__ = ("dn", "rdn_key", "parent", "children", "depth",
                 "pre", "post", "entry_id", "last_child", "below",
                 "child_entries")

    def __init__(self, dn: Optional[DistinguishedName], rdn_key: str,
                 parent: Optional["_Node"], depth: int):
        self.dn = dn
        self.rdn_key = rdn_key
        self.parent = parent
        self.children: Dict[str, "_Node"] = {}
        self.depth = depth
        self.pre = 0
        self.post = 0
        #: The directory entry stored at this DN (None for pure containers).
        self.entry_id: Optional[str] = None
        #: The child with the highest pre label (new siblings append after
        #: its post), maintained on insert/delete.
        self.last_child: Optional["_Node"] = None
        #: Entries in this node's subtree, itself included.
        self.below = 0
        #: Entries among this node's direct children.
        self.child_entries = 0

    def __repr__(self) -> str:
        return (f"<_Node {self.rdn_key!r} pre={self.pre} post={self.post} "
                f"entry={self.entry_id!r}>")


def _rdn_key(attribute: str, value: str) -> str:
    return f"{attribute}={value}"


class DITIndex:
    """Pre/post-order interval labels over the directory information tree.

    ``insert`` / ``remove`` maintain the labels incrementally (two labels out
    of the parent's tail gap per insert) together with per-node entry
    counts; :meth:`scope` resolves a search scope to a :class:`ScopeSpan`
    -- its size, its membership test and the comparison count of the
    interval's two binary searches, which the caller charges as work --
    without listing a single entry id.
    """

    def __init__(self):
        self._root = _Node(None, "", None, depth=0)
        self._root.pre = 0
        self._root.post = 1 << 62
        self._nodes: Dict[str, _Node] = {}
        #: Pre labels of all non-root nodes, ascending (document order).
        self._pres: List[int] = []
        #: Nodes parallel to ``_pres``.
        self._order: List[_Node] = []
        #: Full renumbering passes (the ``directory.dit.relabels`` metric).
        self.relabels = 0
        self.entries = 0
        self._bulk = False

    # -- lookup ----------------------------------------------------------------

    def __len__(self) -> int:
        return self.entries

    def node_count(self) -> int:
        return len(self._order)

    def find(self, dn: DistinguishedName) -> Optional[_Node]:
        return self._nodes.get(str(dn))

    def contains(self, dn: DistinguishedName) -> bool:
        return str(dn) in self._nodes

    # -- maintenance ------------------------------------------------------------

    def insert(self, dn: DistinguishedName, entry_id: str) -> None:
        """Store ``entry_id`` at ``dn``, creating container nodes on the way."""
        node = self._ensure_node(dn)
        if node.entry_id is None:
            self.entries += 1
            self._count_entry(node, 1)
        node.entry_id = entry_id

    def remove(self, dn: DistinguishedName) -> bool:
        """Remove the entry at ``dn``; empty container nodes are pruned.

        Deleting only unlinks nodes from the sorted array -- the labels they
        held become reusable gap for later siblings, no renumbering happens.
        """
        node = self._nodes.get(str(dn))
        if node is None or node.entry_id is None:
            return False
        node.entry_id = None
        self.entries -= 1
        self._count_entry(node, -1)
        while node is not None and node.parent is not None and \
                node.entry_id is None and not node.children:
            parent = node.parent
            self._unlink(node)
            node = parent
        return True

    def bulk_load(self, items: Iterable[Tuple[DistinguishedName, str]]) -> None:
        """Load many entries with a single labelling pass (initial builds)."""
        self._bulk = True
        try:
            for dn, entry_id in items:
                self.insert(dn, entry_id)
        finally:
            self._bulk = False
        self._relabel()

    def _count_entry(self, node: _Node, delta: int) -> None:
        node.parent.child_entries += delta
        while node is not None:
            node.below += delta
            node = node.parent

    # -- scope resolution ----------------------------------------------------------

    def scope(self, base: DistinguishedName, name: str) -> Optional["ScopeSpan"]:
        """The ``BASE`` / ``ONE_LEVEL`` / ``SUBTREE`` scope under ``base``.

        Returns ``None`` when the base DN is not in the tree at all.  A
        subtree includes the base entry; one level excludes it.
        """
        node = self._nodes.get(str(base))
        if node is None:
            return None
        if name == "BASE":
            return ScopeSpan(base, name, 1,
                             0 if node.entry_id is None else 1)
        low, high, comparisons = self._interval_slice(node)
        size = node.child_entries if name == "ONE_LEVEL" else node.below
        return ScopeSpan(base, name, comparisons + (high - low), size)

    def _interval_slice(self, node: _Node) -> Tuple[int, int, int]:
        low = bisect_right(self._pres, node.pre)
        high = bisect_left(self._pres, node.post)
        # Two binary searches over the sorted pre array.
        comparisons = 2 * max(1, len(self._pres).bit_length())
        return low, high, comparisons

    # -- labelling ----------------------------------------------------------------

    def _ensure_node(self, dn: DistinguishedName) -> _Node:
        key = str(dn)
        node = self._nodes.get(key)
        if node is not None:
            return node
        parent_dn = dn.parent()
        parent = self._root if parent_dn is None else self._ensure_node(parent_dn)
        node = _Node(dn, _rdn_key(*dn.rdns[0]), parent, depth=parent.depth + 1)
        self._nodes[key] = node
        parent.children[node.rdn_key] = node
        if not self._bulk:
            self._assign_labels(node, parent)
        return node

    def _assign_labels(self, node: _Node, parent: _Node) -> None:
        left = parent.last_child.post if parent.last_child is not None \
            else parent.pre
        if parent.post - left < 3:
            # The node already hangs off its parent, so the renumbering DFS
            # labels it (and re-sorts everything) -- nothing left to do.
            self._relabel()
            return
        node.pre = left + 1
        node.post = left + 2
        parent.last_child = node
        index = bisect_left(self._pres, node.pre)
        self._pres.insert(index, node.pre)
        self._order.insert(index, node)

    def _unlink(self, node: _Node) -> None:
        parent = node.parent
        del parent.children[node.rdn_key]
        del self._nodes[str(node.dn)]
        index = bisect_left(self._pres, node.pre)
        del self._pres[index]
        del self._order[index]
        if parent.last_child is node:
            parent.last_child = (
                max(parent.children.values(), key=lambda child: child.pre)
                if parent.children else None)

    def _relabel(self) -> None:
        """Renumber the whole tree, granting every node a fan-out-sized gap.

        O(nodes); amortised away by the gap sizing -- a node with ``k``
        children leaves room for ``2k + floor`` more before its gap can run
        out again, so relabel events thin out geometrically as a hot spot
        grows.
        """
        self.relabels += 1
        counter = [0]
        pres: List[int] = []
        order: List[_Node] = []

        def assign(node: _Node) -> None:
            node.pre = counter[0]
            counter[0] += 1
            if node is not self._root:
                pres.append(node.pre)
                order.append(node)
            last = None
            # Children dicts preserve insertion order, which is document
            # order (packed inserts always append after the last sibling) --
            # and it covers nodes a relabel reached before their first
            # labels were assigned.
            for child in node.children.values():
                assign(child)
                last = child
            node.last_child = last
            counter[0] += 2 * len(node.children) + _RELABEL_SLACK_FLOOR
            node.post = counter[0]
            counter[0] += 1

        # Iterative DFS via explicit recursion limit safety: directory trees
        # are shallow (a handful of levels), plain recursion is fine.
        assign(self._root)
        self._pres = pres
        self._order = order

    def __repr__(self) -> str:
        return (f"<DITIndex entries={self.entries} "
                f"nodes={len(self._order)} relabels={self.relabels}>")


class ScopeSpan:
    """A resolved search scope: its cost, its size and a membership test.

    ``comparisons`` is what resolving it cost (two binary searches plus the
    interval's node count, or one probe for ``BASE``); ``size`` counts the
    entries in scope.  :meth:`contains` decides by DN ancestry, which no
    relabel can change, so a span stays valid while the tree moves under a
    page that is still being walked.
    """

    __slots__ = ("base", "name", "comparisons", "size")

    def __init__(self, base: DistinguishedName, name: str, comparisons: int,
                 size: int):
        self.base = base
        self.name = name
        self.comparisons = comparisons
        self.size = size

    def contains(self, dn: DistinguishedName) -> bool:
        if self.name == "BASE":
            return dn == self.base
        if self.name == "ONE_LEVEL" and len(dn) != len(self.base) + 1:
            return False
        return dn.is_descendant_of(self.base)

    def __repr__(self) -> str:
        return (f"<ScopeSpan {self.name} {self.base} size={self.size} "
                f"comparisons={self.comparisons}>")


class _CatalogEntry:
    __slots__ = ("entry_id", "dn", "partition_index", "sort_key", "values",
                 "record")

    def __init__(self, entry_id: str, dn: DistinguishedName,
                 partition_index: int, sort_key: str,
                 values: Dict[str, Tuple[str, ...]]):
        self.entry_id = entry_id
        self.dn = dn
        self.partition_index = partition_index
        self.sort_key = sort_key
        #: Indexed attribute -> normalised value tuple, the snapshot diffed
        #: against on MODIFY so stale postings are withdrawn.
        self.values = values
        #: The raw record ``values`` was normalised from, when every
        #: indexed attribute in it is spelled as declared; ``None`` when
        #: the snapshot came from the LDAP view or from case variants.
        self.record: Optional[Dict[str, Any]] = None


class DirectoryCatalog:
    """DIT intervals + attribute postings, maintained from commit records.

    ``entry_view(key, value)`` adapts a raw storage record to the directory:
    it returns ``(dn, ldap_entry_dict)`` for records that are directory
    entries and ``None`` for everything else (the schema layer provides it,
    keeping this module free of subscriber specifics).
    """

    def __init__(self, entry_view: Callable[[str, Any],
                                            Optional[Tuple[DistinguishedName,
                                                           Dict[str, Any]]]],
                 indexed_attributes: Iterable[str]):
        self.entry_view = entry_view
        self.dit = DITIndex()
        self.attributes = AttributeIndexSet(indexed_attributes)
        self._entries: Dict[str, _CatalogEntry] = {}
        #: Every entry's ``(sort_key, entry_id)``, ascending: the
        #: materialised listing a paged search walks from its cursor.  The
        #: DN of a key never changes, so neither does its place here.
        self._listing: List[Tuple[str, str]] = []
        #: The entries' DNs, parallel to ``_listing``.
        self._listed_dns: List[DistinguishedName] = []
        #: ``(partition_index, record)`` commits staged by :meth:`deferred`
        #: (``None`` outside such a block).
        self._staged: Optional[List[Tuple[int, Any]]] = None
        self._metrics = None
        self._reported_relabels = 0

    # -- metrics -----------------------------------------------------------------

    def bind_metrics(self, metrics) -> None:
        """Report relabel events to ``metrics`` (counter
        ``directory.dit.relabels``); catches up on any already counted."""
        self._metrics = metrics
        self._flush_relabels()

    def _flush_relabels(self) -> None:
        if self._metrics is None:
            return
        delta = self.dit.relabels - self._reported_relabels
        if delta > 0:
            self._metrics.increment("directory.dit.relabels", delta)
            self._reported_relabels = self.dit.relabels

    # -- bookkeeping ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def relabels(self) -> int:
        return self.dit.relabels

    def entry(self, entry_id: str) -> Optional[_CatalogEntry]:
        return self._entries.get(entry_id)

    def partition_of(self, entry_id: str) -> Optional[int]:
        entry = self._entries.get(entry_id)
        return None if entry is None else entry.partition_index

    def sort_key_of(self, entry_id: str) -> str:
        entry = self._entries.get(entry_id)
        return "" if entry is None else entry.sort_key

    # -- maintenance -----------------------------------------------------------------

    def apply_commit(self, partition_index: int, record) -> None:
        """Fold one WAL commit record into the catalog (the commit hook);
        inside :meth:`deferred`, stage it for the block's exit instead."""
        if self._staged is not None:
            self._staged.append((partition_index, record))
            return
        for version in record.operations:
            self._fold(partition_index, version)
        self._flush_relabels()

    def _fold(self, partition_index: int, version) -> None:
        if version.value is TOMBSTONE:
            self.remove(version.key)
        else:
            self.upsert(version.key, version.value, partition_index,
                        version.base, version.changed)

    @contextmanager
    def deferred(self) -> Iterator[None]:
        """Stage the commits applied inside the block and fold them, in
        commit order, when it exits -- also when it exits by an exception.

        The leading run of creates of keys that are new to the catalog and
        distinct from each other is labelled in one pass
        (:meth:`_create_many`); every later write folds through
        :meth:`upsert` / :meth:`remove` as :meth:`apply_commit` would have.
        Scope sizes and comparisons, the listing, the postings and every
        entry end as the one-by-one fold leaves them; only the DIT labels
        (and the relabel count) differ.  A nested block defers to the
        outermost one.
        """
        if self._staged is not None:
            yield
            return
        staged = self._staged = []
        try:
            yield
        finally:
            self._staged = None
            self._fold_staged(staged)

    def _fold_staged(self, staged: List[Tuple[int, Any]]) -> None:
        versions = ((partition_index, version)
                    for partition_index, record in staged
                    for version in record.operations)
        entries = self._entries
        created: List[Tuple[str, Any, int]] = []
        seen: Set[str] = set()
        pending = None
        for partition_index, version in versions:
            key = version.key
            if version.value is TOMBSTONE or key in entries or key in seen:
                pending = partition_index, version
                break
            seen.add(key)
            created.append((key, version.value, partition_index))
        self._create_many(created)
        if pending is not None:
            # ``versions`` resumes after the write that ended the run.
            self._fold(*pending)
            for partition_index, version in versions:
                self._fold(partition_index, version)
        self._flush_relabels()

    def upsert(self, key: str, value: Any, partition_index: int,
               base: Optional[Mapping[str, Any]] = None,
               changed: Optional[Tuple[str, ...]] = None) -> None:
        """Fold ``value`` in as ``key``'s entry.

        ``base`` and ``changed`` are a merged version's
        (:class:`~repro.storage.records.RecordVersion`): ``value`` differs
        from ``base`` at most in the ``changed`` attributes.
        """
        existing = self._entries.get(key)
        if existing is not None and isinstance(value, dict):
            # MODIFY fast path: the DN of a stored key never changes, so
            # the indexed values diff straight off the raw record -- no
            # LDAP entry is materialised on the write hot path.  When the
            # snapshot was taken from exactly the record this value was
            # merged onto, only the changed attributes are re-normalised.
            existing.partition_index = partition_index
            if base is not None and existing.record is base and \
                    changed is not None and \
                    self.attributes.spelled_exactly(changed):
                self.attributes.refold(key, existing.values, value, changed)
                existing.record = value
            else:
                self._diff_values(existing, key, value)
            return
        view = self.entry_view(key, value)
        if view is None:
            return
        dn, ldap_entry = view
        self.dit.insert(dn, key)
        entry = self._new_entry(key, value, dn, ldap_entry, partition_index)
        index = bisect_left(self._listing, (entry.sort_key, key))
        self._listing.insert(index, (entry.sort_key, key))
        self._listed_dns.insert(index, dn)

    def _new_entry(self, key: str, value: Any, dn: DistinguishedName,
                   ldap_entry: Mapping[str, Any],
                   partition_index: int) -> _CatalogEntry:
        """Register ``key``'s entry and post its indexed values.

        The view adds only schema attributes no index covers, so the
        snapshot is also the raw record's: when the record is spelled
        exactly, its first MODIFY can refold just the changed attributes.
        """
        values = self.attributes.normalised_values(ldap_entry)
        entry = self._entries[key] = _CatalogEntry(
            key, dn, partition_index, dn.leaf_value, values)
        if isinstance(value, dict) and self.attributes.spelled_exactly(value):
            entry.record = value
        for attribute, value_tuple in values.items():
            self.attributes.add(attribute, key, value_tuple)
        return entry

    def _diff_values(self, existing: _CatalogEntry, key: str,
                     record: Dict[str, Any]) -> None:
        new_values = self.attributes.normalised_values(record)
        old_values = existing.values
        for attribute, values in old_values.items():
            if new_values.get(attribute) != values:
                self.attributes.discard(attribute, key, values)
        for attribute, values in new_values.items():
            if old_values.get(attribute) != values:
                self.attributes.add(attribute, key, values)
        existing.values = new_values
        existing.record = (record if self.attributes.spelled_exactly(record)
                           else None)

    def remove(self, key: str) -> None:
        existing = self._entries.pop(key, None)
        if existing is None:
            return
        self.dit.remove(existing.dn)
        index = bisect_left(self._listing, (existing.sort_key, key))
        del self._listing[index]
        del self._listed_dns[index]
        for attribute, values in existing.values.items():
            self.attributes.discard(attribute, key, values)
        self._flush_relabels()

    def bulk_load(self, items: Iterable[Tuple[str, Any, int]]) -> None:
        """Load ``(key, value, partition_index)`` records in one labelling
        pass -- the initial-base fast path (incremental inserts afterwards).

        A key the catalog already holds, or one repeated within ``items``,
        folds through :meth:`upsert` after the pass, in order, so its old
        postings are withdrawn.
        """
        entries = self._entries
        created: List[Tuple[str, Any, int]] = []
        seen: Set[str] = set()
        updates: List[Tuple[str, Any, int]] = []
        for item in items:
            key = item[0]
            if key in entries or key in seen:
                updates.append(item)
            else:
                seen.add(key)
                created.append(item)
        self._create_many(created)
        for key, value, partition_index in updates:
            self.upsert(key, value, partition_index)
        self._flush_relabels()

    def _create_many(self, items: List[Tuple[str, Any, int]]) -> None:
        """Create the entries of distinct keys the catalog does not hold:
        one DIT labelling pass, and the listing merged once."""
        staged: List[Tuple[DistinguishedName, str]] = []
        pairs: List[Tuple[str, str]] = []
        for key, value, partition_index in items:
            view = self.entry_view(key, value)
            if view is None:
                continue
            dn, ldap_entry = view
            entry = self._new_entry(key, value, dn, ldap_entry,
                                    partition_index)
            staged.append((dn, key))
            pairs.append((entry.sort_key, key))
        if not staged:
            return
        self.dit.bulk_load(staged)
        pairs.sort()
        listing, entries = self._listing, self._entries
        if listing and pairs[0] < listing[-1]:
            # Two sorted runs: the sort merges them in linear time.
            listing.extend(pairs)
            listing.sort()
            self._listed_dns = [entries[key].dn for _, key in listing]
        else:
            listing.extend(pairs)
            self._listed_dns.extend(entries[key].dn for _, key in pairs)

    # -- scope resolution ---------------------------------------------------------------

    def scope_candidates(self, base: DistinguishedName, scope
                         ) -> Optional[ScopeSpan]:
        """The :class:`ScopeSpan` of an LDAP search scope.

        ``scope`` is a :class:`~repro.ldap.operations.SearchScope`; returns
        ``None`` when the base DN does not exist in the tree.
        """
        # Compared by value to avoid importing the ldap layer here.
        return self.dit.scope(base, getattr(scope, "name", str(scope)))

    def listing_after(self, after: Optional[Tuple[str, str]]
                      ) -> Tuple[List[Tuple[str, str]],
                                 List[DistinguishedName]]:
        """Copies of the listing past the keyset cursor ``after``: the
        ``(sort_key, entry_id)`` pairs and their DNs."""
        start = 0 if after is None else bisect_right(self._listing, after)
        return self._listing[start:], self._listed_dns[start:]

    def keyset_walk(self, span: ScopeSpan, postings: Optional[frozenset],
                    after: Optional[Tuple[str, str]]
                    ) -> Tuple[int, Iterator[Tuple[str, str]]]:
        """``|scope ∩ postings|``, and the scope's candidates past ``after``
        as a lazy walk in ``(sort_key, entry_id)`` order.

        ``postings`` of ``None`` means every entry is a candidate.  Every
        input of the walk is fixed by this call -- a copy of the listing
        tail, the frozen postings and a relabel-proof span -- so the walk
        yields what a list materialised now would hold, however the catalog
        changes while it is consumed.  A scope as large as the catalog
        holds every entry, so the walk skips its test; postings only ever
        name catalog entries, so that scope's count is the postings' size.
        """
        covers = span.size == len(self._entries)
        if postings is None:
            count = span.size
        elif covers:
            count = len(postings)
        else:
            entries, contains = self._entries, span.contains
            count = sum(1 for entry_id in postings
                        if contains(entries[entry_id].dn))
        pairs, dns = self.listing_after(after)
        if covers:
            if postings is None:
                return count, iter(pairs)
            return count, (pair for pair in pairs if pair[1] in postings)
        contains = span.contains
        return count, (pair for pair, dn in zip(pairs, dns)
                       if (postings is None or pair[1] in postings)
                       and contains(dn))

    def __repr__(self) -> str:
        return (f"<DirectoryCatalog entries={len(self._entries)} "
                f"relabels={self.dit.relabels}>")
