"""The multi-index directory: one identity-location map per identity type.

"Data location uses identity-location maps since the UDR must support
multiple indexes (one index per subscriber identity, i.e. MSISDN, IMSI, IMPU
etc.)" -- paper, section 3.3.1.  Registering a subscription therefore inserts
one entry per identity, and any of the subscriber's identities resolves to
the same storage location.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.directory.errors import UnknownIdentity
from repro.directory.identity_map import IdentityLocationMap
# Re-exported for the many importers that treat the directory as the home
# of identity namespaces; the definition lives in the LDAP layer so the
# ldap <-> directory import edge points one way only (reprolint LAY001).
from repro.ldap.identity import IdentityType

__all__ = ["IdentityType", "MultiIndexDirectory"]


class MultiIndexDirectory:
    """Identity-location maps for every supported identity type."""

    def __init__(self, identity_types: Optional[Iterable[str]] = None):
        types = (tuple(identity_types) if identity_types is not None
                 else IdentityType.ALL)
        if not types:
            raise ValueError("need at least one identity type")
        self._maps: Dict[str, IdentityLocationMap] = {
            identity_type: IdentityLocationMap(identity_type)
            for identity_type in types}

    @property
    def identity_types(self) -> List[str]:
        return list(self._maps)

    def map_for(self, identity_type: str) -> IdentityLocationMap:
        try:
            return self._maps[identity_type]
        except KeyError:
            raise UnknownIdentity(identity_type, "<any>") from None

    # -- registration ----------------------------------------------------------------

    def register(self, identities: Mapping[str, str], location: str) -> int:
        """Register a subscription's identities at ``location``.

        ``identities`` maps identity type to value (a subscription has one
        IMSI, one MSISDN, possibly several IMPUs handled as separate calls).
        Returns the number of index entries written, which is what the
        provisioning transaction pays for.
        """
        written = 0
        for identity_type, value in identities.items():
            if identity_type not in self._maps:
                continue
            self._maps[identity_type].insert(value, location)
            written += 1
        return written

    def deregister(self, identities: Mapping[str, str]) -> int:
        removed = 0
        for identity_type, value in identities.items():
            index = self._maps.get(identity_type)
            if index is None or not index.contains(value):
                continue
            index.remove(value)
            removed += 1
        return removed

    def relocate(self, identities: Mapping[str, str], new_location: str) -> int:
        """Point all of a subscription's identities at a new location."""
        return self.register(identities, new_location)

    # -- resolution --------------------------------------------------------------------

    def resolve(self, identity_type: str, value: str) -> str:
        """Location of the subscription owning ``value`` in that namespace."""
        return self.map_for(identity_type).locate(value)

    def contains(self, identity_type: str, value: str) -> bool:
        index = self._maps.get(identity_type)
        return bool(index and index.contains(value))

    # -- bulk / stats -------------------------------------------------------------------

    def all_entries(self) -> List[Tuple[str, str, str]]:
        """Every (identity_type, identity, location) tuple in the directory."""
        result = []
        for identity_type, index in self._maps.items():
            for identity, location in index.entries():
                result.append((identity_type, identity, location))
        return result

    def bulk_load(self, entries: Iterable[Tuple[str, str, str]]) -> None:
        grouped: Dict[str, List[Tuple[str, str]]] = {}
        for identity_type, identity, location in entries:
            grouped.setdefault(identity_type, []).append((identity, location))
        for identity_type, pairs in grouped.items():
            if identity_type in self._maps:
                self._maps[identity_type].bulk_load(pairs)

    def total_entries(self) -> int:
        return sum(len(index) for index in self._maps.values())

    def total_lookups(self) -> int:
        return sum(index.lookups for index in self._maps.values())

    def total_comparisons(self) -> int:
        return sum(index.comparisons for index in self._maps.values())

    def average_lookup_cost(self) -> float:
        lookups = self.total_lookups()
        if lookups == 0:
            return 0.0
        return self.total_comparisons() / lookups

    def __repr__(self) -> str:
        return (f"<MultiIndexDirectory types={len(self._maps)} "
                f"entries={self.total_entries()}>")


def normalise_attribute_values(raw: Any) -> Tuple[str, ...]:
    """The string forms an attribute value matches under LDAP filters.

    Mirrors :class:`~repro.ldap.filters.EqualityFilter`: collections index
    each item, scalars index ``str(value)``, absent/None values index
    nothing.  Postings built from this normalisation therefore agree exactly
    with brute-force filter evaluation.
    """
    if raw is None:
        return ()
    if isinstance(raw, (list, tuple, set, frozenset)):
        return tuple(sorted(str(item) for item in raw))
    return (str(raw),)


class AttributeIndex:
    """Inverted postings for one attribute: value -> set of entry ids."""

    def __init__(self, attribute: str):
        self.attribute = attribute.lower()
        self._postings: Dict[str, Set[str]] = {}
        #: Every entry holding the attribute at all (presence filter support).
        self._present: Set[str] = set()

    def __len__(self) -> int:
        return len(self._present)

    def add(self, entry_id: str, values: Tuple[str, ...]) -> None:
        if not values:
            return
        self._present.add(entry_id)
        for value in values:
            self._postings.setdefault(value, set()).add(entry_id)

    def discard(self, entry_id: str, values: Tuple[str, ...]) -> None:
        self._present.discard(entry_id)
        for value in values:
            bucket = self._postings.get(value)
            if bucket is None:
                continue
            bucket.discard(entry_id)
            if not bucket:
                del self._postings[value]

    def postings(self, value: str) -> Set[str]:
        return self._postings.get(value, set())

    def present(self) -> Set[str]:
        return self._present

    def count(self, value: str) -> int:
        """Posting-list length: the planner's selectivity estimate."""
        return len(self._postings.get(value, ()))

    def present_count(self) -> int:
        return len(self._present)

    def __repr__(self) -> str:
        return (f"<AttributeIndex {self.attribute!r} "
                f"values={len(self._postings)} entries={len(self._present)}>")


class AttributeIndexSet:
    """The secondary indexes a directory catalog maintains per entry."""

    def __init__(self, attributes: Iterable[str]):
        attributes = tuple(attributes)
        self._indexes: Dict[str, AttributeIndex] = {
            attribute.lower(): AttributeIndex(attribute)
            for attribute in attributes}
        #: Lower-cased attribute -> the spelling it was declared with.
        self._spellings: Dict[str, str] = {
            attribute.lower(): attribute for attribute in attributes}

    @property
    def attributes(self) -> List[str]:
        return list(self._indexes)

    def covers(self, attribute: str) -> bool:
        return attribute.lower() in self._indexes

    def index_for(self, attribute: str) -> Optional[AttributeIndex]:
        return self._indexes.get(attribute.lower())

    def normalised_values(self, entry: Mapping[str, Any]
                          ) -> Dict[str, Tuple[str, ...]]:
        """The indexed-attribute snapshot of ``entry`` (case-insensitive)."""
        lowered = {key.lower(): value for key, value in entry.items()}
        snapshot: Dict[str, Tuple[str, ...]] = {}
        for attribute in self._indexes:
            values = normalise_attribute_values(lowered.get(attribute))
            if values:
                snapshot[attribute] = values
        return snapshot

    def spelled_exactly(self, attributes: Iterable[str]) -> bool:
        """True when every name in ``attributes`` that an index covers is
        spelled as that index was declared.

        An entry whose attributes all pass holds at most one attribute per
        index, found by its declared name, so the index's values can be
        re-read from that one attribute (see :meth:`refold`).
        """
        spellings = self._spellings
        for attribute in attributes:
            spelling = spellings.get(attribute.lower())
            if spelling is not None and spelling != attribute:
                return False
        return True

    def refold(self, entry_id: str, snapshot: Dict[str, Tuple[str, ...]],
               entry: Mapping[str, Any], changed: Iterable[str]) -> None:
        """Bring ``snapshot`` and the postings up to date with ``entry``
        when only the ``changed`` attributes moved.

        ``snapshot`` must be :meth:`normalised_values` of the entry before
        the change and every name must pass :meth:`spelled_exactly`; the
        result, and every posting operation per index, is then what a full
        re-normalisation and diff would give.
        """
        for attribute in changed:
            lowered = attribute.lower()
            index = self._indexes.get(lowered)
            if index is None:
                continue
            values = normalise_attribute_values(entry.get(attribute)) or None
            old = snapshot.get(lowered)
            if old == values:
                continue
            if old is not None:
                index.discard(entry_id, old)
            if values is None:
                del snapshot[lowered]
            else:
                index.add(entry_id, values)
                snapshot[lowered] = values

    def add(self, attribute: str, entry_id: str,
            values: Tuple[str, ...]) -> None:
        index = self._indexes.get(attribute.lower())
        if index is not None:
            index.add(entry_id, values)

    def discard(self, attribute: str, entry_id: str,
                values: Tuple[str, ...]) -> None:
        index = self._indexes.get(attribute.lower())
        if index is not None:
            index.discard(entry_id, values)

    def equality_postings(self, attribute: str, value: str) -> Optional[Set[str]]:
        """Entry ids with ``attribute == value``; None when not indexed."""
        index = self._indexes.get(attribute.lower())
        return None if index is None else index.postings(value)

    def presence_postings(self, attribute: str) -> Optional[Set[str]]:
        index = self._indexes.get(attribute.lower())
        return None if index is None else index.present()

    def estimate_equality(self, attribute: str, value: str) -> Optional[int]:
        index = self._indexes.get(attribute.lower())
        return None if index is None else index.count(value)

    def estimate_presence(self, attribute: str) -> Optional[int]:
        index = self._indexes.get(attribute.lower())
        return None if index is None else index.present_count()

    def __repr__(self) -> str:
        return f"<AttributeIndexSet attributes={sorted(self._indexes)}>"
