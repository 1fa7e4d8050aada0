"""Record values, versions and size accounting.

Records are attribute maps (LDAP-entry-like dictionaries keyed by attribute
name).  The store keeps every committed version of a record, tagged with the
commit sequence number that created it, which is what makes snapshot reads,
staleness measurement and multi-master conflict detection possible.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, Optional, Tuple


class _Tombstone:
    """Sentinel marking a deleted record version."""

    _instance: Optional["_Tombstone"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<TOMBSTONE>"

    def __bool__(self) -> bool:
        return False


TOMBSTONE = _Tombstone()
"""Value stored for a deleted record (so deletions replicate like writes)."""


@dataclass(frozen=True, init=False)
class RecordVersion:
    """One committed version of a record.

    Attributes
    ----------
    key:
        The record's primary key within its data partition.
    value:
        The attribute map, or :data:`TOMBSTONE` when this version is a delete.
    commit_seq:
        The commit sequence number (monotonically increasing per partition
        copy) that created this version.
    transaction_id:
        Identifier of the committing transaction (for audit/conflict reports).
    origin:
        Name of the replica where the write was originally accepted; used by
        multi-master conflict detection to distinguish divergent histories.
    epoch:
        Promotion epoch of the mastership that committed this version
        (0 until the membership plane performs its first promotion).
        Version recency is ordered by ``(epoch, commit_seq)`` so a new
        master's commits supersede a deposed master's unshipped tail even
        when their sequence numbers overlap.

    A commit builds one version per written key, and that one object is
    the log record's operation, every copy's chain entry and what the
    commit-log followers fold, so it is immutable and sized once:
    ``size`` is :func:`record_size` of ``value`` (``None`` for a
    tombstone), given by the committer when it already knows it.  A
    version made by merging a change map onto a stored value also carries
    ``changed`` (the attribute names the map touched) and ``base`` (the
    value it was merged onto); followers that last folded exactly ``base``
    may then re-derive only those attributes.  The three are not fields:
    equality, hashing and ``repr`` see only the committed data.

    Every committed version is kept for the life of its store, so the
    class is slotted.  ``dataclass(slots=True)`` needs Python 3.10; an
    explicit ``__slots__`` with a hand-written ``__init__`` works on 3.9
    (slots cannot coexist with class-level field defaults).
    """

    __slots__ = ("key", "value", "commit_seq", "transaction_id", "origin",
                 "epoch", "size", "changed", "base")

    key: str
    value: Any
    commit_seq: int
    transaction_id: int
    origin: str
    epoch: int
    if TYPE_CHECKING:
        # Declared for type checkers only, so the dataclass does not make
        # them fields.
        size: Optional[int]
        changed: Optional[Tuple[str, ...]]
        base: Optional[Mapping]

    def __init__(self, key: str, value: Any, commit_seq: int,
                 transaction_id: int, origin: str = "", epoch: int = 0,
                 size: Optional[int] = None,
                 changed: Optional[Tuple[str, ...]] = None,
                 base: Optional[Mapping] = None):
        set_field = object.__setattr__
        set_field(self, "key", key)
        set_field(self, "value", value)
        set_field(self, "commit_seq", commit_seq)
        set_field(self, "transaction_id", transaction_id)
        set_field(self, "origin", origin)
        set_field(self, "epoch", epoch)
        if value is TOMBSTONE:
            size = None
        elif size is None:
            size = record_size(value)
        set_field(self, "size", size)
        set_field(self, "changed", changed)
        set_field(self, "base", base)

    def __reduce__(self):
        return reduce_slotted(self)

    @property
    def position(self) -> tuple:
        """Recency ordering key across promotion epochs."""
        return (self.epoch, self.commit_seq)

    @property
    def is_delete(self) -> bool:
        return self.value is TOMBSTONE


def reduce_slotted(instance: Any) -> tuple:
    """``__reduce__`` for a frozen slotted dataclass (copy and pickle).

    The default slot-state protocol restores through ``setattr``, which a
    frozen dataclass refuses; rebuilding through the constructor does not.
    The slots must be listed in the ``__init__`` parameter order.
    """
    return (type(instance),
            tuple(getattr(instance, name) for name in instance.__slots__))


def record_size(value: Any) -> int:
    """Approximate in-RAM size, in bytes, of a record value.

    The estimate only needs to be consistent, not exact: the capacity planner
    (section 3.5 of the paper) works from an *average subscriber profile
    size*, and this function is what defines that average for synthetic
    profiles.
    """
    if value is TOMBSTONE or value is None:
        return 16
    if isinstance(value, (dict, Mapping)):
        total = 64
        for attribute, attribute_value in value.items():
            total += 24 + len(str(attribute)) + _value_size(attribute_value)
        return total
    return 24 + _value_size(value)


def resized(size: int, base: Mapping, value: Mapping,
            changed: Iterable[str]) -> int:
    """:func:`record_size` of ``value``, given ``size`` of ``base``, when
    the two maps differ at most in the ``changed`` attributes.

    The size is additive per attribute, so only the changed attributes'
    terms are re-derived: bit-identical to a full recount.
    """
    for attribute in changed:
        if attribute in base:
            size -= 24 + len(str(attribute)) + _value_size(base[attribute])
        if attribute in value:
            size += 24 + len(str(attribute)) + _value_size(value[attribute])
    return size


def _value_size(value: Any) -> int:
    # Ordered by what profiles hold; the ``Mapping`` ABC check is slow, so
    # plain dicts and the profile's absent (``None``) attributes are caught
    # before it.
    if isinstance(value, str):
        return 49 + len(value)
    if value is None:
        return 48
    if isinstance(value, (int, float)):
        return 28
    if isinstance(value, dict):
        return record_size(value)
    if isinstance(value, bytes):
        return 33 + len(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return 56 + sum(_value_size(item) for item in value)
    if isinstance(value, Mapping):
        return record_size(value)
    return 48


def merge_attributes(base: Optional[Mapping[str, Any]],
                     changes: Mapping[str, Any]) -> Dict[str, Any]:
    """Return ``base`` updated with ``changes`` (None values delete attributes).

    This is the record-level "modify" primitive used by LDAP Modify
    operations and by attribute-level conflict merging.
    """
    result: Dict[str, Any] = dict(base or {})
    for attribute, attribute_value in changes.items():
        if attribute_value is None:
            result.pop(attribute, None)
        else:
            result[attribute] = attribute_value
    return result
