"""Typed operations: what a client asks of the UDR, not how LDAP spells it.

Call sites used to hand-build :class:`~repro.ldap.operations.LdapRequest`
subclasses -- distinguished names, filter strings, attribute dictionaries --
which leaked the directory encoding into every front-end, experiment and
example.  An :class:`Operation` names the *intent* instead:

* :class:`Read` -- fetch one subscriber's record by IMSI (optionally a
  projection of attributes);
* :class:`Search` -- fetch by any other identity (MSISDN, IMPU, IMPI),
  the index-based lookup of the paper's data-location stage;
* :class:`Write` -- change attributes of an existing subscriber;
* :class:`Provision` -- create a brand-new subscription
  (:meth:`Provision.create`) or terminate one (:meth:`Provision.terminate`).

``to_request()`` produces the exact LDAP request the legacy call sites
built, so a sessioned operation and a hand-built request walk the pipeline
identically -- the equivalence suite in ``tests/test_session_api.py`` pins
that down.  The LDAP encoding lives *only* here; reprolint rule ``API001``
(``scripts/reprolint.py``) keeps raw request construction out of
``src/repro/experiments/`` and ``examples/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

from repro.ldap.dn import DistinguishedName
from repro.ldap.operations import (
    AddRequest,
    DeleteRequest,
    LdapRequest,
    ModifyRequest,
    SearchRequest,
    SearchScope,
)
from repro.ldap.schema import SubscriberSchema

#: Identity types the data-location stage indexes (mirrors
#: ``repro.core.deployment.IDENTITY_RECORD_ATTRIBUTE``; kept literal here so
#: the API layer does not import the deployment layer).
IDENTITY_TYPES: Tuple[str, ...] = ("imsi", "msisdn", "impu", "impi")


@dataclass(frozen=True)
class Operation:
    """Base class of typed client operations."""

    #: Class-level flag (no request construction needed to read it).
    is_write = False

    def to_request(self) -> LdapRequest:
        """The LDAP request this operation encodes to."""
        raise NotImplementedError

    @property
    def kind(self) -> str:
        return type(self).__name__.lower()


@dataclass(frozen=True)
class Read(Operation):
    """Fetch one subscriber's record by IMSI."""

    imsi: str
    attributes: Tuple[str, ...] = ()

    def __post_init__(self):
        if not self.imsi:
            raise ValueError("Read needs an IMSI")

    def to_request(self) -> SearchRequest:
        return SearchRequest(dn=SubscriberSchema.subscriber_dn(self.imsi),
                             attributes=tuple(self.attributes))


@dataclass(frozen=True)
class Search(Operation):
    """Fetch subscriber records: by identity, or by scoped filter search.

    Two shapes, exactly one per operation:

    * ``Search("msisdn", "+34...")`` -- the classic index-based
      single-subscriber lookup by a non-IMSI identity;
    * :meth:`Search.scoped` -- a scoped directory search (BASE / ONE_LEVEL /
      SUBTREE) with an arbitrary filter, optionally keyset-paged
      (``page_size``; follow pages via :meth:`next_page` or
      ``Session.search_pages``).
    """

    identity_type: str = ""
    value: str = ""
    attributes: Tuple[str, ...] = ()
    filter_text: str = ""
    scope: SearchScope = SearchScope.SUBTREE
    base: Optional[DistinguishedName] = None
    page_size: Optional[int] = None
    cursor: Optional[str] = None

    def __post_init__(self):
        if bool(self.identity_type or self.value) == bool(self.filter_text):
            raise ValueError("Search is either an identity lookup "
                             "(identity_type + value) or a scoped filter "
                             "search (filter_text), exactly one")
        if self.filter_text:
            if self.page_size is not None and self.page_size < 1:
                raise ValueError("page_size must be at least 1")
            return
        if self.identity_type not in IDENTITY_TYPES:
            raise ValueError(f"unknown identity type "
                             f"{self.identity_type!r}; expected one of "
                             f"{IDENTITY_TYPES}")
        if not self.value:
            raise ValueError("Search needs an identity value")

    @classmethod
    def scoped(cls, filter_text: str,
               scope: SearchScope = SearchScope.SUBTREE,
               base: Optional[DistinguishedName] = None,
               attributes: Tuple[str, ...] = (),
               page_size: Optional[int] = None,
               cursor: Optional[str] = None) -> "Search":
        """A scoped directory search under ``base`` (the subscriber subtree
        by default), optionally keyset-paged."""
        return cls(filter_text=filter_text, scope=scope, base=base,
                   attributes=tuple(attributes), page_size=page_size,
                   cursor=cursor)

    def next_page(self, response) -> Optional["Search"]:
        """The follow-up operation fetching the page after ``response``.

        Returns ``None`` when the response says the result set is drained
        (``has_more`` false or no cursor).
        """
        if not getattr(response, "has_more", False) or \
                response.next_cursor is None:
            return None
        return replace(self, cursor=response.next_cursor)

    def to_request(self) -> SearchRequest:
        if self.filter_text:
            return SearchRequest(
                dn=self.base if self.base is not None
                else SubscriberSchema.BASE_DN,
                scope=self.scope,
                filter_text=self.filter_text,
                attributes=tuple(self.attributes),
                page_size=self.page_size,
                cursor=self.cursor)
        return SearchRequest(
            dn=SubscriberSchema.BASE_DN,
            filter_text=(f"(&(objectClass=udrSubscriber)"
                         f"({self.identity_type}={self.value}))"),
            attributes=tuple(self.attributes))


@dataclass(frozen=True)
class Write(Operation):
    """Change attributes of an existing subscriber (None deletes one)."""

    is_write = True

    imsi: str
    changes: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not self.imsi:
            raise ValueError("Write needs an IMSI")
        if not self.changes:
            raise ValueError("Write needs at least one change")

    def to_request(self) -> ModifyRequest:
        return ModifyRequest(dn=SubscriberSchema.subscriber_dn(self.imsi),
                             changes=dict(self.changes))


@dataclass(frozen=True)
class Provision(Operation):
    """Create a brand-new subscription, or terminate an existing one.

    Built via :meth:`create` (a record's full attribute set, IMSI included)
    or :meth:`terminate` (the IMSI to remove); the constructor validates
    that exactly one shape was given.
    """

    is_write = True

    attributes: Dict[str, Any] = field(default_factory=dict)
    terminate_imsi: str = ""

    def __post_init__(self):
        if bool(self.attributes) == bool(self.terminate_imsi):
            raise ValueError("Provision is either a create (attributes) or "
                             "a terminate (terminate_imsi), exactly one")
        if self.attributes and not self.attributes.get("imsi"):
            raise ValueError("a created subscription needs an 'imsi' "
                             "attribute")

    @classmethod
    def create(cls, attributes: Dict[str, Any]) -> "Provision":
        return cls(attributes=dict(attributes))

    @classmethod
    def terminate(cls, imsi: str) -> "Provision":
        return cls(terminate_imsi=imsi)

    def to_request(self) -> LdapRequest:
        if self.attributes:
            return AddRequest(
                dn=SubscriberSchema.subscriber_dn(self.attributes["imsi"]),
                attributes=dict(self.attributes))
        return DeleteRequest(
            dn=SubscriberSchema.subscriber_dn(self.terminate_imsi))


def as_request(operation) -> LdapRequest:
    """Coerce an :class:`Operation` or a raw request to an ``LdapRequest``.

    The session layer accepts both so legacy call sites can migrate one
    argument at a time; new code should pass typed operations.
    """
    if isinstance(operation, Operation):
        return operation.to_request()
    if isinstance(operation, LdapRequest):
        return operation
    raise TypeError(f"expected an Operation or LdapRequest, got "
                    f"{type(operation).__name__}")
