"""LDAP request/response objects and result codes.

Only the operations the UDC front door actually needs are modelled: Search
(index-based single-subscriber reads), Modify (dynamic state updates and
provisioning changes), Add (provisioning a subscription) and Delete
(terminating one).  Result codes follow RFC 4511 numbering so logs read like
real directory traces.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.ldap.dn import DistinguishedName


class ResultCode(enum.Enum):
    """RFC 4511 result codes used by the reproduction."""

    SUCCESS = 0
    OPERATIONS_ERROR = 1
    TIME_LIMIT_EXCEEDED = 3
    NO_SUCH_OBJECT = 32
    BUSY = 51
    UNAVAILABLE = 52
    UNWILLING_TO_PERFORM = 53
    ENTRY_ALREADY_EXISTS = 68
    OTHER = 80
    #: Private-extension range (RFC 4511 reserves 118+ for APIs): the write
    #: reached a copy deposed by a newer promotion epoch; retry re-locates.
    FENCED = 118

    @property
    def is_success(self) -> bool:
        return self is ResultCode.SUCCESS


class SearchScope(enum.Enum):
    BASE = "base"
    ONE_LEVEL = "one"
    SUBTREE = "sub"


@dataclass(frozen=True)
class LdapRequest:
    """Base class of all LDAP requests."""

    dn: DistinguishedName

    @property
    def is_write(self) -> bool:
        return False

    @property
    def operation_name(self) -> str:
        return type(self).__name__.replace("Request", "").lower()


@dataclass(frozen=True)
class SearchRequest(LdapRequest):
    """An index-based read of subscriber data.

    ``page_size``/``cursor`` opt into keyset-paged result streaming: the
    response carries at most ``page_size`` entries plus a ``next_cursor``
    (``{sort_key}|{entry_id}``) that resumes the scan strictly after the
    last returned entry.  ``cursor=None`` starts from the beginning.
    """

    scope: SearchScope = SearchScope.BASE
    filter_text: str = "(objectClass=*)"
    attributes: Tuple[str, ...] = ()
    page_size: Optional[int] = None
    cursor: Optional[str] = None

    @property
    def is_write(self) -> bool:
        return False

    @property
    def paged(self) -> bool:
        return self.page_size is not None

    def next_page(self, cursor: str) -> "SearchRequest":
        """The request fetching the page after ``cursor``."""
        return SearchRequest(dn=self.dn, scope=self.scope,
                             filter_text=self.filter_text,
                             attributes=self.attributes,
                             page_size=self.page_size, cursor=cursor)


@dataclass(frozen=True)
class ModifyRequest(LdapRequest):
    """Attribute changes on an existing entry (None values delete attributes)."""

    changes: Dict[str, Any] = field(default_factory=dict)

    @property
    def is_write(self) -> bool:
        return True


@dataclass(frozen=True)
class AddRequest(LdapRequest):
    """Creation of a new subscriber entry (provisioning)."""

    attributes: Dict[str, Any] = field(default_factory=dict)

    @property
    def is_write(self) -> bool:
        return True


@dataclass(frozen=True)
class DeleteRequest(LdapRequest):
    """Removal of a subscriber entry (provisioning)."""

    @property
    def is_write(self) -> bool:
        return True


@dataclass
class LdapResponse:
    """Outcome of one LDAP request."""

    result_code: ResultCode
    request: Optional[LdapRequest] = None
    entries: List[Dict[str, Any]] = field(default_factory=list)
    diagnostic_message: str = ""
    latency: float = 0.0
    served_from: str = ""
    #: Retries the pipeline's RetryStage spent on the request (0 =
    #: answered on the first attempt, or no retry policy applied).
    attempts: int = 0
    #: Keyset cursor resuming a paged search after the last entry of this
    #: page (``{sort_key}|{entry_id}``); None once the result set is drained.
    next_cursor: Optional[str] = None
    #: True while a paged search may have further matching entries.
    has_more: bool = False

    @property
    def ok(self) -> bool:
        return self.result_code.is_success

    @property
    def entry(self) -> Optional[Dict[str, Any]]:
        """The single entry of an index-based search (None when absent)."""
        return self.entries[0] if self.entries else None

    def __repr__(self) -> str:
        return (f"<LdapResponse {self.result_code.name} "
                f"entries={len(self.entries)} latency={self.latency:.6f}s>")
