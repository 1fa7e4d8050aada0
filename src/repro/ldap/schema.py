"""The subscriber-entry schema exposed over the UDR's LDAP interface.

The 3GPP UDC specifications mandate LDAP but "the structure and semantics of
subscriber data are not detailed by the UDC specifications" (paper, section
1), so each vendor defines its own directory information tree.  The
reproduction uses a single flat subtree of subscriber entries::

    ou=subscribers,dc=udr,dc=operator,dc=example
        imsi=<imsi>,ou=subscribers,...      one entry per subscription

The schema maps LDAP attribute names to the identity namespaces of the data
location stage, names the attributes application front-ends may write
(dynamic state) versus those only provisioning may touch, and validates Add
requests.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.ldap.dn import DistinguishedName, escape_value
from repro.ldap.filters import LdapFilter, Predicate
from repro.ldap.identity import IdentityType


class SubscriberSchema:
    """Names, identity attributes and validation rules for subscriber entries."""

    BASE_DN = DistinguishedName.parse("ou=subscribers,dc=udr,dc=operator,dc=example")
    _BASE_DN_TEXT = str(BASE_DN)
    OBJECT_CLASS = "udrSubscriber"

    #: LDAP attribute name -> identity namespace of the location stage.
    IDENTITY_ATTRIBUTES: Dict[str, str] = {
        "imsi": IdentityType.IMSI,
        "msisdn": IdentityType.MSISDN,
        "impu": IdentityType.IMPU,
        "impi": IdentityType.IMPI,
    }

    #: Attributes application front-ends are allowed to modify (dynamic state).
    FRONT_END_WRITABLE = frozenset({
        "servingMsc", "servingSgsn", "imsRegistered", "currentRegion",
    })

    #: Attributes that must be present in every new subscriber entry.
    REQUIRED_ATTRIBUTES = ("imsi", "msisdn", "homeRegion", "subscriberStatus")

    #: Attributes the directory catalog maintains secondary indexes for --
    #: the identities plus the grouping attributes scoped searches filter
    #: on.  ``objectClass`` is deliberately absent: it is constant over
    #: every entry, so its postings would be the whole directory (zero
    #: selectivity) while taxing every single write with index upkeep.
    INDEXED_ATTRIBUTES = ("imsi", "msisdn", "impu", "impi", "homeRegion",
                          "subscriberStatus", "currentRegion",
                          "organisation")

    #: Storage-key prefix of subscriber records (see SubscriberProfile.key).
    RECORD_KEY_PREFIX = "sub:"

    # -- DN helpers ---------------------------------------------------------------

    @classmethod
    def subscriber_dn(cls, imsi: str) -> DistinguishedName:
        """The DN of the subscription whose IMSI is ``imsi``."""
        return cls.BASE_DN.child("imsi", imsi)

    @classmethod
    def subscriber_dn_text(cls, imsi: str) -> str:
        """``str(subscriber_dn(imsi))``, formatted without building the DN."""
        if not imsi:
            raise ValueError(f"invalid RDN ('imsi'={imsi!r})")
        return f"imsi={escape_value(imsi)},{cls._BASE_DN_TEXT}"

    @classmethod
    def is_subscriber_dn(cls, dn: DistinguishedName) -> bool:
        return (dn.leaf_attribute == "imsi"
                and dn.is_descendant_of(cls.BASE_DN)
                and len(dn) == len(cls.BASE_DN) + 1)

    # -- entry views --------------------------------------------------------------

    @classmethod
    def ldap_entry(cls, record: Dict[str, Any],
                   dn: Optional[DistinguishedName] = None) -> Dict[str, Any]:
        """The directory view of a stored record: attributes plus the
        schema-level ``objectClass`` and ``dn`` the raw record omits."""
        dn_text = (cls.subscriber_dn_text(str(record.get("imsi", "")))
                   if dn is None else str(dn))
        entry = dict(record)
        entry["objectClass"] = cls.OBJECT_CLASS
        entry["dn"] = dn_text
        return entry

    @classmethod
    def record_predicate(cls, parsed: LdapFilter) -> Predicate:
        """``parsed`` as a predicate over raw stored records.

        Equal to ``parsed.matches(cls.ldap_entry(record))``: ``objectClass``
        is a compile-time constant, so only a filter naming ``dn`` -- the
        one attribute that differs per record -- builds the entry view.
        """
        if "dn" in parsed.referenced_attributes():
            return lambda record: parsed.matches(cls.ldap_entry(record))
        return parsed.compile({"objectClass": cls.OBJECT_CLASS})

    @classmethod
    def catalog_view(cls, key: str, value: Any
                     ) -> Optional[Tuple[DistinguishedName, Dict[str, Any]]]:
        """Adapt a raw storage record for the directory catalog.

        Returns ``(dn, ldap_entry)`` for subscriber records and ``None`` for
        any other key the storage layer may hold.
        """
        if not key.startswith(cls.RECORD_KEY_PREFIX):
            return None
        if not isinstance(value, dict):
            return None
        imsi = str(value.get("imsi") or key[len(cls.RECORD_KEY_PREFIX):])
        dn = cls.subscriber_dn(imsi)
        return dn, cls.ldap_entry(value, dn)

    # -- identity extraction ---------------------------------------------------------

    @classmethod
    def identity_from_dn(cls, dn: DistinguishedName) -> Optional[Tuple[str, str]]:
        """(identity type, value) addressed by a subscriber DN, if any."""
        if not cls.is_subscriber_dn(dn):
            return None
        return IdentityType.IMSI, dn.leaf_value

    @classmethod
    def identity_from_assertions(cls, assertions: Dict[str, str]
                                 ) -> Optional[Tuple[str, str]]:
        """Pick the identity assertion out of a filter's equality tests.

        Index-based single-subscriber queries always carry exactly one
        identity; when several are present the IMSI (the primary key) wins.
        """
        found: Dict[str, str] = {}
        for attribute, value in assertions.items():
            identity_type = cls.IDENTITY_ATTRIBUTES.get(attribute.lower())
            if identity_type is not None:
                found[identity_type] = value
        for preferred in (IdentityType.IMSI, IdentityType.MSISDN,
                          IdentityType.IMPU, IdentityType.IMPI):
            if preferred in found:
                return preferred, found[preferred]
        return None

    # -- validation ---------------------------------------------------------------------

    @classmethod
    def validate_new_entry(cls, attributes: Dict[str, Any]) -> List[str]:
        """Return the list of problems with a new entry (empty when valid)."""
        problems = []
        for required in cls.REQUIRED_ATTRIBUTES:
            if not attributes.get(required):
                problems.append(f"missing required attribute {required!r}")
        status = attributes.get("subscriberStatus")
        if status not in (None, "active", "suspended", "terminated"):
            problems.append(f"invalid subscriberStatus {status!r}")
        return problems

    @classmethod
    def front_end_may_write(cls, attributes: Dict[str, Any]) -> bool:
        """True when all modified attributes are dynamic-state attributes."""
        return all(attribute in cls.FRONT_END_WRITABLE
                   for attribute in attributes)
