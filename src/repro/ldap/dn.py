"""Distinguished names (RFC 4514, simplified).

The UDR addresses subscriber entries by DN, e.g.::

    imsi=214070000000001,ou=subscribers,dc=udr,dc=operator,dc=example

The implementation supports the subset needed by the reproduction: parsing
and formatting of comma-separated RDNs with single attribute-value pairs,
case-insensitive attribute types, and basic escaping of commas, plus signs
and equals signs inside values.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

_ESCAPABLE = {",", "+", "=", "\\", ";", "<", ">", "#"}


def escape_value(value: str) -> str:
    """``value`` with the RDN special characters backslash-escaped."""
    if _ESCAPABLE.isdisjoint(value):
        return value
    escaped = []
    for char in value:
        if char in _ESCAPABLE:
            escaped.append("\\" + char)
        else:
            escaped.append(char)
    return "".join(escaped)


def _split_on_unescaped(text: str, separator: str) -> List[str]:
    parts: List[str] = []
    current: List[str] = []
    index = 0
    while index < len(text):
        char = text[index]
        if char == "\\" and index + 1 < len(text):
            current.append(text[index + 1])
            index += 2
            continue
        if char == separator:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
        index += 1
    parts.append("".join(current))
    return parts


class DistinguishedName:
    """An ordered sequence of relative distinguished names."""

    def __init__(self, rdns: Sequence[Tuple[str, str]]):
        if not rdns:
            raise ValueError("a DN needs at least one RDN")
        cleaned = []
        for attribute, value in rdns:
            attribute = attribute.strip().lower()
            if not attribute or not value:
                raise ValueError(f"invalid RDN ({attribute!r}={value!r})")
            cleaned.append((attribute, value))
        self.rdns: Tuple[Tuple[str, str], ...] = tuple(cleaned)

    # -- construction -------------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "DistinguishedName":
        """Parse a string DN; raises ``ValueError`` on malformed input."""
        if not text or not text.strip():
            raise ValueError("empty DN")
        rdns = []
        for component in _split_on_unescaped(text.strip(), ","):
            component = component.strip()
            if not component:
                raise ValueError(f"empty RDN component in {text!r}")
            if "=" not in component:
                raise ValueError(f"RDN without '=': {component!r}")
            attribute, _, value = component.partition("=")
            rdns.append((attribute.strip(), value.strip()))
        return cls(rdns)

    @classmethod
    def build(cls, *rdns: Tuple[str, str]) -> "DistinguishedName":
        return cls(list(rdns))

    # -- accessors --------------------------------------------------------------------

    @property
    def leaf_attribute(self) -> str:
        """Attribute type of the left-most (most specific) RDN."""
        return self.rdns[0][0]

    @property
    def leaf_value(self) -> str:
        return self.rdns[0][1]

    @property
    def depth(self) -> int:
        """Number of RDNs, i.e. the entry's depth in the directory tree."""
        return len(self.rdns)

    def parent(self) -> Optional["DistinguishedName"]:
        """The DN with the leaf RDN removed (None for a single-RDN DN)."""
        if len(self.rdns) == 1:
            return None
        return DistinguishedName(self.rdns[1:])

    def ancestors(self) -> List["DistinguishedName"]:
        """Every proper ancestor, closest parent first (root last)."""
        result: List["DistinguishedName"] = []
        for start in range(1, len(self.rdns)):
            result.append(DistinguishedName(self.rdns[start:]))
        return result

    def child(self, attribute: str, value: str) -> "DistinguishedName":
        """A DN one level below this one."""
        return DistinguishedName(((attribute, value),) + self.rdns)

    def is_descendant_of(self, ancestor: "DistinguishedName") -> bool:
        """True if this DN sits under ``ancestor`` (or equals it)."""
        if len(ancestor.rdns) > len(self.rdns):
            return False
        return self.rdns[len(self.rdns) - len(ancestor.rdns):] == ancestor.rdns

    # -- formatting -------------------------------------------------------------------

    def __str__(self) -> str:
        return ",".join(f"{attribute}={escape_value(value)}"
                        for attribute, value in self.rdns)

    def __repr__(self) -> str:
        return f"DistinguishedName({str(self)!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, DistinguishedName):
            return NotImplemented
        return self.rdns == other.rdns

    def __hash__(self) -> int:
        return hash(self.rdns)

    def __len__(self) -> int:
        return len(self.rdns)
