"""LDAP search filters (RFC 4515 string representation, simplified).

Application front-ends find subscriber entries by identity, e.g.
``(msisdn=+34600000001)`` or ``(&(objectClass=subscriber)(imsi=21407...))``.
The parser supports equality, presence, substring, AND, OR and NOT filters,
which covers every query the reproduction issues while staying small enough
to be obviously correct.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

#: A compiled filter: takes a raw record, answers whether it matches.
Predicate = Callable[[Mapping[str, Any]], bool]

#: Where a lowered attribute name's value sits for one record key layout:
#: ``(record key, None)``, or ``(None, value)`` for a constant or absent one.
_Locate = Callable[[str], Tuple[Optional[str], Any]]


class FilterError(ValueError):
    """Raised for malformed filter strings."""


class LdapFilter:
    """Base class for parsed filters; evaluates against attribute maps."""

    def matches(self, entry: Dict[str, Any]) -> bool:
        raise NotImplementedError

    def referenced_attributes(self) -> List[str]:
        """Attribute names the filter tests (used to extract identities)."""
        raise NotImplementedError

    def compile(self, constants: Mapping[str, Any]) -> Predicate:
        """This filter as one predicate over a raw stored record.

        ``constants`` are the schema-level attributes an entry view adds to
        the record: like the view, each replaces the record's value under
        the same key and otherwise follows the record's own keys.  So
        ``compile(constants)(record) == matches(view)`` where ``view`` is
        ``dict(record)`` updated with ``constants``.  The filter is
        specialised once per distinct tuple of record keys -- a store of
        uniformly shaped records repeats one on almost every read -- so
        attribute names are case-folded there, not per record, and tests
        of constant or absent attributes are decided there too.
        """
        constants = dict(constants)
        tests: Dict[Tuple[str, ...], Predicate] = {}

        def predicate(record: Mapping[str, Any]) -> bool:
            layout = tuple(record)
            test = tests.get(layout)
            if test is None:
                test = tests[layout] = self._test(
                    _locator(layout, constants))
            return test(record)
        return predicate

    def _test(self, locate: _Locate) -> Predicate:
        """This node over records of the layout ``locate`` describes."""
        raise NotImplementedError


class _SimpleFilter(LdapFilter):
    """A test of one attribute's value (equality, presence, substring)."""

    def __init__(self, attribute: str):
        self.attribute = attribute.lower()

    def matches(self, entry: Dict[str, Any]) -> bool:
        return self.accepts(_get_attribute(entry, self.attribute))

    def accepts(self, actual: Any) -> bool:
        """Whether an attribute value (None when absent) satisfies the test."""
        raise NotImplementedError

    def referenced_attributes(self) -> List[str]:
        return [self.attribute]

    def _test(self, locate: _Locate) -> Predicate:
        key, constant = locate(self.attribute)
        accepts = self.accepts
        if key is None:
            return _always if accepts(constant) else _never
        return lambda record: accepts(record[key])


class EqualityFilter(_SimpleFilter):
    def __init__(self, attribute: str, value: str):
        super().__init__(attribute)
        self.value = value

    def accepts(self, actual: Any) -> bool:
        if actual is None:
            return False
        if isinstance(actual, (list, tuple, set)):
            return any(str(item) == self.value for item in actual)
        return str(actual) == self.value

    def __repr__(self) -> str:
        return f"({self.attribute}={self.value})"


class PresenceFilter(_SimpleFilter):
    def accepts(self, actual: Any) -> bool:
        return actual is not None

    def __repr__(self) -> str:
        return f"({self.attribute}=*)"


class SubstringFilter(_SimpleFilter):
    def __init__(self, attribute: str, pattern: str):
        super().__init__(attribute)
        self.pattern = pattern
        self.parts = pattern.split("*")

    def accepts(self, actual: Any) -> bool:
        if actual is None:
            return False
        text = str(actual)
        position = 0
        parts = self.parts
        if parts[0] and not text.startswith(parts[0]):
            return False
        if parts[-1] and not text.endswith(parts[-1]):
            return False
        for part in parts:
            if not part:
                continue
            index = text.find(part, position)
            if index < 0:
                return False
            position = index + len(part)
        return True

    def __repr__(self) -> str:
        return f"({self.attribute}={self.pattern})"


class AndFilter(LdapFilter):
    def __init__(self, children: List[LdapFilter]):
        self.children = children

    def matches(self, entry: Dict[str, Any]) -> bool:
        return all(child.matches(entry) for child in self.children)

    def referenced_attributes(self) -> List[str]:
        return [attr for child in self.children
                for attr in child.referenced_attributes()]

    def _test(self, locate: _Locate) -> Predicate:
        tests = [child._test(locate) for child in self.children]
        if _never in tests:
            return _never
        tests = [test for test in tests if test is not _always]
        if len(tests) <= 1:
            return tests[0] if tests else _always

        def test_all(record: Mapping[str, Any]) -> bool:
            for test in tests:
                if not test(record):
                    return False
            return True
        return test_all

    def __repr__(self) -> str:
        return "(&" + "".join(repr(child) for child in self.children) + ")"


class OrFilter(LdapFilter):
    def __init__(self, children: List[LdapFilter]):
        self.children = children

    def matches(self, entry: Dict[str, Any]) -> bool:
        return any(child.matches(entry) for child in self.children)

    def referenced_attributes(self) -> List[str]:
        return [attr for child in self.children
                for attr in child.referenced_attributes()]

    def _test(self, locate: _Locate) -> Predicate:
        tests = [child._test(locate) for child in self.children]
        if _always in tests:
            return _always
        tests = [test for test in tests if test is not _never]
        if len(tests) <= 1:
            return tests[0] if tests else _never

        def test_any(record: Mapping[str, Any]) -> bool:
            for test in tests:
                if test(record):
                    return True
            return False
        return test_any

    def __repr__(self) -> str:
        return "(|" + "".join(repr(child) for child in self.children) + ")"


class NotFilter(LdapFilter):
    def __init__(self, child: LdapFilter):
        self.child = child

    def matches(self, entry: Dict[str, Any]) -> bool:
        return not self.child.matches(entry)

    def referenced_attributes(self) -> List[str]:
        return self.child.referenced_attributes()

    def _test(self, locate: _Locate) -> Predicate:
        test = self.child._test(locate)
        if test is _always:
            return _never
        if test is _never:
            return _always
        return lambda record: not test(record)

    def __repr__(self) -> str:
        return f"(!{self.child!r})"


def _get_attribute(entry: Dict[str, Any], attribute: str) -> Optional[Any]:
    """Case-insensitive attribute lookup, treating None values as absent."""
    for key, value in entry.items():
        if key.lower() == attribute:
            return value if value is not None else None
    return None


def _always(record: Mapping[str, Any]) -> bool:
    return True


def _never(record: Mapping[str, Any]) -> bool:
    return False


def _locator(layout: Tuple[str, ...], constants: Dict[str, Any]) -> _Locate:
    """Attribute lookup for records with keys ``layout``, mirroring
    :func:`_get_attribute` over ``dict(record)`` updated with ``constants``:
    the first key -- record keys in order, then the constants the record
    lacks -- whose lower-case form is the attribute wins."""
    first: Dict[str, str] = {}
    for key in layout:
        first.setdefault(key.lower(), key)
    for key in constants:
        first.setdefault(key.lower(), key)

    def locate(attribute: str) -> Tuple[Optional[str], Any]:
        key = first.get(attribute)
        if key is None:
            return None, None
        if key in constants:
            return None, constants[key]
        return key, None
    return locate


class PlannedPredicate:
    """One indexable conjunct with its selectivity estimate."""

    __slots__ = ("attribute", "value", "estimate", "presence")

    def __init__(self, attribute: str, value: Optional[str], estimate: int):
        self.attribute = attribute
        self.value = value
        self.estimate = estimate
        self.presence = value is None

    def __repr__(self) -> str:
        assertion = "*" if self.presence else self.value
        return f"<predicate ({self.attribute}={assertion}) ~{self.estimate}>"


class FilterPlan:
    """The index-access strategy for one parsed filter.

    ``predicates`` holds the indexable conjuncts ordered most-selective
    first (smallest estimated postings count; ties broken by attribute then
    value so the order is deterministic).  ``candidates()`` intersects their
    postings starting from the smallest list, so the working set only ever
    shrinks.  A plan with no indexable conjunct (``indexed`` False) means the
    caller must scan; either way the full filter is still re-evaluated on
    every fetched entry, so the index only ever prunes, never decides.
    """

    def __init__(self, parsed: LdapFilter,
                 predicates: List[PlannedPredicate], indexes):
        self.filter = parsed
        self.predicates = predicates
        self._indexes = indexes

    @property
    def indexed(self) -> bool:
        return bool(self.predicates)

    def candidates(self) -> Optional[frozenset]:
        """Entry ids surviving every indexed conjunct; None when unindexed."""
        if not self.predicates:
            return None
        result: Optional[set] = None
        for predicate in self.predicates:
            if predicate.presence:
                postings = self._indexes.presence_postings(predicate.attribute)
            else:
                postings = self._indexes.equality_postings(
                    predicate.attribute, predicate.value)
            if postings is None:
                continue
            if result is None:
                result = set(postings)
            else:
                result &= postings
            if not result:
                break
        return None if result is None else frozenset(result)

    def __repr__(self) -> str:
        return f"<FilterPlan indexed={self.indexed} {self.predicates}>"


class FilterPlanner:
    """Orders conjunctive predicates by estimated selectivity.

    Only top-level AND conjuncts (and the filter itself when it is a simple
    equality or presence test) are indexable: anything under OR/NOT or a
    substring match cannot safely prune candidates, so it is left to the
    per-entry re-evaluation.
    """

    def __init__(self, indexes):
        self._indexes = indexes

    def plan(self, parsed: LdapFilter) -> FilterPlan:
        predicates = [predicate
                      for conjunct in self._conjuncts(parsed)
                      for predicate in [self._plan_conjunct(conjunct)]
                      if predicate is not None]
        predicates.sort(key=lambda p: (p.estimate, p.attribute, p.value or ""))
        return FilterPlan(parsed, predicates, self._indexes)

    @staticmethod
    def _conjuncts(parsed: LdapFilter) -> List[LdapFilter]:
        """Flatten top-level (possibly nested) AND into its conjuncts."""
        if not isinstance(parsed, AndFilter):
            return [parsed]
        flat: List[LdapFilter] = []
        stack = list(parsed.children)
        while stack:
            child = stack.pop(0)
            if isinstance(child, AndFilter):
                stack = list(child.children) + stack
            else:
                flat.append(child)
        return flat

    def _plan_conjunct(self, conjunct: LdapFilter
                       ) -> Optional[PlannedPredicate]:
        if isinstance(conjunct, EqualityFilter):
            estimate = self._indexes.estimate_equality(
                conjunct.attribute, conjunct.value)
            if estimate is None:
                return None
            return PlannedPredicate(conjunct.attribute, conjunct.value,
                                    estimate)
        if isinstance(conjunct, PresenceFilter):
            estimate = self._indexes.estimate_presence(conjunct.attribute)
            if estimate is None:
                return None
            return PlannedPredicate(conjunct.attribute, None, estimate)
        return None


def parse_filter(text: str) -> LdapFilter:
    """Parse an RFC 4515 filter string into an :class:`LdapFilter` tree."""
    if not text or not text.strip():
        raise FilterError("empty filter")
    text = text.strip()
    parsed, consumed = _parse_component(text, 0)
    if consumed != len(text):
        raise FilterError(f"trailing characters after filter: {text[consumed:]!r}")
    return parsed


def _parse_component(text: str, start: int) -> Tuple[LdapFilter, int]:
    if start >= len(text) or text[start] != "(":
        raise FilterError(f"expected '(' at position {start} in {text!r}")
    index = start + 1
    if index >= len(text):
        raise FilterError("unterminated filter")
    operator = text[index]
    if operator in "&|":
        index += 1
        children: List[LdapFilter] = []
        while index < len(text) and text[index] == "(":
            child, index = _parse_component(text, index)
            children.append(child)
        if index >= len(text) or text[index] != ")":
            raise FilterError("unterminated composite filter")
        if not children:
            raise FilterError("composite filter with no children")
        combinator = AndFilter if operator == "&" else OrFilter
        return combinator(children), index + 1
    if operator == "!":
        child, index = _parse_component(text, index + 1)
        if index >= len(text) or text[index] != ")":
            raise FilterError("unterminated NOT filter")
        return NotFilter(child), index + 1
    # Simple item: attribute=value up to the matching ')'
    end = text.find(")", index)
    if end < 0:
        raise FilterError("unterminated simple filter")
    item = text[index:end]
    if "=" not in item:
        raise FilterError(f"simple filter without '=': {item!r}")
    attribute, _, value = item.partition("=")
    attribute = attribute.strip()
    if not attribute:
        raise FilterError(f"missing attribute in {item!r}")
    if value == "*":
        return PresenceFilter(attribute), end + 1
    if "*" in value:
        return SubstringFilter(attribute, value), end + 1
    return EqualityFilter(attribute, value), end + 1
