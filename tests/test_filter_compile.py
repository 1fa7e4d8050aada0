"""Compiled filter predicates over raw records, the DN text helper, the DN
work of an indexed search, and catalog-resolved identity reads."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.operations import Read, Search
from repro.core import ClientType
from repro.core import pipeline as pipeline_module
from repro.ldap import dn as dn_module
from repro.ldap import filters as filters_module
from repro.ldap.filters import parse_filter
from repro.ldap.schema import SubscriberSchema

from tests.conftest import build_udr, run_to_completion

# -- generated records and filters ---------------------------------------------

#: Small pools so generated filters hit generated records often: several
#: spellings of one attribute, the schema-level ``objectClass`` and ``dn``,
#: and IMSIs carrying DN-escapable characters.
IMSIS = ["1", "2", "a,b", "c+d"]
ATTRIBUTES = ["imsi", "IMSI", "msisdn", "MsIsDn", "homeRegion", "HOMEREGION",
              "objectClass", "objectclass", "OBJECTCLASS", "dn", "DN",
              "tags", "status"]
VALUES = ["a", "b", "1", "ab", SubscriberSchema.OBJECT_CLASS] + IMSIS + [
    SubscriberSchema.subscriber_dn_text(imsi) for imsi in IMSIS]

record_values = st.one_of(
    st.none(), st.sampled_from(VALUES), st.integers(0, 2),
    st.lists(st.sampled_from(VALUES), max_size=3))


@st.composite
def records(draw):
    """A raw record with a valid IMSI and arbitrary key spellings/order."""
    pairs = draw(st.lists(st.tuples(st.sampled_from(ATTRIBUTES),
                                    record_values), max_size=8))
    record = dict(pairs)
    # Overwriting keeps a drawn ``imsi`` key's position; otherwise appends.
    record["imsi"] = draw(st.sampled_from(IMSIS))
    return record


patterns = st.sampled_from(["a*", "*b", "*1*", "a*b", "*,*", "udr*"])
simple_filters = st.one_of(
    st.builds("({}={})".format, st.sampled_from(ATTRIBUTES),
              st.sampled_from(VALUES)),
    st.builds("({}=*)".format, st.sampled_from(ATTRIBUTES)),
    st.builds("({}={})".format, st.sampled_from(ATTRIBUTES), patterns))
filter_texts = st.recursive(
    simple_filters,
    lambda children: st.one_of(
        st.lists(children, min_size=1, max_size=3).map(
            lambda parts: "(&" + "".join(parts) + ")"),
        st.lists(children, min_size=1, max_size=3).map(
            lambda parts: "(|" + "".join(parts) + ")"),
        children.map(lambda part: "(!" + part + ")")),
    max_leaves=8)


class TestCompiledFilterEquivalence:
    @settings(max_examples=300)
    @given(filter_texts, st.lists(records(), min_size=1, max_size=4))
    def test_compile_equals_matches_on_entry_view(self, text, batch):
        parsed = parse_filter(text)
        for record in batch:
            constants = {
                "objectClass": SubscriberSchema.OBJECT_CLASS,
                "dn": SubscriberSchema.subscriber_dn_text(record["imsi"])}
            expected = parsed.matches(SubscriberSchema.ldap_entry(record))
            assert parsed.compile(constants)(record) == expected

    @settings(max_examples=300)
    @given(filter_texts, st.lists(records(), min_size=1, max_size=4))
    def test_record_predicate_equals_matches(self, text, batch):
        # One predicate over several records exercises its layout memo.
        parsed = parse_filter(text)
        predicate = SubscriberSchema.record_predicate(parsed)
        for record in batch:
            assert predicate(record) == parsed.matches(
                SubscriberSchema.ldap_entry(record))

    def test_record_spelling_precedes_schema_constant(self):
        # The entry view appends ``objectClass`` after the record's keys,
        # so an earlier differently-cased key wins, None included.
        parsed = parse_filter("(objectClass=*)")
        predicate = SubscriberSchema.record_predicate(parsed)
        shadowed = {"objectclass": None, "imsi": "1"}
        assert not parsed.matches(SubscriberSchema.ldap_entry(shadowed))
        assert not predicate(shadowed)
        assert predicate({"imsi": "1"})

    def test_attribute_names_fold_once_per_key_layout(self, monkeypatch):
        layouts = []
        locator = filters_module._locator

        def counting(layout, constants):
            layouts.append(layout)
            return locator(layout, constants)

        monkeypatch.setattr(filters_module, "_locator", counting)
        predicate = parse_filter("(&(HomeRegion=a)(objectClass=*))").compile(
            {"objectClass": SubscriberSchema.OBJECT_CLASS})
        for imsi in map(str, range(50)):
            assert predicate({"imsi": imsi, "homeRegion": "a"})
        assert not predicate({"homeRegion": "b", "imsi": "x"})
        assert layouts == [("imsi", "homeRegion"), ("homeRegion", "imsi")]


class TestSubscriberDnText:
    @pytest.mark.parametrize("imsi", ["214070000000001", "a,b", "x+y=z",
                                      "#lead", "back\\slash"])
    def test_equals_formatted_dn(self, imsi):
        assert SubscriberSchema.subscriber_dn_text(imsi) == str(
            SubscriberSchema.subscriber_dn(imsi))

    def test_empty_imsi_raises_like_the_dn(self):
        with pytest.raises(ValueError) as from_dn:
            SubscriberSchema.subscriber_dn("")
        with pytest.raises(ValueError) as from_text:
            SubscriberSchema.subscriber_dn_text("")
        assert str(from_text.value) == str(from_dn.value)


# -- the search and read paths -------------------------------------------------


def _provisioning_session(udr):
    client = udr.attach("compile-tester", udr.topology.sites[0],
                        client_type=ClientType.PROVISIONING)
    return client.session()


def _call(udr, session, operation):
    def driver():
        response = yield from session.submit(operation).wait()
        return response
    return run_to_completion(udr, driver())


def _pages(udr, session, operation):
    def driver():
        pages = yield from session.search_pages(operation)
        return pages
    return run_to_completion(udr, driver())


class TestSearchDnWork:
    def test_paged_subtree_search_builds_no_dn_per_candidate(
            self, monkeypatch):
        udr, profiles = build_udr(subscribers=100)
        session = _provisioning_session(udr)
        constructions = []
        original = dn_module.DistinguishedName.__init__

        def counting(dn, rdns):
            constructions.append(rdns)
            original(dn, rdns)

        monkeypatch.setattr(dn_module.DistinguishedName, "__init__", counting)
        pages = _pages(udr, session, Search.scoped(
            "(objectClass=udrSubscriber)", page_size=30))
        monkeypatch.undo()
        entries = [entry for page in pages for entry in page.entries]
        assert all(page.ok for page in pages) and len(pages) == 4
        assert len(entries) == len(profiles) == 100
        assert constructions == []
        for entry in entries:
            assert entry["dn"] == str(
                SubscriberSchema.subscriber_dn(entry["imsi"]))


class TestIdentityReadsThroughCatalog:
    IDENTITIES = ("msisdn", "impu", "impi")

    def _identity_reads(self, udr, session, profile):
        return {identity_type: _call(udr, session, Search(
                    identity_type, getattr(profile.identities,
                                           identity_type)))
                for identity_type in self.IDENTITIES}

    def test_postings_resolve_without_scanning(self, monkeypatch):
        udr, profiles = build_udr()
        session = _provisioning_session(udr)
        scans = []
        monkeypatch.setattr(pipeline_module, "find_identity_record",
                            lambda *args: scans.append(args))
        for profile in profiles[:5]:
            by_imsi = _call(udr, session, Read(profile.identities.imsi))
            assert by_imsi.ok
            for identity_type, response in self._identity_reads(
                    udr, session, profile).items():
                assert response.ok, identity_type
                assert response.entries == by_imsi.entries
        assert scans == []

    def test_missing_posting_falls_back_to_the_scan(self, monkeypatch):
        udr, profiles = build_udr()
        session = _provisioning_session(udr)
        profile = profiles[0]
        expected = self._identity_reads(udr, session, profile)
        key = f"{SubscriberSchema.RECORD_KEY_PREFIX}{profile.identities.imsi}"
        for identity_type in self.IDENTITIES:
            udr.deployment.catalog.attributes.discard(
                identity_type, key,
                (getattr(profile.identities, identity_type),))
        scans = []
        scan = pipeline_module.find_identity_record

        def counting(*args):
            scans.append(args[1])
            return scan(*args)

        monkeypatch.setattr(pipeline_module, "find_identity_record", counting)
        fallback = self._identity_reads(udr, session, profile)
        assert scans == list(self.IDENTITIES)
        for identity_type in self.IDENTITIES:
            assert fallback[identity_type].ok
            assert (fallback[identity_type].entries
                    == expected[identity_type].entries)
