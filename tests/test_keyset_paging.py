"""The indexed search path pages by keyset over the catalog's listing.

``SearchPath._run_indexed`` walks the catalog's materialised
``(sort_key, entry_id)`` listing from the page's cursor, testing postings
and scope lazily.  These tests hold it to a reference that does what the
path did before the listing existed: materialise the scope's candidates
at page start, sort them, drop everything up to the cursor and fetch in
order.  Pages, cursors, ``has_more`` and the sim charge must all agree,
while creates, deletes, modifies and relabel-forcing inserts land during
the page's fetches.
"""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.core.pipeline import OperationFailure, SearchPath
from repro.directory import DirectoryCatalog
from repro.ldap.dn import DistinguishedName
from repro.ldap.filters import FilterPlanner, parse_filter
from repro.ldap.operations import ResultCode, SearchScope
from repro.ldap.schema import SubscriberSchema
from repro.ldap.server import OperationPlan, PlanKind

ROOT = DistinguishedName.parse("dc=example")
INDEXED = ("color",)
COLORS = ("red", "blue", "green")
FILTERS = (
    "(color=red)",                          # one indexed conjunct
    "(&(color=blue)(size=1))",              # indexed + unindexed
    "(|(color=red)(color=green))",          # nothing indexable
    "(color=*)",                            # indexed presence
)
#: Handed to the test by the stub fetch; the page yields it once per fetch.
FETCH = object()


def _view(key, value):
    if not isinstance(value, dict):
        return None
    return DistinguishedName.parse(value["dn"]), value


class World:
    """A catalog and the records it was folded from."""

    def __init__(self):
        self.catalog = DirectoryCatalog(_view, INDEXED)
        self.store = {}
        self.created = 0

    def create(self, dn, color, size=0):
        node = self.catalog.dit.find(dn)
        if node is not None and node.entry_id is not None:
            return None  # one entry per DN
        self.created += 1
        key = f"e{self.created:04d}"
        record = {"dn": str(dn), "imsi": str(1000 + self.created),
                  "color": color, "size": size}
        self.store[key] = record
        self.catalog.upsert(key, record, self.created % 2)
        return key

    def delete(self, key):
        if self.store.pop(key, None) is not None:
            self.catalog.remove(key)

    def modify(self, key, color):
        if key in self.store:
            record = dict(self.store[key], color=color)
            self.store[key] = record
            self.catalog.upsert(key, record, 0)


def _dn(path, leaf):
    dn = ROOT
    for attribute, value in path:
        dn = dn.child(attribute, value)
    return dn.child("uid", leaf)


PATHS = st.lists(st.tuples(st.sampled_from(["ou", "cn"]),
                           st.sampled_from(["a", "b", "c"])), max_size=2)
#: Leaf values collide across paths, so sort keys tie and the entry id
#: breaks the tie.
LEAVES = st.sampled_from(["k0", "k1", "k2", "k3", "k4", "k5"])
ENTRIES = st.lists(st.tuples(PATHS, LEAVES, st.sampled_from(COLORS),
                             st.integers(0, 1)), min_size=1, max_size=30)
#: What lands during one fetch: nothing, a create, a delete or a modify of
#: the n-th live key, or a burst of siblings under a fresh container that
#: exhausts its label gap and relabels the tree.
MUTATIONS = st.one_of(
    st.just(("none",)),
    st.tuples(st.just("create"), PATHS, LEAVES, st.sampled_from(COLORS)),
    st.tuples(st.just("delete"), st.integers(0, 40)),
    st.tuples(st.just("modify"), st.integers(0, 40),
              st.sampled_from(COLORS)),
    st.tuples(st.just("burst"), st.sampled_from(["x", "y"])),
)


def _mutate(world, mutation):
    kind = mutation[0]
    live = sorted(world.store)
    if kind == "create":
        world.create(_dn(mutation[1], mutation[2]), mutation[3])
    elif kind == "delete" and live:
        world.delete(live[mutation[1] % len(live)])
    elif kind == "modify" and live:
        world.modify(live[mutation[1] % len(live)], mutation[2])
    elif kind == "burst":
        relabels = world.catalog.relabels
        parent = ROOT.child("ou", f"burst-{mutation[1]}-{world.created}")
        while world.catalog.relabels == relabels:
            world.create(parent.child("uid", f"b{world.created}"), "red")


class _StubPath(SearchPath):
    """The real page walk over a stub deployment: the fetch reads the
    world's records and hands control to the test once per fetch."""

    def __init__(self, world):
        self.world = world
        self.sim = SimpleNamespace(timeout=lambda delay: ("charge", delay))
        self.config = SimpleNamespace(search_index_enabled=True)
        self.pipeline = SimpleNamespace(batch=SimpleNamespace(
            record_read=lambda *args, **kwargs: None))
        self.deployment = SimpleNamespace(catalog=world.catalog,
                                          replica_sets={0: None, 1: None})

    def _fetch(self, ctx, replica_set, entry_id, ledger):
        yield FETCH
        record = self.world.store.get(entry_id)
        return record if isinstance(record, dict) else None


def _context(base, scope, page_size):
    plan = OperationPlan(kind=PlanKind.SEARCH, scope=scope, base_dn=base,
                         page_size=page_size)
    return SimpleNamespace(
        plan=plan, entries=[], served_from="", next_cursor=None,
        has_more=False, client_type=SimpleNamespace(value="ps"),
        poa=SimpleNamespace(ldap_pool=SimpleNamespace(service_time=lambda: 1)))


def keyset_page(world, base, scope, filter_text, cursor, page_size,
                mutations):
    """One page from the real path: ``(entries, cursor, has_more, charge)``,
    or the failure's result code."""
    parsed = parse_filter(filter_text)
    path = _StubPath(world)
    ctx = _context(base, scope, page_size)
    planned = FilterPlanner(world.catalog.attributes).plan(parsed)
    charges = []
    pending = iter(mutations)
    try:
        page = path._run_indexed(ctx, parsed, planned,
                                 SearchPath._parse_cursor(cursor), None)
        for step in page:
            if step is FETCH:
                _mutate(world, next(pending, ("none",)))
            else:
                charges.append(step[1])
    except OperationFailure as failure:
        return failure.code
    return ctx.entries, ctx.next_cursor, ctx.has_more, charges


def _scope_matches(dn, base, scope):
    if scope is SearchScope.BASE:
        return dn == base
    if scope is SearchScope.ONE_LEVEL and len(dn) != len(base) + 1:
        return False
    return dn.is_descendant_of(base)


def reference_page(world, base, scope, filter_text, cursor, page_size,
                   mutations):
    """The same page, materialised, sorted and sliced at page start."""
    catalog = world.catalog
    dit = catalog.dit
    if dit.find(base) is None:
        return ResultCode.NO_SUCH_OBJECT
    parsed = parse_filter(filter_text)
    postings = FilterPlanner(catalog.attributes).plan(parsed).candidates()
    candidates = [key for key in world.store
                  if _scope_matches(catalog.entry(key).dn, base, scope)
                  and (postings is None or key in postings)]
    if scope is SearchScope.BASE:
        comparisons = 1
    else:
        inner = sum(1 for text in dit._nodes
                    if DistinguishedName.parse(text).is_descendant_of(base)
                    and text != str(base))
        comparisons = 2 * max(1, dit.node_count().bit_length()) + inner
    comparisons += len(candidates)
    ordered = sorted((catalog.sort_key_of(key), key) for key in candidates)
    after = SearchPath._parse_cursor(cursor)
    if after is not None:
        ordered = [pair for pair in ordered if pair > after]
    predicate = SubscriberSchema.record_predicate(parsed)
    pending = iter(mutations)
    matches = []
    consumed = 0
    for sort_key, key in ordered:
        consumed += 1
        if catalog.partition_of(key) is None:
            continue
        _mutate(world, next(pending, ("none",)))
        record = world.store.get(key)
        if record is None or not predicate(record):
            continue
        matches.append((sort_key, key, SubscriberSchema.ldap_entry(record)))
        if page_size is not None and len(matches) >= page_size:
            break
    entries = [entry for _sort_key, _key, entry in matches]
    if page_size is not None and consumed < len(ordered):
        last = matches[-1]
        return entries, f"{last[0]}|{last[1]}", True, [comparisons]
    return entries, None, False, [comparisons]


def _twin_worlds(entries):
    worlds = (World(), World())
    for world in worlds:
        for path, leaf, color, size in entries:
            world.create(_dn(path, leaf), color, size)
    return worlds


@settings(max_examples=200, deadline=None)
@given(entries=ENTRIES, data=st.data())
def test_keyset_pages_equal_the_materialised_reference(entries, data):
    walked, reference = _twin_worlds(entries)
    nodes = sorted(walked.catalog.dit._nodes)
    base = data.draw(st.one_of(
        st.sampled_from(nodes).map(DistinguishedName.parse),
        st.just(ROOT.child("ou", "missing"))))
    scope = data.draw(st.sampled_from(list(SearchScope)))
    filter_text = data.draw(st.sampled_from(FILTERS))
    page_size = data.draw(st.one_of(st.none(), st.integers(1, 4)))
    cursor = None
    for _page in range(12):
        mutations = data.draw(st.lists(MUTATIONS, max_size=4))
        got = keyset_page(walked, base, scope, filter_text, cursor,
                          page_size, mutations)
        expected = reference_page(reference, base, scope, filter_text,
                                  cursor, page_size, mutations)
        assert got == expected
        if not isinstance(got, tuple):
            return
        _entries, cursor, has_more, _charge = got
        if not has_more:
            return
        if data.draw(st.booleans()):
            # The cursor's own entry is deleted between pages: the next
            # page still starts right after its key.
            key = cursor.rpartition("|")[2]
            walked.delete(key)
            reference.delete(key)


def test_page_cost_is_flat_in_page_depth(monkeypatch):
    """Paging to the end of a 10 000-entry scope: the walk takes as many
    listing steps on the last page as on the first, not more."""
    world = World()
    flat = ROOT.child("ou", "flat")
    items = []
    for index in range(10_000):
        key = f"f{index:05d}"
        world.store[key] = {"dn": str(flat.child("uid", f"k{index:05d}")),
                            "imsi": str(index + 1),
                            "color": COLORS[(index + 1) % 2]}
        items.append((key, world.store[key], 0))
    # An entry outside the scope, so the walk tests scope as well as
    # postings.
    world.store["other"] = {"dn": str(ROOT.child("uid", "other")),
                            "imsi": "0", "color": "red"}
    items.append(("other", world.store["other"], 0))
    world.catalog.bulk_load(items)
    steps = []
    listing_after = DirectoryCatalog.listing_after

    def counted(catalog, after):
        pairs, dns = listing_after(catalog, after)

        def walk():
            for pair in pairs:
                steps[-1] += 1
                yield pair
        return walk(), dns

    monkeypatch.setattr(DirectoryCatalog, "listing_after", counted)
    cursor, has_more, returned = None, True, 0
    while has_more:
        steps.append(0)
        entries, cursor, has_more, _charge = keyset_page(
            world, flat, SearchScope.SUBTREE, "(color=red)", cursor, 100, [])
        returned += len(entries)
    assert returned == 5_000 and len(steps) == 50
    assert steps[-1] <= steps[0]
    # Every other entry is red: a page walks two steps per hit, then looks
    # ahead to the next red one.
    assert max(steps) <= 2 * 100 + 2


class TestListing:
    def test_listing_stays_sorted_through_creates_deletes_and_loads(self):
        world = World()
        for index in range(40):
            world.create(_dn([("ou", "abc"[index % 3])], f"k{index % 7}"),
                         COLORS[index % 3])
        for key in sorted(world.store)[::3]:
            world.delete(key)
        catalog = world.catalog

        def listed(catalog):
            pairs, dns = catalog.listing_after(None)
            return list(zip(pairs, dns))

        expected = sorted(((entry.sort_key, key), entry.dn)
                          for key in world.store
                          for entry in [catalog.entry(key)])
        assert listed(catalog) == expected
        reloaded = DirectoryCatalog(_view, INDEXED)
        reloaded.bulk_load((key, record, 0)
                           for key, record in world.store.items())
        assert listed(reloaded) == expected
        pairs, _dns = catalog.listing_after(expected[4][0])
        assert pairs == [pair for pair, _dn in expected[5:]]
