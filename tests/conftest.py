"""Shared fixtures: a small UDR deployment with a loaded subscriber base."""

import pytest
from hypothesis import strategies as st

from repro.core import ClientType, UDRConfig, UDRNetworkFunction
from repro.subscriber import SubscriberGenerator


def pytest_collection_finish(session):
    """Build Hypothesis' default text alphabet before the first test runs.

    The first ``st.text()`` draw of a process computes the set of
    characters UTF-8 can encode by trying every code point, then caches it
    under ``.hypothesis/unicode_data/``.  Without that cache (a fresh
    clone, a CI runner) the ``@given`` test that draws text first pays
    several seconds inside its ``too_slow`` health-check window and fails.
    Validating the strategy here builds the alphabet once, outside any
    test; no health check is relaxed.
    """
    st.text().validate()


def build_udr(config=None, subscribers=60, seed=7):
    """Build and start a small deployment with a loaded subscriber base."""
    config = config or UDRConfig(seed=seed)
    udr = UDRNetworkFunction(config)
    udr.start()
    generator = SubscriberGenerator(config.regions, seed=seed)
    profiles = generator.generate(subscribers)
    udr.load_subscriber_base(profiles)
    return udr, profiles


def run_to_completion(udr, generator):
    """Run a client generator (e.g. ``session.call(op)`` or
    ``udr.pipeline.execute(...)``) until it finishes."""
    process = udr.sim.process(generator)
    udr.sim.run_until_triggered(process, limit=udr.sim.now + 120.0)
    if not process.triggered:
        raise AssertionError("operation did not complete within 120 s of "
                             "simulated time")
    if not process.ok:
        raise process.exception
    return process.value


@pytest.fixture(scope="module")
def small_udr():
    """A module-scoped deployment for read-only inspection tests."""
    udr, profiles = build_udr()
    return udr, profiles


@pytest.fixture
def fresh_udr():
    """A function-scoped deployment for tests that mutate state."""
    udr, profiles = build_udr()
    return udr, profiles


@pytest.fixture
def client_site(fresh_udr):
    udr, _ = fresh_udr
    return udr.topology.sites[0]


def fe_site_for(udr, profile):
    """The site an FE serving this subscriber would use (current region)."""
    region = profile.current_region or profile.home_region
    for site in udr.topology.sites:
        if site.region.name == region:
            return site
    return udr.topology.sites[0]
