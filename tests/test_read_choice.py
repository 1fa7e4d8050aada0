"""The master-only read choice answers what the member scan answers.

``ReadPath._choose_read_element`` answers a master-only read (the client's
policy reads from the master, shed mode is off, nothing is quarantined)
from the master's own availability and reachability.  Everything else
scans the reachable members.  The reference below is the scan alone,
applied to every read; both must pick the same copy and count the same
steered and shed-diverted reads, whatever the faults.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ClientType, UDRConfig
from repro.net.partition import NetworkPartition

from tests.conftest import build_udr


def reference_choice(read_path, replica_set, poa_site, client_type, count):
    """The member scan for every read, counting through ``count``."""
    pipeline, config = read_path.pipeline, read_path.config
    reachable = read_path.reachable_members(replica_set, poa_site)
    if not reachable:
        return None
    quarantine = pipeline.read_quarantine
    master = replica_set.master_element_name
    if quarantine:
        cleared = [name for name in reachable
                   if name not in quarantine or name == master]
        if cleared and len(cleared) < len(reachable):
            reachable = cleared
            count("reconciliation.reads_steered")
    if not config.reads_from_slave(client_type) and \
            not pipeline.shed_active:
        return master if master in reachable else None
    choice = next((name for name in reachable
                   if replica_set.element(name).site == poa_site), None)
    if choice is None:
        choice = min(reachable,
                     key=lambda name: read_path.network.mean_one_way_latency(
                         poa_site, replica_set.element(name).site))
    if choice != master and not config.reads_from_slave(client_type):
        count("dispatcher.shed.slave_reads")
    return choice


@pytest.fixture(scope="module")
def udr():
    udr, _profiles = build_udr(UDRConfig(seed=7, replication_factor=3))
    return udr


ELEMENTS = st.sets(st.integers(0, 5), max_size=3)
CUTS = st.lists(st.tuples(st.sampled_from(["one_way", "isolating"]),
                          st.sets(st.integers(0, 2), min_size=1,
                                  max_size=2)), max_size=2)


@settings(max_examples=150, deadline=None)
@given(client_type=st.sampled_from(list(ClientType)), shed=st.booleans(),
       quarantined=ELEMENTS, down=ELEMENTS, cuts=CUTS,
       failed_sites=st.sets(st.integers(0, 2), max_size=1),
       poa_index=st.integers(0, 2))
def test_master_only_choice_equals_the_member_scan(
        udr, client_type, shed, quarantined, down, cuts, failed_sites,
        poa_index):
    pipeline, network = udr.pipeline, udr.network
    read_path = pipeline.read_path
    sites = udr.topology.sites
    elements = sorted(udr.deployment.elements)
    batch = pipeline.batch
    counted = {"path": [], "reference": []}
    try:
        pipeline.shed_active = shed
        pipeline.read_quarantine.update(elements[index]
                                        for index in quarantined)
        for index in down:
            udr.deployment.elements[elements[index]]._available = False
        for kind, members in cuts:
            network.apply_partition(getattr(NetworkPartition, kind)(
                *(sites[index] for index in sorted(members))))
        for index in failed_sites:
            network.fail_site(sites[index])
        pipeline.batch = SimpleNamespace(
            increment=lambda name: counted["path"].append(name))
        poa_site = sites[poa_index]
        for replica_set in udr.deployment.replica_sets.values():
            chosen = read_path._choose_read_element(replica_set, poa_site,
                                                    client_type)
            expected = reference_choice(read_path, replica_set, poa_site,
                                        client_type,
                                        counted["reference"].append)
            assert chosen == expected
        assert counted["path"] == counted["reference"]
    finally:
        pipeline.batch = batch
        pipeline.shed_active = False
        pipeline.read_quarantine.clear()
        for element in udr.deployment.elements.values():
            element._available = True
        network.clear_partitions()
        for site in sites:
            network.restore_site(site)
