"""The master-first copy choices answer what the member scan answers.

``ReadPath._choose_read_element`` answers a master-only read (the client's
policy reads from the master, shed mode is off, nothing is quarantined)
from the master's own availability and reachability.  Everything else
scans the reachable members.  The reference below is the scan alone,
applied to every read; both must pick the same copy and count the same
steered and shed-diverted reads, whatever the faults.

``WritePath.write_target`` likewise takes an up and reachable master
without listing the reachable members, and asks the multi-master
coordinator only otherwise; its reference hands every write to the
coordinator, which must pick the same copy, fail the same writes and
count the same rejected and degraded writes.
"""

from contextlib import contextmanager
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ClientType, UDRConfig
from repro.core.pipeline import OperationFailure
from repro.ldap.operations import ResultCode
from repro.net.partition import NetworkPartition
from repro.replication.multimaster import MasterUnreachable, MultiMasterStats

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


@contextmanager
def faults(udr, down, cuts, failed_sites):
    """Take ``down`` elements down, apply ``cuts`` and fail sites, for the
    body of the ``with`` only."""
    network, sites = udr.network, udr.topology.sites
    elements = sorted(udr.deployment.elements)
    try:
        for index in down:
            udr.deployment.elements[elements[index]]._available = False
        for kind, members in cuts:
            network.apply_partition(getattr(NetworkPartition, kind)(
                *(sites[index] for index in sorted(members))))
        for index in failed_sites:
            network.fail_site(sites[index])
        yield
    finally:
        for element in udr.deployment.elements.values():
            element._available = True
        network.clear_partitions()
        for site in sites:
            network.restore_site(site)


@settings(max_examples=150, deadline=None)
@given(client_type=st.sampled_from(list(ClientType)), shed=st.booleans(),
       quarantined=ELEMENTS, down=ELEMENTS, cuts=CUTS,
       failed_sites=st.sets(st.integers(0, 2), max_size=1),
       poa_index=st.integers(0, 2))
def test_master_only_choice_equals_the_member_scan(
        udr, client_type, shed, quarantined, down, cuts, failed_sites,
        poa_index):
    pipeline = udr.pipeline
    read_path = pipeline.read_path
    elements = sorted(udr.deployment.elements)
    batch = pipeline.batch
    counted = {"path": [], "reference": []}
    try:
        pipeline.shed_active = shed
        pipeline.read_quarantine.update(elements[index]
                                        for index in quarantined)
        pipeline.batch = SimpleNamespace(
            increment=lambda name: counted["path"].append(name))
        poa_site = udr.topology.sites[poa_index]
        with faults(udr, down, cuts, failed_sites):
            for replica_set in udr.deployment.replica_sets.values():
                chosen = read_path._choose_read_element(
                    replica_set, poa_site, client_type)
                expected = reference_choice(read_path, replica_set, poa_site,
                                            client_type,
                                            counted["reference"].append)
                assert chosen == expected
        assert counted["path"] == counted["reference"]
    finally:
        pipeline.batch = batch
        pipeline.shed_active = False
        pipeline.read_quarantine.clear()


def path_write_choice(write_path, ctx):
    """The copy ``write_target`` picks (its round trip stubbed out), or the
    failure it raises."""
    try:
        next(write_path.write_target(ctx))
    except StopIteration as stop:
        return stop.value[1]
    except OperationFailure as failure:
        return failure.code, failure.reason
    raise AssertionError("the stubbed round trip does not yield")


def reference_write_choice(write_path, ctx):
    """The coordinator's choice among every reachable member."""
    deployment = write_path.deployment
    index = deployment.primary_partition_of_element[ctx.located_element]
    members = write_path.reachable_members(deployment.replica_sets[index],
                                           ctx.poa.site)
    try:
        return deployment.coordinators[index].choose_write_element(
            members, timestamp=write_path.sim.now)
    except MasterUnreachable as error:
        return ResultCode.UNAVAILABLE, f"master unreachable ({error.reason})"


@settings(max_examples=150, deadline=None)
@given(multi_master=st.booleans(), down=ELEMENTS, cuts=CUTS,
       failed_sites=st.sets(st.integers(0, 2), max_size=1),
       poa_index=st.integers(0, 2))
def test_master_first_write_choice_equals_the_coordinator(
        udr, multi_master, down, cuts, failed_sites, poa_index):
    deployment = udr.deployment
    write_path = udr.pipeline.write_path
    coordinators = list(deployment.coordinators.values())
    saved = [(c.enabled, c.stats, c.divergence) for c in coordinators]
    ctx = SimpleNamespace(poa=SimpleNamespace(
        site=udr.topology.sites[poa_index]))
    write_path.element_round_trip = lambda *args, **kwargs: iter(())
    try:
        with faults(udr, down, cuts, failed_sites):
            for located in sorted(deployment.primary_partition_of_element):
                ctx.located_element = located
                outcomes, tallies = [], []
                for choose in (path_write_choice, reference_write_choice):
                    for coordinator in coordinators:
                        coordinator.enabled = multi_master
                        coordinator.stats = MultiMasterStats()
                        coordinator.divergence = {}
                    outcomes.append(choose(write_path, ctx))
                    tallies.append([
                        (c.stats.degraded_writes, c.stats.rejected_writes,
                         sorted(c.divergence)) for c in coordinators])
                assert outcomes[0] == outcomes[1]
                assert tallies[0] == tallies[1]
    finally:
        del write_path.element_round_trip
        for coordinator, (enabled, stats, divergence) in zip(coordinators,
                                                              saved):
            coordinator.enabled = enabled
            coordinator.stats = stats
            coordinator.divergence = divergence
