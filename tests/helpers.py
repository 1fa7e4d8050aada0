"""Shared helpers for building small simulated deployments in tests."""

from repro.cluster.saf import AvailabilityManager
from repro.net import Network, make_multinational_topology
from repro.replication import ReplicaSet, ReplicationMux
from repro.sim import Simulation
from repro.storage import DataPartition, ReplicaRole, StorageElement


def build_replicated_partition(seed=1, num_elements=3, replication_factor=3,
                               subscriber_capacity=1_000_000):
    """One partition replicated across ``num_elements`` sites.

    Returns (sim, network, topology, elements, replica_set); element ``i``
    lives at site ``i`` of a three-country topology and element 0 holds the
    master copy.
    """
    sim = Simulation(seed=seed)
    topology = make_multinational_topology(("spain", "sweden", "germany"),
                                           sites_per_region=2)
    network = Network(sim, topology)
    sites = topology.sites
    partition = DataPartition(0)
    replica_set = ReplicaSet(partition)
    elements = []
    for index in range(num_elements):
        element = StorageElement(
            f"se-{index}", site=sites[index % len(sites)],
            subscriber_capacity=subscriber_capacity)
        role = ReplicaRole.PRIMARY if index == 0 else ReplicaRole.SECONDARY
        if index < replication_factor:
            replica_set.add_member(element, role)
        elements.append(element)
    return sim, network, topology, elements, replica_set


def master_write(replica_set, key, value, timestamp=0.0):
    """Commit one write on the replica set's master copy; returns the record."""
    copy = replica_set.master_copy
    tx = copy.transactions.begin()
    tx.write(key, value)
    return tx.commit(timestamp=timestamp)


def replicate(sim, network, channels, until=None, availability=None,
              **mux_options):
    """Ship ``channels`` through a started mux and run the simulation.

    The channels are attached to a :class:`~repro.replication.mux.
    ReplicationMux` built with ``availability`` (a fresh
    :class:`~repro.cluster.saf.AvailabilityManager` when omitted) and a
    50 ms ship linger; the mux is started, so records committed before or
    after the call ship on the next grid point.  Runs to ``until``, or
    until the event queue drains when ``until`` is ``None``.  Returns the
    mux.
    """
    mux = ReplicationMux(sim, network,
                         availability or AvailabilityManager(sim),
                         ship_linger=0.05, **mux_options)
    for channel in channels:
        mux.attach(channel)
    mux.start()
    sim.run(until=until)
    return mux


def run_process(sim, generator):
    """Run a generator as a process to completion and return its value."""
    process = sim.process(generator)
    sim.run()
    if not process.ok:
        raise process.exception
    return process.value


# -- seeded silent-corruption factories --------------------------------------------
#
# Shared by test_replication, test_cdc and test_reconciliation: every
# corruption in the suite is built here from an explicit seed, so a failing
# run replays bit-for-bit.

def corruption_rng(seed=11):
    """The deterministic victim-picking stream for corruption helpers."""
    import random
    return random.Random(seed)


def flip_slave_record(replica_set, slave_name, key, seed=11):
    """Byte-flip ``key``'s latest version on one slave copy (seeded)."""
    from repro.faults import flip_store_record
    store = replica_set.copy_on(slave_name).store
    assert flip_store_record(store, key, corruption_rng(seed)), \
        f"no live record {key!r} on {slave_name}"
    return store.latest(key)


def site_of_slave(udr, partition_index=0, slave_offset=0):
    """The site name hosting one slave copy of a partition."""
    replica_set = udr.replica_sets[partition_index]
    slave = replica_set.slave_names()[slave_offset]
    return udr.elements[slave].site.name


def site_of_master(udr, partition_index=0):
    """The site name hosting the partition's current master copy."""
    replica_set = udr.replica_sets[partition_index]
    return udr.elements[replica_set.master_element_name].site.name


def make_corruption(udr, kind, partition_index=0, at=0.0, target_key=None):
    """A :class:`~repro.faults.SilentCorruption` aimed at a valid site.

    ``byte_flip`` and ``skip_apply`` need a slave at the site;
    ``locator_drop`` targets the site whose locator serves the master.
    """
    from repro.faults import SilentCorruption
    if kind == "locator_drop":
        site = site_of_master(udr, partition_index)
    else:
        site = site_of_slave(udr, partition_index)
    return SilentCorruption(site_name=site, partition_index=partition_index,
                            kind=kind, at=at, target_key=target_key)


def inject_corruption(udr, kind, partition_index=0, seed=11, target_key=None):
    """Build and immediately apply one corruption; returns the report."""
    from repro.faults import apply_corruption
    corruption = make_corruption(udr, kind, partition_index,
                                 target_key=target_key)
    return apply_corruption(udr, corruption, corruption_rng(seed))


# -- the post-heal convergence scenario ------------------------------------------------
#
# Shared by the property in test_reconciliation and the pinned compound-
# fault regression in test_membership.

#: When each drawn incident starts, in draw order (simulated seconds).
POST_HEAL_START_GRID = (0.5, 1.4, 2.3)
POST_HEAL_INCIDENT_DURATION = 0.6
POST_HEAL_AT = 3.2
POST_HEAL_QUIESCE = 2.8


def run_healed_fault_schedule(incidents, seed):
    """Inject ``incidents`` under live writes, heal everything, quiesce.

    ``incidents`` is a list of ``(kind, site_index)`` pairs, ``kind`` one
    of ``crash``, ``partition``, ``asym_partition`` or ``disaster``; the
    i-th starts at ``POST_HEAL_START_GRID[i]``.  The deployment runs the
    membership plane.  Returns ``(checker, replicas, locators)``: the
    stopped :class:`~repro.faults.InvariantChecker` (its ``violations``
    log) and its final replica / locator convergence verdicts.
    """
    from repro.api.operations import Read, Write
    from repro.core import ClientType, UDRConfig
    from repro.core.config import MembershipPolicy
    from repro.faults import (
        FaultInjector,
        FaultSchedule,
        InvariantChecker,
        PartitionIncident,
        SiteDisaster,
    )
    from repro.net import NetworkPartition
    from tests.conftest import build_udr

    config = UDRConfig(seed=seed, name="post-heal",
                       membership=MembershipPolicy())
    udr, profiles = build_udr(config, subscribers=18)
    sim = udr.sim
    sessions = [udr.attach(f"fe-{site.name}", site,
                           client_type=ClientType.APPLICATION_FE)
                .session()
                for site in udr.topology.sites]

    def traffic():
        rng = sim.rng("postheal.traffic")
        index = 0
        while sim.now < POST_HEAL_AT:
            yield sim.timeout(rng.expovariate(40.0))
            profile = profiles[index % len(profiles)]
            operation = (Write(profile.identities.imsi,
                               {"servingMsc": f"m-{index}"})
                         if index % 3 else Read(profile.identities.imsi))
            sessions[index % len(sessions)].submit(operation)
            index += 1

    sim.process(traffic(), name="postheal:traffic")
    checker = InvariantChecker(udr)
    checker.start()

    schedule = FaultSchedule()
    crashes = []
    for start, (kind, site_index) in zip(POST_HEAL_START_GRID, incidents):
        site = udr.topology.sites[site_index]
        if kind == "crash":
            crashes.append((start, min(
                name for name, element in udr.elements.items()
                if element.site == site)))
        elif kind == "disaster":
            schedule.add_disaster(SiteDisaster(
                site.name, start=start,
                duration=POST_HEAL_INCIDENT_DURATION))
        else:
            partition = (NetworkPartition.one_way(site)
                         if kind == "asym_partition"
                         else NetworkPartition.isolating(site))
            schedule.add_partition(PartitionIncident(
                partition, start=start,
                duration=POST_HEAL_INCIDENT_DURATION))
    schedule.validate()
    FaultInjector(udr, schedule).start()

    def crash_later(at, element_name):
        yield sim.timeout(at - sim.now)
        if udr.elements[element_name].available:
            udr.crash_element(element_name)

    for at, element_name in crashes:
        sim.process(crash_later(at, element_name),
                    name=f"postheal:crash:{element_name}")

    sim.run(until=POST_HEAL_AT)
    udr.network.clear_partitions()
    for site in udr.topology.sites:
        if udr.network.site_failed(site):
            udr.network.restore_site(site)
    for poa in udr.points_of_access:
        if not poa.available:
            poa.restore()
    for name, element in sorted(udr.elements.items()):
        if not element.available:
            udr.recover_element(name)
    sim.run(until=POST_HEAL_AT + POST_HEAL_QUIESCE)

    checker.stop()
    replicas, locators = checker.final_check()
    checker.close()
    return checker, replicas, locators
