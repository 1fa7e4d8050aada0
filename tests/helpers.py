"""Shared helpers for building small simulated deployments in tests."""

from repro.net import Network, make_multinational_topology
from repro.replication import ReplicaSet
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
