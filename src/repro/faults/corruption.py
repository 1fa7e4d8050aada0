"""Silent data corruption: drift the replicas without any failure signal.

The incidents in :mod:`repro.faults.failures` are *loud* -- a crashed
element or a split backbone is visible to the availability manager.  A
:class:`SilentCorruption` is the opposite: it damages replicated state
without tripping any health signal, which is exactly the drift class the
CDC plane's :class:`~repro.cdc.reconcile.Reconciler` exists to catch.
Three kinds cover the master/replica/locator diff corners:

* ``byte_flip`` -- a slave copy's latest version of one record silently
  changes attribute bytes (same ``commit_seq``, wrong value): bit rot,
  a torn page, a bad NIC;
* ``locator_drop`` -- one data-location instance forgets a subscriber's
  identity entries: a lost provisioning update to one PoA's map;
* ``skip_apply`` -- a replication shipment is acknowledged (the shipped
  cursor advances) but never applied on the slave: a lost write on the
  receiving side.

Each kind is applied *surgically* through the same structures the real
paths use (version chains, locator maps, shipped cursors), so the
corruption is indistinguishable from the modelled hardware fault -- no
flag is left behind for the reconciler to cheat with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple


#: Attributes naming subscriber identities; flips avoid these so a
#: corrupted record stays resolvable (the realistic -- and harder to
#: notice -- case).
_IDENTITY_ATTRIBUTES: Tuple[str, ...] = ("imsi", "msisdn", "impu", "impi")

KINDS: Tuple[str, ...] = ("byte_flip", "locator_drop", "skip_apply")


@dataclass(frozen=True)
class SilentCorruption:
    """One scheduled silent-corruption incident."""

    site_name: str
    partition_index: int
    kind: str
    at: float = 0.0
    #: Specific record key to damage; ``None`` picks one deterministically
    #: from the supplied random stream.
    target_key: Optional[str] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown corruption kind {self.kind!r} "
                             f"(one of {', '.join(KINDS)})")
        if self.partition_index < 0:
            raise ValueError("partition index cannot be negative")
        if self.at < 0:
            raise ValueError("corruption time cannot be negative")


@dataclass
class CorruptionReport:
    """What one corruption actually did (the e23 latency baseline)."""

    corruption: SilentCorruption
    applied: bool = False
    applied_at: float = 0.0
    element_name: Optional[str] = None
    key: Optional[str] = None
    identities: Dict[str, str] = field(default_factory=dict)
    records_swallowed: int = 0
    detail: str = ""

    def __repr__(self) -> str:
        return (f"<CorruptionReport {self.corruption.kind} "
                f"applied={self.applied} key={self.key!r} "
                f"at={self.applied_at:.3f}>")


def apply_corruption(udr, corruption: SilentCorruption,
                     rng) -> CorruptionReport:
    """Apply one corruption to a live deployment, now.

    ``rng`` picks the victim record when ``target_key`` is unset (seed it
    from the simulation's named streams for reproducibility).  Returns a
    report; ``applied=False`` means no damage was possible (no slave at
    the site, empty store, or -- for ``skip_apply`` -- no unapplied
    shipment window right now; the injector's scheduled process retries
    the latter until traffic opens one).
    """
    report = CorruptionReport(corruption=corruption)
    if corruption.kind == "byte_flip":
        _apply_byte_flip(udr, corruption, rng, report)
    elif corruption.kind == "locator_drop":
        _apply_locator_drop(udr, corruption, rng, report)
    else:
        _apply_skip_apply(udr, corruption, report)
    if report.applied:
        report.applied_at = udr.sim.now
        udr.metrics.increment("faults.corruption.injected")
        udr.metrics.increment(f"faults.corruption.{corruption.kind}")
    return report


# -- kind: byte_flip -------------------------------------------------------------

def _slave_name_at_site(udr, corruption: SilentCorruption) -> Optional[str]:
    replica_set = udr.replica_sets[corruption.partition_index]
    for name in replica_set.slave_names():
        if udr.elements[name].site.name == corruption.site_name:
            return name
    return None


def _pick_key(store, corruption: SilentCorruption, rng) -> Optional[str]:
    if corruption.target_key is not None:
        return corruption.target_key
    keys = sorted(store.keys())
    return rng.choice(keys) if keys else None


def flip_value(value: Any, rng) -> Any:
    """A plausibly-corrupted copy of one record value.

    For attribute maps one non-identity string attribute is scrambled
    (identity attributes are kept intact so the record still resolves);
    scalar values are wrapped.  The result always differs from the input.
    """
    if isinstance(value, Mapping):
        flippable = sorted(
            attribute for attribute, attribute_value in value.items()
            if isinstance(attribute_value, str)
            and attribute not in _IDENTITY_ATTRIBUTES)
        corrupted = dict(value)
        if flippable:
            attribute = rng.choice(flippable)
            original = corrupted[attribute]
            corrupted[attribute] = (original[::-1] + "~") if original \
                else "~"
        else:
            corrupted["_bitrot"] = True
        return corrupted
    return f"~{value!r}~"


def flip_store_record(store, key: str, rng) -> bool:
    """Byte-flip the latest version of ``key`` in ``store``, in place.

    Same version slot, no new chain entry, applied-sequence untouched --
    the way bit rot would do it; the store's RAM accounting follows the
    value it now actually holds.  Returns False when the key has no live
    record (never written, or deleted: a tombstone is not revived).
    Usable directly against a bare replica-set copy in tests;
    :func:`apply_corruption` routes ``byte_flip`` through here.
    """
    latest = store.latest(key)
    if latest is None or latest.is_delete:
        return False
    return store.replace_latest(key, flip_value(latest.value, rng))


def _apply_byte_flip(udr, corruption: SilentCorruption, rng,
                     report: CorruptionReport) -> None:
    slave_name = _slave_name_at_site(udr, corruption)
    if slave_name is None:
        report.detail = "no slave copy at site"
        return
    replica_set = udr.replica_sets[corruption.partition_index]
    store = replica_set.copy_on(slave_name).store
    key = _pick_key(store, corruption, rng)
    if key is None:
        report.detail = "slave store is empty"
        return
    if not flip_store_record(store, key, rng):
        report.detail = f"no live record {key!r}"
        return
    report.applied = True
    report.element_name = slave_name
    report.key = key


# -- kind: locator_drop -----------------------------------------------------------

def _apply_locator_drop(udr, corruption: SilentCorruption, rng,
                        report: CorruptionReport) -> None:
    locator = udr.locators.get(f"cluster-{corruption.site_name}")
    if locator is None:
        report.detail = f"no locator at {corruption.site_name!r}"
        return
    replica_set = udr.replica_sets[corruption.partition_index]
    master_name = replica_set.master_element_name
    if master_name is None:
        report.detail = "partition has no master"
        return
    store = replica_set.copy_on(master_name).store
    key = _pick_key(store, corruption, rng)
    record = store.get(key) if key is not None else None
    if not isinstance(record, Mapping):
        report.detail = "no subscriber record to target"
        return
    identities = {attribute: str(record[attribute])
                  for attribute in _IDENTITY_ATTRIBUTES
                  if record.get(attribute) is not None}
    if not identities:
        report.detail = f"record {key!r} carries no identities"
        return
    locator.deregister(identities)
    report.applied = True
    report.element_name = master_name
    report.key = key
    report.identities = identities


# -- kind: skip_apply -------------------------------------------------------------

def _channel_for(udr, corruption: SilentCorruption):
    replica_set = udr.replica_sets[corruption.partition_index]
    for channel in udr.channels:
        if channel.replica_set is replica_set and \
                udr.elements[channel.slave_element_name].site.name == \
                corruption.site_name:
            return channel
    return None


def _apply_skip_apply(udr, corruption: SilentCorruption,
                      report: CorruptionReport) -> None:
    channel = _channel_for(udr, corruption)
    if channel is None:
        report.detail = "no replication channel to site"
        return
    master_name, pending = channel.pending_records()
    if not pending:
        report.detail = "no unapplied shipment window open"
        return
    # Acknowledge without applying: the shipped cursor jumps over the
    # pending records, so the mux never re-ships them and the slave is
    # silently, permanently behind -- until reconciliation replays them.
    channel._shipped_lsn[master_name] = pending[-1].lsn
    report.applied = True
    report.element_name = channel.slave_element_name
    report.key = pending[0].keys[0] if pending[0].keys else None
    report.records_swallowed = len(pending)
