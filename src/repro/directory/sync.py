"""Identity-location map synchronisation on scale-out (paper section 3.4.2).

"In every new blade cluster deployed, a data location stage instance is
created automatically [...] this distribution stage instance syncs its
identity-location maps with peer instances in other blade clusters [...]
however, this synchronization takes some time, during which operations issued
on the PoA realized by the new blade cluster cannot be handled.  Therefore
data availability (R) is affected by the data location sync mechanism
introduced to facilitate S."

The synchroniser provides both an analytic estimate (for the capacity
planner) and a simulation process that actually copies the entries over the
backbone in chunks, keeping the new locator in the "syncing" state until the
copy finishes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.directory.locator import ProvisionedLocator
from repro.sim import units


@dataclass
class MapSyncEstimate:
    """Analytic estimate of one map synchronisation."""

    entries: int
    bytes_transferred: int
    duration: float

    @property
    def unavailable_seconds(self) -> float:
        """Time during which the new PoA cannot serve operations."""
        return self.duration


class MapSynchroniser:
    """Copies identity-location maps from a peer locator to a new one."""

    def __init__(self, entry_bytes: int = 64,
                 backbone_bandwidth: float = 100 * units.MIB,
                 per_entry_cpu: float = 2 * units.MICROSECOND,
                 chunk_entries: int = 50_000):
        if entry_bytes <= 0 or backbone_bandwidth <= 0:
            raise ValueError("entry size and bandwidth must be positive")
        if chunk_entries < 1:
            raise ValueError("chunk size must be at least one entry")
        self.entry_bytes = entry_bytes
        self.backbone_bandwidth = backbone_bandwidth
        self.per_entry_cpu = per_entry_cpu
        self.chunk_entries = chunk_entries

    # -- analytic -----------------------------------------------------------------

    def estimate(self, entries: int) -> MapSyncEstimate:
        """Duration of a sync of ``entries`` identity-location tuples."""
        if entries < 0:
            raise ValueError("entries cannot be negative")
        total_bytes = entries * self.entry_bytes
        duration = (total_bytes / self.backbone_bandwidth
                    + entries * self.per_entry_cpu)
        return MapSyncEstimate(entries=entries, bytes_transferred=total_bytes,
                               duration=duration)

    # -- simulation -----------------------------------------------------------------

    def sync(self, sim, network, source_site, target_site,
             source: ProvisionedLocator, target: ProvisionedLocator):
        """Generator: copy all entries from ``source`` into ``target``.

        The target locator is unavailable (raises
        :class:`~repro.directory.errors.LocatorSyncInProgress`) until the
        copy completes.  Returns the produced :class:`MapSyncEstimate`.
        """
        entries = source.export_entries()
        target.begin_sync(len(entries))
        transferred = 0
        for start in range(0, len(entries), self.chunk_entries):
            chunk = entries[start:start + self.chunk_entries]
            payload = len(chunk) * self.entry_bytes
            yield from network.transfer(source_site, target_site,
                                        payload_bytes=payload)
            # Serialisation/deserialisation cost on the new stage.
            yield from sim.hold(len(chunk) * self.per_entry_cpu)
            target.import_entries(chunk)
            target.sync_progress(len(chunk))
            transferred += payload
        target.complete_sync()
        return MapSyncEstimate(entries=len(entries),
                               bytes_transferred=transferred,
                               duration=0.0)
