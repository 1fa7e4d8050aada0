"""Provisioning back-log model (paper section 3.3).

"Out of those periods long delays in processing provisioning transactions
might cause a back-log of operations to grow at the PS.  If this back-log
overflows for some reason, dropping operations in the way, outcome would be
fatal."  The model is a bounded queue with arrival/completion bookkeeping:
experiments drive it with the PS's actual operation stream and read out the
peak depth, overflow drops and the time spent above a warning level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


@dataclass
class BacklogModel:
    """Bounded backlog with depth tracking."""

    capacity: int = 10_000
    warning_level: Optional[int] = None
    depth: int = 0
    peak_depth: int = 0
    arrivals: int = 0
    completions: int = 0
    dropped: int = 0
    _timeline: List[Tuple[float, int]] = field(default_factory=list)

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("backlog capacity must be at least 1")
        if self.warning_level is None:
            self.warning_level = int(self.capacity * 0.8)

    # -- queue events -----------------------------------------------------------

    def arrive(self, timestamp: float) -> bool:
        """An operation arrived; returns False (and drops it) on overflow."""
        self.arrivals += 1
        if self.depth >= self.capacity:
            self.dropped += 1
            self._timeline.append((timestamp, self.depth))
            return False
        self.depth += 1
        self.peak_depth = max(self.peak_depth, self.depth)
        self._timeline.append((timestamp, self.depth))
        return True

    def complete(self, timestamp: float, dropped: bool = False) -> None:
        """An operation finished (or was abandoned)."""
        if self.depth > 0:
            self.depth -= 1
        self.completions += 1
        self._timeline.append((timestamp, self.depth))

    # -- analysis -----------------------------------------------------------------

    @property
    def overflowed(self) -> bool:
        return self.dropped > 0

    def timeline(self) -> List[Tuple[float, int]]:
        return list(self._timeline)

    def __repr__(self) -> str:
        return (f"<BacklogModel depth={self.depth} peak={self.peak_depth} "
                f"dropped={self.dropped}>")
