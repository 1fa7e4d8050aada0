"""Per-session quality-of-service: priority, retries and deadlines.

A :class:`QoSProfile` scopes quality-of-service choices to one client
session (or one operation); the deployment itself sets none of them:

* ``priority`` -- the admission class of the session's operations
  (``None`` keeps the client type's natural class: FE -> signalling,
  PS -> provisioning);
* ``retry_policy`` -- bounded retries of the session's operations on
  transient result codes (``None`` fails fast, on every path);
* ``deadline_ticks`` -- a per-operation completion budget, in ticks of
  :data:`DEADLINE_TICK` from submit time.  An operation still queued or
  retrying when its deadline passes short-circuits with
  ``TIME_LIMIT_EXCEEDED`` instead of consuming pipeline hops -- the
  dispatcher answers expired tickets the moment the deadline passes (an
  early-wake timeout, never a wave slot), and the retry stage refuses to
  start (or re-drive) expired work;
* ``rate_limit`` -- a token-bucket admission quota
  (:class:`~repro.core.config.RateLimit`).  The bucket lives on the
  :class:`~repro.api.session.UDRClient`, so the quota bounds the *client*,
  not each individual session: over-quota operations are answered ``BUSY``
  at ``session.submit`` without touching the dispatcher or pipeline.

Profiles merge: a session profile is the base, a per-operation profile
overrides field by field (:meth:`QoSProfile.layered`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim import units
from repro.core.config import Priority, RateLimit, RetryPolicy

#: Virtual duration of one ``deadline_ticks`` tick (same grid as the
#: dispatcher's linger ticks, so budgets compose readably with linger).
DEADLINE_TICK = 1 * units.MILLISECOND


@dataclass(frozen=True)
class QoSProfile:
    """QoS of one client session; every field ``None`` inherits the default."""

    priority: Optional[Priority] = None
    retry_policy: Optional[RetryPolicy] = None
    deadline_ticks: Optional[int] = None
    rate_limit: Optional[RateLimit] = None

    def __post_init__(self):
        if self.deadline_ticks is not None and self.deadline_ticks < 0:
            raise ValueError("deadline ticks cannot be negative")

    @property
    def is_default(self) -> bool:
        """Whether this profile changes nothing (pure inheritance)."""
        return (self.priority is None and self.retry_policy is None
                and self.deadline_ticks is None and self.rate_limit is None)

    def layered(self, override: Optional["QoSProfile"]) -> "QoSProfile":
        """This profile with ``override``'s non-``None`` fields applied."""
        if override is None or override.is_default:
            return self
        return QoSProfile(
            priority=override.priority if override.priority is not None
            else self.priority,
            retry_policy=override.retry_policy
            if override.retry_policy is not None else self.retry_policy,
            deadline_ticks=override.deadline_ticks
            if override.deadline_ticks is not None else self.deadline_ticks,
            rate_limit=override.rate_limit
            if override.rate_limit is not None else self.rate_limit)

    def deadline_at(self, now: float) -> Optional[float]:
        """The absolute virtual-time deadline of work submitted at ``now``."""
        if self.deadline_ticks is None:
            return None
        return now + self.deadline_ticks * DEADLINE_TICK
