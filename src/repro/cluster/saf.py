"""SAF-style availability management of cluster components.

"To maintain high availability figures, the cluster should be compliant to
the Service Availability Forum (SAF) specifications so it provides Fault
Tolerance and High Availability to the UDR processes" (section 3.4.1).

The availability manager is a simulation actor: it watches registered
components (storage elements, PoAs), notices failures, and schedules their
repair after a configurable restart/repair time, restoring them
automatically.  It also keeps per-component downtime accounting used by the
availability experiments.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.sim import units


class ComponentState(enum.Enum):
    IN_SERVICE = "in-service"
    FAILED = "failed"
    REPAIRING = "repairing"


@dataclass
class ManagedComponent:
    """One component under availability management."""

    name: str
    fail_action: Callable[[], None]
    repair_action: Callable[[], None]
    repair_time: float
    state: ComponentState = ComponentState.IN_SERVICE
    failures: int = 0
    downtime: float = 0.0
    failed_at: Optional[float] = None


class AvailabilityManager:
    """Detects failures and restores components after their repair time."""

    def __init__(self, sim, name: str = "amf",
                 default_repair_time: float = 5 * units.MINUTE):
        self.sim = sim
        self.name = name
        self.default_repair_time = default_repair_time
        self._components: Dict[str, ManagedComponent] = {}
        #: Callbacks run with the component name after each recovery; the
        #: replication mux subscribes here so stalled links re-arm exactly
        #: on recovery instead of polling a retry cadence.
        self._recovery_listeners: List[Callable[[str], None]] = []

    # -- recovery notifications --------------------------------------------------

    def subscribe_recovery(self, listener: Callable[[str], None]) -> None:
        """Run ``listener(name)`` after every component recovery (idempotent)."""
        if listener not in self._recovery_listeners:
            self._recovery_listeners.append(listener)

    def unsubscribe_recovery(self, listener: Callable[[str], None]) -> None:
        """Stop notifying ``listener`` (no-op when not subscribed)."""
        if listener in self._recovery_listeners:
            self._recovery_listeners.remove(listener)

    # -- registration ----------------------------------------------------------

    def manage(self, name: str, fail_action: Callable[[], None],
               repair_action: Callable[[], None],
               repair_time: Optional[float] = None) -> ManagedComponent:
        """Put a component under management."""
        if name in self._components:
            raise ValueError(f"component {name!r} is already managed")
        component = ManagedComponent(
            name=name,
            fail_action=fail_action,
            repair_action=repair_action,
            repair_time=repair_time if repair_time is not None
            else self.default_repair_time,
        )
        self._components[name] = component
        return component

    def component(self, name: str) -> ManagedComponent:
        return self._components[name]

    # -- failure handling -----------------------------------------------------------

    def fail_component(self, name: str, auto_repair: bool = True) -> None:
        """Fail a component now; schedule its repair if ``auto_repair``."""
        component = self._components[name]
        if component.state is not ComponentState.IN_SERVICE:
            return
        component.state = ComponentState.FAILED
        component.failures += 1
        component.failed_at = self.sim.now
        component.fail_action()
        if auto_repair:
            component.state = ComponentState.REPAIRING
            self.sim.process(self._repair_later(component),
                             name=f"repair:{name}")

    def _repair_later(self, component: ManagedComponent):
        yield from self.sim.hold(component.repair_time)
        self.repair_component(component.name)

    def repair_component(self, name: str) -> None:
        component = self._components[name]
        if component.state is ComponentState.IN_SERVICE:
            return
        component.repair_action()
        if component.failed_at is not None:
            component.downtime += self.sim.now - component.failed_at
            component.failed_at = None
        component.state = ComponentState.IN_SERVICE
        for listener in tuple(self._recovery_listeners):
            listener(name)

    # -- reporting ---------------------------------------------------------------------

    def availability_of(self, name: str, observation_period: float) -> float:
        """Availability fraction of one component over an observation period."""
        if observation_period <= 0:
            raise ValueError("observation period must be positive")
        component = self._components[name]
        downtime = component.downtime
        if component.failed_at is not None:
            downtime += self.sim.now - component.failed_at
        return units.availability_from_downtime(downtime, observation_period)

    def components_in_service(self) -> int:
        return sum(1 for component in self._components.values()
                   if component.state is ComponentState.IN_SERVICE)

    def __len__(self) -> int:
        return len(self._components)

    def __repr__(self) -> str:
        return (f"<AvailabilityManager {self.name!r} "
                f"components={len(self._components)} "
                f"in_service={self.components_in_service()}>")
