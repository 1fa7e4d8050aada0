"""The FRASH trade-off graph of figures 5 and 6 (experiment E02).

Figure 5 draws the five FRASH characteristics (Fast, Resilient, ACID,
Scalable, Huge) with restriction arrows between those that constrain each
other; the grey oval around Resilient and ACID is the scope of the CAP
theorem.  Figure 6 places two operating points on each link -- blue for
application front-end transactions and red for provisioning transactions --
showing where the concrete design decisions of section 3 land.

The model here is deliberately ordinal, like the paper's figures: a position
on a link is a number in [0, 1], where 0 means "the trade-off is resolved
entirely in favour of the first endpoint" and 1 favours the second endpoint.
Positions are derived from a :class:`~repro.core.config.UDRConfig` by
accumulating the shifts of the design decisions that are active in that
configuration, so changing a knob moves the dots exactly the way section 3
narrates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.config import (
    ClientType,
    LocationMode,
    PartitionPolicy,
    ReplicationMode,
    UDRConfig,
)
from repro.sim import units


class Characteristic(enum.Enum):
    """The five FRASH characteristics of the UDR NF."""

    FAST = "F"
    RESILIENT = "R"
    ACID = "A"
    SCALABLE = "S"
    HUGE = "H"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class TradeOffLink:
    """A restriction arrow between two characteristics."""

    first: Characteristic
    second: Characteristic
    weak: bool = False
    in_cap_scope: bool = False

    @property
    def name(self) -> str:
        return f"{self.first.value}-{self.second.value}"

    def __str__(self) -> str:
        marker = " (weak)" if self.weak else ""
        return f"{self.name}{marker}"


#: The links drawn in figure 5.  R-A is the CAP oval; H-F is the dotted weak link.
PAPER_LINKS: Tuple[TradeOffLink, ...] = (
    TradeOffLink(Characteristic.FAST, Characteristic.RESILIENT),
    TradeOffLink(Characteristic.FAST, Characteristic.ACID),
    TradeOffLink(Characteristic.RESILIENT, Characteristic.ACID,
                 in_cap_scope=True),
    TradeOffLink(Characteristic.FAST, Characteristic.SCALABLE),
    TradeOffLink(Characteristic.FAST, Characteristic.HUGE),
    TradeOffLink(Characteristic.SCALABLE, Characteristic.RESILIENT),
    TradeOffLink(Characteristic.HUGE, Characteristic.RESILIENT),
    TradeOffLink(Characteristic.HUGE, Characteristic.FAST, weak=True),
)


@dataclass
class DesignDecision:
    """One of section 3's decisions and the shift it causes on a link.

    ``shift`` is positive when the decision moves the operating point toward
    the link's *second* characteristic and negative when it moves it toward
    the first.  ``applies_to`` restricts a decision to one client class
    (figure 6 distinguishes red/PS from blue/FE points).
    """

    name: str
    link: TradeOffLink
    shift: float
    applies_to: Optional[ClientType] = None
    rationale: str = ""


@dataclass
class TradeOffPosition:
    """Where one client class sits on one link (0 = first end, 1 = second end)."""

    link: TradeOffLink
    client: ClientType
    position: float
    decisions: List[str] = field(default_factory=list)

    def favours(self) -> Characteristic:
        return self.link.first if self.position < 0.5 else self.link.second


class FrashGraph:
    """Builds figure 5 (links) and figure 6 (positions) from a configuration."""

    def __init__(self, links: Tuple[TradeOffLink, ...] = PAPER_LINKS):
        self.links = links

    def link(self, name: str) -> TradeOffLink:
        for link in self.links:
            if link.name == name:
                return link
        raise KeyError(f"unknown trade-off link {name!r}")

    def cap_scope_links(self) -> List[TradeOffLink]:
        return [link for link in self.links if link.in_cap_scope]

    # -- decisions active in a configuration --------------------------------------

    def decisions_for(self, config: UDRConfig) -> List[DesignDecision]:
        """The section-3 design decisions implied by ``config``."""
        decisions: List[DesignDecision] = []
        f_r = self.link("F-R")
        f_a = self.link("F-A")
        r_a = self.link("R-A")
        f_s = self.link("F-S")
        f_h = self.link("F-H")
        s_r = self.link("S-R")
        h_r = self.link("H-R")
        h_f = self.link("H-F")

        # 3.1: periodic disk dumps and geo-redundant copies cost a little F
        # for a lot of R.  Shorter periods cost more.
        dump_cost = 0.15
        if config.checkpoint_period < 5 * units.MINUTE:
            dump_cost = 0.25
        decisions.append(DesignDecision(
            name="periodic disk dump + geo-redundant copies",
            link=f_r, shift=+dump_cost,
            rationale="section 3.1: protect RAM contents, slightly slower"))

        # 3.2: ACID only within one SE, READ_COMMITTED -> strongly favour F.
        decisions.append(DesignDecision(
            name="intra-SE ACID at READ_COMMITTED only",
            link=f_a, shift=-0.30,
            rationale="section 3.2: no cross-SE 2PC, reads never blocked"))

        # 3.2: single-master replication -> consistency over availability on
        # partition (unless multi-master is enabled).
        if config.partition_policy is PartitionPolicy.PREFER_CONSISTENCY:
            decisions.append(DesignDecision(
                name="writes only at the master copy",
                link=r_a, shift=+0.25,
                rationale="section 3.2: favour C over A on partition"))
        else:
            decisions.append(DesignDecision(
                name="multi-master writes during partitions",
                link=r_a, shift=-0.25,
                rationale="section 5: favour A, restore consistency later"))

        # 3.3.1: local data location resolution favours F despite S and H.
        if config.location_mode is LocationMode.PROVISIONED_MAPS:
            decisions.append(DesignDecision(
                name="local (provisioned) data location maps",
                link=f_s, shift=-0.20,
                rationale="section 3.3.1: resolve locally, scale-out syncs"))
            decisions.append(DesignDecision(
                name="identity-location maps use SE memory",
                link=f_h, shift=-0.10,
                rationale="section 3.3.1: maps take RAM from data"))
            decisions.append(DesignDecision(
                name="provisioned maps must sync on scale-out",
                link=s_r, shift=-0.20,
                rationale="section 3.4.2: new PoA unavailable during sync"))

        # 3.3.1: asynchronous replication favours F over A.
        if config.replication_mode is ReplicationMode.ASYNCHRONOUS:
            decisions.append(DesignDecision(
                name="asynchronous master-to-slave replication",
                link=f_a, shift=-0.25,
                rationale="section 3.3.1: commits do not wait for slaves"))
        elif config.replication_mode is ReplicationMode.DUAL_IN_SEQUENCE:
            decisions.append(DesignDecision(
                name="dual-in-sequence replication",
                link=f_a, shift=+0.20,
                rationale="section 5: pay one replica RTT for durability"))
        else:
            decisions.append(DesignDecision(
                name="quorum replication",
                link=f_a, shift=+0.35,
                rationale="section 5: consensus-grade durability, high latency"))

        # 3.3.2 / 3.3.3: slave reads allowed for FEs, disallowed for PS.
        if config.fe_reads_from_slave:
            decisions.append(DesignDecision(
                name="application FEs may read slave copies",
                link=f_a, shift=-0.15, applies_to=ClientType.APPLICATION_FE,
                rationale="section 3.3.2: local reads, possibly stale"))
        decisions.append(DesignDecision(
            name="PS reads only the master copy",
            link=f_a, shift=+0.15, applies_to=ClientType.PROVISIONING,
            rationale="section 3.3.3: stale reads unacceptable for PS"))

        # 3.5: wide distribution lowers availability; selective placement
        # counteracts it.  Either way the H-F link stays weak.
        from repro.core.config import PlacementMode
        if config.placement is PlacementMode.HOME_REGION:
            decisions.append(DesignDecision(
                name="selective (home region) placement",
                link=h_r, shift=+0.20,
                rationale="section 3.5: keep FE traffic off the backbone"))
        else:
            decisions.append(DesignDecision(
                name="hash/random placement across locations",
                link=h_r, shift=-0.20,
                rationale="section 3.5: more backbone crossings, lower R"))
        decisions.append(DesignDecision(
            name="O(log N) stateful location stage",
            link=h_f, shift=-0.05,
            rationale="section 3.5: negligible but non-zero lookup cost"))
        return decisions

    # -- figure 6 ---------------------------------------------------------------------

    def evaluate(self, config: UDRConfig,
                 client: ClientType) -> Dict[str, TradeOffPosition]:
        """Operating points of one client class on every link (figure 6)."""
        positions: Dict[str, TradeOffPosition] = {
            link.name: TradeOffPosition(link=link, client=client, position=0.5)
            for link in self.links}
        for decision in self.decisions_for(config):
            if decision.applies_to is not None and decision.applies_to is not client:
                continue
            position = positions[decision.link.name]
            position.position = min(1.0, max(0.0,
                                             position.position + decision.shift))
            position.decisions.append(decision.name)
        return positions

    def evaluate_both(self, config: UDRConfig
                      ) -> Dict[ClientType, Dict[str, TradeOffPosition]]:
        return {client: self.evaluate(config, client)
                for client in (ClientType.APPLICATION_FE,
                               ClientType.PROVISIONING)}
