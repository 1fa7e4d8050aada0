"""Subscriber data partitioning and copy placement (paper sections 2.3, 3.1).

The subscriber data space is split into partitions (about 200 GB each in the
paper, i.e. one storage element's worth of RAM), each partition further split
into sub-partitions for incremental growth.  Every storage element holds the
*primary* copy of one partition and *secondary* copies of one or two others,
arranged so that the UDR keeps serving 100% of the subscriber base as long as
one PoA and one SE survive.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Sequence


@dataclass(frozen=True)
class DataPartition:
    """One partition of the subscriber data space."""

    index: int
    sub_partitions: int = 8

    @property
    def name(self) -> str:
        return f"partition-{self.index}"

    def sub_partition_for(self, key: str) -> int:
        return stable_hash(key) % self.sub_partitions

    def __str__(self) -> str:
        return self.name


def stable_hash(key: str) -> int:
    """A hash that is stable across processes (unlike built-in ``hash``)."""
    digest = hashlib.md5(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class PartitionScheme:
    """Maps subscriber keys to data partitions."""

    def __init__(self, num_partitions: int, sub_partitions: int = 8):
        if num_partitions < 1:
            raise ValueError("need at least one partition")
        if sub_partitions < 1:
            raise ValueError("need at least one sub-partition")
        self.partitions: List[DataPartition] = [
            DataPartition(index, sub_partitions)
            for index in range(num_partitions)]

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def partition_for_key(self, key: str) -> DataPartition:
        """The partition that owns ``key`` under hash placement."""
        return self.partitions[stable_hash(key) % self.num_partitions]

    def partition(self, index: int) -> DataPartition:
        return self.partitions[index]

    def __iter__(self):
        return iter(self.partitions)

    def __len__(self) -> int:
        return self.num_partitions

    def __repr__(self) -> str:
        return f"<PartitionScheme partitions={self.num_partitions}>"


@dataclass
class PartitionAssignment:
    """Where one partition's copies live."""

    partition: DataPartition
    primary_element: str
    secondary_elements: List[str] = field(default_factory=list)

    @property
    def all_elements(self) -> List[str]:
        return [self.primary_element] + list(self.secondary_elements)

    @property
    def replication_factor(self) -> int:
        return 1 + len(self.secondary_elements)


class PartitionLayout:
    """Round-robin placement of primary and secondary copies on elements.

    With ``replication_factor`` copies, element *i* holds the primary copy of
    partition *i* and secondary copies of the ``replication_factor - 1``
    preceding partitions -- the exact arrangement of the example in the
    paper's section 2.3 (three SEs, each primary of one partition and
    secondary of the other two).
    """

    def __init__(self, scheme: PartitionScheme, element_names: Sequence[str],
                 replication_factor: int = 3):
        if not element_names:
            raise ValueError("need at least one storage element")
        if replication_factor < 1:
            raise ValueError("replication factor must be at least 1")
        if replication_factor > len(element_names):
            raise ValueError(
                "replication factor cannot exceed the number of elements")
        if scheme.num_partitions != len(element_names):
            raise ValueError(
                "this layout assigns one primary partition per element; "
                f"got {scheme.num_partitions} partitions for "
                f"{len(element_names)} elements")
        self.scheme = scheme
        self.element_names = list(element_names)
        self.replication_factor = replication_factor
        self._assignments: Dict[int, PartitionAssignment] = {}
        count = len(self.element_names)
        for partition in scheme:
            primary = self.element_names[partition.index % count]
            secondaries = [
                self.element_names[(partition.index + offset) % count]
                for offset in range(1, replication_factor)]
            self._assignments[partition.index] = PartitionAssignment(
                partition=partition,
                primary_element=primary,
                secondary_elements=secondaries,
            )

    # -- queries -----------------------------------------------------------------

    def assignment(self, partition: DataPartition) -> PartitionAssignment:
        return self._assignments[partition.index]

    def assignment_for_key(self, key: str) -> PartitionAssignment:
        return self.assignment(self.scheme.partition_for_key(key))

    def primary_of(self, partition: DataPartition) -> str:
        return self.assignment(partition).primary_element

    def secondaries_of(self, partition: DataPartition) -> List[str]:
        return list(self.assignment(partition).secondary_elements)

    def copies_on(self, element_name: str) -> Dict[DataPartition, str]:
        """Partitions hosted on an element, mapped to 'primary'/'secondary'."""
        result: Dict[DataPartition, str] = {}
        for assignment in self._assignments.values():
            if assignment.primary_element == element_name:
                result[assignment.partition] = "primary"
            elif element_name in assignment.secondary_elements:
                result[assignment.partition] = "secondary"
        return result

    def surviving_coverage(self, alive_elements: Sequence[str]) -> float:
        """Fraction of partitions with at least one copy on a live element.

        The paper claims the layout "can continue providing service for 100%
        of the subscriber base as long as one PoA and one SE are reachable";
        this method is what the availability experiments use to check that
        claim for arbitrary failure sets.
        """
        alive = set(alive_elements)
        covered = sum(
            1 for assignment in self._assignments.values()
            if any(element in alive for element in assignment.all_elements))
        return covered / len(self._assignments)

    def __repr__(self) -> str:
        return (f"<PartitionLayout partitions={len(self._assignments)} "
                f"rf={self.replication_factor}>")
