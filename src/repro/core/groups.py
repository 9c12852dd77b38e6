"""Allocation groups: composition-safe reclamation.

Section 7 ("Soft Data Structures") describes the composition pitfall the
prototype hit in Redis: a hash-table entry, its key, and its value are
separate allocations, and reclaiming only one of them leaves a dangling,
half-alive record. The paper asks for "APIs [...] for grouping soft
allocations"; this module provides them. All live members of a group are
reclaimed together, whichever member the SDS picked as the victim.
"""

from __future__ import annotations

import itertools

from repro.core.pointer import SoftPtr

_group_ids = itertools.count(1)


class GroupRegistry:
    """Tracks which allocations must live and die together."""

    def __init__(self) -> None:
        self._members: dict[int, set[SoftPtr]] = {}

    def new_group(self) -> int:
        """Create an empty group and return its id."""
        group_id = next(_group_ids)
        self._members[group_id] = set()
        return group_id

    def add(self, group_id: int, ptr: SoftPtr) -> None:
        """Enroll a live allocation in a group."""
        if not ptr.valid:
            raise ValueError(f"allocation {ptr.alloc_id} is not live")
        if ptr.group_id is not None and ptr.group_id != group_id:
            raise ValueError(
                f"allocation {ptr.alloc_id} already in "
                f"group {ptr.group_id}"
            )
        try:
            members = self._members[group_id]
        except KeyError:
            raise ValueError(f"unknown group {group_id}") from None
        ptr.group_id = group_id
        members.add(ptr)

    def group(self, *ptrs: SoftPtr) -> int:
        """Create a group containing ``ptrs`` in one call."""
        group_id = self.new_group()
        for ptr in ptrs:
            self.add(group_id, ptr)
        return group_id

    def companions(self, ptr: SoftPtr) -> list[SoftPtr]:
        """Other live members that must be reclaimed alongside ``ptr``."""
        if ptr.group_id is None:
            return []
        members = self._members.get(ptr.group_id, set())
        return [m for m in members if m is not ptr and m.valid]

    def forget(self, ptr: SoftPtr) -> None:
        """Remove a (freed) allocation from its group, if any."""
        if ptr.group_id is None:
            return
        members = self._members.get(ptr.group_id)
        if members is not None:
            members.discard(ptr)
            if not members:
                del self._members[ptr.group_id]
        ptr.group_id = None
