"""Flush-dependency tracking (paper §3.4.3).

With several in-memory tablets filling at once, a client's inserts may
interleave between tablets, and LittleTable's durability guarantee -
if a row survives a crash, every row inserted before it into the same
table survives too - requires flushing them in a compatible order.

"LittleTable tracks for each table the tablet t that most recently
received an insert.  When it processes an insert to a different tablet
t' != t, it adds a flush dependency t -> t', meaning t must be flushed
before t'.  These dependencies form a directed graph that may have
cycles.  Before flushing a tablet t ... LittleTable first traverses
this dependency graph to find the transitive closure of tablets that
must be flushed first", and flushes the whole group in one atomic
descriptor update.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set


class FlushDependencies:
    """The per-table dependency graph over in-memory tablet ids.

    Locking discipline: not internally synchronized.  Every call runs
    under the owning table's state lock - ``record_insert`` from the
    insert path, ``flush_group`` during flush selection, and
    ``mark_flushed`` during the post-flush swap.  The off-lock flush
    write relies on one structural property: edges only ever point
    *from* the memtable that received the newer insert *to* older
    ones, and a read-only memtable can never receive an insert, so no
    new edge can appear that would enlarge a frozen flush group.
    """

    def __init__(self) -> None:
        # must_flush_first[t] = set of tablets that must flush before t.
        self._must_flush_first: Dict[int, Set[int]] = {}
        self._last_insert_target: Optional[int] = None

    def record_insert(self, memtable_id: int) -> None:
        """Note that ``memtable_id`` just received an insert."""
        last = self._last_insert_target
        if last is not None and last != memtable_id:
            self._must_flush_first.setdefault(memtable_id, set()).add(last)
        self._last_insert_target = memtable_id

    def flush_group(self, memtable_id: int) -> List[int]:
        """All tablets that must be flushed along with ``memtable_id``.

        Returns the transitive closure (which handles cycles), with the
        requested tablet last and dependencies in discovery order.  The
        caller flushes the whole group in one atomic descriptor update,
        so intra-group order does not affect durability.
        """
        closure: List[int] = []
        seen: Set[int] = set()
        stack = [memtable_id]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            for dependency in sorted(self._must_flush_first.get(current, ())):
                if dependency not in seen:
                    stack.append(dependency)
            closure.append(current)
        # Present dependencies before the requested tablet.
        closure.remove(memtable_id)
        closure.append(memtable_id)
        return closure

    def mark_flushed(self, memtable_ids: List[int]) -> None:
        """Drop flushed tablets from the graph."""
        flushed = set(memtable_ids)
        for flushed_id in flushed:
            self._must_flush_first.pop(flushed_id, None)
        for dependencies in self._must_flush_first.values():
            dependencies -= flushed
        if self._last_insert_target in flushed:
            self._last_insert_target = None

    def dependencies_of(self, memtable_id: int) -> Set[int]:
        """Direct dependencies (for tests and introspection)."""
        return set(self._must_flush_first.get(memtable_id, ()))
