"""Front-end buffer snooping and cache-victim re-selection (§IV-G).

When a dirty line is evicted from L1 under whole-system persistence, the
eviction is silently dropped at the LLC (the persist path, not writebacks,
feeds PM).  If the evicted line's latest store is still in flight in the
front-end buffer, a subsequent miss could fetch a *stale* value from PM
(Fig. 6).  LightWSP therefore snoops the front-end buffer on every L1
dirty eviction and, on a conflict, re-selects a conflict-free victim.

Three policies (§V-F3):

* ``full``  — scan every way for a conflict-free victim (default);
* ``half``  — scan only half the ways;
* ``zero``  — never re-select: delay the eviction until the conflicting
  entry drains;
* ``stale-load`` — snooping disabled (the unsafe comparison point of
  Fig. 14).

The selector contract matches :meth:`repro.sim.cache.Cache.access`: it
receives a full set's block addresses in LRU order (the cache's live set,
which it only reads) and returns the index to evict, or None to delay.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..config import VictimPolicy

__all__ = ["make_victim_selector"]

#: invoked once per snoop that found the preferred victim conflicting
ConflictSink = Callable[[], None]


def make_victim_selector(
    policy: str,
    inflight_blocks: Dict[int, int],
    on_conflict: Optional[ConflictSink] = None,
) -> Optional[Callable[[List[int]], Optional[int]]]:
    """Build one core's selector.  ``inflight_blocks`` maps block address
    -> number of front-end buffer entries still in flight (the CAM the
    snoop consults); the selector reads it live, so the engine builds one
    selector per core per replay.  Returns None for the stale-load policy
    (no snooping at all)."""
    if policy == VictimPolicy.STALE_LOAD:
        return None
    if policy not in VictimPolicy.ALL:
        raise ValueError("unknown victim policy %r" % (policy,))

    def selector(candidates: List[int]) -> Optional[int]:
        if candidates[0] not in inflight_blocks:
            return 0  # LRU victim is conflict-free: the common case
        if on_conflict is not None:
            on_conflict()
        if policy == VictimPolicy.ZERO:
            return None  # delay until the conflicting entry drains
        scan = len(candidates)
        if policy == VictimPolicy.HALF:
            scan = max(1, len(candidates) // 2)
        for i in range(1, scan):
            if candidates[i] not in inflight_blocks:
                return i
        return None  # whole (scanned) set conflicts: delay (worst case)

    return selector
