"""Consistent-hash key placement for the sharded store cluster.

Keys are placed on a 64-bit hash ring: every shard owns ``vnodes``
points (hashed from ``(shard, replica)``), and a key belongs to the
first shard point at or clockwise-after the key's own hash.  Placement
is a pure function of ``(n_shards, vnodes)`` — independent of
``PYTHONHASHSEED``, process, or time — so the coordinator, the chaos
replayer, and every worker process agree on the ownership map without
exchanging it.

The ring exists for the property the modulo hash lacks: adding or
removing one shard remaps only the arcs adjacent to its points (about
``1/n`` of the keyspace) instead of reshuffling almost every key.  The
cluster keeps placement *fixed* while a shard is down — a dead shard's
arc fails over to its replica (or, un-replicated, degrades to typed
``Unavailable`` errors) rather than migrating, so recovery-and-rejoin
never moves data.  The stability property is what makes *live
resharding* incremental: :meth:`HashRing.extended` adds one shard's
points without touching any existing point, so :func:`moved_keys` — the
arcs the new shard steals — is the complete migration plan, about
``1/(n+1)`` of the keyspace, and the test suite pins it.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Tuple

from ..trace import mix_int

__all__ = ["HashRing", "DEFAULT_VNODES", "moved_keys"]

DEFAULT_VNODES = 64


class HashRing:
    """Consistent hashing of integer keys over ``n_shards`` shards."""

    def __init__(self, n_shards: int, vnodes: int = DEFAULT_VNODES) -> None:
        if n_shards < 1:
            raise ValueError("need at least one shard")
        if vnodes < 1:
            raise ValueError("need at least one vnode per shard")
        self.n_shards = n_shards
        self.vnodes = vnodes
        points: List[Tuple[int, int]] = []
        for shard in range(n_shards):
            for replica in range(vnodes):
                points.append((mix_int("shard", shard, replica), shard))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._owners = [s for _, s in points]

    def extended(self) -> "HashRing":
        """The ring with one more shard.  Existing shard points are a
        pure function of ``(shard, replica)``, so every point of this
        ring survives unchanged — the new shard only *steals* arcs,
        which is what makes live resharding an incremental copy of
        :func:`moved_keys` instead of a full reshuffle."""
        return HashRing(self.n_shards + 1, self.vnodes)

    def shard_for(self, key: int) -> int:
        """The shard owning ``key`` (clockwise-next point on the ring)."""
        h = mix_int("key", key)
        i = bisect.bisect_right(self._hashes, h)
        if i == len(self._hashes):
            i = 0
        return self._owners[i]

    def ownership(self, keyspace: int) -> Dict[int, List[int]]:
        """shard -> sorted keys it owns, over keys ``1..keyspace``."""
        out: Dict[int, List[int]] = {s: [] for s in range(self.n_shards)}
        for key in range(1, keyspace + 1):
            out[self.shard_for(key)].append(key)
        return out

    def digest(self) -> str:
        """A fingerprint of the placement function, recorded in cluster
        traces so replay can verify it reproduces the same ring."""
        h = hashlib.sha256()
        h.update(("%d:%d;" % (self.n_shards, self.vnodes)).encode())
        for point, owner in zip(self._hashes[:64], self._owners[:64]):
            h.update(("%d=%d;" % (point, owner)).encode())
        return h.hexdigest()[:16]


def moved_keys(old: HashRing, new: HashRing, keyspace: int) -> List[int]:
    """The migration plan: keys in ``1..keyspace`` whose owner differs
    between the two rings, sorted.  With ``new = old.extended()`` every
    moved key lands on the new shard (pinned by the ring tests), so this
    list is exactly what the live reshard must copy."""
    return [
        key
        for key in range(1, keyspace + 1)
        if old.shard_for(key) != new.shard_for(key)
    ]
