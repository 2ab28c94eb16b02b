"""YCSB-style workload generation for the store server.

Seeded and fully deterministic: the same (mix, ops, keyspace, seed, dist)
always yields the same request list, independent of ``PYTHONHASHSEED``
(only :class:`random.Random` and arithmetic are used).

Mixes follow the YCSB core workloads, adapted to the store's op set:

========  ==========================================  ==================
name      composition                                 YCSB analogue
========  ==========================================  ==================
ycsb-a    50% GET / 50% PUT                           A (update heavy)
ycsb-b    95% GET /  5% PUT                           B (read mostly)
ycsb-c    100% GET                                    C (read only)
ycsb-e    95% SCAN /  5% PUT                          E (short ranges)
crud      40% GET / 40% PUT / 15% DELETE / 5% SCAN    —
========  ==========================================  ==================

Every generated workload starts with a *load phase* — one PUT per key in
``1..keyspace`` — so reads hit data; ``ops`` counts only the mixed phase.
Keys come from a zipfian (default, theta 0.99) or uniform distribution.
"""

from __future__ import annotations

import bisect
import random
from typing import Dict, List, Tuple

from .layout import OP_DELETE, OP_GET, OP_PUT, OP_SCAN
from .programs import Request

__all__ = [
    "MIXES",
    "DISTRIBUTIONS",
    "generate_workload",
    "zipfian_cdf",
]

#: mix name -> ((opcode, weight), ...)
MIXES: Dict[str, Tuple[Tuple[int, int], ...]] = {
    "ycsb-a": ((OP_GET, 50), (OP_PUT, 50)),
    "ycsb-b": ((OP_GET, 95), (OP_PUT, 5)),
    "ycsb-c": ((OP_GET, 100),),
    "ycsb-e": ((OP_SCAN, 95), (OP_PUT, 5)),
    "crud": ((OP_GET, 40), (OP_PUT, 40), (OP_DELETE, 15), (OP_SCAN, 5)),
}

DISTRIBUTIONS = ("zipfian", "uniform")

#: YCSB's default zipfian skew
ZIPF_THETA = 0.99

#: SCAN ranges are short (YCSB-E uses uniform 1..max short ranges)
MAX_SCAN_SPAN = 8

#: PUT seeds stay small enough that checksums fit comfortably in a word
MAX_SEED = 1 << 16


def zipfian_cdf(n: int, theta: float = ZIPF_THETA) -> List[float]:
    """Cumulative popularity of ranks ``1..n`` under a zipfian law."""
    weights = [1.0 / (rank ** theta) for rank in range(1, n + 1)]
    total = sum(weights)
    cdf: List[float] = []
    acc = 0.0
    for w in weights:
        acc += w
        cdf.append(acc / total)
    return cdf


class _KeySampler:
    """Maps zipfian ranks onto keys via a seeded shuffle, so the popular
    keys are spread over the keyspace (and over the server's shards)."""

    def __init__(self, keyspace: int, dist: str, rng: random.Random) -> None:
        if dist not in DISTRIBUTIONS:
            raise ValueError(
                "unknown distribution %r (choose from %s)"
                % (dist, ", ".join(DISTRIBUTIONS))
            )
        self.keyspace = keyspace
        self.dist = dist
        self.rng = rng
        if dist == "zipfian":
            self._cdf = zipfian_cdf(keyspace)
            self._rank_to_key = list(range(1, keyspace + 1))
            rng.shuffle(self._rank_to_key)

    def sample(self) -> int:
        if self.dist == "uniform":
            return self.rng.randint(1, self.keyspace)
        rank = bisect.bisect_left(self._cdf, self.rng.random())
        return self._rank_to_key[min(rank, self.keyspace - 1)]


def generate_workload(
    mix: str,
    ops: int,
    keyspace: int,
    seed: int = 0,
    dist: str = "zipfian",
) -> List[Request]:
    """The full request list: load phase (one PUT per key, in key order)
    followed by ``ops`` mixed operations."""
    if mix not in MIXES:
        raise ValueError(
            "unknown mix %r (choose from %s)" % (mix, ", ".join(sorted(MIXES)))
        )
    if ops < 0:
        raise ValueError("ops must be non-negative")
    if keyspace < 1:
        raise ValueError("keyspace must be positive")
    rng = random.Random(seed)
    sampler = _KeySampler(keyspace, dist, rng)
    requests: List[Request] = []
    for key in range(1, keyspace + 1):
        requests.append((OP_PUT, key, rng.randint(1, MAX_SEED)))
    opcodes = [op for op, _ in MIXES[mix]]
    weights = [w for _, w in MIXES[mix]]
    for _ in range(ops):
        op = rng.choices(opcodes, weights=weights)[0]
        key = sampler.sample()
        if op == OP_PUT:
            arg = rng.randint(1, MAX_SEED)
        elif op == OP_SCAN:
            arg = rng.randint(1, MAX_SCAN_SPAN)
        else:
            arg = 0
        requests.append((op, key, arg))
    return requests
