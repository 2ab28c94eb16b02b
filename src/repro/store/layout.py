"""PM-resident layout of the persistent KV store.

The store keeps all of its state in the machine's word memory so that
*every* mutation travels the real persistence pipeline (WPQ quarantine,
boundary commit, battery drain).  Four global arrays:

* ``idx_keys[capacity]`` — open-addressing hash index, one word per slot:
  ``0`` means never claimed, else ``key + 1``.  Claimed slots are never
  released (deletes only clear the pointer), so linear probing terminates
  as long as the number of distinct keys stays below the capacity; the
  layout enforces ``capacity >= 2 * keyspace`` (power of two).
* ``idx_ptrs[capacity]`` — ``0`` means absent (empty slot or deleted key),
  else the absolute heap word address of the record header **plus one**.
  Storing this pointer is the *visibility point* of every PUT/DELETE: a
  key's value is whatever a committed pointer reaches, so a crash that
  cuts an operation before its pointer store commits leaves the previous
  value (or absence) visible — never a partial record.
* ``heap[2 * half_words]`` — append-only record heap split in two halves;
  compaction copies the live records into the inactive half and flips.
  A live record is ``[key*2, value_word_0 .. value_word_{V-1}]``; a
  tombstone is the single word ``key*2 + 1`` (appended by DELETE for the
  durable log narrative; never pointed to, reclaimed by compaction).
* ``meta[META_WORDS]`` — cursor (offset *within* the active half, so the
  all-zero initial image is a valid empty store), active half, dead-word
  count, compaction/drop counters, and the batch length.

Value words of a record written with seed ``s`` are ``s, s+1, .., s+V-1``;
GET returns their sum (``V*s + V*(V-1)/2``), so a torn or partial record
that somehow became visible would change the returned checksum — that is
what the differential oracle leans on.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..compiler.ir import Program

__all__ = [
    "DATA_FLOOR",
    "StoreLayout",
    "OP_PUT",
    "OP_GET",
    "OP_DELETE",
    "OP_SCAN",
    "OP_NAMES",
    "RESP_DEVICE",
    "KNUTH",
    "META_CURSOR",
    "META_ACTIVE",
    "META_DEAD",
    "META_COMPACTIONS",
    "META_NREQ",
    "META_DROPS",
    "META_WORDS",
    "checksum",
]

#: everything below this word address is the checkpoint array
DATA_FLOOR = Program.CHECKPOINT_WORDS_PER_CORE * Program.MAX_CONTEXTS

#: request opcodes (word 0 of each request triple)
OP_PUT = 1
OP_GET = 2
OP_DELETE = 3
OP_SCAN = 4
OP_NAMES = {OP_PUT: "put", OP_GET: "get", OP_DELETE: "delete", OP_SCAN: "scan"}

#: IO device id of the response "NIC" — one ``io`` per finished request,
#: payload = the request's index in its batch (the acknowledgement the
#: oracle uses, after adding the batch's first request id)
RESP_DEVICE = 7

#: Knuth multiplicative hash constant (same as examples/persistent_kvstore)
KNUTH = 2654435761

# meta array slots
META_CURSOR = 0        # append offset within the active heap half
META_ACTIVE = 1        # which half (0/1) is being appended to
META_DEAD = 2          # dead words in the active half
META_COMPACTIONS = 3   # completed compaction passes
META_NREQ = 4          # number of requests in the current batch
META_DROPS = 5         # requests refused for lack of heap room
META_WORDS = 8


def checksum(seed: int, value_words: int) -> int:
    """The checksum GET/PUT return for a record written with ``seed``."""
    return value_words * seed + (value_words * (value_words - 1)) // 2


@dataclass(frozen=True)
class StoreLayout:
    """Sizing plus the absolute word addresses of the store's arrays."""

    keyspace: int          # keys are 1..keyspace
    capacity: int          # index slots (power of two, >= 2*keyspace)
    half_words: int        # words per heap half
    value_words: int       # payload words per record
    max_batch: int         # requests per epoch batch
    # absolute word addresses (filled by place())
    idx_keys: int = 0
    idx_ptrs: int = 0
    heap: int = 0
    meta: int = 0
    reqs: int = 0
    out: int = 0

    def __post_init__(self) -> None:
        if self.keyspace < 1:
            raise ValueError("keyspace must be positive")
        if self.capacity & (self.capacity - 1):
            raise ValueError("capacity must be a power of two")
        if self.capacity < 2 * self.keyspace:
            raise ValueError("capacity must be at least 2x the keyspace")
        if self.value_words < 1:
            raise ValueError("records need at least one value word")
        if self.half_words < 2 * (self.value_words + 1):
            raise ValueError("heap half too small for two records")
        if self.max_batch < 1:
            raise ValueError("max_batch must be positive")

    @property
    def record_words(self) -> int:
        return self.value_words + 1

    @classmethod
    def sized(
        cls,
        keyspace: int,
        value_words: int = 4,
        max_batch: int = 64,
        slack: float = 2.0,
    ) -> "StoreLayout":
        """A layout sized so that ``keyspace`` live records fit with
        ``slack``x room for appends between compactions."""
        capacity = 1
        while capacity < 2 * keyspace:
            capacity *= 2
        half = max(
            2 * (value_words + 1),
            int(slack * keyspace * (value_words + 1)),
        )
        return cls(
            keyspace=keyspace,
            capacity=capacity,
            half_words=half,
            value_words=value_words,
            max_batch=max_batch,
        )

    def place(self, prog: Program) -> "StoreLayout":
        """Allocate the arrays in ``prog`` and return a layout carrying
        their absolute base addresses.  Allocation order is fixed, so two
        programs built from the same sizing place every array at the same
        address — that is what lets a shard carry its durable image from
        one epoch's program to the next."""
        from dataclasses import replace

        return replace(
            self,
            idx_keys=prog.array("kv_idx_keys", self.capacity),
            idx_ptrs=prog.array("kv_idx_ptrs", self.capacity),
            heap=prog.array("kv_heap", 2 * self.half_words),
            meta=prog.array("kv_meta", META_WORDS),
            reqs=prog.array("kv_reqs", 3 * self.max_batch),
            out=prog.array("kv_out", self.max_batch),
        )

    def slot_of(self, key: int) -> int:
        """The hash-home slot of ``key`` (mirrors the IR computation)."""
        return ((key * KNUTH) >> 16) & (self.capacity - 1)
