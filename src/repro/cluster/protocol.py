"""The cluster client protocol: idempotency tokens, deadlines, typed
errors, and seeded-jitter exponential backoff.

The cluster's clock is the *epoch* — one coordinator dispatch round.
Every logical client operation carries:

* an **idempotency token** (its index in the workload) — retries reuse
  the token, completion is recorded per token exactly once, and a
  duplicate acknowledgement (dup/delayed transport) can never complete
  an operation twice;
* a **deadline** (epochs after admission) — when it passes, the
  operation completes with a typed error instead of waiting forever:
  :data:`UNAVAILABLE` if its shard is down/dead (the degraded range),
  :data:`DEADLINE_EXCEEDED` if the shard is nominally up but the
  retries did not land in time;
* a **retry schedule** — exponential backoff with *seeded* jitter: the
  jitter is a pure function of ``(seed, token, attempt)``, so the same
  seed reproduces the same retry schedule byte for byte at any
  ``--jobs`` value, while different tokens still decorrelate (no
  thundering-herd retry spikes after a shard recovers).

Responses are data, not exceptions: a :class:`ClusterResponse` carries
the status and, for failures, which shard / key range degraded — the
"typed Unavailable" the coordinator serves for a dead range while the
surviving ranges keep answering.

Replication phase two adds two more protocol-level concepts:

* **replica roles and fencing tokens** — every key range is served by a
  :data:`PRIMARY` image and replicated to a :data:`FOLLOWER` image.
  Each range carries a monotonically increasing *fencing token*, bumped
  at every promotion; a batch is admitted to the range's settled log
  only if it carries the current token (:func:`fence_admits`).  A
  demoted primary — dead, promoted past, then resurrected — still holds
  its old token, so nothing it serves can ever re-enter the log.
* **read-your-writes session tokens** — logical ops are grouped into
  client sessions; a :class:`SessionTracker` remembers, per session and
  key, the log position of the last acknowledged write, and certifies
  that every later read in the same session observed a position at
  least that new.  Retries and failovers must preserve this: a retry
  that lands on a freshly promoted follower may only be acknowledged
  from a log that already contains the session's writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..trace import mix_int

__all__ = [
    "OK",
    "UNAVAILABLE",
    "DEADLINE_EXCEEDED",
    "ABORTED",
    "STATUSES",
    "PRIMARY",
    "FOLLOWER",
    "ROLES",
    "fence_admits",
    "SessionTracker",
    "ClusterResponse",
    "RetryPolicy",
]

#: terminal statuses of a logical operation
OK = "ok"
UNAVAILABLE = "unavailable"            # target range down past its deadline
DEADLINE_EXCEEDED = "deadline_exceeded"  # op's own deadline passed, shard up
ABORTED = "aborted"                    # 2PC transaction aborted pre-decision

STATUSES: Tuple[str, ...] = (OK, UNAVAILABLE, DEADLINE_EXCEEDED, ABORTED)

#: replica roles within one key range
PRIMARY = "primary"
FOLLOWER = "follower"
ROLES: Tuple[str, ...] = (PRIMARY, FOLLOWER)


def fence_admits(range_fence: int, batch_fence: int) -> bool:
    """Whether a batch stamped with ``batch_fence`` may enter the
    range's settled log when the range's current fencing token is
    ``range_fence``.  Only the exact current token is admitted: a stale
    token is a demoted primary speaking after its promotion (split
    brain), a newer token is a sequencing bug — both are refused."""
    return batch_fence == range_fence


@dataclass
class SessionTracker:
    """Read-your-writes bookkeeping per client session.

    Sessions partition the token space (session = ``token % n_sessions``
    — a deterministic stand-in for per-client connections).  Positions
    are ``(range_id, gid)`` pairs: within one range the per-range log
    position ``gid`` totally orders applications, which is exactly what
    a promoted follower inherits (it serves from the same settled log),
    so the guarantee survives failover.  Reads routed to a *different*
    range than the session's last write to that key (a completed
    migration) are certified by the migration machinery instead — the
    delta sync puts every settled write in the target's log before the
    arc flips — and are not double-counted here."""

    n_sessions: int = 4
    #: (session, key) -> (range_id, gid) of the last acked write
    writes: Dict[Tuple[int, int], Tuple[int, int]] = field(
        default_factory=dict
    )
    reads_checked: int = 0

    def session_of(self, token: int) -> int:
        return token % max(1, self.n_sessions)

    def note_write(
        self, token: int, key: int, range_id: int, gid: int
    ) -> None:
        """An acknowledged write of ``key`` applied at log position
        ``(range_id, gid)``."""
        self.writes[(self.session_of(token), key)] = (range_id, gid)

    def check_read(
        self, token: int, key: int, range_id: int, gid: int
    ) -> Optional[str]:
        """Certify one acknowledged read of ``key`` served from log
        position ``(range_id, gid)``.  Returns a violation description
        if the session had acknowledged a *later* write to the key at
        the same range — a stale read — else None."""
        last = self.writes.get((self.session_of(token), key))
        if last is None:
            return None
        wrange, wgid = last
        if wrange != range_id:
            return None  # cross-range: certified by migration handoff
        self.reads_checked += 1
        if gid < wgid:
            return (
                "read-your-writes: session %d token %d read key %d at "
                "range %d position %d, but the session's write was "
                "acknowledged at position %d"
                % (self.session_of(token), token, key, range_id, gid,
                   wgid)
            )
        return None


@dataclass(frozen=True)
class ClusterResponse:
    """The terminal answer for one logical operation (one token)."""

    token: int
    status: str                 # one of STATUSES
    value: Optional[int] = None  # durable result word (OK only)
    shard: int = -1             # the shard blamed for a failure status
    attempts: int = 0           # physical dispatch attempts consumed
    epoch: int = 0              # epoch the response was issued
    #: a write that may or may not have applied durably (its last
    #: dispatch got no acknowledgement before the deadline) — the
    #: classic indeterminate outcome; the oracle treats it as either
    indeterminate: bool = False

    def to_json(self) -> Dict:
        data = {
            "token": self.token, "status": self.status,
            "attempts": self.attempts, "epoch": self.epoch,
        }
        if self.value is not None:
            data["value"] = self.value
        if self.shard >= 0:
            data["shard"] = self.shard
        if self.indeterminate:
            data["indeterminate"] = True
        return data


@dataclass(frozen=True)
class RetryPolicy:
    """Deadlines and seeded-jitter exponential backoff, in epochs."""

    seed: int = 0
    ack_timeout: int = 2        # epochs to wait for an ack before retrying
    backoff_base: int = 1       # first retry gap (epochs)
    backoff_cap: int = 8        # gap ceiling
    max_attempts: int = 5       # physical dispatches per logical op
    deadline: int = 16          # epochs from admission to forced completion
    shard_deadline: int = 4     # epochs down before a shard is declared dead

    @property
    def stall_window(self) -> int:
        """Epochs a session past its chaos schedule can go without
        progress — a response issued, a sub-op acked, a 2PC decision
        logged, or a reshard step.  An admitted op responds or reaches
        its decision within ``deadline`` epochs; a post-decision sub-op,
        which retries forever, is re-dispatched ``ack_timeout +
        backoff`` epochs after its last dispatch, and a backoff (a
        capped gap plus jitter below the cap) is under ``2 *
        backoff_cap``.  A session idle for longer has stalled."""
        return self.deadline + self.ack_timeout + 2 * self.backoff_cap

    def jitter(self, token: int, attempt: int) -> int:
        """Seeded jitter in ``[0, 2**attempt)``, capped by the backoff
        ceiling — a pure function of ``(seed, token, attempt)``."""
        span = min(1 << attempt, self.backoff_cap)
        return mix_int(self.seed, "jitter", token, attempt) % max(1, span)

    def backoff(self, token: int, attempt: int) -> int:
        """Epoch gap between the ack timeout of dispatch ``attempt`` and
        dispatch ``attempt + 1``."""
        base = min(self.backoff_base << attempt, self.backoff_cap)
        return base + self.jitter(token, attempt)

    def retry_at(self, token: int, attempt: int, dispatched: int) -> int:
        """The epoch at which dispatch ``attempt + 1`` becomes due, for a
        dispatch made at epoch ``dispatched`` whose ack never arrived."""
        return dispatched + self.ack_timeout + self.backoff(token, attempt)

    def schedule(self, token: int, admitted: int = 0) -> List[int]:
        """The full would-be dispatch schedule of one token admitted at
        ``admitted`` if every ack were lost — the deterministic retry
        timeline the parity tests pin."""
        out = [admitted]
        for attempt in range(self.max_attempts - 1):
            out.append(self.retry_at(token, attempt, out[-1]))
        return out
