"""Mailbox routing: the one place that maps a message to its key.

Every :class:`~repro.net.network.Endpoint` keeps one FIFO mailbox per
routing key, and :func:`route` names the key of each delivered message.
The key is computed from fields the message already carries, so routing
adds nothing to the wire.

* **Service keys** name a long-running loop and are always open: the
  MARP replica server (:data:`REPLICA`, every kind in
  :data:`REPLICA_KINDS`), each quorum baseline's daemon
  (:func:`daemon_key`: ``<prefix>_LOCK/APPLY/ABORT/READV``), and the
  primary-copy primary (``PC_WRITE``) and backups (``PC_APPLY``).
* **Reply keys** name one round by its correlation id. A receiver opens
  the key before it sends the request that triggers the replies and
  closes it when the round ends; a reply whose key is not open at
  delivery is dropped (counted in ``NetworkStats.expired``). So the
  replies past a majority or quorum never pile up.
* Any other kind is keyed by its kind string (always open).
"""

from __future__ import annotations

from typing import Hashable, Tuple

from repro.net.message import Message

__all__ = [
    "REPLICA",
    "REPLICA_KINDS",
    "PC_PRIMARY",
    "PC_BACKUP",
    "daemon_key",
    "claim_key",
    "read_key",
    "grant_key",
    "ladder_key",
    "rval_key",
    "done_key",
    "route",
]

#: Service key of the MARP replica server loop.
REPLICA = "replica"
#: Message kinds the replica server handles (Algorithm 2's clauses).
REPLICA_KINDS = (
    "UPDATE", "COMMIT", "ABORT", "RELEASE",
    "SYNC_REQUEST", "SYNC_REPLY", "READQ",
)
#: Service keys of the primary-copy primary and backup loops.
PC_PRIMARY = "pc-primary"
PC_BACKUP = "pc-backup"

_SERVICES = dict.fromkeys(REPLICA_KINDS, REPLICA)
_SERVICES.update(PC_WRITE=PC_PRIMARY, PC_APPLY=PC_BACKUP)
_DAEMON_SUFFIXES = frozenset(("LOCK", "APPLY", "ABORT", "READV"))


def daemon_key(prefix: str) -> Tuple[str, str]:
    """Service key of a quorum baseline's per-host daemon."""
    return ("daemon", prefix)


def claim_key(batch_id: int, epoch: int) -> Tuple[str, int, int]:
    """MARP ACK/NACK replies to one claim round."""
    return ("ACK", batch_id, epoch)


def read_key(request_id: Hashable) -> Tuple[str, Hashable]:
    """MARP READR replies: a quorum read's ``request_id`` or an agent's
    RMW ``fetch_id``."""
    return ("READR", request_id)


def grant_key(prefix: str, rid: int, epoch: int) -> Tuple[str, str, int, int]:
    """``<prefix>_GRANT``/``<prefix>_NACK`` replies to one lock round."""
    return (prefix, "GRANT", rid, epoch)


def ladder_key(rid: int, host: str) -> Tuple[str, str, int, str]:
    """Available copies: the GRANT from one rung of the lock ladder."""
    return ("AC", "GRANT", rid, host)


def rval_key(prefix: str, rid: int) -> Tuple[str, str, int]:
    """``<prefix>_RVAL`` replies to one quorum read."""
    return (prefix, "RVAL", rid)


def done_key(rid: int) -> Tuple[str, int]:
    """The primary's ``PC_DONE`` acknowledgement of one write."""
    return ("PC_DONE", rid)


def route(msg: Message) -> Tuple[Hashable, bool]:
    """``(key, is_reply)`` for a message; see the module docstring."""
    kind = msg.kind
    service = _SERVICES.get(kind)
    if service is not None:
        return service, False
    payload = msg.payload
    if kind == "ACK" or kind == "NACK":
        return claim_key(payload["batch_id"], payload["epoch"]), True
    if kind == "READR":
        return read_key(payload["request_id"]), True
    if kind == "PC_DONE":
        return done_key(payload["rid"]), True
    prefix, _, suffix = kind.rpartition("_")
    if prefix:
        if suffix in _DAEMON_SUFFIXES:
            return daemon_key(prefix), False
        if suffix == "GRANT" or suffix == "NACK":
            if prefix == "AC":
                return ladder_key(payload["rid"], payload["from"]), True
            return grant_key(prefix, payload["rid"], payload["epoch"]), True
        if suffix == "RVAL":
            return rval_key(prefix, payload["rid"]), True
    return kind, False
