"""The exact byte-conservation check of a sharded replay.

``repro bench --tier cluster`` runs the bundled ``cluster``/
``cluster-smoke`` spec: a :class:`~repro.cluster.ShardedHierarchy`
replaying the orbit path as ``orbit/K1`` (one node, the shard-equivalence
surface), ``orbit/K4`` (four slab-sharded nodes) and
``orbit/K4/partition`` (the home node's first peer link severed, which
exercises the cold-store fallback).  Every sharded cell records
:func:`ledger_reconciles`, and ``repro bench`` exits non-zero naming
each cell where it is false.
"""

from __future__ import annotations

__all__ = ["ledger_reconciles"]


def ledger_reconciles(hierarchy) -> bool:
    """Exact (integer ``==``) conservation check over a sharded run.

    Every byte the hierarchy served must appear in exactly one route of the
    split ledger, and every peer byte must be charged to exactly one link:

    - ``bytes_moved`` (``backing_bytes`` + every cache level's
      ``bytes_read``) equals ``local + ghost + peer + cold``;
    - ``peer`` equals the fabric total, which equals the per-link sum.
    """
    ledger = hierarchy.cluster_ledger()
    split = ledger["split_bytes"]
    bytes_moved = hierarchy.backing_bytes + hierarchy.stats().total_bytes_read
    link_bytes = sum(row["bytes"] for row in ledger["links"].values())
    return (
        bytes_moved == sum(split.values())
        and split["peer"] == ledger["peer_bytes"] == link_bytes
    )
