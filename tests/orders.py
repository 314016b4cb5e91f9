"""The seed that starts a seeded edge order at a chosen edge, for the tests
that need a query to try a given edge first."""
from __future__ import annotations

from itertools import count
from typing import Iterator

from convexpoint.classify import SeededShuffle, edge_order

# per n: the seeds not yet looked at, and the least seed per first edge;
# one scan per n serves every edge, so tests that ask for many edges of a
# large polygon build each seed's order once
_scans: dict[int, tuple[Iterator[int], dict[int, int]]] = {}


def first_edge_seed(k: int, n: int) -> int:
    """The least s with ``edge_order(SeededShuffle(s), n)[0] == k``."""
    if not 0 <= k < n:
        raise IndexError(f"edge index {k} out of range for {n} edges")
    seeds, least = _scans.setdefault(n, (count(), {}))
    while k not in least:
        s = next(seeds)
        least.setdefault(edge_order(SeededShuffle(s), n)[0], s)
    return least[k]
