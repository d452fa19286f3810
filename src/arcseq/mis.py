"""Exact maximum independent set by bit-parallel branch and bound.

Shared search engine: the graph-side oracle of the reduction checker and the
identity-constrained path of the exhaustive solver are both maximum
independent set problems over small vertex sets.

Vertex sets are Python-int bitmasks over the vertices' ranks in sorted
order, after the bit-parallel maximum-clique search of San Segundo et al.
(2011), "An exact bit-parallel algorithm for the maximum clique problem",
applied here to independent sets. The search keeps its own stack, so its
depth is not limited by Python's recursion limit.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Mapping as MappingABC, Set

from .errors import BudgetError

__all__ = ["adjacency", "lexmin_maximum_independent_set"]


def adjacency(
    vertices: Iterable[int], edges: Iterable[tuple[int, int]]
) -> dict[int, set[int]]:
    """Neighbour sets of an undirected graph, one (possibly empty) per vertex.

    Keys follow the order of ``vertices``. Edges with an endpoint outside
    ``vertices`` are left out.
    """
    adj: dict[int, set[int]] = {v: set() for v in vertices}
    for p, q in edges:
        if p in adj and q in adj:
            adj[p].add(q)
            adj[q].add(p)
    return adj


_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def bit_flags(mask: int) -> bytes:
    """Byte t is 1 if bit t of mask (>= 0) is set, else 0, up to its top bit.

    A selector for :func:`itertools.compress` over a mask's universe.
    """
    return bin(mask)[:1:-1].encode().translate(_BIT_VALUES)


def _clique_cover_size(cand: int, nbr: list[int], limit: int) -> int:
    """Cliques in a greedy clique cover of cand, counted up to limit + 1.

    Each clique starts at the lowest uncovered vertex and grows through the
    lowest uncovered common neighbour. An independent set takes at most one
    vertex per clique, so the count bounds it from above.
    """
    cliques = 0
    while cand and cliques <= limit:
        low = cand & -cand
        cand ^= low
        common = cand & nbr[low.bit_length() - 1]
        while common:
            low = common & -common
            cand ^= low
            common &= nbr[low.bit_length() - 1]
        cliques += 1
    return cliques


def lexmin_maximum_independent_set(
    vertices: Iterable[int],
    neighbors: MappingABC[int, Set[int]],
    max_nodes: int | None = None,
) -> tuple[int, tuple[int, ...], int]:
    """Exact maximum independent set with a deterministic witness.

    Depth-first branch and bound on bitmasks. A node holds the chosen set
    and ``cand``, the vertices at or after the current one that no chosen
    vertex excludes. It branches on the lowest candidate, include-branch
    first. Two admissible bounds prune a node that cannot strictly beat the
    best set found so far: ``chosen + popcount(cand)``, then, only if that
    fails, ``chosen`` plus the size of a greedy clique cover of ``cand``.
    Vertices are explored in ascending label order and only strict
    improvements are recorded, so the returned witness is the
    lexicographically smallest optimum (as a sorted label tuple).

    Neighbour sets may list a vertex on one side only, or name labels
    outside ``vertices``; edges are symmetrized and restricted to
    ``vertices``.

    Returns:
        (size, witness, explored_node_count)

    Raises:
        BudgetError: more than max_nodes search nodes were explored.
    """
    # nbr[i]: the neighbours of the rank-i vertex that rank above it, the
    # only ones the search reads (it removes a vertex's neighbours from
    # candidates at or after it). An edge listed on either side lands there.
    order = sorted(set(vertices))
    n = len(order)
    nbr = [0] * n
    if n and order[-1] - order[0] == n - 1:
        # Contiguous labels, as in every graph on 1..n: a label's rank is
        # its offset from the lowest label, so no rank table is needed.
        low, high = order[0], order[-1]
        for v in order:
            for u in neighbors.get(v, ()):
                if v < u <= high:
                    nbr[v - low] |= 1 << u - low
                elif low <= u < v:
                    nbr[u - low] |= 1 << v - low
    else:
        rank = {v: i for i, v in enumerate(order)}
        for i, v in enumerate(order):
            for u in neighbors.get(v, ()):
                j = rank.get(u, i)
                if j > i:
                    nbr[i] |= 1 << j
                elif j < i:
                    nbr[j] |= 1 << i

    best_size, best_set = 0, 0
    nodes = 0
    stack = [((1 << n) - 1, 0, 0)]
    while stack:
        cand, size, chosen = stack.pop()
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise BudgetError(
                f"independent-set search exceeded {max_nodes} nodes"
            )
        if not cand:
            if size > best_size:
                best_size, best_set = size, chosen
            continue
        slack = best_size - size
        if cand.bit_count() <= slack or _clique_cover_size(cand, nbr, slack) <= slack:
            continue
        low = cand & -cand
        stack.append((cand ^ low, size, chosen))
        stack.append(((cand & ~nbr[low.bit_length() - 1]) ^ low, size + 1, chosen | low))

    witness = tuple(compress(order, bit_flags(best_set)))
    return best_size, witness, nodes
