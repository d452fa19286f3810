"""Exact maximum independent set by branch and bound.

Shared search engine: the graph-side oracle of the reduction checker and the
identity-constrained path of the exhaustive solver are both maximum
independent set problems over small vertex sets.
"""

from __future__ import annotations

from typing import Iterable, Mapping as MappingABC, Set

from .errors import BudgetError

__all__ = ["adjacency", "lexmin_maximum_independent_set"]


def adjacency(
    vertices: Iterable[int], edges: Iterable[tuple[int, int]]
) -> dict[int, set[int]]:
    """Neighbour sets of an undirected graph, one (possibly empty) per vertex."""
    adj: dict[int, set[int]] = {v: set() for v in vertices}
    for p, q in edges:
        adj[p].add(q)
        adj[q].add(p)
    return adj


def lexmin_maximum_independent_set(
    vertices: Iterable[int],
    neighbors: MappingABC[int, Set[int]],
    max_nodes: int | None = None,
) -> tuple[int, tuple[int, ...], int]:
    """Exact maximum independent set with a deterministic witness.

    Vertices are explored in ascending label order, include-branch first,
    with only strict improvements recorded, so the returned witness is the
    lexicographically smallest optimum (as a sorted label tuple).

    Returns:
        (size, witness, explored_node_count)

    Raises:
        BudgetError: more than max_nodes search nodes were explored.
    """
    order = sorted(vertices)
    vset = set(order)
    adj = {v: {u for u in neighbors.get(v, ()) if u in vset and u != v} for v in order}
    for v in order:
        for u in adj[v]:
            adj[u].add(v)

    banned = dict.fromkeys(order, 0)
    chosen: list[int] = []
    best: list[int] = []
    nodes = 0

    def dfs(idx: int) -> None:
        nonlocal nodes, best
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise BudgetError(
                f"independent-set search exceeded {max_nodes} nodes"
            )
        if idx == len(order):
            if len(chosen) > len(best):
                best = list(chosen)
            return
        # Admissible bound: everything not yet excluded could still be taken.
        free = sum(1 for v in order[idx:] if banned[v] == 0)
        if len(chosen) + free <= len(best):
            return
        v = order[idx]
        if banned[v] == 0:
            chosen.append(v)
            for u in adj[v]:
                banned[u] += 1
            dfs(idx + 1)
            for u in adj[v]:
                banned[u] -= 1
            chosen.pop()
        dfs(idx + 1)

    dfs(0)
    return len(best), tuple(best), nodes
