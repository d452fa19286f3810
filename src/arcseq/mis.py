"""Exact maximum independent set, by two engines that share no code.

:func:`lexmin_maximum_independent_set` returns the lexicographically
smallest optimum. A graph reaches it as :class:`NeighborMasks`, built once
from its edges: per vertex, a Python-int bitmask of its neighbours' ranks in
sorted order, after the bit-parallel maximum-clique search of San Segundo et
al. (2011), "An exact bit-parallel algorithm for the maximum clique
problem", applied here to independent sets. It is the package's one graph
form, built from a sequence pair by :func:`arcseq.solvers.build_conflict_graph`
and from a Graph by :func:`arcseq.reductions.max_independent_set`; as a
mapping it reads as each label's neighbour set.
:func:`independence_number`, the size alone, is the reduction checker's
graph-side oracle. Both keep their own stack, so their depth is not limited
by Python's recursion limit.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Mapping as MappingABC
from functools import reduce
from itertools import compress
from operator import or_

from .errors import BudgetError, ValidationError

__all__ = ["NeighborMasks", "independence_number", "lexmin_maximum_independent_set"]


_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def bit_flags(mask: int) -> bytes:
    """Byte t is 1 if bit t of mask (>= 0) is set, else 0, up to its top bit.

    A selector for :func:`itertools.compress` over a mask's universe.
    """
    return bin(mask)[:1:-1].encode().translate(_BIT_VALUES)


class NeighborMasks(MappingABC):
    """The graph on ``vertices`` with ``edges``, as the engine reads it.

    ``order`` holds the labels in ascending order; bit j of ``masks[i]`` is
    set when the labels of ranks i and j are adjacent, so a mask is a whole
    neighbourhood. An edge may be listed in either direction, more than
    once; loops and edges leaving ``vertices`` are left out. Bit i of
    ``touched`` is set when the label of rank i has a neighbour. As a
    read-only mapping, a label's value is its neighbour set: a binary search
    of ``order``, then C-level passes over its mask up to the top bit, linear
    in the rank of the label's highest neighbour, not in its degree.
    """

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, int]]):
        self.order = order = tuple(sorted(set(vertices)))
        n = len(order)
        self.masks = masks = [0] * n
        low, high = (order[0], order[-1]) if n else (0, -1)
        if high - low != n - 1:
            # Gapped labels are ranked through a table; contiguous ones, as
            # in every graph on 1..n, by their offset from the lowest.
            rank = {v: i for i, v in enumerate(order)}.get
            edges = ((rank(p, -1), rank(q, -1)) for p, q in edges)
            low, high = 0, n - 1
        for p, q in edges:
            if p != q and low <= p <= high and low <= q <= high:
                masks[p - low] |= 1 << q - low
                masks[q - low] |= 1 << p - low
        self.touched = reduce(or_, masks, 0)

    def __getitem__(self, v: int) -> frozenset[int]:
        if v not in self:
            raise KeyError(v)
        return frozenset(compress(self.order, bit_flags(self.masks[bisect_left(self.order, v)])))

    def __contains__(self, v) -> bool:
        try:
            return self.order[bisect_left(self.order, v)] == v
        except (TypeError, IndexError):  # v does not compare with the labels, or is above them
            return False

    def __iter__(self):
        return iter(self.order)

    def __len__(self) -> int:
        return len(self.order)


def lexmin_maximum_independent_set(
    vertices: NeighborMasks,
    neighbors: NeighborMasks,
    max_nodes: int | None = None,
) -> tuple[int, tuple[int, ...], int]:
    """Exact maximum independent set with a deterministic witness.

    Depth-first branch and bound on bitmasks. A vertex with no neighbour is
    in every maximum independent set, so the root takes all of them and the
    search branches over the others. A node holds the chosen set and
    ``cand``, the other vertices at or after the current one that no chosen
    vertex excludes. It branches on the lowest candidate, include-branch
    first: the include child is entered at once and only the exclude child
    waits on the stack. Two admissible bounds prune a node that cannot
    strictly beat the best set found so far: ``chosen + popcount(cand)``,
    then, only if that fails, ``chosen`` plus the size of a greedy clique
    cover of ``cand`` (an independent set takes at most one vertex of each
    clique), counted inline and only up to the point where it stops pruning.
    Vertices are explored in ascending label order and only strict
    improvements are recorded, so the returned witness is the
    lexicographically smallest optimum (as a sorted label tuple): adding the
    isolated vertices to two sets of equal size keeps their order, so
    witness and node count are those of the search on the other vertices.

    It is called as ``(masks, masks)`` with one :class:`NeighborMasks`; the
    two parameter names stay because the benchmark's tracer reads them.

    Returns:
        (size, witness, explored_node_count)

    Raises:
        ValidationError: the arguments are not one NeighborMasks, twice.
        BudgetError: more than max_nodes search nodes were explored.
    """
    if not (vertices is neighbors and isinstance(neighbors, NeighborMasks)):
        raise ValidationError("the independent-set search takes (masks, masks), one NeighborMasks")
    order, touched = neighbors.order, neighbors.touched
    nbr = [0, *neighbors.masks]  # indexed by a vertex bit's bit_length()
    isolated = (1 << len(order)) - 1 ^ touched

    best_size, best_set = 0, 0
    nodes = 0
    stack = []  # exclude children; an include child is entered at once
    cand, size, chosen = touched, isolated.bit_count(), isolated
    while True:
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise BudgetError(
                f"independent-set search exceeded {max_nodes} nodes"
            )
        if cand:
            slack = best_size - size
            if cand.bit_count() > slack:
                # Greedy clique cover, counted up to slack + 1: each clique
                # grows from the lowest uncovered candidate through the
                # lowest uncovered common neighbour.
                rest, cliques = cand, 0
                while rest and cliques <= slack:
                    low = rest & -rest
                    rest ^= low
                    common = rest & nbr[low.bit_length()]
                    while common:
                        low = common & -common
                        rest ^= low
                        common &= nbr[low.bit_length()]
                    cliques += 1
                if cliques > slack:
                    low = cand & -cand
                    stack.append((cand ^ low, size, chosen))
                    cand = (cand & ~nbr[low.bit_length()]) ^ low
                    size += 1
                    chosen |= low
                    continue
        elif size > best_size:
            best_size, best_set = size, chosen
        if not stack:
            break
        cand, size, chosen = stack.pop()

    witness = tuple(compress(order, bit_flags(best_set)))
    return best_size, witness, nodes


def independence_number(n: int, edges: Iterable[tuple[int, int]]) -> int:
    """α of the graph on vertices 1..n with ``edges`` (pairs of distinct
    vertices, in either order, repeats allowed): the size only.

    Branch and reduce on symmetric neighbour bitmasks, sharing no code with
    :func:`lexmin_maximum_independent_set`: a vertex of degree 0 or 1 is in
    some maximum independent set, so it is taken at once and its neighbour
    dropped; with none left, the search branches on a vertex of maximum
    degree, include child first (Tarjan & Trojanowski 1977; Akiba & Iwata
    2016). A node that cannot beat the best size with every live vertex is
    pruned.
    """
    nbr = [0] * (n + 1)
    for i, j in edges:
        nbr[i] |= 1 << j
        nbr[j] |= 1 << i
    best = 0
    stack = [((1 << n + 1) - 2, 0)]  # (live vertices, size taken so far)
    while stack:
        live, size = stack.pop()
        # Passes over the live vertices until one takes none: a vertex of
        # degree 0 or 1 is taken, and its neighbour dropped, on sight; the
        # branch vertex is read off the pass that takes none.
        taken = True
        while taken and live:
            taken, top, pick, rest = False, 1, 0, live
            while rest:
                low = rest & -rest
                rest ^= low
                near = nbr[low.bit_length() - 1] & live
                if not near & (near - 1):
                    live ^= low | near
                    rest &= live
                    size += 1
                    taken = True
                elif not taken:
                    degree = near.bit_count()
                    if degree > top:
                        top, pick = degree, low
        if size + live.bit_count() <= best:
            continue
        if not live:
            best = size
            continue
        stack.append((live ^ pick, size))
        stack.append(((live & ~nbr[pick.bit_length() - 1]) ^ pick, size + 1))  # popped first
    return best
