"""Exact solvers for arc-preserving common-subsequence instances.

Three routes, all exact:

* :func:`lcs_dp` -- arc-free inputs, on bit-parallel suffix-LCS rows:
  O(n * ceil(m / w)) word operations, n * m bits of rows, and O(n + L) row
  lookups for the witness. :func:`exact_search`'s pair search reads its LCS
  bound from the same rows, one masked popcount per read, with no per-call
  table.
* :func:`diagonal_conflict_solve` -- identity-constrained instances
  (fragment width 1 / diagonal width 0) reduce to maximum independent set on
  a conflict graph; when every position carries at most one arc per side the
  conflict graph has maximum degree 2, its components are paths and cycles,
  and one linear walk gives each component's lexmin optimum: a closed form
  up to 3 vertices (and for any odd path), one scan for a longer even path.
* :func:`exact_search` -- pruned exhaustive search, the universal
  small-instance oracle. Its identity route solves the graph of
  :func:`build_conflict_graph`; both identity routes read their conflict
  edges from :func:`_conflict_edges`, over the common prefix of two
  sequences of any lengths.

:func:`solve` dispatches between them. Every solver returns the
lexicographically smallest optimal witness (pair list sorted by S1 position,
then S2 position), so outputs are byte-reproducible. Both identity routes
build it on the first read of ``witness``, which no sweep makes.
"""

from __future__ import annotations

from itertools import compress, count
from operator import eq

from .core import AnnotatedSequence, Mapping, MatchConstraint, _Record, _require_int, _trusted
from .errors import BudgetError, CapabilityError, ValidationError, WrongSolverError
from .mis import NeighborMasks, lexmin_maximum_independent_set

__all__ = [
    "SearchBudget",
    "SolveResult",
    "lcs_dp",
    "build_conflict_graph",
    "diagonal_conflict_solve",
    "exact_search",
    "solve",
]


class SearchBudget(_Record):
    """Hard limits for :func:`exact_search` and the graph side of
    :mod:`arcseq.reductions`, checked here only.

    Exceeding a limit raises BudgetError; there is no silent truncation.
    Every entry point that takes a budget accepts None (``DEFAULT_BUDGET``)
    or a SearchBudget; anything else is a ValidationError there.

    Attributes:
        max_cells: cap on len(s1) * len(s2) for windowed/unconstrained search.
        max_identity_length: cap on sequence length for identity-constrained
            instances (fragment(1) / diagonal(0)).
        max_nodes: optional cap on explored search nodes.
        mis_max_vertices: cap on the vertex count of a graph whose
            independence number or maximum independent set is computed.

    Raises:
        ValidationError: a cap is not an int, a cap is negative, or max_nodes
            is below 1.
    """

    _fields = ("max_cells", "max_identity_length", "max_nodes", "mis_max_vertices")

    def __init__(
        self,
        max_cells: int = 400,
        max_identity_length: int = 64,
        max_nodes: int | None = None,
        mis_max_vertices: int = 20,
    ):
        _require_int(max_cells, "max_cells")
        _require_int(max_identity_length, "max_identity_length")
        _require_int(mis_max_vertices, "mis_max_vertices")
        if max_nodes is not None:
            _require_int(max_nodes, "max_nodes")
        if min(max_cells, max_identity_length, mis_max_vertices) < 0:
            raise ValidationError(
                f"search budget caps must be >= 0, got max_cells={max_cells}, "
                f"max_identity_length={max_identity_length}, "
                f"mis_max_vertices={mis_max_vertices}"
            )
        if max_nodes is not None and max_nodes < 1:
            raise ValidationError(f"max_nodes must be >= 1, got {max_nodes}")
        self.__dict__.update(
            max_cells=max_cells, max_identity_length=max_identity_length,
            max_nodes=max_nodes, mis_max_vertices=mis_max_vertices,
        )


DEFAULT_BUDGET = SearchBudget()


def _resolve_budget(budget: SearchBudget | None) -> SearchBudget:
    """DEFAULT_BUDGET for None, budget for a SearchBudget, else ValidationError."""
    if budget is None:
        return DEFAULT_BUDGET
    if not isinstance(budget, SearchBudget):
        raise ValidationError(f"budget must be None or a SearchBudget, got {budget!r}")
    return budget


class SolveResult(_Record):
    """Outcome of an exact solve.

    Every solver in this module is exact, and length always equals
    len(witness.pairs). stats carries solver-specific diagnostics
    (explored nodes, table sizes, conflict counts), a fresh empty dict when
    none is given. Both identity routes keep their chosen positions and
    build the witness on its first read, so a sweep, which reads only
    length, never builds one.
    """

    _fields = ("length", "witness", "stats")

    def __init__(self, length: int, witness: Mapping, stats: dict | None = None):
        self.__dict__.update(length=length, witness=witness, stats={} if stats is None else stats)

    def __getattr__(self, name: str):
        # Reached only for a name missing from __dict__: an identity route's
        # witness before its first read. setdefault keeps the first build, so
        # concurrent first reads return one object.
        chosen = self.__dict__.get("_chosen") if name == "witness" else None
        if chosen is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        if isinstance(chosen, bytearray):
            chosen = list(compress(count(), chosen))
        return self.__dict__.setdefault("witness", _identity_witness(chosen))

    def __getstate__(self) -> dict:
        # Pickles and copies hold the fields alone, as an eager result's do.
        return {name: getattr(self, name) for name in self._fields}


def _plain_string(s: str | AnnotatedSequence, side: str) -> str:
    if isinstance(s, AnnotatedSequence):
        if s.arcs:
            raise WrongSolverError(
                f"lcs_dp requires arc-free inputs but {side} carries "
                f"{len(s.arcs)} arc(s); use solve() or exact_search()"
            )
        return s.seq
    return s


def _suffix_lcs_rows(s1: str, s2: str) -> list[int]:
    """Bit-parallel suffix-LCS rows of s1 against s2, one m-bit int per S1 suffix.

    Bit t of rows[i] stands for S2 position m - t, and is set exactly when
    that position is an LCS step: when the LCS of s1[i..] against s2[m-t..]
    is one more than against s2[m-t+1..]. So the LCS of s1[i..] and s2[j..]
    (1-based, i = 1..n+1, j = 1..m+1) is one masked popcount,
    ``(rows[i] & ((1 << m - j + 1) - 1)).bit_count()``, and rows[n + 1] is
    0. The steps are the complement of V in the bit-vector LCS recurrence of
    Allison & Dix (1986) in the form of Hyyro (2004),
    V = ((V + U) | (V - U)) & full with U = V & match[ch], run over both
    strings reversed: O(n * ceil(m / w)) word operations for machine words of
    w bits, and n * m bits of storage. rows[0] is unused.
    """
    n, m = len(s1), len(s2)
    match: dict[str, int] = {}
    for t, ch in enumerate(reversed(s2)):
        match[ch] = match.get(ch, 0) | 1 << t
    full = (1 << m) - 1
    rows = [0] * (n + 2)
    v = full
    for i in range(n, 0, -1):
        u = v & match.get(s1[i - 1], 0)
        v = ((v + u) | (v - u)) & full
        rows[i] = v ^ full
    return rows


def lcs_dp(s1: str | AnnotatedSequence, s2: str | AnnotatedSequence) -> SolveResult:
    """Longest common subsequence of two plain strings, on bit-parallel rows.

    The arc-free case is ordinary LCS. The suffix-LCS lengths are held as
    one m-bit row per S1 suffix (:func:`_suffix_lcs_rows`): O(n * ceil(m / w))
    word operations for machine words of w bits, and n * m bits of storage.
    The witness is recovered greedily: repeatedly take the lexicographically
    smallest pair that still completes an optimum. In each row only the
    first occurrence of the row's letter at or after the current S2 position
    can qualify (rows do not increase along S2), so recovery costs O(n + L)
    row lookups for a witness of length L. ``stats["table_cells"]`` is
    (n+1)(m+1), the size of the suffix-LCS table the rows stand for: a
    measure of the instance, not an allocation.

    Raises:
        WrongSolverError: an input is an AnnotatedSequence with arcs.
    """
    str1 = _plain_string(s1, "S1")
    str2 = _plain_string(s2, "S2")
    n, m = len(str1), len(str2)
    rows = _suffix_lcs_rows(str1, str2)

    pairs: list[tuple[int, int]] = []
    j = 1
    target = rows[1].bit_count()
    for i in range(1, n + 1):
        if not target:
            break
        # (i, j2) completes an optimum iff LCS(s1[i+1..], s2[j2+1..]) =
        # target - 1, i.e. iff the suffix LCS at (i, j2) is still target.
        j2 = str2.find(str1[i - 1], j - 1) + 1
        if j2 and (rows[i] & ((1 << m - j2 + 1) - 1)).bit_count() == target:
            pairs.append((i, j2))
            j = j2 + 1
            target -= 1
    # The pairs rise strictly in both coordinates by construction.
    return SolveResult(
        length=len(pairs),
        witness=_trusted(Mapping, pairs=tuple(pairs)),
        stats={"solver": "lcs_dp", "table_cells": (n + 1) * (m + 1)},
    )


def build_conflict_graph(a1: AnnotatedSequence, a2: AnnotatedSequence) -> NeighborMasks:
    """Conflicts between candidate identity matches, as the engine reads them.

    Only the common prefix can be matched under identity, so the labels are
    the candidates, the positions p <= min(len(a1), len(a2)) with
    S1[p] = S2[p], in ascending order; as a mapping, each reads as its
    neighbour set (see :class:`NeighborMasks`). An edge joins candidates
    p < q when exactly one of the two arc sets contains (p, q): matching
    both endpoints would then break arc preservation, so any valid identity
    mapping is an independent set here. :func:`exact_search`'s identity
    route solves this graph.
    """
    flags, arcs = _conflict_edges(a1, a2)
    return NeighborMasks(compress(count(), flags), arcs)


def _conflict_edges(
    a1: AnnotatedSequence, a2: AnnotatedSequence
) -> tuple[bytes, frozenset[tuple[int, int]]]:
    """The one definition of the conflict graph over positions 1..min(len).

    Returns (flags, arcs): flags[p] is 1 exactly when p is a candidate,
    S1[p] = S2[p] (flags[0] is 0), and arcs holds the arcs of exactly one
    side. The conflict edges are the arcs whose two ends are candidates, so
    an arc that ends past the common prefix, and past flags, adds none.
    Equal sequences, which both reductions build, make every position a
    candidate after one string comparison.
    """
    s1, s2 = a1.seq, a2.seq
    flags = b"\1" * len(s1) if s1 == s2 else bytes(map(eq, s1, s2))
    return b"\0" + flags, a1.arcs ^ a2.arcs


def _lexmin_path_mis(order: list[int]) -> list[int]:
    """Lexicographically smallest maximum independent set of a walked path.

    A path of odd length has exactly one maximum independent set, its even
    offsets: a lone vertex, or both ends of 3 vertices. A path of 2h
    vertices has h + 1 of them, S_0..S_h, where S_c takes the even offsets
    before 2c and the odd offsets from 2c on. S_c and S_d (c < d) differ only
    on order[2c:2d], and the smallest label there decides: S_d is the smaller
    iff that label sits at an even offset. So one scan in walk order keeps
    the best cut so far and the smallest label since it, and a 2-vertex path
    takes its smaller label. The labels need not rise along the walk.
    """
    size = len(order)
    if size % 2:
        return order[::2]
    if size == 2:
        return [min(order)]
    cut, low, low_even = 0, None, False
    for j in range(0, size, 2):
        x, y = order[j], order[j + 1]
        if low is None or x < low or y < low:
            low, low_even = (x, True) if x < y else (y, False)
        if low_even:
            cut, low = j + 2, None
    return order[:cut:2] + order[cut + 1::2]


def diagonal_conflict_solve(a1: AnnotatedSequence, a2: AnnotatedSequence) -> SolveResult:
    """Exact identity-constrained optimum when conflicts have degree <= 2.

    Under fragment(1)/diagonal(0) only positions p with S1[p] = S2[p] can be
    matched, and a set of matched positions is feasible exactly when it is
    independent in the conflict graph, :func:`build_conflict_graph`'s graph
    over the common prefix. When both arc sets keep endpoints
    disjoint, every vertex has at most one incident arc per side, so the
    conflict graph decomposes into paths and cycles and the maximum
    independent set is computed component by component (the optimum equals
    candidates minus a minimum vertex cover). The whole solve takes linear
    time. One pass over the conflict edges fills two flat neighbour slots
    per position and a state byte (the degree so far), and declines the
    instance as soon as a vertex gets a third neighbour, before any walk.
    Isolated vertices are then taken without a walk, in one pass over the
    state bytes. Paths start only at their smaller end; one of 2 vertices
    takes that end and one of 3 takes both, without building a walk. The
    walk visits each longer path, then each cycle from its smallest vertex,
    stepping to the neighbour it did not come from. A longer path's lexmin
    witness (:func:`_lexmin_path_mis`) is a closed form for any odd path
    (its even offsets); only an even path takes one scan along the walk.
    The chosen vertices are marked in a byte per position and read off in
    ascending order, so no sort is needed. The candidate flags are padded
    with zeros to the longer sequence, so the slots cover every arc, and an
    arc that ends past the common prefix ends on a non-candidate.

    Raises:
        CapabilityError: some conflict vertex has degree > 2 (use
            exact_search for those instances).
    """
    flags, arcs = _conflict_edges(a1, a2)
    take, stats = _degree2_mis(flags.ljust(max(len(a1), len(a2)) + 1, b"\0"), arcs)
    # The witness is built after _degree2_mis has returned and freed the
    # arc set: its pairs set off young collections, which would traverse it.
    return _trusted(SolveResult, length=take.count(1), stats=stats, _chosen=take)


def _identity_witness(positions: list[int] | tuple[int, ...]) -> Mapping:
    """The identity mapping on distinct ascending positions >= 1, unchecked."""
    # Through a list: a tuple built from an iterator is resized as it grows,
    # and each resize makes it young again, so every young collection that
    # the new pairs set off would traverse it whole.
    return _trusted(Mapping, pairs=tuple(list(zip(positions, positions))))


# A position's state byte: its degree so far (0, 1 or 2) while it is an
# unvisited candidate, else one of these.
_NOT_CANDIDATE, _VISITED = 3, 4
# bytes.translate tables: candidate flags to initial states, and _DEGREE_d
# maps a state to 1 if it is d, else 0.
_INITIAL_STATE = bytes([_NOT_CANDIDATE, 0]) + bytes(254)
_DEGREE_0, _DEGREE_1, _DEGREE_2 = (bytes(d) + b"\x01" + bytes(255 - d) for d in range(3))


def _degree2_mis(flags: bytes, arcs: frozenset[tuple[int, int]]) -> tuple[bytearray, dict]:
    """The walk of :func:`diagonal_conflict_solve`, on flat neighbour slots.

    Takes :func:`_conflict_edges`' output and returns the chosen vertices,
    as bytes with a 1 at each, and the lane's stats.

    Raises:
        CapabilityError: a conflict vertex has a third neighbour.
    """
    # Two flat neighbour slots per position, filled in edge order.
    size = len(flags)
    first = [0] * size
    second = [0] * size
    state = bytearray(flags.translate(_INITIAL_STATE))
    outside = _NOT_CANDIDATE
    for p, q in arcs:
        dp, dq = state[p], state[q]
        # Both states are 0 or 1 for most edges: one test lets those through.
        if dp | dq > 1:
            if dp == outside or dq == outside:
                continue
            raise CapabilityError(
                f"conflict vertex {p if dp == 2 else q} has more than 2 "
                "neighbours; use exact_search()"
            )
        (second if dp else first)[p] = q
        (second if dq else first)[q] = p
        state[p] = dp + 1
        state[q] = dq + 1

    # take[v] = 1 marks a chosen vertex; isolated candidates are taken whole.
    take = state.translate(_DEGREE_0)
    ends = state.count(1)
    stats = {
        "solver": "diagonal_conflict",
        "candidates": flags.count(1),
        "conflict_edges": ends // 2 + state.count(2),
        "components": state.count(0) + ends // 2,
    }
    # Each path is walked from its smaller end, the first of its two ends in
    # ascending order; each step goes to the neighbour that is not the
    # previous vertex. A path of two vertices takes its smaller end, and one
    # of three takes both ends, without building the walk's order.
    visited = _VISITED
    for v in compress(count(), state.translate(_DEGREE_1)):
        if state[v] == visited:
            continue
        prev, cur = v, first[v]
        if state[cur] == 1:
            state[cur] = visited
            take[v] = 1
            continue
        end = first[cur]
        if end == v:
            end = second[cur]
        if state[end] == 1:
            state[cur] = state[end] = visited
            take[v] = take[end] = 1
            continue
        order = [v, cur]
        while state[cur] == 2:
            state[cur] = visited
            nxt = first[cur]
            if nxt == prev:
                nxt = second[cur]
            prev, cur = cur, nxt
            order.append(cur)
        state[cur] = visited
        for x in _lexmin_path_mis(order):
            take[x] = 1
    # Degree-2 vertices that no path passed through lie on cycles. A cycle
    # has a maximum independent set through each vertex; taking its
    # smallest, v, leaves the path strictly between v's two neighbours.
    if 2 in state:
        for v in compress(count(), state.translate(_DEGREE_2)):
            if state[v] == visited:
                continue
            stats["components"] += 1
            take[v] = 1
            prev, cur, last = v, first[v], second[v]
            order = [v, cur]
            while cur != last:
                state[cur] = visited
                nxt = first[cur]
                if nxt == prev:
                    nxt = second[cur]
                prev, cur = cur, nxt
                order.append(cur)
            state[cur] = visited
            for x in _lexmin_path_mis(order[2:-1]):
                take[x] = 1
    return take, stats


def exact_search(
    a1: AnnotatedSequence,
    a2: AnnotatedSequence,
    mc: MatchConstraint,
    budget: SearchBudget | None = None,
) -> SolveResult:
    """Exact optimum over all constraint-satisfying arc-preserving mappings.

    Branch and bound over candidate pairs in lexicographic order. The upper
    bound is the plain LCS of the remaining suffixes, which is admissible
    because dropping arcs and constraints only relaxes the problem; each
    bound test reads it from the suffix-LCS rows as one masked popcount.
    Identity-forcing constraints take a specialized route, the maximum
    independent set of :func:`build_conflict_graph`, with identical results
    and tie-break. The pair search reports ``stats["table_cells"]`` =
    (n+1)(m+1), a size measure of the instance and not an allocation: it
    builds no table.

    Raises:
        BudgetError: the instance exceeds the configured search budget.
    """
    budget = _resolve_budget(budget)
    n, m = len(a1), len(a2)

    if mc.forces_identity():
        if max(n, m) > budget.max_identity_length:
            raise BudgetError(
                f"identity-constrained instance of length {max(n, m)} exceeds "
                f"budget {budget.max_identity_length}"
            )
        graph = build_conflict_graph(a1, a2)
        size, members, nodes = lexmin_maximum_independent_set(
            graph, graph, max_nodes=budget.max_nodes
        )
        stats = {"solver": "exact_search", "nodes": nodes, "candidates": len(graph)}
        return _trusted(SolveResult, length=size, stats=stats, _chosen=members)

    if n * m > budget.max_cells:
        raise BudgetError(
            f"instance of size {n}x{m} exceeds budget of {budget.max_cells} cells"
        )

    s1, s2 = a1.seq, a2.seq
    p1, p2 = a1.arcs, a2.arcs
    rows = _suffix_lcs_rows(s1, s2)
    # masks[j] keeps the bits of S2 positions j..m: the LCS of s1[i..] and
    # s2[j..] is (rows[i] & masks[j]).bit_count().
    masks = [(1 << m - j + 1) - 1 for j in range(m + 2)]

    best: list[tuple[int, int]] = []
    best_len = -1
    cur: list[tuple[int, int]] = []
    nodes = 0
    max_nodes = budget.max_nodes

    def node(last_i: int, last_j: int):
        """One search node; yields each child pair in visit order."""
        nonlocal nodes, best, best_len
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise BudgetError(f"exhaustive search exceeded {max_nodes} nodes")
        # cur holds depth pairs whenever this node runs: the main loop pops
        # each child's pair before it resumes the node.
        depth = len(cur)
        if depth > best_len:
            best_len = depth
            best = list(cur)
        for i in range(last_i + 1, n + 1):
            row = rows[i]
            if depth + (row & masks[last_j + 1]).bit_count() <= best_len:
                break
            for j in range(last_j + 1, m + 1):
                if depth + (row & masks[j]).bit_count() <= best_len:
                    break
                if s1[i - 1] != s2[j - 1] or not mc.allows(i, j):
                    continue
                for pi, pj in cur:
                    if ((pi, i) in p1) != ((pj, j) in p2):
                        break
                else:
                    yield i, j

    # Depth-first on an explicit stack of suspended nodes, so the depth is
    # not bounded by the interpreter's recursion limit; stack[d] is the node
    # reached by cur[:d].
    stack = [node(0, 0)]
    while stack:
        pair = next(stack[-1], None)
        if pair is None:
            stack.pop()
            if cur:
                cur.pop()
        else:
            cur.append(pair)
            stack.append(node(*pair))
    return SolveResult(
        length=best_len,
        witness=Mapping(tuple(best)),
        stats={"solver": "exact_search", "nodes": nodes, "table_cells": (n + 1) * (m + 1)},
    )


def solve(
    a1: AnnotatedSequence,
    a2: AnnotatedSequence,
    mc: MatchConstraint,
    budget: SearchBudget | None = None,
) -> SolveResult:
    """Route an instance to the cheapest applicable exact solver.

    Arc-free unconstrained instances go to lcs_dp; identity-constrained
    instances, of any lengths, go to diagonal_conflict_solve, which decides
    whether the conflict degree allows it; everything else, and every
    instance it declines, goes to exact_search. The lane is skipped when
    equal sequences carry more conflict arcs than positions, which forces a
    vertex of degree >= 3; the arc counts are compared before the xor.
    """
    budget = _resolve_budget(budget)
    if not a1.arcs and not a2.arcs and mc.kind == "unconstrained":
        return lcs_dp(a1, a2)
    if mc.forces_identity():
        n = len(a1)
        if len(a1.arcs) + len(a2.arcs) <= n or a1.seq != a2.seq or len(a1.arcs ^ a2.arcs) <= n:
            try:
                return diagonal_conflict_solve(a1, a2)
            except CapabilityError:
                pass
    return exact_search(a1, a2, mc, budget)
