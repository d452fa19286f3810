"""Independent brute-force oracles used to pin expected values.

Everything here enumerates exhaustively with no pruning or shared code with
the solvers under test, so the implementations and these oracles can only
agree by computing the same mathematical quantity. Keep instances small.
The kept earlier versions of rewritten functions (named after what they did
differently) are references of another kind: the new code must match them.
"""

import itertools
from collections.abc import Iterable, Mapping as MappingABC, Set
from itertools import compress

from arcseq import AnnotatedSequence, FormatError, MatchConstraint, StructureLevel, ValidationError
from arcseq.core import _trusted
from arcseq.errors import BudgetError, CapabilityError
from arcseq.mis import NeighborMasks, bit_flags
from arcseq.solvers import SearchBudget, SolveResult, diagonal_conflict_solve, exact_search, lcs_dp
from arcseq.reductions import (
    _IDENTITY,
    ROW_FIELDS,
    EquivalenceReport,
    Graph,
    Provenance,
    ReductionInstance,
    _case_and_threshold,
    _check,
)


def is_subsequence(t: str, s: str) -> bool:
    it = iter(s)
    return all(ch in it for ch in t)


def brute_lcs(s1: str, s2: str) -> int:
    """LCS length by enumerating subsequences of s1, longest first."""
    if len(s2) < len(s1):
        s1, s2 = s2, s1
    for r in range(len(s1), 0, -1):
        for combo in itertools.combinations(range(len(s1)), r):
            if is_subsequence("".join(s1[i] for i in combo), s2):
                return r
    return 0


def brute_lexmin_lcs(s1: str, s2: str) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Longest common subsequence as 1-based position pairs, lexicographically
    smallest among the longest.

    For each size from min(len) down, every increasing position tuple of s1 is
    paired with every one of s2; the smallest letter-matching pair list of the
    first size that has one is returned.
    """
    for r in range(min(len(s1), len(s2)), 0, -1):
        matches = [
            tuple(zip(c1, c2))
            for c1 in itertools.combinations(range(1, len(s1) + 1), r)
            for c2 in itertools.combinations(range(1, len(s2) + 1), r)
            if all(s1[i - 1] == s2[j - 1] for i, j in zip(c1, c2))
        ]
        if matches:
            return r, min(matches)
    return 0, ()


def brute_lapcs(a1: AnnotatedSequence, a2: AnnotatedSequence, mc: MatchConstraint) -> int:
    """Optimal arc-preserving length by unpruned enumeration of all mappings."""
    pairs = [
        (i, j)
        for i in range(1, len(a1) + 1)
        for j in range(1, len(a2) + 1)
        if a1.base(i) == a2.base(j) and mc.allows(i, j)
    ]
    best = 0

    def extend(idx, cur):
        nonlocal best
        best = max(best, len(cur))
        for t in range(idx, len(pairs)):
            i, j = pairs[t]
            if cur and (i <= cur[-1][0] or j <= cur[-1][1]):
                continue
            if all(((pi, i) in a1.arcs) == ((pj, j) in a2.arcs) for pi, pj in cur):
                cur.append((i, j))
                extend(t + 1, cur)
                cur.pop()

    extend(0, [])
    return best


def brute_identity_lapcs(a1: AnnotatedSequence, a2: AnnotatedSequence) -> int:
    """Identity-constrained optimum by enumerating candidate subsets."""
    n = min(len(a1), len(a2))
    cands = [p for p in range(1, n + 1) if a1.base(p) == a2.base(p)]
    for r in range(len(cands), 0, -1):
        for combo in itertools.combinations(cands, r):
            ok = True
            for x in range(len(combo)):
                for y in range(x + 1, len(combo)):
                    pq = (combo[x], combo[y])
                    if (pq in a1.arcs) != (pq in a2.arcs):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return r
    return 0


def brute_max_independent_set(n: int, edges) -> int:
    """Size of a largest independent set of the graph on vertices 1..n.

    An unpruned scan over all 2^n vertex subsets as bitmasks, bit v - 1
    standing for vertex v: a subset is independent when it holds both ends
    of no edge, one ``mask & e == e`` test per edge mask.
    """
    edge_masks = [1 << i - 1 | 1 << j - 1 for i, j in edges]
    best = 0
    for mask in range(1 << n):
        for e in edge_masks:
            if mask & e == e:
                break
        else:
            best = max(best, mask.bit_count())
    return best


def brute_lexmin_independent_set(vertices, edges) -> tuple[int, tuple[int, ...]]:
    """Largest independent set, lexicographically smallest among the largest.

    Subsets are tried largest first, each size in lexicographic order of the
    sorted labels, and the first independent one is returned.
    """
    vs = sorted(set(vertices))
    conflicts = {frozenset(e) for e in edges}
    for r in range(len(vs), 0, -1):
        for combo in itertools.combinations(vs, r):
            if all(frozenset(pair) not in conflicts for pair in itertools.combinations(combo, 2)):
                return r, combo
    return 0, ()


def conflict_graph_by_definition(a1: AnnotatedSequence, a2: AnnotatedSequence):
    """Identity candidates of two sequences and their conflicts.

    Candidates are the positions of the common prefix whose letters agree;
    two candidates p < q conflict when (p, q) is an arc of exactly one
    sequence. Returns (candidates, edges, neighbour sets keyed by candidate).
    """
    n = min(len(a1), len(a2))
    cands = [p for p in range(1, n + 1) if a1.base(p) == a2.base(p)]
    edges = [
        pq for pq in itertools.combinations(cands, 2) if (pq in a1.arcs) != (pq in a2.arcs)
    ]
    neighbours = {v: set() for v in cands}
    for p, q in edges:
        neighbours[p].add(q)
        neighbours[q].add(p)
    return cands, edges, neighbours


def adjacency(vertices, edges) -> dict[int, set[int]]:
    """Neighbour sets of an undirected graph, one (possibly empty) per vertex.

    Keys follow the order of ``vertices``. Edges with an endpoint outside
    ``vertices`` are left out. The neighbour map the package built beside
    its bitmasks, kept as the reference a NeighborMasks must read as.
    """
    adj: dict[int, set[int]] = {v: set() for v in vertices}
    for p, q in edges:
        if p in adj and q in adj:
            adj[p].add(q)
            adj[q].add(p)
    return adj


def masks_of_neighbour_sets(vertices, neighbors) -> NeighborMasks:
    """The NeighborMasks of ``vertices`` under neighbour sets that may list
    an edge on one side only, or name labels outside ``vertices``: the
    conversion the independent-set engine made itself before it took one
    NeighborMasks only, and the set-up line that
    :func:`both_children_stacked_lexmin_mis` keeps verbatim."""
    labels = set(vertices)
    return NeighborMasks(labels, ((v, u) for v in labels for u in neighbors.get(v, ())))


def rank_table_masks(vertices, neighbors) -> tuple[list[int], list[int]]:
    """The independent-set engine's set-up before it took bitmasks: the
    sorted labels and each one's upper-neighbour mask, read from neighbour
    sets through a rank table. Self-loops and labels outside ``vertices``
    are ignored."""
    order = sorted(set(vertices))
    rank = {v: i for i, v in enumerate(order)}
    nbr = [0] * len(order)
    for i, v in enumerate(order):
        for u in neighbors.get(v, ()):
            j = rank.get(u, i)
            if j > i:
                nbr[i] |= 1 << j
            elif j < i:
                nbr[j] |= 1 << i
    return order, nbr


def brute_min_vertex_cover(vertices, edges) -> int:
    vs = sorted(vertices)
    for r in range(0, len(vs) + 1):
        for combo in itertools.combinations(vs, r):
            cover = set(combo)
            if all(i in cover or j in cover for i, j in edges):
                return r
    return len(vs)


# Literal transcriptions of the four arc-structure restrictions, quantified
# over ordered pairs of distinct arcs.

def restriction_no_shared_endpoints(arcs) -> bool:
    return all(
        a[0] != b[1] and a[1] != b[0] and ((a[0] == b[0]) == (a[1] == b[1]))
        for a in arcs
        for b in arcs
        if a != b
    )


def restriction_no_crossing(arcs) -> bool:
    return all(
        (b[0] <= a[0] <= b[1]) == (b[0] <= a[1] <= b[1])
        for a in arcs
        for b in arcs
        if a != b
    )


def restriction_no_nesting(arcs) -> bool:
    return all(
        (a[0] <= b[0]) == (a[1] <= b[0]) for a in arcs for b in arcs if a != b
    )


def oracle_level(arcs) -> StructureLevel:
    """Strictest level by direct quantifier evaluation of the restrictions."""
    if not arcs:
        return StructureLevel.PLAIN
    r1 = restriction_no_shared_endpoints(arcs)
    r2 = restriction_no_crossing(arcs)
    r3 = restriction_no_nesting(arcs)
    if r1 and r2 and r3:
        return StructureLevel.CHAIN
    if r1 and r2:
        return StructureLevel.NESTED
    if r1:
        return StructureLevel.CROSSING
    return StructureLevel.UNLIMITED


def per_value_cell(value: bool | int | str | None) -> str:
    """A report cell as the sweep rendered it before every cell went through
    the column renderer: one call per value. Kept verbatim as the reference
    the CSV and the verify line must match."""
    if value is None:
        return "skipped"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def summary_payload(report: EquivalenceReport) -> dict:
    """The report part of a sweep's summary file, as a dict built from the
    report's public views: the theorem, the tallies, each counterexample as
    a dict keyed in ROW_FIELDS order, and each skipped row's graph, k and
    reason. The reference the summary's counterexample template must
    match."""
    return {
        "theorem": report.theorem,
        **report.counts(),
        "counterexamples": [dict(zip(ROW_FIELDS, r)) for r in report.counterexamples],
        "skipped_rows": [
            {"graph_id": r.graph_id, "k": r.k, "reason": r.skip_reason} for r in report.skipped_rows
        ],
    }


def line_loop_parse_annotated_sequence(text: str) -> AnnotatedSequence:
    """The sequence-file parser as it was before the bulk path: one line at a
    time, for every text. Kept verbatim as the reference the parser must
    match, result and FormatError alike."""
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty file; expected a sequence on line 1", line=1)
    seq = lines[0]
    arcs = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"expected 'i j', got {raw!r}", line=lineno)
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"non-integer arc endpoint in {raw!r}", line=lineno)
        arcs.append((i, j))
    try:
        return AnnotatedSequence(seq, arcs)
    except ValidationError as exc:
        raise FormatError(str(exc)) from exc


def classified_reduce_theorem2(g: Graph, k: int) -> ReductionInstance:
    """Two-letter blocked reduction, as it was before its frame was built
    once per n: everything per graph, both structure invariants through
    classify_structure. Kept verbatim as the reference construction.

    For k > n the instance degenerates (case I): both sequences are the
    single letter "a" with no arcs and the threshold stays k, which is
    unsatisfiable for k > 1 by construction. Otherwise (case II) each vertex
    i becomes a block b a^n b of width n+2; block i is framed by the bracket
    arc ((i-1)(n+2)+1, i(n+2)) on both sides, and each edge (i, j) adds the
    arc ((i-1)(n+2)+j+1, (j-1)(n+2)+i+1), normalized to increasing order, on
    the first side only. The threshold is k(n+2).

    In case II every position is an identity candidate and only the edge
    arcs conflict, one edge arc per conflict edge with no shared endpoints,
    so the optimum is n(n+2) - m. The forward direction therefore always
    holds, and the backward direction fails exactly when alpha(G) < k and
    m <= (n - k)(n + 2); the triangle with k = 2 is the smallest case.

    The arcs are built canonical and in range, so the sequences skip the
    constructor's checks; the construction invariants below are checked.
    """
    case, threshold = _case_and_threshold("T2", g.n, k)
    if case == "I":
        a = _trusted(AnnotatedSequence, seq="a", arcs=frozenset())
        return ReductionInstance(
            a1=a,
            a2=a,
            mc=_IDENTITY,
            threshold=threshold,
            provenance=Provenance("T2", case, g, k),
        )

    n = g.n
    width = n + 2
    seq = ("b" + "a" * n + "b") * n
    brackets = {((i - 1) * width + 1, i * width) for i in range(1, n + 1)}
    edge_arcs = set()
    for i, j in g.edges:
        alpha = (i - 1) * width + j + 1
        beta = (j - 1) * width + i + 1
        edge_arcs.add((min(alpha, beta), max(alpha, beta)))
    a1 = _trusted(AnnotatedSequence, seq=seq, arcs=frozenset(brackets | edge_arcs))
    a2 = _trusted(AnnotatedSequence, seq=seq, arcs=frozenset(brackets))

    _check(len(seq) == n * width, "sequence length n(n+2)")
    _check(len(a1.arcs) == g.m + n, "|P1| = |E| + n")
    _check(len(a2.arcs) == n, "|P2| = n")
    _check(a1.structure().is_within(StructureLevel.CROSSING), "P1 within crossing")
    _check(a2.structure().is_within(StructureLevel.CHAIN), "P2 within chain")
    for alpha, beta in edge_arcs:
        _check(seq[alpha - 1] == "a" and seq[beta - 1] == "a", "edge arcs land on a's")

    return ReductionInstance(
        a1=a1,
        a2=a2,
        mc=_IDENTITY,
        threshold=threshold,
        provenance=Provenance("T2", case, g, k),
    )


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


def both_children_stacked_lexmin_mis(
    vertices: Iterable[int],
    neighbors: MappingABC[int, Set[int]],
    max_nodes: int | None = None,
) -> tuple[int, tuple[int, ...], int]:
    """The independent-set engine as it was before it entered each include
    child at once: both children go on the stack, and the clique cover is
    its own function. Kept verbatim as the reference search; the engine must
    match its size, witness and node count.

    Exact maximum independent set with a deterministic witness.

    Depth-first branch and bound on bitmasks. A node holds the chosen set
    and ``cand``, the vertices at or after the current one that no chosen
    vertex excludes. It branches on the lowest candidate, include-branch
    first. Two admissible bounds prune a node that cannot strictly beat the
    best set found so far: ``chosen + popcount(cand)``, then, only if that
    fails, ``chosen`` plus the size of a greedy clique cover of ``cand``.
    Vertices are explored in ascending label order and only strict
    improvements are recorded, so the returned witness is the
    lexicographically smallest optimum (as a sorted label tuple).

    Called as ``(masks, masks)`` with one :class:`NeighborMasks`, it reads
    them as they are; any other mapping is turned into one, so neighbour
    sets may list an edge on one side only, or name labels outside
    ``vertices``.

    Returns:
        (size, witness, explored_node_count)

    Raises:
        BudgetError: more than max_nodes search nodes were explored.
    """
    if not (vertices is neighbors and isinstance(neighbors, NeighborMasks)):
        labels = set(vertices)
        neighbors = NeighborMasks(labels, ((v, u) for v in labels for u in neighbors.get(v, ())))
    order, nbr = neighbors.order, neighbors.masks
    n = len(order)

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


def lane_then_exact_solve(
    a1: AnnotatedSequence,
    a2: AnnotatedSequence,
    mc: MatchConstraint,
    budget: SearchBudget | None = None,
) -> SolveResult:
    """solve() as it was before it skipped the degree-2 lane where the lane
    must decline: every equal-length identity instance tries the lane first.
    Kept verbatim as the reference route.

    Route an instance to the cheapest applicable exact solver.

    Arc-free unconstrained instances go to lcs_dp; identity-constrained
    equal-length instances go to diagonal_conflict_solve, which decides
    whether the conflict degree allows it; everything else, and every
    instance it declines, goes to exact_search.
    """
    if not a1.arcs and not a2.arcs and mc.kind == "unconstrained":
        return lcs_dp(a1, a2)
    if mc.forces_identity() and len(a1) == len(a2):
        try:
            return diagonal_conflict_solve(a1, a2)
        except CapabilityError:
            pass
    return exact_search(a1, a2, mc, budget)
