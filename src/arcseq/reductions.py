"""Independent-set reductions to identity-constrained subsequence instances.

Two constructions map a graph G with a target size k to a pair of annotated
sequences plus a decision threshold, such that (at least in the forward
direction) G has an independent set of size k exactly when the instance has
an arc-preserving common subsequence reaching the threshold under
same-position matching:

* :func:`reduce_theorem1`: single-letter alphabet. Both sequences are a^n;
  the first arc set is the edge set itself, the second is empty. Valid
  identity mappings are exactly the independent sets of G, so the optimum
  equals the graph's independence number.

* :func:`reduce_theorem2`: two-letter alphabet. Both sequences are
  (b a^n b)^n, one block of width n+2 per vertex. Each block is framed by a
  bracket arc (present on both sides); each graph edge (i, j) becomes an
  arc, present on the first side only, between an 'a' inside block i and an
  'a' inside block j. The threshold scales to k*(n+2). The sequence, the
  brackets, the second side and each edge's arc depend on n alone, so they
  are checked once per n; per graph only |P1| is.

The construction's backward direction is treated as an empirical question:
:func:`check_equivalence` measures both implications per (graph, k) pair
with exact oracles on both sides, and reports disagreements rather than
assuming them away, one :class:`EquivalenceRow` per pair. The two sides run
on engines that share no code: α on :func:`arcseq.mis.independence_number`,
and the solver's identity route (as :func:`max_independent_set`, which also
gives a witness) on :func:`arcseq.mis.lexmin_maximum_independent_set`. On
T1 the instance's conflict graph is G itself, so the two sides solve one
problem with two algorithms. Both constructions depend on k only through
the threshold (and, for the two-letter one, through its case). So the rows
of one graph share a :class:`GraphOracles`, bound to one theorem and one
budget, that computes α when built and holds one entry per case: the
reduced instance and the solver's result (a :class:`CaseAnswer`), or the
budget error that stopped them. A row reads its graph, theorem, budget and
α from the oracles; k sets only the threshold.
"""

from __future__ import annotations

import functools
import threading
import warnings
from collections import namedtuple
from collections.abc import Iterable
from itertools import compress, filterfalse
from operator import attrgetter

from .core import (
    AnnotatedSequence,
    Arc,
    Mapping,
    MatchConstraint,
    StructureLevel,
    _MutableRecord,
    _Record,
    _require_int,
    _trusted,
    is_arc_preserving,
)
from .errors import BudgetError, ValidationError
from .mis import NeighborMasks, bit_flags, independence_number, lexmin_maximum_independent_set
from .solvers import SearchBudget, _resolve_budget, solve

__all__ = [
    "Graph",
    "Provenance",
    "ReductionInstance",
    "MaxIndependentSet",
    "EquivalenceRow",
    "EquivalenceReport",
    "IndependenceViolationWarning",
    "max_independent_set",
    "reduce_theorem1",
    "reduce_theorem2",
    "extract_independent_set",
    "independence_violations",
    "check_equivalence",
    "REDUCTIONS",
    "ROW_FIELDS",
]


class IndependenceViolationWarning(UserWarning):
    """An extracted vertex set is not independent in the source graph."""


class Graph(_Record):
    """Simple undirected graph on vertices 1..n.

    n and the edge endpoints are ints. Edges are canonicalized to (i, j)
    with i < j and deduplicated; loops are rejected. Connectivity is not
    required.
    """

    _fields = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[Arc] = frozenset()):
        _check_vertex_count(n)
        canon = set()
        for i, j in edges:
            if type(i) is not int or type(j) is not int:
                raise ValidationError(f"edge ({i!r}, {j!r}) has a non-integer endpoint")
            if i == j:
                raise ValidationError(f"loop at vertex {i} not allowed")
            if i > j:
                i, j = j, i
            if i < 1 or j > n:
                raise ValidationError(f"edge ({i}, {j}) outside vertices 1..{n}")
            canon.add((i, j))
        self.__dict__.update(n=n, edges=frozenset(canon))

    @property
    def m(self) -> int:
        return len(self.edges)

    def is_connected(self) -> bool:
        """True when every vertex is reachable from vertex 1 (n <= 1: True).

        A search over neighbour bitmasks, bit v standing for vertex v.
        """
        n = self.n
        if n <= 1:
            return True
        nbr = [0] * (n + 1)
        for i, j in self.edges:
            nbr[i] |= 1 << j
            nbr[j] |= 1 << i
        seen = frontier = 2
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = nbr[low.bit_length() - 1] & ~seen
            seen |= new
            frontier |= new
        return seen == (1 << n + 1) - 2

    def edge_mask(self) -> int:
        """Bitmask of the edge set over the lexicographic edge universe."""
        index = {e: b for b, e in enumerate(edge_universe(self.n))}
        mask = 0
        for e in self.edges:
            mask |= 1 << index[e]
        return mask

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "Graph":
        """The graph whose edge b is set exactly when bit b of mask is.

        Edges are numbered by :func:`edge_universe`, so they are canonical
        by construction and not re-checked.

        Raises:
            ValidationError: n or mask is not an int, n < 0, or mask is
                outside 0..2^(n(n-1)/2) - 1.
        """
        universe = edge_universe(n)
        if type(mask) is not int or mask < 0 or mask >> len(universe):
            raise ValidationError(f"mask {mask} out of range for n={n}")
        return _canonical_graph(n, compress(universe, bit_flags(mask)))


def _check_vertex_count(n: int) -> None:
    """Raises ValidationError unless n is an int >= 0."""
    _require_int(n, "vertex count")
    if n < 0:
        raise ValidationError("vertex count must be non-negative")


def _canonical_graph(n: int, edges: Iterable[Arc]) -> Graph:
    """``Graph(n, edges)``, unchecked: the caller has checked n, and the
    edges are canonical and in range.

    The edge set is built as the constructor builds it, so the two graphs
    agree on their repr too.
    """
    return _trusted(Graph, n=n, edges=frozenset(set(edges)))


def edge_universe(n: int) -> tuple[Arc, ...]:
    """All possible edges of an n-vertex graph in lexicographic order.

    Raises:
        ValidationError: n is not an int, or n < 0. n is checked before the
            cache is read, where True would find the entry of 1.
    """
    _check_vertex_count(n)
    return _edge_universe(n)


@functools.cache
def _edge_universe(n: int) -> tuple[Arc, ...]:
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


MaxIndependentSet = namedtuple("MaxIndependentSet", ("size", "vertices"))


def _check_mis_fits(n: int, cap: int) -> None:
    """Raises BudgetError when a graph of n vertices is over the independent-set
    cap. The error text is a sweep row's skip_reason, so it is written here
    only."""
    if n > cap:
        raise BudgetError(f"graph with {n} vertices exceeds independent-set budget {cap}")


def max_independent_set(g: Graph, budget: SearchBudget | None = None) -> MaxIndependentSet:
    """Exact maximum independent set of g by branch and bound.

    The witness is the lexicographically smallest optimum. The engine's
    neighbour bitmasks are built straight from ``g.edges``.

    Raises:
        BudgetError: g has more than the budget's ``mis_max_vertices``
            vertices.
    """
    _check_mis_fits(g.n, _resolve_budget(budget).mis_max_vertices)
    masks = NeighborMasks(range(1, g.n + 1), g.edges)
    size, members, _ = lexmin_maximum_independent_set(masks, masks)
    return MaxIndependentSet(size, members)


def independence_violations(g: Graph, vertices: Iterable[int]) -> set[Arc]:
    """Edges of g with both endpoints in the given vertex set."""
    vs = set(vertices)
    return {(i, j) for i, j in g.edges if i in vs and j in vs}


class Provenance(namedtuple("Provenance", ("theorem", "case", "graph", "k"))):
    """Which construction produced an instance, and from what: the theorem
    ("T1" or "T2"), the case ("I" or "II" for T2, None for T1), the
    :class:`Graph` and k."""

    __slots__ = ()


class ReductionInstance(
    namedtuple("ReductionInstance", ("a1", "a2", "mc", "threshold", "provenance"))
):
    """A reduced decision instance, as a named tuple: sequences, constraint, threshold."""

    __slots__ = ()


# The same-position constraint of both constructions.
_IDENTITY = MatchConstraint.fragment(1)
# Held while edges are admitted to a blocked frame's memo.
_ADMITTING = threading.Lock()


def _check(cond: bool, what: str) -> None:
    if not cond:
        raise RuntimeError(f"reduction construction invariant failed: {what}")


def _case_and_threshold(theorem: str, n: int, k: int) -> tuple[str | None, int]:
    """How k enters a reduction of an n-vertex graph: its case and threshold.

    k enters only here; the sequences of one (graph, case) are the same for
    every k.

    Raises:
        ValidationError: k is not an int (a bool is not one here), or k < 1.
    """
    _require_int(k, "threshold k")
    if k < 1:
        raise ValidationError("threshold k must be >= 1")
    if theorem == "T1":
        return None, k
    if k > n:
        return "I", max(k, 2)
    return "II", k * (n + 2)


def reduce_theorem1(g: Graph, k: int) -> ReductionInstance:
    """Single-letter reduction: a^n with the edge set as the only arcs.

    S1 = S2 = a^n, P1 = E(g), P2 = empty, same-position matching, threshold k.
    g's canonical edges are already canonical arcs of a^n, so the sequences
    are built without re-checking them.
    """
    case, threshold = _case_and_threshold("T1", g.n, k)
    seq = "a" * g.n
    return ReductionInstance(
        _trusted(AnnotatedSequence, seq=seq, arcs=g.edges),
        _trusted(AnnotatedSequence, seq=seq, arcs=frozenset()),
        _IDENTITY,
        threshold,
        Provenance("T1", case, g, k),
    )


@functools.lru_cache(maxsize=8)
def _blocked_frame(n: int) -> tuple[str, frozenset[Arc], AnnotatedSequence, dict, set]:
    """What every case-II blocked instance with n vertices shares, built and
    checked once per n: the sequence (b a^n b)^n, the bracket arcs framing
    its blocks, the second side (the brackets only), a memo from each edge
    admitted so far to its checked arc, and the endpoints in use.

    The memo holds at most the edge universe, for at most 8 vertex counts
    (a frame holds n(n+2) letters; sweeps visit the counts in turn). It
    fills as graphs use their edges, so a large sparse graph checks its own
    arcs, not all n(n-1)/2, and under a lock, since every thread shares it.
    """
    width = n + 2
    seq = ("b" + "a" * n + "b") * n
    brackets = frozenset(((i - 1) * width + 1, i * width) for i in range(1, n + 1))
    a2 = _trusted(AnnotatedSequence, seq=seq, arcs=brackets)
    _check(len(seq) == n * width, "sequence length n(n+2)")
    _check(len(a2.arcs) == n, "|P2| = n")
    _check(a2.structure().is_within(StructureLevel.CHAIN), "P2 within chain")
    return seq, brackets, a2, {}, {end for arc in brackets for end in arc}


def reduce_theorem2(g: Graph, k: int) -> ReductionInstance:
    """Two-letter blocked reduction.

    For k > n the instance degenerates (case I): both sequences are the
    single letter "a" with no arcs and the threshold is max(k, 2), which the
    optimum 1 never reaches (k >= 2 whenever n >= 1; the empty graph at
    k = 1 is a NO question too). Otherwise (case II) each vertex
    i becomes a block b a^n b of width n+2; block i is framed by the bracket
    arc ((i-1)(n+2)+1, i(n+2)) on both sides, and each edge (i, j), i < j,
    adds the arc ((i-1)(n+2)+j+1, (j-1)(n+2)+i+1), already in increasing
    order, on the first side only. The threshold is k(n+2).

    In case II every position is an identity candidate and only the edge
    arcs conflict, one edge arc per conflict edge with no shared endpoints,
    so the optimum is n(n+2) - m. The forward direction therefore always
    holds, and the backward direction fails exactly when alpha(G) < k and
    m <= (n - k)(n + 2); the triangle with k = 2 is the smallest case.

    The frame of :func:`_blocked_frame` is checked once per n (length
    n(n+2), |P2| = n, P2 within chain), and so is each edge arc, when a
    graph first uses its edge: it lies within 1 <= alpha < beta <= n(n+2),
    links two 'a's and shares no endpoint with a bracket or an admitted
    arc (for canonical arcs, exactly P1 within crossing). Per graph, P1 is
    one union of brackets and memo arcs, and |P1| = |E| + n is checked;
    the arcs are canonical, so the sequences skip the constructor's checks.
    """
    case, threshold = _case_and_threshold("T2", g.n, k)
    if case == "I":
        a = _trusted(AnnotatedSequence, seq="a", arcs=frozenset())
        return ReductionInstance(a, a, _IDENTITY, threshold, Provenance("T2", case, g, k))

    n = g.n
    seq, brackets, a2, edge_arcs, in_use = _blocked_frame(n)
    try:
        p1 = brackets.union(map(edge_arcs.__getitem__, g.edges))
    except KeyError:
        width, length = n + 2, len(seq)
        with _ADMITTING:
            for i, j in g.edges - edge_arcs.keys():
                alpha, beta = (i - 1) * width + j + 1, (j - 1) * width + i + 1
                _check(1 <= alpha < beta <= length, "edge arcs within 1 <= alpha < beta <= n(n+2)")
                _check(seq[alpha - 1] == "a" and seq[beta - 1] == "a", "edge arcs land on a's")
                _check(alpha not in in_use and beta not in in_use, "P1 within crossing")
                in_use.update((alpha, beta))
                edge_arcs[i, j] = alpha, beta
        p1 = brackets.union(map(edge_arcs.__getitem__, g.edges))
    _check(len(p1) == g.m + n, "|P1| = |E| + n")
    a1 = _trusted(AnnotatedSequence, seq=seq, arcs=p1)

    return ReductionInstance(a1, a2, _IDENTITY, threshold, Provenance("T2", case, g, k))


def extract_independent_set(inst: ReductionInstance, m: Mapping) -> frozenset[int]:
    """Read a vertex set off a valid mapping for a reduced instance.

    For the single-letter construction the set is {i : (i, i) matched} and
    is guaranteed independent; a violation means the instance was corrupted
    and raises. For the blocked construction the set is the vertices whose
    entire block is matched; independence is NOT guaranteed there, so
    violations only emit an IndependenceViolationWarning.

    Raises:
        ValidationError: m is not a valid, constraint-satisfying,
            arc-preserving mapping for the instance.
    """
    # is_arc_preserving validates m first, so its faults are named first.
    preserving = is_arc_preserving(m, inst.a1, inst.a2)
    for i, j in m.pairs:
        if not inst.mc.allows(i, j):
            raise ValidationError(f"mapping pair ({i}, {j}) violates {inst.mc}")
    if not preserving:
        raise ValidationError("mapping is not arc-preserving for this instance")

    g = inst.provenance.graph
    matched = {i for i, _ in m.pairs}
    if inst.provenance.theorem == "T1":
        vertices = frozenset(matched)
        bad = independence_violations(g, vertices)
        if bad:
            raise RuntimeError(
                f"extracted set {sorted(vertices)} hits edges {sorted(bad)}; "
                "single-letter instances cannot produce this"
            )
        return vertices

    width = g.n + 2
    vertices = frozenset(
        i
        for i in range(1, g.n + 1)
        if all((i - 1) * width + off in matched for off in range(1, width + 1))
    )
    bad = independence_violations(g, vertices)
    if bad:
        warnings.warn(
            f"block-complete set {sorted(vertices)} is not independent "
            f"(edges {sorted(bad)})",
            IndependenceViolationWarning,
            stacklevel=2,
        )
    return vertices


class EquivalenceRow(namedtuple("EquivalenceRow", (
    "graph_id", "n", "m", "connected", "k", "is_answer", "lapcs_len", "threshold",
    "lapcs_answer", "forward_ok", "backward_ok", "skip_reason",
), defaults=(None,))):
    """One measured (graph, k) comparison between the two oracles.

    The fields before skip_reason are the report columns in report order
    (:data:`ROW_FIELDS`). graph_id is a str; connected, is_answer,
    lapcs_answer, forward_ok and backward_ok are bools; the others are ints.
    For skipped rows (a budget was exceeded) the measured fields are None
    and skip_reason says why (it is None otherwise); threshold is always
    available.
    """

    __slots__ = ()

    @property
    def skipped(self) -> bool:
        return self.skip_reason is not None

    @property
    def counterexample(self) -> bool:
        return not self.skipped and not (self.forward_ok and self.backward_ok)


ROW_FIELDS = EquivalenceRow._fields[:-1]


# The columns the report's tallies read, as C-level getters over the rows.
_forward_ok, _backward_ok, _skip_reason = map(attrgetter, EquivalenceRow._fields[-3:])


class EquivalenceReport(_MutableRecord):
    """Collected rows of an equivalence sweep plus derived summaries."""

    _fields = ("theorem", "rows")

    def __init__(self, theorem: str, rows: list[EquivalenceRow]):
        self.theorem = theorem
        self.rows = rows

    @property
    def counterexamples(self) -> list[EquivalenceRow]:
        return self._tallies()[0]

    @property
    def skipped_rows(self) -> list[EquivalenceRow]:
        return self._tallies()[1]

    def counts(self) -> dict[str, int]:
        """The row tallies that the summary, ``arcseq sweep`` and the sweep demo
        print. Failures count completed rows only; a row with either failure
        is a counterexample."""
        return self._tallies()[2]

    def _tallies(self) -> tuple[list[EquivalenceRow], list[EquivalenceRow], dict[str, int]]:
        """The counterexample rows, the skipped rows and :meth:`counts`, from
        one split of the rows. Each full pass is a C-level one; with nothing
        skipped or failed (the usual report) no Python code runs per row."""
        rows = self.rows
        if list(map(_skip_reason, rows)).count(None) == len(rows):
            done, skipped = rows, []
        else:
            done = [r for r in rows if not r.skipped]
            skipped = [r for r in rows if r.skipped]
        counts = {
            "rows": len(rows),
            "completed": len(done),
            "skipped": len(skipped),
            "forward_failures": len(list(filterfalse(None, map(_forward_ok, done)))),
            "backward_failures": len(list(filterfalse(None, map(_backward_ok, done)))),
        }
        failed = counts["forward_failures"] or counts["backward_failures"]
        return [r for r in done if r.counterexample] if failed else [], skipped, counts

    def _summary_rows(self) -> dict:
        """The summary file's report part: the theorem, :meth:`counts`, the
        counterexamples as row tuples, and each skipped row's graph, k and
        reason."""
        counterexamples, skipped, counts = self._tallies()
        return {
            "theorem": self.theorem,
            **counts,
            "counterexamples": counterexamples,
            "skipped_rows": [
                {"graph_id": r.graph_id, "k": r.k, "reason": r.skip_reason} for r in skipped
            ],
        }


REDUCTIONS = {"T1": reduce_theorem1, "T2": reduce_theorem2}


def _check_theorem(theorem: str) -> None:
    """Raises ValidationError unless theorem names a reduction, "T1" or "T2"."""
    if not isinstance(theorem, str) or theorem not in REDUCTIONS:
        raise ValidationError(f"theorem must be 'T1' or 'T2', got {theorem!r}")


class CaseAnswer(namedtuple("CaseAnswer", ("instance", "result"))):
    """A case's answers: its :class:`ReductionInstance`, kept whole, and the
    solver's :class:`SolveResult` on it. One exists only when the graph's α
    is an int (``GraphOracles.alpha``). The instance is the one built for
    the first k of its case that :meth:`GraphOracles.answer` was given: its
    threshold and ``provenance.k`` are that k's, not a later k's."""

    __slots__ = ()


class GraphOracles:
    """One graph's oracle results for one theorem and one budget, each
    checked here once (a ValidationError names a bad one).

    On construction, connectivity is kept in ``connected`` and α in
    ``alpha``: computed within the budget's ``mis_max_vertices`` by
    :func:`arcseq.mis.independence_number`, which shares no code with the
    solver's engine, or else the :class:`BudgetError` that stopped it. A
    reduced instance depends on k only through its case (None for T1, "I"
    or "II" for T2) and threshold, so :meth:`answer` works both out from k
    and ``cases`` holds one entry per case, filled on the case's first k: a
    :class:`CaseAnswer`, whose instance (built through
    ``REDUCTIONS[theorem]``, solved within the budget) keeps that k and its
    threshold, or the :class:`BudgetError` of α or of the solve.
    """

    def __init__(self, g: Graph, theorem: str, search_budget: SearchBudget | None = None):
        _check_theorem(theorem)
        self.graph = g
        self.theorem = theorem
        self.search_budget = _resolve_budget(search_budget)
        self.connected = g.is_connected()
        try:
            _check_mis_fits(g.n, self.search_budget.mis_max_vertices)
            self.alpha = independence_number(g.n, g.edges)
        except BudgetError as err:
            self.alpha = err.with_traceback(None)
        self.cases: dict[str | None, CaseAnswer | BudgetError] = {}

    def answer(self, k: int) -> tuple[int, CaseAnswer | BudgetError]:
        """k's threshold and the entry of k's case, which is computed on the
        case's first k and kept. A ValidationError names a k that is not an
        int >= 1."""
        case, threshold = _case_and_threshold(self.theorem, self.graph.n, k)
        entry = self.cases.get(case)
        if entry is None:
            entry = self.alpha
            if not isinstance(entry, BudgetError):
                inst = REDUCTIONS[self.theorem](self.graph, k)
                try:
                    result = solve(inst.a1, inst.a2, inst.mc, budget=self.search_budget)
                    entry = CaseAnswer(inst, result)
                except BudgetError as err:
                    entry = err.with_traceback(None)
            self.cases[case] = entry
        return threshold, entry


def check_equivalence(oracles: GraphOracles, k: int, graph_id: str | None = None) -> EquivalenceRow:
    """Measure both directions of a reduction's claimed equivalence.

    Computes max-IS >= k with the graph oracle and LAPCS >= threshold with
    the sequence oracle, then records whether each implies the other. The
    graph, theorem, budget and α are the oracles', and the threshold and
    the other answers come from ``oracles.answer(k)``, so the rows of one
    graph compute each answer once. An entry that holds a budget error
    gives a skipped row, whose skip_reason is the error text.

    Raises:
        ValidationError: oracles is not a :class:`GraphOracles`, or k is not
            an int >= 1.
    """
    if type(oracles) is not GraphOracles:
        raise ValidationError(f"oracles must be a GraphOracles, got {oracles!r}")
    threshold, entry = oracles.answer(k)
    g = oracles.graph
    if graph_id is None:
        graph_id = f"g{g.n}-{g.edge_mask()}"
    # A row is the tuple of its fields in order, made by tuple.__new__: the
    # named tuple's __new__ binds arguments in a Python frame, far slower.
    if isinstance(entry, BudgetError):
        return tuple.__new__(EquivalenceRow, (
            graph_id, g.n, len(g.edges), oracles.connected, k, None, None, threshold, None, None,
            None, str(entry),
        ))
    lapcs_len = entry.result.length
    is_answer = oracles.alpha >= k
    lapcs_answer = lapcs_len >= threshold
    forward_ok = (not is_answer) or lapcs_answer
    backward_ok = (not lapcs_answer) or is_answer
    return tuple.__new__(EquivalenceRow, (
        graph_id, g.n, len(g.edges), oracles.connected, k, is_answer, lapcs_len, threshold,
        lapcs_answer, forward_ok, backward_ok, None,
    ))
