"""Reduction constructions, witness extraction, and equivalence checking."""

import random
import re
import sys
import threading
from itertools import combinations, compress

import pytest

from arcseq import (
    AnnotatedSequence,
    BudgetError,
    Graph,
    Mapping,
    MatchConstraint,
    ReductionInstance,
    SearchBudget,
    StructureLevel,
    ValidationError,
    check_equivalence,
    exact_search,
    extract_independent_set,
    independence_violations,
    max_independent_set,
    reduce_theorem1,
    reduce_theorem2,
    solve,
)
from arcseq import core, reductions
from arcseq.core import _trusted, classify_structure
from arcseq.generate import exhaustive_graphs, random_graph
from arcseq.reductions import (
    REDUCTIONS,
    GraphOracles,
    IndependenceViolationWarning,
    Provenance,
    edge_universe,
)
from arcseq.solvers import DEFAULT_BUDGET
from arcseq.sweep import SweepConfig, render_summary, run_sweep

from oracles import (
    brute_max_independent_set,
    classified_reduce_theorem2,
    oracle_level,
)

TRIANGLE = Graph(3, {(1, 2), (1, 3), (2, 3)})
PATH3 = Graph(3, {(1, 2), (2, 3)})
SINGLE_EDGE = Graph(2, {(1, 2)})


def recording(calls, name, fn):
    """fn, appending name to calls on each call."""

    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return wrapper


def small_and_seeded_masks():
    """(n, mask) for every graph with n <= 5, then seeded masks up to n = 20."""
    rng = random.Random(1101)
    for n in range(6):
        for mask in range(1 << n * (n - 1) // 2):
            yield n, mask
    for n in range(6, 21):
        for _ in range(20):
            yield n, rng.getrandbits(n * (n - 1) // 2)


def reachable_from_1(g):
    """Vertices reachable from vertex 1, by a plain breadth-first search."""
    adj = {v: [] for v in range(1, g.n + 1)}
    for i, j in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen, queue = {1}, [1]
    for v in queue:
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return seen


class TestGraph:
    def test_edges_canonicalized(self):
        g = Graph(3, {(2, 1), (1, 2), (3, 1)})
        assert g.edges == frozenset({(1, 2), (1, 3)})
        assert g.m == 2

    def test_loops_rejected(self):
        with pytest.raises(ValidationError):
            Graph(3, {(2, 2)})

    def test_endpoints_validated(self):
        with pytest.raises(ValidationError):
            Graph(3, {(1, 4)})

    def test_non_integer_counts_and_endpoints_rejected(self):
        # Graph(2.0).is_connected() and write_graph(Graph(3, {(1.0, 3)}))
        # would fail later; the constructor rejects them up front.
        for n in (2.0, True, "3", None):
            with pytest.raises(ValidationError, match="must be an integer"):
                Graph(n)
            with pytest.raises(ValidationError, match="must be an integer"):
                Graph.from_mask(n, 0)
            with pytest.raises(ValidationError, match="must be an integer"):
                random_graph(random.Random(0), n, 0.5)
        for edge in ((1.0, 3), (True, 3), (1, 3.0)):
            with pytest.raises(ValidationError, match="non-integer endpoint"):
                Graph(3, {edge})
        for mask in (1.0, "1"):
            with pytest.raises(ValidationError, match="out of range"):
                Graph.from_mask(3, mask)

    def test_edge_universe_and_enumeration_take_integer_counts_only(self):
        assert edge_universe(1) == () and edge_universe(2) == ((1, 2),)
        # True == 1, so a cache read before the check would return ().
        for n in (2.5, True, False, "3", None, 2.0, [3]):
            with pytest.raises(ValidationError, match="must be an integer"):
                edge_universe(n)
            with pytest.raises(ValidationError, match="must be an integer"):
                next(exhaustive_graphs(n))
        for n in (-1, -3):
            with pytest.raises(ValidationError, match="non-negative"):
                edge_universe(n)
            with pytest.raises(ValidationError, match="non-negative"):
                next(exhaustive_graphs(n))

    def test_connectivity(self):
        assert TRIANGLE.is_connected()
        assert not Graph(3, {(1, 2)}).is_connected()
        assert Graph(1).is_connected()

    def test_mask_round_trip(self):
        for n in range(5):
            for mask, g in exhaustive_graphs(n):
                assert g.edge_mask() == mask
                assert Graph.from_mask(n, mask) == g

    def test_from_mask_is_the_validated_graph(self):
        # from_mask skips the constructor's checks; it must build the same
        # object the checked constructor builds from the same edges.
        for n, mask in small_and_seeded_masks():
            edges = [e for b, e in enumerate(edge_universe(n)) if mask >> b & 1]
            g, checked = Graph.from_mask(n, mask), Graph(n, edges)
            assert g == checked
            assert hash(g) == hash(checked)
            assert repr(g) == repr(checked)
            assert g.edge_mask() == mask

    @pytest.mark.parametrize("n, mask", [(3, -1), (3, 8), (0, 1), (1, 1), (-1, 0)])
    def test_from_mask_out_of_range(self, n, mask):
        with pytest.raises(ValidationError):
            Graph.from_mask(n, mask)

    def test_random_graph_is_the_validated_graph(self):
        rng = random.Random(1102)
        for n in range(21):
            for p in (0.0, 0.3, 0.5, 1.0):
                g = random_graph(rng, n, p)
                checked = Graph(n, sorted(g.edges))
                assert g == checked and repr(g) == repr(checked)
        with pytest.raises(ValidationError):
            random_graph(rng, -1, 0.5)

    def test_bitmask_connectivity_matches_a_plain_search(self):
        assert Graph(0).is_connected()
        assert Graph(1).is_connected()
        for n, mask in small_and_seeded_masks():
            g = Graph.from_mask(n, mask)
            if n >= 1:
                assert g.is_connected() == (len(reachable_from_1(g)) == n)


class TestMaxIndependentSet:
    def test_triangle(self):
        size, vertices = max_independent_set(TRIANGLE)
        assert size == 1 and vertices == (1,)

    def test_path_keeps_endpoints(self):
        size, vertices = max_independent_set(PATH3)
        assert size == 2 and vertices == (1, 3)

    def test_edgeless(self):
        size, vertices = max_independent_set(Graph(4))
        assert size == 4 and vertices == (1, 2, 3, 4)

    def test_budget(self):
        with pytest.raises(BudgetError):
            max_independent_set(Graph(21))
        assert max_independent_set(Graph(21), SearchBudget(mis_max_vertices=21)).size == 21

    def test_matches_bitmask_oracle_up_to_n4(self):
        for n in range(5):
            for _, g in exhaustive_graphs(n):
                assert max_independent_set(g).size == brute_max_independent_set(n, g.edges)


class TestReduceTheorem1:
    def test_triangle_instance(self):
        inst = reduce_theorem1(TRIANGLE, 1)
        assert inst.a1.seq == inst.a2.seq == "aaa"
        assert inst.a1.arcs == TRIANGLE.edges
        assert inst.a2.arcs == frozenset()
        assert inst.mc == MatchConstraint.fragment(1)
        assert inst.threshold == 1
        assert inst.a2.structure() is StructureLevel.PLAIN
        assert inst.a1.structure() is StructureLevel.UNLIMITED

    def test_edgeless_instance(self):
        inst = reduce_theorem1(Graph(2), 2)
        assert inst.a1.seq == "aa" and inst.a1.arcs == frozenset()
        assert inst.threshold == 2

    def test_path_instance(self):
        inst = reduce_theorem1(PATH3, 2)
        assert inst.a1.arcs == frozenset({(1, 2), (2, 3)})
        assert inst.threshold == 2

    def test_k_validated(self):
        with pytest.raises(ValidationError):
            reduce_theorem1(TRIANGLE, 0)

    def test_sequences_are_the_validated_ones(self):
        for n in range(6):
            for _, g in exhaustive_graphs(n):
                inst = reduce_theorem1(g, 1)
                assert inst.a1 == AnnotatedSequence("a" * n, g.edges)
                assert inst.a2 == AnnotatedSequence("a" * n)


class TestReduceTheorem2:
    def test_single_edge_instance(self):
        inst = reduce_theorem2(SINGLE_EDGE, 1)
        assert inst.a1.seq == inst.a2.seq == "baabbaab"
        assert inst.a1.arcs == frozenset({(1, 4), (5, 8), (3, 6)})
        assert inst.a2.arcs == frozenset({(1, 4), (5, 8)})
        assert inst.threshold == 4
        assert inst.provenance.case == "II"

    def test_triangle_instance(self):
        inst = reduce_theorem2(TRIANGLE, 1)
        assert inst.a1.seq == "baaab" * 3
        brackets = {(1, 5), (6, 10), (11, 15)}
        assert inst.a2.arcs == frozenset(brackets)
        assert inst.a1.arcs == frozenset(brackets | {(3, 7), (4, 12), (9, 13)})
        assert inst.threshold == 5

    def test_degenerate_case_for_large_k(self):
        for n in range(1, 4):
            g = Graph(n)
            inst = reduce_theorem2(g, n + 1)
            assert inst.a1.seq == inst.a2.seq == "a"
            assert inst.a1.arcs == inst.a2.arcs == frozenset()
            assert inst.threshold == n + 1
            assert inst.provenance.case == "I"

    def test_degenerate_instances_never_reach_threshold(self):
        # Case I is a NO question (alpha <= n < k), so its threshold is out
        # of the optimum's reach, on the empty graph at k = 1 too.
        for n in range(0, 4):
            inst = reduce_theorem2(Graph(n, frozenset()), n + 1)
            assert inst.provenance.case == "I"
            assert solve(inst.a1, inst.a2, inst.mc).length == 1 < inst.threshold

    def test_well_formed_for_all_small_graphs(self):
        for n in range(1, 4):
            for _, g in exhaustive_graphs(n):
                for k in range(1, n + 1):
                    inst = reduce_theorem2(g, k)
                    width = n + 2
                    assert len(inst.a1.seq) == n * width
                    assert len(inst.a1.arcs) == g.m + n
                    assert len(inst.a2.arcs) == n
                    assert inst.a1.structure().is_within(StructureLevel.CROSSING)
                    assert inst.a2.structure().is_within(StructureLevel.CHAIN)
                    assert inst.threshold == k * width

    def test_edge_arcs_connect_a_positions_of_both_blocks(self):
        inst = reduce_theorem2(TRIANGLE, 1)
        width = 5
        for alpha, beta in inst.a1.arcs - inst.a2.arcs:
            assert inst.a1.base(alpha) == "a" and inst.a1.base(beta) == "a"
            block_a = (alpha - 1) // width + 1
            block_b = (beta - 1) // width + 1
            offset_a = alpha - (block_a - 1) * width - 1
            offset_b = beta - (block_b - 1) * width - 1
            # Arc between block i at letter-offset j and block j at letter-offset i.
            assert {(block_a, offset_a), (block_b, offset_b)} == {
                (block_a, block_b),
                (block_b, block_a),
            }
            assert (block_a, block_b) in TRIANGLE.edges

    def test_k_validated(self):
        with pytest.raises(ValidationError):
            reduce_theorem2(TRIANGLE, 0)

    def test_sequences_are_the_validated_ones(self):
        # Both cases: k = n + 1 is case I, k = 1 case II.
        for n in range(5):
            for _, g in exhaustive_graphs(n):
                for k in (1, n + 1):
                    inst = reduce_theorem2(g, k)
                    for a in (inst.a1, inst.a2):
                        assert a == AnnotatedSequence(a.seq, sorted(a.arcs))


class TestBlockedFrame:
    """The case-II frame is built once per n; each edge arc is checked once
    per n, when a graph first has its edge, and |P1| once per graph."""

    @staticmethod
    def same_instance(g, k):
        inst = reduce_theorem2(g, k)
        ref = classified_reduce_theorem2(g, k)
        assert (inst.a1, inst.a2, inst.mc) == (ref.a1, ref.a2, ref.mc)
        assert (inst.threshold, inst.provenance) == (ref.threshold, ref.provenance)

    def test_equals_the_reference_construction_up_to_n5(self):
        for n in range(6):
            for _, g in exhaustive_graphs(n):
                for k in range(1, n + 2):
                    self.same_instance(g, k)

    def test_equals_the_reference_construction_on_seeded_graphs(self):
        rng = random.Random(1313)
        for n in range(6, 13):
            for p in (0.0, 0.2, 0.5, 0.8, 1.0):
                g = random_graph(rng, n, p)
                for k in range(1, n + 2):
                    self.same_instance(g, k)

    def test_graphs_with_one_n_share_the_frame(self, monkeypatch):
        calls = []

        def counted(arcs, n):
            calls.append(n)
            return classify_structure(arcs, n)

        monkeypatch.setattr(core, "classify_structure", counted)
        reductions._blocked_frame.cache_clear()
        try:
            instances = [reduce_theorem2(g, 1) for n in (3, 4) for _, g in exhaustive_graphs(n)]
        finally:
            reductions._blocked_frame.cache_clear()
        # One P2-within-chain check per n, on the frame's second side.
        assert calls == [15, 24]
        assert len({id(inst.a2) for inst in instances}) == 2

    @pytest.mark.parametrize(
        "corruption,what",
        [
            ({"brackets": frozenset({(1, 5), (6, 10)})}, "|P1| = |E| + n"),
            ({"brackets": frozenset({(1, 3), (6, 10), (11, 15)})}, "P1 within crossing"),
            ({"seq": "babab" + "baaab" * 2}, "edge arcs land on a's"),
            ({"seq": "baaab" * 2}, "edge arcs within 1 <= alpha < beta <= n(n+2)"),
        ],
    )
    def test_per_graph_checks_fire_on_a_corrupted_frame(self, monkeypatch, corruption, what):
        # The triangle's edge arcs are (3, 7), (4, 12) and (9, 13). The
        # corrupted frame has admitted no edge yet, and its endpoints in use
        # are its own brackets'.
        seq, brackets, a2, _, _ = reductions._blocked_frame(3)
        seq, brackets = corruption.get("seq", seq), corruption.get("brackets", brackets)
        frame = (seq, brackets, a2, {}, {end for arc in brackets for end in arc})
        monkeypatch.setattr(reductions, "_blocked_frame", lambda n: frame)
        with pytest.raises(RuntimeError, match=re.escape(f"invariant failed: {what}")):
            reduce_theorem2(TRIANGLE, 1)

    @staticmethod
    def assert_memo_is_checked(n):
        """n's frame memo maps each admitted edge to the arc the reference
        builds, and its endpoints in use are the brackets' and the admitted
        arcs', no two the same."""
        _, brackets, _, edge_arcs, in_use = reductions._blocked_frame(n)
        for edge, arc in edge_arcs.items():
            ref = classified_reduce_theorem2(Graph(n, {edge}), 1)
            assert {arc} == ref.a1.arcs - ref.a2.arcs
        ends = [end for arc in (*brackets, *edge_arcs.values()) for end in arc]
        assert len(ends) == len(set(ends)) and set(ends) == in_use
        return edge_arcs

    def test_memo_holds_the_checked_edge_universe_after_every_small_graph(self):
        reductions._blocked_frame.cache_clear()
        try:
            for n in range(1, 6):
                for _, g in exhaustive_graphs(n):
                    reduce_theorem2(g, 1)
                edge_arcs = self.assert_memo_is_checked(n)
                assert tuple(sorted(edge_arcs)) == edge_universe(n)
                ref = classified_reduce_theorem2(Graph(n, edge_universe(n)), 1)
                assert frozenset(edge_arcs.values()) == ref.a1.arcs - ref.a2.arcs
        finally:
            reductions._blocked_frame.cache_clear()

    def test_a_rejected_edge_leaves_only_checked_arcs_in_the_memo(self):
        # (2, 1) is the arc (7, 3), out of order; (1, 3) and (2, 3) are valid
        # and may be admitted before it, in the edge set's order.
        g = _trusted(Graph, n=3, edges=frozenset({(1, 3), (2, 1), (2, 3)}))
        reductions._blocked_frame.cache_clear()
        try:
            with pytest.raises(RuntimeError, match=re.escape("1 <= alpha < beta <= n(n+2)")):
                reduce_theorem2(g, 1)
            assert set(self.assert_memo_is_checked(3)) <= {(1, 3), (2, 3)}
            for h in (TRIANGLE, PATH3, SINGLE_EDGE, Graph(3, {(1, 2)})):
                self.same_instance(h, 1)
            assert set(self.assert_memo_is_checked(3)) == set(TRIANGLE.edges)
        finally:
            reductions._blocked_frame.cache_clear()

    def test_threads_that_first_use_one_edge_together_admit_it_once(self):
        # Admission checks, then records, on a frame every thread shares.
        # Unlocked, a thread that found an edge missing could then find its
        # arc's endpoints in use by the thread that admitted it first.
        complete = Graph(30, edge_universe(30))
        ref = classified_reduce_theorem2(complete, 1)
        barrier = threading.Barrier(4)
        results = []

        def reduce_complete():
            try:
                barrier.wait(timeout=60)
                results.append(reduce_theorem2(complete, 1).a1 == ref.a1)
            except Exception as exc:  # reported below, with the other results
                results.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                reductions._blocked_frame.cache_clear()
                reductions._blocked_frame(30)  # built first, so the threads share it
                threads = [threading.Thread(target=reduce_complete) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
            assert len(self.assert_memo_is_checked(30)) == len(edge_universe(30))
        finally:
            sys.setswitchinterval(interval)
            reductions._blocked_frame.cache_clear()
        assert results == [True] * 40

    def test_complete_graphs_equal_the_reference_and_stay_within_crossing(self):
        for n in range(1, 13):
            complete = Graph(n, edge_universe(n))
            self.same_instance(complete, 1)
            assert reduce_theorem2(complete, 1).a1.structure().is_within(StructureLevel.CROSSING)

    @pytest.mark.parametrize("edge", [(2, 1), (0, 2), (1, 4)])
    def test_per_graph_range_check_fires_on_a_corrupted_graph(self, edge):
        # Edges that Graph's constructor would have normalized or rejected.
        g = _trusted(Graph, n=3, edges=frozenset({edge}))
        with pytest.raises(RuntimeError, match=re.escape("1 <= alpha < beta <= n(n+2)")):
            reduce_theorem2(g, 1)

    def test_classifier_matches_the_quantifier_level_on_every_arc_set_over_six_positions(self):
        # The frame's "P2 within chain" check reads classify_structure; the
        # quantifier forms of the restrictions are the independent side.
        arcs = list(combinations(range(1, 7), 2))
        for mask in range(1 << len(arcs)):
            subset = frozenset(compress(arcs, (mask >> b & 1 for b in range(len(arcs)))))
            assert classify_structure(subset, 6) is oracle_level(subset), sorted(subset)


@pytest.mark.parametrize("k", [True, 1.5, "2"])
def test_non_integer_k_is_rejected(k):
    for reduce in (reduce_theorem1, reduce_theorem2):
        with pytest.raises(ValidationError, match="must be an integer"):
            reduce(TRIANGLE, k)
    for theorem in REDUCTIONS:
        oracles = GraphOracles(TRIANGLE, theorem)
        with pytest.raises(ValidationError, match="must be an integer"):
            check_equivalence(oracles, k)
        assert oracles.cases == {}


# Each entry point that takes a budget, called with one, as a value that
# tells one budget's results from another's.
AB = AnnotatedSequence("ab")
BUDGET_ENTRY_POINTS = {
    # ab/ab under same-position matching takes the degree-2 lane, which
    # reads no budget.
    "solve": lambda budget: solve(AB, AB, MatchConstraint.fragment(1), budget=budget),
    "exact_search": lambda budget: exact_search(AB, AB, MatchConstraint.fragment(1), budget),
    "max_independent_set": lambda budget: max_independent_set(PATH3, budget),
    "GraphOracles": lambda budget: vars(GraphOracles(PATH3, "T1", budget)),
    "SweepConfig": lambda budget: (
        vars(cfg := SweepConfig("T1", (1, 3), search_budget=budget)),
        render_summary(run_sweep(cfg), cfg, {}),
    ),
}


@pytest.mark.parametrize("entry", sorted(BUDGET_ENTRY_POINTS))
def test_budget_is_checked_at_every_entry_point(entry):
    # None or a SearchBudget, and nothing else: not a node count, a cap of
    # the old integer form, a bool (a falsy one included) or a string. None
    # is DEFAULT_BUDGET, with the same results, memo entry and summary echo.
    call = BUDGET_ENTRY_POINTS[entry]
    for budget in (5, 0, 21.0, True, False, "x"):
        with pytest.raises(ValidationError, match=re.escape(f"got {budget!r}")):
            call(budget)
    default = call(SearchBudget())
    assert call(None) == default
    assert call(SearchBudget(max_nodes=9)) is not None
    if entry == "GraphOracles":
        assert default["search_budget"] == SearchBudget()
        assert call(None)["search_budget"] is DEFAULT_BUDGET


class TestExtractIndependentSet:
    def test_single_letter_read_off(self):
        inst = reduce_theorem1(TRIANGLE, 1)
        assert extract_independent_set(inst, Mapping.identity([2])) == {2}

    def test_blocked_full_first_block(self):
        inst = reduce_theorem2(SINGLE_EDGE, 1)
        m = Mapping.identity([1, 2, 3, 4])
        assert extract_independent_set(inst, m) == {1}

    def test_blocked_partial_first_block(self):
        inst = reduce_theorem2(SINGLE_EDGE, 1)
        m = Mapping.identity([1, 2, 4, 5, 6, 7, 8])
        assert extract_independent_set(inst, m) == {2}

    def test_degenerate_case_extracts_nothing(self):
        inst = reduce_theorem2(Graph(2), 3)
        assert extract_independent_set(inst, Mapping.identity([1])) == frozenset()

    def test_invalid_mapping_rejected(self):
        inst = reduce_theorem1(TRIANGLE, 1)
        with pytest.raises(ValidationError):
            # (1, 2) breaks the same-fragment constraint.
            extract_independent_set(inst, Mapping(((1, 2),)))
        with pytest.raises(ValidationError):
            # Matching 1 and 2 hits the arc (1, 2) on one side only.
            extract_independent_set(inst, Mapping.identity([1, 2]))

    def test_each_single_fault_names_its_fault(self):
        # One fault per mapping, each with the message it raises; the range
        # and letter checks come first, then the constraint, then the arcs.
        triangle = reduce_theorem1(TRIANGLE, 1)
        mismatched = triangle._replace(a2=AnnotatedSequence("aba"))
        cases = [
            (triangle, Mapping.identity([4]), "mapping pair (4, 4) outside the sequences"),
            (mismatched, Mapping.identity([2]),
             "mapping pair (2, 2) matches different letters ('a' vs 'b')"),
            (triangle, Mapping(((1, 2),)),
             "mapping pair (1, 2) violates fragment(1)"),
            (triangle, Mapping.identity([1, 2]), "mapping is not arc-preserving for this instance"),
        ]
        for inst, m, message in cases:
            with pytest.raises(ValidationError) as info:
                extract_independent_set(inst, m)
            assert str(info.value) == message

    def test_the_mapping_is_validated_once(self, monkeypatch):
        calls = []

        def counted(m, a1, a2):
            calls.append(m)
            return validate(m, a1, a2)

        validate = core.validate_mapping
        monkeypatch.setattr(core, "validate_mapping", counted)
        # Also under the name that reductions would import it by.
        monkeypatch.setattr(reductions, "validate_mapping", counted, raising=False)
        m = Mapping.identity([2])
        assert extract_independent_set(reduce_theorem1(TRIANGLE, 1), m) == {2}
        assert calls == [m]

    def test_round_trip_through_witness_mappings(self):
        # Identity mapping on a maximum independent set is always a valid
        # witness for the single-letter construction; extraction inverts it.
        for n in range(1, 5):
            for _, g in exhaustive_graphs(n):
                size, vertices = max_independent_set(g)
                inst = reduce_theorem1(g, max(size, 1))
                extracted = extract_independent_set(inst, Mapping.identity(vertices))
                assert extracted == frozenset(vertices)

    def test_blocked_forward_map_of_every_small_independent_set(self):
        # Without the solver: for an independent set I, matching every
        # position of I's blocks is a valid, arc-preserving mapping, since
        # brackets lie within a block on both sides and no edge arc joins
        # two blocks of I. Its length |I|(n+2) reaches the threshold of
        # k = |I|, and the backward map gives I back.
        seen = 0
        for n in range(1, 5):
            width = n + 2
            for _, g in exhaustive_graphs(n):
                for size in range(1, n + 1):
                    for members in combinations(range(1, n + 1), size):
                        if any(i in members and j in members for i, j in g.edges):
                            continue
                        inst = reduce_theorem2(g, size)
                        m = Mapping.identity(
                            p for v in members for p in range((v - 1) * width + 1, v * width + 1)
                        )
                        core.validate_mapping(m, inst.a1, inst.a2)
                        assert all(inst.mc.allows(i, j) for i, j in m.pairs)
                        assert core.is_arc_preserving(m, inst.a1, inst.a2)
                        assert len(m) == size * width >= inst.threshold
                        assert extract_independent_set(inst, m) == frozenset(members)
                        seen += 1
        assert seen == 524

    def test_non_independent_block_set_warns(self):
        # Doctored instance: drop the edge arc so both blocks can fully match.
        real = reduce_theorem2(SINGLE_EDGE, 1)
        doctored = ReductionInstance(
            a1=AnnotatedSequence(real.a1.seq, real.a2.arcs),
            a2=real.a2,
            mc=real.mc,
            threshold=real.threshold,
            provenance=Provenance("T2", "II", SINGLE_EDGE, 1),
        )
        with pytest.warns(IndependenceViolationWarning):
            vertices = extract_independent_set(doctored, Mapping.identity(range(1, 9)))
        assert vertices == {1, 2}
        assert independence_violations(SINGLE_EDGE, vertices) == {(1, 2)}


class TestCheckEquivalence:
    @pytest.mark.parametrize("not_oracles", [TRIANGLE, None, {"graph": TRIANGLE}],
                             ids=["graph", "none", "dict"])
    def test_oracles_are_the_only_door(self, not_oracles):
        # A graph is the first argument of the old form, check_equivalence(g,
        # k, theorem): it is refused by name, not by an AttributeError.
        with pytest.raises(ValidationError, match=re.escape(f"got {not_oracles!r}")):
            check_equivalence(not_oracles, 1, "T1")
        with pytest.raises(ValidationError, match="oracles must be a GraphOracles"):
            check_equivalence(not_oracles, 1)

    def test_triangle_theorem1_satisfiable(self):
        row = check_equivalence(GraphOracles(TRIANGLE, "T1"), 1)
        assert row.is_answer and row.lapcs_answer
        assert row.forward_ok and row.backward_ok
        assert row.lapcs_len == 1

    def test_triangle_theorem1_unsatisfiable(self):
        row = check_equivalence(GraphOracles(TRIANGLE, "T1"), 2)
        assert not row.is_answer and not row.lapcs_answer
        assert row.forward_ok and row.backward_ok

    def test_triangle_theorem2_backward_counterexample(self):
        # Oracle-confirmed: the blocked instance reaches 15 - 3 = 12 >= 10
        # even though the triangle has no independent set of size 2.
        row = check_equivalence(GraphOracles(TRIANGLE, "T2"), 2)
        assert not row.is_answer
        assert row.lapcs_len == 12
        assert row.threshold == 10
        assert row.lapcs_answer
        assert row.forward_ok
        assert not row.backward_ok
        assert row.counterexample

    def test_row_carries_graph_metadata(self):
        oracles = GraphOracles(Graph(3, {(1, 2)}), "T1")
        row = check_equivalence(oracles, 1, "probe")
        assert row.graph_id == "probe"
        assert row.n == 3 and row.m == 1 and not row.connected
        assert check_equivalence(oracles, 1).graph_id == "g3-1"

    def test_budget_marks_row_skipped(self):
        row = check_equivalence(GraphOracles(Graph(6), "T1", SearchBudget(mis_max_vertices=5)), 1)
        assert row.skipped and "budget" in row.skip_reason
        assert row.is_answer is None and row.lapcs_len is None
        assert row.threshold == 1

    def test_shared_oracles_give_the_same_rows(self):
        # k = 1..n+1 crosses the T2 case I/II boundary; the first k seen
        # builds a case's entry, so each order fills the entries differently,
        # and the kept instance carries that first k and its threshold while
        # each row carries its own.
        # Graph(0) has alpha 0; under max_nodes=1 alpha succeeds and the
        # solve fails wherever the pair reaches the search.
        rng = random.Random(7)
        reasons = set()
        budgets = ({}, {"search_budget": SearchBudget(mis_max_vertices=2)},
                   {"search_budget": SearchBudget(max_nodes=1)})
        for theorem in ("T1", "T2"):
            for budget in budgets:
                for n in range(0, 5):
                    for _, g in exhaustive_graphs(n):
                        ks = list(range(1, n + 2))
                        shuffled = rng.sample(ks, len(ks))
                        fresh = {k: check_equivalence(GraphOracles(g, theorem, **budget), k)
                                 for k in ks}
                        for order in (ks, ks[::-1], shuffled):
                            oracles = GraphOracles(g, theorem, **budget)
                            first_k = {}
                            for k in order:
                                row = check_equivalence(oracles, k)
                                assert row == fresh[k]
                                case, _ = reductions._case_and_threshold(theorem, g.n, k)
                                entry = oracles.cases[case]
                                assert oracles.answer(k) == (row.threshold, entry)
                                if row.skipped:
                                    assert isinstance(entry, BudgetError)
                                    assert str(entry) == row.skip_reason
                                    reasons.add(row.skip_reason.split()[0])
                                    continue
                                inst = REDUCTIONS[theorem](g, k)
                                kept = entry.instance
                                assert (kept.a1, kept.a2, kept.mc) == (inst.a1, inst.a2, inst.mc)
                                assert kept.provenance.case == case
                                assert (row.threshold, kept.provenance.k) == (
                                    inst.threshold, first_k.setdefault(case, k)
                                )
                                assert entry._fields == ("instance", "result")
                                assert oracles.alpha == max_independent_set(g).size
                                assert entry.result.length == row.lapcs_len
                            with pytest.raises(ValidationError):
                                check_equivalence(oracles, 0)
        # Both kinds of skip: alpha over its budget, and a solve over its
        # node budget after alpha succeeded.
        assert reasons == {"graph", "independent-set"}

    def test_equal_budgets_share_one_memo_entry(self, monkeypatch):
        solves = []

        def counting_solve(*args, **kwargs):
            solves.append(kwargs["budget"])
            return solve(*args, **kwargs)

        monkeypatch.setattr(reductions, "solve", counting_solve)
        # k = 1 and 2 are one T1 case, so the rows share one entry, solved
        # once with the oracles' budget. None is the default budget, and so
        # is an equal budget built apart.
        for built_with in (SearchBudget(), None, SearchBudget(400, 64),
                           SearchBudget(400, 64, None, 20)):
            solves.clear()
            oracles = GraphOracles(TRIANGLE, "T1", built_with)
            for k in (1, 2, 1, 2):
                assert check_equivalence(oracles, k).lapcs_len == 1
            assert solves == [SearchBudget()]
        solves.clear()
        for budget in (SearchBudget(max_nodes=50), SearchBudget(max_cells=10),
                       SearchBudget(mis_max_vertices=5)):
            own = GraphOracles(TRIANGLE, "T1", budget)
            assert own.search_budget is budget
            check_equivalence(own, 1)
            check_equivalence(own, 2)
        assert solves == [
            SearchBudget(max_nodes=50), SearchBudget(max_cells=10),
            SearchBudget(mis_max_vertices=5),
        ]

    def test_a_warm_row_is_one_lookup(self, monkeypatch):
        # Alpha's cap check and alpha run when the oracles are built. Once a
        # case has a row, a further row of that case asks the oracles once,
        # which work out its case and threshold once and read its entry,
        # with no alpha cap check, alpha, reduce or solve call.
        calls = []
        for name, attr in (("case", "_case_and_threshold"), ("cap", "_check_mis_fits"),
                           ("mis", "independence_number"), ("solve", "solve")):
            monkeypatch.setattr(reductions, attr, recording(calls, name, getattr(reductions, attr)))
        monkeypatch.setitem(REDUCTIONS, "T2", recording(calls, "reduce", REDUCTIONS["T2"]))
        monkeypatch.setattr(GraphOracles, "answer", recording(calls, "answer", GraphOracles.answer))
        oracles = GraphOracles(TRIANGLE, "T2")
        assert calls == ["cap", "mis"]
        calls.clear()
        first = check_equivalence(oracles, 1)
        assert calls == ["answer", "case", "reduce", "case", "solve"]
        calls.clear()
        rows = [check_equivalence(oracles, k) for k in (2, 3, 1)]
        assert calls == ["answer", "case"] * 3
        monkeypatch.undo()
        assert [first, *rows[:2]] == [
            check_equivalence(GraphOracles(TRIANGLE, "T2"), k) for k in (1, 2, 3)
        ]

    def test_an_entry_is_kept_under_the_case_of_its_k(self):
        # The oracles work out k's case themselves: the case-II entry of
        # k = 1 is not read by a row at k = 4 (case I), which builds its own.
        # Once the caller named the case, and an entry of case II kept under
        # "I" gave this row lapcs_len=12 and a spurious backward failure.
        oracles = GraphOracles(TRIANGLE, "T2")
        threshold, entry = oracles.answer(1)
        assert threshold == 5 and entry.instance.provenance.case == "II"
        row = check_equivalence(oracles, 4)
        assert row == check_equivalence(GraphOracles(TRIANGLE, "T2"), 4)
        assert (row.lapcs_len, row.threshold, row.lapcs_answer, row.backward_ok) == (
            1, 4, False, True
        )
        assert list(oracles.cases) == ["II", "I"]
        assert oracles.cases["II"] is entry
        assert oracles.cases["I"].instance.provenance.case == "I"

    def test_budget_errors_are_kept_per_case_and_alpha_fails_first(self, monkeypatch):
        k4 = Graph(4, combinations(range(1, 5), 2))
        calls = []
        # The T1 pair of K4 has conflict degree 3, so it goes to the identity
        # route, which the budget refuses; alpha alone fits. Oracles are
        # bound to their budget, alpha cap included, so each budget has its
        # own, which checks alpha's cap and computes alpha when it is built,
        # and tries the solve once. Over the cap, alpha's engine does not run
        # and neither does the solve.
        budgets = {mis: SearchBudget(max_identity_length=3, mis_max_vertices=mis) for mis in (20, 3)}
        shared = {}

        def record_alpha(m):
            for name, attr in (("cap", "_check_mis_fits"), ("mis", "independence_number")):
                m.setattr(reductions, attr, recording(calls, name, getattr(reductions, attr)))

        for mis_max_vertices, reason, expected in (
            (20, "identity-constrained instance of length 4 exceeds budget 3",
             ["cap", "mis", "solve"]),
            (3, "graph with 4 vertices exceeds independent-set budget 3", ["cap"]),
            (20, "identity-constrained instance of length 4 exceeds budget 3", []),
        ):
            kwargs = {"search_budget": budgets[mis_max_vertices]}
            calls.clear()
            with monkeypatch.context() as m:
                record_alpha(m)
                m.setattr(reductions, "solve", recording(calls, "solve", reductions.solve))
                if mis_max_vertices not in shared:
                    shared[mis_max_vertices] = GraphOracles(k4, "T1", **kwargs)
                rows = [check_equivalence(shared[mis_max_vertices], k) for k in (1, 2, 3, 4, 1)]
            assert calls == expected
            for k, row in zip((1, 2, 3, 4, 1), rows):
                assert row == check_equivalence(GraphOracles(k4, "T1", **kwargs), k)
                assert row.skip_reason == reason
        # An alpha error is kept for every case: T2's cases I and II both
        # read the one failed search.
        calls.clear()
        with monkeypatch.context() as m:
            record_alpha(m)
            oracles = GraphOracles(k4, "T2", budgets[3])
            for k in (5, 1, 5, 2):
                row = check_equivalence(oracles, k)
                assert row.skip_reason == "graph with 4 vertices exceeds independent-set budget 3"
        assert calls == ["cap"]
        assert oracles.cases["I"] is oracles.cases["II"]
        # The public search gives the same text, from the same check.
        with pytest.raises(BudgetError) as info:
            max_independent_set(k4, budgets[3])
        assert str(info.value) == row.skip_reason

    def test_theorem_name_validated(self, monkeypatch):
        # One check, at each entry point that takes a theorem name, with one
        # message; the oracles check it before their graph's alpha or
        # connectivity is computed, and a row takes its theorem from them.
        calls = []
        for name, attr in (("mis", "independence_number"), ("solve", "solve")):
            monkeypatch.setattr(reductions, attr, recording(calls, name, getattr(reductions, attr)))
        monkeypatch.setattr(Graph, "is_connected", recording(calls, "connected", Graph.is_connected))
        for theorem in ("T3", "t1", "", None, 1, ["T1"]):
            message = re.escape(f"theorem must be 'T1' or 'T2', got {theorem!r}")
            for enter in (lambda: GraphOracles(TRIANGLE, theorem),
                          lambda: SweepConfig(theorem, (1, 2))):
                with pytest.raises(ValidationError, match=message):
                    enter()
        assert calls == []

    def test_single_letter_optimum_equals_independence_number(self):
        for n in range(1, 5):
            for _, g in exhaustive_graphs(n):
                inst = reduce_theorem1(g, 1)
                assert (
                    solve(inst.a1, inst.a2, inst.mc).length
                    == max_independent_set(g).size
                )

    def test_lapcs_len_agrees_with_exhaustive_search(self):
        for k in (1, 2, 3):
            row = check_equivalence(GraphOracles(TRIANGLE, "T2"), k)
            inst = reduce_theorem2(TRIANGLE, k)
            assert row.lapcs_len == exact_search(inst.a1, inst.a2, inst.mc).length


def test_exhaustive_sweep_rows_follow_the_closed_forms():
    """Every all-k row for n <= 5, against brute-force alpha and arithmetic.

    T1: the optimum is alpha(G). T2 (case II, k <= n): the bracket arcs lie
    on both sides and each edge arc is one conflict edge, so the optimum is
    n(n+2) - m; the backward direction fails exactly when alpha(G) < k yet
    n(n+2) - m reaches the threshold k(n+2), i.e. m <= (n - k)(n + 2).
    """
    alpha = {
        f"g{n}-{mask}": brute_max_independent_set(n, g.edges)
        for n in range(1, 6)
        for mask, g in exhaustive_graphs(n)
    }
    t1 = run_sweep(SweepConfig("T1", (1, 5))).rows
    assert len(t1) == 5405
    assert all(r.lapcs_len == alpha[r.graph_id] for r in t1)

    t2 = run_sweep(SweepConfig("T2", (1, 5), max_exhaustive_n=5)).rows
    assert len(t2) == 5405
    for r in t2:
        assert r.lapcs_len == r.n * (r.n + 2) - r.m
        assert r.backward_ok == (
            alpha[r.graph_id] >= r.k or r.m > (r.n - r.k) * (r.n + 2)
        )
    assert sum(not r.backward_ok for r in t2) == 1334
