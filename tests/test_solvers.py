"""Solver correctness against brute-force oracles and frozen examples."""

import hashlib
import itertools
import random
import string
import tracemalloc

import pytest

from arcseq import (
    AnnotatedSequence,
    BudgetError,
    CapabilityError,
    InstanceError,
    Mapping,
    MatchConstraint,
    SearchBudget,
    StructureLevel,
    ValidationError,
    WrongSolverError,
    build_conflict_graph,
    diagonal_conflict_solve,
    exact_search,
    is_arc_preserving,
    lcs_dp,
    solve,
)
from arcseq import reduce_theorem1, reduce_theorem2, solvers
from arcseq.formats import parse_annotated_sequence
from arcseq.generate import exhaustive_graphs, random_annotated_sequence, random_arcs, random_graph
from arcseq.mis import NeighborMasks
from arcseq.solvers import _suffix_lcs_rows

from oracles import (
    brute_identity_lapcs,
    brute_lapcs,
    brute_lcs,
    brute_lexmin_independent_set,
    brute_lexmin_lcs,
    brute_min_vertex_cover,
    conflict_graph_by_definition,
    lane_then_exact_solve,
)

UNC = MatchConstraint.unconstrained()
FRAG1 = MatchConstraint.fragment(1)


def check_witness(result, a1, a2, mc):
    assert result.length == len(result.witness.pairs)
    assert is_arc_preserving(result.witness, a1, a2)
    assert all(mc.allows(i, j) for i, j in result.witness.pairs)


class TestLcsDp:
    def test_classic_example(self):
        # Value pinned by subsequence-enumeration oracle.
        assert brute_lcs("abcbdab", "bdcaba") == 4
        assert lcs_dp("abcbdab", "bdcaba").length == 4

    def test_identical_strings(self):
        assert lcs_dp("aaa", "aaa").length == 3

    def test_disjoint_alphabets(self):
        r = lcs_dp("abc", "xyz")
        assert r.length == 0 and r.witness.pairs == ()

    def test_empty_inputs(self):
        assert lcs_dp("", "abc").length == 0

    def test_witness_is_valid_common_subsequence(self):
        r = lcs_dp("abcbdab", "bdcaba")
        check_witness(r, AnnotatedSequence("abcbdab"), AnnotatedSequence("bdcaba"), UNC)

    def test_rejects_annotated_input_with_arcs(self):
        plain = AnnotatedSequence("abab")
        arced = AnnotatedSequence("abab", {(1, 2)})
        assert lcs_dp(plain, plain).length == 4
        with pytest.raises(WrongSolverError):
            lcs_dp(arced, plain)
        with pytest.raises(WrongSolverError):
            lcs_dp(plain, arced)

    def test_matches_brute_force_on_random_strings(self):
        rng = random.Random(7)
        for _ in range(40):
            s1 = "".join(rng.choice("ab") for _ in range(rng.randint(0, 9)))
            s2 = "".join(rng.choice("ab") for _ in range(rng.randint(0, 9)))
            assert lcs_dp(s1, s2).length == brute_lcs(s1, s2)

    def test_every_suffix_lcs_read_matches_brute_force(self):
        # The LCS of s1[i..] and s2[j..] is one masked popcount of rows[i],
        # for every i in 1..n+1 and j in 1..m+1, empty suffixes included.
        rng = random.Random(29)
        for alphabet in ("a", "ab", "abc", "abcd"):
            for _ in range(75):
                s1 = _random_string(rng, alphabet, rng.randint(0, 9))
                s2 = _random_string(rng, alphabet, rng.randint(0, 9))
                n, m = len(s1), len(s2)
                rows = _suffix_lcs_rows(s1, s2)
                assert len(rows) == n + 2 and rows[n + 1] == 0
                for i in range(1, n + 2):
                    for j in range(1, m + 2):
                        got = (rows[i] & ((1 << m - j + 1) - 1)).bit_count()
                        assert got == brute_lcs(s1[i - 1:], s2[j - 1:]), (s1, s2, i, j)

    def test_witness_is_the_brute_force_lexmin(self):
        rng = random.Random(73)
        for alphabet in ("a", "ab", "abcd"):
            for _ in range(40):
                s1 = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
                s2 = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
                r = lcs_dp(s1, s2)
                assert (r.length, r.witness.pairs) == brute_lexmin_lcs(s1, s2)


def _digest(pairs) -> str:
    return hashlib.sha256(repr(pairs).encode()).hexdigest()


def _random_string(rng, alphabet, n):
    return "".join(rng.choice(alphabet) for _ in range(n))


# lcs_dp's (length, witness) as computed by the list-of-lists suffix table:
# per alphabet, the sha256 of the (length, pairs) list over 30 seeded pairs of
# unequal lengths 0..40; then (length, sha256 of pairs) of the long pairs.
LCS_ALPHABET_PINS = {
    "a": "ce9e45c522a5e13f3ea4e03a9c8acb887e802917105679f608c661fad0795f2d",
    "ab": "692395406b0c3157337217bbf876c689c2e9cee4973525f6c9101c2253ed292b",
    "ACGU": "ff4b9a775f8176f7c37d78e8e2c380eb6bb9079235f005ddae5968ce45f4150a",
    string.ascii_lowercase: "cf0c81c6aceefa505a6482cf36e3098a2ba1a5ec153cb765de1bcd3ae5377e81",
}
LCS_LONG_PINS = {
    "abab/baba": (1999, "706df2eec92716cf33a24bea92a49175d9e6f43a0ebb58b8ef8598c46ad67c39"),
    1000: (652, "aa213cab7e62211362ccc3cb38d320deb7ac876a8246ce67d80db784d2d978c0"),
    2000: (1301, "5e5c4570b1da0ccf6948ff25fec74cfd79927b006e4574858e320d00be476e17"),
}


def test_lcs_witnesses_are_pinned():
    for s1, s2 in (("", ""), ("", "abc"), ("abc", "")):
        r = lcs_dp(s1, s2)
        assert (r.length, r.witness.pairs) == (0, ())
    r = lcs_dp("abcbdab", "bdcaba")
    assert r.witness.pairs == ((2, 1), (3, 3), (4, 5), (6, 6))
    assert lcs_dp("abcd", "dcba").witness.pairs == ((1, 4),)

    rng = random.Random(71)
    got = {}
    for alphabet in LCS_ALPHABET_PINS:
        results = []
        for _ in range(30):
            s1 = _random_string(rng, alphabet, rng.randint(0, 40))
            s2 = _random_string(rng, alphabet, rng.randint(0, 40))
            r = lcs_dp(s1, s2)
            results.append((r.length, r.witness.pairs))
        got[alphabet] = _digest(results)
    assert got == LCS_ALPHABET_PINS

    long_pairs = {"abab/baba": ("ab" * 1000, "ba" * 1000)}
    for size in (1000, 2000):
        rng = random.Random(size)
        long_pairs[size] = (_random_string(rng, "ACGU", size), _random_string(rng, "ACGU", size))
    got = {}
    for key, (s1, s2) in long_pairs.items():
        r = lcs_dp(s1, s2)
        got[key] = (r.length, _digest(r.witness.pairs))
    assert got == LCS_LONG_PINS


class TestConflictGraph:
    def test_triangle_image(self):
        a1 = AnnotatedSequence("aaa", {(1, 2), (1, 3), (2, 3)})
        a2 = AnnotatedSequence("aaa")
        g = build_conflict_graph(a1, a2)
        assert type(g) is NeighborMasks
        assert g == {1: {2, 3}, 2: {1, 3}, 3: {1, 2}}
        assert list(g) == [1, 2, 3]

    def test_equal_arc_sets_give_no_conflicts(self):
        a = AnnotatedSequence("abcab", {(1, 4), (2, 5)})
        assert build_conflict_graph(a, a) == {p: set() for p in range(1, 6)}

    def test_blocked_single_edge_image(self):
        a1 = AnnotatedSequence("baabbaab", {(1, 4), (5, 8), (3, 6)})
        a2 = AnnotatedSequence("baabbaab", {(1, 4), (5, 8)})
        g = build_conflict_graph(a1, a2)
        assert g == {**{p: set() for p in range(1, 9)}, 3: {6}, 6: {3}}

    def test_conflicts_only_between_candidates(self):
        a1 = AnnotatedSequence("ab", {(1, 2)})
        a2 = AnnotatedSequence("ax")
        assert build_conflict_graph(a1, a2) == {1: set()}

    def test_length_mismatch(self):
        with pytest.raises(InstanceError):
            build_conflict_graph(AnnotatedSequence("ab"), AnnotatedSequence("abc"))

    def test_equal_sequences_flag_what_the_per_position_compare_flags(self):
        # Equal sequences take a shortcut past the per-position compare; a
        # strict prefix, or an equal length with another letter, does not,
        # and flags only the common prefix's equal positions.
        def per_position(s1, s2):
            return bytes([0, *(x == y for x, y in zip(s1, s2))])

        for seq in ("", "a", "abba", "äöü", "日本語日", "\U0001f600x\U0001f600", "baabbaab" * 5):
            a1 = AnnotatedSequence(seq)
            a2 = AnnotatedSequence(seq, {(1, len(seq))} if len(seq) > 1 else ())
            flags, arcs = solvers._conflict_edges(a1, a2)
            assert flags == per_position(seq, seq) == bytes([0] + [1] * len(seq))
            assert arcs == a2.arcs
        for s1, s2 in (("ab", "abba"), ("", "a"), ("äö", "äöx"), ("aab", "aa"), ("abc", "abd"),
                       ("日本", "日木")):
            flags, arcs = solvers._conflict_edges(AnnotatedSequence(s1), AnnotatedSequence(s2))
            assert flags == per_position(s1, s2)
            assert len(flags) == 1 + min(len(s1), len(s2)) and arcs == frozenset()


class TestDiagonalConflictSolve:
    def test_blocked_single_edge_optimum(self):
        a1 = AnnotatedSequence("baabbaab", {(1, 4), (5, 8), (3, 6)})
        a2 = AnnotatedSequence("baabbaab", {(1, 4), (5, 8)})
        assert brute_identity_lapcs(a1, a2) == 7
        r = diagonal_conflict_solve(a1, a2)
        assert r.length == 7
        # Lexicographically smallest optimum keeps 3 and drops 6.
        assert r.witness.pairs == tuple((p, p) for p in (1, 2, 3, 4, 5, 7, 8))
        check_witness(r, a1, a2, FRAG1)

    def test_no_conflicts_takes_everything(self):
        a = AnnotatedSequence("abcabc", {(1, 4)})
        r = diagonal_conflict_solve(a, a)
        assert r.length == 6

    def test_three_vertex_path_keeps_endpoints(self):
        a1 = AnnotatedSequence("aaa", {(1, 2)})
        a2 = AnnotatedSequence("aaa", {(2, 3)})
        r = diagonal_conflict_solve(a1, a2)
        assert r.length == 2
        assert r.witness.pairs == ((1, 1), (3, 3))

    def test_even_cycle(self):
        a1 = AnnotatedSequence("aaaa", {(1, 2), (3, 4)})
        a2 = AnnotatedSequence("aaaa", {(2, 3), (1, 4)})
        r = diagonal_conflict_solve(a1, a2)
        assert r.length == 2
        assert r.witness.pairs == ((1, 1), (3, 3))

    def test_odd_cycle(self):
        # Conflict triangle on candidates 1, 2, 3; in the second instance
        # the S1 arcs share endpoint 2.
        for arcs1, arcs2 in (({(1, 2)}, {(2, 3), (1, 3)}), ({(1, 2), (2, 3)}, {(1, 3)})):
            a1 = AnnotatedSequence("aaa", arcs1)
            a2 = AnnotatedSequence("aaa", arcs2)
            r = diagonal_conflict_solve(a1, a2)
            assert r.length == 1
            assert r.witness.pairs == ((1, 1),)

    def test_witness_is_the_lexmin_maximum_independent_set(self):
        # Conflict path 1-4-3-2: walked from 1, the labels do not rise, and
        # the lexmin optimum {1, 2} is not the first optimum along the walk.
        a1 = AnnotatedSequence("aaaa", {(1, 4), (2, 3)})
        a2 = AnnotatedSequence("aaaa", {(3, 4)})
        assert diagonal_conflict_solve(a1, a2).witness.pairs == ((1, 1), (2, 2))

        # Every labelling of paths of 1-6 vertices and cycles of 3-6: S1-only
        # arcs on one letter make the conflict graph exactly that component.
        shapes = [(size, False) for size in range(1, 7)] + [(size, True) for size in range(3, 7)]
        for size, is_cycle in shapes:
            for labels in itertools.permutations(range(1, size + 1)):
                edges = list(zip(labels, labels[1:] + labels[:1] if is_cycle else labels[1:]))
                a1 = AnnotatedSequence("a" * size, edges)
                a2 = AnnotatedSequence("a" * size)
                best, members = brute_lexmin_independent_set(labels, edges)
                r = diagonal_conflict_solve(a1, a2)
                assert (r.length, r.witness) == (best, Mapping.identity(members))
                assert (r.stats["conflict_edges"], r.stats["components"]) == (len(edges), 1)

        rng = random.Random(43)
        turns = 0
        for _ in range(300):
            n = rng.randint(1, 18)
            a1, a2 = (
                AnnotatedSequence(
                    "".join(rng.choice("aaab") for _ in range(n)),
                    random_arcs(rng, n, StructureLevel.CROSSING, rng.uniform(0.2, 0.5)),
                )
                for _ in range(2)
            )
            cands, edges, neighbours = conflict_graph_by_definition(a1, a2)
            if len(cands) > 14:
                continue
            assert build_conflict_graph(a1, a2) == neighbours
            size, members = brute_lexmin_independent_set(cands, edges)
            r = diagonal_conflict_solve(a1, a2)
            assert (r.length, r.witness) == (size, Mapping.identity(members))
            turns += any(
                len(nb) == 2 and (min(nb) > v or max(nb) < v)
                for v, nb in neighbours.items()
            )
        # Labels turn along some walk (a vertex between two larger or two
        # smaller neighbours) in many of the instances.
        assert turns >= 100

    def test_long_single_path(self):
        length = 100_000
        a1 = AnnotatedSequence("a" * length, {(p, p + 1) for p in range(1, length, 2)})
        a2 = AnnotatedSequence("a" * length, {(p, p + 1) for p in range(2, length, 2)})
        for mc in (FRAG1, MatchConstraint.diagonal(0)):
            r = solve(a1, a2, mc)
            assert r.stats["solver"] == "diagonal_conflict"
            assert r.length == length // 2
            assert r.witness.pairs == tuple((p, p) for p in range(1, length, 2))

    def test_large_random_crossing_instance_is_pinned(self):
        # (length, candidates, conflict_edges, components, sha256 of the
        # witness pairs), captured on the component walk that stepped by set
        # difference and sorted every path.
        rng = random.Random(100_000)
        s1 = _random_string(rng, "acgu", 100_000)
        s2 = "".join(ch if rng.random() < 0.9 else rng.choice("acgu") for ch in s1)
        a1, a2 = (
            AnnotatedSequence(s, random_arcs(rng, len(s), StructureLevel.CROSSING))
            for s in (s1, s2)
        )
        r = diagonal_conflict_solve(a1, a2)
        stats = r.stats
        got = (r.length, stats["candidates"], stats["conflict_edges"], stats["components"],
               _digest(r.witness.pairs))
        assert got == (
            59551, 92466, 51120, 41346,
            "d4c2b4cc3d46102b9075421e079c4f012a38d1a905a9d50ae525286a1b021b0a",
        )

    def test_lane_allocation_peak(self):
        # tracemalloc peaks on Python 3.11: 1.7 MiB on two neighbour slots per
        # position, 6.4 MiB when the lane built one neighbour set per candidate.
        rng = random.Random(20_000)
        s1 = _random_string(rng, "acgu", 20_000)
        s2 = "".join(ch if rng.random() < 0.9 else rng.choice("acgu") for ch in s1)
        a1, a2 = (
            AnnotatedSequence(s, random_arcs(rng, len(s), StructureLevel.CROSSING))
            for s in (s1, s2)
        )
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            diagonal_conflict_solve(a1, a2)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

    def test_lane_refuses_exactly_where_the_map_has_degree_above_two(self):
        rng = random.Random(2011)
        refused = crowded = 0
        for level in StructureLevel:
            for _ in range(200):
                n = rng.randint(1, 12)
                unlimited = level is StructureLevel.UNLIMITED
                # The unlimited sampler draws density * n arcs.
                density = rng.uniform(0.5, 2.0) if unlimited else rng.uniform(0.2, 0.6)
                a1 = random_annotated_sequence(rng, n, "ab", level, density)
                arcs2 = random_arcs(rng, n, level, density)
                if unlimited:
                    # Arcs on both sides cancel out of the conflict graph.
                    arcs2 |= {arc for arc in a1.arcs if rng.random() < 0.5}
                seq2 = "".join(ch if rng.random() < 0.7 else "b" for ch in a1.seq)
                a2 = AnnotatedSequence(seq2, arcs2)
                neighbours = build_conflict_graph(a1, a2)
                degrees = [len(nb) for nb in neighbours.values()]
                if max(degrees, default=0) > 2:
                    with pytest.raises(CapabilityError, match=r"use exact_search\(\)$"):
                        diagonal_conflict_solve(a1, a2)
                    refused += 1
                    continue
                stats = diagonal_conflict_solve(a1, a2).stats
                assert stats["candidates"] == len(neighbours)
                assert stats["conflict_edges"] * 2 == sum(degrees)
                # Accepted although a position ends more than two arcs: the
                # surplus are shared arcs or reach a non-candidate.
                ends = [p for arc in itertools.chain(a1.arcs, a2.arcs) for p in arc]
                crowded += any(ends.count(p) > 2 for p in set(ends))
        assert min(refused, crowded) >= 50

    def test_declined_instances_name_the_pinned_vertex(self):
        # The vertex in the CapabilityError message, captured with the
        # line-by-line parser and the walk over every candidate, on sequences
        # built three ways: by the constructor from the drawn arc list, and
        # parsed from the canonical text (sorted arcs, the bulk parse) and
        # from the drawn text (some arcs reversed, the line loop).
        got = []
        for seq, drawn in declined_instances():
            named = []
            for build in (
                lambda arcs: AnnotatedSequence(seq, arcs),
                lambda arcs: parse_annotated_sequence(
                    seq + "\n" + "".join(f"{min(a)} {max(a)}\n" for a in sorted(arcs, key=sorted))
                ),
                lambda arcs: parse_annotated_sequence(
                    seq + "\n" + "".join(f"{i} {j}\n" for i, j in arcs)
                ),
            ):
                with pytest.raises(CapabilityError) as info:
                    diagonal_conflict_solve(*map(build, drawn))
                named.append(int(str(info.value).split()[2]))
            got.append(tuple(named))
        assert got == [(v, v, v) for v in DECLINED_VERTEX_PINS]

    def test_degree_three_refused(self):
        a1 = AnnotatedSequence("aaaa", {(1, 2), (1, 3), (1, 4)})
        a2 = AnnotatedSequence("aaaa")
        with pytest.raises(CapabilityError, match="exact_search"):
            diagonal_conflict_solve(a1, a2)

    def test_length_equals_candidates_minus_vertex_cover(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 10)
            a1 = random_annotated_sequence(rng, n, "ab", StructureLevel.CROSSING)
            a2 = random_annotated_sequence(rng, n, "ab", StructureLevel.NESTED)
            cands, edges, neighbours = conflict_graph_by_definition(a1, a2)
            assert build_conflict_graph(a1, a2) == neighbours
            r = diagonal_conflict_solve(a1, a2)
            mvc = brute_min_vertex_cover(cands, edges)
            assert r.length == len(cands) - mvc
            assert r.length == brute_identity_lapcs(a1, a2)
            check_witness(r, a1, a2, FRAG1)


class TestExactSearch:
    def test_triangle_single_letter_instance(self):
        a1 = AnnotatedSequence("aaa", {(1, 2), (1, 3), (2, 3)})
        a2 = AnnotatedSequence("aaa")
        assert brute_lapcs(a1, a2, UNC) == 1
        r = exact_search(a1, a2, UNC)
        assert r.length == 1
        assert r.witness.pairs == ((1, 1),)

    def test_plain_transposition(self):
        r = exact_search(AnnotatedSequence("ab"), AnnotatedSequence("ba"), UNC)
        assert r.length == 1

    def test_identity_route_matches_diagonal_solver(self):
        a1 = AnnotatedSequence("baabbaab", {(1, 4), (5, 8), (3, 6)})
        a2 = AnnotatedSequence("baabbaab", {(1, 4), (5, 8)})
        r = exact_search(a1, a2, FRAG1)
        d = diagonal_conflict_solve(a1, a2)
        assert r.length == d.length == 7
        assert r.witness.pairs == d.witness.pairs

    def test_identity_route_handles_high_degree(self):
        a1 = AnnotatedSequence("aaaa", {(1, 2), (1, 3), (1, 4)})
        a2 = AnnotatedSequence("aaaa")
        r = exact_search(a1, a2, FRAG1)
        assert r.length == 3
        assert r.witness.pairs == ((2, 2), (3, 3), (4, 4))

    def test_unconstrained_budget(self):
        a = AnnotatedSequence("a" * 21)
        with pytest.raises(BudgetError):
            exact_search(a, a, UNC)
        exact_search(a, a, UNC, SearchBudget(max_cells=441))

    def test_identity_budget(self):
        a = AnnotatedSequence("a" * 65)
        with pytest.raises(BudgetError):
            exact_search(a, a, FRAG1)
        assert exact_search(a, a, FRAG1, SearchBudget(max_identity_length=65)).length == 65

    def test_identity_search_on_a_long_conflict_path(self):
        # One conflict path of 1200 vertices: deeper than the recursion limit.
        length = 1200
        a1 = AnnotatedSequence("a" * length, {(p, p + 1) for p in range(1, length, 2)})
        a2 = AnnotatedSequence("a" * length, {(p, p + 1) for p in range(2, length, 2)})
        r = exact_search(a1, a2, FRAG1, SearchBudget(max_identity_length=5000))
        assert r.length == 600
        assert r.witness.pairs == tuple((p, p) for p in range(1, length, 2))

    def test_identity_route_against_the_oracles_off_the_common_prefix(self):
        # Unequal lengths, positions whose letters differ, and arcs that end
        # past the common prefix: the route reads the conflict edges as
        # bitmasks, and must find the oracles' lexmin optimum.
        rng = random.Random(44)
        shapes = {"unequal": 0, "non-candidate": 0, "past the prefix": 0}
        for _ in range(300):
            n1, n2 = rng.randint(0, 11), rng.randint(0, 11)
            a1, a2 = (
                AnnotatedSequence(
                    "".join(rng.choice("aab") for _ in range(n)),
                    random_arcs(rng, n, StructureLevel.UNLIMITED, rng.uniform(0.3, 1.5)),
                )
                for n in (n1, n2)
            )
            common = min(n1, n2)
            shapes["unequal"] += n1 != n2
            shapes["non-candidate"] += a1.seq[:common] != a2.seq[:common]
            shapes["past the prefix"] += any(q > common for _, q in a1.arcs | a2.arcs)
            cands, edges, _ = conflict_graph_by_definition(a1, a2)
            size, members = brute_lexmin_independent_set(cands, edges)
            r = exact_search(a1, a2, FRAG1, SearchBudget(max_identity_length=11))
            assert (r.length, r.witness) == (size, Mapping.identity(members))
            assert r.length == brute_identity_lapcs(a1, a2)
            assert r.stats["candidates"] == len(cands)
        assert min(shapes.values()) >= 100

    def test_pair_search_deeper_than_the_recursion_limit(self):
        length = 1200
        a = AnnotatedSequence("a" * length, {(p, p + 1) for p in range(1, length, 4)})
        r = exact_search(a, a, UNC, SearchBudget(max_cells=length * length))
        assert r.length == length
        assert r.witness.pairs == tuple((p, p) for p in range(1, length + 1))

    def test_node_budget(self):
        a = AnnotatedSequence("abab")
        with pytest.raises(BudgetError):
            exact_search(a, a, UNC, SearchBudget(max_nodes=2))

    def test_malformed_budget_rejected(self):
        for bad in ({"max_cells": -1}, {"max_identity_length": -1},
                    {"max_nodes": 0}, {"max_nodes": -3},
                    {"max_nodes": 2.5}, {"max_nodes": True}, {"max_cells": 1.5},
                    {"max_cells": "9"}, {"max_identity_length": 64.0},
                    {"max_identity_length": None}, {"mis_max_vertices": -1},
                    {"mis_max_vertices": 20.0}, {"mis_max_vertices": True},
                    {"mis_max_vertices": None}):
            with pytest.raises(ValidationError):
                SearchBudget(**bad)
        assert SearchBudget(max_cells=0, max_identity_length=0, max_nodes=1).max_nodes == 1
        assert SearchBudget(mis_max_vertices=0).mis_max_vertices == 0

    def test_budget_is_a_frozen_value(self):
        def replace(budget, **changes):
            # A copy built through the constructor, as dataclasses.replace builds it.
            return SearchBudget(**dict(zip(SearchBudget._fields, budget._values()), **changes))

        budget = SearchBudget(max_nodes=9)
        twin, other = SearchBudget(400, 64, 9), SearchBudget(max_nodes=10)
        assert budget == twin and hash(budget) == hash(twin)
        assert budget != other and {budget: 1}.get(other) is None
        assert budget != replace(budget, mis_max_vertices=5)
        assert repr(budget) == (
            "SearchBudget(max_cells=400, max_identity_length=64, max_nodes=9, mis_max_vertices=20)"
        )
        assert replace(budget, max_nodes=10) == other
        assert hash(replace(budget, max_nodes=10)) == hash(other)
        assert SearchBudget._fields == (
            "max_cells", "max_identity_length", "max_nodes", "mis_max_vertices"
        )
        with pytest.raises(AttributeError, match="cannot assign to field 'max_nodes'"):
            budget.max_nodes = 10
        assert budget.max_nodes == 9

    def test_windowed_constraints(self):
        a1 = AnnotatedSequence("abcd")
        a2 = AnnotatedSequence("dcba")
        for mc in (MatchConstraint.diagonal(1), MatchConstraint.fragment(2)):
            r = exact_search(a1, a2, mc)
            assert r.length == brute_lapcs(a1, a2, mc)
            check_witness(r, a1, a2, mc)


# (length, stats["nodes"], witness) of exact_search on PAIR_ROUTE_INSTANCES,
# captured while the pair search still recursed once per chosen pair.
PAIR_ROUTE_PINS = [
    (6, 11, ((1, 1), (6, 2), (7, 3), (8, 5), (9, 6), (10, 7))),
    (5, 6, ((1, 1), (2, 2), (3, 3), (4, 4), (5, 5))),
    (7, 13, ((1, 1), (3, 2), (4, 5), (5, 6), (6, 9), (7, 10), (8, 11))),
    (10, 15, ((1, 1), (2, 2), (3, 3), (4, 5), (5, 6), (7, 7), (8, 8), (9, 9), (10, 10), (11, 11))),
    (5, 99, ((1, 2), (2, 3), (3, 4), (5, 5), (6, 8))),
    (7, 45, ((1, 2), (2, 4), (5, 6), (6, 7), (7, 8), (9, 10), (10, 12))),
    (5, 6, ((1, 1), (2, 2), (3, 3), (5, 5), (6, 6))),
    (5, 74, ((1, 2), (3, 3), (5, 7), (6, 8), (9, 10))),
    (4, 5, ((1, 2), (3, 3), (4, 6), (5, 7))),
    (5, 9, ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7))),
    (8, 9, ((1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (8, 7), (9, 8))),
    (6, 7, ((1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 8))),
    (6, 78, ((1, 1), (2, 4), (3, 7), (4, 9), (5, 10), (6, 12))),
    (6, 17, ((2, 1), (4, 2), (5, 3), (7, 4), (10, 5), (11, 8))),
    (4, 65, ((1, 2), (3, 4), (4, 6), (6, 8))),
    (5, 59, ((1, 4), (2, 5), (3, 6), (4, 8), (12, 9))),
    (6, 15, ((1, 1), (3, 2), (4, 3), (5, 6), (6, 8), (9, 9))),
    (4, 5, ((1, 2), (4, 3), (5, 5), (6, 6))),
    (6, 7, ((1, 1), (2, 2), (3, 3), (4, 4), (5, 6), (6, 7))),
    (5, 13, ((1, 1), (3, 2), (4, 3), (6, 6), (7, 7))),
    (4, 6, ((1, 2), (2, 5), (3, 6), (4, 7))),
    (9, 38, ((1, 1), (2, 2), (3, 3), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 11))),
    (5, 6, ((2, 1), (4, 2), (5, 3), (6, 4), (7, 5))),
    (4, 6, ((3, 1), (6, 3), (7, 4), (8, 5))),
    (9, 14, ((1, 1), (2, 3), (3, 4), (4, 6), (7, 7), (8, 8), (9, 9), (10, 10), (11, 11))),
    (4, 7, ((1, 3), (3, 4), (5, 5), (6, 7))),
    (7, 8, ((1, 1), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8), (8, 9))),
    (8, 12, ((1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (8, 7), (9, 8), (10, 9))),
    (8, 52, ((1, 3), (2, 4), (6, 5), (7, 6), (8, 7), (9, 9), (10, 10), (11, 12))),
    (4, 14, ((3, 1), (4, 2), (6, 5), (7, 7))),
    (4, 8, ((1, 1), (2, 2), (6, 5), (7, 6))),
    (5, 91, ((1, 1), (2, 2), (4, 3), (5, 5), (6, 7))),
    (7, 8, ((1, 2), (2, 4), (3, 6), (4, 7), (5, 8), (6, 9), (8, 10))),
    (5, 9, ((1, 1), (5, 2), (6, 8), (8, 9), (10, 10))),
    (6, 9, ((1, 1), (2, 2), (3, 4), (5, 6), (6, 8), (8, 9))),
    (7, 13, ((2, 1), (3, 2), (4, 3), (5, 5), (6, 6), (7, 7), (8, 8))),
    (5, 12, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6))),
    (4, 61, ((1, 1), (2, 2), (3, 4), (6, 6))),
    (5, 166, ((1, 1), (4, 2), (5, 3), (6, 4), (7, 9))),
    (7, 57, ((1, 1), (2, 2), (3, 5), (7, 6), (10, 7), (11, 8), (12, 9))),
    (3, 24, ((1, 2), (2, 4), (6, 6))),
    (4, 26, ((1, 2), (2, 3), (5, 5), (8, 6))),
    (6, 34, ((1, 1), (3, 2), (4, 4), (5, 5), (8, 6), (9, 9))),
    (3, 4, ((1, 2), (2, 3), (3, 4))),
    (6, 21, ((1, 1), (2, 2), (3, 4), (4, 5), (5, 6), (6, 9))),
    (4, 26, ((1, 1), (2, 4), (3, 5), (5, 6))),
    (6, 12, ((3, 1), (4, 2), (5, 5), (6, 7), (7, 8), (8, 10))),
    (5, 82, ((1, 2), (2, 4), (3, 5), (6, 6), (10, 7))),
    (6, 7, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 7), (8, 8))),
    (5, 13, ((1, 2), (6, 3), (7, 4), (8, 5), (10, 6))),
    (4, 16, ((1, 2), (2, 4), (4, 5), (5, 6))),
    (4, 47, ((1, 1), (2, 4), (3, 5), (4, 7))),
    (3, 30, ((1, 1), (2, 4), (5, 5))),
    (4, 13, ((3, 1), (4, 2), (5, 5), (6, 7))),
    (5, 64, ((1, 3), (2, 4), (5, 5), (6, 7), (7, 8))),
    (4, 8, ((2, 1), (3, 2), (4, 4), (6, 5))),
    (5, 9, ((1, 3), (2, 4), (5, 5), (6, 7), (7, 10))),
    (5, 14, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 7))),
    (6, 17, ((1, 2), (2, 5), (4, 6), (6, 7), (8, 8), (9, 10))),
    (6, 7, ((1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (7, 6))),
]


def pair_route_instances():
    """Four seeded instances per structure level and windowed constraint."""
    rng = random.Random(53)
    for level in StructureLevel:
        for mc in (UNC, MatchConstraint.fragment(4), MatchConstraint.diagonal(3)):
            for _ in range(4):
                a1 = random_annotated_sequence(rng, rng.randint(6, 12), "ab", level)
                a2 = random_annotated_sequence(rng, rng.randint(6, 12), "ab", level)
                yield a1, a2, mc


def test_pair_route_explores_the_pinned_tree():
    got = [
        (r.length, r.stats["nodes"], r.witness.pairs)
        for r in (exact_search(a1, a2, mc) for a1, a2, mc in pair_route_instances())
    ]
    assert got == PAIR_ROUTE_PINS


def test_pair_route_node_budget_is_exact():
    # The pinned node count is exactly what each search needs: a budget of
    # that many nodes gives the pinned result, one node fewer gives up.
    for (a1, a2, mc), (length, nodes, pairs) in zip(pair_route_instances(), PAIR_ROUTE_PINS):
        r = exact_search(a1, a2, mc, SearchBudget(max_nodes=nodes))
        assert (r.length, r.stats["nodes"], r.witness.pairs) == (length, nodes, pairs)
        with pytest.raises(BudgetError):
            exact_search(a1, a2, mc, SearchBudget(max_nodes=nodes - 1))


# (candidates, conflict_edges, components) of diagonal_conflict_solve, then
# (candidates, nodes) of exact_search's identity route, on
# identity_stat_instances(); captured while the conflict graph was still a
# vertex tuple plus an edge set, except the node column, captured once the
# lexmin search took the isolated candidates at its root.
IDENTITY_STAT_PINS = [
    (3, 3, 1, 3, 3),
    (8, 1, 7, 8, 3),
    (3, 3, 1, 3, 3),
    (4, 3, 1, 4, 5),
    (8, 5, 3, 8, 9),
    (14, 9, 5, 14, 13),
    (5, 1, 4, 5, 3),
    (5, 2, 3, 5, 5),
    (10, 4, 6, 10, 7),
    (7, 3, 4, 7, 7),
    (8, 3, 5, 8, 7),
    (9, 5, 4, 9, 9),
    (4, 1, 3, 4, 3),
    (13, 8, 5, 13, 15),
    (4, 2, 2, 4, 5),
    (5, 2, 3, 5, 5),
    (15, 9, 6, 15, 13),
    (8, 8, 1, 8, 9),
    (9, 4, 5, 9, 9),
    (9, 5, 4, 9, 15),
    (11, 5, 6, 11, 9),
    (15, 8, 7, 15, 19),
    (13, 8, 5, 13, 25),
    (11, 2, 9, 11, 5),
]


def declined_instances():
    """Twenty seeded all-'a' identity instances of length 30 with 15 freely
    drawn arcs a side, each with a conflict vertex of degree > 2; in three
    of them both ends of the edge that declines already have two neighbours."""
    for seed in range(20):
        rng = random.Random(seed)
        yield "a" * 30, [[tuple(rng.sample(range(1, 31), 2)) for _ in range(15)] for _ in range(2)]


DECLINED_VERTEX_PINS = [29, 8, 6, 30, 3, 28, 26, 4, 7, 23, 12, 21, 12, 26, 9, 30, 21, 26, 11, 29]


def identity_stat_instances():
    """The triangle image, the blocked single edge, an odd cycle, the
    1-4-3-2 path, then 20 seeded crossing-arc pairs."""
    yield AnnotatedSequence("aaa", {(1, 2), (1, 3), (2, 3)}), AnnotatedSequence("aaa")
    yield (
        AnnotatedSequence("baabbaab", {(1, 4), (5, 8), (3, 6)}),
        AnnotatedSequence("baabbaab", {(1, 4), (5, 8)}),
    )
    yield AnnotatedSequence("aaa", {(1, 2)}), AnnotatedSequence("aaa", {(2, 3), (1, 3)})
    yield AnnotatedSequence("aaaa", {(1, 4), (2, 3)}), AnnotatedSequence("aaaa", {(3, 4)})
    rng = random.Random(67)
    for _ in range(20):
        n = rng.randint(8, 24)
        yield tuple(
            AnnotatedSequence(
                "".join(rng.choice("aaaab") for _ in range(n)),
                random_arcs(rng, n, StructureLevel.CROSSING, rng.uniform(0.3, 0.6)),
            )
            for _ in range(2)
        )


def test_identity_lane_stats_are_pinned():
    got = []
    for a1, a2 in identity_stat_instances():
        d = diagonal_conflict_solve(a1, a2).stats
        x = exact_search(a1, a2, FRAG1).stats
        got.append((d["candidates"], d["conflict_edges"], d["components"],
                    x["candidates"], x["nodes"]))
    assert got == IDENTITY_STAT_PINS


class TestSolveDispatch:
    def test_plain_unconstrained_uses_lcs(self):
        r = solve(AnnotatedSequence("abcbdab"), AnnotatedSequence("bdcaba"), UNC)
        assert r.stats["solver"] == "lcs_dp"
        assert r.length == 4

    def test_low_degree_identity_uses_conflict_solver(self):
        a1 = AnnotatedSequence("baabbaab", {(1, 4), (5, 8), (3, 6)})
        a2 = AnnotatedSequence("baabbaab", {(1, 4), (5, 8)})
        r = solve(a1, a2, FRAG1)
        assert r.stats["solver"] == "diagonal_conflict"
        assert r.length == 7

    def test_high_degree_identity_falls_back_to_search(self):
        a1 = AnnotatedSequence("aaaa", {(1, 2), (1, 3), (1, 4)})
        a2 = AnnotatedSequence("aaaa")
        r = solve(a1, a2, FRAG1)
        assert r.stats["solver"] == "exact_search"
        assert r.length == 3

    def test_unequal_lengths_identity_falls_back_to_search(self):
        a1 = AnnotatedSequence("abcx")
        a2 = AnnotatedSequence("abc")
        r = solve(a1, a2, FRAG1)
        assert r.stats["solver"] == "exact_search"
        assert r.length == 3

        # Arc (3, 4) reaches past the common prefix, so it adds no conflict.
        a1 = AnnotatedSequence("aaaa", {(1, 2), (3, 4)})
        a2 = AnnotatedSequence("aaa", {(2, 3)})
        for mc in (FRAG1, MatchConstraint.diagonal(0)):
            assert brute_lapcs(a1, a2, mc) == 2
            for r in (solve(a1, a2, mc), exact_search(a1, a2, mc)):
                assert r.stats["solver"] == "exact_search"
                assert r.length == 2
                assert r.witness.pairs == ((1, 1), (3, 3))
                assert r.stats["candidates"] == 3

    def test_arcs_with_unconstrained_use_search(self):
        a1 = AnnotatedSequence("abab", {(1, 3)})
        r = solve(a1, AnnotatedSequence("abab"), UNC)
        assert r.stats["solver"] == "exact_search"

    def test_certain_decline_skips_the_lane(self, monkeypatch):
        # solve() does not try the degree-2 lane when equal sequences carry
        # more conflict arcs than positions. Wherever it skips the lane, the
        # lane declines the pair; every result, witness and stats included,
        # is the lane-then-exact route's. Every T1 and T2 instance with
        # n <= 5 (both T2 cases), seeded T1/T2 graphs with n = 6, and seeded
        # pairs with arcs on both sides, shared ones among them, so that the
        # arc counts exceed the length while the conflict arcs do not; the
        # 4-cycle has exactly as many conflict arcs as positions.
        lane_calls = []

        def counted(a1, a2):
            lane_calls.append((a1, a2))
            return diagonal_conflict_solve(a1, a2)

        monkeypatch.setattr(solvers, "diagonal_conflict_solve", counted)
        rng = random.Random(20118)
        graphs = [g for n in range(6) for _, g in exhaustive_graphs(n)]
        graphs += [random_graph(rng, 6, rng.choice((0.2, 0.5, 0.8))) for _ in range(300)]
        pairs = [
            (inst.a1, inst.a2)
            for g in graphs
            for inst in (reduce_theorem1(g, 1), reduce_theorem2(g, 1), reduce_theorem2(g, g.n + 1))
        ]
        pairs.append((AnnotatedSequence("aaaa", {(1, 2), (3, 4)}),
                      AnnotatedSequence("aaaa", {(2, 3), (1, 4)})))
        for _ in range(600):
            length, p = rng.randint(2, 8), rng.choice((0.15, 0.3, 0.45))
            seq = "".join(rng.choices("ab", k=length))
            arcs = [{a for a in itertools.combinations(range(1, length + 1), 2) if rng.random() < p}
                    for _ in range(2)]
            shared = {a for a in arcs[0] if rng.random() < 0.5}
            other = seq if rng.random() < 0.8 else seq[::-1]
            pairs.append((AnnotatedSequence(seq, arcs[0]), AnnotatedSequence(other, arcs[1] | shared)))
        skipped = tried = 0
        for a1, a2 in pairs:
            certain = a1.seq == a2.seq and len(a1.arcs ^ a2.arcs) > len(a1)
            if certain:
                with pytest.raises(CapabilityError):
                    diagonal_conflict_solve(a1, a2)
            lane_calls.clear()
            assert solve(a1, a2, FRAG1) == lane_then_exact_solve(a1, a2, FRAG1)
            assert lane_calls == ([] if certain else [(a1, a2)])
            skipped += certain
            tried += not certain
        assert skipped > 600 and tried > 3500


class TestCrossSolverAgreement:
    def test_witnesses_identical_between_lcs_and_search(self):
        rng = random.Random(23)
        for _ in range(25):
            s1 = "".join(rng.choice("abc") for _ in range(rng.randint(0, 8)))
            s2 = "".join(rng.choice("abc") for _ in range(rng.randint(0, 8)))
            a1, a2 = AnnotatedSequence(s1), AnnotatedSequence(s2)
            assert lcs_dp(s1, s2).witness.pairs == exact_search(a1, a2, UNC).witness.pairs

    def test_witnesses_identical_between_diagonal_and_search(self):
        rng = random.Random(29)
        for _ in range(25):
            n = rng.randint(1, 10)
            a1 = random_annotated_sequence(rng, n, "ab", StructureLevel.CROSSING)
            a2 = random_annotated_sequence(rng, n, "ab", StructureLevel.CHAIN)
            assert (
                diagonal_conflict_solve(a1, a2).witness.pairs
                == exact_search(a1, a2, FRAG1).witness.pairs
            )

    def test_monotone_in_diagonal_width(self):
        rng = random.Random(31)
        for _ in range(15):
            n = rng.randint(2, 8)
            a1 = random_annotated_sequence(rng, n, "ab", StructureLevel.UNLIMITED)
            a2 = random_annotated_sequence(rng, n, "ab", StructureLevel.NESTED)
            lengths = [
                solve(a1, a2, MatchConstraint.diagonal(c)).length for c in range(0, n + 1)
            ]
            assert lengths == sorted(lengths)
            assert solve(a1, a2, UNC).length >= lengths[-1]

    def test_lcs_upper_bounds_every_constrained_solve(self):
        rng = random.Random(37)
        for _ in range(15):
            n = rng.randint(1, 8)
            a1 = random_annotated_sequence(rng, n, "ab", StructureLevel.UNLIMITED)
            a2 = random_annotated_sequence(rng, n, "ab", StructureLevel.CROSSING)
            bound = lcs_dp(a1.seq, a2.seq).length
            for mc in (UNC, FRAG1, MatchConstraint.diagonal(1)):
                assert solve(a1, a2, mc).length <= bound

    def test_unchecked_witnesses_pass_the_mapping_checks(self):
        # lcs_dp and both identity routes build their witness without
        # Mapping's checks; the checked constructor must agree with each one.
        rng = random.Random(41)
        for _ in range(200):
            n = rng.randint(0, 12)
            a1 = random_annotated_sequence(rng, n, "ab", StructureLevel.CROSSING)
            a2 = random_annotated_sequence(rng, n, "ab", StructureLevel.CROSSING)
            results = [lcs_dp(a1.seq, a2.seq), exact_search(a1, a2, FRAG1)]
            try:
                results.append(diagonal_conflict_solve(a1, a2))
            except CapabilityError:
                pass
            for result in results:
                w = result.witness
                checked = Mapping(list(w.pairs)[::-1])
                assert w == checked and repr(w) == repr(checked)
                assert isinstance(w.pairs, tuple) and len(w) == result.length
