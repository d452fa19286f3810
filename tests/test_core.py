"""Data model: canonicalization, classification, arc preservation, constraints."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcseq import (
    AnnotatedSequence,
    Mapping,
    MatchConstraint,
    StructureLevel,
    ValidationError,
    classify_structure,
    is_arc_preserving,
    validate_mapping,
)
from arcseq.core import _trusted
from arcseq.generate import random_arcs

from oracles import oracle_level, pairwise_arc_preserving


class TestAnnotatedSequence:
    def test_arcs_canonicalized(self):
        a = AnnotatedSequence("abcdef", {(4, 1), (1, 4), (2, 5)})
        assert a.arcs == frozenset({(1, 4), (2, 5)})

    def test_self_pair_rejected(self):
        with pytest.raises(ValidationError):
            AnnotatedSequence("abc", {(2, 2)})

    def test_endpoint_out_of_range(self):
        with pytest.raises(ValidationError):
            AnnotatedSequence("abc", {(1, 4)})
        with pytest.raises(ValidationError):
            AnnotatedSequence("abc", {(0, 2)})

    @pytest.mark.parametrize("arc", [(1.0, 2.0), (True, 2), (1, 2.0), ("1", 2)])
    def test_non_integer_endpoint_rejected(self, arc):
        # A float or a bool would be written as "1.0" or "True", which the
        # parser rejects, so write -> parse would not round-trip.
        with pytest.raises(ValidationError, match="non-integer endpoint"):
            AnnotatedSequence("ab", {arc})
        with pytest.raises(ValidationError, match="non-integer endpoint"):
            classify_structure([arc], 2)

    def test_empty_sequence_has_no_arcs(self):
        assert AnnotatedSequence("").arcs == frozenset()
        with pytest.raises(ValidationError):
            AnnotatedSequence("", {(1, 2)})

    def test_positions_are_one_based(self):
        a = AnnotatedSequence("xyz")
        assert a.base(1) == "x" and a.base(3) == "z"


class TestClassifyStructure:
    def test_empty_is_plain(self):
        assert classify_structure(set(), 5) is StructureLevel.PLAIN

    def test_sequential_arcs_are_chain(self):
        assert classify_structure({(1, 4), (5, 8)}, 8) is StructureLevel.CHAIN

    def test_crossing_arcs(self):
        assert classify_structure({(1, 3), (2, 4)}, 4) is StructureLevel.CROSSING

    def test_shared_endpoint_is_unlimited(self):
        assert classify_structure({(1, 3), (1, 4)}, 4) is StructureLevel.UNLIMITED

    def test_nested_arcs(self):
        assert classify_structure({(1, 4), (2, 3)}, 4) is StructureLevel.NESTED

    def test_endpoint_past_length_rejected(self):
        with pytest.raises(ValidationError):
            classify_structure({(1, 9)}, 8)

    def test_shared_endpoint_chain_like_still_unlimited(self):
        # (1,3),(3,5) fails endpoint sharing even though it never nests.
        assert classify_structure({(1, 3), (3, 5)}, 5) is StructureLevel.UNLIMITED

    def test_endpoint_disjoint_arcs_match_quantifier_oracle(self):
        rng = random.Random(61)
        seen = set()
        for _ in range(300):
            n = rng.randint(2, 30)
            level = rng.choice((StructureLevel.NESTED, StructureLevel.CROSSING))
            arcs = random_arcs(rng, n, level, rng.uniform(0.1, 0.5))
            free = sorted(set(range(1, n + 1)) - {p for arc in arcs for p in arc})
            if len(free) >= 2 and rng.random() < 0.5:
                arcs.add(tuple(sorted(rng.sample(free, 2))))
            got = classify_structure(arcs, n)
            assert got is oracle_level(arcs)
            seen.add(got)
        assert seen >= {StructureLevel.CHAIN, StructureLevel.NESTED, StructureLevel.CROSSING}

    def test_crossing_pair_after_many_nested_arcs(self):
        arcs = set()
        for base in range(0, 8000, 8):
            arcs |= {(base + 1, base + 8), (base + 2, base + 5), (base + 3, base + 4),
                     (base + 6, base + 7)}
        assert len(arcs) == 4000
        assert classify_structure(arcs, 8004) is StructureLevel.NESTED
        arcs |= {(8001, 8003), (8002, 8004)}
        assert classify_structure(arcs, 8004) is StructureLevel.CROSSING

    def test_level_ordering(self):
        assert StructureLevel.PLAIN.is_within(StructureLevel.CHAIN)
        assert StructureLevel.CHAIN.is_within(StructureLevel.CROSSING)
        assert not StructureLevel.UNLIMITED.is_within(StructureLevel.NESTED)
        assert str(StructureLevel.NESTED) == "nested"


@st.composite
def arc_sets(draw, max_n=12, max_arcs=8):
    n = draw(st.integers(min_value=2, max_value=max_n))
    k = draw(st.integers(min_value=0, max_value=max_arcs))
    arcs = set()
    for _ in range(k):
        i = draw(st.integers(min_value=1, max_value=n - 1))
        j = draw(st.integers(min_value=i + 1, max_value=n))
        arcs.add((i, j))
    return n, arcs


@given(arc_sets())
@settings(max_examples=200)
def test_classifier_matches_quantifier_oracle(case):
    n, arcs = case
    assert classify_structure(arcs, n) is oracle_level(arcs)


@given(arc_sets(), st.data())
@settings(max_examples=200)
def test_classifier_monotone_under_arc_removal(case, data):
    n, arcs = case
    keep = data.draw(st.sets(st.sampled_from(sorted(arcs))) if arcs else st.just(set()))
    level_full = classify_structure(arcs, n)
    level_sub = classify_structure(keep, n)
    assert level_sub.is_within(level_full)


class TestMapping:
    def test_pairs_sorted_on_construction(self):
        m = Mapping(((3, 4), (1, 2)))
        assert m.pairs == ((1, 2), (3, 4))

    def test_non_increasing_rejected(self):
        with pytest.raises(ValidationError):
            Mapping(((1, 3), (2, 2)))
        with pytest.raises(ValidationError):
            Mapping(((1, 2), (1, 3)))
        with pytest.raises(ValidationError):
            Mapping(((2, 1), (3, 1)))

    def test_positions_must_be_positive(self):
        with pytest.raises(ValidationError):
            Mapping(((0, 1),))

    @pytest.mark.parametrize("pair", [(1.0, 1), (1, True), (2, 1.5)])
    def test_positions_must_be_integers(self, pair):
        with pytest.raises(ValidationError, match="non-integer position"):
            Mapping((pair,))

    def test_positions_are_checked_before_they_are_sorted(self):
        # Sorting "1" against 2 would raise TypeError.
        for pairs in ((("1", 1), (2, 2)), ((1, 1), (2, "2")), ((None, 1), (2, 2))):
            with pytest.raises(ValidationError, match="non-integer position"):
                Mapping(pairs)

    def test_identity_constructor(self):
        m = Mapping.identity([3, 1])
        assert m.pairs == ((1, 1), (3, 3))

    def test_letters_must_agree(self):
        a1 = AnnotatedSequence("ab")
        a2 = AnnotatedSequence("ba")
        with pytest.raises(ValidationError):
            validate_mapping(Mapping(((1, 1),)), a1, a2)
        validate_mapping(Mapping(((1, 2),)), a1, a2)

    def test_out_of_range_pair(self):
        a = AnnotatedSequence("ab")
        with pytest.raises(ValidationError):
            validate_mapping(Mapping(((3, 3),)), a, a)


class TestIsArcPreserving:
    def test_matching_arcs_preserved(self):
        a = AnnotatedSequence("aa", {(1, 2)})
        assert is_arc_preserving(Mapping.identity([1, 2]), a, a)

    def test_one_sided_arc_not_preserved(self):
        a1 = AnnotatedSequence("aa", {(1, 2)})
        a2 = AnnotatedSequence("aa")
        assert not is_arc_preserving(Mapping.identity([1, 2]), a1, a2)
        assert not is_arc_preserving(Mapping.identity([1, 2]), a2, a1)

    def test_empty_mapping_vacuously_preserving(self):
        a1 = AnnotatedSequence("aa", {(1, 2)})
        a2 = AnnotatedSequence("bb")
        assert is_arc_preserving(Mapping(()), a1, a2)

    def test_invalid_mapping_raises_not_false(self):
        a1 = AnnotatedSequence("ab", {(1, 2)})
        a2 = AnnotatedSequence("ba")
        with pytest.raises(ValidationError):
            is_arc_preserving(Mapping.identity([1]), a1, a2)


@st.composite
def mapped_instances(draw):
    """Two sequences plus a structurally valid, letter-agreeing mapping."""
    n1 = draw(st.integers(min_value=1, max_value=8))
    n2 = draw(st.integers(min_value=1, max_value=8))
    s1 = draw(st.text(alphabet="ab", min_size=n1, max_size=n1))
    s2 = list(draw(st.text(alphabet="ab", min_size=n2, max_size=n2)))
    k = draw(st.integers(min_value=0, max_value=min(n1, n2)))
    lhs = sorted(draw(st.permutations(range(1, n1 + 1)))[:k])
    rhs = sorted(draw(st.permutations(range(1, n2 + 1)))[:k])
    for i, j in zip(lhs, rhs):
        s2[j - 1] = s1[i - 1]
    arcs1 = draw(arc_sets(max_n=n1)) if n1 >= 2 else (n1, set())
    arcs2 = draw(arc_sets(max_n=n2)) if n2 >= 2 else (n2, set())
    a1 = AnnotatedSequence(s1, {(i, j) for i, j in arcs1[1] if j <= n1})
    a2 = AnnotatedSequence("".join(s2), {(i, j) for i, j in arcs2[1] if j <= n2})
    return a1, a2, Mapping(tuple(zip(lhs, rhs)))


@given(mapped_instances())
@settings(max_examples=300)
def test_arc_preservation_matches_the_pairwise_rule(case):
    a1, a2, m = case
    assert is_arc_preserving(m, a1, a2) == pairwise_arc_preserving(m, a1, a2)


class CountingArcs(frozenset):
    """An arc set that counts the membership tests made on it."""

    tests = 0

    def __contains__(self, arc):
        self.tests += 1
        return frozenset.__contains__(self, arc)


def test_arc_preservation_tests_each_arc_once():
    # The pairwise rule made 159,600 tests here: two for each of the
    # 79,800 pairs of matched positions.
    # _trusted keeps the counting sets; __init__ would copy them into frozensets.
    arcs = {(p, 401 - p) for p in range(1, 104)}
    a1 = _trusted(AnnotatedSequence, seq="a" * 400, arcs=CountingArcs(arcs))
    a2 = _trusted(AnnotatedSequence, seq="a" * 400, arcs=CountingArcs(arcs))
    assert is_arc_preserving(Mapping.identity(range(1, 401)), a1, a2)
    assert a1.arcs.tests + a2.arcs.tests <= len(a1.arcs) + len(a2.arcs) == 206


@given(mapped_instances())
@settings(max_examples=150)
def test_arc_preservation_symmetric_under_swap_and_inverse(case):
    a1, a2, m = case
    inverse = Mapping(tuple((j, i) for i, j in m.pairs))
    assert is_arc_preserving(m, a1, a2) == is_arc_preserving(inverse, a2, a1)


@given(mapped_instances(), st.data())
@settings(max_examples=150)
def test_sub_mappings_of_preserving_mappings_preserve(case, data):
    a1, a2, m = case
    if not is_arc_preserving(m, a1, a2):
        return
    sub = data.draw(st.sets(st.sampled_from(m.pairs)) if m.pairs else st.just(set()))
    assert is_arc_preserving(Mapping(tuple(sub)), a1, a2)


class TestMatchConstraint:
    def test_fragment_one_forces_identity(self):
        mc = MatchConstraint.fragment(1)
        assert mc.allows(3, 3) and not mc.allows(3, 4)

    def test_diagonal_zero_forces_identity(self):
        mc = MatchConstraint.diagonal(0)
        assert mc.allows(5, 5) and not mc.allows(5, 6)

    def test_fragment_two_same_block(self):
        mc = MatchConstraint.fragment(2)
        assert mc.allows(3, 4)
        assert not mc.allows(2, 3)

    def test_unconstrained_allows_everything(self):
        mc = MatchConstraint.unconstrained()
        assert mc.allows(1, 99)

    def test_widths_validated(self):
        with pytest.raises(ValidationError):
            MatchConstraint.fragment(0)
        with pytest.raises(ValidationError):
            MatchConstraint.diagonal(-1)
        with pytest.raises(ValidationError):
            MatchConstraint("bogus")
        for make in (MatchConstraint.fragment, MatchConstraint.diagonal):
            for c in (True, 0.5, 2.0, "2"):
                with pytest.raises(ValidationError, match="must be an integer"):
                    make(c)

    @given(st.integers(1, 200), st.integers(1, 200))
    def test_identity_equivalence(self, i, j):
        frag = MatchConstraint.fragment(1).allows(i, j)
        diag = MatchConstraint.diagonal(0).allows(i, j)
        assert frag == diag == (i == j)
