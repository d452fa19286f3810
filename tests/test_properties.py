"""Property tests: every solver lane against the brute-force oracles.

Pairs are drawn at each of the five structure levels, with lengths up to 7
over the alphabets "a" and "ab", so that the unpruned enumerations in
oracles.py stay fast. Runs are derandomized, so CI sees the same examples
every time.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from arcseq import (
    AnnotatedSequence,
    CapabilityError,
    MatchConstraint,
    StructureLevel,
    classify_structure,
    diagonal_conflict_solve,
    exact_search,
    is_arc_preserving,
    lcs_dp,
    solve,
)

from oracles import brute_identity_lapcs, brute_lapcs, brute_lexmin_lcs

MAX_LENGTH = 7
ALPHABETS = ("a", "ab")
CONSTRAINTS = (
    MatchConstraint.unconstrained(),
    MatchConstraint.fragment(1),
    MatchConstraint.fragment(2),
    MatchConstraint.diagonal(0),
    MatchConstraint.diagonal(1),
)
PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)


def _annotated(draw, level: StructureLevel, alphabet: str, n: int) -> AnnotatedSequence:
    """A sequence of length n whose arcs stay within level.

    Candidate arcs pair up a drawn permutation of the positions, so no two
    share an endpoint; at the unlimited level they are drawn freely instead.
    Each candidate is kept when the arcs kept so far plus it still classify
    at level or stricter.
    """
    seq = draw(st.text(alphabet, min_size=n, max_size=n))
    if n < 2:
        return AnnotatedSequence(seq)
    if level is StructureLevel.UNLIMITED:
        ends = st.tuples(st.integers(1, n), st.integers(1, n))
        candidates = draw(st.lists(ends, min_size=1, max_size=2 * n))
    else:
        order = draw(st.permutations(range(1, n + 1)))
        candidates = zip(order[0::2], order[1::2])
    arcs: set[tuple[int, int]] = set()
    for x, y in candidates:
        arc = (min(x, y), max(x, y))
        if x != y and classify_structure(arcs | {arc}, n).is_within(level):
            arcs.add(arc)
    return AnnotatedSequence(seq, arcs)


@st.composite
def pairs(draw, same_length: bool = False):
    level = draw(st.sampled_from(StructureLevel))
    alphabet = draw(st.sampled_from(ALPHABETS))
    n1 = draw(st.integers(0, MAX_LENGTH))
    n2 = n1 if same_length else draw(st.integers(0, MAX_LENGTH))
    return _annotated(draw, level, alphabet, n1), _annotated(draw, level, alphabet, n2)


# Twice the examples: they spread over five levels and five constraints.
@settings(PROPERTY, max_examples=300)
@given(pairs(), st.sampled_from(CONSTRAINTS))
def test_solve_and_exact_search_equal_brute_force(pair, mc):
    a1, a2 = pair
    routed = solve(a1, a2, mc)
    searched = exact_search(a1, a2, mc)
    assert routed.length == searched.length == brute_lapcs(a1, a2, mc)
    assert routed.witness == searched.witness
    assert is_arc_preserving(routed.witness, a1, a2)
    assert all(mc.allows(i, j) for i, j in routed.witness.pairs)


@PROPERTY
@given(pairs(same_length=True))
def test_conflict_lane_equals_brute_force_when_it_applies(pair):
    a1, a2 = pair
    try:
        result = diagonal_conflict_solve(a1, a2)
    except CapabilityError:
        return
    assert result.length == brute_identity_lapcs(a1, a2)
    assert result.witness == exact_search(a1, a2, MatchConstraint.fragment(1)).witness


@PROPERTY
@given(
    st.sampled_from(ALPHABETS).flatmap(
        lambda alphabet: st.tuples(*[st.text(alphabet, max_size=MAX_LENGTH)] * 2)
    )
)
def test_lcs_dp_equals_brute_lexmin_lcs(pair):
    s1, s2 = pair
    result = lcs_dp(s1, s2)
    assert (result.length, result.witness.pairs) == brute_lexmin_lcs(s1, s2)
