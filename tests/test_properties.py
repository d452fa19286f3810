"""Property tests: every solver lane against the brute-force oracles, and
the sequence-file parser against the line-by-line reference in oracles.py.

Pairs are drawn at each of the five structure levels, with lengths up to 7
over the alphabets "a" and "ab", so that the unpruned enumerations in
oracles.py stay fast. Runs are derandomized, so CI sees the same examples
every time.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcseq import (
    AnnotatedSequence,
    CapabilityError,
    FormatError,
    MatchConstraint,
    StructureLevel,
    classify_structure,
    diagonal_conflict_solve,
    exact_search,
    is_arc_preserving,
    lcs_dp,
    solve,
)

from arcseq.formats import parse_annotated_sequence

from oracles import (
    brute_identity_lapcs,
    brute_lapcs,
    brute_lexmin_lcs,
    line_loop_parse_annotated_sequence,
)

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


def _parsed(parse, text):
    """What parse makes of text: the sequence, its arcs in iteration order
    (the conflict lane names the first vertex it declines at in that order),
    or the FormatError's message and line."""
    try:
        a = parse(text)
    except FormatError as exc:
        return "error", str(exc), exc.line
    return a, type(a.arcs), list(a.arcs)


# Line breaks str.splitlines honours, and arc tokens the line loop reads in
# its own way: signs, leading zeros, underscores, non-ASCII digits, a number
# past int()'s default digit limit.
LINE_BREAKS = ("\n", "\n", "\n", "\r\n", "\r", "\v", "\x85", "\u2028")
ODD_TOKENS = ("0", "01", "007", "+1", "-1", "1_0", "\u0661", "1\u0662", "x", "9" * 30, "9" * 5000)


@st.composite
def sequence_texts(draw):
    """A sequence file: mostly canonical arc lines, with some lines drawn
    from everything else the grammar (or its violations) allows."""
    n = draw(st.integers(0, 12))
    seq = draw(st.text("acgu#1 ", min_size=n, max_size=n))
    if draw(st.integers(0, 9)) == 0:
        cut = draw(st.integers(0, n))
        seq = seq[:cut] + draw(st.sampled_from(LINE_BREAKS[3:] + ("\x0c", "\x1c"))) + seq[cut:]
    number = st.integers(1, n + 1).map(str) | st.sampled_from(ODD_TOKENS)
    canonical = st.integers(1, max(n, 2)).flatmap(
        lambda i: st.integers(i + 1, max(n, 2) + 1).map(lambda j: f"{i} {j}")
    )
    line = st.one_of(
        canonical,
        canonical,
        canonical,
        st.tuples(number, number).map(" ".join),
        st.tuples(st.sampled_from(("", " ", "\t")), number, st.sampled_from((" ", "  ", "\t")), number)
        .map("".join),
        st.lists(number, min_size=1, max_size=3).map(" ".join),
        st.sampled_from(("", "  ", "# a comment", "  # 1 2")),
    )
    lines = draw(st.lists(line, max_size=8))
    breaks = draw(st.lists(st.sampled_from(LINE_BREAKS), min_size=len(lines) + 1, max_size=len(lines) + 1))
    text = seq + "".join(b + ln for b, ln in zip(breaks, lines))
    return text + breaks[-1] if draw(st.booleans()) else text


@settings(PROPERTY, max_examples=600)
@given(sequence_texts())
def test_parser_equals_the_line_loop(text):
    assert _parsed(parse_annotated_sequence, text) == _parsed(line_loop_parse_annotated_sequence, text)


@pytest.mark.parametrize(
    "text",
    [
        "acgu\n1 3\n2 4\n",  # canonical
        "acgu\n",
        "\n",
        "\n1 2\n",
        "acgu\n\n# a comment\n1 3\n\n2 4\n",  # comments and blank lines
        "acgu\r\n1 3\r\n2 4\r\n",
        "acgu\r1 3\r2 4\r",
        "acgu\r\n1 3\n",
        "ac\vgu\n1 2\n",  # line breaks inside line 1
        "ac\x85gu\n1 2\n",
        "ac\u2028gu\n1 2\n",
        "acgu\n1 3\n2 4",  # no final newline
        "acgu",
        "",
        "acgu\n3 1\n",  # reversed, duplicate and self arcs
        "acgu\n1 3\n3 1\n1 3\n",
        "acgu\n2 2\n",
        "acgu\n1 5\n",  # out-of-range endpoints
        "acgu\n0 2\n",
        "acgu\n1 " + "9" * 30 + "\n",
        "acgu\n1 " + "9" * 5000 + "\n",
        "acgu\n1 2 3\n4\n",  # three tokens, then one
        "acgu\n01 3\n",  # leading zeros, signs, Arabic-Indic digits
        "acgu\n+1 3\n",
        "acgu\n-1 3\n",
        "acgu\n\u0661 \u0663\n",
        "acgu\n1  3\n",
        "acgu\n 1 3\n",
        "acgu\n1\t3\n",
    ],
)
def test_parser_equals_the_line_loop_on_listed_texts(text):
    assert _parsed(parse_annotated_sequence, text) == _parsed(line_loop_parse_annotated_sequence, text)


@pytest.mark.parametrize("count", [100, 1000, 3000])
def test_parser_keeps_the_line_loops_arc_order_on_long_files(count):
    # The frozenset's iteration order depends on how it was filled, not only
    # on its members; at these sizes filling it straight from the pairs
    # gives another order than the line loop's set and copy.
    rng = random.Random(count)
    ends = rng.sample(range(1, 4 * count + 1), 2 * count)
    arcs = sorted((min(ends[k:k + 2]), max(ends[k:k + 2])) for k in range(0, 2 * count, 2))
    text = "a" * 4 * count + "\n" + "".join(f"{i} {j}\n" for i, j in arcs)
    assert _parsed(parse_annotated_sequence, text) == _parsed(line_loop_parse_annotated_sequence, text)
