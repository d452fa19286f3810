"""The three exact solvers and when each applies.

Plain LCS handles arc-free unconstrained instances. Identity-constrained
instances (fragment width 1 / diagonal width 0) reduce to independent set
on a conflict graph and are solved directly when conflicts have degree at
most 2. The pruned exhaustive search covers everything else at small scale,
and doubles as the oracle the faster routes are tested against.
"""

from arcseq import (
    AnnotatedSequence,
    MatchConstraint,
    build_conflict_graph,
    diagonal_conflict_solve,
    exact_search,
    lcs_dp,
    solve,
)

# Classic LCS with a deterministic witness.
r = lcs_dp("abcbdab", "bdcaba")
print(f"lcs('abcbdab', 'bdcaba') = {r.length}")
print(f"  witness pairs: {list(r.witness.pairs)}")

# Arcs change the game: matching both endpoints of a one-sided arc is illegal.
a1 = AnnotatedSequence("baabbaab", {(1, 4), (5, 8), (3, 6)})
a2 = AnnotatedSequence("baabbaab", {(1, 4), (5, 8)})
print()
print(f"S1 = S2 = {a1.seq}")
print(f"P1 = {sorted(a1.arcs)}")
print(f"P2 = {sorted(a2.arcs)}")

conflict = build_conflict_graph(a1, a2)
print(f"identity candidates: {list(conflict)}")
edges = sorted((p, q) for p, nbrs in conflict.items() for q in nbrs if p < q)
print(f"conflict edges (arcs on one side only): {edges}")

r = diagonal_conflict_solve(a1, a2)
print(f"identity-constrained optimum: {r.length} of {len(a1)} positions")
print(f"  kept: {[i for i, _ in r.witness.pairs]}  (one endpoint per conflict dropped)")

# The exhaustive search agrees, including on the witness.
x = exact_search(a1, a2, MatchConstraint.fragment(1))
assert (x.length, x.witness.pairs) == (r.length, r.witness.pairs)
print("exhaustive search agrees with the conflict-graph solver")

# Unconstrained matching may shift positions; diagonal bands interpolate
# between forced identity and full freedom.
b1 = AnnotatedSequence("abab")
b2 = AnnotatedSequence("baba")
print()
print(f"band width sweep on {b1.seq!r} vs {b2.seq!r} (offset by one):")
for c in range(0, 3):
    s = solve(b1, b2, MatchConstraint.diagonal(c))
    print(f"  diagonal({c}): {s.length}")
u = solve(b1, b2, MatchConstraint.unconstrained())
print(f"  unconstrained: {u.length}  via {u.stats['solver']}")
