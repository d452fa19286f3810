"""From a graph to a sequence instance and back.

Both reductions encode independent-set questions as identity-constrained
subsequence questions. The single-letter one is exact in both directions:
the optimum IS the independence number. The two-letter blocked one
guarantees the forward direction (a size-k independent set yields a
threshold-reaching subsequence); whether the converse holds is measured,
not assumed, and the triangle already refutes it.
"""

from arcseq import (
    Graph,
    Mapping,
    check_equivalence,
    extract_independent_set,
    max_independent_set,
    reduce_theorem1,
    reduce_theorem2,
    solve,
)
from arcseq.reductions import GraphOracles

triangle = Graph(3, {(1, 2), (1, 3), (2, 3)})
size, witness = max_independent_set(triangle)
print(f"triangle: max independent set = {size}, witness {set(witness)}")

# Single-letter construction: arcs are literally the edge set.
inst = reduce_theorem1(triangle, 1)
print()
print(f"single-letter instance: S1=S2={inst.a1.seq!r}, P1={sorted(inst.a1.arcs)}, P2={{}}")
r = solve(inst.a1, inst.a2, inst.mc)
print(f"optimum {r.length} == independence number {size}")
back = extract_independent_set(inst, r.witness)
print(f"extracted vertex set: {set(back)}")

# Blocked construction: one width-5 block per vertex, bracket arcs on both
# sides, one extra arc per edge on the first side only.
inst2 = reduce_theorem2(triangle, 1)
print()
print(f"blocked instance: S1=S2={inst2.a1.seq!r}")
print(f"  brackets (both sides):  {sorted(inst2.a2.arcs)}")
print(f"  edge arcs (first side): {sorted(inst2.a1.arcs - inst2.a2.arcs)}")
print(f"  threshold: {inst2.threshold}")

r2 = solve(inst2.a1, inst2.a2, inst2.mc)
blocks = extract_independent_set(inst2, r2.witness)
print(f"optimum {r2.length}; fully matched blocks: {set(blocks)}")

# Measured equivalence per (graph, k): the forward direction holds, the
# backward direction fails already at k=2.
print()
# The triangle's oracles, bound to T2, are built once and read by each row.
print("graph_id  k  is>=k  lapcs  thr  forward  backward")
oracles = GraphOracles(triangle, "T2")
for k in (1, 2, 3):
    row = check_equivalence(oracles, k)
    print(
        f"{row.graph_id:8s}  {row.k}  {str(row.is_answer):5s}  "
        f"{row.lapcs_len:5d}  {row.threshold:3d}  {str(row.forward_ok):7s}  "
        f"{row.backward_ok}"
    )
