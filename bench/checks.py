"""Reference computations the benchmark checks arcseq's outputs against.

Nothing here imports arcseq: each function recomputes an expected value
from first principles (brute-force enumeration, a plain DP, a closed form,
or the documented construction), so agreement with the program means
something.
"""

from __future__ import annotations

import random


def edge_universe(n: int) -> list[tuple[int, int]]:
    """All edges of an n-vertex graph in lexicographic order."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def edges_from_mask(n: int, mask: int) -> list[tuple[int, int]]:
    return [e for b, e in enumerate(edge_universe(n)) if mask >> b & 1]


def gnp_draws(seed: int, n: int, count: int, p: float) -> list[list[tuple[int, int]]]:
    """Edge lists of `count` G(n, p) draws from one Random(seed) stream.

    Each draw tests the edges of the lexicographic universe in order, one
    random() per edge, which is how a seeded random sweep is documented to
    draw its graphs.
    """
    rng = random.Random(seed)
    return [[e for e in edge_universe(n) if rng.random() < p] for _ in range(count)]


def independence_number(n: int, edges) -> int:
    """alpha(G) by enumerating every vertex subset."""
    adj = [0] * n
    for i, j in edges:
        adj[i - 1] |= 1 << (j - 1)
        adj[j - 1] |= 1 << (i - 1)
    best = 0
    for subset in range(1 << n):
        size = subset.bit_count()
        if size <= best:
            continue
        if all(not (subset >> v & 1 and adj[v] & subset) for v in range(n)):
            best = size
    return best


def is_connected(n: int, edges) -> bool:
    if n <= 1:
        return True
    adj = {v: set() for v in range(1, n + 1)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    seen, stack = {1}, [1]
    while stack:
        for u in adj[stack.pop()] - seen:
            seen.add(u)
            stack.append(u)
    return len(seen) == n


def lcs_length(s1: str, s2: str) -> int:
    """Plain LCS length with a two-row DP."""
    prev = [0] * (len(s2) + 1)
    for ch in s1:
        cur = [0]
        for j, ch2 in enumerate(s2, start=1):
            cur.append(prev[j - 1] + 1 if ch == ch2 else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def allows(kind: str, c: int | None, i: int, j: int) -> bool:
    """The documented match constraints: fragment(c) blocks, diagonal(c) band."""
    if kind == "fragment":
        return (i - 1) // c == (j - 1) // c
    if kind == "diagonal":
        return abs(i - j) <= c
    return True


def lexmin_lapcs(s1: str, arcs1, s2: str, arcs2, kind: str, c: int | None):
    """Lexicographically smallest optimal arc-preserving mapping, unpruned.

    Depth-first over candidate pairs in lexicographic order visits mappings
    in lexicographic order, so the first mapping of the final best length
    is the smallest one.
    """
    pairs = [
        (i, j)
        for i in range(1, len(s1) + 1)
        for j in range(1, len(s2) + 1)
        if s1[i - 1] == s2[j - 1] and allows(kind, c, i, j)
    ]
    best: list[tuple[int, int]] = []
    cur: list[tuple[int, int]] = []

    def extend(start: int) -> None:
        nonlocal best
        if len(cur) > len(best):
            best = list(cur)
        for t in range(start, len(pairs)):
            i, j = pairs[t]
            if cur and (i <= cur[-1][0] or j <= cur[-1][1]):
                continue
            if all(((pi, i) in arcs1) == ((pj, j) in arcs2) for pi, pj in cur):
                cur.append((i, j))
                extend(t + 1)
                cur.pop()

    extend(0)
    return best


def identity_optimum(s1: str, arcs1, s2: str, arcs2) -> tuple[int, set, dict]:
    """Identity-constrained optimum when every conflict degree is <= 2.

    Candidates are positions with equal letters; two candidates conflict
    when exactly one side joins them by an arc. Each component is then a
    path (alpha = ceil(k/2)) or a cycle (alpha = floor(k/2)).

    Returns (optimum, candidates, conflict adjacency).
    """
    cands = {p for p in range(1, len(s1) + 1) if s1[p - 1] == s2[p - 1]}
    adj: dict[int, set[int]] = {p: set() for p in cands}
    for p, q in set(arcs1) ^ set(arcs2):
        if p in cands and q in cands:
            adj[p].add(q)
            adj[q].add(p)
    if any(len(nb) > 2 for nb in adj.values()):
        raise ValueError("conflict degree above 2: no closed form")
    total, seen = 0, set()
    for v in cands:
        if v in seen:
            continue
        comp, stack = {v}, [v]
        while stack:
            for u in adj[stack.pop()] - comp:
                comp.add(u)
                stack.append(u)
        seen |= comp
        edges = sum(len(adj[u]) for u in comp) // 2
        k = len(comp)
        total += k // 2 if edges == k and k >= 3 else (k + 1) // 2
    return total, cands, adj


def sequence_text(seq: str, arcs) -> str:
    """Canonical annotated-sequence file: the sequence, then sorted arcs."""
    return "\n".join([seq] + [f"{i} {j}" for i, j in sorted(arcs)]) + "\n"


def graph_text(n: int, edges) -> str:
    return "\n".join([f"p edge {n} {len(edges)}"] + [f"e {i} {j}" for i, j in sorted(edges)]) + "\n"


def reduction_texts(theorem: int, n: int, edges, k: int) -> tuple[str, str, int]:
    """Files and threshold of the documented reductions, built independently.

    Theorem 1: a^n twice, the edges as S1 arcs, threshold k. Theorem 2:
    (b a^n b)^n twice with bracket arcs on both sides and one S1 arc per
    edge, threshold k(n+2); for k > n both sides degenerate to "a".
    """
    if theorem == 1:
        seq = "a" * n
        return sequence_text(seq, edges), sequence_text(seq, ()), k
    if k > n:
        return "a\n", "a\n", k
    width = n + 2
    seq = ("b" + "a" * n + "b") * n
    brackets = [((i - 1) * width + 1, i * width) for i in range(1, n + 1)]
    edge_arcs = []
    for i, j in edges:
        alpha, beta = (i - 1) * width + j + 1, (j - 1) * width + i + 1
        edge_arcs.append((min(alpha, beta), max(alpha, beta)))
    return sequence_text(seq, brackets + edge_arcs), sequence_text(seq, brackets), k * width


def parse_solve_output(text: str) -> tuple[int, list[tuple[int, int]]]:
    """`arcseq solve` prints the length, then one "i j" line per pair."""
    lines = text.splitlines()
    length = int(lines[0])
    pairs = [tuple(int(x) for x in line.split()) for line in lines[1:]]
    if any(len(p) != 2 for p in pairs):
        raise ValueError("malformed pair line")
    return length, pairs
