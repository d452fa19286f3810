"""Instance generators: exhaustive and random graphs, random annotated sequences.

Everything is driven by an explicit random.Random so that identical seeds
reproduce identical instances.
"""

from __future__ import annotations

from collections.abc import Iterator

from .core import AnnotatedSequence, Arc, StructureLevel
from .errors import ValidationError
from .reductions import Graph, _canonical_graph, _check_vertex_count, edge_universe

__all__ = [
    "exhaustive_graphs",
    "random_graph",
    "random_arcs",
    "random_annotated_sequence",
]


def exhaustive_graphs(n: int) -> Iterator[tuple[int, Graph]]:
    """All 2^(n(n-1)/2) labeled simple graphs on n vertices, mask ascending.

    Yields (mask, graph) pairs; the mask indexes the lexicographic edge
    universe and doubles as a stable graph identifier.

    Raises:
        ValidationError: n is not an int, or n < 0 (when iteration starts).
    """
    bits = len(edge_universe(n))
    for mask in range(1 << bits):
        yield mask, Graph.from_mask(n, mask)


def _is_probability(p) -> bool:
    """True for an int or a float within [0, 1]. A bool is not one here, and
    NaN is outside."""
    return isinstance(p, (int, float)) and not isinstance(p, bool) and 0 <= p <= 1


def random_graph(rng: random.Random, n: int, edge_probability: float) -> Graph:
    """One draw from the G(n, p) model, over the canonical edge universe.

    Raises:
        ValidationError: n is not an int, n < 0, or p is not an int or a
            float within [0, 1].
    """
    _check_vertex_count(n)
    if not _is_probability(edge_probability):
        raise ValidationError("edge probability must be within [0, 1]")
    return _canonical_graph(
        n, [e for e in edge_universe(n) if rng.random() < edge_probability]
    )


def _arcs_chain(rng: random.Random, n: int, density: float) -> set[Arc]:
    arcs: set[Arc] = set()
    pos = 1
    while pos < n:
        if rng.random() < density:
            end = rng.randint(pos + 1, n)
            arcs.add((pos, end))
            pos = end + 1
        else:
            pos += 1
    return arcs


def _arcs_nested(rng: random.Random, n: int, density: float) -> set[Arc]:
    # Stack pairing yields properly nested or sequential arcs, never
    # crossing or endpoint-sharing ones.
    arcs: set[Arc] = set()
    stack: list[int] = []
    for pos in range(1, n + 1):
        r = rng.random()
        if r < density:
            stack.append(pos)
        elif r < 2 * density and stack:
            arcs.add((stack.pop(), pos))
    return arcs


def _arcs_crossing(rng: random.Random, n: int, density: float) -> set[Arc]:
    # A random partial matching on positions: each endpoint used at most once.
    positions = list(range(1, n + 1))
    rng.shuffle(positions)
    arcs: set[Arc] = set()
    for a, b in zip(positions[0::2], positions[1::2]):
        if rng.random() < 2 * density:
            arcs.add((min(a, b), max(a, b)))
    return arcs


def _arcs_unlimited(rng: random.Random, n: int, density: float) -> set[Arc]:
    arcs: set[Arc] = set()
    attempts = max(1, int(density * n))
    for _ in range(attempts):
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        arcs.add((i, j))
    return arcs


_ARC_SAMPLERS = {
    StructureLevel.PLAIN: lambda rng, n, density: set(),
    StructureLevel.CHAIN: _arcs_chain,
    StructureLevel.NESTED: _arcs_nested,
    StructureLevel.CROSSING: _arcs_crossing,
    StructureLevel.UNLIMITED: _arcs_unlimited,
}


def random_arcs(
    rng: random.Random, n: int, level: StructureLevel, density: float = 0.3
) -> set[Arc]:
    """Random arc set classifying at `level` or stricter.

    Each level's sampler respects that level's restrictions by construction
    but may produce a stricter set (e.g. an empty one).
    """
    if n < 2:
        return set()
    return _ARC_SAMPLERS[level](rng, n, density)


def random_annotated_sequence(
    rng: random.Random,
    length: int,
    alphabet: str = "ab",
    level: StructureLevel = StructureLevel.UNLIMITED,
    density: float = 0.3,
) -> AnnotatedSequence:
    seq = "".join(rng.choice(alphabet) for _ in range(length))
    return AnnotatedSequence(seq, frozenset(random_arcs(rng, length, level, density)))
