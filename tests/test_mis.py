"""The bitset independent-set engine against the unpruned lexmin oracle and
against the search it replaced; the size-only engine against the unpruned
oracle and the bitset engine."""

import random
from itertools import compress, count

import pytest

from arcseq import (
    BudgetError,
    Graph,
    ValidationError,
    exact_search,
    max_independent_set,
    reduce_theorem1,
    reduce_theorem2,
    solve,
)
from arcseq.generate import exhaustive_graphs
from arcseq.mis import NeighborMasks, independence_number, lexmin_maximum_independent_set
from arcseq.solvers import _conflict_edges

from oracles import (
    adjacency,
    both_children_stacked_lexmin_mis,
    brute_lexmin_independent_set,
    brute_max_independent_set,
    masks_of_neighbour_sets,
    rank_table_masks,
)


def _mirrored(upper):
    """Upper-triangle masks, as rank_table_masks builds them, with each bit
    j of mask i copied to bit i of mask j: the whole neighbourhoods that
    NeighborMasks keeps."""
    full = list(upper)
    for i, mask in enumerate(upper):
        for j in range(i + 1, mask.bit_length()):
            full[j] |= (mask >> j & 1) << i
    return full


def _same_search(vertices, neighbors, masks):
    """The masks built from the edges and the masks converted from the
    neighbour sets hold the same bits and give the same search: the one that
    stacked both children, run on the vertices that have a neighbour, with
    every isolated vertex added to its size and witness. Same node count,
    and the same BudgetError one node short of that count."""
    converted = masks_of_neighbour_sets(vertices, neighbors)
    assert (converted.order, converted.masks, converted.touched) == (
        masks.order, masks.masks, masks.touched)
    by_masks = lexmin_maximum_independent_set(masks, masks)
    touched = [v for v in masks if masks[v]]
    isolated = [v for v in masks if not masks[v]]
    size, witness, nodes = both_children_stacked_lexmin_mis(touched, masks)
    assert by_masks == (size + len(isolated), tuple(sorted(witness + tuple(isolated))), nodes)
    assert lexmin_maximum_independent_set(converted, converted) == by_masks
    assert lexmin_maximum_independent_set(masks, masks, max_nodes=nodes) == by_masks
    errors = []
    for search, args in (
        (lexmin_maximum_independent_set, (masks, masks)),
        (lexmin_maximum_independent_set, (converted, converted)),
        (both_children_stacked_lexmin_mis, (touched, masks)),
    ):
        with pytest.raises(BudgetError) as info:
            search(*args, max_nodes=nodes - 1)
        errors.append(str(info.value))
    assert errors == [f"independent-set search exceeded {nodes - 1} nodes"] * 3
    return by_masks


def test_every_labelled_graph_up_to_n5():
    # The masks built from the edges, and the neighbour sets built from them,
    # give one graph and one search.
    for n in range(6):
        vertices = range(1, n + 1)
        for _, g in exhaustive_graphs(n):
            adj = adjacency(vertices, g.edges)
            masks = NeighborMasks(vertices, g.edges)
            assert dict(masks) == adj
            order, upper = rank_table_masks(vertices, adj)
            assert (list(masks.order), masks.masks) == (order, _mirrored(upper))
            size, witness, _ = _same_search(vertices, adj, masks)
            assert (size, witness) == brute_lexmin_independent_set(vertices, g.edges)


def test_seeded_graphs_with_sparse_labels_and_one_sided_neighbours():
    rng = random.Random(20111)
    for _ in range(150):
        n = rng.randint(0, 14)
        vertices = rng.sample(range(-20, 60), n)
        p = rng.choice((0.15, 0.35, 0.6))
        edges = [(u, v) for u in vertices for v in vertices if u < v and rng.random() < p]
        # Each edge listed under one endpoint only, plus self-loops and
        # neighbours outside the vertex set, which the engine must ignore.
        neighbors = {}
        for u, v in edges:
            a, b = (u, v) if rng.random() < 0.5 else (v, u)
            neighbors.setdefault(a, set()).add(b)
        for v in vertices[: n // 3]:
            neighbors.setdefault(v, set()).update({v, 1000 + v})
        masks = masks_of_neighbour_sets(vertices, neighbors)
        assert dict(masks) == adjacency(vertices, edges)
        size, witness, _ = lexmin_maximum_independent_set(masks, masks)
        assert (size, witness) == brute_lexmin_independent_set(vertices, edges)


def test_node_budget():
    vertices = range(1, 8)
    # Edges (1, 8) and (0, 3) reach outside the vertex set and are left out.
    edges = [(1, v) for v in range(2, 9)] + [(0, 3)]
    star = adjacency(vertices, edges)
    assert star == {1: set(range(2, 8)), **{v: {1} for v in range(2, 8)}}
    for masks in (NeighborMasks(vertices, edges), masks_of_neighbour_sets(vertices, star)):
        assert dict(masks) == star
        _, _, nodes = lexmin_maximum_independent_set(masks, masks)
        assert lexmin_maximum_independent_set(masks, masks, max_nodes=nodes)[0] == 6
        with pytest.raises(BudgetError, match="exceeded"):
            lexmin_maximum_independent_set(masks, masks, max_nodes=nodes - 1)


def test_the_engine_takes_one_neighbor_masks_only():
    # Neighbour sets, a label list beside masks, or two equal but distinct
    # masks are turned away at the door, before the search reads them.
    masks = NeighborMasks(range(1, 4), [(1, 2)])
    again = NeighborMasks(range(1, 4), [(1, 2)])
    assert lexmin_maximum_independent_set(masks, masks)[:2] == (2, (1, 3))
    for args in ((range(1, 4), dict(masks)), (dict(masks), dict(masks)), (list(masks), masks),
                 (masks, again), (masks, dict(masks))):
        with pytest.raises(ValidationError, match=r"takes \(masks, masks\)"):
            lexmin_maximum_independent_set(*args)


def _setup_case(vertices, edges, style):
    """Neighbour sets for edges in one of the listing styles that
    masks_of_neighbour_sets takes."""
    neighbors = {v: set() for v in vertices}
    for u, v in edges:
        if style == "one-sided":
            neighbors.setdefault(min(u, v), set()).add(max(u, v))
        else:
            neighbors[u].add(v)
            neighbors[v].add(u)
    if style == "outside":
        # Neighbours just below, just above and far from the vertex labels.
        low, high = min(vertices), max(vertices)
        for v in vertices:
            neighbors[v].update({low - 1, high + 1, low - 100, high + 10**6})
    if style == "self":
        for v in vertices:
            neighbors[v].add(v)
    return neighbors


@pytest.mark.parametrize("style", ["symmetric", "one-sided", "outside", "self"])
@pytest.mark.parametrize("labels", ["from 0", "from 5", "gaps"])
def test_contiguous_and_general_setup_against_the_oracle(labels, style):
    # Contiguous labels take the engine's offset set-up, gapped ones its
    # rank table; both must agree with the brute-force lexmin optimum.
    rng = random.Random(f"{labels}/{style}")
    for _ in range(60):
        n = rng.randint(1, 9)
        if labels == "gaps":
            vertices = sorted(rng.sample(range(-10, 30), n))
        else:
            start = 0 if labels == "from 0" else 5
            vertices = list(range(start, start + n))
        rng.shuffle(vertices)
        p = rng.choice((0.2, 0.5, 0.8))
        edges = [(u, v) for u in vertices for v in vertices if u < v and rng.random() < p]
        masks = masks_of_neighbour_sets(vertices, _setup_case(vertices, edges, style))
        assert dict(masks) == adjacency(vertices, edges)
        size, witness, _ = lexmin_maximum_independent_set(masks, masks)
        assert (size, witness) == brute_lexmin_independent_set(vertices, edges)



def test_masks_and_neighbour_sets_agree_on_seeded_sparse_labels():
    # Up to 20 labels, gapped or contiguous, each edge listed under one
    # endpoint only, plus loops and neighbours outside the vertex set.
    rng = random.Random(20112)
    for _ in range(200):
        n = rng.randint(0, 20)
        start = rng.randint(-5, 5)
        vertices = rng.choice([rng.sample(range(-30, 70), n), list(range(start, start + n))])
        p = rng.choice((0.15, 0.35, 0.6))
        edges = [(u, v) for u in vertices for v in vertices if u < v and rng.random() < p]
        neighbors = {}
        listed = []
        for u, v in edges:
            a, b = (u, v) if rng.random() < 0.5 else (v, u)
            neighbors.setdefault(a, set()).add(b)
            listed.append((a, b))
        for v in vertices[: n // 3]:
            neighbors.setdefault(v, set()).update({v, 1000 + v, -1000})
            listed += [(v, v), (v, 1000 + v), (-1000, v)]
        masks = NeighborMasks(vertices, listed)
        assert dict(masks) == adjacency(vertices, edges)
        order, upper = rank_table_masks(vertices, neighbors)
        assert (list(masks.order), masks.masks) == (order, _mirrored(upper))
        size, witness, _ = _same_search(vertices, neighbors, masks)
        if n <= 12:
            assert (size, witness) == brute_lexmin_independent_set(vertices, edges)


def test_neighbor_masks_is_a_read_only_mapping_of_full_neighbour_sets():
    masks = NeighborMasks([7, 3, 5, 3], [(5, 3), (3, 7), (9, 3), (5, 5)])
    assert list(masks) == [3, 5, 7] and len(masks) == 3
    assert masks.masks == [0b110, 0b001, 0b001] and masks.touched == 0b111
    assert masks[7] == {3} and masks[5] == {3} and masks[3] == {5, 7}
    assert masks.get(9, ()) == () and 4 not in masks
    with pytest.raises(KeyError):
        masks[9]
    assert dict(NeighborMasks((), [(1, 2)])) == {}


def test_same_search_on_every_6_vertex_graph_and_the_blocked_conflict_graphs():
    # Graphs up to 5 vertices and the seeded ones up to 20 go through
    # _same_search above; these add every labelled graph on 6 vertices and
    # the case-II conflict graphs of the two-letter reduction up to n = 5
    # (35 vertices at n = 5, whose conflict edges are the edge arcs).
    vertices = range(1, 7)
    for _, g in exhaustive_graphs(6):
        _same_search(vertices, adjacency(vertices, g.edges), NeighborMasks(vertices, g.edges))
    for n in range(1, 6):
        for _, g in exhaustive_graphs(n):
            inst = reduce_theorem2(g, 1)
            flags, arcs = _conflict_edges(inst.a1, inst.a2)
            candidates = list(compress(count(), flags))
            _same_search(candidates, adjacency(candidates, arcs), NeighborMasks(candidates, arcs))
            # The m edge arcs share no end. The root takes the other
            # n(n + 2) - 2m positions; the include-first path over the edges
            # is m + 1 nodes, and the clique cover prunes each of the m
            # exclude children at once.
            r = exact_search(inst.a1, inst.a2, inst.mc)
            assert (r.length, r.stats["nodes"]) == (n * (n + 2) - g.m, 2 * g.m + 1)


def test_same_search_on_graphs_of_mostly_isolated_vertices():
    # The root takes the isolated vertices and the search branches over the
    # rest. Edgeless, one-edge and half-matching graphs of 20 to 35 vertices
    # are mostly isolated vertices; the search must still be the one that
    # stacked both children, on the vertices that have a neighbour.
    rng = random.Random(20113)
    for n in (20, 27, 35):
        for vertices in (range(1, n + 1), sorted(rng.sample(range(-40, 80), n))):
            shuffled = rng.sample(list(vertices), n)
            half = list(zip(shuffled[0 : n // 2 : 2], shuffled[1 : n // 2 : 2]))
            for edges in ([], [tuple(shuffled[:2])], half):
                masks = NeighborMasks(vertices, edges)
                assert masks.touched.bit_count() == 2 * len(edges)
                size, _, nodes = _same_search(vertices, adjacency(vertices, edges), masks)
                assert (size, nodes) == (n - len(edges), 2 * len(edges) + 1)


def test_t2_conflict_graphs_keep_their_optimum_under_relabelling():
    # The 35-vertex case-II conflict graphs at n = 5 are over
    # max_independent_set's 20-vertex cap and out of the brute-force
    # oracle's reach, so the two engines are called directly and check each
    # other, and the closed form n(n + 2) - m. Each engine prunes in label
    # order, so each graph is also relabelled by a seeded permutation.
    rng = random.Random(20115)
    length = 5 * 7
    for _, g in rng.sample(list(exhaustive_graphs(5)), 200):
        inst = reduce_theorem2(g, 1)
        flags, arcs = _conflict_edges(inst.a1, inst.a2)
        assert flags == bytes([0] + [1] * length)
        perm = [0, *rng.sample(range(1, length + 1), length)]
        for edges in (arcs, [(perm[p], perm[q]) for p, q in arcs]):
            masks = NeighborMasks(range(1, length + 1), edges)
            size = lexmin_maximum_independent_set(masks, masks)[0]
            assert independence_number(length, edges) == size == length - g.m


def test_independence_number_on_every_labelled_graph_up_to_n6():
    for n in range(7):
        for _, g in exhaustive_graphs(n):
            assert independence_number(n, g.edges) == brute_max_independent_set(n, g.edges)


def test_independence_number_on_seeded_graphs_up_to_the_cap():
    # Up to the sweep's 20-vertex cap, p from 0.05 to 0.9, each edge listed
    # either way round and some twice. The unpruned oracle tries 2^n
    # subsets, so it checks the graphs up to 16 vertices (about 0.3 s in
    # all); the bitset engine, another algorithm, checks them all. Above 16
    # vertices the engines check only each other, and each prunes in label
    # order, so each such graph is also relabelled by a seeded permutation:
    # alpha, max_independent_set's size and the T1 optimum must hold on both
    # labellings, and the lexmin search must take another path on some.
    rng = random.Random(20114)
    cases = []
    for _ in range(200):
        n = rng.randint(0, 20)
        p = rng.choice((0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9))
        cases.append((n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                          if rng.random() < p]))
    # Edgeless, complete, and the circulant C20(1, 2), the slowest graph
    # at the cap that was found.
    cases += [(20, []), (20, [(u, v) for u in range(1, 21) for v in range(u + 1, 21)]),
              (20, [(v, (v + d - 1) % 20 + 1) for v in range(1, 21) for d in (1, 2)])]
    relabel = random.Random(1720)
    paths = set()
    for n, edges in cases:
        listed = [e if rng.random() < 0.5 else e[::-1] for e in edges] + edges[::4]
        alpha = independence_number(n, listed)
        masks = NeighborMasks(range(1, n + 1), edges)
        assert alpha == lexmin_maximum_independent_set(masks, masks)[0]
        if n <= 16:
            assert alpha == brute_max_independent_set(n, edges)
            continue
        perm = relabel.sample(range(1, n + 1), n)
        nodes = []
        for g in (Graph(n, edges), Graph(n, [(perm[u - 1], perm[v - 1]) for u, v in edges])):
            inst = reduce_theorem1(g, 1)
            assert independence_number(n, g.edges) == alpha
            assert max_independent_set(g).size == alpha
            assert solve(inst.a1, inst.a2, inst.mc).length == alpha
            masks = NeighborMasks(range(1, n + 1), g.edges)
            nodes.append(lexmin_maximum_independent_set(masks, masks)[2])
        paths.add(nodes[0] == nodes[1])
    assert paths == {True, False}
    assert [independence_number(n, edges) for n, edges in cases[-3:]] == [20, 1, 6]
