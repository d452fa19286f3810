"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the PASS lines
of passing tests). Every expected value here was either pinned from an
independent brute-force oracle (tests/oracles.py) or is checked against one
inline; tolerances are exact throughout.
"""

import random

from arcseq import (
    Graph,
    MatchConstraint,
    StructureLevel,
    build_conflict_graph,
    classify_structure,
    diagonal_conflict_solve,
    exact_search,
    is_arc_preserving,
    lcs_dp,
    max_independent_set,
    reduce_theorem2,
    solve,
)
from arcseq.formats import (
    parse_annotated_sequence,
    parse_graph,
    write_annotated_sequence,
    write_graph,
)
from arcseq.generate import random_annotated_sequence, random_arcs, random_graph
from arcseq.sweep import SweepConfig, run_sweep

from oracles import (
    brute_lcs,
    brute_min_vertex_cover,
    conflict_graph_by_definition,
    oracle_level,
)

LEVELS = [
    StructureLevel.PLAIN,
    StructureLevel.CHAIN,
    StructureLevel.NESTED,
    StructureLevel.CROSSING,
    StructureLevel.UNLIMITED,
]

CONSTRAINTS = [
    MatchConstraint.unconstrained(),
    MatchConstraint.fragment(1),
    MatchConstraint.fragment(2),
    MatchConstraint.fragment(3),
    MatchConstraint.diagonal(0),
    MatchConstraint.diagonal(1),
    MatchConstraint.diagonal(2),
]


def oracle_instances(count=500, seed=424242, max_len=12):
    """The seeded instance family shared by criteria 4 and 5."""
    rng = random.Random(seed)
    for idx in range(count):
        level1 = LEVELS[idx % len(LEVELS)]
        level2 = LEVELS[(idx // len(LEVELS)) % len(LEVELS)]
        mc = CONSTRAINTS[idx % len(CONSTRAINTS)]
        n1 = rng.randint(1, max_len)
        n2 = n1 if rng.random() < 0.5 else rng.randint(1, max_len)
        a1 = random_annotated_sequence(rng, n1, "ab", level1)
        a2 = random_annotated_sequence(rng, n2, "ab", level2)
        yield a1, a2, mc


def test_criterion_1_theorem1_exact_correspondence(tmp_path):
    """Single-letter reduction: optimum equals the independence number."""
    cfg = SweepConfig("T1", (1, 5), output_csv=tmp_path / "t1.csv")
    report = run_sweep(cfg)
    assert len(report.rows) == 1 * 1 + 2 * 2 + 8 * 3 + 64 * 4 + 1024 * 5
    assert not report.skipped_rows

    mis_cache = {}
    for row in report.rows:
        n, mask = row.graph_id[1:].split("-")
        if row.graph_id not in mis_cache:
            g = Graph.from_mask(int(n), int(mask))
            mis_cache[row.graph_id] = max_independent_set(g).size
        assert row.lapcs_len == mis_cache[row.graph_id]
        assert row.forward_ok and row.backward_ok
    print(
        "PASS criterion 1: single-letter reduction matches max independent set "
        f"on all {len(report.rows)} rows (graphs up to n=5, every k)"
    )


def test_criterion_2_theorem2_forward_direction(tmp_path):
    """Blocked reduction: a size-k independent set always forces the threshold."""
    cfg = SweepConfig("T2", (1, 4), output_csv=tmp_path / "t2.csv")
    report = run_sweep(cfg)
    assert len(report.rows) == 1 * 1 + 2 * 2 + 8 * 3 + 64 * 4
    assert not report.skipped_rows
    assert all(row.forward_ok for row in report.rows)
    print(
        "PASS criterion 2: blocked-reduction forward direction holds on all "
        f"{len(report.rows)} rows (graphs up to n=4, every k)"
    )


def test_criterion_3_theorem2_backward_audit(tmp_path):
    """Backward direction is measured, reproducible, and cross-validated."""
    outputs = []
    reports = []
    for name in ("run1", "run2"):
        cfg = SweepConfig("T2", (1, 4), output_csv=tmp_path / name / "t2.csv")
        reports.append(run_sweep(cfg))
        outputs.append(
            (
                (tmp_path / name / "t2.csv").read_bytes(),
                (tmp_path / name / "t2.summary.json").read_bytes(),
            )
        )
    assert outputs[0] == outputs[1], "sweep outputs must be byte-reproducible"
    report = reports[0]
    assert not report.skipped_rows

    triangle = Graph(3, {(1, 2), (1, 3), (2, 3)})
    rows = [r for r in report.rows if r.graph_id == f"g3-{triangle.edge_mask()}" and r.k == 2]
    assert len(rows) == 1
    row = rows[0]
    inst = reduce_theorem2(triangle, 2)
    cands, edges, neighbours = conflict_graph_by_definition(inst.a1, inst.a2)
    assert build_conflict_graph(inst.a1, inst.a2) == neighbours
    by_formula = len(cands) - brute_min_vertex_cover(cands, edges)
    by_search = exact_search(inst.a1, inst.a2, inst.mc).length
    assert row.lapcs_len == by_search == by_formula == 12
    assert not row.backward_ok  # the measured counterexample
    print(
        "PASS criterion 3: backward audit reproducible byte-for-byte; "
        f"{len(report.counterexamples)} counterexample row(s) recorded; "
        f"triangle k=2 cross-checks agree at {row.lapcs_len}"
    )


def test_criterion_4_solver_oracle_equivalence():
    """All applicable solvers agree exactly on 500 seeded instances."""
    used = {"lcs_dp": 0, "diagonal": 0, "search": 0}
    for a1, a2, mc in oracle_instances():
        result = exact_search(a1, a2, mc)
        used["search"] += 1
        assert result.length == len(result.witness.pairs)
        assert is_arc_preserving(result.witness, a1, a2)
        assert all(mc.allows(i, j) for i, j in result.witness.pairs)

        if not a1.arcs and not a2.arcs and mc.kind == "unconstrained":
            # lcs_dp and the search's bound share one LCS engine; the
            # enumeration oracle does not.
            assert lcs_dp(a1.seq, a2.seq).length == result.length == brute_lcs(a1.seq, a2.seq)
            used["lcs_dp"] += 1
        if mc.forces_identity() and len(a1) == len(a2):
            _, _, neighbours = conflict_graph_by_definition(a1, a2)
            assert build_conflict_graph(a1, a2) == neighbours
            if max(map(len, neighbours.values()), default=0) <= 2:
                assert diagonal_conflict_solve(a1, a2).length == result.length
                used["diagonal"] += 1
    assert used["search"] == 500
    assert used["lcs_dp"] > 0 and used["diagonal"] > 0
    print(
        "PASS criterion 4: solver lengths agree exactly on 500 seeded instances "
        f"(lcs_dp on {used['lcs_dp']}, conflict solver on {used['diagonal']})"
    )


def test_criterion_5_fragment1_equals_diagonal0():
    """Same-fragment width 1 and zero-width diagonal give equal optima."""
    checked = 0
    for a1, a2, _ in oracle_instances():
        frag = solve(a1, a2, MatchConstraint.fragment(1))
        diag = solve(a1, a2, MatchConstraint.diagonal(0))
        assert frag.length == diag.length
        checked += 1
    assert checked == 500
    print("PASS criterion 5: fragment(1) == diagonal(0) on all 500 instances")


def test_criterion_6_classifier_against_quantifier_oracle():
    """Classifier matches direct restriction evaluation; deletion is monotone."""
    rng = random.Random(616161)
    checked = 0
    for idx in range(200):
        n = rng.randint(2, 14)
        if idx % 6 == 5:
            # Dense arbitrary pairs: endpoint sharing and crossing likely.
            arcs = set()
            for _ in range(rng.randint(0, 2 * n)):
                i = rng.randint(1, n - 1)
                arcs.add((i, rng.randint(i + 1, n)))
        else:
            arcs = random_arcs(rng, n, LEVELS[idx % len(LEVELS)], density=0.4)
        level = classify_structure(arcs, n)
        assert level is oracle_level(arcs)
        checked += 1

        # Monotone under deletion: single-arc removals and random subsets.
        subsets = [arcs - {arc} for arc in arcs]
        subsets.extend(
            {a for a in arcs if rng.random() < 0.5} for _ in range(3)
        )
        for sub in subsets:
            assert classify_structure(sub, n).is_within(level)
    assert checked == 200
    print("PASS criterion 6: classifier matches the restriction oracle on 200 arc sets")


def test_criterion_7_format_round_trips():
    """write -> parse -> write is byte-identical for graphs and sequences."""
    rng = random.Random(909090)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        text = write_graph(g)
        again = write_graph(parse_graph(text))
        assert text == again

    for idx in range(100):
        n = rng.randint(1, 15)
        a = random_annotated_sequence(rng, n, "abcu", LEVELS[idx % len(LEVELS)])
        text = write_annotated_sequence(a)
        again = write_annotated_sequence(parse_annotated_sequence(text))
        assert text == again
    print("PASS criterion 7: 100 graphs and 100 sequences round-trip byte-identically")
