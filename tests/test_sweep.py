"""Sweep orchestration: determinism, skip handling, report files."""

import hashlib
import json
import random

import pytest

from arcseq import ValidationError, check_equivalence, reductions
from arcseq.generate import exhaustive_graphs, random_graph
from arcseq.solvers import SearchBudget
from arcseq.reductions import ROW_FIELDS, EquivalenceReport, EquivalenceRow, GraphOracles
from arcseq.sweep import (
    CSV_HEADER,
    SweepConfig,
    render_csv,
    render_summary,
    row_cells,
    run_sweep,
)
from oracles import per_value_cell, summary_payload

# sha256 of the CSV and the summary JSON of the exhaustive all-k sweeps,
# captured before the sweep evaluated each graph once for all k.
PINNED_DIGESTS = {
    ("T1", 5): (
        "79998620d3eb9611f3d2d595b2cbe0ba5bec5267dd030da21a16f17f230aa159",
        "8368715d1d9236ed420c70a6727a787826d7a3e200247eaebddcc30729496345",
    ),
    ("T2", 4): (
        "96b1c59f8cc3d9da9c4326f8aab986b6132b52bd279aca0d192f659627078a1a",
        "a1219544391fdbe260896bc09516226b502984454d2330d959873d32206aae65",
    ),
}


@pytest.mark.parametrize("theorem,n_max", sorted(PINNED_DIGESTS))
def test_exhaustive_outputs_match_pinned_bytes(tmp_path, theorem, n_max):
    csv = tmp_path / "sweep.csv"
    run_sweep(SweepConfig(theorem, (1, n_max), output_csv=csv))
    digests = tuple(
        hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (csv, csv.with_suffix(".summary.json"))
    )
    assert digests == PINNED_DIGESTS[(theorem, n_max)]


# sha256 of the CSV and the summary JSON of sweeps that skip rows (under a
# node budget; under an independent-set budget) or reach only T2's case I,
# captured before the per-graph oracles kept one entry per case; the node
# budget's entry was captured again once the lexmin search took the
# isolated candidates at its root, which skips fewer rows.
SKIP_PINS = {
    ("T1", 5, "all", "max_nodes=3"): (
        {"search_budget": SearchBudget(max_nodes=3)}, 5405, 3913,
        "58ae5d7b3ad98af2d46301b287e10fe02b170c428ac96bcd9d993a942505f857",
        "96cb934cb542d5cce8d7885251fc47dd39809370d4069b62f40c848433bd78af",
    ),
    ("T2", 4, "all", "mis_max_vertices=3"): (
        {"search_budget": SearchBudget(mis_max_vertices=3)}, 285, 256,
        "b82faa40b55dbef44dbe13e1a91fc625f8fbe8a7b9a8762b868d5adad2a105cc",
        "2d98a87e82a16b4c60e9dd8e25d9bf16fdcfdb4b3d99bafbdd3de21848197817",
    ),
    ("T2", 4, 5, "case I"): (
        {}, 75, 0,
        "48a175607a2ce95c1d2adb1f538f35ca0a1be316fcbc923909dca83b2fc3e3dc",
        "bceb97cd7b805cecd3ee799712cba0ad94d84dc0bb6ef2b0a3dcfc8ccdcc0386",
    ),
    # Every n = 5 row skipped by the independent-set cap, the rest completed:
    # the bytes written while alpha still came from max_independent_set,
    # whose over-cap text is the skip_reason.
    ("T1", 5, "all", "mis_max_vertices=4"): (
        {"search_budget": SearchBudget(mis_max_vertices=4)}, 5405, 5120,
        "3633d1ad74b2d374cfa58c5eca89cea6a81035016f4c2b2989243ae65567941b",
        "2c532cfdd40a6affedf2bcda551be75d575092f7eda6f07d70125647bdc1bf23",
    ),
}


@pytest.mark.parametrize("key", SKIP_PINS, ids=lambda key: "-".join(map(str, key)))
def test_skip_heavy_outputs_match_pinned_bytes(tmp_path, key):
    theorem, n_max, k_policy, _ = key
    budget, rows, skipped, *pinned = SKIP_PINS[key]
    csv = tmp_path / "sweep.csv"
    report = run_sweep(SweepConfig(theorem, (1, n_max), k_policy=k_policy, output_csv=csv,
                                   **budget))
    assert (len(report.rows), len(report.skipped_rows)) == (rows, skipped)
    digests = [
        hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (csv, csv.with_suffix(".summary.json"))
    ]
    assert digests == pinned


@pytest.mark.parametrize(
    "theorem,k_policy,budget",
    [
        ("T1", "all", {}),
        ("T2", "all", {}),
        ("T2", 3, {}),  # k > n for n < 3: the T2 case I instance
        ("T1", "all", {"search_budget": SearchBudget(mis_max_vertices=2)}),
        ("T1", "all", {"search_budget": SearchBudget(max_nodes=1)}),
    ],
)
def test_rows_equal_one_check_per_graph_and_k(theorem, k_policy, budget):
    report = run_sweep(SweepConfig(theorem, (1, 4), k_policy=k_policy, **budget))
    expected = [
        check_equivalence(GraphOracles(g, theorem, **budget), k, f"g{n}-{mask}")
        for n in range(1, 5)
        for mask, g in exhaustive_graphs(n)
        for k in (range(1, n + 1) if k_policy == "all" else [k_policy])
    ]
    assert report.rows == expected


@pytest.mark.parametrize(
    "theorem,k_policy,n_max,graphs,rows",
    [("T1", "all", 4, 75, 285), ("T2", "all", 3, 11, 29), ("T2", 3, 4, 75, 75)],
)
def test_each_oracle_runs_once_per_graph(monkeypatch, theorem, k_policy, n_max, graphs, rows):
    calls = {"mis": 0, "solve": 0, "reduce": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    mis, solve, reduce = (
        reductions.independence_number, reductions.solve, reductions.REDUCTIONS[theorem])
    monkeypatch.setattr(reductions, "independence_number", counted("mis", mis))
    monkeypatch.setattr(reductions, "solve", counted("solve", solve))
    monkeypatch.setitem(reductions.REDUCTIONS, theorem, counted("reduce", reduce))
    report = run_sweep(SweepConfig(theorem, (1, n_max), k_policy=k_policy))
    assert len(report.rows) == rows
    # One reduction per (graph, case), and each of these sweeps has one case
    # per graph; spot checks reuse the row's instance instead of reducing.
    assert calls == {"mis": graphs, "solve": graphs, "reduce": graphs}


def test_theorem1_exhaustive_n3_has_no_failures(tmp_path):
    cfg = SweepConfig("T1", (1, 3), output_csv=tmp_path / "t1.csv")
    report = run_sweep(cfg)
    assert len(report.rows) == 1 * 1 + 2 * 2 + 8 * 3
    assert not report.skipped_rows
    assert not report.counterexamples
    assert all(r.forward_ok and r.backward_ok for r in report.rows)
    text = (tmp_path / "t1.csv").read_text()
    assert text.splitlines()[0] == CSV_HEADER
    summary = json.loads((tmp_path / "t1.summary.json").read_text())
    assert summary["forward_failures"] == 0
    assert summary["backward_failures"] == 0
    assert summary["spot_checks"]["sampled"] == summary["spot_checks"]["verified"] > 0


def test_theorem2_single_edge_forward_ok():
    cfg = SweepConfig("T2", (2, 2))
    report = run_sweep(cfg)
    single_edge = [r for r in report.rows if r.graph_id == "g2-1" and r.k == 1]
    assert len(single_edge) == 1
    assert single_edge[0].forward_ok


def test_empty_graph_set_yields_header_only_csv(tmp_path):
    cfg = SweepConfig(
        "T1",
        (1, 2),
        graph_source="random",
        random_count=0,
        edge_probability=0.5,
        seed=1,
        output_csv=tmp_path / "empty.csv",
    )
    report = run_sweep(cfg)
    assert report.rows == []
    assert (tmp_path / "empty.csv").read_text() == CSV_HEADER + "\n"


def test_same_seed_gives_byte_identical_outputs(tmp_path):
    outputs = []
    for name in ("a", "b"):
        cfg = SweepConfig(
            "T1",
            (2, 4),
            graph_source="random",
            random_count=5,
            edge_probability=0.4,
            seed=99,
            output_csv=tmp_path / f"{name}.csv",
        )
        run_sweep(cfg)
        outputs.append(
            (
                (tmp_path / f"{name}.csv").read_bytes(),
                (tmp_path / f"{name}.summary.json").read_bytes(),
            )
        )
    assert outputs[0] == outputs[1]


def test_different_seeds_differ(tmp_path):
    texts = []
    for seed in (1, 2):
        cfg = SweepConfig(
            "T1",
            (4, 4),
            graph_source="random",
            random_count=8,
            edge_probability=0.5,
            seed=seed,
        )
        texts.append(render_csv(run_sweep(cfg)))
    assert texts[0] != texts[1]


def test_random_mode_requires_seed():
    with pytest.raises(ValidationError, match="seed"):
        SweepConfig("T1", (1, 2), graph_source="random", random_count=3, edge_probability=0.5)


def test_exhaustive_caps_enforced():
    with pytest.raises(ValidationError, match="capped"):
        SweepConfig("T1", (1, 7))
    with pytest.raises(ValidationError, match="capped"):
        SweepConfig("T2", (1, 5))
    SweepConfig("T2", (1, 5), max_exhaustive_n=5)
    with pytest.raises(ValidationError, match="max_exhaustive_n"):
        SweepConfig("T1", (1, 3), max_exhaustive_n=0)


def test_k_policy_fixed():
    report = run_sweep(SweepConfig("T1", (3, 3), k_policy=2))
    assert len(report.rows) == 8
    assert all(r.k == 2 for r in report.rows)


def test_skipped_rows_rendered_distinctly(tmp_path):
    cfg = SweepConfig(
        "T1",
        (3, 3),
        k_policy=1,
        search_budget=SearchBudget(mis_max_vertices=2),
        output_csv=tmp_path / "skip.csv",
    )
    report = run_sweep(cfg)
    assert len(report.skipped_rows) == len(report.rows) == 8
    lines = (tmp_path / "skip.csv").read_text().splitlines()
    assert all(",skipped," in line for line in lines[1:])
    summary = json.loads((tmp_path / "skip.summary.json").read_text())
    assert summary["skipped"] == 8
    assert len(summary["skipped_rows"]) == 8


def test_csv_lines_are_the_row_cells():
    # render_csv renders each distinct value of a column once; each line
    # must still be the row's own cells, and each cell what one call per
    # value gave. The reports: no rows; all completed rows; and completed and
    # skipped rows mixed, whose last row puts an int among the bools of a
    # flag column, a bool among ints and a float among ints, each equal to
    # a value of the other kind in its column.
    completed = run_sweep(SweepConfig("T1", (1, 3))).rows
    assert completed and not any(r.skipped for r in completed)
    rows = completed + run_sweep(
        SweepConfig("T1", (3, 3), k_policy=1, search_budget=SearchBudget(mis_max_vertices=2))
    ).rows
    rows.append(rows[0]._replace(graph_id="odd", n=True, connected=1, k=1.0))
    assert any(r.skipped for r in rows) and not all(r.skipped for r in rows)
    for r in rows:
        assert row_cells(r) == dict(zip(ROW_FIELDS, map(per_value_cell, r)))
    for report_rows in ([], completed, rows):
        text = render_csv(EquivalenceReport("T1", report_rows))
        expected = [CSV_HEADER] + [",".join(row_cells(r).values()) for r in report_rows]
        assert text == "\n".join(expected) + "\n"
    assert text.splitlines()[-1].startswith("odd,true,")
    assert text.splitlines()[-1].split(",")[3:5] == ["1", "1.0"]


@pytest.mark.parametrize(
    "cfg",
    [
        SweepConfig("T1", (1, 4)),
        SweepConfig("T2", (1, 4)),
        SweepConfig("T1", (4, 4), search_budget=SearchBudget(max_nodes=1)),
        SweepConfig(
            "T1", (2, 2), graph_source="random", random_count=0, edge_probability=0.5, seed=1
        ),
    ],
    ids=["T1", "T2", "skips", "empty"],
)
def test_counts_are_the_summary_tallies(cfg):
    report = run_sweep(cfg)
    summary = json.loads(render_summary(report, cfg, {}))
    scalars = {key: value for key, value in summary.items() if type(value) is int}
    assert report.counts() == scalars
    assert list(report.counts()) == [
        "rows", "completed", "skipped", "forward_failures", "backward_failures"
    ]
    assert summary["rows"] == len(report.rows)
    assert summary["skipped"] == len(report.skipped_rows)
    # arcseq sweep --strict reads counterexamples off the two failure counts.
    failures = summary["forward_failures"] + summary["backward_failures"]
    assert bool(summary["counterexamples"]) == bool(failures)


def test_budget_echo_is_the_search_budget_fields():
    # The independent-set cap is the budget's last field, so the echo is
    # the budget's fields alone, and the summary's sorted keys keep it last.
    cfg = SweepConfig("T1", (1, 2), search_budget=SearchBudget(max_cells=9, max_nodes=5))
    fields = SearchBudget._fields
    assert fields[-1] == "mis_max_vertices"
    assert cfg.config_echo()["budget"] == {name: getattr(cfg.search_budget, name) for name in fields}


def test_node_budget_skips_hard_rows():
    # Star graphs route to exhaustive search; one node is never enough.
    cfg = SweepConfig("T1", (4, 4), k_policy=1, search_budget=SearchBudget(max_nodes=1))
    report = run_sweep(cfg)
    assert report.skipped_rows
    assert any(not r.skipped for r in report.rows)


def test_spot_check_samples_by_row_index(tmp_path):
    cfg = SweepConfig(
        "T1", (4, 4), search_budget=SearchBudget(max_nodes=1), output_csv=tmp_path / "s.csv"
    )
    report = run_sweep(cfg)
    spot = json.loads((tmp_path / "s.summary.json").read_text())["spot_checks"]
    at_stride = [r for r in report.rows[::10] if not r.skipped]
    completed = [r for r in report.rows if not r.skipped]
    # Skipped rows at sampled indices make the two readings differ here.
    assert len(at_stride) != len(completed[::10])
    assert spot["sampled"] == len(at_stride)


def test_invalid_configs_rejected():
    with pytest.raises(ValidationError):
        SweepConfig("T3", (1, 2))
    with pytest.raises(ValidationError):
        SweepConfig("T1", (0, 2))
    with pytest.raises(ValidationError):
        SweepConfig("T1", (2, 1))
    with pytest.raises(ValidationError):
        SweepConfig("T1", (1, 2), k_policy=0)
    with pytest.raises(ValidationError):
        SweepConfig("T1", (1, 2), k_policy="some")
    for k in (True, 1.5, "2"):
        with pytest.raises(ValidationError, match="k_policy"):
            SweepConfig("T1", (2, 2), k_policy=k)
    with pytest.raises(ValidationError):
        SweepConfig("T1", (1, 2), graph_source="mystery")
    for n_range in ((1, 2.5), (True, 2), (1.0, 2), ("1", 2)):
        with pytest.raises(ValidationError, match="vertex-count range"):
            SweepConfig("T1", n_range)
    for count in (1.5, True, "2", None, -1):
        with pytest.raises(ValidationError, match="random_count"):
            SweepConfig(
                "T1", (1, 2), graph_source="random", random_count=count, edge_probability=0.5,
                seed=1,
            )
        # A given count is checked in exhaustive mode too: the summary echoes it.
        if count is not None:
            with pytest.raises(ValidationError, match=f"random_count .*got {count!r}"):
                SweepConfig("T1", (1, 2), random_count=count)
    for value in (20.0, True, "20", -1):
        with pytest.raises(ValidationError, match="max_exhaustive_n"):
            SweepConfig("T1", (1, 2), max_exhaustive_n=value)
    # True would sweep seed 1's graphs and echo "seed": true; "1" and 1.5
    # seed other graphs. Neither echo names a seed that --seed reproduces.
    for seed in (True, "1", 1.5, 1.0):
        with pytest.raises(ValidationError, match="seed must be an integer"):
            SweepConfig(
                "T1", (1, 2), graph_source="random", random_count=1, edge_probability=0.5,
                seed=seed,
            )
        with pytest.raises(ValidationError, match="seed must be an integer"):
            SweepConfig("T1", (1, 2), seed=seed)
    cfg = SweepConfig("T1", (1, 2), search_budget=SearchBudget(mis_max_vertices=0))
    assert cfg.search_budget.mis_max_vertices == 0
    # The independent-set cap is a SearchBudget field, checked where the
    # budget is built and nowhere else: a float or a bool would otherwise
    # be compared as a number, and a string would raise TypeError. True and
    # 1.0 would compare equal to a cap of 1.
    for value, message in ((3.5, "mis_max_vertices must be an integer"),
                           (True, "mis_max_vertices must be an integer"),
                           (1.0, "mis_max_vertices must be an integer"),
                           ("3", "mis_max_vertices must be an integer"),
                           (20.0, "mis_max_vertices must be an integer"),
                           (-1, "caps must be >= 0, .*mis_max_vertices=-1")):
        with pytest.raises(ValidationError, match=message):
            SearchBudget(mis_max_vertices=value)
    # The edge probability is an int or a float: a string would raise
    # TypeError from <=, and True would be taken as 1.
    for p in (1.5, -0.1, float("nan"), "0.5", True, False, None):
        with pytest.raises(ValidationError, match="edge_probability"):
            SweepConfig(
                "T1", (1, 2), graph_source="random", random_count=0, edge_probability=p, seed=1
            )
        if p is not None:
            with pytest.raises(ValidationError, match="edge probability must be within"):
                random_graph(random.Random(1), 3, p)
            with pytest.raises(ValidationError, match="edge_probability"):
                SweepConfig("T1", (1, 2), edge_probability=p)
    with pytest.raises(ValidationError, match="edge_probability .*got 'x'"):
        SweepConfig("T1", (1, 2), edge_probability="x")
    for p in (0, 1, 0.0, 0.5):
        cfg = SweepConfig(
            "T1", (1, 2), graph_source="random", random_count=0, edge_probability=p, seed=1
        )
        assert cfg.edge_probability == p
        assert random_graph(random.Random(1), 3, p).n == 3
    # Valid random-mode values stay valid without random mode, as
    # --edge-prob without --random is, and are echoed as given.
    cfg = SweepConfig("T1", (1, 2), random_count=3, edge_probability=0.5)
    assert (cfg.config_echo()["random_count"], cfg.config_echo()["edge_probability"]) == (3, 0.5)


def test_summary_renders_as_json_dumps():
    # The counterexample rows go through a fixed template; the text must be
    # what json.dumps writes, escapes included, with and without them.
    odd = 'g"3\\-\u00e9-\u2028'
    counterexample = EquivalenceRow(odd, 3, 3, True, 2, False, 12, 10, True, True, False)
    skipped = EquivalenceRow(odd, 6, 0, False, 1, None, None, 1, None, None, None, "budget")
    fine = EquivalenceRow("g1-0", 1, 0, True, 1, True, 3, 3, True, True, True)
    cfg = SweepConfig("T2", (1, 3))
    spot = {"sampled": 1, "verified": 1, "budget_skipped": 0}
    for rows in ([counterexample, skipped, fine, counterexample], [fine, skipped], []):
        report = EquivalenceReport("T2", rows)
        payload = {**summary_payload(report), "config": cfg.config_echo(), "spot_checks": spot}
        text = render_summary(report, cfg, spot)
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert len(json.loads(text)["counterexamples"]) == 2 * (len(rows) == 4)
