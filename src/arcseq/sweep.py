"""Sweep orchestration: equivalence checks over graph families, CSV/JSON reports.

A sweep walks a family of graphs (exhaustive over all labeled graphs per
vertex count, or seeded random draws), measures the equivalence row of each
(graph, k) pair, and emits a CSV of rows plus a JSON summary. Each graph is
evaluated once for all its k: the graph oracle runs once per graph, and each
reduced instance is built and solved once per (graph, case), because k sets
only its threshold. Outputs are byte-identical across runs for the same
configuration and seed.
"""

from __future__ import annotations

import json
import random
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path

from .core import _MutableRecord, _require_int
from .errors import ArcseqError, BudgetError, ValidationError
from .generate import _is_probability, exhaustive_graphs, random_graph
from .reductions import (
    EquivalenceReport,
    EquivalenceRow,
    Graph,
    GraphOracles,
    REDUCTIONS,  # unused here; bench/test_bench.py reads sweep.REDUCTIONS
    ROW_FIELDS,
    _check_theorem,
    check_equivalence,
)
from .solvers import DEFAULT_BUDGET, SearchBudget, _resolve_budget, exact_search

__all__ = [
    "SweepConfig",
    "CSV_HEADER",
    "run_sweep",
    "row_cells",
    "render_csv",
    "render_summary",
]

CSV_HEADER = ",".join(ROW_FIELDS)

# Exhaustive enumeration blows up as 2^(n(n-1)/2); the T2 instances
# additionally grow as n(n+2), hence the lower default cap.
DEFAULT_EXHAUSTIVE_CAP = {"T1": 6, "T2": 4}

SPOT_CHECK_STRIDE = 10


class SweepConfig(_MutableRecord):
    """What to sweep and within which budget.

    k_policy is either the string "all" (k = 1..n per graph) or a fixed
    int (not a bool). graph_source is "exhaustive" or "random"; random mode
    draws `random_count` graphs per vertex count, each edge with
    `edge_probability` (an int or a float within [0, 1], not a bool), and
    requires both and a seed, each checked whenever given, since the
    summary echoes it. The vertex counts, random_count, max_exhaustive_n
    and seed are ints too: a bool or a float is rejected. Every cap of the
    two oracles is a field of search_budget, which checks them.
    """

    _fields = (
        "theorem", "n_range", "k_policy", "graph_source", "random_count", "edge_probability",
        "seed", "search_budget", "max_exhaustive_n", "output_csv",
    )

    def __init__(
        self,
        theorem: str,
        n_range: tuple[int, int],
        k_policy: int | str = "all",
        graph_source: str = "exhaustive",
        random_count: int | None = None,
        edge_probability: float | None = None,
        seed: int | None = None,
        search_budget: SearchBudget | None = DEFAULT_BUDGET,
        max_exhaustive_n: int | None = None,
        output_csv: Path | None = None,
    ):
        self.__dict__.update(
            theorem=theorem, n_range=n_range, k_policy=k_policy, graph_source=graph_source,
            random_count=random_count, edge_probability=edge_probability, seed=seed,
            search_budget=search_budget, max_exhaustive_n=max_exhaustive_n, output_csv=output_csv,
        )
        _check_theorem(self.theorem)
        self.search_budget = _resolve_budget(self.search_budget)
        pair = isinstance(self.n_range, (tuple, list)) and len(self.n_range) == 2
        lo, hi = self.n_range if pair else (None, None)
        if type(lo) is not int or type(hi) is not int or lo < 1 or hi < lo:
            raise ValidationError(f"bad vertex-count range {self.n_range}")
        if type(self.k_policy) is int:
            if self.k_policy < 1:
                raise ValidationError("fixed k must be >= 1")
        elif self.k_policy != "all":
            raise ValidationError("k_policy must be 'all' or a positive integer")
        if self.seed is not None:
            _require_int(self.seed, "seed")
        count, p = self.random_count, self.edge_probability
        if count is not None and (type(count) is not int or count < 0):
            raise ValidationError(f"random_count must be an int >= 0, got {count!r}")
        if p is not None and not _is_probability(p):
            raise ValidationError(f"edge_probability must be within [0, 1], got {p!r}")
        if self.max_exhaustive_n is not None:
            _require_int(self.max_exhaustive_n, "max_exhaustive_n")
            if self.max_exhaustive_n < 1:
                raise ValidationError("max_exhaustive_n must be >= 1")
        if self.graph_source == "exhaustive":
            cap = self.max_exhaustive_n
            if cap is None:
                cap = DEFAULT_EXHAUSTIVE_CAP[self.theorem]
            if hi > cap:
                raise ValidationError(
                    f"exhaustive sweeps for {self.theorem} are capped at n <= {cap}; "
                    "raise max_exhaustive_n explicitly to go further"
                )
        elif self.graph_source == "random":
            for name in ("seed", "random_count", "edge_probability"):
                if getattr(self, name) is None:
                    raise ValidationError(f"random mode requires {name}")
        else:
            raise ValidationError(f"unknown graph source {self.graph_source!r}")
        if self.output_csv is not None:
            self.output_csv = Path(self.output_csv)

    @property
    def output_summary(self) -> Path | None:
        if self.output_csv is None:
            return None
        return self.output_csv.with_suffix(".summary.json")

    def config_echo(self) -> dict:
        """Semantic configuration for the summary file (paths excluded)."""
        return {
            "theorem": self.theorem,
            "n_range": list(self.n_range),
            "k_policy": self.k_policy,
            "graph_source": self.graph_source,
            "random_count": self.random_count,
            "edge_probability": self.edge_probability,
            "seed": self.seed,
            "budget": dict(zip(SearchBudget._fields, self.search_budget._values())),
        }


def _iter_graphs(cfg: SweepConfig) -> Iterator[tuple[str, Graph]]:
    lo, hi = cfg.n_range
    if cfg.graph_source == "exhaustive":
        for n in range(lo, hi + 1):
            for mask, g in exhaustive_graphs(n):
                yield f"g{n}-{mask}", g
    else:
        rng = random.Random(cfg.seed)
        for n in range(lo, hi + 1):
            for idx in range(cfg.random_count):
                g = random_graph(rng, n, cfg.edge_probability)
                yield f"r{n}-{idx}", g


def _ks(cfg: SweepConfig, n: int) -> list[int]:
    if cfg.k_policy == "all":
        return list(range(1, n + 1))
    return [cfg.k_policy]


def run_sweep(cfg: SweepConfig) -> EquivalenceReport:
    """Execute the sweep, spot-check rows, and write the configured outputs.

    Each graph is evaluated once for all its k: its rows share one
    :class:`arcseq.reductions.GraphOracles`, bound to the sweep's theorem
    and budget, which each row's check reads. Connectivity and the
    independence number are computed once per graph, and the reduced
    instance is built and solved once per (graph, case); k sets only the
    threshold, and a further row of a solved case is one lookup.

    A row is spot-checked when its index is a multiple of ten, it is not
    skipped, and its pair fits the identity length budget: the exhaustive
    solver recomputes it on the instance kept in its case's entry, and a
    disagreement aborts the run. A skipped row is not replaced by a later
    one, so skips lower the sample. Skipped rows stay in the report and
    the summary.
    """
    rows: list[EquivalenceRow] = []
    spot = {"sampled": 0, "verified": 0, "budget_skipped": 0}
    for gid, g in _iter_graphs(cfg):
        oracles = GraphOracles(g, cfg.theorem, cfg.search_budget)
        for k in _ks(cfg, g.n):
            row = check_equivalence(oracles, k, gid)
            if len(rows) % SPOT_CHECK_STRIDE == 0 and not row.skipped:
                inst = oracles.answer(k)[1].instance
                if len(inst.a1) <= cfg.search_budget.max_identity_length:
                    spot["sampled"] += 1
                    try:
                        redo = exact_search(inst.a1, inst.a2, inst.mc, cfg.search_budget)
                    except BudgetError:
                        spot["budget_skipped"] += 1
                    else:
                        if redo.length != row.lapcs_len:
                            raise ArcseqError(
                                f"spot check mismatch on {gid} k={k}: "
                                f"{redo.length} != {row.lapcs_len}"
                            )
                        spot["verified"] += 1
            rows.append(row)

    report = EquivalenceReport(cfg.theorem, rows)
    if cfg.output_csv is not None:
        cfg.output_csv.parent.mkdir(parents=True, exist_ok=True)
        cfg.output_csv.write_text(render_csv(report))
        cfg.output_summary.write_text(render_summary(report, cfg, spot))
    return report


def _cell(value: bool | int | str | None) -> str:
    """A report cell's text: "skipped" for None, "true" or "false" for a bool,
    and str() of any other value."""
    if value is None:
        return "skipped"
    if type(value) is bool:
        return "true" if value else "false"
    return str(value)


def _column_cells(values: tuple) -> Iterator[str]:
    """A column's cells by :func:`_cell`, each distinct value rendered once.
    A column holding values of two kinds besides None goes value by value,
    since equal values of two kinds (True and 1) share one dict key."""
    if len(set(map(type, values)) - {type(None)}) > 1:
        return map(_cell, values)
    return map({v: _cell(v) for v in set(values)}.__getitem__, values)


def row_cells(row: EquivalenceRow) -> dict[str, str]:
    """The row's report text, keyed by field name in ROW_FIELDS order.

    The ``verify`` line prints these, by the cell rule :func:`render_csv` uses.
    """
    return dict(zip(ROW_FIELDS, map(_cell, row)))


def render_csv(report: EquivalenceReport) -> str:
    """The report as CSV text: the header, then one line per row, each
    ``row_cells(row)`` joined by commas and rendered column by column."""
    columns = list(zip(*report.rows))[: len(ROW_FIELDS)]
    lines = map(",".join, zip(*map(_column_cells, columns)))
    return "\n".join([CSV_HEADER, *lines]) + "\n"


# One counterexample object as json.dumps(indent=2, sort_keys=True) writes it
# in the summary: keys in sorted order, the object two levels deep.
_SORTED_FIELDS = sorted(ROW_FIELDS)
_values_in_key_order = itemgetter(*map(ROW_FIELDS.index, _SORTED_FIELDS))
_COUNTEREXAMPLE = "    {\n%s\n    }" % ",\n".join(f'      "{key}": %s' for key in _SORTED_FIELDS)
# The line json writes for no counterexamples. The newline and two-space
# indent match only a top-level key, and no JSON string holds a newline.
_NO_COUNTEREXAMPLES = '\n  "counterexamples": []'


def _json_scalar(value: bool | int | str | None) -> str:
    """value as json.dumps writes it (ensure_ascii on)."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if type(value) is str:
        return encode_basestring_ascii(value)
    return int.__repr__(value)


def render_summary(report: EquivalenceReport, cfg: SweepConfig, spot_checks: dict) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"`` for the report's
    summary with the configuration echo and the spot-check counts.

    The counterexample rows, most of the text, are each written through one
    fixed template instead of json's pure-Python indenting encoder, and
    spliced into the text json writes for the rest; the bytes are the same.
    The template reads each row tuple in sorted-field order, with no dict
    per row.
    """
    payload = report._summary_rows()
    payload["config"] = cfg.config_echo()
    payload["spot_checks"] = spot_checks
    rows = payload["counterexamples"]
    payload["counterexamples"] = []
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if not rows:
        return text
    body = ",\n".join(
        _COUNTEREXAMPLE % tuple(map(_json_scalar, _values_in_key_order(row))) for row in rows
    )
    return text.replace(_NO_COUNTEREXAMPLES, f'\n  "counterexamples": [\n{body}\n  ]', 1)
