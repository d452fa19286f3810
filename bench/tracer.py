"""Traced run: spans around every call into arcseq's public layer functions.

The tracer replaces each function in TRACED, in every ``arcseq`` module
namespace and module-level dict that binds it, with a wrapper that records a
span (name, parent span, start, end). ``from .x import f`` call sites and
dispatch tables such as ``REDUCTIONS`` are therefore caught. Counters are
read from arguments and return values only. Every original is restored when
the job ends, even if it raised.

A span's self time is its duration minus the durations of its direct
children. The job itself is the root span ``bench.job``, so the self times
of one job add up to its traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

TRACED = {
    "sweep": ("run_sweep", "render_csv", "render_summary"),
    "reductions": ("check_equivalence", "reduce_theorem1", "reduce_theorem2", "max_independent_set"),
    "mis": ("lexmin_maximum_independent_set",),
    "solvers": ("solve", "lcs_dp", "build_conflict_graph", "diagonal_conflict_solve", "exact_search"),
    "core": ("classify_structure",),
    "formats": ("parse_annotated_sequence", "write_annotated_sequence", "parse_graph"),
    "cli": ("main",),
}

ROOT = "bench.job"
MIS = "mis.lexmin_maximum_independent_set"
SEARCH_IDENTITY = "solvers.exact_search.identity"
SEARCH_PAIR = "solvers.exact_search.pair"


def span_names() -> list[str]:
    """Span names, with exact_search split by route (identity or pair)."""
    names = []
    for layer, funcs in TRACED.items():
        for func in funcs:
            if func == "exact_search":
                names += [SEARCH_IDENTITY, SEARCH_PAIR]
            else:
                names.append(f"{layer}.{func}")
    return names


_COUNTERS = [
    ("mis.nodes", "count", "lower"),
    ("mis.calls_per_graph", "calls/graph", "lower"),
    ("solvers.exact_search.nodes", "count", "lower"),
    ("solvers.lcs_dp.cells", "count", "lower"),
    ("solvers.diagonal_conflict_solve.candidates", "count", "lower"),
    ("solvers.diagonal_conflict_solve.conflict_edges", "count", "lower"),
    ("solvers.solve.route.lcs_dp", "count", "higher"),
    ("solvers.solve.route.diagonal_conflict", "count", "higher"),
    ("solvers.solve.route.exact_search", "count", "lower"),
    ("solvers.build_conflict_graph.per_solve", "calls/solve", "lower"),
    ("sweep.spot_check.sampled", "count", "higher"),
    ("sweep.spot_check.verified", "count", "higher"),
    ("sweep.spot_check.total_s", "s", "lower"),
    ("sweep.spot_check.mis_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.harness_self_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
]

PER_LAYER = [
    (f"{name}.{kind}", unit, "lower")
    for name in span_names()
    for kind, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s"))
] + _COUNTERS


def _stat(result, key: str):
    stats = getattr(result, "stats", None)
    if isinstance(stats, dict):
        return stats.get(key)
    return getattr(stats, key, None)


class Tracer:
    """Records spans for one job at a time; see run()."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self._stack: list[int] = []
        self._undo: list[tuple[dict, object, object]] = []

    def run(self, fn):
        """Run fn() with every traced function wrapped; return (result, counters)."""
        for seq in (self.names, self.parents, self.starts, self.ends):
            seq.clear()
        self._counts = dict.fromkeys(
            ["mis.nodes", "solvers.exact_search.nodes", "solvers.lcs_dp.cells",
             "solvers.diagonal_conflict_solve.candidates",
             "solvers.diagonal_conflict_solve.conflict_edges",
             "sweep.spot_check.sampled", "sweep.spot_check.verified"], 0)
        self._routes: dict[int, str] = {}
        self._mis_args: list = []
        self._install()
        try:
            self.names.append(ROOT)
            self.parents.append(-1)
            self.ends.append(0)
            self._stack[:] = [0]
            self.starts.append(time.perf_counter_ns())
            try:
                result = fn()
            finally:
                self.ends[0] = time.perf_counter_ns()
        finally:
            self._remove()
        return result, self._aggregate()

    def spans_json(self) -> str:
        """The last job's spans as [id, parent, name, start_ns, end_ns] rows."""
        rows = zip(range(len(self.names)), self.parents, self.names, self.starts, self.ends)
        return json.dumps([list(r) for r in rows], separators=(",", ":"))

    def _install(self) -> None:
        homes = {layer: importlib.import_module(f"arcseq.{layer}") for layer in TRACED}
        modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "arcseq" or name.startswith("arcseq."))
        ]
        for layer, funcs in TRACED.items():
            home = homes[layer]
            for func in funcs:
                orig = getattr(home, func)
                wrapper = self._wrapper(f"{layer}.{func}", orig)
                for mod in modules:
                    ns = vars(mod)
                    for attr, val in list(ns.items()):
                        if val is orig:
                            self._undo.append((ns, attr, orig))
                            ns[attr] = wrapper
                        elif type(val) is dict:
                            for key, item in list(val.items()):
                                if item is orig:
                                    self._undo.append((val, key, orig))
                                    val[key] = wrapper

    def _remove(self) -> None:
        while self._undo:
            table, key, orig = self._undo.pop()
            table[key] = orig

    def _wrapper(self, name: str, fn):
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack)
        clock = time.perf_counter_ns
        after = getattr(self, "_after_" + name.split(".")[1], None)
        split = name == "solvers.exact_search"
        materialize = name == MIS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if split:
                mc = args[2] if len(args) > 2 else kwargs["mc"]
                label = SEARCH_IDENTITY if mc.forces_identity() else SEARCH_PAIR
            else:
                label = name
            if materialize and args and iter(args[0]) is args[0]:
                args = (tuple(args[0]),) + args[1:]
            sid = len(names)
            names.append(label)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(sid, args, kwargs, result)
            return result

        return wrapper

    # Counters, read from arguments and return values.

    def _after_lexmin_maximum_independent_set(self, sid, args, kwargs, result):
        self._counts["mis.nodes"] += result[2]
        neighbors = args[1] if len(args) > 1 else kwargs["neighbors"]
        self._mis_args.append((args[0] if args else kwargs["vertices"], neighbors))

    def _after_exact_search(self, sid, args, kwargs, result):
        self._counts["solvers.exact_search.nodes"] += _stat(result, "nodes") or 0

    def _after_lcs_dp(self, sid, args, kwargs, result):
        self._counts["solvers.lcs_dp.cells"] += _stat(result, "table_cells") or 0

    def _after_diagonal_conflict_solve(self, sid, args, kwargs, result):
        self._counts["solvers.diagonal_conflict_solve.candidates"] += _stat(result, "candidates") or 0
        self._counts["solvers.diagonal_conflict_solve.conflict_edges"] += (
            _stat(result, "conflict_edges") or 0)

    def _after_solve(self, sid, args, kwargs, result):
        self._routes[sid] = _stat(result, "solver")

    def _after_render_summary(self, sid, args, kwargs, result):
        spot = json.loads(result)["spot_checks"]
        self._counts["sweep.spot_check.sampled"] += spot["sampled"]
        self._counts["sweep.spot_check.verified"] += spot["verified"]

    def _aggregate(self) -> dict[str, float]:
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        dur = [e - s for s, e in zip(starts, ends)]
        child = [0] * len(names)
        for sid in range(1, len(names)):
            child[parents[sid]] += dur[sid]
        out: dict[str, float] = {}
        for name in span_names():
            out.update({f"{name}.calls": 0, f"{name}.total_s": 0.0, f"{name}.self_s": 0.0})
        for sid in range(1, len(names)):
            name = names[sid]
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += dur[sid] / 1e9
            out[f"{name}.self_s"] += (dur[sid] - child[sid]) / 1e9
        out.update(self._counts)

        def ancestor(sid: int, wanted) -> int:
            sid = parents[sid]
            while sid > 0 and not wanted(sid):
                sid = parents[sid]
            return sid

        spot = {sid for sid in range(1, len(names))
                if names[sid] in (SEARCH_IDENTITY, SEARCH_PAIR)
                and names[parents[sid]] == "sweep.run_sweep"}
        out["sweep.spot_check.total_s"] = sum(dur[sid] for sid in spot) / 1e9
        out["sweep.spot_check.mis_s"] = sum(
            dur[sid] for sid in range(1, len(names))
            if names[sid] == MIS and ancestor(sid, spot.__contains__) > 0) / 1e9

        routes = list(self._routes.values())
        for route in ("lcs_dp", "diagonal_conflict", "exact_search"):
            out[f"solvers.solve.route.{route}"] = routes.count(route)
        builds = {sid: 0 for sid, route in self._routes.items() if route == "diagonal_conflict"}
        for sid in range(1, len(names)):
            if names[sid] == "solvers.build_conflict_graph":
                owner = ancestor(sid, lambda s: names[s] == "solvers.solve")
                if owner in builds:
                    builds[owner] += 1
        out["solvers.build_conflict_graph.per_solve"] = (
            sum(builds.values()) / len(builds) if builds else 0.0)

        problems = {_graph_key(v, nb) for v, nb in self._mis_args}
        out["mis.calls_per_graph"] = len(self._mis_args) / len(problems) if problems else 0.0

        out["trace.wall_s"] = dur[0] / 1e9
        out["trace.self_sum_s"] = sum(d - c for d, c in zip(dur, child)) / 1e9
        out["trace.harness_self_s"] = (dur[0] - child[0]) / 1e9
        return out


def _graph_key(vertices, neighbors) -> tuple:
    """One independent-set problem: its vertex set and the edges inside it."""
    vs = frozenset(vertices)
    edges = frozenset(
        (min(u, v), max(u, v)) for v in vs for u in neighbors.get(v, ()) if u in vs and u != v)
    return vs, edges
