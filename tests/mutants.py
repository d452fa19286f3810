"""Mutants of ``src/arcseq``, kept with the tests that must tell them apart.

Each entry of :data:`MUTANTS` is one small edit: a file under
``src/arcseq``, an exact old text that occurs there once, its
replacement, the tests that should catch it, and what they do: "killed"
(some selected test fails) or "equivalent" (the edit keeps every behaviour,
so every selected test passes). ``tests/test_mutants.py`` checks that each
old text still occurs exactly once, so a refactor cannot make a mutant
silently inapplicable.

Run every mutant, or the named ones (standard library and pytest only):

    python tests/mutants.py [NAME ...]

Each run copies ``src/`` to a temporary directory, applies one mutant there
and runs its selection with ``pytest -x`` against the copy; the tree is not
written to. The exit status is 1 when some result differs from its entry's
expectation.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/arcseq
    old: str
    new: str
    selection: tuple[str, ...]  # pytest node ids, relative to the repository root
    expect: str  # "killed" or "equivalent"


_ENTRY_POINTS = "tests/test_reductions.py::test_budget_is_checked_at_every_entry_point"
_FLAGS = ("tests/test_solvers.py::TestConflictGraph::"
          "test_equal_sequences_flag_what_the_per_position_compare_flags")
_FRAME = "tests/test_reductions.py::TestBlockedFrame"
_VALUES = "tests/test_value_classes.py"
_CLASSIFY = "tests/test_core.py::TestClassifyStructure"
_ONE_SIDED = "tests/test_core.py::TestIsArcPreserving::test_one_sided_arc_not_preserved"
_TWO_READS = "tests/test_solvers.py::TestDeferredWitness::test_two_reads_return_one_witness"

MUTANTS = (
    Mutant(
        "budget-none-as-falsy",
        "solvers.py",
        "    if budget is None:\n        return DEFAULT_BUDGET\n",
        "    if not budget:\n        return DEFAULT_BUDGET\n",
        (_ENTRY_POINTS,),
        "killed",
    ),
    Mutant(
        "budget-type-unchecked",
        "solvers.py",
        "    if not isinstance(budget, SearchBudget):\n"
        '        raise ValidationError(f"budget must be None or a SearchBudget, got {budget!r}")\n',
        "",
        (_ENTRY_POINTS,),
        "killed",
    ),
    Mutant(
        "solve-skips-the-resolver",
        "solvers.py",
        '    """\n    budget = _resolve_budget(budget)\n    if not a1.arcs',
        '    """\n    if not a1.arcs',
        (f"{_ENTRY_POINTS}[solve]",),
        "killed",
    ),
    Mutant(
        "sweep-config-keeps-none",
        "sweep.py",
        "        self.search_budget = _resolve_budget(self.search_budget)\n",
        "        _resolve_budget(self.search_budget)\n",
        (f"{_ENTRY_POINTS}[SweepConfig]",),
        "killed",
    ),
    Mutant(
        "oracles-skip-the-theorem-check",
        "reductions.py",
        "        _check_theorem(theorem)\n        self.graph = g\n",
        "        self.graph = g\n",
        ("tests/test_reductions.py::TestCheckEquivalence::test_theorem_name_validated",),
        "killed",
    ),
    Mutant(
        "mis-cap-off-by-one",
        "reductions.py",
        "    if n > cap:\n",
        "    if n >= cap:\n",
        ("tests/test_reductions.py::TestMaxIndependentSet::test_budget",),
        "killed",
    ),
    Mutant(
        "root-keeps-isolated-candidates",
        "mis.py",
        "cand, size, chosen = touched, isolated.bit_count(), isolated\n",
        "cand, size, chosen = touched | isolated, isolated.bit_count(), isolated\n",
        ("tests/test_mis.py",),
        "killed",
    ),
    Mutant(
        "root-does-not-count-isolated",
        "mis.py",
        "cand, size, chosen = touched, isolated.bit_count(), isolated\n",
        "cand, size, chosen = touched, 0, isolated\n",
        ("tests/test_mis.py",),
        "killed",
    ),
    Mutant(
        "equal-sequence-flags-one-short",
        "solvers.py",
        r'flags = b"\1" * len(s1) if s1 == s2',
        r'flags = b"\1" * (len(s1) - 1) if s1 == s2',
        (_FLAGS,),
        "killed",
    ),
    Mutant(
        "flags-shortcut-on-equal-lengths",
        "solvers.py",
        r'flags = b"\1" * len(s1) if s1 == s2 else',
        r'flags = b"\1" * len(s1) if len(s1) == len(s2) else',
        (_FLAGS,),
        "killed",
    ),
    Mutant(
        "admission-skips-endpoints-in-use",
        "reductions.py",
        "_check(alpha not in in_use and beta not in in_use,",
        "_check(True,",
        (_FRAME,),
        "killed",
    ),
    Mutant(
        "admission-skips-the-a-check",
        "reductions.py",
        '_check(seq[alpha - 1] == "a" and seq[beta - 1] == "a",',
        "_check(True,",
        (_FRAME,),
        "killed",
    ),
    Mutant(
        "admission-skips-the-range-check",
        "reductions.py",
        "_check(1 <= alpha < beta <= length,",
        "_check(True,",
        (_FRAME,),
        "killed",
    ),
    Mutant(
        "reduction-skips-the-p1-count",
        "reductions.py",
        "_check(len(p1) == g.m + n,",
        "_check(True,",
        (_FRAME,),
        "killed",
    ),
    Mutant(
        "check-equivalence-skips-the-door",
        "reductions.py",
        "    if type(oracles) is not GraphOracles:\n"
        '        raise ValidationError(f"oracles must be a GraphOracles, got {oracles!r}")\n',
        "",
        ("tests/test_reductions.py::TestCheckEquivalence::test_oracles_are_the_only_door",),
        "killed",
    ),
    Mutant(
        "case-one-threshold-is-k",
        "reductions.py",
        'return "I", max(k, 2)',
        'return "I", k',
        ("tests/test_reductions.py::TestReduceTheorem2::"
         "test_degenerate_instances_never_reach_threshold",),
        "killed",
    ),
    Mutant(
        "answer-keys-every-case-under-none",
        "reductions.py",
        "        entry = self.cases.get(case)\n",
        "        entry = self.cases.get(case := None)\n",
        ("tests/test_reductions.py::TestCheckEquivalence::"
         "test_an_entry_is_kept_under_the_case_of_its_k",),
        "killed",
    ),
    Mutant(
        "exhaustive-mode-values-unchecked",
        "sweep.py",
        "count, p = self.random_count, self.edge_probability\n",
        "count, p = (self.random_count, self.edge_probability) if self.graph_source == "
        '"random" else (None, None)\n',
        ("tests/test_sweep.py::test_invalid_configs_rejected",),
        "killed",
    ),
    Mutant(
        "record-eq-ignores-the-type",
        "core.py",
        "        if other.__class__ is not self.__class__:\n",
        "        if not isinstance(other, _Record):\n",
        (f"{_VALUES}::test_equality_is_field_by_field_within_one_class",),
        "killed",
    ),
    Mutant(
        "record-hash-drops-a-field",
        "core.py",
        "        return hash(self._values())\n",
        "        return hash(self._values()[1:])\n",
        (f"{_VALUES}::test_frozen_classes_hash_their_field_values",),
        "killed",
    ),
    Mutant(
        "frozen-record-lets-an-assignment-through",
        "core.py",
        '        raise AttributeError(f"cannot assign to field {name!r}")\n',
        "        object.__setattr__(self, name, value)\n",
        (f"{_VALUES}::test_frozen_classes_reject_assignment_and_deletion",),
        "killed",
    ),
    Mutant(
        "classify-shared-endpoint-unchecked",
        "core.py",
        "        if p == last:\n            return StructureLevel.UNLIMITED\n",
        "",
        (f"{_CLASSIFY}::test_shared_endpoint_is_unlimited",),
        "killed",
    ),
    Mutant(
        "classify-nesting-never-flagged",
        "core.py",
        "                level = max(level, StructureLevel.NESTED)\n",
        "                pass\n",
        (f"{_CLASSIFY}::test_nested_arcs",),
        "killed",
    ),
    Mutant(
        "classify-crossing-never-flagged",
        "core.py",
        "            level = StructureLevel.CROSSING\n",
        "            pass\n",
        (f"{_CLASSIFY}::test_crossing_arcs",),
        "killed",
    ),
    Mutant(
        "arc-preserving-skips-p1",
        "core.py",
        "((a1.arcs, forward, a2.arcs), (a2.arcs, backward, a1.arcs))",
        "((a2.arcs, backward, a1.arcs),)",
        (_ONE_SIDED,),
        "killed",
    ),
    Mutant(
        "arc-preserving-skips-p2",
        "core.py",
        "((a1.arcs, forward, a2.arcs), (a2.arcs, backward, a1.arcs))",
        "((a1.arcs, forward, a2.arcs),)",
        (_ONE_SIDED,),
        "killed",
    ),
    Mutant(
        "budgets-compared-by-identity",
        "solvers.py",
        '"max_nodes", "mis_max_vertices")\n',
        '"max_nodes", "mis_max_vertices")\n    __eq__, __hash__ = object.__eq__, object.__hash__\n',
        ("tests/test_reductions.py::TestCheckEquivalence::"
         "test_equal_budgets_share_one_memo_entry",),
        "killed",
    ),
    Mutant(
        "lexmin-door-unchecked",
        "mis.py",
        "    if not (vertices is neighbors and isinstance(neighbors, NeighborMasks)):\n"
        '        raise ValidationError("the independent-set search takes (masks, masks), '
        'one NeighborMasks")\n',
        "",
        ("tests/test_mis.py::test_the_engine_takes_one_neighbor_masks_only",),
        "killed",
    ),
    Mutant(
        "neighbour-masks-one-bit-per-edge",
        "mis.py",
        "                masks[q - low] |= 1 << p - low\n",
        "",
        ("tests/test_solvers.py::TestConflictGraph::test_triangle_image",
         "tests/test_solvers.py::TestConflictGraph::"
         "test_a_large_map_reads_whole_and_misses_what_is_no_label"),
        "killed",
    ),
    Mutant(
        "neighbour-masks-keep-loops",
        "mis.py",
        "if p != q and low <= p",
        "if low <= p",
        ("tests/test_mis.py::test_neighbor_masks_is_a_read_only_mapping_of_full_neighbour_sets",),
        "killed",
    ),
    Mutant(
        "isolated-takes-a-vertex-with-neighbours",
        "mis.py",
        "isolated = (1 << len(order)) - 1 ^ touched\n",
        "isolated = (1 << len(order)) - 1 ^ touched & touched - 1\n",
        ("tests/test_mis.py::test_every_labelled_graph_up_to_n5",),
        "killed",
    ),
    Mutant(
        "alpha-takes-degree-two",
        "mis.py",
        "if not near & (near - 1):",
        "if near.bit_count() <= 2:",
        ("tests/test_mis.py::test_independence_number_on_every_labelled_graph_up_to_n6",),
        "killed",
    ),
    Mutant(
        "alpha-error-not-kept",
        "reductions.py",
        "            self.alpha = err.with_traceback(None)\n",
        "            raise\n",
        ("tests/test_reductions.py::TestCheckEquivalence::test_shared_oracles_give_the_same_rows",),
        "killed",
    ),
    Mutant(
        "lane-skipped-at-xor-equal-length",
        "solvers.py",
        "len(a1.arcs ^ a2.arcs) <= n:",
        "len(a1.arcs ^ a2.arcs) < n:",
        ("tests/test_solvers.py::TestSolveDispatch::test_certain_decline_skips_the_lane",),
        "killed",
    ),
    Mutant(
        "lane-prefix-unpadded",
        "solvers.py",
        'take, stats = _degree2_mis(flags.ljust(max(len(a1), len(a2)) + 1, b"\\0"), arcs)\n',
        "take, stats = _degree2_mis(flags, arcs)\n",
        ("tests/test_solvers.py::TestDiagonalConflictSolve::test_length_mismatch",),
        "killed",
    ),
    Mutant(
        "lane-declines-degree-two",
        "solvers.py",
        "        if dp | dq > 1:\n",
        "        if dp | dq > 0:\n",
        ("tests/test_solvers.py::TestCrossingPairsStayInTheLane",),
        "killed",
    ),
    Mutant(
        "conflict-graph-takes-every-position",
        "solvers.py",
        "return NeighborMasks(compress(count(), flags), arcs)\n",
        "return NeighborMasks(range(1, len(flags)), arcs)\n",
        ("tests/test_solvers.py::TestConflictGraph::test_length_mismatch",),
        "killed",
    ),
    Mutant(
        "deferred-witness-shifted",
        "solvers.py",
        "chosen = list(compress(count(), chosen))\n",
        "chosen = list(compress(count(1), chosen))\n",
        (_TWO_READS,),
        "killed",
    ),
    Mutant(
        "lane-witness-built-eagerly",
        "solvers.py",
        "return _trusted(SolveResult, length=take.count(1), stats=stats, _chosen=take)\n",
        "return SolveResult(\n"
        "        take.count(1), _identity_witness(list(compress(count(), take))), stats)\n",
        ("tests/test_solvers.py::TestDeferredWitness::"
         "test_sweeps_build_no_witness_and_the_cli_builds_one",),
        "killed",
    ),
    Mutant(
        "witness-rebuilt-on-every-read",
        "solvers.py",
        'return self.__dict__.setdefault("witness", _identity_witness(chosen))\n',
        "return _identity_witness(chosen)\n",
        (_TWO_READS,),
        "killed",
    ),
)


def run(mutant: Mutant) -> str:
    """Apply mutant to a copy of src/ and run its selection: "killed" when a
    selected test fails, "equivalent" when all pass.

    Raises:
        RuntimeError: the old text does not occur exactly once, or pytest
            neither passed nor failed (a usage error, or no test selected).
    """
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = src / "arcseq" / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise RuntimeError(f"{mutant.name}: the old text is not in {mutant.file} exactly once")
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.selection],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode
    if code not in (0, 1):
        raise RuntimeError(f"{mutant.name}: pytest exited with {code}")
    return "equivalent" if code == 0 else "killed"


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in chosen}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    failed = 0
    for mutant in chosen:
        start = time.perf_counter()
        result = run(mutant)
        ok = result == mutant.expect
        failed += not ok
        print(f"{'ok ' if ok else 'BAD'} {mutant.name}: {result} (expected {mutant.expect}), "
              f"{time.perf_counter() - start:.1f} s", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
