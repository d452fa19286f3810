"""Command-line behavior: outputs, file side effects, exit codes."""

import hashlib
import json
import random

import pytest

from arcseq import Graph, reduce_theorem1, reduce_theorem2
from arcseq.cli import main
from arcseq.formats import (
    load_annotated_sequence,
    save_annotated_sequence,
    save_graph,
    write_annotated_sequence,
)
from arcseq.reductions import EquivalenceReport

TRIANGLE = Graph(3, {(1, 2), (1, 3), (2, 3)})


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.col"
    save_graph(TRIANGLE, path)
    return path


class TestClassify:
    def test_plain(self, tmp_path, capsys):
        path = tmp_path / "seq.txt"
        path.write_text("abcde\n")
        assert main(["classify", str(path)]) == 0
        assert capsys.readouterr().out == "plain\n"

    def test_chain_from_blocked_reduction(self, tmp_path, capsys):
        inst = reduce_theorem2(Graph(2, {(1, 2)}), 1)
        path = tmp_path / "a2.txt"
        save_annotated_sequence(inst.a2, path)
        assert main(["classify", str(path)]) == 0
        assert capsys.readouterr().out == "chain\n"

    def test_unlimited_from_single_letter_reduction(self, tmp_path, capsys):
        inst = reduce_theorem1(TRIANGLE, 1)
        path = tmp_path / "a1.txt"
        save_annotated_sequence(inst.a1, path)
        assert main(["classify", str(path)]) == 0
        assert capsys.readouterr().out == "unlimited\n"

    def test_parse_failure_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("abc\n1 2 3\n")
        assert main(["classify", str(path)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path):
        assert main(["classify", str(tmp_path / "nope.txt")]) == 1

    def test_undecodable_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"ab\xff\n")
        assert main(["classify", str(path)]) == 1
        assert capsys.readouterr().err == "arcseq: error: not UTF-8 text: byte 0xff at offset 2\n"


class TestSolve:
    def test_unconstrained_lcs(self, tmp_path, capsys):
        f1, f2 = tmp_path / "s1.txt", tmp_path / "s2.txt"
        f1.write_text("abcbdab\n")
        f2.write_text("bdcaba\n")
        assert main(["solve", str(f1), str(f2), "--unconstrained"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "4"
        assert lines[1:] == ["2 1", "3 3", "4 5", "6 6"]

    def test_fragment_one_on_reduced_triangle(self, tmp_path, capsys):
        inst = reduce_theorem1(TRIANGLE, 1)
        f1, f2 = tmp_path / "a1.txt", tmp_path / "a2.txt"
        save_annotated_sequence(inst.a1, f1)
        save_annotated_sequence(inst.a2, f2)
        assert main(["solve", str(f1), str(f2), "--fragment", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "1"

    def test_single_letter_files(self, tmp_path, capsys):
        f = tmp_path / "one.txt"
        f.write_text("a\n")
        assert main(["solve", str(f), str(f), "--fragment", "1"]) == 0
        assert capsys.readouterr().out == "1\n1 1\n"

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        # Read as a letter, the mark would shift every position by one.
        f1, f2 = tmp_path / "bom.txt", tmp_path / "plain.txt"
        f1.write_bytes(b"\xef\xbb\xbfab\n1 2\n")
        f2.write_bytes(b"ab\n1 2\n")
        assert main(["solve", str(f1), str(f2), "--fragment", "1"]) == 0
        assert capsys.readouterr().out == "2\n1 1\n2 2\n"

    def test_constraint_flag_required(self, tmp_path, capsys):
        f = tmp_path / "s.txt"
        f.write_text("ab\n")
        assert main(["solve", str(f), str(f)]) == 1

    def test_budget_exit_code(self, tmp_path, capsys):
        f = tmp_path / "s.txt"
        f.write_text("aaaa\n1 2\n")
        assert main(["solve", str(f), str(f), "--unconstrained", "--budget-nodes", "1"]) == 2
        assert "budget" in capsys.readouterr().err

    def test_negative_node_budget_is_an_error(self, tmp_path, capsys):
        f = tmp_path / "s.txt"
        f.write_text("F\n")
        assert main(["solve", str(f), str(f), "--unconstrained", "--budget-nodes", "-3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("arcseq: error: ") and "max_nodes" in err

    def test_repeated_calls_behave_as_fresh_ones(self, tmp_path, capsys):
        inst = reduce_theorem1(TRIANGLE, 1)
        f1, f2 = tmp_path / "a1.txt", tmp_path / "a2.txt"
        save_annotated_sequence(inst.a1, f1)
        save_annotated_sequence(inst.a2, f2)
        assert main(["solve", str(f1), str(f2), "--fragment", "1"]) == 0
        first = capsys.readouterr().out
        assert main(["solve", str(f1), str(f2), "--diagonal", "0"]) == 0
        assert capsys.readouterr().out == first
        assert main(["solve", str(f1), str(f2)]) == 1
        assert "one of the arguments" in capsys.readouterr().err
        assert main(["solve", str(f1), str(f2), "--fragment", "1"]) == 0
        assert capsys.readouterr().out == first


def _canonical_file(path, seq, arcs):
    """Write seq and its arcs in the writer's form, without calling the writer."""
    path.write_text(seq + "\n" + "".join(f"{i} {j}\n" for i, j in sorted(arcs)))
    return str(path)


def _crossing_arcs(rng, n):
    """Arcs pairing up a random 60% of positions 1..n: crossing, no shared ends."""
    ends = rng.sample(range(1, n + 1), n * 3 // 5)
    return [(min(ends[k], ends[k + 1]), max(ends[k], ends[k + 1])) for k in range(0, len(ends), 2)]


class TestSolveOutputIsPinned:
    # sha256 of the whole stdout of `arcseq solve`, captured before the parse
    # fast path, the walk that skips trivial components and the one-join
    # witness text; they must not move a byte.
    def _digest(self, capsys, argv):
        assert main(argv) == 0
        return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()

    def test_crossing_pair_under_fragment_one(self, tmp_path, capsys):
        rng = random.Random(20_000)
        s1 = "".join(rng.choice("acgu") for _ in range(20_000))
        s2 = "".join(ch if rng.random() < 0.9 else rng.choice("acgu") for ch in s1)
        f1 = _canonical_file(tmp_path / "a1.txt", s1, _crossing_arcs(rng, 20_000))
        f2 = _canonical_file(tmp_path / "a2.txt", s2, _crossing_arcs(rng, 20_000))
        assert self._digest(capsys, ["solve", f1, f2, "--fragment", "1"]) == (
            "0a2f8271e74e1dde9c8a8a73b5751c2b30060832763ec7e39bc3906bcde61d9d"
        )

    def test_unconstrained_lcs_pair(self, tmp_path, capsys):
        rng = random.Random(300)
        f1, f2 = (
            _canonical_file(tmp_path / f"s{k}.txt", "".join(rng.choice("acgu") for _ in range(300)), ())
            for k in (1, 2)
        )
        assert self._digest(capsys, ["solve", f1, f2, "--unconstrained"]) == (
            "f83f942da215f6982cef58a26edcc861092c51a8bda80d8a632776dde92b839c"
        )


class TestReduce:
    def test_theorem2_writes_instance_files(self, tmp_path, capsys, triangle_file):
        prefix = tmp_path / "out" / "tri"
        assert main(["reduce", str(triangle_file), "1", "--theorem", "2",
                     "--out", str(prefix)]) == 0
        assert capsys.readouterr().out == "threshold 5\n"
        inst = reduce_theorem2(TRIANGLE, 1)
        assert load_annotated_sequence(tmp_path / "out" / "tri.a1.txt") == inst.a1
        assert load_annotated_sequence(tmp_path / "out" / "tri.a2.txt") == inst.a2

    def test_theorem1(self, tmp_path, capsys, triangle_file):
        prefix = tmp_path / "t1"
        assert main(["reduce", str(triangle_file), "2", "--theorem", "1",
                     "--out", str(prefix)]) == 0
        assert capsys.readouterr().out == "threshold 2\n"
        a1 = load_annotated_sequence(tmp_path / "t1.a1.txt")
        assert a1.seq == "aaa" and a1.arcs == TRIANGLE.edges

    def test_graph_file_with_byte_order_mark(self, tmp_path, capsys):
        path = tmp_path / "bom.col"
        path.write_bytes(b"\xef\xbb\xbfp edge 3 3\ne 1 2\ne 1 3\ne 2 3\n")
        assert main(["reduce", str(path), "2", "--theorem", "1",
                     "--out", str(tmp_path / "t1")]) == 0
        assert capsys.readouterr().out == "threshold 2\n"

    def test_written_files_match_canonical_form(self, tmp_path, triangle_file):
        prefix = tmp_path / "c"
        main(["reduce", str(triangle_file), "1", "--theorem", "2", "--out", str(prefix)])
        text = (tmp_path / "c.a1.txt").read_text()
        assert text == write_annotated_sequence(reduce_theorem2(TRIANGLE, 1).a1)

    def test_invalid_k(self, tmp_path, triangle_file, capsys):
        assert main(["reduce", str(triangle_file), "0", "--theorem", "2",
                     "--out", str(tmp_path / "x")]) == 1


class TestVerify:
    def test_triangle_counterexample_row(self, capsys, triangle_file):
        assert main(["verify", str(triangle_file), "2", "--theorem", "2"]) == 0
        assert capsys.readouterr().out == (
            "graph_id=triangle n=3 m=3 connected=true k=2 is_answer=false "
            "lapcs_len=12 threshold=10 lapcs_answer=true forward_ok=true "
            "backward_ok=false\n"
        )

    def test_theorem1_full_row(self, capsys, triangle_file):
        assert main(["verify", str(triangle_file), "2", "--theorem", "1"]) == 0
        assert capsys.readouterr().out == (
            "graph_id=triangle n=3 m=3 connected=true k=2 is_answer=false "
            "lapcs_len=1 threshold=2 lapcs_answer=false forward_ok=true "
            "backward_ok=true\n"
        )

    def test_theorem1_row(self, capsys, triangle_file):
        assert main(["verify", str(triangle_file), "1", "--theorem", "1"]) == 0
        out = capsys.readouterr().out
        assert "is_answer=true" in out and "lapcs_answer=true" in out

    def test_row_over_the_node_budget_prints_skipped_cells(self, tmp_path, capsys):
        path = tmp_path / "star.col"
        save_graph(Graph(4, {(1, 2), (1, 3), (1, 4)}), path)
        assert main(["verify", str(path), "1", "--theorem", "1", "--budget-nodes", "1"]) == 2
        assert capsys.readouterr().out == (
            "graph_id=star n=4 m=3 connected=true k=1 is_answer=skipped "
            "lapcs_len=skipped threshold=1 lapcs_answer=skipped forward_ok=skipped "
            "backward_ok=skipped\n"
        )

    def test_undecodable_graph_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.col"
        path.write_bytes(b"p edge 2 1\ne 1 2\n\xc3")
        assert main(["verify", str(path), "1", "--theorem", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("arcseq: error: not UTF-8 text")


class TestSweep:
    def test_exhaustive_t1(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(["sweep", "--theorem", "1", "--n-max", "2", "--out", str(out)])
        assert code == 0
        assert out.exists() and out.with_suffix(".summary.json").exists()
        stdout = capsys.readouterr().out
        assert "rows=5" in stdout  # 1 graph at n=1 (k=1) + 2 graphs at n=2 (k=1,2)

    def test_strict_flags_counterexamples(self, tmp_path):
        out = tmp_path / "t2.csv"
        args = ["sweep", "--theorem", "2", "--n-min", "3", "--n-max", "3",
                "--out", str(out)]
        assert main(args) == 0
        assert main(args + ["--strict"]) == 3

    def test_budget_exit(self, tmp_path):
        out = tmp_path / "b.csv"
        code = main(["sweep", "--theorem", "1", "--n-min", "4", "--n-max", "4",
                     "--out", str(out), "--budget-nodes", "1"])
        assert code == 2

    def test_default_independent_set_cap(self, tmp_path, capsys):
        # No option sets the independent-set cap, so each row of a 21-vertex
        # graph is skipped under the default budget's cap of 20: exit code
        # 2, the counts line and the files, the bytes ce2a952 wrote.
        out = tmp_path / "r21.csv"
        code = main(["sweep", "--theorem", "1", "--n-min", "21", "--n-max", "21",
                     "--random", "2", "--edge-prob", "0.5", "--seed", "1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().out == (
            "rows=42 skipped=42 forward_failures=0 backward_failures=0\n"
        )
        summary_path = out.with_suffix(".summary.json")
        summary = json.loads(summary_path.read_text())
        assert summary["config"]["budget"]["mis_max_vertices"] == 20
        assert {r["reason"] for r in summary["skipped_rows"]} == {
            "graph with 21 vertices exceeds independent-set budget 20"
        }
        assert [hashlib.sha256(path.read_bytes()).hexdigest() for path in (out, summary_path)] == [
            "811b5494d25977f12aec1e4c14162cda51df532e25a6739410fa32420b3e300d",
            "51360d07b9b468e25fae497ddc6bd701cdae8b64104dd79a27645021e59209cc",
        ]

    @pytest.mark.parametrize(
        "flags,line,code",
        [
            (["--theorem", "2", "--n-max", "3", "--strict"],
             "rows=29 skipped=0 forward_failures=0 backward_failures=1", 3),
            (["--theorem", "1", "--n-max", "4", "--budget-nodes", "1"],
             "rows=285 skipped=92 forward_failures=0 backward_failures=0", 2),
        ],
    )
    def test_printed_counts_and_exit_code(self, tmp_path, capsys, flags, line, code):
        assert main(["sweep", *flags, "--out", str(tmp_path / "s.csv")]) == code
        assert capsys.readouterr().out == line + "\n"

    def test_summary_is_built_once(self, tmp_path, monkeypatch):
        # The summary file reads the counterexample rows as tuples, so the
        # payload is built once, through _summary_rows, with no dict per row.
        calls = []

        def counted(report, _method=EquivalenceReport._summary_rows):
            calls.append(report)
            return _method(report)

        monkeypatch.setattr(EquivalenceReport, "_summary_rows", counted)
        main(["sweep", "--theorem", "2", "--n-max", "3", "--out", str(tmp_path / "s.csv")])
        assert len(calls) == 1

    def test_random_mode_requires_seed(self, tmp_path, capsys):
        code = main(["sweep", "--theorem", "1", "--n-max", "3", "--random", "5",
                     "--edge-prob", "0.5", "--out", str(tmp_path / "r.csv")])
        assert code == 1
        assert "seed" in capsys.readouterr().err

    def test_random_mode(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(["sweep", "--theorem", "2", "--n-min", "2", "--n-max", "3",
                     "--random", "4", "--edge-prob", "0.3", "--seed", "7",
                     "--out", str(out)])
        assert code == 0
        summary = json.loads(out.with_suffix(".summary.json").read_text())
        assert summary["rows"] == 4 * 2 + 4 * 3

    def test_exhaustive_cap(self, tmp_path, capsys):
        code = main(["sweep", "--theorem", "2", "--n-max", "5",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "capped" in capsys.readouterr().err

    def test_zero_exhaustive_cap_rejected(self, tmp_path, capsys):
        code = main(["sweep", "--theorem", "1", "--n-max", "3", "--max-exhaustive-n", "0",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "max_exhaustive_n" in capsys.readouterr().err

    def test_non_integer_k_is_a_usage_error(self, tmp_path, capsys):
        code = main(["sweep", "--theorem", "1", "--n-max", "2", "--k", "foo",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("arcseq: error: argument --k")
        assert not (tmp_path / "x.csv").exists()


class TestUsage:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_no_command(self):
        assert main([]) == 1

    def test_bad_flag_value(self, tmp_path):
        f = tmp_path / "s.txt"
        f.write_text("ab\n")
        assert main(["solve", str(f), str(f), "--fragment", "zero"]) == 1
