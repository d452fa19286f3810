"""Text format round-trips and parse diagnostics."""

import pytest

from arcseq import AnnotatedSequence, FormatError, Graph, ValidationError
from arcseq.formats import (
    load_annotated_sequence,
    load_graph,
    parse_annotated_sequence,
    parse_graph,
    save_annotated_sequence,
    save_graph,
    write_annotated_sequence,
    write_graph,
)


class TestAnnotatedSequenceFormat:
    def test_canonical_output(self):
        a = AnnotatedSequence("baabbaab", {(5, 8), (1, 4), (3, 6)})
        assert write_annotated_sequence(a) == "baabbaab\n1 4\n3 6\n5 8\n"

    def test_round_trip(self):
        a = AnnotatedSequence("baabbaab", {(1, 4), (5, 8), (3, 6)})
        text = write_annotated_sequence(a)
        parsed = parse_annotated_sequence(text)
        assert parsed == a
        assert write_annotated_sequence(parsed) == text

    def test_no_arc_file(self):
        assert parse_annotated_sequence("abc\n") == AnnotatedSequence("abc")

    def test_empty_sequence(self):
        a = AnnotatedSequence("")
        assert parse_annotated_sequence(write_annotated_sequence(a)) == a

    def test_comments_and_blank_lines_ignored(self):
        text = "abcd\n\n# a comment\n1 3\n\n2 4\n"
        assert parse_annotated_sequence(text).arcs == frozenset({(1, 3), (2, 4)})

    def test_first_line_is_sequence_even_if_it_looks_special(self):
        assert parse_annotated_sequence("#ab\n").seq == "#ab"

    def test_tolerates_missing_trailing_newline(self):
        assert parse_annotated_sequence("ab\n1 2").arcs == frozenset({(1, 2)})

    def test_empty_file_rejected(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_annotated_sequence("")

    def test_bad_token_count(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_annotated_sequence("abc\n1 2 3\n")

    def test_non_integer_endpoint(self):
        with pytest.raises(FormatError, match="line 3"):
            parse_annotated_sequence("abc\n\n1 x\n")

    def test_out_of_range_arc_rejected(self):
        with pytest.raises(FormatError):
            parse_annotated_sequence("abc\n1 9\n")

    def test_newline_in_sequence_unserializable(self):
        # Every line boundary of str.splitlines, which the parser splits on.
        for seq in ("a\nb", "a\rb", "a\r\nb", "ab\r", "ab\x0bcd", "ab\x0ccd", "ab\x1ccd",
                    "ab\x1dcd", "ab\x1ecd", "ab\x85cd", "ab\u2028cd", "ab\u2029cd"):
            with pytest.raises(ValidationError):
                write_annotated_sequence(AnnotatedSequence(seq, {(1, len(seq))}))

    def test_file_round_trip(self, tmp_path):
        a = AnnotatedSequence("abba", {(1, 4)})
        path = tmp_path / "seq.txt"
        save_annotated_sequence(a, path)
        assert load_annotated_sequence(path) == a

    def test_files_are_utf8(self, tmp_path):
        a = AnnotatedSequence("αβγ", {(1, 3)})
        path = tmp_path / "seq.txt"
        save_annotated_sequence(a, path)
        assert path.read_bytes() == "αβγ\n1 3\n".encode("utf-8")
        assert load_annotated_sequence(path) == a

    def test_undecodable_file_is_a_format_error(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_bytes(b"ab\xff\n")
        with pytest.raises(FormatError, match="not UTF-8 text: byte 0xff at offset 2"):
            load_annotated_sequence(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_bytes(b"\xef\xbb\xbfabc\n1 3\n")
        assert load_annotated_sequence(path) == AnnotatedSequence("abc", {(1, 3)})
        # The offset of a bad byte still counts the mark's three bytes.
        path.write_bytes(b"\xef\xbb\xbfab\xff\n")
        with pytest.raises(FormatError, match="byte 0xff at offset 5"):
            load_annotated_sequence(path)

    def test_unencodable_sequence_unserializable(self, tmp_path):
        a = AnnotatedSequence("a\ud800b", {(1, 3)})
        path = tmp_path / "seq.txt"
        with pytest.raises(ValidationError, match="not UTF-8 encodable"):
            save_annotated_sequence(a, path)
        assert not path.exists()


class TestGraphFormat:
    def test_canonical_output(self):
        g = Graph(3, {(2, 3), (1, 2)})
        assert write_graph(g) == "p edge 3 2\ne 1 2\ne 2 3\n"

    def test_round_trip(self):
        g = Graph(4, {(1, 2), (3, 4), (1, 4)})
        text = write_graph(g)
        assert parse_graph(text) == g
        assert write_graph(parse_graph(text)) == text

    def test_comments_and_blanks(self):
        text = "c made by hand\n\np edge 3 1\nc mid comment\ne 3 1\n"
        assert parse_graph(text) == Graph(3, {(1, 3)})

    def test_edgeless(self):
        assert parse_graph("p edge 5 0\n") == Graph(5)

    def test_missing_header(self):
        with pytest.raises(FormatError, match="header"):
            parse_graph("c nothing here\n")

    def test_edge_before_header(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_graph("e 1 2\np edge 2 1\n")

    def test_duplicate_header(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_graph("p edge 2 0\np edge 2 0\n")

    def test_loop_rejected(self):
        with pytest.raises(FormatError, match="loop"):
            parse_graph("p edge 2 1\ne 1 1\n")

    def test_endpoint_out_of_range(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_graph("p edge 2 1\ne 1 3\n")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(FormatError, match="duplicate edge"):
            parse_graph("p edge 3 2\ne 1 2\ne 2 1\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(FormatError, match="declares 2"):
            parse_graph("p edge 3 2\ne 1 2\n")

    def test_unknown_line_type(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_graph("p edge 2 0\nq whatever\n")

    def test_malformed_header(self):
        with pytest.raises(FormatError, match="p edge N M"):
            parse_graph("p graph 2 0\n")

    def test_file_round_trip(self, tmp_path):
        g = Graph(3, {(1, 2), (2, 3)})
        path = tmp_path / "g.col"
        save_graph(g, path)
        assert path.read_bytes() == write_graph(g).encode("utf-8")
        assert load_graph(path) == g

    def test_undecodable_file_is_a_format_error(self, tmp_path):
        path = tmp_path / "g.col"
        path.write_bytes(b"c \xe9t\xe9 latin-1\np edge 2 0\n")
        with pytest.raises(FormatError, match="not UTF-8 text: byte 0xe9 at offset 2"):
            load_graph(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "g.col"
        path.write_bytes(b"\xef\xbb\xbfp edge 3 1\ne 1 2\n")
        assert load_graph(path) == Graph(3, {(1, 2)})
