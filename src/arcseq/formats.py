"""Text formats for annotated sequences and graphs.

Annotated sequence (one instance per file):
    line 1          the sequence itself, verbatim
    following lines "i j" declaring an arc (1-based, whitespace-separated)
    '#'-prefixed and blank lines are ignored from line 2 onward

Graph (DIMACS-like):
    "c ..."         comment
    "p edge N M"    header, exactly once, before any edge line
    "e I J"         one line per edge

Writers emit a canonical form (arcs/edges sorted ascending, single spaces,
trailing newline) so write -> parse -> write is byte-identical. The grammar
is the same for every file, but a sequence file whose arc lines are all in
the canonical form ("i j" with 1 <= i < j <= length, ASCII digits without a
leading zero, one space, every line ended by "\n") is parsed in bulk. Any
other text takes the line-by-line parser; both give the same results, error
messages and line numbers. Files are UTF-8 whatever the locale: a leading
byte-order mark is skipped on reading and never written, and a file that
does not decode raises FormatError.
"""

from __future__ import annotations

import json
import re
from itertools import chain
from pathlib import Path

from .core import AnnotatedSequence, _arcs_from_ends, _trusted
from .errors import FormatError, ValidationError
from .reductions import Graph

__all__ = [
    "write_annotated_sequence",
    "parse_annotated_sequence",
    "load_annotated_sequence",
    "save_annotated_sequence",
    "write_graph",
    "parse_graph",
    "load_graph",
    "save_graph",
]


# The arc lines of a canonical file: "i j\n", each a positive integer of at
# most 18 ASCII digits without a leading zero, one space, every line ended.
_CANONICAL_ARC_LINES = re.compile(r"(?:[1-9][0-9]{0,17} [1-9][0-9]{0,17}\n)*")


def _pair_lines(pairs: list[tuple[int, int]] | tuple[tuple[int, int], ...]) -> str:
    """One "i j\n" line per pair, in order, from one % over the flattened ends."""
    return "%s %s\n" * len(pairs) % tuple(chain.from_iterable(pairs))


def write_annotated_sequence(a: AnnotatedSequence) -> str:
    # The parser splits with str.splitlines, so the sequence line may hold
    # none of the characters it breaks on (\v, \f, \x85, \u2028, ... too).
    if a.seq and a.seq.splitlines() != [a.seq]:
        raise ValidationError("sequences containing line breaks cannot be serialized")
    try:
        a.seq.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValidationError(
            f"sequence is not UTF-8 encodable: {exc.reason} at position {exc.start + 1}"
        ) from None
    return a.seq + "\n" + _pair_lines(sorted(a.arcs))


def parse_annotated_sequence(text: str) -> AnnotatedSequence:
    seq, newline, body = text.partition("\n")
    if newline and (not seq or seq.splitlines() == [seq]) and _CANONICAL_ARC_LINES.fullmatch(body):
        # The arc lines as one JSON array: json's scanner reads the numbers
        # in C, about twice as fast as int() on each split token.
        ends = json.loads("[%s]" % body[:-1].replace(" ", ",").replace("\n", ","))
        arcs = _arcs_from_ends(ends[::2], ends[1::2], len(seq))
        if arcs is not None:
            return _trusted(AnnotatedSequence, seq=seq, arcs=arcs)
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty file; expected a sequence on line 1", line=1)
    seq = lines[0]
    arcs = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"expected 'i j', got {raw!r}", line=lineno)
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"non-integer arc endpoint in {raw!r}", line=lineno)
        arcs.append((i, j))
    try:
        return AnnotatedSequence(seq, arcs)
    except ValidationError as exc:
        raise FormatError(str(exc)) from exc


def _read_text(path: str | Path) -> str:
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.object lacks the byte-order mark, if the file starts with one.
        at = exc.start + len(data) - len(exc.object)
        raise FormatError(f"not UTF-8 text: byte {data[at]:#04x} at offset {at}") from None


def load_annotated_sequence(path: str | Path) -> AnnotatedSequence:
    return parse_annotated_sequence(_read_text(path))


def save_annotated_sequence(a: AnnotatedSequence, path: str | Path) -> None:
    Path(path).write_text(write_annotated_sequence(a), encoding="utf-8")


def write_graph(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {i} {j}" for i, j in sorted(g.edges))
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    n = None
    declared_m = 0
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "c":
            continue
        if parts[0] == "p":
            if n is not None:
                raise FormatError("duplicate 'p' header", line=lineno)
            if len(parts) != 4 or parts[1] != "edge":
                raise FormatError(f"expected 'p edge N M', got {raw!r}", line=lineno)
            try:
                n, declared_m = int(parts[2]), int(parts[3])
            except ValueError:
                raise FormatError(f"non-integer header field in {raw!r}", line=lineno)
            if n < 0 or declared_m < 0:
                raise FormatError("negative count in header", line=lineno)
        elif parts[0] == "e":
            if n is None:
                raise FormatError("edge line before 'p' header", line=lineno)
            if len(parts) != 3:
                raise FormatError(f"expected 'e I J', got {raw!r}", line=lineno)
            try:
                i, j = int(parts[1]), int(parts[2])
            except ValueError:
                raise FormatError(f"non-integer endpoint in {raw!r}", line=lineno)
            if i == j:
                raise FormatError(f"loop at vertex {i}", line=lineno)
            if not (1 <= i <= n and 1 <= j <= n):
                raise FormatError(f"endpoint outside 1..{n}", line=lineno)
            edge = (min(i, j), max(i, j))
            if edge in edges:
                raise FormatError(f"duplicate edge {edge}", line=lineno)
            edges.add(edge)
        else:
            raise FormatError(f"unknown line type {parts[0]!r}", line=lineno)
    if n is None:
        raise FormatError("missing 'p edge N M' header")
    if len(edges) != declared_m:
        raise FormatError(f"header declares {declared_m} edges but file has {len(edges)}")
    return Graph(n, frozenset(edges))


def load_graph(path: str | Path) -> Graph:
    return parse_graph(_read_text(path))


def save_graph(g: Graph, path: str | Path) -> None:
    Path(path).write_text(write_graph(g), encoding="utf-8")
