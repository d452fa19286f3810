"""Data model for arc-annotated sequences.

An arc-annotated sequence is a string together with a set of arcs, each arc
linking two of its positions. Positions are 1-based everywhere in the public
API. Arc sets fall into five structure levels, from most to least
restrictive:

    plain     -- no arcs at all
    chain     -- arcs are pairwise disjoint and sequentially ordered
    nested    -- arcs may nest but never cross and never share endpoints
    crossing  -- arcs may cross but never share endpoints
    unlimited -- anything goes

Each level is defined by which of four restrictions hold (no endpoint
sharing, no crossing, no nesting, no arcs); one pass over the sorted
endpoints decides them, and :func:`classify_structure` reports the
strictest level whose full restriction set holds. ``tests/oracles.py``
keeps the restrictions in their quantifier forms.

A common subsequence of two annotated sequences is represented by a
:class:`Mapping`: an order-preserving partial matching between positions.
The mapping preserves arcs when matched position pairs carry an arc on one
side exactly when they do on the other; see :func:`is_arc_preserving`.
Matches can additionally be restricted by a :class:`MatchConstraint`
(same-fragment or diagonal-band matching).
"""

from __future__ import annotations

from collections.abc import Iterable
from enum import IntEnum
from operator import lt

from .errors import ValidationError

__all__ = [
    "Arc",
    "AnnotatedSequence",
    "StructureLevel",
    "Mapping",
    "MatchConstraint",
    "classify_structure",
    "is_arc_preserving",
    "validate_mapping",
]

Arc = tuple[int, int]


def _require_int(value, what: str) -> None:
    """Reject a position, width, count or size that is not an int.

    A bool is not one here, nor is a float with an integral value.

    Raises:
        ValidationError: type(value) is not int.
    """
    if type(value) is not int:
        raise ValidationError(f"{what} must be an integer, got {value!r}")


class _Record:
    """A frozen value whose fields are named, in order, by the class's
    ``_fields``; the constructor checks its arguments and stores the fields
    in the instance ``__dict__``.

    ``==`` compares the fields of two instances of one class and leaves any
    other operand to NotImplemented, the hash is the field tuple's, the repr
    names each field, and assigning or deleting an attribute raises
    AttributeError, as for ``@dataclass(frozen=True)``.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _MutableRecord(_Record):
    """A :class:`_Record` whose fields can be assigned and deleted, and so,
    as for ``@dataclass``, with no hash."""

    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__


def _trusted(cls, **fields):
    """A :class:`_Record` instance from canonical fields, skipping its checks.

    Only for values valid by construction: ``__init__`` does not run. The
    public constructors keep every check.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


class StructureLevel(IntEnum):
    """Arc-structure levels, ordered from most to least restrictive.

    The integer value is the permissiveness rank, so ``level_a <= level_b``
    means every arc set at level_a is also acceptable at level_b.
    """

    PLAIN = 0
    CHAIN = 1
    NESTED = 2
    CROSSING = 3
    UNLIMITED = 4

    def is_within(self, other: "StructureLevel") -> bool:
        """True if this level's arc sets are all permitted at `other`."""
        return self <= other

    def __str__(self) -> str:
        return self.name.lower()


def _arcs_from_ends(lo: list[int], hi: list[int], n: int) -> frozenset[Arc] | None:
    """The arcs zip(lo, hi) as one frozenset, or None unless each has
    1 <= lo < hi <= n.

    The frozenset is copied from a set filled in arc order, exactly as
    :func:`_canonical_arcs`' loop fills it, so it iterates in the same order.
    """
    if lo and (min(lo) < 1 or max(hi) > n or not all(map(lt, lo, hi))):
        return None
    return frozenset(set(zip(lo, hi)))


def _canonical_arcs(arcs: Iterable[Arc], n: int) -> frozenset[Arc]:
    """Normalize arcs to (min, max) pairs and validate endpoints.

    Duplicate and reversed duplicates merge silently; non-integer endpoints,
    (i, i) self-pairs and out-of-range endpoints are rejected.
    """
    canon = set()
    for arc in arcs:
        i, j = arc
        if type(i) is not int or type(j) is not int:
            raise ValidationError(f"arc ({i!r}, {j!r}) has a non-integer endpoint")
        if i == j:
            raise ValidationError(f"arc ({i}, {j}) links a position to itself")
        if i > j:
            i, j = j, i
        if i < 1 or j > n:
            raise ValidationError(f"arc ({i}, {j}) outside positions 1..{n}")
        canon.add((i, j))
    return frozenset(canon)


class AnnotatedSequence(_Record):
    """A sequence plus a set of arcs linking pairs of its positions.

    Arcs are canonicalized on construction: stored as (i, j) with i < j,
    deduplicated, endpoints validated against the sequence length. Instances
    are immutable.
    """

    _fields = ("seq", "arcs")

    def __init__(self, seq: str, arcs: Iterable[Arc] = frozenset()):
        self.__dict__.update(seq=seq, arcs=_canonical_arcs(arcs, len(seq)))

    def __len__(self) -> int:
        return len(self.seq)

    def base(self, i: int) -> str:
        """Letter at 1-based position i."""
        return self.seq[i - 1]

    def structure(self) -> StructureLevel:
        return classify_structure(self.arcs, len(self.seq))


def classify_structure(arcs: Iterable[Arc], n: int) -> StructureLevel:
    """Strictest structure level whose defining restrictions all hold.

    The restrictions are cumulative: chain requires no endpoint sharing, no
    crossing, and no nesting; nested drops the no-nesting requirement;
    crossing requires only no endpoint sharing. An empty arc set is plain.
    One sort of the 2|P| endpoints decides them: a repeated position is
    unlimited, a right end that does not close the innermost open arc is
    crossing, and an arc that opens while another is open is nested.

    Raises:
        ValidationError: endpoint outside 1..n or a self-pair.
    """
    canon = _canonical_arcs(arcs, n)
    if not canon:
        return StructureLevel.PLAIN
    level = StructureLevel.CHAIN
    open_arcs: list[Arc] = []
    last = 0
    for p, arc in sorted((p, arc) for arc in canon for p in arc):
        if p == last:
            return StructureLevel.UNLIMITED
        last = p
        if p == arc[0]:
            if open_arcs:
                level = max(level, StructureLevel.NESTED)
            open_arcs.append(arc)
        elif open_arcs.pop() != arc:
            level = StructureLevel.CROSSING
    return level


class Mapping(_Record):
    """Order-preserving bijective partial matching between two sequences.

    `pairs` holds (i, j) position pairs, strictly increasing in both
    coordinates once sorted by i. Construction validates the structural
    invariants; agreement of the matched letters is relative to a pair of
    sequences and is checked by :func:`validate_mapping`.
    """

    _fields = ("pairs",)

    def __init__(self, pairs: Iterable[tuple[int, int]]):
        # Types first: sorting pairs of mixed types would raise TypeError.
        pairs = tuple(pairs)
        for i, j in pairs:
            if type(i) is not int or type(j) is not int:
                raise ValidationError(f"mapping pair ({i!r}, {j!r}) has a non-integer position")
        ordered = tuple(sorted(pairs))
        prev_i, prev_j = 0, 0
        for i, j in ordered:
            if i < 1 or j < 1:
                raise ValidationError(f"mapping pair ({i}, {j}) has a position < 1")
            if i <= prev_i or j <= prev_j:
                raise ValidationError(
                    "mapping pairs must be strictly increasing in both coordinates"
                )
            prev_i, prev_j = i, j
        self.__dict__.update(pairs=ordered)

    @classmethod
    def identity(cls, positions: Iterable[int]) -> "Mapping":
        return cls(tuple((p, p) for p in sorted(positions)))

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


def validate_mapping(m: Mapping, a1: AnnotatedSequence, a2: AnnotatedSequence) -> None:
    """Check m against a concrete pair of sequences.

    Raises:
        ValidationError: a position is out of range or matched letters differ.
    """
    for i, j in m.pairs:
        if i > len(a1) or j > len(a2):
            raise ValidationError(f"mapping pair ({i}, {j}) outside the sequences")
        if a1.base(i) != a2.base(j):
            raise ValidationError(
                f"mapping pair ({i}, {j}) matches different letters "
                f"({a1.base(i)!r} vs {a2.base(j)!r})"
            )


def is_arc_preserving(m: Mapping, a1: AnnotatedSequence, a2: AnnotatedSequence) -> bool:
    """True iff every two matched pairs carry an arc on both sides or neither.

    For pairs (i1, j1), (i2, j2) with i1 < i2, requires
    (i1, i2) in P1  <=>  (j1, j2) in P2. As m keeps order, that holds when
    each arc of either side with both ends matched maps onto an arc of the
    other: at most |P1| + |P2| membership tests, O(len(m) + |P1| + |P2|).

    An invalid mapping raises ValidationError rather than returning False.
    """
    validate_mapping(m, a1, a2)
    forward = dict(m.pairs)
    backward = {j: i for i, j in m.pairs}
    for arcs, image, onto in ((a1.arcs, forward, a2.arcs), (a2.arcs, backward, a1.arcs)):
        for i, j in arcs:
            if i in image and j in image and (image[i], image[j]) not in onto:
                return False
    return True


_KINDS = ("unconstrained", "fragment", "diagonal")


class MatchConstraint(_Record):
    """Restriction on which position pairs (i, j) may be matched.

    fragment(c): both sequences are cut into blocks of length c (the last
    block may be shorter) and i may match j only within the same block
    index. diagonal(c): i may match j only when |i - j| <= c. fragment(1)
    and diagonal(0) both force i == j.
    """

    _fields = ("kind", "c")

    def __init__(self, kind: str, c: int | None = None):
        if kind not in _KINDS:
            raise ValidationError(f"unknown constraint kind {kind!r}")
        if kind == "unconstrained" and c is not None:
            raise ValidationError("unconstrained constraint takes no width")
        if c is not None:
            _require_int(c, "constraint width c")
        if kind == "fragment" and (c is None or c < 1):
            raise ValidationError("fragment constraint requires c >= 1")
        if kind == "diagonal" and (c is None or c < 0):
            raise ValidationError("diagonal constraint requires c >= 0")
        self.__dict__.update(kind=kind, c=c)

    @classmethod
    def unconstrained(cls) -> "MatchConstraint":
        return cls("unconstrained")

    @classmethod
    def fragment(cls, c: int) -> "MatchConstraint":
        return cls("fragment", c)

    @classmethod
    def diagonal(cls, c: int) -> "MatchConstraint":
        return cls("diagonal", c)

    def allows(self, i: int, j: int) -> bool:
        if self.kind == "fragment":
            return (i - 1) // self.c == (j - 1) // self.c
        if self.kind == "diagonal":
            return abs(i - j) <= self.c
        return True

    def forces_identity(self) -> bool:
        """True for fragment(1) and diagonal(0), which only allow i == j."""
        return (self.kind == "fragment" and self.c == 1) or (
            self.kind == "diagonal" and self.c == 0
        )

    def __str__(self) -> str:
        if self.kind == "unconstrained":
            return "unconstrained"
        return f"{self.kind}({self.c})"
