"""The data classes' value behaviour: repr, equality, hashing, immutability
and construction, for each of the eight classes, and the named tuples'
fields."""

import pytest

from arcseq import (
    AnnotatedSequence,
    EquivalenceReport,
    EquivalenceRow,
    Graph,
    Mapping,
    MatchConstraint,
    MaxIndependentSet,
    Provenance,
    ReductionInstance,
    SearchBudget,
    SolveResult,
    SweepConfig,
)
from arcseq.reductions import CaseAnswer

ROW = EquivalenceRow("g1-0", 1, 0, True, 1, True, 1, 1, True, True, True)
ROW_REPR = (
    "EquivalenceRow(graph_id='g1-0', n=1, m=0, connected=True, k=1, is_answer=True, "
    "lapcs_len=1, threshold=1, lapcs_answer=True, forward_ok=True, backward_ok=True, "
    "skip_reason=None)"
)
BUDGET_REPR = (
    "SearchBudget(max_cells=400, max_identity_length=64, max_nodes=None, mis_max_vertices=20)"
)

# Per class: constructor arguments, a twin's (equal, built apart), another
# instance's (unequal), the field names in order, and the repr of the first.
CASES = {
    AnnotatedSequence: (
        ("ab", {(2, 1)}), ("ab", frozenset({(1, 2)})), ("ab",),
        ("seq", "arcs"),
        "AnnotatedSequence(seq='ab', arcs=frozenset({(1, 2)}))",
    ),
    Mapping: (
        ([(2, 3), (1, 1)],), (((1, 1), (2, 3)),), (((1, 1),),),
        ("pairs",),
        "Mapping(pairs=((1, 1), (2, 3)))",
    ),
    MatchConstraint: (
        ("fragment", 2), ("fragment", 2), ("diagonal", 2),
        ("kind", "c"),
        "MatchConstraint(kind='fragment', c=2)",
    ),
    Graph: (
        (3, [(2, 1)]), (3, {(1, 2)}), (3, {(1, 3)}),
        ("n", "edges"),
        "Graph(n=3, edges=frozenset({(1, 2)}))",
    ),
    SearchBudget: (
        (400, 64, 9), (), (400, 64, 10),
        ("max_cells", "max_identity_length", "max_nodes", "mis_max_vertices"),
        "SearchBudget(max_cells=400, max_identity_length=64, max_nodes=9, mis_max_vertices=20)",
    ),
    SolveResult: (
        (1, Mapping(((1, 1),)), {"solver": "x"}), (1, Mapping(((1, 1),)), {"solver": "x"}),
        (1, Mapping(((1, 2),)), {"solver": "x"}),
        ("length", "witness", "stats"),
        "SolveResult(length=1, witness=Mapping(pairs=((1, 1),)), stats={'solver': 'x'})",
    ),
    EquivalenceReport: (
        ("T1", [ROW]), ("T1", [ROW]), ("T2", [ROW]),
        ("theorem", "rows"),
        f"EquivalenceReport(theorem='T1', rows=[{ROW_REPR}])",
    ),
    SweepConfig: (
        ("T1", (1, 2)), ("T1", (1, 2), "all", "exhaustive"), ("T1", (1, 3)),
        ("theorem", "n_range", "k_policy", "graph_source", "random_count",
         "edge_probability", "seed", "search_budget", "max_exhaustive_n", "output_csv"),
        "SweepConfig(theorem='T1', n_range=(1, 2), k_policy='all', graph_source='exhaustive', "
        "random_count=None, edge_probability=None, seed=None, "
        f"search_budget={BUDGET_REPR}, max_exhaustive_n=None, output_csv=None)",
    ),
}
# SearchBudget's twin is its default with max_nodes set by keyword.
TWIN_KWARGS = {SearchBudget: {"max_nodes": 9}}
FROZEN = [AnnotatedSequence, Mapping, MatchConstraint, Graph, SearchBudget, SolveResult]
MUTABLE = [EquivalenceReport, SweepConfig]


def class_name(cls):
    return cls.__name__


def build(cls):
    args, twin_args, other_args, _, _ = CASES[cls]
    return cls(*args), cls(*twin_args, **TWIN_KWARGS.get(cls, {})), cls(*other_args)


def values(obj):
    cls = next(c for c in type(obj).__mro__ if c in CASES)
    return tuple(getattr(obj, name) for name in CASES[cls][3])


@pytest.mark.parametrize("cls", CASES, ids=class_name)
def test_repr_names_every_field_in_order(cls):
    assert repr(build(cls)[0]) == CASES[cls][4]


@pytest.mark.parametrize("cls", CASES, ids=class_name)
def test_equality_is_field_by_field_within_one_class(cls):
    value, twin, other = build(cls)
    assert value is not twin
    assert value == twin and not value != twin
    assert value != other and not value == other
    # An instance of another class with equal field values is not equal,
    # in either order, and neither is the tuple of the field values.
    stranger = type("Stranger", (cls,), {})(*CASES[cls][0])
    assert values(stranger) == values(value)
    assert value != stranger and stranger != value
    assert not value == stranger and not stranger == value
    assert value != values(value) and values(value) != value
    assert value.__eq__(values(value)) is NotImplemented


@pytest.mark.parametrize("cls", FROZEN, ids=class_name)
def test_frozen_classes_hash_their_field_values(cls):
    value, twin, _ = build(cls)
    if cls is SolveResult:
        # stats is a dict, so the field tuple is unhashable.
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(value)
        return
    assert hash(value) == hash(twin) == hash(values(value))
    assert {value: 1}[twin] == 1


@pytest.mark.parametrize("cls", MUTABLE, ids=class_name)
def test_mutable_classes_are_unhashable_and_assignable(cls):
    value, _, other = build(cls)
    assert cls.__hash__ is None
    with pytest.raises(TypeError, match="unhashable type"):
        hash(value)
    name = next(n for n in CASES[cls][3] if getattr(value, n) != getattr(other, n))
    setattr(value, name, getattr(other, name))
    assert getattr(value, name) == getattr(other, name)


@pytest.mark.parametrize("cls", FROZEN, ids=class_name)
def test_frozen_classes_reject_assignment_and_deletion(cls):
    value, _, other = build(cls)
    before = values(value)
    for name in CASES[cls][3]:
        with pytest.raises(AttributeError, match=f"'{name}'"):
            setattr(value, name, getattr(other, name))
        with pytest.raises(AttributeError, match=f"'{name}'"):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert values(value) == before and not hasattr(value, "extra")


def test_positional_and_keyword_construction_with_defaults():
    assert values(SearchBudget()) == (400, 64, None, 20)
    assert SearchBudget(400, 64, 9) == SearchBudget(max_nodes=9)
    assert values(SearchBudget(1, 2, 3, 4)) == (1, 2, 3, 4)
    assert SearchBudget(mis_max_vertices=4, max_cells=1) == SearchBudget(1, 64, None, 4)
    assert AnnotatedSequence("ab").arcs == frozenset()
    assert AnnotatedSequence(arcs=[(2, 1)], seq="ab") == AnnotatedSequence("ab", {(1, 2)})
    assert Mapping(pairs=[(2, 2), (1, 1)]).pairs == ((1, 1), (2, 2))
    assert MatchConstraint("unconstrained").c is None
    assert MatchConstraint(c=0, kind="diagonal") == MatchConstraint.diagonal(0)
    assert Graph(2).edges == frozenset()
    assert Graph(edges=[(2, 1)], n=2) == Graph(2, {(1, 2)})
    m = Mapping(((1, 1),))
    first, second = SolveResult(1, m), SolveResult(length=1, witness=m)
    assert first.stats == {} and first.stats is not second.stats
    assert SolveResult(stats={"a": 1}, witness=m, length=1).stats == {"a": 1}
    assert EquivalenceReport(rows=[ROW], theorem="T1") == EquivalenceReport("T1", [ROW])
    default = SweepConfig("T1", (1, 2))
    assert values(default)[2:] == (
        "all", "exhaustive", None, None, None, SearchBudget(), None, None
    )
    assert SweepConfig("T1", (1, 2), "all", "exhaustive", None, None, None, None) == default
    assert SweepConfig(n_range=(1, 2), theorem="T1", search_budget=None) == default
    for cls, args in ((SearchBudget, (1, 2, 3, 4, 5)), (Graph, ()), (Mapping, ())):
        with pytest.raises(TypeError):
            cls(*args)
    with pytest.raises(TypeError):
        SearchBudget(max_node=1)


A = AnnotatedSequence("a")
A_REPR = "AnnotatedSequence(seq='a', arcs=frozenset())"
# Per named tuple: its fields, its defaults, constructor arguments and their repr.
NAMED_TUPLES = {
    MaxIndependentSet: (
        ("size", "vertices"), {}, (1, (2,)), "MaxIndependentSet(size=1, vertices=(2,))",
    ),
    Provenance: (
        ("theorem", "case", "graph", "k"), {}, ("T1", None, Graph(1), 1),
        "Provenance(theorem='T1', case=None, graph=Graph(n=1, edges=frozenset()), k=1)",
    ),
    ReductionInstance: (
        ("a1", "a2", "mc", "threshold", "provenance"), {},
        (A, A, MatchConstraint("fragment", 1), 1, None),
        f"ReductionInstance(a1={A_REPR}, a2={A_REPR}, "
        "mc=MatchConstraint(kind='fragment', c=1), threshold=1, provenance=None)",
    ),
    EquivalenceRow: (
        ("graph_id", "n", "m", "connected", "k", "is_answer", "lapcs_len", "threshold",
         "lapcs_answer", "forward_ok", "backward_ok", "skip_reason"),
        {"skip_reason": None}, tuple(ROW)[:-1], ROW_REPR,
    ),
    CaseAnswer: (
        ("instance", "result"), {}, (None, None), "CaseAnswer(instance=None, result=None)",
    ),
}


@pytest.mark.parametrize("cls", NAMED_TUPLES, ids=class_name)
def test_named_tuples_keep_their_fields_defaults_and_repr(cls):
    fields, defaults, args, text = NAMED_TUPLES[cls]
    assert cls._fields == fields and cls._field_defaults == defaults
    value = cls(*args)
    assert repr(value) == text
    assert isinstance(value, tuple) and not hasattr(value, "__dict__")
    assert value == tuple(value) and type(value._replace()) is cls
