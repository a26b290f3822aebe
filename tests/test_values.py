import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpc import (
    NOTHING,
    Assignment,
    EdgeVal,
    EvalConfig,
    Group,
    GroupVal,
    Maybe,
    NodeVal,
    PathVal,
    ResourceLimitError,
    TypeCheckError,
    conforms,
    eval_query,
    path,
    serialize_answer,
    unify,
)
from gpc.engine import COLLECT_MODES, query_rows
from gpc.graph import Path
from gpc.typecheck import EDGE, NODE, PATH
from gpc.values import (
    Answer,
    answer_records,
    answer_sort_key,
    match_records,
    serialize_path,
    serialize_value,
    tuple_encoder,
    wrap_answers,
    wrapper,
)

import gen


def test_conformance():
    assert conforms(NodeVal("n1"), NODE)
    assert not conforms(NodeVal("n1"), EDGE)
    assert conforms(EdgeVal("e1"), EDGE)
    assert conforms(PathVal(path("n1")), PATH)
    assert conforms(NOTHING, Maybe(NODE))
    assert conforms(NodeVal("n1"), Maybe(NODE))
    assert not conforms(NOTHING, NODE)
    group = GroupVal(((path("n1", "e1", "n2"), EdgeVal("e1")),))
    assert conforms(group, Group(EDGE))
    assert not conforms(group, Group(NODE))
    assert conforms(GroupVal(()), Group(PATH))


def test_node_edge_values_distinct():
    assert NodeVal("x") != EdgeVal("x")


def test_assignment_equality_and_hash():
    a = Assignment({"x": NodeVal("n1"), "y": EdgeVal("e1")})
    b = Assignment({"y": EdgeVal("e1"), "x": NodeVal("n1")})
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_conforms_to_schema():
    mu = Assignment({"x": NodeVal("n1"), "g": GroupVal(())})
    assert mu.conforms_to({"x": NODE, "g": Group(EDGE)})
    assert not mu.conforms_to({"x": NODE})
    assert not mu.conforms_to({"x": EDGE, "g": Group(EDGE)})


def test_unify_examples():
    n1 = Assignment({"x": NodeVal("n1")})
    assert unify(n1, Assignment({"y": EdgeVal("e1")})) == Assignment(
        {"x": NodeVal("n1"), "y": EdgeVal("e1")}
    )
    assert unify(n1, Assignment({"x": NodeVal("n1"), "y": EdgeVal("e1")})) == Assignment(
        {"x": NodeVal("n1"), "y": EdgeVal("e1")}
    )
    assert unify(n1, Assignment({"x": NodeVal("n2")})) is None


def test_unify_nothing_strict_vs_lenient():
    nothing = Assignment({"x": NOTHING})
    bound = Assignment({"x": NodeVal("n1")})
    assert unify(nothing, bound) is None
    assert unify(nothing, bound, lenient=True) == bound
    assert unify(bound, nothing, lenient=True) == bound
    assert unify(nothing, nothing, lenient=True) == nothing


def test_serialization_shape():
    answer = Answer(
        (path("n1", "e1", "n2"),),
        Assignment(
            {
                "x": NodeVal("n1"),
                "e": EdgeVal("e1"),
                "m": NOTHING,
                "g": GroupVal(((path("n1", "e1", "n2"), EdgeVal("e1")),)),
                "p": PathVal(path("n1", "e1", "n2")),
            }
        ),
    )
    data = serialize_answer(answer)
    assert data["paths"] == [{"elements": ["n1", "e1", "n2"]}]
    assert data["bindings"]["x"] == {"kind": "node", "id": "n1"}
    assert data["bindings"]["e"] == {"kind": "edge", "id": "e1"}
    assert data["bindings"]["m"] == {"kind": "nothing"}
    assert data["bindings"]["g"] == {
        "kind": "group",
        "items": [[{"elements": ["n1", "e1", "n2"]}, {"kind": "edge", "id": "e1"}]],
    }
    assert data["bindings"]["p"] == {
        "kind": "path",
        "elements": ["n1", "e1", "n2"],
    }


def test_serialize_rejects_garbage():
    with pytest.raises(TypeError):
        serialize_value("n1")


def _values():
    p = path("n1", "e1", "n2")
    group = GroupVal(((p, EdgeVal("e1")), (path("n2"), NOTHING)))
    answer = Answer((p,), Assignment({"g": group, "p": PathVal(p)}))
    return p, group, answer


def test_values_are_frozen_and_slotted():
    p, group, answer = _values()
    fields = [(p, "elements"), (p, "_hash"), (group, "items"), (group, "_hash"), (answer, "paths")]
    for value, field in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, ())
        assert not hasattr(value, "__dict__")
    for value in (NodeVal("n1"), EdgeVal("e1"), PathVal(p)):
        assert not hasattr(value, "__dict__")


def test_equal_values_hash_equal():
    for make in _values, lambda: (NodeVal("n1"), EdgeVal("e1"), PathVal(path("n1"))):
        for a, b in zip(make(), make()):
            assert a is not b
            assert a == b and hash(a) == hash(b)
            assert len({a, b}) == 1
    p = path("n1", "e1", "n2")
    assert p != p.elements and p.elements != p
    assert len({p, p.elements}) == 2
    assert GroupVal(()) != ()
    assert repr(p) == "path(n1,e1,n2)"
    assert repr(GroupVal(((p, NOTHING),))) == "GroupVal(items=((path(n1,e1,n2), Nothing),))"


@pytest.mark.parametrize("elements", [(), ("n1", "e1"), ("n1", "e1", "n2", "e2")])
def test_path_rejects_even_length(elements):
    with pytest.raises(ValueError):
        Path(elements)


# Characters that JSON escapes: a quote, a backslash, control characters
# from NUL up, DEL, a line separator, non-ASCII, and an astral character
# (a surrogate pair in JSON).
ODD_CHARS = '"\\\x00\x1f\n\x7f\u2028\u00fc\U0001F600a'
odd_ids = st.text(alphabet=ODD_CHARS, min_size=1, max_size=4)


def _renamed(raw, names):
    """A raw value with each id renamed; raw values nest tuples of ids."""
    if isinstance(raw, str):
        return names[raw]
    if isinstance(raw, tuple):
        return tuple(_renamed(part, names) for part in raw)
    return raw


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from(COLLECT_MODES),
    st.lists(odd_ids, min_size=10, max_size=10, unique=True),
)
def test_records_equal_their_json_dumps_reference(seed, mode, names):
    # The encoder reads raw rows; the reference serializes the value
    # objects that the wrapper makes of the same rows.
    rng = random.Random(seed)
    graph = gen.rand_graph(rng, max_nodes=4, max_edges=6)
    query = gen.well_typed_query(rng, depth=3)
    try:
        variables, schema, rows, _ = query_rows(
            graph, query, EvalConfig(collect_mode=mode, max_len=3)
        )
    except (TypeCheckError, ResourceLimitError):
        return
    elements = [*graph.nodes, *graph.directed_edges, *graph.undirected_edges]
    ids = dict(zip(sorted(elements), names))
    rows = [_renamed(row, ids) for row in rows]
    answers = wrap_answers(variables, schema, rows)
    assert answer_records(variables, schema, rows) == [
        json.dumps(serialize_answer(a), sort_keys=True)
        for a in sorted(answers, key=answer_sort_key)
    ]
    width = len(rows[0][0]) if rows else 0
    types = [PATH] * width + [schema[var] for var in variables]
    tuples = {paths + mu for paths, mu in rows}
    line = tuple_encoder()(types)
    as_values = wrapper()[1](types)
    assert sorted({line(row) for row in tuples}) == sorted(
        json.dumps({"tuple": [serialize_value(v) for v in as_values(row)]}, sort_keys=True)
        for row in tuples
    )
    results = {(p, mu) for paths, mu in rows for p in paths}
    path_of, values = wrapper()
    as_values = values([schema[var] for var in variables])
    assert match_records(variables, schema, results) == sorted(
        json.dumps(
            {
                "path": serialize_path(path_of(p)),
                "bindings": {
                    var: serialize_value(v) for var, v in zip(variables, as_values(mu))
                },
            },
            sort_keys=True,
        )
        for p, mu in results
    )


def test_records_of_no_answers_and_empty_bindings():
    assert answer_records((), {}, []) == match_records((), {}, []) == []
    assert answer_records((), {}, [((("n1",),), ())]) == [
        '{"bindings": {}, "paths": [{"elements": ["n1"]}]}'
    ]
    assert tuple_encoder()([])(()) == '{"tuple": []}'
    assert match_records((), {}, [(("n1",), ())]) == [
        '{"bindings": {}, "path": {"elements": ["n1"]}}'
    ]


def test_records_reject_garbage():
    garbage = [
        (NODE, NodeVal("n1")),  # a value object, not a raw id
        (NODE, NOTHING),
        (EDGE, ("e1",)),
        (PATH, "n1"),
        (PATH, ("n1", 2, "n2")),
        (Maybe(NODE), 5),
        (Group(NODE), 5),
        (Group(NODE), ((("n1",), NodeVal("n1")),)),
        (Group(NODE), ((("n1",), "n1", "n1"),)),  # an item of three
        (Group(NODE), ("n1",)),  # an item that is no tuple
    ]
    for t, raw in garbage:
        with pytest.raises(TypeError):
            tuple_encoder()([t])((raw,))
