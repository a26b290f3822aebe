import dataclasses

import pytest

from gpc import (
    NOTHING,
    Assignment,
    EdgeVal,
    Group,
    GroupVal,
    Maybe,
    NodeVal,
    PathVal,
    conforms,
    path,
    serialize_answer,
    unify,
)
from gpc.graph import Path
from gpc.typecheck import EDGE, NODE, PATH
from gpc.values import Answer, serialize_value


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
