import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graph_reference
from gpc import (
    GraphValidationError,
    Path,
    path,
    path_is_valid,
    validate_graph,
)


def test_empty_description_gives_empty_graph():
    g = validate_graph({})
    assert not g.nodes and not g.directed_edges and not g.undirected_edges


def test_dangling_target_is_reported():
    with pytest.raises(GraphValidationError) as err:
        validate_graph(
            {
                "nodes": [{"id": "n1"}],
                "directed_edges": [{"id": "e1", "src": "n1", "tgt": "nX"}],
            }
        )
    assert any("dangling" in v for v in err.value.violations)


def test_undirected_self_loop_accepted():
    g = validate_graph(
        {
            "nodes": [{"id": "n2"}],
            "undirected_edges": [{"id": "u1", "endpoints": ["n2"]}],
        }
    )
    assert g.undirected_edges["u1"] == frozenset({"n2"})


def test_duplicate_id_across_spaces():
    with pytest.raises(GraphValidationError) as err:
        validate_graph(
            {
                "nodes": [{"id": "x"}],
                "directed_edges": [{"id": "x", "src": "x", "tgt": "x"}],
            }
        )
    assert any("duplicate" in v for v in err.value.violations)


def test_bad_endpoint_count():
    with pytest.raises(GraphValidationError) as err:
        validate_graph(
            {
                "nodes": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
                "undirected_edges": [{"id": "u", "endpoints": ["a", "b", "c"]}],
            }
        )
    assert any("1 or 2" in v for v in err.value.violations)


def test_all_violations_collected():
    with pytest.raises(GraphValidationError) as err:
        validate_graph(
            {
                "nodes": [{"id": "n"}],
                "directed_edges": [
                    {"id": "e1", "src": "n", "tgt": "gone"},
                    {"id": "e2", "src": "also-gone", "tgt": "n"},
                ],
            }
        )
    assert len(err.value.violations) == 2


@pytest.mark.parametrize("ends", [("p", "q"), ("x", "a"), ("zz", "b1"), ("m", "o")])
def test_doubly_dangling_endpoint_is_named_in_list_order(ends):
    for first, second in (ends, ends[::-1]):
        with pytest.raises(GraphValidationError) as err:
            validate_graph(
                {
                    "nodes": [{"id": "n"}],
                    "undirected_edges": [{"id": "u", "endpoints": [first, second]}],
                }
            )
        assert err.value.violations == [f"dangling endpoint: 'u'.endpoints includes {first!r}"]


def test_unknown_keys_are_reported_in_order():
    with pytest.raises(GraphValidationError) as err:
        validate_graph(
            {
                "nodes": [
                    {"id": "n", "label": ["A"], "labels": [""], "kind": 1},
                    {"id": "n", "x": 1},  # a rejected id's keys are not checked
                    {"id": "", "y": 2},
                ],
                "edges": [],
                "directed_edges": [{"id": "e", "src": "n", "tgt": "gone", "to": "n"}],
                "name": "g",
            }
        )
    assert err.value.violations == [
        "unknown graph key 'edges'",
        "unknown graph key 'name'",
        "n: unknown key 'label'",
        "n: unknown key 'kind'",
        "n: labels must be a list of non-empty strings",
        "duplicate id 'n'",
        "node id must be a non-empty string: ''",
        "e: unknown key 'to'",
        "dangling endpoint: 'e'.tgt = 'gone'",
    ]


def test_float_property_rejected():
    with pytest.raises(GraphValidationError):
        validate_graph({"nodes": [{"id": "n", "properties": {"k": 1.5}}]})


@pytest.fixture
def g(g_tiny):
    return g_tiny


def test_single_node_path_valid(g):
    assert path_is_valid(g, path("n1"))
    assert not path_is_valid(g, path("zzz"))


def test_forward_and_backward_traversal(g):
    assert path_is_valid(g, path("n1", "e1", "n2"))
    assert path_is_valid(g, path("n2", "e1", "n1"))
    assert not path_is_valid(g, path("n1", "e1", "n1"))


def test_undirected_loop_traversal(g):
    assert path_is_valid(g, path("n2", "u1", "n2"))
    assert not path_is_valid(g, path("n1", "u1", "n2"))


def test_src_tgt_len():
    assert path("n1").src == "n1"
    assert path("n1").tgt == "n1"
    assert path("n1").length == 0
    p = path("n1", "e1", "n2")
    assert (p.src, p.tgt, p.length) == ("n1", "n2", 1)
    loop = path("n1", "e1", "n2", "e2", "n1")
    assert (loop.src, loop.tgt, loop.length) == ("n1", "n1", 2)


def test_concat_unit_and_splice():
    p = path("n1", "e1", "n2")
    assert p.concat(path("n2")) == p
    assert path("n1").concat(p) == p
    assert p.concat(path("n2", "e2", "n3")) == path(
        "n1", "e1", "n2", "e2", "n3"
    )
    assert p.concat(path("n3")) is None


def test_even_length_rejected():
    with pytest.raises(ValueError):
        Path(("n1", "e1"))
    with pytest.raises(ValueError):
        Path(())


def _random_valid_paths(g, rng, count, max_len=4):
    out = []
    nodes = sorted(g.nodes)
    for _ in range(count):
        node = rng.choice(nodes)
        elements = [node]
        for _ in range(rng.randint(0, max_len)):
            steps = list(g.steps_from(elements[-1]))
            if not steps:
                break
            edge, nxt = rng.choice(steps)
            elements += [edge, nxt]
        out.append(Path(tuple(elements)))
    return out


def test_concat_laws_on_random_paths(g_exp):
    rng = random.Random(7)
    paths = _random_valid_paths(g_exp, rng, 60)
    for p in paths:
        assert path(p.src).concat(p) == p
        assert p.concat(path(p.tgt)) == p
    for p in paths:
        for q in paths:
            pq = p.concat(q)
            if pq is None:
                continue
            assert path_is_valid(g_exp, pq)
            assert pq.length == p.length + q.length
            for r in paths[:10]:
                left = pq.concat(r)
                qr = q.concat(r)
                right = p.concat(qr) if qr is not None else None
                if left is not None and right is not None:
                    assert left == right


# -- the one-loop validator against the reference it replaced ------------

NAMES = ["a", "b", "c", "d", "e", "f"]


def bad(*values):
    """One of the values, copied: a mutation may change it in place."""
    return st.sampled_from(values).map(copy.deepcopy)


BAD_LABELS = bad("A", ["", "B"], ["A", 1], {}, 0, [None])
BAD_PROPERTIES = bad(
    {"": 1}, {"k": 1.5}, {"k": None}, {"k": [1]}, "x", [], 7, {"k": "v", "m": {}}
)
BAD_IDS = bad("", 3, None, ["a"], True)
BAD_REFS = bad("zz", 1, None, "", ["a"])
BAD_SECTIONS = bad("x", {}, 3, None, [1], [{"id": "q"}, "r"])
SECTIONS = ["nodes", "directed_edges", "undirected_edges"]


@st.composite
def well_formed_documents(draw):
    """A valid graph document that uses only the documented keys."""

    def element(eid: str, **ends) -> dict:
        entry = {"id": eid, **ends}
        if draw(st.booleans()):
            entry["labels"] = draw(st.lists(st.sampled_from(["A", "B", "a"]), max_size=2))
        if draw(st.booleans()):
            entry["properties"] = draw(
                st.dictionaries(
                    st.sampled_from(["k", "m"]),
                    st.one_of(st.text(max_size=2), st.integers(-3, 3), st.booleans()),
                    max_size=2,
                )
            )
        # Keys come in any order, as from any JSON writer.
        return {key: entry[key] for key in draw(st.permutations(list(entry)))}

    doc: dict = {}
    if not draw(st.booleans()):
        return doc
    nodes = draw(st.lists(st.sampled_from(NAMES), max_size=5, unique=True))
    doc["nodes"] = [element(n) for n in nodes]
    if not nodes:
        return doc
    pick = st.sampled_from(nodes)
    edges = iter(range(8))
    if draw(st.booleans()):
        doc["directed_edges"] = [
            element(f"e{next(edges)}", src=draw(pick), tgt=draw(pick))
            for _ in range(draw(st.integers(0, 4)))
        ]
    if draw(st.booleans()):
        doc["undirected_edges"] = [
            element(f"e{next(edges)}", endpoints=draw(st.lists(pick, min_size=1, max_size=2)))
            for _ in range(draw(st.integers(0, 4)))
        ]
    return doc


@st.composite
def mutated_documents(draw):
    """A well-formed document with up to four faults, still using only the
    documented keys."""
    doc = draw(well_formed_documents())
    for _ in range(draw(st.integers(1, 4))):
        elements = [
            (section, entry)
            for section in SECTIONS
            if isinstance(doc.get(section), list)
            for entry in doc[section]
            if isinstance(entry, dict)
        ]
        fault = draw(st.sampled_from(
            ["id", "duplicate", "ref", "labels", "properties", "section", "missing"]
        ))
        if fault == "section" or not elements:
            section = draw(st.sampled_from(SECTIONS))
            doc[section] = draw(BAD_SECTIONS)
            continue
        section, entry = draw(st.sampled_from(elements))
        if fault == "id":
            entry["id"] = draw(BAD_IDS)
        elif fault == "duplicate":
            entry["id"] = draw(st.sampled_from([e.get("id") for _, e in elements]))
        elif fault == "ref" and section == "directed_edges":
            entry[draw(st.sampled_from(["src", "tgt"]))] = draw(BAD_REFS)
        elif fault == "ref" and section == "undirected_edges":
            entry["endpoints"] = draw(st.one_of(
                st.lists(st.one_of(st.sampled_from(NAMES + ["zz"]), BAD_REFS), max_size=3),
                BAD_REFS,
            ))
        elif fault == "labels":
            entry["labels"] = draw(BAD_LABELS)
        elif fault == "properties":
            entry["properties"] = draw(BAD_PROPERTIES)
        elif fault == "missing" and entry:
            entry.pop(draw(st.sampled_from(sorted(entry))))
    return doc


def _outcome(validate, doc):
    """The violations, or the built graph's fields with their orders."""
    try:
        g = validate(doc)
    except GraphValidationError as err:
        return "violations", err.violations
    return "graph", (
        g.nodes,
        list(g.directed_edges.items()),
        list(g.undirected_edges.items()),
        list(g.labels.items()),
        list(g.properties.items()),
    )


def _accepted_elements(doc):
    """The elements whose id the validator accepts, in its order."""
    seen, out = set(), []
    for section in SECTIONS:
        entries = doc.get(section, [])
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            continue
        for entry in entries:
            eid = entry.get("id")
            if isinstance(eid, str) and eid and eid not in seen:
                seen.add(eid)
                out.append(entry)
    return out


DOCUMENTS = st.one_of(well_formed_documents(), mutated_documents())


@settings(max_examples=400, deadline=None)
@given(DOCUMENTS)
def test_validate_graph_matches_the_reference(doc):
    assert _outcome(validate_graph, doc) == _outcome(graph_reference.validate_graph, doc)


@settings(max_examples=300, deadline=None)
@given(DOCUMENTS, st.data())
def test_one_unknown_key_adds_one_violation(doc, data):
    kind, before = _outcome(graph_reference.validate_graph, doc)
    before = before if kind == "violations" else []
    key = data.draw(st.sampled_from(["edges", "label", "source", "Labels", "x"]))
    elements = _accepted_elements(doc)
    target = doc
    if elements and data.draw(st.booleans()):
        target = data.draw(st.sampled_from(elements))
    target[key] = data.draw(st.sampled_from([[], ["A"], "n", 1, None]))
    kind, after = _outcome(validate_graph, doc)
    assert kind == "violations"
    if target is doc:
        assert after == [f"unknown graph key {key!r}"] + before
    else:
        rest = list(after)
        rest.remove(f"{target['id']}: unknown key {key!r}")
        assert rest == before
