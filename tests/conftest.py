import pytest

from gpc import engine, validate_graph


@pytest.fixture
def listed_legs(monkeypatch):
    """The restrictor of each leg that lists its strata, in order: such a
    leg sets the evaluator's pruning for its restrictor once, before its
    first stratum, and a leg that the pair analysis answers never does."""
    calls: list = []
    original = engine._Evaluator.restrict

    def counting(self, restrictor):
        calls.append(restrictor)
        return original(self, restrictor)

    monkeypatch.setattr(engine._Evaluator, "restrict", counting)
    return calls


@pytest.fixture
def g_tiny():
    """Two nodes, one labeled directed edge, one undirected self-loop."""
    return validate_graph(
        {
            "nodes": [
                {"id": "n1", "labels": ["A"], "properties": {"k": "5"}},
                {"id": "n2", "labels": ["B"], "properties": {"k": "5"}},
            ],
            "directed_edges": [
                {"id": "e1", "src": "n1", "tgt": "n2", "labels": ["a"]}
            ],
            "undirected_edges": [
                {"id": "u1", "endpoints": ["n2"], "labels": ["s"]}
            ],
        }
    )


@pytest.fixture
def g_undirected_pair():
    """Two nodes joined by one undirected edge (no self-loop)."""
    return validate_graph(
        {
            "nodes": [{"id": "n1"}, {"id": "n2"}],
            "undirected_edges": [{"id": "u2", "endpoints": ["n1", "n2"]}],
        }
    )


@pytest.fixture
def g_intro():
    """A-node with a direct labeled edge to a B-node and a 2-step detour."""
    return validate_graph(
        {
            "nodes": [
                {"id": "nA", "labels": ["A"]},
                {"id": "nB", "labels": ["B"]},
                {"id": "nC", "labels": ["C"]},
            ],
            "directed_edges": [
                {"id": "e2", "src": "nA", "tgt": "nB", "labels": ["a"]},
                {"id": "e1", "src": "nA", "tgt": "nC"},
                {"id": "e3", "src": "nC", "tgt": "nB"},
            ],
        }
    )


@pytest.fixture
def g_exp():
    """Two nodes with a- and b-labeled edges in both directions."""
    return validate_graph(
        {
            "nodes": [{"id": "u"}, {"id": "v"}],
            "directed_edges": [
                {"id": "a1", "src": "u", "tgt": "v", "labels": ["a"]},
                {"id": "a2", "src": "v", "tgt": "u", "labels": ["a"]},
                {"id": "b1", "src": "u", "tgt": "v", "labels": ["b"]},
                {"id": "b2", "src": "v", "tgt": "u", "labels": ["b"]},
            ],
        }
    )


@pytest.fixture
def g_two_plus_edge():
    """Two nodes, one directed edge: smallest graph with nonzero paths."""
    return validate_graph(
        {
            "nodes": [{"id": "u"}, {"id": "v"}],
            "directed_edges": [{"id": "e", "src": "u", "tgt": "v"}],
        }
    )
