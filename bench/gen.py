"""Seeded input generators: graph JSON documents for the benchmark.

The program under test only ever sees what these functions produce,
written to files. Every generator is a pure function of its arguments.
"""

from __future__ import annotations

import random


def g_random(n: int, seed: int) -> dict:
    """The baseline family G(n).

    Nodes n0..n{n-1} with one label each from A/B/C, an a-labelled chain
    n_i -> n_{i+1}, and n//2 random directed edges labelled a or b, all
    drawn from `random.Random(seed)`.
    """
    rng = random.Random(seed)
    nodes = [{"id": f"n{i}", "labels": [rng.choice("ABC")]} for i in range(n)]
    edges = [
        {"id": f"c{i}", "src": f"n{i}", "tgt": f"n{i + 1}", "labels": ["a"]}
        for i in range(n - 1)
    ]
    for j in range(n // 2):
        src, tgt = rng.randrange(n), rng.randrange(n)
        edges.append(
            {"id": f"r{j}", "src": f"n{src}", "tgt": f"n{tgt}", "labels": [rng.choice("ab")]}
        )
    return {"nodes": nodes, "directed_edges": edges}


def g_grid(k: int, seed: int) -> dict:
    """A k x k grid: a-edges along rows, b-edges down columns.

    Node labels A/B/C are drawn from `random.Random(seed)`; the edge set
    does not depend on the seed.
    """
    rng = random.Random(seed)
    nodes = [
        {"id": f"g{i}_{j}", "labels": [rng.choice("ABC")]}
        for i in range(k)
        for j in range(k)
    ]
    edges = []
    for i in range(k):
        for j in range(k):
            if j + 1 < k:
                edges.append(
                    {"id": f"a{i}_{j}", "src": f"g{i}_{j}", "tgt": f"g{i}_{j + 1}", "labels": ["a"]}
                )
            if i + 1 < k:
                edges.append(
                    {"id": f"b{i}_{j}", "src": f"g{i}_{j}", "tgt": f"g{i + 1}_{j}", "labels": ["b"]}
                )
    return {"nodes": nodes, "directed_edges": edges}


def g_exp(m: int) -> dict:
    """The two-node exponential fixture with m parallel copies of each edge.

    m = 1 is the fixture itself: u and v joined by an a-edge and a b-edge
    in each direction.
    """
    edges = []
    for label in "ab":
        for i in range(1, m + 1):
            edges.append({"id": f"{label}{i}f", "src": "u", "tgt": "v", "labels": [label]})
            edges.append({"id": f"{label}{i}r", "src": "v", "tgt": "u", "labels": [label]})
    return {"nodes": [{"id": "u"}, {"id": "v"}], "directed_edges": edges}
