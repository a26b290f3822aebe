"""Regenerate the baseline table of ROADMAP.md, one `gpc run` per cell.

    python3 bench/baseline.py

Each cell is one in-process `gpc.cli.main(["run", ...])` call on G(n)
from `gen.g_random(n, 1)`, the ROADMAP's generator, timed like the
benchmark's queries. A cell that runs into the per-query timeout
(`query.QUERY_TIMEOUT_S`) is cut and printed as timed out; one that
hits a resource ceiling is printed as such. The report is not part of
the timed workloads; it prints a Markdown table.
"""

from __future__ import annotations

import contextlib
import json
import sys

import run
from gen import g_random
from layers import Tracer, traced_query
from query import QUERY_TIMEOUT_S, install_timer, run_query

ROWS = [
    ("SHORTEST (:A) -[:a]->{1..} (:B)", (10, 20, 40), False),
    ("SHORTEST (:A) -[:a]->{1..} (:B)", (10, 20, 40), True),
    ("TRAIL (:A) -[:a]->{1..3} (:B)", (10, 20, 40), False),
    ("TRAIL (:A) -[:a]->{1..3} (:B)", (10, 20, 40), True),
    ("SHORTEST (x:A) -[e:a]->{1..} (y:B)", (10, 20, 40), False),
    ("TRAIL (x:A) -[e]->{1..} (y:B)", (8, 12, 16), False),
    ("SIMPLE (x:A) -[e]->{1..} (y:B)", (8, 12, 16), False),
    ("SHORTEST (x)-[e]->(y), SHORTEST (y)-[f]->(z)", (100, 200, 400), False),
]
SPLIT_QUERY, SPLIT_N = "SHORTEST (x)-[e]->{1..3}(y)", 400
SEED = 1  # the ROADMAP's G(n) is drawn from random.Random(1)


@contextlib.contextmanager
def varfree_path_disabled(gpc):
    """The engine takes its variable-free path when a pattern has no
    variables; reporting one hidden variable turns that path off."""
    original = gpc.engine.expr_vars
    gpc.engine.expr_vars = lambda expr: original(expr) or {"_"}
    try:
        yield
    finally:
        gpc.engine.expr_vars = original


def cell(gpc, graph: str, query: str) -> str:
    outcome = run_query(gpc, ["run", graph, query])
    if outcome.failure == "timeout":
        return f"timed out after {QUERY_TIMEOUT_S:g} s"
    if outcome.failure:
        return f"{outcome.failure} after {outcome.elapsed:.1f} s"
    ms = outcome.seconds * 1000
    return f"{ms:.1f} ms ({outcome.answers} answers)"


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    install_timer()
    gpc = run.import_gpc()
    work = run.WORK / "baseline"
    work.mkdir(parents=True, exist_ok=True)

    def graph(n: int) -> str:
        path = work / f"G{n}.json"
        path.write_text(json.dumps(g_random(n, SEED)))
        return str(path)

    print(f"G(n) seed {SEED}; timeout {QUERY_TIMEOUT_S:g} s per cell\n")
    print("| case | n | time |\n|---|---|---|")
    for i, (text, sizes, varfree_off) in enumerate(ROWS):
        query = work / f"q{i}.txt"
        query.write_text(text)
        label = f"`{text}`" + (" with the variable-free path off" if varfree_off else "")
        with varfree_path_disabled(gpc) if varfree_off else contextlib.nullcontext():
            cells = [cell(gpc, graph(n), str(query)) for n in sizes]
        print(f"| {label} | {' / '.join(map(str, sizes))} | {' / '.join(cells)} |", flush=True)

    query = work / "split.txt"
    query.write_text(SPLIT_QUERY)
    tracer = Tracer()
    *_, stdout = traced_query(gpc, tracer, ["run", graph(SPLIT_N), str(query)])
    times = tracer.self_times(0)
    parts = ", ".join(
        f"{name} {1000 * times[name]:.1f}"
        for name in ("cli.args", "graph.load", "parser.parse", "typecheck.infer", "engine.eval", "values.serialize")
    )
    answers = stdout.count("\n")
    print(f"| layer split, `{SPLIT_QUERY}`, {answers} answers | {SPLIT_N} | {parts} ms |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
