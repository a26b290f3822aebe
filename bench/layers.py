"""Traced run: spans and counts around each layer of `gpc run`.

The traced pipeline makes the calls `gpc run` makes, one public function
per layer, each inside a span (name, start, end, parent, query id):

    cli.args            cli.build_arg_parser().parse_args, as `gpc run` starts
    graph.load          graph.load_graph (JSON plus validate_graph)
    gpcplus.translate   gpcplus.translate_source, for '#c2rpq'/'#nre' input
    parser.parse        parser.parse_query / parse_ruleset
    typecheck.infer     typecheck.infer_schema / check_ruleset, validate_for_mode
    engine.eval         engine.eval_query / gpcplus.eval_ruleset
      engine.sat_pairs  engine.satisfiable_pairs, wrapped while the run lasts
    values.serialize    sort by answer_sort_key, then NDJSON serialization

After a case's first traced query, probes outside its spans, under
their own time limit, evaluate each leaf path query alone; a probe that
fails is reported and leaves the query's outcome alone. The probes give
the join's share of evaluation (the whole evaluation minus its leaves),
the nested-loop pairs a join tries, the strata and pair coverage of each
SHORTEST leaf, and, for TRAIL/SIMPLE leaves with variables, the walks
enumerated before the restrictor filters them. Each round also runs every case untraced
through `gpc.cli.main`, which gives `trace.overhead_ratio`.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import statistics
import time
from collections import Counter, defaultdict

from query import QUERY_TIMEOUT_S, Outcome, QueryTimeout, record, run_query, time_limit

TIMED_LAYERS = (
    "cli.args",
    "graph.load",
    "parser.parse",
    "gpcplus.translate",
    "typecheck.infer",
    "engine.eval",
    "engine.sat_pairs",
    "engine.join",
    "values.serialize",
)


class Tracer:
    """Spans kept in memory; written out when the run ends."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, query id]
        self.open: list[int] = []
        self.query_id = None

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self.open[-1] if self.open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.query_id])
        self.open.append(index)
        try:
            yield
        finally:
            self.open.pop()
            self.spans[index][2] = time.perf_counter()

    def self_times(self, root: int) -> dict[str, float]:
        """Self time per span name inside the tree under `root`."""
        children: dict[int, float] = defaultdict(float)
        inside = {root}
        for i in range(root + 1, len(self.spans)):
            name, start, end, parent, _ = self.spans[i]
            if parent not in inside:
                break
            inside.add(i)
            children[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i in sorted(inside):
            name, start, end, _, _ = self.spans[i]
            out[name] += end - start - children[i]
        return out


def _leaves(gpc, query) -> list:
    if isinstance(query, gpc.ast.Join):
        return _leaves(gpc, query.left) + _leaves(gpc, query.right)
    return [query]


def traced_query(gpc, tracer: Tracer, argv: list[str]):
    """The `gpc run` pipeline, layer by layer; returns its pieces."""
    with tracer.span("query"):
        with tracer.span("cli.args"):
            args = gpc.cli.build_arg_parser().parse_args(argv)
        mode = args.collect_mode
        with tracer.span("graph.load"):
            graph = gpc.graph.load_graph(args.graph)
        with open(args.query, encoding="utf-8") as handle:
            text = handle.read().strip()
        if text.lower().startswith(("#nre", "#c2rpq")):
            with tracer.span("gpcplus.translate"):
                expr = gpc.gpcplus.translate_source(text)
        else:
            with tracer.span("parser.parse"):
                if text.lower().startswith("ans"):
                    expr = gpc.parser.parse_ruleset(text)
                else:
                    expr = gpc.parser.parse_query(text)
        rules = isinstance(expr, gpc.ast.RuleSet)
        cfg = gpc.engine.EvalConfig(collect_mode=mode)
        with tracer.span("typecheck.infer"):
            if rules:
                gpc.typecheck.check_ruleset(expr)
            else:
                gpc.typecheck.infer_schema(expr)
            gpc.typecheck.validate_for_mode(expr, mode)
        with tracer.span("engine.eval"):
            if rules:
                result = gpc.gpcplus.eval_ruleset(graph, expr, cfg)
            else:
                result = gpc.engine.eval_query(graph, expr, cfg)
        with tracer.span("values.serialize"):
            values = gpc.values
            if rules:
                lines = sorted(
                    json.dumps({"tuple": [values.serialize_value(v) for v in row]}, sort_keys=True)
                    for row in result
                )
            else:
                lines = [
                    json.dumps(values.serialize_answer(a), sort_keys=True)
                    for a in sorted(result, key=values.answer_sort_key)
                ]
            stdout = "".join(line + "\n" for line in lines)
    return graph, text, expr, cfg, stdout


def _join_size(gpc, query, answers: dict) -> tuple[list, int]:
    """Bindings of a join tree's output, and the pairs a nested loop tries."""
    if not isinstance(query, gpc.ast.Join):
        return [a.bindings for a in answers[id(query)]], 0
    left, tried_l = _join_size(gpc, query.left, answers)
    right, tried_r = _join_size(gpc, query.right, answers)
    shared = sorted(
        set(gpc.typecheck.infer_schema(query.left)) & set(gpc.typecheck.infer_schema(query.right))
    )
    by_key: dict = defaultdict(list)
    for mu in right:
        by_key[tuple(mu[v] for v in shared)].append(mu)
    out = [
        {**mu, **nu} for mu in left for nu in by_key.get(tuple(mu[v] for v in shared), ())
    ]
    return out, tried_l + tried_r + len(left) * len(right)


def probe(gpc, tracer: Tracer, graph, expr, cfg, counts: Counter, sat_seen: list) -> float:
    """Per-leaf counts for one query; returns the seconds its leaves take alone."""
    engine = gpc.engine
    leaf_seconds = 0.0
    with tracer.span("probe"):
        for body in _bodies(gpc, expr):
            answers = {}
            for leaf in _leaves(gpc, body):
                sat_seen.clear()
                with tracer.span("probe.leaf"):
                    start = time.perf_counter()
                    answers[id(leaf)] = engine.eval_query(graph, leaf, cfg)
                    leaf_seconds += time.perf_counter() - start
                found = answers[id(leaf)]
                restrictor, pattern = leaf.restrictor, leaf.pattern
                bound = engine.default_length_bound(restrictor, graph, pattern, cfg.bound_ceiling)
                if restrictor.has_shortest:
                    if not sat_seen:  # the evaluation did not ask for the pairs
                        engine.satisfiable_pairs(graph, pattern, cfg.collect_mode)
                    sat = sat_seen[-1]
                    answered = {(a.paths[0].src, a.paths[0].tgt) for a in found}
                    longest = max((a.paths[0].length for a in found), default=0)
                    counts["engine.sat_pairs"] += len(sat)
                    counts["answered_pairs"] += len(answered)
                    counts["engine.strata"] += longest + 1 if sat <= answered else bound + 1
                elif gpc.ast.expr_vars(pattern):
                    walk_cfg = engine.EvalConfig(collect_mode=cfg.collect_mode, max_len=bound)
                    with tracer.span("probe.walks"):
                        walks = engine.eval_pattern(graph, pattern, walk_cfg)
                    counts["engine.walks_enumerated"] += len(walks)
                    counts["kept_walks"] += len(found)
            if isinstance(body, gpc.ast.Join):
                joined, tried = _join_size(gpc, body, answers)
                counts["engine.join_pairs_tried"] += tried
                counts["join_output"] += len(joined)
    return leaf_seconds


def _probe_once(gpc, tracer: Tracer, case, graph, expr, cfg, counts: Counter, sat_seen: list):
    """`probe` under its own time limit. A probe that fails leaves the
    query's outcome alone: it is reported, its counts are dropped, and
    the case gets no join time (None)."""
    found: Counter = Counter()
    try:
        with time_limit():
            seconds = probe(gpc, tracer, graph, expr, cfg, found, sat_seen)
    except QueryTimeout:
        print(f"probe failed: {case.name} (timeout after {QUERY_TIMEOUT_S:g} s)")
        return None
    except gpc.engine.ResourceLimitError:
        print(f"probe failed: {case.name} (resource-limit)")
        return None
    counts.update(found)
    return seconds


def traced_run(gpc, work, seconds: float):
    """Untraced and traced passes over the cases, in rounds, then probes."""
    tracer = Tracer()
    outcomes: list[list[Outcome]] = [[] for _ in work.cases]
    counts: Counter = Counter()
    leaf_seconds: dict[int, float | None] = {}
    per_query: list[dict[str, float]] = []
    untraced_s = 0.0
    sat_seen: list = []
    original = gpc.engine.satisfiable_pairs

    def sat_pairs(*args, **kwargs):
        with tracer.span("engine.sat_pairs"):
            pairs = original(*args, **kwargs)
        sat_seen.append(pairs)
        return pairs

    gpc.engine.satisfiable_pairs = sat_pairs
    start = time.perf_counter()
    try:
        for rounds in itertools.count(1):
            round_start = time.perf_counter()
            for i, argv in enumerate(work.argv):
                plain = run_query(gpc, argv)
                record(outcomes[i], plain)
                tracer.query_id = f"{work.cases[i].name}/{rounds}"
                root = len(tracer.spans)
                try:
                    with time_limit():
                        graph, text, expr, cfg, stdout = traced_query(gpc, tracer, argv)
                except QueryTimeout:
                    record(outcomes[i], Outcome(QUERY_TIMEOUT_S, None, "timeout"))
                    continue
                except gpc.engine.ResourceLimitError:
                    record(outcomes[i], Outcome(QUERY_TIMEOUT_S, None, "resource-limit"))
                    continue
                _, begin, end, _, _ = tracer.spans[root]
                record(outcomes[i], Outcome(end - begin, stdout))
                if i not in leaf_seconds:
                    leaf_seconds[i] = _probe_once(
                        gpc, tracer, work.cases[i], graph, expr, cfg, counts, sat_seen
                    )
                    _count_query(gpc, counts, graph, text, stdout)
                if plain.failure:
                    continue
                times = tracer.self_times(root)
                times["total"] = end - begin
                joins = any(isinstance(b, gpc.ast.Join) for b in _bodies(gpc, expr))
                if joins and leaf_seconds[i] is not None:
                    whole = times["engine.eval"] + times["engine.sat_pairs"]
                    times["engine.join"] = max(whole - leaf_seconds[i], 0.0)
                    times["engine.eval"] -= times["engine.join"]
                per_query.append(times)
                untraced_s += plain.seconds
            now = time.perf_counter()
            if now + (now - round_start) > start + seconds:
                break
    finally:
        gpc.engine.satisfiable_pairs = original
    (work.dir / "spans.json").write_text(json.dumps(tracer.spans))
    return outcomes, _metrics(per_query, counts, untraced_s)


def _bodies(gpc, expr) -> list:
    return [r.body for r in expr.rules] if isinstance(expr, gpc.ast.RuleSet) else [expr]


def _count_query(gpc, counts: Counter, graph, text: str, stdout: str) -> None:
    counts["graph.elements"] += len(graph.nodes) + graph.edge_count
    if not text.startswith("#"):
        counts["parser.tokens"] += len(gpc.parser.tokenize(text))
    counts["engine.answers"] += stdout.count("\n")
    counts["values.bytes"] += len(stdout.encode())


def _metrics(per_query: list[dict], counts: Counter, untraced_s: float) -> dict:
    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    query_ms = [1000 * t["total"] for t in per_query]
    metrics = {}
    for layer in TIMED_LAYERS:
        ran = [1000 * t[layer] for t in per_query if t.get(layer)]
        metrics[f"{layer}_ms"] = (statistics.median(ran) if ran else 0.0, "ms")
        metrics[f"{layer}_ms.share"] = (ratio(sum(ran), sum(query_ms)), "ratio")
    for name in (
        "graph.elements",
        "parser.tokens",
        "engine.sat_pairs",
        "engine.strata",
        "engine.answers",
        "engine.walks_enumerated",
        "engine.join_pairs_tried",
    ):
        metrics[name] = (counts[name], "count")
    metrics["values.bytes"] = (counts["values.bytes"], "bytes")
    metrics["engine.pair_coverage"] = (ratio(counts["answered_pairs"], counts["engine.sat_pairs"]), "ratio")
    metrics["engine.restrictor_keep_ratio"] = (
        ratio(counts["kept_walks"], counts["engine.walks_enumerated"]),
        "ratio",
    )
    metrics["engine.join_hit_ratio"] = (
        ratio(counts["join_output"], counts["engine.join_pairs_tried"]),
        "ratio",
    )
    metrics["trace.query_ms"] = (statistics.median(query_ms), "ms")
    metrics["trace.queries"] = (len(per_query), "count")
    metrics["trace.overhead_ratio"] = (ratio(sum(query_ms) / 1000, untraced_s), "ratio")
    return metrics
