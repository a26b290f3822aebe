"""Closed-loop benchmark of `gpc run`, one client, in one process.

    python3 bench/run.py --workload paths|joins \
        [--seed N] [--seconds S] [--trace 0|1]

One query is one call to `gpc.cli.main(["run", graph, query, ...])` with
stdout and stderr captured: graph load, parse or translate, typecheck,
evaluation, then sort and NDJSON serialization, exactly as a CLI user
runs it, minus interpreter start-up. The workload's cases run in rounds
for `--seconds`, and at least twice each; the last round may stop part
way. Afterwards every output is checked against references independent of
the engine (see `check`). The last stdout line is one JSON object with
the end-to-end metrics, or with `--trace 1` the per-layer metrics of a
separately traced run (see `layers`).

End-to-end times and rates are scaled to a reference host speed, which
calibrations between the queries measure (see `speed`); the lines before
the result give the unscaled figures and the scale. A case's latency is
the median of its runs; `query_ms.p50` and `query_ms.p90` are the
geometric means over the query families of each family's percentile.

A query that exits with code 1 for a resource limit, or that runs into
the per-query timeout, is a failed query: it is listed with its case and
reason, counted in `failed`, and enters the percentiles at the timeout.
Any other error is a benchmark error and ends the run without a result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import cases as workloads
from check import check_case
from query import BenchError, Outcome, install_timer, record, run_query
from speed import Speedometer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "work"
SETUPS = 7
MIN_ROUNDS = 2  # every case is repeated, so that its outputs can be compared


def import_gpc():
    """A fresh import of the package, so that set-up pays for it each time."""
    for name in [m for m in sys.modules if m == "gpc" or m.startswith("gpc.")]:
        del sys.modules[name]
    gpc = importlib.import_module("gpc")
    importlib.import_module("gpc.cli")
    return gpc


class Workload:
    """The generated inputs of one workload and seed, written to disk."""

    def __init__(self, name: str, seed: int):
        self.cases = workloads.build(name, seed)
        self.dir = WORK / f"{name}-{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.docs: dict[tuple, dict] = {}
        self.argv: list[list[str]] = []
        families: dict = {}
        for case in self.cases:
            if case.graph_key not in self.docs:
                self.docs[case.graph_key] = workloads.graph_doc(case.graph_key)
                kind, size, graph_seed = case.graph_key
                (self.dir / f"{kind}{size}-{graph_seed}.json").write_text(
                    json.dumps(self.docs[case.graph_key])
                )
            if case.family.name not in families:
                families[case.family.name] = self.dir / f"q{len(families):02d}.txt"
                families[case.family.name].write_text(case.query.text())
            kind, size, graph_seed = case.graph_key
            self.argv.append(
                [
                    "run",
                    str(self.dir / f"{kind}{size}-{graph_seed}.json"),
                    str(families[case.family.name]),
                    "--collect-mode",
                    case.family.mode,
                ]
            )


def setup(name: str, seed: int):
    """Import gpc, generate and write the inputs, run one warm-up query."""
    start = time.perf_counter()
    gpc = import_gpc()
    work = Workload(name, seed)
    run_query(gpc, work.argv[0])
    return time.perf_counter() - start, gpc, work


def timed_rounds(gpc, work: Workload, seconds: float, speed: Speedometer):
    """Run the cases in rounds, calibrating between queries, until
    `seconds` have passed and MIN_ROUNDS are complete; the last round may
    stop part way. Returns the per-query outcomes and, beside them, the
    moment each query started."""
    outcomes: list[list[Outcome]] = [[] for _ in work.cases]
    moments: list[list[float]] = [[] for _ in work.cases]
    deadline = time.perf_counter() + seconds
    for rounds in itertools.count(1):
        for i, argv in enumerate(work.argv):
            moments[i].append(time.perf_counter())
            record(outcomes[i], run_query(gpc, argv))
            speed.maybe_sample()
            if rounds > MIN_ROUNDS and time.perf_counter() > deadline:
                break
        if rounds >= MIN_ROUNDS and time.perf_counter() > deadline:
            break
    speed.burst()  # so that the last queries have calibrations after them
    return outcomes, moments


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_outputs(gpc, work: Workload, outcomes: list[list[Outcome]]) -> list[str]:
    """All output checks; returns the problems found."""
    problems = []
    digests = {}
    oracle_runs = oracle_tries = 0
    for case, runs in zip(work.cases, outcomes):
        done = [o for o in runs if o.failure is None]
        if not done:
            continue
        texts = {o.digest for o in done}
        if len(texts) != 1:
            problems.append(f"{case.name}: output differs between repetitions")
        digests[case.inputs] = done[0].digest
        stdout = next(o.stdout for o in runs if o.stdout is not None)
        oracle = case.index == 0
        found, ran = check_case(gpc, case, work.docs[case.graph_key], stdout, oracle)
        oracle_tries += oracle
        oracle_runs += ran
        problems += [f"{case.name}: {p}" for p in found]
    # The same seed and the same program must give the same outputs.
    stored = work.dir / f"digests-{_source_digest()}.json"
    before = json.loads(stored.read_text()) if stored.exists() else {}
    problems += [
        f"{case.name}: output differs from an earlier run"
        for case in work.cases
        if before.get(case.inputs, digests.get(case.inputs)) != digests.get(case.inputs)
    ]
    stored.write_text(json.dumps({**before, **digests}))
    print(f"checked {len(digests)} cases; oracle compared {oracle_runs} of {oracle_tries} tried")
    return problems


def _family_percentiles(cases, ms: list[float]) -> tuple[float, float]:
    """p50 and p90 of each query family's case latencies, each combined
    over the families by geometric mean. Pooling all cases instead put the
    p90 among a few heavy random graphs, whose number changes with the
    seed; per family, every query shape weighs the same."""
    by_family: dict[str, list[float]] = {}
    for case, t in zip(cases, ms):
        by_family.setdefault(case.family.name, []).append(t)
    p50s, p90s = [], []
    for times in by_family.values():
        p50s.append(statistics.median(times))
        p90s.append(statistics.quantiles(times, n=10, method="inclusive")[-1] if len(times) > 1 else times[0])
    return statistics.geometric_mean(p50s), statistics.geometric_mean(p90s)


def end_to_end(work: Workload, outcomes: list[list[Outcome]], moments: list[list[float]],
               speed: Speedometer, setup_s: float) -> dict:
    """The end-to-end metrics. Each query's time is scaled to the reference
    host speed by the calibrations around it (see `speed`), and a case's
    latency is the median over its rounds. Percentiles are taken per query
    family (see `_family_percentiles`); the rates are those of one round
    at each case's latency. A failed query enters at the timeout, unscaled.
    `setup_s` is already scaled."""
    raw, scaled, completed, answers = [], [], 0.0, 0.0
    for runs, starts in zip(outcomes, moments):
        raw.append(statistics.median(o.seconds for o in runs))
        scaled.append(statistics.median(
            o.seconds if o.failure else o.seconds * speed.factor_at(t)
            for o, t in zip(runs, starts)
        ))
        done = [o for o in runs if o.failure is None]
        completed += len(done) / len(runs)
        answers += sum(o.answers for o in done) / len(runs)
    round_s = sum(scaled)
    p50, p90 = _family_percentiles(work.cases, [t * 1000 for t in scaled])
    raw50, raw90 = _family_percentiles(work.cases, [t * 1000 for t in raw])
    print(
        f"unscaled: p50 {raw50:.2f} ms, p90 {raw90:.2f} ms, "
        f"{completed / sum(raw):.2f} queries/s; host speed x{speed.factor():.3f} the reference"
    )
    flat = [o for runs in outcomes for o in runs]
    return {
        "setup_s": (setup_s, "s"),
        "query_ms.p50": (p50, "ms"),
        "query_ms.p90": (p90, "ms"),
        "queries_per_s": (completed / round_s, "1/s"),
        "answers_per_s": (answers / round_s, "1/s"),
        "completed_ratio": (sum(o.failure is None for o in flat) / len(flat), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gpc" / "cli.py").is_file():
        print(f"no gpc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    install_timer()

    speed = Speedometer()
    raw, scaled = [], []  # each set-up is scaled by calibrations right after it
    for _ in range(SETUPS):
        seconds, gpc, work = setup(args.workload, args.seed)
        raw.append(seconds)
        scaled.append(seconds * speed.factor(speed.burst()))
    setup_s = statistics.median(scaled)
    print(
        f"workload {args.workload}, seed {args.seed}: {len(work.cases)} cases; "
        f"unscaled set-up {statistics.median(raw):.3f} s"
    )

    if args.trace:
        import layers

        outcomes, metrics = layers.traced_run(gpc, work, args.seconds)
    else:
        outcomes, moments = timed_rounds(gpc, work, args.seconds, speed)
        metrics = end_to_end(work, outcomes, moments, speed, setup_s)
        print(f"{len(outcomes[0])} to {len(outcomes[-1])} runs of each case")
    attempted = sum(len(runs) for runs in outcomes)
    failed = 0
    for case, runs in zip(work.cases, outcomes):
        for o in runs:
            if o.failure:
                failed += 1
                print(f"failed: {case.name} ({o.failure} after {o.elapsed:.1f} s)")
    problems = check_outputs(gpc, work, outcomes)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 1 if problems else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
