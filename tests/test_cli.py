import argparse
import contextlib
import gc
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gpc
from gpc import (
    Answer,
    Assignment,
    C2rpq,
    EdgeVal,
    EvalConfig,
    Group,
    GroupVal,
    Inverse,
    Join,
    Label,
    Maybe,
    NodeVal,
    NreConcat,
    NrePlus,
    NreStar,
    NreUnion,
    PathVal,
    ResourceLimitError,
    Restricted,
    Restrictor,
    Rule,
    RuleSet,
    TypeCheckError,
    Union_,
    brute_force_query,
    default_length_bound,
    eval_pattern,
    eval_query,
    eval_ruleset,
    infer_schema,
    load_graph,
    parse,
    parse_nre,
    parse_pattern,
    parse_query,
    parse_ruleset,
    translate_source,
)
from gpc.ast import query_patterns
from gpc.cli import COMMANDS, _as_table_row, _scan, build_arg_parser, main
from gpc.engine import COLLECT_MODES, pattern_rows, query_rows, ruleset_rows
from gpc.render import render
from gpc.typecheck import EDGE, PATH
from gpc.values import (
    answer_records,
    answer_sort_key,
    match_records,
    serialize_answer,
    serialize_path,
    serialize_value,
    tuple_encoder,
)

import gen


@pytest.fixture
def graph_file(tmp_path):
    data = {
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
    p = tmp_path / "graph.json"
    p.write_text(json.dumps(data))
    return str(p)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_schema_json(capsys):
    code, out, _ = run_cli(capsys, "check", "(x) -[y]-> ()")
    assert code == 0
    assert json.loads(out) == {"x": "Node", "y": "Edge"}


def test_check_type_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "check", "(x)-[x]->()")
    assert code == 2
    diag = json.loads(err)
    assert diag["error"] == "type"
    assert diag["kind"] == "conflicting_types"
    assert diag["variable"] == "x"


def test_check_parse_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "check", "(x -[")
    assert code == 2
    diag = json.loads(err)
    assert diag["error"] == "parse"
    assert "line" in diag and "column" in diag and "expected" in diag


def test_run_shortest_single_line(capsys, graph_file, tmp_path):
    query = tmp_path / "q.gpc"
    query.write_text("SHORTEST (:A) -[x]->{0..} (:B)")
    code, out, err = run_cli(capsys, "run", graph_file, str(query))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    answer = json.loads(lines[0])
    assert answer["paths"] == [{"elements": ["nA", "e2", "nB"]}]
    report = json.loads(err.strip().splitlines()[-1])
    assert report["answer_count"] == 1
    assert report["mode"] == "grouping"
    assert "truncated" not in report


def test_run_deterministic_output(capsys, graph_file, tmp_path):
    query = tmp_path / "q.gpc"
    query.write_text("TRAIL (:A) -[x]->{0..} (:B)")
    code1, out1, _ = run_cli(capsys, "run", graph_file, str(query))
    code2, out2, _ = run_cli(capsys, "run", graph_file, str(query))
    assert code1 == code2 == 0
    assert out1 == out2


def test_run_syntactic_mode_rejects_statically(capsys, graph_file, tmp_path):
    query = tmp_path / "q.gpc"
    query.write_text("TRAIL [()]{0..}")
    code, _, err = run_cli(
        capsys, "run", graph_file, str(query), "--collect-mode", "syntactic"
    )
    assert code == 2
    assert json.loads(err)["kind"] == "edgeless_repetition"


def test_run_resource_limit_exit_1(capsys, graph_file, tmp_path):
    query = tmp_path / "q.gpc"
    query.write_text("TRAIL () [->]{0..} ()")
    code, _, err = run_cli(
        capsys, "run", graph_file, str(query), "--max-answers", "2"
    )
    assert code == 1
    diag = json.loads(err)
    assert diag["error"] == "resource-limit"
    assert "truncated" not in diag


@pytest.mark.parametrize(
    "text, code, lines",
    [("SHORTEST (x) -> (y)", 0, 2), ("SHORTEST (x) (y)", 1, 0)],
)
def test_node_atom_beside_a_path_holds_no_answer_set(capsys, tmp_path, text, code, lines):
    # Ten nodes, two edges, a ceiling of 5. A node atom beside a path only
    # filters that path's endpoints, so it never holds its ten answers;
    # `(x) (y)` has no path operand, and its atoms still count.
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({
        "nodes": [{"id": f"n{i}"} for i in range(10)],
        "directed_edges": [
            {"id": "e1", "src": "n0", "tgt": "n1"},
            {"id": "e2", "src": "n1", "tgt": "n2"},
        ],
    }))
    query = tmp_path / "q.gpc"
    query.write_text(text)
    got, out, err = run_cli(capsys, "run", str(graph), str(query), "--max-answers", "5")
    assert got == code
    assert len(out.splitlines()) == lines
    if code:
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert json.loads(err)["error"] == "resource-limit"


def test_type_error_names_the_same_variable_under_any_hash_seed():
    # Both x and z conflict across the union; the error must name the same
    # one whatever order the process's string hashing gives a set.
    src = str(Path(gpc.__file__).resolve().parent.parent)
    text = "p = TRAIL [(x:A){0..}] + [-[z]-], SIMPLE [<-[x]-] + [(z)]"
    errors = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "gpc.cli", "check", text],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        errors.append(proc.stderr)
    assert errors[0] == errors[1]
    assert json.loads(errors[0])["kind"] == "conflicting_types"


@pytest.mark.parametrize(
    "text", ["SHORTEST (x) ->{1000001} (y)", "SHORTEST [->]{1000001..}"]
)
def test_shortest_past_the_bound_ceiling_is_a_resource_limit(capsys, tmp_path, text):
    # Walks of these lengths join a and b both ways, but the default
    # SHORTEST bound stops at 10^6: an empty answer set would be wrong.
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({
        "nodes": [{"id": "a"}, {"id": "b"}],
        "directed_edges": [
            {"id": "e1", "src": "a", "tgt": "b"},
            {"id": "e2", "src": "b", "tgt": "a"},
        ],
    }))
    query = tmp_path / "q.gpc"
    query.write_text(text)
    code, out, err = run_cli(capsys, "run", str(graph), str(query))
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "resource-limit"


@pytest.mark.parametrize("flag", ["--max-len", "--max-answers"])
@pytest.mark.parametrize("value", ["-1", "two"])
def test_run_rejects_bad_limits(capsys, graph_file, tmp_path, flag, value):
    query = tmp_path / "q.gpc"
    query.write_text("SHORTEST (x) -> (y)")
    with pytest.raises(SystemExit) as exit_info:
        main(["run", graph_file, str(query), flag, value])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "must be a non-negative integer" in err
    assert "Traceback" not in err


# Argument lists that parse, and that fail in each way argparse reports:
# `_scan` must read each one as argparse does, or leave it to argparse.
ARGV_FORMS = [
    ["run", "g.json", "q.gpc", "--collect-mode", "dynamic", "--max-len", "3",
     "--max-answers", "7", "--lenient-unify", "--oracle", "--format", "ndjson"],
    ["run", "g.json", "q.gpc", "--max-a", "3", "--format=table"],
    ["run", "g.json"],
    ["run", "g.json", "q.gpc", "extra"],
    ["run", "g.json", "q.gpc", "--bogus"],
    ["run", "g.json", "q.gpc", "--max-len", "-1"],
    ["run", "g.json", "q.gpc", "--max-len", "9" * 5000],
    ["run", "g.json", "q.gpc", "--collect-mode", "eager"],
    ["run", "-h"],
    ["check", "(x)", "--graph", "g.json"],
    ["check", "(x)", "--graph", "-h"],
    ["check", "(x)", "--graph"],
    ["check", "(x)", "--max-len", "2"],
    ["match", "g.json", "(x)", "--collect-mode", "syntactic", "--max-len", "2"],
    ["match", "g.json", "(x)", "--oracle"],
    ["translate", "q.nre"],
    ["translate", "-h"],
    ["translate"],
]

ARGV_FILES = ["g.json", "q.gpc", "(x)"]
ARGV_VALUES = [
    *ARGV_FILES,
    *sorted({choice for command in COMMANDS.values() for option in command.options
             for choice in option.choices}),
    "-1", "3", "\u0663", "two", "", "9" * 5000,
]
ARGV_TOKENS = [
    *COMMANDS,
    *sorted({option.flag for command in COMMANDS.values() for option in command.options}),
    "--max-a", "--max-len=3", "-h", "--help", "--", "-",
    *ARGV_VALUES,
]


def _argparse_outcome(argv):
    """argparse's namespace of `argv` as a dict, or None if it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_arg_parser().parse_args(argv))
        except SystemExit:
            return None


@st.composite
def _argvs(draw):
    """A canonical argument list, that is a command and then, in any order,
    its positionals and some of its options with valid values; then up to
    two edits, each inserting, replacing or deleting one token."""
    name = draw(st.sampled_from(list(COMMANDS)))
    command = COMMANDS[name]
    pieces = [[draw(st.sampled_from(ARGV_FILES))] for _ in command.positionals]
    options = st.lists(st.sampled_from(command.options), unique=True) if command.options else st.just([])
    for option in draw(options):
        valid = st.sampled_from(option.choices or ("3", "\u0663"))
        pieces.append([option.flag] + ([] if option.kind == "flag" else [draw(valid)]))
    argv = [name, *(token for piece in draw(st.permutations(pieces)) for token in piece)]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(argv)))
        width = draw(st.integers(0, 1))  # 0 inserts, 1 replaces or deletes
        argv[at:at + width] = draw(st.lists(st.sampled_from(ARGV_TOKENS), max_size=1))
    return argv


@settings(max_examples=300, deadline=None)
@given(_argvs())
def test_scan_reads_argv_as_argparse_does_or_leaves_it(argv):
    scanned = _scan(argv)
    assert scanned is None or vars(scanned) == _argparse_outcome(argv)


for _argv in [*ARGV_FORMS, []]:
    test_scan_reads_argv_as_argparse_does_or_leaves_it = example(_argv)(
        test_scan_reads_argv_as_argparse_does_or_leaves_it
    )


# The forms above that `_scan` reads itself; it leaves every other to argparse.
SCANNED_FORMS = [
    ARGV_FORMS[0],
    ["check", "(x)", "--graph", "g.json"],
    ["match", "g.json", "(x)", "--collect-mode", "syntactic", "--max-len", "2"],
    ["translate", "q.nre"],
]


@pytest.mark.parametrize(
    "argv", [*ARGV_FORMS, []],
    ids=lambda argv: " ".join(token[:12] for token in argv) or "(empty)",
)
def test_scan_reads_the_canonical_forms_and_leaves_the_rest(argv):
    scanned = _scan(argv)
    assert (scanned is not None) == (argv in SCANNED_FORMS)
    if scanned is not None:
        assert vars(scanned) == _argparse_outcome(argv)


FULL_PARSER = list(COMMANDS)


@pytest.mark.parametrize(
    "argv, built",
    [
        (["check", "(x)", "--graph", "missing.json"], []),
        (["run", "missing.json", "missing.gpc", "--max-len", "3", "--oracle",
          "--format", "table"], []),
        (["match", "missing.json", "(x)", "--collect-mode", "dynamic",
          "--lenient-unify", "--max-answers", "\u0663"], []),
        (["translate", "missing.nre"], []),
        ([], FULL_PARSER),
        (["-h"], FULL_PARSER),
        (["frobnicate"], FULL_PARSER),
        (["run", "missing.json", "missing.gpc", "--max-len=3"], FULL_PARSER),
        (["run", "missing.json", "missing.gpc", "--max-a", "3"], FULL_PARSER),
        (["run", "missing.json", "missing.gpc", "--max-len", "two"], FULL_PARSER),
    ],
)
def test_main_builds_argparse_only_for_help_errors_and_other_spellings(
    capsys, monkeypatch, argv, built
):
    made, names = [], []
    init = argparse.ArgumentParser.__init__
    add_parser = argparse._SubParsersAction.add_parser

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    def counting(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    with contextlib.suppress(SystemExit):
        main(argv)
    assert names == built
    assert bool(made) == bool(built)


@pytest.mark.parametrize(
    "argv, code, shown",
    [
        (["--help"], 0, ["{check,run,match,translate}", "translate #nre/#c2rpq input"]),
        (["frobnicate"], 2, ["argument command: invalid choice"]),
    ],
)
def test_the_module_entry_point_reads_its_arguments(argv, code, shown):
    src = str(Path(gpc.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "gpc.cli", *argv],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == code
    assert all(text in proc.stdout + proc.stderr for text in shown)
    assert "Traceback" not in proc.stderr


def test_run_oracle_agreement(capsys, graph_file, tmp_path):
    query = tmp_path / "q.gpc"
    query.write_text("SHORTEST (:A) -[x]->{0..} (:B)")
    code, out, _ = run_cli(
        capsys, "run", graph_file, str(query), "--oracle", "--max-len", "3"
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 1


ORACLE_QUERY = "SHORTEST (:A) -[x]->{0..} (:B)"  # one answer on graph_file
ORACLE_RULES = "Ans(x, y) <- SHORTEST (x:A) -> (y)"  # two tuples


def _run_oracle(capsys, graph_file, tmp_path, text, *flags):
    query = tmp_path / "q.gpc"
    query.write_text(text)
    return run_cli(capsys, "run", graph_file, str(query), "--oracle", *flags)


@pytest.mark.parametrize(
    "text, message",
    [
        (ORACLE_QUERY, "engine produced 1 answers, oracle 0"),
        (ORACLE_RULES, "engine produced 2 tuples, oracle 0"),
    ],
)
def test_run_oracle_mismatch_exit_3(capsys, graph_file, tmp_path, monkeypatch, text, message):
    monkeypatch.setattr("gpc.cli.brute_force_query", lambda *args: set())
    code, out, err = _run_oracle(capsys, graph_file, tmp_path, text, "--max-len", "3")
    assert code == 3
    assert out == ""
    assert json.loads(err) == {"error": "oracle-mismatch", "message": message}


def test_run_oracle_checks_the_printed_answer_lines(capsys, graph_file, tmp_path, monkeypatch):
    # The answers agree with the oracle's; one printed line does not.
    def corrupted(*args):
        records = answer_records(*args)
        records[-1] += " "
        return records

    monkeypatch.setattr("gpc.cli.answer_records", corrupted)
    code, out, err = _run_oracle(capsys, graph_file, tmp_path, ORACLE_QUERY, "--max-len", "3")
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "oracle-mismatch"


def test_run_oracle_checks_the_printed_tuple_lines(capsys, graph_file, tmp_path, monkeypatch):
    def corrupted():
        encode = tuple_encoder()

        def compile_types(types):
            line = encode(types)
            return lambda row: line(row) + (" " if row[-1] == "nC" else "")

        return compile_types

    monkeypatch.setattr("gpc.cli.tuple_encoder", corrupted)
    code, out, err = _run_oracle(capsys, graph_file, tmp_path, ORACLE_RULES, "--max-len", "3")
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "oracle-mismatch"


@pytest.mark.parametrize("text", ["SHORTEST (x:Z)", "Ans(x) <- SHORTEST (x:Z)"])
@pytest.mark.parametrize("max_len", ["0", "2"])
def test_run_oracle_under_a_zero_answer_ceiling(capsys, graph_file, tmp_path, text, max_len):
    # No node has label Z, so the engine's answer set is empty and within
    # the ceiling of 0. The oracle's path budget is its own default, not
    # the ceiling, so it enumerates the paths up to the bound and agrees.
    got, out, err = _run_oracle(
        capsys, graph_file, tmp_path, text, "--max-answers", "0", "--max-len", max_len
    )
    assert (got, out) == (0, "")
    assert json.loads(err)["answer_count"] == 0


@pytest.mark.parametrize(
    "text",
    [
        "TRAIL (x) -[e]->{1..} (y)",
        "SIMPLE (x) <-{0..} (y)",
        "SHORTEST TRAIL (x:A) -[e]->{1..} (y)",
        "Ans(x, y) <- TRAIL (x) ->{1..} (y); Ans(x, y) <- SHORTEST SIMPLE (x) ->{1..3} (y)",
    ],
)
def test_run_oracle_at_the_default_bound(capsys, graph_file, tmp_path, text):
    # No --max-len: the oracle enumerates each leg to that leg's own
    # default bound, |E| under TRAIL and |N| under SIMPLE. Plain SHORTEST's,
    # (|N| + |E|) * 2^size, is too long for the oracle's walks on any graph
    # with two edges at a node.
    code, out, err = _run_oracle(capsys, graph_file, tmp_path, text)
    assert code == 0, err
    assert json.loads(err)["answer_count"] == len(out.splitlines()) > 0


@pytest.mark.parametrize(
    "text, category",
    [
        ("SHORTEST " + "[" * 600 + "(x)" + "]" * 600, "parse"),
        ("SHORTEST " + "() " * 1200, "input"),
    ],
    ids=["600-nested-groups", "1200-atoms"],
)
def test_run_deep_input_is_structured_error(capsys, graph_file, tmp_path, text, category):
    query = tmp_path / "q.gpc"
    query.write_text(text)
    code, out, err = run_cli(capsys, "run", graph_file, str(query))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert json.loads(err)["error"] == category


@pytest.mark.parametrize(
    "text, args, bound",
    [
        ("SHORTEST ()", [], 0),
        ("SHORTEST (:A) -[x]->{0..2} (:B)", [], 2),
        ("SHORTEST (:A) -[x]->{0..2} (:B)", ["--max-len", "1"], 1),
        ("SHORTEST (x) -> (y), TRAIL (y) ->{1..2} (z)", [], 2),
        ("SHORTEST (:A) -[x]->{0..} (:B)", [], None),
        # The pair analysis answers this leg alone; it reports the bound
        # that the leg would have been listed to.
        ("Ans(x, y) <- SHORTEST (x) ->{1..} (y)", [], None),
        ("Ans(x) <- SHORTEST (x) ->{1..3} (); Ans(x) <- TRAIL (x) -> ()", [], 3),
        ("Ans(x) <- TRAIL (x) -> (); Ans(x) <- SHORTEST (x) ->{1..3} ()", [], 3),
    ],
)
def test_run_reports_bound_used(capsys, graph_file, tmp_path, text, args, bound):
    query = tmp_path / "q.gpc"
    query.write_text(text)
    code, _, err = run_cli(capsys, "run", graph_file, str(query), *args)
    assert code == 0
    if bound is None:  # an open repetition keeps the default SHORTEST bound
        ((restrictor, pattern),) = query_patterns(parse(text))
        assert restrictor is Restrictor.SHORTEST
        bound = default_length_bound(restrictor, load_graph(graph_file), pattern)
        assert bound > 2
    assert json.loads(err.strip().splitlines()[-1])["bound_used"] == bound


def test_run_leg_stops_at_its_roots_end(capsys, tmp_path, root_asks):
    # A TRAIL leg is listed up to its bound, |E|, but its repetition runs
    # dry past the b-chain's two edges and closes the root's end, so the
    # leg asks its root for no later stratum. Its bound stays fixed before
    # listing, and the long a-cycle keeps it far from the root's end.
    n = 40
    edges = [
        {"id": f"a{i}", "src": f"c{i}", "tgt": f"c{(i + 1) % n}", "labels": ["a"]}
        for i in range(n)
    ]
    edges += [
        {"id": "b1", "src": "p", "tgt": "q", "labels": ["b"]},
        {"id": "b2", "src": "q", "tgt": "r", "labels": ["b"]},
    ]
    nodes = [{"id": f"c{i}"} for i in range(n)] + [{"id": v} for v in "pqr"]
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"nodes": nodes, "directed_edges": edges}))
    text = "TRAIL (x) -[:b]->{1..} (y)"
    query = tmp_path / "q.gpc"
    query.write_text(text)
    code, out, err = run_cli(capsys, "run", str(graph), str(query))
    assert code == 0
    assert len(root_asks) <= 4
    assert json.loads(err.strip().splitlines()[-1])["bound_used"] == len(edges)
    expected = {
        json.dumps(serialize_answer(a), sort_keys=True)
        for a in brute_force_query(load_graph(str(graph)), parse_query(text), EvalConfig(max_len=3))
    }
    assert set(out.splitlines()) == expected and len(expected) == 3


def test_run_computes_no_window_after_the_run(capsys, graph_file, tmp_path, monkeypatch):
    # Each leg's bound comes from its own evaluation, which reads the
    # windows off its compiled records; no leg's window is computed again.
    calls = []

    def counting(pattern, _match_lengths=gpc.ast.match_lengths):
        calls.append(pattern)
        return _match_lengths(pattern)

    for module in (gpc.engine, gpc.typecheck):
        monkeypatch.setattr(module, "match_lengths", counting, raising=False)
    query = tmp_path / "q.gpc"
    query.write_text("SHORTEST (x) ->{1..} (y), TRAIL (y) ->{1..2} (z)")
    code, out, err = run_cli(
        capsys, "run", graph_file, str(query), "--collect-mode", "grouping"
    )
    assert code == 0 and out
    assert json.loads(err)["bound_used"] > 2
    assert calls == []


@pytest.mark.parametrize(
    "text",
    ["SHORTEST (x) ->{1..} (y)", "Ans(x, z) <- SHORTEST (x) ->{1..} (y), SHORTEST (y) -> (z)"],
)
def test_run_computes_no_pattern_size_after_compiling(
    capsys, graph_file, tmp_path, monkeypatch, text
):
    # The default SHORTEST bound reads each leg's structural size off its
    # compiled root record; no leg's pattern is walked again for it.
    calls = []

    def counting(pattern, _pattern_size=gpc.ast.pattern_size):
        calls.append(pattern)
        return _pattern_size(pattern)

    monkeypatch.setattr(gpc.engine, "pattern_size", counting)
    query = tmp_path / "q.gpc"
    query.write_text(text)
    code, out, err = run_cli(capsys, "run", graph_file, str(query))
    assert code == 0 and out
    assert json.loads(err)["bound_used"] > 2
    assert calls == []


def test_run_rejects_bare_pattern(capsys, graph_file, tmp_path):
    query = tmp_path / "q.gpc"
    query.write_text("(x) -> (y)")
    code, _, err = run_cli(capsys, "run", graph_file, str(query))
    assert code == 2


def test_run_ruleset(capsys, graph_file, tmp_path):
    query = tmp_path / "q.gpc"
    query.write_text("Ans(x, y) <- SHORTEST (x:A) -> (y)")
    code, out, _ = run_cli(
        capsys, "run", graph_file, str(query), "--oracle", "--max-len", "3"
    )
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    got = {tuple(v["id"] for v in row["tuple"]) for row in rows}
    assert got == {("nA", "nB"), ("nA", "nC")}


def test_run_table_format(capsys, graph_file, tmp_path):
    query = tmp_path / "q.gpc"
    query.write_text("w = SHORTEST (:A) -[x]->{0..} (:B)")
    code, out, _ = run_cli(
        capsys, "run", graph_file, str(query), "--format", "table"
    )
    assert code == 0
    assert "nA-e2-nB" in out


def test_match_debug_output(capsys, graph_file):
    code, out, _ = run_cli(capsys, "match", graph_file, "(x:A)", "--max-len", "1")
    assert code == 0
    row = json.loads(out.strip())
    assert row["path"] == {"elements": ["nA"]}
    assert row["bindings"]["x"] == {"kind": "node", "id": "nA"}


def test_translate_roundtrip(capsys, tmp_path, graph_file):
    src = tmp_path / "query.nre"
    src.write_text("#nre\n(a [b+] c)+\n")
    code, out, _ = run_cli(capsys, "translate", str(src))
    assert code == 0
    assert out.strip().startswith("Ans(x, y) <- SHORTEST")
    # translated text uses reserved variables; run accepts the headed source
    code2, out2, _ = run_cli(capsys, "run", graph_file, str(src))
    assert code2 == 0


def test_graph_validation_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nodes": [{"id": "n"}],
                               "directed_edges": [{"id": "e", "src": "n", "tgt": "zz"}]}))
    code, _, err = run_cli(capsys, "check", "SIMPLE ()", "--graph", str(bad))
    assert code == 2
    assert json.loads(err)["error"] == "graph"


def test_missing_file_exit_1(capsys, graph_file):
    code, _, err = run_cli(capsys, "run", "/nonexistent/graph.json", "q")
    assert code == 1
    assert json.loads(err)["error"] == "io"


@pytest.mark.parametrize("command", ["check", "match"])
def test_missing_query_file_exit_1(capsys, graph_file, tmp_path, monkeypatch, command):
    # A name holding none of ( [ - < # cannot be query text, so it is a path.
    monkeypatch.chdir(tmp_path)
    argv = ["check", "typo.gpc"] if command == "check" else ["match", graph_file, "typo.gpc"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert json.loads(err)["error"] == "io"


def test_check_missing_name_with_dash_is_query_text(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, "check", "my-query.gpc")
    assert code == 2
    assert json.loads(err)["error"] == "parse"


@pytest.mark.parametrize(
    "content",
    [b"#nre\na b (", b"#c2rpq\nAns(z) <- (x, a, y)", b"\xff\xfe SHORTEST ()"],
    ids=["unbalanced-nre", "unused-head-variable", "not-utf8"],
)
def test_run_bad_input_exit_2(capsys, graph_file, tmp_path, content):
    query = tmp_path / "q.txt"
    query.write_bytes(content)
    code, out, err = run_cli(capsys, "run", graph_file, str(query))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "input"


@pytest.mark.parametrize(
    "content",
    [b'{"nodes": [', b"[1, 2]", b'{"nodes": [1]}', b"\xff\xfe{}"],
    ids=["truncated", "not-an-object", "entry-not-an-object", "not-utf8"],
)
def test_run_malformed_graph_exit_2(capsys, tmp_path, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    query = tmp_path / "q.gpc"
    query.write_text("SHORTEST ()")
    code, out, err = run_cli(capsys, "run", str(bad), str(query))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "graph"


@pytest.mark.parametrize(
    "document, violation",
    [
        ({"nodes": [{"id": "a"}], "edges": [{"id": "e", "src": "a", "tgt": "a"}]},
         "unknown graph key 'edges'"),
        ({"nodes": [{"id": "a", "label": ["A"]}]}, "a: unknown key 'label'"),
    ],
    ids=["edges", "label"],
)
def test_run_unknown_graph_key_exit_2(capsys, tmp_path, document, violation):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(document))
    query = tmp_path / "q.gpc"
    query.write_text("SHORTEST ()")
    code, out, err = run_cli(capsys, "run", str(graph), str(query))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    diag = json.loads(err)
    assert diag["error"] == "graph"
    assert diag["violations"] == [violation]


def test_run_internal_error_exit_1(capsys, graph_file, tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("path must alternate node,edge,...,node (odd length >= 1)")

    monkeypatch.setattr("gpc.cli.query_rows", broken)
    query = tmp_path / "q.gpc"
    query.write_text("SHORTEST ()")
    code, out, err = run_cli(capsys, "run", graph_file, str(query))
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    diag = json.loads(err)
    assert diag["error"] == "internal"
    assert diag["exception"] == "ValueError"


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "case, code, error",
    [
        ("ok", 0, None),
        ("parse", 2, "parse"),
        ("resource", 1, "resource-limit"),
        ("missing", 1, "io"),
    ],
)
def test_main_restores_the_collector_state(
    capsys, graph_file, tmp_path, enabled, case, code, error
):
    # main runs each command with the cyclic collector off, and must hand
    # back the state it found on every exit.
    query = tmp_path / "q.gpc"
    query.write_text("TRAIL (x) [->]{0..} (y)" if case != "parse" else "SHORTEST (x")
    argv = ["run", graph_file, str(query)]
    if case == "resource":
        argv += ["--max-answers", "2"]
    if case == "missing":
        argv[1] = str(tmp_path / "missing.json")
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        got, _, err = run_cli(capsys, *argv)
        state = gc.isenabled()
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert got == code
    assert state is enabled
    if error:
        assert json.loads(err)["error"] == error


# Ids that need JSON escapes: a quote, a backslash, a newline, non-ASCII.
ODD_IDS = {
    "nodes": [{"id": 'q"1'}, {"id": "b\\s"}, {"id": "n\nl"}, {"id": "\u00fc"}],
    "directed_edges": [
        {"id": 'e"', "src": 'q"1', "tgt": "b\\s"},
        {"id": "e\\", "src": "b\\s", "tgt": "n\nl"},
        {"id": "\u00e9", "src": "n\nl", "tgt": "\u00fc"},
    ],
    "undirected_edges": [{"id": "e\n", "endpoints": ["\u00fc", 'q"1']}],
}
# A join of two legs that binds a path, groups, and Nothing (z, where the
# union takes its right branch).
ODD_QUERY = "p = SHORTEST (x) [-[e]->]{1..2} (y), TRAIL (y) [[-[f]-> (z)] + [<-[f]-]] ()"


@pytest.fixture
def odd_run(tmp_path):
    graph = tmp_path / "odd.json"
    graph.write_text(json.dumps(ODD_IDS))
    query = tmp_path / "q.gpc"
    query.write_text(ODD_QUERY)
    answers = eval_query(load_graph(str(graph)), parse_query(ODD_QUERY), EvalConfig())
    # The record format as first defined: one json.dumps per answer.
    expected = [
        json.dumps(serialize_answer(a), sort_keys=True)
        for a in sorted(answers, key=answer_sort_key)
    ]
    return str(graph), str(query), answers, expected


def test_run_records_are_serialized_answers_in_sort_key_order(capsys, odd_run):
    graph, query, _, expected = odd_run
    names, schema, rows, _ = query_rows(
        load_graph(graph), parse_query(ODD_QUERY), EvalConfig()
    )
    assert answer_records(names, schema, rows) == expected
    code, out, _ = run_cli(capsys, "run", graph, query)
    assert code == 0
    assert out == "".join(line + "\n" for line in expected)
    text = "".join(expected)
    escaped = ('q\\"1', "b\\\\s", "n\\nl", "\\u00fc")
    for needle in escaped + ('"kind": "path"', '"kind": "group"', '"kind": "nothing"'):
        assert needle in text
    assert all(len(json.loads(line)["paths"]) == 2 for line in expected)


def test_run_table_format_is_unchanged(capsys, odd_run):
    graph, query, _, expected = odd_run
    code, out, _ = run_cli(capsys, "run", graph, query, "--format", "table")
    assert code == 0
    assert out == "".join(_as_table_row(line) + "\n" for line in expected)
    assert out.endswith(
        'q"1-e"-b\\s | b\\s-e\\-n\nl\te=[(q"1-e"-b\\s, e")], f=e\\, '
        'p=q"1-e"-b\\s, x=q"1, y=b\\s, z=n\nl\n'
    )


# Two rules of one arity whose tuples hold nodes, edges, groups, paths and
# Nothing, and a pattern whose matches bind all but paths.
ODD_RULES = (
    "Ans(x, e, p) <- p = TRAIL (x) [-[e]->]{1..2} (y); "
    "Ans(x, z, f) <- TRAIL (x) [[-[f]-> (z)] + [<-[f]-]] ()"
)
ODD_PATTERN = "(x) [-[e]->]{1..2} (y) [[-[f]-> (z)] + [<-[f]-]] ()"
ODD_KINDS = ('"kind": "node"', '"kind": "edge"', '"kind": "group"', '"kind": "nothing"')
ODD_ESCAPES = ('q\\"1', "b\\\\s", "n\\nl", "\\u00fc")


@pytest.fixture
def odd_graph(tmp_path):
    graph = tmp_path / "odd.json"
    graph.write_text(json.dumps(ODD_IDS))
    return str(graph)


def test_run_ruleset_lines_are_the_json_dumps_of_their_tuples(capsys, tmp_path, odd_graph):
    query = tmp_path / "rules.gpc"
    query.write_text(ODD_RULES)
    graph, rules = load_graph(odd_graph), parse_ruleset(ODD_RULES)
    rows = eval_ruleset(graph, rules, EvalConfig())
    # The record format as first defined: one json.dumps per tuple.
    expected = sorted(
        json.dumps({"tuple": [serialize_value(v) for v in row]}, sort_keys=True)
        for row in rows
    )
    lines, _ = ruleset_rows(graph, rules, EvalConfig(), tuple_encoder())
    assert sorted(lines) == expected
    code, out, _ = run_cli(capsys, "run", odd_graph, str(query))
    assert code == 0
    assert out == "".join(line + "\n" for line in expected)
    for needle in ODD_ESCAPES + ODD_KINDS + ('"kind": "path"',):
        assert needle in out


def test_match_lines_are_the_json_dumps_of_their_results(capsys, odd_graph):
    loaded = load_graph(odd_graph)
    cfg = EvalConfig(max_len=len(loaded.nodes) + loaded.edge_count)  # match's default
    results = eval_pattern(loaded, parse_pattern(ODD_PATTERN), cfg)
    # The record format as first defined: one json.dumps per result.
    expected = sorted(
        json.dumps(
            {
                "path": {"elements": list(p.elements)},
                "bindings": {var: serialize_value(val) for var, val in mu.items_sorted()},
            },
            sort_keys=True,
        )
        for p, mu in results
    )
    assert match_records(*pattern_rows(loaded, parse_pattern(ODD_PATTERN), cfg)) == expected
    code, out, _ = run_cli(capsys, "match", odd_graph, ODD_PATTERN)
    assert code == 0
    assert out == "".join(line + "\n" for line in expected)
    for needle in ODD_ESCAPES + ODD_KINDS:
        assert needle in out


def test_run_and_match_build_no_value_objects(capsys, monkeypatch, odd_graph, tmp_path):
    # `gpc run` and `gpc match` encode the engine's raw rows directly.
    built = []
    for cls in (Answer, Assignment, GroupVal, NodeVal, EdgeVal, PathVal):
        monkeypatch.setattr(cls, "__init__", lambda self, *args, _cls=cls: built.append(_cls))
    outputs = []
    for text in (ODD_QUERY, ODD_RULES):
        query = tmp_path / "q.gpc"
        query.write_text(text)
        code, out, _ = run_cli(capsys, "run", odd_graph, str(query))
        assert code == 0
        outputs.append(out)
    code, out, _ = run_cli(capsys, "match", odd_graph, ODD_PATTERN)
    assert code == 0
    outputs.append(out)
    assert built == []
    for out in outputs:
        assert out.count("\n") > 1
        assert '"kind": "group"' in out and '"kind": "nothing"' in out


# Beside a random pattern, a union that binds a group and an edge, so each
# answer of the random side leaves them Nothing.
FRAME = parse_pattern("[-[g]->]{0..2} [[-[m]->] + [<-]]")


def _reference_case(rng):
    """A graph document, a query with a path variable, a rule set over its
    body whose two heads type one position differently, and a pattern."""
    while True:
        pattern = Union_(gen.rand_pattern(rng, 3), FRAME)
        leg = Restricted(rng.choice(list(Restrictor)), pattern, "w")
        query = Join(gen.well_typed_query(rng, 2), leg) if rng.random() < 0.3 else leg
        try:
            schema = infer_schema(query)
        except TypeCheckError:
            continue
        rules = RuleSet((Rule(("w", "m", "g"), query), Rule(("w", "g", "m"), query)))
        return gen.rand_graph_data(rng), query, rules, pattern, schema


def _answer_lines(answers):
    return [
        json.dumps(serialize_answer(a), sort_keys=True)
        for a in sorted(answers, key=answer_sort_key)
    ]


def _tuple_lines(rows):
    return sorted(
        json.dumps({"tuple": [serialize_value(v) for v in row]}, sort_keys=True) for row in rows
    )


def _match_lines(results):
    return sorted(
        json.dumps(
            {
                "path": serialize_path(p),
                "bindings": {var: serialize_value(v) for var, v in mu.items_sorted()},
            },
            sort_keys=True,
        )
        for p, mu in results
    )


@pytest.fixture(scope="module")
def reference_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("reference")


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32), mode=st.sampled_from(COLLECT_MODES))
def test_run_and_match_print_the_reference_records(reference_dir, seed, mode):
    # `gpc run` and `gpc match` encode raw rows; the reference serializes
    # the value objects that the library returns for the same input.
    doc, query, rules, pattern, schema = _reference_case(random.Random(seed))
    assert (schema["w"], schema["g"], schema["m"]) == (PATH, Maybe(Group(EDGE)), Maybe(EDGE))
    graph_file = reference_dir / "graph.json"
    graph_file.write_text(json.dumps(doc))
    source = reference_dir / "source.gpc"
    graph = load_graph(str(graph_file))
    cfg = EvalConfig(collect_mode=mode, max_len=3)
    cases = [
        ("run", query, lambda: _answer_lines(eval_query(graph, query, cfg))),
        ("run", rules, lambda: _tuple_lines(eval_ruleset(graph, rules, cfg))),
        ("match", pattern, lambda: _match_lines(eval_pattern(graph, pattern, cfg))),
    ]
    for command, expr, reference in cases:
        try:
            code, lines = 0, reference()
        except TypeCheckError:
            code, lines = 2, []
        except ResourceLimitError:
            code, lines = 1, []
        source.write_text(render(expr))
        argv = [command, str(graph_file), str(source), "--collect-mode", mode, "--max-len", "3"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            got = main(argv)
        assert (got, out.getvalue()) == (code, "".join(line + "\n" for line in lines)), argv


@pytest.mark.parametrize("restrictor, cap", [("TRAIL", 24), ("SIMPLE", 16)])
def test_huge_max_len_stops_at_the_longest_trail_or_simple_path(tmp_path, restrictor, cap):
    # A 4x4 grid has 16 nodes and 24 edges: no trail is longer than 24 and
    # no simple path longer than 16. Every stratum past those is empty and
    # charges no work, so only the bound can stop the loop; a process
    # timeout keeps a walk through 10^9 strata from hanging the suite.
    graph = tmp_path / "grid.json"
    grid = [(i, j) for i in range(4) for j in range(4)]
    graph.write_text(json.dumps({
        "nodes": [{"id": f"g{i}_{j}"} for i, j in grid],
        "directed_edges": [
            {"id": f"{kind}{i}_{j}", "src": f"g{i}_{j}", "tgt": f"g{i + di}_{j + dj}"}
            for i, j in grid
            for kind, di, dj in (("a", 0, 1), ("b", 1, 0))
            if i + di < 4 and j + dj < 4
        ],
    }))
    query = tmp_path / "q.gpc"
    query.write_text(f"{restrictor} (x) -[e]->{{1..}} (y)")
    src = str(Path(gpc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}

    def run(*flags):
        proc = subprocess.run(
            [sys.executable, "-m", "gpc.cli", "run", str(graph), str(query), *flags],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout, json.loads(proc.stderr)

    out, report = run("--max-len", "1000000000")
    default_out, default_report = run()
    assert out == default_out
    assert report["answer_count"] == 210
    assert report["bound_used"] == default_report["bound_used"] == cap
    assert report["elapsed_ms"] < 1000


def test_check_reports_a_numeric_character_that_is_no_digit(capsys):
    code, out, err = run_cli(capsys, "check", "--", "(x)-[e]->{²}")
    assert (code, out) == (2, "")
    diag = json.loads(err)
    assert (diag["error"], diag["line"], diag["column"]) == ("parse", 1, 11)
    assert diag["message"].startswith("unexpected character")


def test_check_reports_the_error_of_the_parser_that_read_further(capsys, tmp_path):
    code, _, err = run_cli(capsys, "check", "--", "(x) -[e]-> (")
    assert code == 2
    assert json.loads(err)["message"] == "unexpected end of input at 1:13 (expected ))"
    # On a tie the query parser's error stands.
    code, _, err = run_cli(capsys, "check", "--", "SHORTEST (x")
    assert code == 2
    assert json.loads(err)["message"] == "unexpected end of input at 1:12 (expected ))"
    source = tmp_path / "q.gpc"
    source.write_text(")")
    code, _, err = run_cli(capsys, "check", str(source))
    assert code == 2
    assert json.loads(err)["message"] == (
        "unexpected ')' at 1:1 (expected SHORTEST, SIMPLE, TRAIL)"
    )


def test_check_positions_count_leading_blank_lines(capsys):
    code, _, err = run_cli(capsys, "check", "--", "\n\n  SHORTEST (x")
    assert code == 2
    assert (json.loads(err)["line"], json.loads(err)["column"]) == (3, 14)


@pytest.mark.parametrize("head", ["#nre", "#c2rpq"])
def test_translate_output_with_keyword_labels_reads_back(capsys, tmp_path, head):
    words = " ".join(["and", "Trail", "SHORTEST", "ans", "not", "true", "FALSE"])
    body = f"({words})+" if head == "#nre" else f"Ans(x, y) <- (x, ({words})+, y)"
    source = tmp_path / "q.txt"
    source.write_text(f"{head}\n{body}\n")
    code, out, _ = run_cli(capsys, "translate", str(source))
    assert code == 0
    rules = translate_source(source.read_text())
    assert parse_ruleset(out) == rules


@pytest.mark.parametrize("command", ["check", "run"])
def test_a_path_variable_may_start_with_ans(capsys, graph_file, tmp_path, command):
    source = tmp_path / "q.gpc"
    source.write_text("answer = SHORTEST (x) -> (y)")
    args = [str(source)] if command == "check" else [graph_file, str(source)]
    code, out, err = run_cli(capsys, command, *args)
    assert code == 0, err
    if command == "check":
        assert json.loads(out) == {"answer": "Path", "x": "Node", "y": "Node"}
    else:
        assert len(out.splitlines()) == json.loads(err)["answer_count"] == 3


@pytest.mark.parametrize(
    ("body", "name"),
    [
        ("Ans(and) <- (and, a, y)", "and"),
        ("Ans(x) <- (x, a, Trail)", "Trail"),
        ("Ans(_v0) <- (_v0, a, y)", "_v0"),
    ],
)
@pytest.mark.parametrize("command", ["translate", "run", "check"])
def test_c2rpq_variables_follow_the_query_syntax(
    capsys, graph_file, tmp_path, body, name, command
):
    source = tmp_path / "q.txt"
    source.write_text(f"#c2rpq\n{body}\n")
    args = [graph_file, str(source)] if command == "run" else [str(source)]
    code, out, err = run_cli(capsys, command, *args)
    assert (code, out) == (2, "")
    diag = json.loads(err)
    assert diag["error"] == "input"
    assert repr(name) in diag["message"]


# Pieces of CLI input text: the grammar's characters, words and keywords,
# and non-ASCII letters, decimal digits, other numeric characters and spaces.
FUZZ_PIECES = list('()[]{}<>-+,;=:."\\ \n_|*xyab017') + [
    "SHORTEST ", "TRAIL ", "simple", "Ans", "AND", "NOT", "true",
    "é", "ß", "٣", "²", "Ⅷ", "½", " ", " ",
]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("fuzz")
    graph = workdir / "graph.json"
    graph.write_text(json.dumps({
        "nodes": [{"id": "n1", "labels": ["A"], "properties": {"k": 1}}, {"id": "n2"}],
        "directed_edges": [{"id": "e1", "src": "n1", "tgt": "n2", "labels": ["a"]}],
        "undirected_edges": [{"id": "u1", "endpoints": ["n2"], "labels": ["b"]}],
    }))
    return workdir


def _outcome(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, json.loads(err.getvalue().splitlines()[-1]) if code else None


@settings(max_examples=300, deadline=None)
@given(text=st.lists(st.sampled_from(FUZZ_PIECES), max_size=20).map("".join))
def test_no_input_text_is_an_internal_error(fuzz_dir, text):
    source = fuzz_dir / "source.txt"
    outcomes = []
    if text != "-":  # '-' names stdin
        code, diag = _outcome("check", "--", text)
        if not any(ch in text for ch in "([-<#"):
            # Such an argument names a file, which does not exist.
            assert (code, diag["error"]) == (1, "io")
        else:
            outcomes.append((code, diag))
    source.write_text(text, encoding="utf-8")
    # A small --max-len keeps a huge repetition count from running long.
    outcomes.append(_outcome("run", str(fuzz_dir / "graph.json"), str(source), "--max-len", "4"))
    for head in ("#nre", "#c2rpq"):
        source.write_text(f"{head}\n{text}", encoding="utf-8")
        outcomes.append(_outcome("translate", str(source)))
    for code, diag in outcomes:
        assert code in (0, 1, 2), (code, diag)
        assert code != 1 or diag["error"] == "resource-limit", diag


# Variables and labels of random '#c2rpq' and '#nre' sources. Labels may be
# any word; variables that are keywords or start with '_v' are refused.
TRANSLATOR_VARIABLES = ["x", "y", "z", "and", "Trail", "ans", "_v0"]
REFUSED_VARIABLES = {"and", "Trail", "ans", "_v0"}
TRANSLATOR_LABELS = ["a", "b", "and", "Trail", "SHORTEST", "ans", "not", "true", "_v0"]
regexes = st.recursive(
    st.builds(Label, st.sampled_from(TRANSLATOR_LABELS))
    | st.builds(Inverse, st.sampled_from(TRANSLATOR_LABELS)),
    lambda inner: st.builds(NreConcat, inner, inner)
    | st.builds(NreUnion, inner, inner)
    | st.builds(NrePlus, inner)
    | st.builds(NreStar, inner),
    max_leaves=5,
)


@st.composite
def c2rpqs(draw):
    variable = st.sampled_from(TRANSLATOR_VARIABLES)
    atoms = draw(st.lists(st.tuples(variable, regexes, variable), min_size=1, max_size=3))
    used = sorted({v for x, _, y in atoms for v in (x, y)})
    head = draw(st.lists(st.sampled_from(used), max_size=2, unique=True))
    return C2rpq(tuple(head), tuple(atoms))


def _translate(fuzz_dir, source: str):
    path = fuzz_dir / "source.txt"
    path.write_text(source, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["translate", str(path)])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(query=c2rpqs())
def test_translated_c2rpq_reads_back_unless_a_variable_is_refused(fuzz_dir, query):
    source = f"#c2rpq\n{gen.c2rpq_text(query)}\n"
    code, out, err = _translate(fuzz_dir, source)
    if any({x, y} & REFUSED_VARIABLES for x, _, y in query.atoms):
        assert (code, json.loads(err)["error"]) == (2, "input")
    else:
        assert code == 0, err
        assert parse_ruleset(out) == translate_source(source)


@settings(max_examples=200, deadline=None)
@given(regex=regexes)
def test_translated_nest_free_nre_reads_back(fuzz_dir, regex):
    assert parse_nre(gen.nre_text(regex)) == regex
    source = f"#nre\n{gen.nre_text(regex)}\n"
    code, out, err = _translate(fuzz_dir, source)
    assert code == 0, err
    assert parse_ruleset(out) == translate_source(source)
