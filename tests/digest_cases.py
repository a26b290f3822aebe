"""Print one digest per seeded random `gpc` call, to compare two trees.

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/digest_cases.py --cases 3000 > a.txt

Run it in two checkouts and diff the outputs: a line differs exactly when
the two give a different exit code, stdout, or stderr once the run
report's `elapsed_ms` is dropped. Each case draws a graph and a query,
rule set or pattern from `gen.py`, writes them to a temporary directory,
and runs `gpc run`, `gpc match` or `gpc check` through `cli.main`
in-process. The cases cycle the collect modes and mix default and
explicit `--max-len`, `--lenient-unify` and `--max-answers 5`. About 30%
of the `run` cases add `--oracle` with a `--max-len` of at most 3 and the
default answer ceiling, so a changed oracle shows up too: a disagreement
exits 3, whether in the answers or in how the encoder prints them. About 10% of the cases check a rendered query with one token
deleted, doubled or replaced, some by a non-ASCII character, so that the
lexer's and the parser's errors show up too. About 2% check a query
whose path variable starts with the letters `ans`, such as `answer`.
About 5% run `gpc translate` on a `#nre` or `#c2rpq` source that
`gen.py` draws and prints; labels include keywords, and some C2RPQs
take a keyword or a reserved `_v` name as a variable. About 3% `run`
such a source, at the default length bound and answer ceiling, so that
the answers of translated queries are compared too. Of the other `run`
cases, those whose number is a multiple of 20 (about 5%) add
`--format table`, whose renderer re-reads each record, so that it is
compared too; this draws nothing, so every case is drawn as without it.
Cases whose number is 12 more than a multiple of 25 (4%) damage one
argument of the command line, in turn with an unknown flag,
`--max-len -1`, a bad `--collect-mode` and a dropped first positional,
so that the argument parser's errors are compared too; its exit code
enters the digest like any other. Cases whose number is 7 more than a
multiple of 25 (4%) respell the `--collect-mode` option of a `run` or
`match` line, in turn as `--collect-mode=MODE`, as the abbreviation
`--collect`, and given twice, first with another mode, so that the
spellings that only argparse reads are compared too. Neither rotation
draws anything, and the flags column names the damage or respelling.
Cases whose number is 17 more than a multiple of 25 and that run a
query put a labelled node atom, in turn `(:A)`, `(x:A)`, `(:B)` and
`(y:B)`, in front of the query's first leg, so that the repetitions that
such an atom lets start at fewer nodes are compared too. This rotation
draws nothing either, and the source text shows the atom.
About a third of the rule sets have arity 2 and run SHORTEST legs between
endpoint atoms, so that a rule the pair analysis answers and one that
lists its paths are both compared.
Each line holds the case's number, its digest, its flags and its source
text, non-ASCII and newlines escaped. Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
from dataclasses import replace
import hashlib
import io
import json
import os
import random
import re
import sys
import tempfile

from gpc import Concat, Descriptor, Join, NodePat, Restricted, Restrictor, infer_schema
from gpc.cli import main
from gpc.engine import COLLECT_MODES
from gpc.render import render

import gen

ELAPSED = re.compile(r'"elapsed_ms": \d+, ')

# A token is a word or one other character; this is coarser than the
# lexer's tokens, so that a deletion can also split a two-character one.
PIECE = re.compile(r"\w+|\S")
REPLACEMENTS = (
    "(", ")", "[", "]", "{", "}", "<", ">", "-[", "]->", "<-", "->", "..", ":",
    ".", ",", "=", "+", '"', "x", "A", "7", "-1", "AND", "trail",
    "\u00b2", "\u0663", "\u00e9", "\u2167", "\u00a0",
)


def damaged(rng: random.Random, text: str) -> str:
    """`text` with one token deleted, doubled or replaced."""
    piece = rng.choice(list(PIECE.finditer(text)))
    start, end = piece.span()
    edit = rng.choice(("delete", "double", "replace"))
    middle = {
        "delete": "",
        "double": piece.group() * 2,
        "replace": rng.choice(REPLACEMENTS),
    }[edit]
    return text[:start] + middle + text[end:]


def rand_ruleset(rng: random.Random) -> str:
    """One to three rules over random well-typed bodies: about a third of
    the rule sets hold rules of arity 2 from `gen.rand_endpoint_rule`,
    whose heads mostly name endpoint atoms of SHORTEST legs, and the
    others rules of arity 1."""
    rules: list[str] = []
    count = rng.randint(1, 3)
    pairs = rng.random() < 0.33
    while len(rules) < count:
        if pairs:
            rule = gen.rand_endpoint_rule(rng)
            if rule is not None:
                rules.append(f"Ans({', '.join(rule.head)}) <- {render(rule.body)}")
            continue
        body = gen.well_typed_query(rng, 3)
        variables = sorted(infer_schema(body))
        if variables:
            rules.append(f"Ans({rng.choice(variables)}) <- {render(body)}")
    return "; ".join(rules)


def translator_source(rng: random.Random) -> str:
    """A '#nre' or '#c2rpq' source; about a third of the C2RPQs draw their
    variables from a pool that holds a keyword and a reserved name."""
    labels = ("a", "b", "and", "Trail")
    if rng.random() < 0.5:
        return f"#nre\n{gen.nre_text(gen.rand_nre(rng, rng.randint(1, 3), labels))}\n"
    variables = ("x", "y", "and", "_v0") if rng.random() < 0.3 else ("x", "y", "z", "w")
    return f"#c2rpq\n{gen.c2rpq_text(gen.rand_c2rpq(rng, labels, variables))}\n"


# Case 17 of every 25 that runs a query puts these in turn in front of
# its first leg; the last two may bind a variable that the leg binds too.
SOURCE_ATOMS = (
    Descriptor(label="A"),
    Descriptor("x", "A"),
    Descriptor(label="B"),
    Descriptor("y", "B"),
)


def with_source_atom(query, atom: Descriptor):
    """`query` with the node atom `atom` in front of its first leg's pattern."""
    if isinstance(query, Join):
        return Join(with_source_atom(query.left, atom), query.right)
    return replace(query, pattern=Concat(NodePat(atom), query.pattern))


def rand_case(rng: random.Random, index: int) -> tuple[dict, str, str, list[str]]:
    """(graph document, command, source text, flags) of case `index`."""
    graph = gen.rand_graph_data(rng)
    roll = rng.random()
    if roll < 0.05:
        return graph, "translate", translator_source(rng), []
    if roll < 0.08:
        # Default bounds only: an explicit length bound or a small ceiling
        # may cut two translations of one source differently, since their
        # ways back may differ in length and in the partial paths they build.
        mode = COLLECT_MODES[index % len(COLLECT_MODES)]
        return graph, "run", translator_source(rng), ["--collect-mode", mode]
    if roll < 0.10:
        name = rng.choice(("answer", "Ans_1", "ansatz"))
        query = Restricted(rng.choice(list(Restrictor)), gen.rand_pattern(rng, 3), name)
        return graph, "check", render(query), []
    if roll < 0.20:
        return graph, "check", damaged(rng, render(gen.rand_query(rng, 3))), []
    if roll < 0.7:
        query = gen.well_typed_query(rng, 3)
        if index % 25 == 17:
            query = with_source_atom(query, SOURCE_ATOMS[index // 25 % len(SOURCE_ATOMS)])
        command, text = "run", render(query)
    elif roll < 0.87:
        command, text = "run", rand_ruleset(rng)
    else:
        command, text = "match", render(gen.rand_pattern(rng, 3))
    flags = ["--collect-mode", COLLECT_MODES[index % len(COLLECT_MODES)]]
    # The oracle enumerates every path up to the bound, so keep it short;
    # its path budget is the answer ceiling, so leave that at its default.
    oracle = command == "run" and rng.random() < 0.3
    if oracle:
        flags += ["--oracle", "--max-len", str(rng.choice((0, 1, 2, 3)))]
    elif rng.random() < 0.6:
        flags += ["--max-len", str(rng.choice((0, 1, 2, 3, 5, 1000)))]
    if rng.random() < 0.25:
        flags.append("--lenient-unify")
    if not oracle and rng.random() < 0.2:
        flags += ["--max-answers", "5"]
    if command == "run" and index % 20 == 0:
        flags += ["--format", "table"]
    return graph, command, text, flags


# Case 12 of every 25 damages its command line with these in turn.
DAMAGES = {
    "unknown flag": lambda argv: argv + ["--no-such-flag"],
    "--max-len -1": lambda argv: argv + ["--max-len", "-1"],
    "bad --collect-mode": lambda argv: argv + ["--collect-mode", "eager"],
    "dropped positional": lambda argv: argv[:1] + argv[2:],
}


# Case 7 of every 25 that runs or matches respells its `--collect-mode`,
# which follows the two positionals, with these in turn.
RESPELLINGS = {
    "--collect-mode=MODE": lambda argv: argv[:3] + [f"{argv[3]}={argv[4]}"] + argv[5:],
    "--collect MODE": lambda argv: argv[:3] + ["--collect"] + argv[4:],
    "--collect-mode twice": lambda argv: argv[:3] + [argv[3], other_mode(argv[4])] + argv[3:],
}


def other_mode(mode: str) -> str:
    return COLLECT_MODES[(COLLECT_MODES.index(mode) + 1) % len(COLLECT_MODES)]


EDITS = {**DAMAGES, **RESPELLINGS}


def edit_of(index: int, command: str) -> str | None:
    """The name of the damage or respelling that case `index` takes, if any."""
    if index % 25 == 12:
        return list(DAMAGES)[index // 25 % len(DAMAGES)]
    if index % 25 == 7 and command in ("run", "match"):
        return list(RESPELLINGS)[index // 25 % len(RESPELLINGS)]
    return None


def run_case(
    workdir: str, graph: dict, command: str, text: str, flags: list[str],
    edit: str | None = None,
) -> str:
    graph_path = os.path.join(workdir, "graph.json")
    with open(graph_path, "w", encoding="utf-8") as handle:
        json.dump(graph, handle)
    source = os.path.join(workdir, "source.gpc")
    with open(source, "w", encoding="utf-8") as handle:
        handle.write(text)
    if command in ("check", "translate"):
        argv = [command, source]
    else:
        argv = [command, graph_path, source, *flags]
    if edit is not None:
        argv = EDITS[edit](argv)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    record = json.dumps([code, out.getvalue(), ELAPSED.sub("", err.getvalue())])
    return hashlib.sha256(record.encode()).hexdigest()[:16]


def main_digests(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cases", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    with tempfile.TemporaryDirectory() as workdir:
        for index in range(args.cases):
            graph, command, text, flags = rand_case(rng, index)
            edit = edit_of(index, command)
            digest = run_case(workdir, graph, command, text, flags, edit)
            if edit is not None:
                flags = [*flags, f"[{edit}]"]
            shown = text.encode("ascii", "backslashreplace").decode().replace("\n", "\\n")
            print(f"{index}\t{digest}\t{command} {' '.join(flags)}\t{shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main_digests())
