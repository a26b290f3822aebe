"""Command-line front end.

Subcommands:
  check      infer and print the schema of a pattern, query, or rule set
  run        evaluate a query or rule set over a graph (NDJSON answers)
  match      raw pattern evaluation for debugging (NDJSON path/bindings)
  translate  turn a '#nre' or '#c2rpq' file into rule-set text

Exit codes: 0 success, 2 parse/type/graph-validation or other input
error, 1 resource, I/O or internal error, 3 oracle mismatch (with
--oracle). Answers stream to stdout in canonical order; diagnostics and
the run report are JSON on stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from typing import Callable, NamedTuple, Optional

from .ast import Join, Restricted, RuleSet, query_patterns
from .engine import (
    COLLECT_MODES,
    EvalConfig,
    ResourceLimitError,
    default_length_bound,
    pattern_rows,
    query_rows,
    ruleset_rows,
)
from .gpcplus import TranslateError, translate_source
from .graph import GraphValidationError, load_graph
from .oracle import BudgetExceededError, OracleBudget, brute_force_query
from .parser import ParseError, parse, parse_pattern
from .render import render
from .typecheck import TypeCheckError, check_ruleset, infer_schema, schema_json
from .values import (
    answer_records,
    match_records,
    serialize_answer,
    serialize_value,
    tuple_encoder,
)


# Program faults surface as these built-in errors. Other exceptions, such
# as an interrupt or a timeout that a caller raises from a signal handler,
# pass through untouched.
_INTERNAL_ERRORS = (
    ArithmeticError,
    AssertionError,
    AttributeError,
    LookupError,
    NameError,
    RuntimeError,
    TypeError,
    ValueError,
)


class InputError(ValueError):
    """A query source that is not UTF-8 text."""


def _read_source(arg: str, allow_literal: bool = False) -> str:
    try:
        if arg == "-":
            return sys.stdin.read()
        with open(arg, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{arg}: not UTF-8 text: {exc.reason}") from None
    except OSError:
        # Every pattern, query and rule set holds one of these characters,
        # and a '#nre'/'#c2rpq' source holds '#'; a bare name is a path.
        if allow_literal and any(ch in arg for ch in "([-<#"):
            return arg
        raise


def _parse_any(text: str):
    stripped = text.strip()
    if stripped.lower().startswith(("#nre", "#c2rpq")):
        return translate_source(stripped)
    # Not the stripped copy: error positions count any leading whitespace.
    return parse(text)


def _non_negative(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, not {text!r}")
    return int(text)


def _error_json(category: str, exc: Exception, **extra) -> str:
    payload = {"error": category, "message": str(exc)}
    payload.update(extra)
    return json.dumps(payload, sort_keys=True)


def cmd_check(args) -> int:
    text = _read_source(args.query, allow_literal=True)
    if args.graph:
        load_graph(args.graph)  # validation only; typing needs no graph
    expr = _parse_any(text)
    if isinstance(expr, RuleSet):
        schemas = check_ruleset(expr)
        print(json.dumps([schema_json(s) for s in schemas], sort_keys=True))
    else:
        print(json.dumps(schema_json(infer_schema(expr)), sort_keys=True))
    return 0


def _config_from(args) -> EvalConfig:
    return EvalConfig(
        collect_mode=args.collect_mode,
        max_len=args.max_len,
        max_answers=args.max_answers,
        lenient_unify=args.lenient_unify,
    )


def _oracle_budget(cfg: EvalConfig, graph, expr) -> OracleBudget:
    # The oracle's path budget ignores the engine's match-length window, so
    # that the two stay independent. Its answer budget is its own default,
    # raised to the engine's ceiling: the oracle enumerates every path up to
    # the bound, however few answers the engine may return.
    if cfg.max_len is not None:
        bound = cfg.max_len
    else:
        bound = max(
            default_length_bound(restrictor, graph, pattern, cfg.bound_ceiling)
            for restrictor, pattern in query_patterns(expr)
        )
    return OracleBudget(
        max_path_len=max(bound, 1),
        max_answers=max(cfg.max_answers, OracleBudget.max_answers),
    )


def _oracle_mismatch(what: str, engine: int, oracle: int) -> int:
    message = f"engine produced {engine} {what}, oracle {oracle}"
    print(_error_json("oracle-mismatch", ValueError(message)), file=sys.stderr)
    return 3


def cmd_run(args) -> int:
    graph = load_graph(args.graph)
    expr = _parse_any(_read_source(args.query))
    cfg = _config_from(args)
    started = time.monotonic()
    if isinstance(expr, RuleSet):
        # A rule's lines are encoded by its head's types; the union of the
        # lines is the union of the tuples, since the encoding is injective.
        lines, bound = ruleset_rows(graph, expr, cfg, tuple_encoder())
        if args.oracle:
            budget = _oracle_budget(cfg, graph, expr)
            expected = {
                json.dumps(
                    {"tuple": [serialize_value(ans.bindings[v]) for v in rule.head]},
                    sort_keys=True,
                )
                for rule in expr.rules
                for ans in brute_force_query(graph, rule.body, cfg, budget)
            }
            if expected != lines:
                return _oracle_mismatch("tuples", len(lines), len(expected))
        records = sorted(lines)
        count = len(lines)
    elif isinstance(expr, (Restricted, Join)):
        names, schema, rows, bound = query_rows(graph, expr, cfg)
        records = answer_records(names, schema, rows)
        if args.oracle:
            budget = _oracle_budget(cfg, graph, expr)
            expected = {
                json.dumps(serialize_answer(ans), sort_keys=True)
                for ans in brute_force_query(graph, expr, cfg, budget)
            }
            if expected != set(records):
                return _oracle_mismatch("answers", len(records), len(expected))
        count = len(rows)
    else:
        raise ParseError("run expects a query or rule set, not a bare pattern", 1, 1, set())
    elapsed_ms = int((time.monotonic() - started) * 1000)
    for line in records:
        if args.format == "table":
            sys.stdout.write(_as_table_row(line) + "\n")
        else:
            sys.stdout.write(line + "\n")
    report = {
        "answer_count": count,
        "elapsed_ms": elapsed_ms,
        "mode": cfg.collect_mode,
        "bound_used": bound,
    }
    print(json.dumps(report, sort_keys=True), file=sys.stderr)
    return 0


def _as_table_row(record: str) -> str:
    data = json.loads(record)
    if "tuple" in data:
        return "\t".join(_value_text(v) for v in data["tuple"])
    paths = " | ".join("-".join(p["elements"]) for p in data["paths"])
    bindings = ", ".join(
        f"{var}={_value_text(val)}" for var, val in sorted(data["bindings"].items())
    )
    return f"{paths}\t{bindings}"


def _value_text(val: dict) -> str:
    kind = val["kind"]
    if kind in ("node", "edge"):
        return val["id"]
    if kind == "nothing":
        return "nothing"
    if kind == "path":
        return "-".join(val["elements"])
    return "[%s]" % ", ".join(
        "(%s, %s)" % ("-".join(p["elements"]), _value_text(v)) for p, v in val["items"]
    )


def cmd_match(args) -> int:
    graph = load_graph(args.graph)
    pattern = parse_pattern(_read_source(args.pattern, allow_literal=True))
    cfg = _config_from(args)
    if cfg.max_len is None:
        cfg.max_len = len(graph.nodes) + graph.edge_count
    for line in match_records(*pattern_rows(graph, pattern, cfg)):
        sys.stdout.write(line + "\n")
    return 0


def cmd_translate(args) -> int:
    rules = translate_source(_read_source(args.input))
    print(render(rules))
    return 0


class Option(NamedTuple):
    """One option of a command. `kind` is "flag" (store_true), "choice"
    (one of `choices`), "count" (a non-negative integer) or "text"."""

    flag: str
    dest: str
    kind: str
    default: object = None
    help: Optional[str] = None
    choices: tuple = ()


class Command(NamedTuple):
    help: str
    positionals: tuple  # (name, help) pairs
    options: tuple
    handler: Callable


_EVAL_OPTIONS = (
    Option("--collect-mode", "collect_mode", "choice", "grouping", choices=COLLECT_MODES),
    Option("--max-len", "max_len", "count"),
    Option("--max-answers", "max_answers", "count", 100_000),
    Option("--lenient-unify", "lenient_unify", "flag", False),
)

# One row per command, in `gpc -h` order. `build_arg_parser` and `_scan`
# both read it.
COMMANDS = {
    "check": Command(
        "type-check and print the schema",
        (("query", "query/pattern text, file path, or -"),),
        (Option("--graph", "graph", "text", help="optional graph file to validate"),),
        cmd_check,
    ),
    "run": Command(
        "evaluate a query or rule set",
        (("graph", None), ("query", "query file or - for stdin")),
        _EVAL_OPTIONS + (
            Option("--oracle", "oracle", "flag", False, "cross-check results"),
            Option("--format", "format", "choice", "ndjson", choices=("ndjson", "table")),
        ),
        cmd_run,
    ),
    "match": Command(
        "raw pattern evaluation (debug)",
        (("graph", None), ("pattern", None)),
        _EVAL_OPTIONS,
        cmd_match,
    ),
    "translate": Command("translate #nre/#c2rpq input", (("input", None),), (), cmd_translate),
}


def build_arg_parser() -> argparse.ArgumentParser:
    """The argparse parser of every command; `main` builds it only for
    help, errors and the spellings that `_scan` leaves to it."""
    top = argparse.ArgumentParser(prog="gpc", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        parser = sub.add_parser(name, help=command.help)
        for positional, help_text in command.positionals:
            parser.add_argument(positional, help=help_text)
        for option in command.options:
            kind = {
                "flag": {"action": "store_true"},
                "choice": {"choices": option.choices},
                "count": {"type": _non_negative},
                "text": {},
            }[option.kind]
            parser.add_argument(
                option.flag, dest=option.dest, default=option.default,
                help=option.help, **kind,
            )
        parser.set_defaults(func=command.handler)
    return top


def _scan(argv: list[str]) -> Optional[argparse.Namespace]:
    """The namespace argparse makes of a canonical `argv`, or None.

    Canonical: a command first, each option by its exact name at most
    once, each value not starting with '-' and valid for its option, and
    exactly the command's positionals. Everything else, help and errors
    included, is left to argparse."""
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    options = {option.flag: option for option in command.options}
    values = {option.dest: option.default for option in command.options}
    positionals = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-") or token == "-":
            positionals.append(token)
            continue
        option = options.pop(token, None)
        if option is None:
            return None  # unknown, abbreviated, '--opt=value' or repeated
        if option.kind == "flag":
            values[option.dest] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        if option.kind == "count":
            try:
                value = _non_negative(value)
            except (argparse.ArgumentTypeError, ValueError):
                return None  # ValueError: more digits than int() reads
        elif option.kind == "choice" and value not in option.choices:
            return None
        values[option.dest] = value
    if len(positionals) != len(command.positionals):
        return None
    values.update(zip((name for name, _ in command.positionals), positionals))
    return argparse.Namespace(command=argv[0], func=command.handler, **values)


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _scan(argv) or build_arg_parser().parse_args(argv)
    # The engine builds no reference cycles, so reference counting frees
    # what a command makes, and cyclic-GC passes would only re-scan large
    # answer sets. The collector's state is restored on every exit; library
    # calls such as eval_query leave it alone.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except ParseError as exc:
        print(
            _error_json(
                "parse", exc, line=exc.line, column=exc.column,
                expected=sorted(exc.expected),
            ),
            file=sys.stderr,
        )
        return 2
    except TypeCheckError as exc:
        print(
            _error_json(
                "type", exc, kind=exc.kind, variable=exc.variable,
                location=list(exc.location) if exc.location else None,
            ),
            file=sys.stderr,
        )
        return 2
    except GraphValidationError as exc:
        print(_error_json("graph", exc, violations=exc.violations), file=sys.stderr)
        return 2
    except (TranslateError, InputError) as exc:
        print(_error_json("input", exc), file=sys.stderr)
        return 2
    except RecursionError:
        # A long flat concatenation parses into an AST deeper than the
        # recursive walks after the parser can follow.
        print(
            _error_json("input", ValueError("input nests too deeply")),
            file=sys.stderr,
        )
        return 2
    except ResourceLimitError as exc:
        print(_error_json("resource-limit", exc), file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(_error_json("oracle-budget", exc), file=sys.stderr)
        return 1
    except OSError as exc:
        print(_error_json("io", exc), file=sys.stderr)
        return 1
    except _INTERNAL_ERRORS as exc:
        print(
            _error_json("internal", exc, exception=type(exc).__name__),
            file=sys.stderr,
        )
        return 1
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
