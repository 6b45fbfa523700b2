"""Command-line front end.

Exit codes: 0 for an affirmative/ok result, 1 for a negative result (formula
refuted, countermodel found, proof rejected), 2 for usage/IO/validation
errors.  All output is deterministic.  `-` as a file argument reads stdin.

Every command's arguments are listed once, in COMMANDS.  `_read_args` reads
a plain command line from that table; argparse is imported, and its parser
built from the same table, only for help, usage errors and the other command
lines.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

# Only the search path is imported here.  The modules that only `prove`,
# `suite` and `translate` use are imported by their handlers, so that a
# `valid` or `countermodel` process never loads them.
from .errors import CnxError
from .logics import Logic, logic_from_name
from .model import (FIXTURE_CLASS, FIXTURE_NAMES, FrameClass, close_valuations,
                    get_fixture, load_model, serialize_model, validate_model)
from .record import Record
from .search import SearchBounds, Status, find_countermodel
from .semantics import biextension, consecution, sat
from .syntax import parse, render

OK, NEGATIVE, ERROR = 0, 1, 2


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


_FRAME_CLASSES = {fc.value: fc for fc in FrameClass}


def _frame_class(name: str) -> FrameClass:
    fc = _FRAME_CLASSES.get(name)
    if fc is None:
        raise CnxError(f"unknown frame class {name!r}; use P, FSM, FSC, or FSC_R")
    return fc


def cmd_parse(args) -> int:
    print(render(parse(args.formula)))
    return OK


def cmd_check(args) -> int:
    model, _ = load_model(_read(args.model))
    result = sat(model, args.world, parse(args.formula), args.sign)
    print("true" if result else "false")
    return OK if result else NEGATIVE


def cmd_biext(args) -> int:
    model, _ = load_model(_read(args.model))
    ext = biextension(model, parse(args.formula))
    print("+ " + " ".join(sorted(ext.pos)))
    print("- " + " ".join(sorted(ext.neg)))
    return OK


def _run_search(logic: Logic, gamma, delta, args) -> int:
    bounds = SearchBounds(args.max_worlds, None, args.max_indices, args.timeout)
    outcome = find_countermodel(logic, consecution(gamma, delta), bounds)
    if outcome.status is Status.FOUND:
        pm = outcome.witness
        sys.stdout.write(serialize_model(pm.model, pm.point))
        return NEGATIVE
    if outcome.status is Status.EXHAUSTED:
        detail = f"max {bounds.max_worlds} worlds"
        if bounds.max_cond_indices is not None and logic.frame_class.value.startswith("FSC"):
            detail += f"; at most {bounds.max_cond_indices} nonempty conditional indices"
        print(f"no countermodel within bounds ({detail}); "
              "this is bounded evidence, not a validity proof")
        return OK
    print("search timed out", file=sys.stderr)
    return ERROR


def cmd_countermodel(args) -> int:
    logic = logic_from_name(args.logic)
    gamma = [parse(f) for f in args.gamma or []]
    delta = [parse(f) for f in args.delta or []]
    if not gamma and not delta:
        raise CnxError("give at least one --gamma or --delta formula")
    return _run_search(logic, gamma, delta, args)


def cmd_valid(args) -> int:
    return _run_search(logic_from_name(args.logic), [], [parse(args.formula)], args)


def cmd_prove(args) -> int:
    from .corpus import corpus_registry
    from .proof import Registry, parse_proofs
    # the theorems accepted here are cited by the later files, but are not
    # registered in the corpus's own registry, which load_corpus shares
    registry = Registry() if args.no_corpus else corpus_registry().copy()
    status = OK
    for path, proof in zip(args.files, parse_proofs(map(_read, args.files))):
        result = registry.admit(proof)
        if result.ok:
            print("OK" if len(args.files) == 1 else f"{path}: OK")
        else:
            print(f"{path}: {result.describe()}")
            status = NEGATIVE
    return status


def cmd_translate(args) -> int:
    from .transform import i_translate, tr_phi
    f = parse(args.formula)
    if args.tr is not None:
        print(render(tr_phi(parse(args.tr), f)))
    else:
        print(render(i_translate(f)))
    return OK


def cmd_suite(args) -> int:
    from .harness import ALL_CELLS, render_report, report_record, run_suite
    if args.logic == "all":
        cells = [(lg, c) for (lg, c) in ALL_CELLS
                 if c == args.connective or not args.connective]
        if not cells:
            raise ValueError(f"unknown connective {args.connective!r}")
    else:
        logic = logic_from_name(args.logic)
        conns = [args.connective] if args.connective else \
            [c for (lg, c) in ALL_CELLS if lg is logic]
        cells = [(logic, c) for c in conns]
    reports = [run_suite(lg, conn) for (lg, conn) in cells]
    if args.json:
        import json
        print(json.dumps([report_record(r) for r in reports], indent=2))
    else:
        print("\n".join(render_report(r) for r in reports))
    return OK


def cmd_fixture(args) -> int:
    if args.action == "list":
        for name in FIXTURE_NAMES:
            print(f"{name}\t{FIXTURE_CLASS[name].value}")
        return OK
    pm = get_fixture(args.name)
    sys.stdout.write(serialize_model(pm.model, pm.point))
    return OK


def cmd_validate(args) -> int:
    model, _ = load_model(_read(args.model))
    if args.close:
        model = close_valuations(model)
    report = validate_model(model, _frame_class(args.frame_class))
    if report.ok:
        print("ok")
        return OK
    for v in report.violations:
        print(str(v))
    return NEGATIVE


class Arg(Record):
    """One argument of a command: a positional when it has no flags.  The
    other fields are what argparse's add_argument takes for it; `action` is
    "store", "append" or "store_true", and `exclusive` puts an option in the
    command's one required mutually exclusive group."""
    dest: str
    flags: tuple = ()
    type: object = None
    required: bool = False
    default: object = None
    action: str = "store"
    choices: tuple | None = None
    nargs: str | None = None
    metavar: str | None = None
    help: str | None = None
    exclusive: bool = False


_FORMULA = Arg("formula")
_MODEL = Arg("model", ("-m", "--model"), required=True)
_LOGIC = Arg("logic", ("-L", "--logic"), required=True)
_SEARCH = (Arg("max_worlds", ("--max-worlds",), type=int, required=True),
           Arg("max_indices", ("--max-indices",), type=int, help="at most this many nonempty "
               "conditional indices; default: one per conditional antecedent of the query"),
           Arg("timeout", ("--timeout",), type=float))

# name -> (help, handler, its arguments in help order), in help order
COMMANDS = {
    "parse": ("parse a formula and print its canonical form", cmd_parse, (_FORMULA,)),
    "check": ("evaluate a formula at a world of a model", cmd_check, (
        _MODEL,
        Arg("world", ("-w", "--world"), required=True),
        Arg("sign", ("-s", "--sign"), default="+", choices=("+", "-")),
        _FORMULA)),
    "biext": ("print a formula's bi-extension in a model", cmd_biext, (_MODEL, _FORMULA)),
    "countermodel": ("search for a countermodel to a consecution", cmd_countermodel, (
        _LOGIC,
        Arg("gamma", ("--gamma",), action="append", metavar="FORMULA"),
        Arg("delta", ("--delta",), action="append", metavar="FORMULA"),
        *_SEARCH)),
    "valid": ("bounded validity evidence for a formula", cmd_valid,
              (_LOGIC, *_SEARCH, _FORMULA)),
    "prove": ("check proof files", cmd_prove, (
        Arg("files", nargs="+"),
        Arg("no_corpus", ("--no-corpus",), default=False, action="store_true",
            help="start from an empty lemma registry"))),
    "translate": ("translate between modal and conditional languages", cmd_translate, (
        Arg("tr", ("--tr",), metavar="ANCHOR", exclusive=True,
            help="modal-to-conditional with this antecedent anchor"),
        Arg("i", ("--i",), default=False, action="store_true", exclusive=True,
            help="conditional-to-modal interpretation"),
        _FORMULA)),
    "suite": ("connexivity classification", cmd_suite, (
        Arg("logic", ("-L", "--logic"), required=True,
            help="a logic name, or 'all' for the whole table"),
        Arg("connective", ("-c", "--connective")),
        Arg("json", ("--json",), default=False, action="store_true"))),
    "fixture": ("list or show the named fixture models", cmd_fixture, (
        Arg("action", choices=("list", "show")),
        Arg("name", nargs="?"))),
    "validate": ("validate a model against a frame class", cmd_validate, (
        _MODEL,
        Arg("frame_class", ("-C", "--frame-class"), required=True,
            help="P, FSM, FSC, or FSC_R"),
        Arg("close", ("--close",), default=False, action="store_true",
            help="upward-close the valuations before validating"))),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `cnx` argument parser, built from COMMANDS.  With `command`, only
    that subcommand's parser is built (each one costs milliseconds); its
    usage and error text are still those of the full tree, because the usage
    names every command."""
    import argparse
    p = argparse.ArgumentParser(
        prog="cnx",
        description="Connexive logic toolbox: parsing, bi-valuational Kripke "
                    "evaluation, bounded countermodel search, Hilbert proof "
                    "checking, translations, and connexivity classification.")
    # The full tree keeps argparse's default name for the argument, which
    # its errors for a missing or unknown command print as 'command'.
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = p.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_, fn, spec) in COMMANDS.items():
        if command not in (None, name):
            continue
        q = sub.add_parser(name, help=help_)
        group = None
        for a in spec:
            kwargs = {k: v for k, v in (("type", a.type), ("default", a.default),
                                        ("choices", a.choices), ("nargs", a.nargs),
                                        ("metavar", a.metavar), ("help", a.help))
                      if v is not None}
            if a.required:
                kwargs["required"] = True
            if a.action != "store":
                kwargs["action"] = a.action
            if a.flags:
                kwargs["dest"] = a.dest
            if a.exclusive:
                group = group or q.add_mutually_exclusive_group(required=True)
            (group if a.exclusive else q).add_argument(*a.flags or (a.dest,), **kwargs)
        q.set_defaults(fn=fn)
    p.commands = sub.choices  # each built command's parser, for its usage errors
    return p


_BAD = object()


def _convert(a: Arg, text: str):
    """`text` as argparse stores it for `a`, or _BAD if argparse rejects it."""
    if a.type is not None:
        try:
            text = a.type(text)
        except ValueError:
            return _BAD
    return _BAD if a.choices is not None and text not in a.choices else text


def _read_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace `build_parser().parse_args(argv)` gives, for a plain
    command line; None for any other, which argparse then reads.

    Plain is: a command, then exact flags as `--flag value` or `--flag=value`
    (a value in a token of its own may not start with '-'), and one
    contiguous run of positionals that the command's positionals take up
    exactly, every required flag and one flag of an exclusive group given.
    Help, `--`, abbreviations, joined short flags (`-LCnCK`), unknown flags,
    bad values and missing, extra or split positionals are not plain."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, fn, spec = COMMANDS[argv[0]]
    flags = {flag: a for a in spec for flag in a.flags}
    values = {a.dest: a.default for a in spec}
    given, positionals, last = set(), [], None
    i = 1
    while i < len(argv):
        token = argv[i]
        i += 1
        if not token.startswith("-"):
            if positionals and last != i - 1:
                return None  # a second run of positionals
            positionals.append(token)
            last = i
            continue
        flag, eq, text = token.partition("=")
        a = flags.get(flag)
        if a is None or eq and (not flag.startswith("--") or a.action == "store_true"):
            return None
        if a.action == "store_true":
            value = True
        else:
            if not eq:
                if i == len(argv) or argv[i].startswith("-"):
                    return None
                text = argv[i]
                i += 1
            value = _convert(a, text)
            if value is _BAD:
                return None
            if a.action == "append":
                value = [*(values[a.dest] or ()), value]
        values[a.dest] = value
        given.add(a.dest)
    for a in spec:
        if a.flags:
            if a.required and a.dest not in given:
                return None
            continue
        n = len(positionals) if a.nargs == "+" else min(1, len(positionals))
        if n == 0:
            if a.nargs != "?":
                return None
            continue
        value = positionals[:n] if a.nargs == "+" else _convert(a, positionals[0])
        if value is _BAD:
            return None
        values[a.dest] = value
        del positionals[:n]
    group = [a.dest in given for a in spec if a.exclusive]
    if positionals or group and sum(group) != 1:
        return None
    args = SimpleNamespace(command=argv[0], fn=fn, **values)
    return None if _usage_problem(args) else args


def _usage_problem(args) -> str | None:
    if args.command == "fixture":
        if args.action == "show" and not args.name:
            return "fixture show needs a name"
        if args.action == "list" and args.name is not None:
            return "fixture list takes no name"
    return None


def _merge_connective_flag(argv: list[str]) -> list[str]:
    # "->" looks like an option to argparse; fold it into the flag token
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("-c", "--connective") and i + 1 < len(argv):
            out.append(f"--connective={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    argv = _merge_connective_flag(sys.argv[1:] if argv is None else list(argv))
    args = _read_args(argv)
    if args is None:
        # help and usage errors: argparse is imported and built only here
        parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
        args = parser.parse_args(argv)
        problem = _usage_problem(args)
        if problem:
            parser.commands[args.command].error(problem)
    try:
        return args.fn(args)
    except (CnxError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
