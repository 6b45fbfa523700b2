"""Command-line front end.

Exit codes: 0 for an affirmative/ok result, 1 for a negative result (formula
refuted, countermodel found, proof rejected), 2 for usage/IO/validation
errors.  All output is deterministic.  `-` as a file argument reads stdin.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# Only the search path is imported here.  The modules that only `prove`,
# `suite` and `translate` use are imported by their handlers, so that a
# `valid` or `countermodel` process never loads them.
from .errors import CnxError
from .logics import Logic, logic_from_name
from .model import (FIXTURE_CLASS, FIXTURE_NAMES, FrameClass, close_valuations,
                    get_fixture, load_model, serialize_model, validate_model)
from .search import SearchBounds, Status, find_countermodel
from .semantics import biextension, consecution, sat
from .syntax import atoms_of, parse, render

OK, NEGATIVE, ERROR = 0, 1, 2


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _load_model_arg(path: str):
    model, point = load_model(_read(path))
    return model, point


def _frame_class(name: str) -> FrameClass:
    for fc in FrameClass:
        if fc.value == name:
            return fc
    raise CnxError(f"unknown frame class {name!r}; use P, FSM, FSC, or FSC_R")


def cmd_parse(args) -> int:
    print(render(parse(args.formula)))
    return OK


def cmd_check(args) -> int:
    model, _ = _load_model_arg(args.model)
    result = sat(model, args.world, parse(args.formula), args.sign)
    print("true" if result else "false")
    return OK if result else NEGATIVE


def cmd_biext(args) -> int:
    model, _ = _load_model_arg(args.model)
    ext = biextension(model, parse(args.formula))
    print("+ " + " ".join(sorted(ext.pos)))
    print("- " + " ".join(sorted(ext.neg)))
    return OK


def _bounds_from_args(args, formulas) -> SearchBounds:
    atoms = set()
    for f in formulas:
        atoms |= atoms_of(f)
    return SearchBounds(args.max_worlds, tuple(sorted(atoms)) or (0,),
                        args.max_indices, args.timeout)


def _run_search(logic: Logic, gamma, delta, bounds) -> int:
    outcome = find_countermodel(logic, consecution(gamma, delta), bounds)
    if outcome.status is Status.FOUND:
        pm = outcome.witness
        sys.stdout.write(serialize_model(pm.model, pm.point))
        return NEGATIVE
    if outcome.status is Status.EXHAUSTED:
        detail = f"max {bounds.max_worlds} worlds"
        if logic.frame_class.value.startswith("FSC"):
            detail += (f"; conditional indices restricted to hereditary "
                       f"bi-sets, at most {bounds.max_cond_indices} nonempty")
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
    bounds = _bounds_from_args(args, gamma + delta)
    return _run_search(logic, gamma, delta, bounds)


def cmd_valid(args) -> int:
    logic = logic_from_name(args.logic)
    f = parse(args.formula)
    bounds = _bounds_from_args(args, [f])
    return _run_search(logic, [], [f], bounds)


def cmd_prove(args) -> int:
    from .corpus import corpus_registry
    from .proof import Registry, check_proof, parse_proof
    registry = Registry() if args.no_corpus else corpus_registry()
    status = OK
    for path in args.files:
        proof = parse_proof(_read(path))
        result = check_proof(proof, registry)
        if result.ok:
            print("OK" if len(args.files) == 1 else f"{path}: OK")
            if proof.kind == "theorem" and proof.name:
                registry.register(proof.name, proof.system, proof.goals[0])
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
        cells = ALL_CELLS
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
    model, _ = _load_model_arg(args.model)
    if args.close:
        model = close_valuations(model)
    report = validate_model(model, _frame_class(args.frame_class))
    if report.ok:
        print("ok")
        return OK
    for v in report.violations:
        print(str(v))
    return NEGATIVE


def _formula_arg(q) -> None:
    q.add_argument("formula")


def _check_args(q) -> None:
    q.add_argument("-m", "--model", required=True)
    q.add_argument("-w", "--world", required=True)
    q.add_argument("-s", "--sign", choices=["+", "-"], default="+")
    q.add_argument("formula")


def _biext_args(q) -> None:
    q.add_argument("-m", "--model", required=True)
    q.add_argument("formula")


def _search_args(q) -> None:
    q.add_argument("--max-worlds", type=int, required=True)
    q.add_argument("--max-indices", type=int, default=2)
    q.add_argument("--timeout", type=float)


def _countermodel_args(q) -> None:
    q.add_argument("-L", "--logic", required=True)
    q.add_argument("--gamma", action="append", metavar="FORMULA")
    q.add_argument("--delta", action="append", metavar="FORMULA")
    _search_args(q)


def _valid_args(q) -> None:
    q.add_argument("-L", "--logic", required=True)
    _search_args(q)
    q.add_argument("formula")


def _prove_args(q) -> None:
    q.add_argument("files", nargs="+")
    q.add_argument("--no-corpus", action="store_true",
                   help="start from an empty lemma registry")


def _translate_args(q) -> None:
    g = q.add_mutually_exclusive_group(required=True)
    g.add_argument("--tr", metavar="ANCHOR",
                   help="modal-to-conditional with this antecedent anchor")
    g.add_argument("--i", action="store_true",
                   help="conditional-to-modal interpretation")
    q.add_argument("formula")


def _suite_args(q) -> None:
    q.add_argument("-L", "--logic", required=True,
                   help="a logic name, or 'all' for the whole table")
    q.add_argument("-c", "--connective")
    q.add_argument("--json", action="store_true")


def _fixture_args(q) -> None:
    q.add_argument("action", choices=["list", "show"])
    q.add_argument("name", nargs="?")


def _validate_args(q) -> None:
    q.add_argument("-m", "--model", required=True)
    q.add_argument("-C", "--frame-class", required=True,
                   help="P, FSM, FSC, or FSC_R")
    q.add_argument("--close", action="store_true",
                   help="upward-close the valuations before validating")


# name -> (help, handler, the function that adds its arguments), in help order
COMMANDS = {
    "parse": ("parse a formula and print its canonical form", cmd_parse, _formula_arg),
    "check": ("evaluate a formula at a world of a model", cmd_check, _check_args),
    "biext": ("print a formula's bi-extension in a model", cmd_biext, _biext_args),
    "countermodel": ("search for a countermodel to a consecution", cmd_countermodel,
                     _countermodel_args),
    "valid": ("bounded validity evidence for a formula", cmd_valid, _valid_args),
    "prove": ("check proof files", cmd_prove, _prove_args),
    "translate": ("translate between modal and conditional languages", cmd_translate,
                  _translate_args),
    "suite": ("connexivity classification", cmd_suite, _suite_args),
    "fixture": ("list or show the named fixture models", cmd_fixture, _fixture_args),
    "validate": ("validate a model against a frame class", cmd_validate, _validate_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `cnx` argument parser.  With `command`, only that subcommand's
    parser is built (each one costs milliseconds); its usage and error text
    are still those of the full tree, because the usage names every command."""
    p = argparse.ArgumentParser(
        prog="cnx",
        description="Connexive logic toolbox: parsing, bi-valuational Kripke "
                    "evaluation, bounded countermodel search, Hilbert proof "
                    "checking, translations, and connexivity classification.")
    # The full tree keeps argparse's default name for the argument, which
    # its errors for a missing or unknown command print as 'command'.
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = p.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_, fn, add_args) in COMMANDS.items():
        if command in (None, name):
            q = sub.add_parser(name, help=help_)
            add_args(q)
            q.set_defaults(fn=fn)
    return p


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
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    if args.command == "fixture" and args.action == "show" and not args.name:
        parser.error("fixture show needs a name")
    try:
        return args.fn(args)
    except (CnxError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
