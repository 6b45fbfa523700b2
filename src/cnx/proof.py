"""Hilbert systems as data, scheme matching, and checking of the three
deducibility notions (theorem / entail / rulederive).

Axiom and rule templates are stored with all defined connectives expanded,
over the metavariables phi, psi, chi (represented by the reserved template
atoms p0, p1, p2).  A proof is a sequence of lines, each justified by an
axiom instance, modus ponens on two earlier lines, a one-premise rule on an
earlier line, a hypothesis, or a lemma citation of a registered theorem.

Kinds differ in what they admit:
  theorem    - no hypotheses, all rules, last line is the goal;
  entail     - hypotheses allowed, but non-hypothesis lines may only be axiom
               instances, lemma citations, or modus ponens; the last line is
               a disjunction of goal members;
  rulederive - hypotheses and all rules; last line is the goal.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Optional, Union

from .errors import FormulaSyntaxError, ProofFormatError
from .model import LANGUAGES, Kind
from .record import Record
from .syntax import (_ATOM, _NUM, _WORD, And, Atom, Box, Dia, Formula, Imp, MightTo,
                     Neg, Or, Parser, WouldTo, check_lexable, iff, language_of, map_formula,
                     render, strong_iff)

PHI, PSI, CHI = Atom(0), Atom(1), Atom(2)
METAVARS = {0: "phi", 1: "psi", 2: "chi"}
_NAMES = {"phi": 0, "psi": 1, "chi": 2}


# ---------------------------------------------------------------------------
# axiom schemes

AXIOMS: dict[str, Formula] = {
    "a1": Imp(PHI, Imp(PSI, PHI)),
    "a2": Imp(Imp(PHI, Imp(PSI, CHI)), Imp(Imp(PHI, PSI), Imp(PHI, CHI))),
    "a3": Imp(And(PHI, PSI), PHI),
    "a4": Imp(And(PHI, PSI), PSI),
    "a5": Imp(PHI, Imp(PSI, And(PHI, PSI))),
    "a6": Imp(PHI, Or(PHI, PSI)),
    "a7": Imp(PSI, Or(PHI, PSI)),
    "a8": Imp(Imp(PHI, CHI), Imp(Imp(PSI, CHI), Imp(Or(PHI, PSI), CHI))),
    "a9": iff(Neg(Neg(PHI)), PHI),
    "a10": iff(Neg(And(PHI, PSI)), Or(Neg(PHI), Neg(PSI))),
    "a11": iff(Neg(Or(PHI, PSI)), And(Neg(PHI), Neg(PSI))),
    "a12": iff(Neg(Imp(PHI, PSI)), Imp(PHI, Neg(PSI))),
    "b1": Imp(Box(Imp(PHI, PSI)), Imp(Box(PHI), Box(PSI))),
    "b2": Imp(Box(Imp(PHI, PSI)), Imp(Dia(PHI), Dia(PSI))),
    "b3": Imp(Dia(Or(PHI, PSI)), Or(Dia(PHI), Dia(PSI))),
    "b4": Imp(Imp(Dia(PHI), Box(PSI)), Box(Imp(PHI, PSI))),
    "b5": iff(Neg(Box(PHI)), Box(Neg(PHI))),
    "b6": iff(Neg(Dia(PHI)), Dia(Neg(PHI))),
    "g1": iff(And(WouldTo(PHI, PSI), WouldTo(PHI, CHI)), WouldTo(PHI, And(PSI, CHI))),
    "g2": Imp(And(MightTo(PHI, PSI), WouldTo(PHI, CHI)), MightTo(PHI, And(PSI, CHI))),
    "g3": iff(Or(MightTo(PHI, PSI), MightTo(PHI, CHI)), MightTo(PHI, Or(PSI, CHI))),
    "g4": Imp(Imp(MightTo(PHI, PSI), WouldTo(PHI, CHI)), WouldTo(PHI, Imp(PSI, CHI))),
    "g5": WouldTo(PHI, Imp(PSI, PSI)),
    "g6": iff(Neg(WouldTo(PHI, PSI)), WouldTo(PHI, Neg(PSI))),
    "g7": iff(Neg(MightTo(PHI, PSI)), MightTo(PHI, Neg(PSI))),
    "g8": WouldTo(PHI, PHI),
}


class RuleScheme(Record):
    name: str
    premise: Formula
    conclusion: Formula


RULES: dict[str, RuleScheme] = {
    "nec": RuleScheme("nec", PHI, Box(PHI)),
    "ra-box": RuleScheme("ra-box", strong_iff(PHI, PSI),
                         strong_iff(WouldTo(PHI, CHI), WouldTo(PSI, CHI))),
    "rc-box": RuleScheme("rc-box", iff(PHI, PSI),
                         iff(WouldTo(CHI, PHI), WouldTo(CHI, PSI))),
    "ra-dia": RuleScheme("ra-dia", strong_iff(PHI, PSI),
                         strong_iff(MightTo(PHI, CHI), MightTo(PSI, CHI))),
    "rc-dia": RuleScheme("rc-dia", iff(PHI, PSI),
                         iff(MightTo(CHI, PHI), MightTo(CHI, PSI))),
}


class ProofSystem(Record):
    name: str
    axioms: frozenset[str]
    rules: frozenset[str]
    kind: Kind                  # the model kind whose language the system speaks


_S0_AX = frozenset(f"a{i}" for i in range(1, 9))
_C_AX = _S0_AX | {f"a{i}" for i in range(9, 13)}

SYSTEMS: dict[str, ProofSystem] = {
    "S0": ProofSystem("S0", _S0_AX, frozenset({"mp"}), Kind.PROP),
    "C": ProofSystem("C", _C_AX, frozenset({"mp"}), Kind.PROP),
    "CnK": ProofSystem("CnK", _C_AX | {f"b{i}" for i in range(1, 7)},
                       frozenset({"mp", "nec"}), Kind.MODAL),
    "CnCK": ProofSystem("CnCK", _C_AX | {f"g{i}" for i in range(1, 8)},
                        frozenset({"mp", "ra-box", "rc-box", "ra-dia", "rc-dia"}),
                        Kind.COND),
    "CnCKR": ProofSystem("CnCKR", _C_AX | {f"g{i}" for i in range(1, 9)},
                         frozenset({"mp", "ra-box", "rc-box", "ra-dia", "rc-dia"}),
                         Kind.COND),
}


def system_includes(sub: str, sup: str) -> bool:
    """Scheme-set inclusion between named systems."""
    a, b = SYSTEMS[sub], SYSTEMS[sup]
    return a.axioms <= b.axioms and a.rules <= b.rules


# ---------------------------------------------------------------------------
# scheme matching

def _match(template: Formula, f: Formula, binding: dict[int, Formula]) -> bool:
    if isinstance(template, Atom):
        bound = binding.get(template.index)
        if bound is None:
            binding[template.index] = f
            return True
        return bound == f
    if type(template) is not type(f):
        return False
    if isinstance(template, (Neg, Box, Dia)):
        return _match(template.body, f.body, binding)
    return (_match(template.left, f.left, binding)
            and _match(template.right, f.right, binding))


def match_scheme(f: Formula, template: Formula) -> Optional[dict[str, Formula]]:
    """Bind the template's metavariables so that template[binding] == f.
    The binding is unique when it exists."""
    binding: dict[int, Formula] = {}
    if _match(template, f, binding):
        return {METAVARS[i]: g for i, g in binding.items()}
    return None


def instantiate(template: Formula, binding: dict[str, Formula]) -> Formula:
    table = {_NAMES[name]: f for name, f in binding.items()}
    return map_formula(template, lambda g: table.get(g.index, g) if isinstance(g, Atom) else g)


# ---------------------------------------------------------------------------
# proofs

class AxiomJust(Record):
    name: str
    binding: Optional[dict[str, Formula]] = None

    def __hash__(self):
        return hash(("axiom", self.name))


class MpJust(Record):
    i: int
    j: int


class RuleJust(Record):
    name: str
    i: int


class HypJust(Record):
    pass


class LemmaJust(Record):
    name: str


Justification = Union[AxiomJust, MpJust, RuleJust, HypJust, LemmaJust]


class ProofLine(Record):
    formula: Formula
    just: Justification


class Proof(Record):
    system: str
    kind: str  # theorem | entail | rulederive
    name: Optional[str]
    hypotheses: tuple[Formula, ...]
    goals: tuple[Formula, ...]
    lines: tuple[ProofLine, ...]


class RegisteredTheorem(Record):
    name: str
    system: str
    formula: Formula


class Registry:
    """Named store of checked theorem-kind proofs, citable via lemma lines."""

    def __init__(self):
        self._store: dict[str, RegisteredTheorem] = {}

    def register(self, name: str, system: str, formula: Formula) -> None:
        self._store[name] = RegisteredTheorem(name, system, formula)

    def admit(self, proof: Proof) -> CheckResult:
        """Check the proof against this registry, and register it if it is
        an accepted, named theorem-kind proof."""
        result = check_proof(proof, self)
        if result.ok and proof.kind == "theorem" and proof.name:
            self.register(proof.name, proof.system, proof.goals[0])
        return result

    def copy(self) -> "Registry":
        """A registry of the same theorems, which registers apart from this one."""
        out = Registry()
        out._store = dict(self._store)
        return out

    def get(self, name: str) -> Optional[RegisteredTheorem]:
        return self._store.get(name)

    def __len__(self):
        return len(self._store)


class CheckResult(Record):
    ok: bool
    line: Optional[int] = None
    code: Optional[str] = None
    reason: Optional[str] = None

    def __bool__(self):
        return self.ok

    def describe(self) -> str:
        """'line N: code: reason', without the line for a file-level rejection."""
        where = "" if self.line is None else f"line {self.line}: "
        return f"{where}{self.code}: {self.reason}"


def _bad(line, code, reason):
    return CheckResult(False, line, code, reason)


def _delta_covers(f: Formula, delta: frozenset[Formula]) -> bool:
    """f is a disjunction (in any association and grouping) of delta members."""
    if f in delta:
        return True
    if isinstance(f, Or):
        return _delta_covers(f.left, delta) and _delta_covers(f.right, delta)
    return False


def check_proof(proof: Proof, registry: Registry | None = None) -> CheckResult:
    """Line-local deterministic check of a proof against its system and kind.
    Never registers anything; Registry.admit checks and then registers an
    accepted, named theorem-kind proof."""
    registry = registry if registry is not None else Registry()
    if proof.system not in SYSTEMS:
        return _bad(None, "unknown-system", f"unknown system {proof.system!r}")
    system = SYSTEMS[proof.system]
    if proof.kind not in ("theorem", "entail", "rulederive"):
        return _bad(None, "unknown-kind", f"unknown kind {proof.kind!r}")
    if not proof.lines:
        return _bad(None, "empty-proof", "a proof needs at least one line")

    for f in proof.hypotheses + proof.goals + tuple(l.formula for l in proof.lines):
        if language_of(f) not in LANGUAGES[system.kind]:
            return _bad(None, "language-mismatch",
                        f"{render(f)} is outside the language of {proof.system}")

    if proof.kind == "theorem":
        if proof.hypotheses:
            return _bad(None, "hyp-not-allowed", "theorem proofs take no hypotheses")
        if len(proof.goals) != 1:
            return _bad(None, "goal-mismatch", "theorem proofs take exactly one goal")
    if proof.kind == "rulederive" and len(proof.goals) != 1:
        return _bad(None, "goal-mismatch", "rulederive proofs take exactly one goal")
    if proof.kind == "entail" and not proof.goals:
        return _bad(None, "goal-mismatch",
                    "entail proofs need a nonempty delta to disjoin")

    hyps = set(proof.hypotheses)
    for no, line in enumerate(proof.lines, start=1):
        f, just = line.formula, line.just

        if isinstance(just, HypJust):
            if proof.kind == "theorem":
                return _bad(no, "hyp-not-allowed", "hypothesis inside a theorem proof")
            if f not in hyps:
                return _bad(no, "hyp-not-declared",
                            f"{render(f)} is not among the declared hypotheses")

        elif isinstance(just, AxiomJust):
            if just.name not in AXIOMS:
                return _bad(no, "unknown-axiom", f"unknown axiom {just.name!r}")
            if just.name not in system.axioms:
                return _bad(no, "axiom-not-in-system",
                            f"{just.name} is not an axiom of {proof.system}")
            template = AXIOMS[just.name]
            if just.binding is not None:
                if instantiate(template, just.binding) != f:
                    return _bad(no, "bad-scheme-instance",
                                f"line is not the stated instance of {just.name}")
            elif match_scheme(f, template) is None:
                return _bad(no, "bad-scheme-instance",
                            f"line is not an instance of {just.name}")

        elif isinstance(just, MpJust):
            err = _check_refs(no, (just.i, just.j))
            if err is not None:
                return err
            a = proof.lines[just.i - 1].formula
            b = proof.lines[just.j - 1].formula
            if not (b == Imp(a, f) or a == Imp(b, f)):
                return _bad(no, "mp-mismatch",
                            "neither cited line is an implication from the other to this line")

        elif isinstance(just, RuleJust):
            if just.name not in RULES:
                return _bad(no, "unknown-rule", f"unknown rule {just.name!r}")
            if proof.kind == "entail":
                return _bad(no, "rule-not-permitted-in-kind",
                            f"{just.name} cannot be used in an entail proof")
            if just.name not in system.rules:
                return _bad(no, "rule-not-in-system",
                            f"{just.name} is not a rule of {proof.system}")
            err = _check_refs(no, (just.i,))
            if err is not None:
                return err
            scheme = RULES[just.name]
            binding = match_scheme(f, scheme.conclusion)
            if binding is None:
                return _bad(no, "bad-scheme-instance",
                            f"line does not match the conclusion of {just.name}")
            premise = instantiate(scheme.premise, binding)
            if proof.lines[just.i - 1].formula != premise:
                return _bad(no, "bad-scheme-instance",
                            f"cited line is not the matching premise of {just.name}")

        elif isinstance(just, LemmaJust):
            entry = registry.get(just.name)
            if entry is None:
                return _bad(no, "unknown-lemma", f"no registered theorem {just.name!r}")
            if not system_includes(entry.system, proof.system):
                return _bad(no, "lemma-system-mismatch",
                            f"{just.name} was proved in {entry.system}, which is not "
                            f"included in {proof.system}")
            if entry.formula != f:
                return _bad(no, "lemma-formula-mismatch",
                            f"line differs from the registered statement of {just.name}")
        else:
            return _bad(no, "unknown-justification", f"{just!r}")

    last = proof.lines[-1].formula
    if proof.kind in ("theorem", "rulederive"):
        if last != proof.goals[0]:
            return _bad(len(proof.lines), "goal-mismatch",
                        "final line does not match the goal")
    else:
        if not _delta_covers(last, frozenset(proof.goals)):
            return _bad(len(proof.lines), "goal-mismatch",
                        "final line is not a disjunction of goal members")
    return CheckResult(True)


def _check_refs(no: int, refs) -> Optional[CheckResult]:
    for r in refs:
        if not (1 <= r < no):
            return _bad(no, "bad-line-ref",
                        f"reference to line {r} is not strictly earlier")
    return None


# ---------------------------------------------------------------------------
# proof file format

def parse_proof(text: str) -> Proof:
    return next(parse_proofs((text,)))


def parse_proofs(texts: Iterable[str]) -> Iterator[Proof]:
    """The proof of each text, in order, read as it is asked for.  The texts
    share one group memo, since proofs repeat each other's subformulas."""
    memo: dict = {}
    for text in texts:
        header: dict[str, str] = {}  # system, kind and name
        hyps, goals, lines = [], [], []
        for ln, raw in enumerate(text.splitlines(), start=1):
            code, _, comment = raw.partition("#")
            if comment.startswith((">", "=>")):
                raise ProofFormatError(f"line {ln}: strict arrows (#>, #=>, <#>, <#=>) "
                                       "cannot be used in a proof file, where '#' "
                                       "begins a comment")
            code = code.rstrip()
            stripped = code.lstrip()
            if not stripped:
                continue
            head = stripped.split(None, 1)[0]
            rest = stripped[len(head):].lstrip()
            at = len(code) - len(rest)  # where rest starts in the line
            try:
                if head in ("system", "kind", "name"):
                    if head in header:
                        raise ProofFormatError(f"line {ln}: a second {head!r} line")
                    header[head] = rest
                elif head in ("hyp", "goal"):
                    (hyps if head == "hyp" else goals).append(
                        _parse_line(code, at, ln, memo, justified=False))
                elif head.isascii() and head.isdigit():
                    idx = int(head)
                    if idx != len(lines) + 1:
                        raise ProofFormatError(
                            f"line {ln}: expected index {len(lines) + 1}, got {idx}")
                    lines.append(_parse_line(code, at, ln, memo, justified=True))
                else:
                    raise ProofFormatError(f"line {ln}: unknown directive {head!r}")
            except FormulaSyntaxError as e:
                raise FormulaSyntaxError(f"line {ln}: {e.message}", e.offset,
                                         e.expected) from None

        if "system" not in header or "kind" not in header:
            raise ProofFormatError("proof file needs 'system' and 'kind' lines")
        yield Proof(header["system"], header["kind"], header.get("name"), tuple(hyps),
                    tuple(goals), tuple(lines))


def _parse_line(code: str, at: int, ln: int, memo: dict, justified: bool):
    """The formula at code[at:], with its justification if `justified`."""
    p = Parser(code, memo, at)
    try:
        f = p.formula()
        if justified:
            return ProofLine(f, _parse_just(p, ln))
        if p.kind != "end":
            raise ProofFormatError(f"line {ln}: trailing tokens after formula")
        return f
    except (FormulaSyntaxError, ProofFormatError):
        check_lexable(code, at, justified)
        raise


# a justification up to its bindings, in one match: its name, then its
# arguments when they are one or two line numbers or a name (an atom is no
# name), then `end` when nothing follows them
_NAME = rf"(?!{_ATOM}){_WORD}"
_JUST_RE = re.compile(rf"(?P<word>{_NAME})?(?:[ \t]+(?:(?P<i>{_NUM})(?:[ \t]+(?P<j>{_NUM}))?"
                      rf"|(?P<name>{_NAME})))?(?P<end>[ \t]*\Z)?")

# what each justification but axiom takes after its name: which of _JUST_RE's
# groups i, j and name hold an argument
_ARGS = {"hyp": ((False, False, False), "takes no arguments"),
         "mp": ((True, True, False), "takes two line numbers"),
         "lemma": ((False, False, True), "takes one name"),
         **{rule: ((True, False, False), "takes one line number") for rule in RULES}}


def _parse_just(p: Parser, ln: int) -> Justification:
    m = _JUST_RE.match(p.text, p.start)
    word, i, j, name, end = m.groups()
    if word is None:
        raise ProofFormatError(f"line {ln}: missing justification")
    if word == "axiom":
        if name is None:
            raise ProofFormatError(f"line {ln}: axiom takes a scheme name")
        if end is not None:
            return AxiomJust(name, None)
        # the bindings, at least one
        p.seek(m.end("name"))
        binding: dict[str, Formula] = {}
        while p.kind != "end":
            var = p.tok
            if p.kind != "word" or var not in _NAMES:
                raise ProofFormatError(f"line {ln}: expected phi=/psi=/chi= binding")
            p.seek(p.end)
            if p.kind != "eq":
                raise ProofFormatError(f"line {ln}: expected '=' after {var}")
            if var in binding:
                raise ProofFormatError(f"line {ln}: {var} is bound twice")
            p.seek(p.end)
            binding[var] = p.formula()
        return AxiomJust(name, binding)
    if word not in _ARGS:
        raise ProofFormatError(f"line {ln}: unknown justification {word!r}")
    shape, usage = _ARGS[word]
    if end is None or (i is not None, j is not None, name is not None) != shape:
        raise ProofFormatError(f"line {ln}: {word} {usage}")
    if word == "mp":
        return MpJust(int(i), int(j))
    if word in RULES:
        return RuleJust(word, int(i))
    return LemmaJust(name) if word == "lemma" else HypJust()


def render_proof(proof: Proof) -> str:
    out = [f"system {proof.system}", f"kind {proof.kind}"]
    if proof.name:
        out.append(f"name {proof.name}")
    for h in proof.hypotheses:
        out.append(f"hyp {render(h)}")
    for g in proof.goals:
        out.append(f"goal {render(g)}")
    for no, line in enumerate(proof.lines, start=1):
        out.append(f"{no} {render(line.formula)} {_render_just(line.just)}")
    return "\n".join(out) + "\n"


def _render_just(just: Justification) -> str:
    if isinstance(just, HypJust):
        return "hyp"
    if isinstance(just, MpJust):
        return f"mp {just.i} {just.j}"
    if isinstance(just, RuleJust):
        return f"{just.name} {just.i}"
    if isinstance(just, LemmaJust):
        return f"lemma {just.name}"
    if isinstance(just, AxiomJust):
        if just.binding:
            parts = " ".join(f"{k}={render(v)}"
                             for k, v in sorted(just.binding.items(),
                                                key=lambda kv: _NAMES[kv[0]]))
            return f"axiom {just.name} {parts}"
        return f"axiom {just.name}"
    raise TypeError(f"not a justification: {just!r}")
