"""Connexivity classification: run the seven thesis schemes for a connective
in a logic and derive the taxonomy label, with machine-checked evidence for
every verdict.

Each thesis is instantiated at the reserved scheme atoms p0, p1 as a
consecution (a formula-form thesis A as |- A).  Four stages are tried in
order, and the evidence text opens with the name of the one that decides:
proof, the first corpus proof, in manifest order, whose statement is the
instance (hypotheses gamma, goals delta) and whose system the logic
includes, so a proof added to the corpus or renamed there backs its cell
with no other edit; fixture, the first named fixture that is a model of the
logic's frame class and refutes the instance; search, the first
countermodel of a bounded search; bounded, an exhausted search, reported as
non-conclusive evidence that the thesis holds.  Every piece of evidence is
re-checked against the instance and the frame class at report time.
"""

from __future__ import annotations

from enum import Enum
from functools import cache
from typing import Callable, Optional

from .corpus import corpus_proofs
from .errors import LanguageMismatch
from .logics import Logic
from .model import FIXTURE_NAMES, PointedModel, get_fixture, validate_model
from .proof import system_includes
from .record import Record
from .search import (SearchBounds, Status, check_evidence, find_countermodel,
                     refuting_point)
from .semantics import Consecution, consecution
from .syntax import _BINARY, Atom, Formula, Neg


class Thesis(Enum):
    AT = "AT"
    BT = "BT"
    CBT = "CBT"
    WBT = "WBT"
    WCBT = "WCBT"
    NONSYM = "nonSym"
    WNONSYM = "WnonSym"


# the parser's own constructor for each connective, in report order
CONNECTIVES: dict[str, Callable[[Formula, Formula], Formula]] = {
    op: _BINARY[op] for op in ("->", "=>", "#>", "#=>", "@>", "?>", "@=>", "?=>")}


def connective_defined_in(conn: str, logic: Logic) -> bool:
    return logic.admits(CONNECTIVES[conn](Atom(0), Atom(1)))


def thesis_instance(conn: str, thesis: Thesis) -> Consecution:
    """The scheme instance at p0, p1; a formula-form thesis A as |- A."""
    star, a, b = CONNECTIVES[conn], Atom(0), Atom(1)
    if thesis is Thesis.AT:
        return consecution([], [Neg(star(Neg(a), a))])
    if thesis is Thesis.BT:
        return consecution([], [star(star(a, Neg(b)), Neg(star(a, b)))])
    if thesis is Thesis.CBT:
        return consecution([], [star(Neg(star(a, b)), star(a, Neg(b)))])
    if thesis is Thesis.NONSYM:
        return consecution([], [star(star(a, b), star(b, a))])
    if thesis is Thesis.WBT:
        return consecution([star(a, Neg(b))], [Neg(star(a, b))])
    if thesis is Thesis.WCBT:
        return consecution([Neg(star(a, b))], [star(a, Neg(b))])
    if thesis is Thesis.WNONSYM:
        return consecution([star(a, b)], [star(b, a)])
    raise ValueError(thesis)


class ProofEvidence(Record):
    name: str
    system: str

    @property
    def source(self) -> str:
        return f"proof:{self.name}"


class CountermodelEvidence(Record):
    pointed: PointedModel
    fixture: Optional[str]      # named fixture, if one supplied the model

    @property
    def source(self) -> str:
        if self.fixture:
            return f"fixture:{self.fixture}"
        n = len(self.pointed.model.worlds)
        return f"search:{n}-world model"


class BoundedEvidence(Record):
    bounds: SearchBounds

    @property
    def source(self) -> str:
        return (f"bounded:no countermodel within {self.bounds.max_worlds} "
                f"worlds (non-conclusive)")


class ThesisStatus(Record):
    thesis: Thesis
    verdict: str                # holds | fails
    evidence: object

    @property
    def evidence_text(self) -> str:
        return self.evidence.source


class ConnexivityReport(Record):
    logic: Logic
    connective: str
    statuses: tuple[ThesisStatus, ...]

    def verdict(self, thesis: Thesis) -> str:
        for s in self.statuses:
            if s.thesis is thesis:
                return s.verdict
        raise KeyError(thesis)

    @property
    def label(self) -> str:
        holds = {s.thesis for s in self.statuses if s.verdict == "holds"}
        plainly = (Thesis.AT in holds and Thesis.BT in holds
                   and Thesis.NONSYM not in holds)
        weakly = (Thesis.AT in holds and Thesis.WBT in holds
                  and Thesis.WNONSYM not in holds)
        plainly_hyper = plainly and Thesis.CBT in holds
        weakly_hyper = weakly and Thesis.WCBT in holds
        partially = ((Thesis.AT in holds or Thesis.BT in holds)
                     and Thesis.NONSYM not in holds)
        weakly_partially = (Thesis.WBT in holds and Thesis.WNONSYM not in holds)
        weakly_partially_hyper = weakly_partially and Thesis.WCBT in holds
        if plainly_hyper and weakly_hyper:
            return "fully hyperconnexive"
        if plainly and weakly:
            return "fully connexive"
        if plainly:
            return "plainly connexive"
        if weakly:
            return "weakly connexive"
        if weakly_partially_hyper:
            return "weakly partially hyperconnexive"
        if weakly_partially:
            return "weakly partially connexive"
        if partially:
            return "partially connexive"
        return "none"


@cache
def _candidate_fixtures(logic: Logic) -> tuple:
    """The named fixtures that are models of the logic's frame class.  The
    models are constants, so each logic's list is validated once."""
    fixtures = ((name, get_fixture(name)) for name in FIXTURE_NAMES)
    return tuple((name, pm) for name, pm in fixtures
                 if validate_model(pm.model, logic.frame_class).ok)


def run_thesis(logic: Logic, conn: str, thesis: Thesis,
               bounds: SearchBounds) -> ThesisStatus:
    c = thesis_instance(conn, thesis)
    for f in c.gamma | c.delta:
        logic.require(f)
    frame = logic.frame_class

    for proof in corpus_proofs(c.gamma, c.delta):
        if system_includes(proof.system, logic.value):
            check_evidence(frame, c, proof)
            return ThesisStatus(thesis, "holds", ProofEvidence(proof.name, proof.system))

    for fixture_name, pm in _candidate_fixtures(logic):
        w = refuting_point(pm.model, c)
        if w is not None:
            hit = PointedModel(pm.model, w)
            check_evidence(frame, c, hit)
            return ThesisStatus(thesis, "fails", CountermodelEvidence(hit, fixture_name))

    outcome = find_countermodel(logic, c, bounds)
    if outcome.status is Status.FOUND:
        check_evidence(frame, c, outcome.witness)
        return ThesisStatus(thesis, "fails", CountermodelEvidence(outcome.witness, None))
    return ThesisStatus(thesis, "holds", BoundedEvidence(bounds))


DEFAULT_BOUNDS = SearchBounds(max_worlds=2, atoms=(0, 1), max_cond_indices=2)


def run_suite(logic: Logic, conn: str) -> ConnexivityReport:
    if conn not in CONNECTIVES:
        raise ValueError(f"unknown connective {conn!r}")
    if not connective_defined_in(conn, logic):
        raise LanguageMismatch(
            f"{conn} is not expressible in the language of {logic.value}")
    statuses = tuple(run_thesis(logic, conn, thesis, DEFAULT_BOUNDS)
                     for thesis in Thesis)
    return ConnexivityReport(logic, conn, statuses)


ALL_CELLS: tuple[tuple[Logic, str], ...] = tuple(
    (logic, conn)
    for logic in Logic
    for conn in CONNECTIVES
    if connective_defined_in(conn, logic))


def render_report(report: ConnexivityReport) -> str:
    lines = [f"logic={report.logic.value} connective={report.connective}"]
    for s in report.statuses:
        lines.append(f"  {s.thesis.value:<8} {s.verdict:<6} {s.evidence_text}")
    lines.append(f"  label: {report.label}")
    return "\n".join(lines)


def report_record(report: ConnexivityReport) -> dict:
    return {
        "logic": report.logic.value,
        "connective": report.connective,
        "label": report.label,
        "theses": [
            {"thesis": s.thesis.value, "verdict": s.verdict,
             "evidence": s.evidence_text}
            for s in report.statuses
        ],
    }
