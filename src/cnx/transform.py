"""Translations between the modal and conditional settings, and the model
constructions backing them: anchored translation of boxes/diamonds into
conditionals, the reverse interpretation, modal-to-conditional lifts, the
anchor-indexed slice, the rooted disjoint join, and the fresh-root extension
that turns a countermodel to a consequent into a countermodel to a
would-conditional.
"""

from __future__ import annotations

from itertools import product
from typing import Optional

from .errors import FrameViolation, KindMismatch, LanguageMismatch, TooManyWorlds
from .model import (LANGUAGES, BiSet, FrameClass, Kind, KripkeModel,
                    PointedModel, _up_sets, bi, validate_model)
from .record import Record
from .semantics import biextension
from .syntax import (And, Box, Dia, Formula, Imp, MightTo, WouldTo,
                     language_of, map_formula)

FULL_LIFT_WORLD_CAP = 4


class LiftMode(Record):
    style: str  # full | closed | refl
    anchor: Optional[Formula] = None


FULL = LiftMode("full")
CLOSED = LiftMode("closed")


def refl(anchor: Formula) -> LiftMode:
    if language_of(anchor) not in LANGUAGES[Kind.COND]:
        raise LanguageMismatch("a refl-lift anchor must be a conditional-language formula")
    return LiftMode("refl", anchor)


# ---------------------------------------------------------------------------
# formula translations

def tr_phi(anchor: Formula, f: Formula) -> Formula:
    """Translate a modal formula into the conditional language, reading boxes
    as anchor @> _ and diamonds as anchor ?> _."""
    if language_of(anchor) not in LANGUAGES[Kind.COND]:
        raise LanguageMismatch("anchor must be in the conditional language")
    if language_of(f) not in LANGUAGES[Kind.MODAL]:
        raise LanguageMismatch("tr_phi translates modal-language formulas")

    def go(g: Formula) -> Formula:
        match g:
            case Box(body):
                return WouldTo(anchor, body)
            case Dia(body):
                return MightTo(anchor, body)
        return g

    return map_formula(f, go)


def i_translate(f: Formula) -> Formula:
    """Interpret conditionals modally: a @> b as [](a -> b), a ?> b as <>(a & b)."""
    if language_of(f) not in LANGUAGES[Kind.COND]:
        raise LanguageMismatch("i_translate interprets conditional-language formulas")

    def go(g: Formula) -> Formula:
        match g:
            case WouldTo(left, right):
                return Box(Imp(left, right))
            case MightTo(left, right):
                return Dia(And(left, right))
        return g

    return map_formula(f, go)


# ---------------------------------------------------------------------------
# model constructions

def _require(m: KripkeModel, cls: FrameClass) -> None:
    report = validate_model(m, cls)
    if not report.ok:
        raise FrameViolation(
            f"input fails {cls.value} validation: {report.violations[0]}")


def modal_to_conditional(m: KripkeModel, mode: LiftMode) -> KripkeModel:
    """Lift a modal model to a conditional one.

    full:   every index carries the modal relation (capped world count);
    closed: up-closed indices only, triples restricted to targets inside the
            positive index component;
    refl:   indices (W, X) for every X carry the modal relation; the anchor
            must come out true everywhere (checked on the result).
    """
    _require(m, FrameClass.FSM)
    access: dict[BiSet, frozenset] = {}
    if mode.style == "full":
        if len(m.worlds) > FULL_LIFT_WORLD_CAP:
            raise TooManyWorlds(
                f"full lift materializes 4^|W| indices; |W|={len(m.worlds)} "
                f"exceeds the cap of {FULL_LIFT_WORLD_CAP}")
        if m.access:
            for x, y in product(_up_sets(m.worlds, ()), repeat=2):
                access[BiSet(x, y)] = m.access
    elif mode.style == "closed":
        for x, y in product(_up_sets(m.worlds, m.leq), repeat=2):
            rel = frozenset((u, v) for (u, v) in m.access if v in x)
            if rel:
                access[BiSet(x, y)] = rel
    elif mode.style == "refl":
        if m.access:
            w_all = frozenset(m.worlds)
            for x in _up_sets(m.worlds, ()):
                access[BiSet(w_all, x)] = m.access
    else:
        raise ValueError(f"unknown lift mode {mode.style!r}")

    out = KripkeModel(Kind.COND, m.worlds, m.leq, access, m.val_pos, m.val_neg)
    _require(out, FrameClass.FSC)
    if mode.style in ("closed", "refl"):
        _require(out, FrameClass.FSC_R)
    if mode.style == "refl":
        ext = biextension(out, mode.anchor)
        if ext.pos != out.worlds:
            raise FrameViolation(
                "refl lift requires the anchor to be verified at every world "
                "of the result")
    return out


def conditional_to_modal(m: KripkeModel, anchor: Formula) -> KripkeModel:
    """The modal slice of a conditional model at the anchor's bi-extension."""
    _require(m, FrameClass.FSC)
    rel = m.access.get(biextension(m, anchor), frozenset())
    out = KripkeModel(Kind.MODAL, m.worlds, m.leq, rel, m.val_pos, m.val_neg)
    _require(out, FrameClass.FSM)
    return out


# ---------------------------------------------------------------------------
# rooted disjoint join

class JoinResult(Record):
    pointed: PointedModel            # root below both component points
    left_point: str
    right_point: str
    right_world_map: dict            # original right-component id -> joined id
    atom_offset: int                 # shift applied to right-component atoms


def _fresh(base: str, taken: set[str]) -> str:
    cand = base
    while cand in taken:
        cand += "'"
    return cand


def _extend_index(access: dict, idx: BiSet, rel: frozenset, extra: list) -> None:
    """Add rel to access at the index (idx.pos | x, idx.neg | y) for every x
    and y in extra."""
    for xe, ye in product(extra, repeat=2):
        j = BiSet(idx.pos | xe, idx.neg | ye)
        access[j] = access.get(j, frozenset()) | rel


def dp_join(pm1: PointedModel, pm2: PointedModel) -> JoinResult:
    """Disjoint union of two same-kind models with a fresh root placed below
    both points; the root sees no accessibility of its own, and conditional
    accessibility is inherited per component by restricting indices.

    World ids of the right component are renamed on collision.  If the two
    components both valuate some common atom, every right-component atom is
    shifted past the left component's largest atom, keeping the components
    independent."""
    m1, m2 = pm1.model, pm2.model
    if m1.kind is not m2.kind:
        raise KindMismatch(f"cannot join a {m1.kind.value} model with a "
                           f"{m2.kind.value} model")

    taken = set(m1.worlds)
    wmap = {}
    for w in sorted(m2.worlds):
        nw = _fresh(w, taken)
        wmap[w] = nw
        taken.add(nw)
    root = _fresh("root", taken)

    atoms1, atoms2 = m1.atoms(), m2.atoms()
    offset = (max(atoms1) + 1) if (atoms1 & atoms2) else 0

    worlds = set(m1.worlds) | set(wmap.values()) | {root}
    leq = set(m1.leq) | {(wmap[a], wmap[b]) for (a, b) in m2.leq}
    leq |= {(root, w) for w in worlds}

    def shifted(table):
        return {a + offset: frozenset(wmap[w] for w in ws)
                for a, ws in table.items()}

    val_pos = dict(m1.val_pos)
    val_neg = dict(m1.val_neg)
    for a, ws in shifted(m2.val_pos).items():
        val_pos[a] = val_pos.get(a, frozenset()) | ws
    for a, ws in shifted(m2.val_neg).items():
        val_neg[a] = val_neg.get(a, frozenset()) | ws

    if m1.kind is Kind.PROP:
        access = None
    elif m1.kind is Kind.MODAL:
        access = set(m1.access) | {(wmap[a], wmap[b]) for (a, b) in m2.access}
    else:
        extra = _up_sets(worlds - set(m1.worlds), ())
        extra2 = _up_sets(worlds - set(wmap.values()), ())
        access = {}
        for idx, rel in m1.access.items():
            _extend_index(access, idx, rel, extra)
        for idx, rel in m2.access.items():
            _extend_index(access, bi(map(wmap.get, idx.pos), map(wmap.get, idx.neg)),
                          frozenset((wmap[a], wmap[b]) for (a, b) in rel), extra2)

    out = KripkeModel(m1.kind, worlds, leq, access, val_pos, val_neg)
    return JoinResult(PointedModel(out, root), pm1.point, wmap[pm2.point],
                      wmap, offset)


def extend_refuting_would(pm: PointedModel, anchor: Formula) -> PointedModel:
    """Add a fresh isolated world from which the anchor-indexed relation (in
    all four variants of the anchor's bi-extension over the enlarged world
    set) reaches every world above the old point.  If the consequent fails at
    the old point, the would-conditional from the anchor fails at the new
    world."""
    m = pm.model
    _require(m, FrameClass.FSC)
    v = _fresh("v", set(m.worlds))
    worlds = set(m.worlds) | {v}
    leq = set(m.leq) | {(v, v)}
    ext = biextension(m, anchor)
    targets = frozenset((v, u) for u in m.up(pm.point))

    access: dict[BiSet, frozenset] = {}
    extra = _up_sets({v}, ())
    for idx, rel in m.access.items():
        _extend_index(access, idx, rel, extra)
    _extend_index(access, ext, targets, extra)

    out = KripkeModel(Kind.COND, worlds, leq, access, m.val_pos, m.val_neg)
    _require(out, FrameClass.FSC)
    return PointedModel(out, v)
