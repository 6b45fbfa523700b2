"""The two satisfaction relations, bi-extensions, and consecution satisfaction.

Verification ('+') and falsification ('-') are computed by one mutual
induction; per formula, whole-model bi-extensions are memoized on the model,
so conditional antecedents are never re-evaluated.  Results are independent
of evaluation order and cache state: models are immutable and every cache
entry is a pure function of (model, formula).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LanguageMismatch, UnknownWorld
from .model import LANGUAGES, BiSet, KripkeModel, PointedModel
from .syntax import (And, Atom, Box, Dia, Formula, Imp, MightTo, Neg, Or,
                     WouldTo, language_of)

SIGNS = ("+", "-")


@dataclass(frozen=True)
class Consecution:
    gamma: frozenset[Formula]
    delta: frozenset[Formula]


def consecution(gamma, delta) -> Consecution:
    return Consecution(frozenset(gamma), frozenset(delta))


def _check_language(m: KripkeModel, f: Formula) -> None:
    tag = language_of(f)
    if tag not in LANGUAGES[m.kind]:
        raise LanguageMismatch(
            f"{tag.value} formula cannot be evaluated on a {m.kind.value} model")


def biextension(m: KripkeModel, f: Formula) -> BiSet:
    """The pair (worlds verifying f, worlds falsifying f)."""
    _check_language(m, f)
    return _biext(m, f)


def _biext(m: KripkeModel, f: Formula) -> BiSet:
    cached = m._biext_cache.get(f)
    if cached is not None:
        return cached

    W = m.worlds
    match f:
        case Atom(index):
            res = BiSet(m.val(index, "+"), m.val(index, "-"))
        case Neg(body):
            res = _biext(m, body).swap()
        case And(left, right):
            a, b = _biext(m, left), _biext(m, right)
            res = BiSet(a.pos & b.pos, a.neg | b.neg)
        case Or(left, right):
            a, b = _biext(m, left), _biext(m, right)
            res = BiSet(a.pos | b.pos, a.neg & b.neg)
        case Imp(left, right):
            a, b = _biext(m, left), _biext(m, right)
            pos = frozenset(w for w in W if (m.up(w) & a.pos) <= b.pos)
            neg = frozenset(w for w in W if (m.up(w) & a.pos) <= b.neg)
            res = BiSet(pos, neg)
        case Box(body):
            a = _biext(m, body)
            pos = frozenset(w for w in W if _image(m.access, m.up(w)) <= a.pos)
            neg = frozenset(w for w in W if _image(m.access, m.up(w)) <= a.neg)
            res = BiSet(pos, neg)
        case Dia(body):
            a = _biext(m, body)
            pos = frozenset(w for w in W if _image(m.access, {w}) & a.pos)
            neg = frozenset(w for w in W if _image(m.access, {w}) & a.neg)
            res = BiSet(pos, neg)
        case WouldTo(left, right):
            rel = m.slice_at(_biext(m, left))
            b = _biext(m, right)
            pos = frozenset(w for w in W if _image(rel, m.up(w)) <= b.pos)
            neg = frozenset(w for w in W if _image(rel, m.up(w)) <= b.neg)
            res = BiSet(pos, neg)
        case MightTo(left, right):
            rel = m.slice_at(_biext(m, left))
            b = _biext(m, right)
            pos = frozenset(w for w in W if _image(rel, {w}) & b.pos)
            neg = frozenset(w for w in W if _image(rel, {w}) & b.neg)
            res = BiSet(pos, neg)
        case _:
            raise TypeError(f"not a formula: {f!r}")

    m._biext_cache[f] = res
    return res


def _image(rel, sources) -> frozenset[str]:
    return frozenset(v for (u, v) in rel if u in sources)


def sat(m: KripkeModel, w: str, f: Formula, sign: str = "+") -> bool:
    """Whether f is verified ('+') or falsified ('-') at w."""
    if w not in m.worlds:
        raise UnknownWorld(f"{w!r} is not a world of the model")
    if sign not in SIGNS:
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    ext = biextension(m, f)
    return w in (ext.pos if sign == "+" else ext.neg)


def check_consecution(pm: PointedModel, c: Consecution, sign: str = "+") -> bool:
    """True iff every member of gamma and no member of delta is sign-satisfied
    at the point."""
    m, w = pm.model, pm.point
    return (all(sat(m, w, g, sign) for g in c.gamma)
            and not any(sat(m, w, d, sign) for d in c.delta))
