"""Shared helpers: seeded random formulas and models for property tests, and
a from-the-definition satisfaction relation that the evaluator is tested
against."""

from __future__ import annotations

import random

from cnx.model import BiSet, Kind, KripkeModel, _fs_violations, _up_sets
from cnx.semantics import Consecution
from cnx.search import _preorders
from cnx.syntax import (And, Atom, Box, Dia, Formula, Imp, MightTo, Neg, Or,
                        WouldTo, map_formula)

PL_CONNS = (Neg, And, Or, Imp)
MD_CONNS = PL_CONNS + (Box, Dia)
CN_CONNS = PL_CONNS + (WouldTo, MightTo)


def random_formula(rnd: random.Random, max_depth: int, atoms=(0, 1),
                   conns=PL_CONNS) -> Formula:
    if max_depth == 0 or rnd.random() < 0.25:
        return Atom(rnd.choice(atoms))
    c = rnd.choice(conns)
    if c in (Neg, Box, Dia):
        return c(random_formula(rnd, max_depth - 1, atoms, conns))
    return c(random_formula(rnd, max_depth - 1, atoms, conns),
             random_formula(rnd, max_depth - 1, atoms, conns))


def shift_atoms(f: Formula, offset: int) -> Formula:
    if offset == 0:
        return f
    return map_formula(f, lambda g: Atom(g.index + offset) if isinstance(g, Atom) else g)


def random_prop_model(rnd: random.Random, max_worlds=2, atoms=(0, 1)) -> KripkeModel:
    n = rnd.randint(1, max_worlds)
    worlds = tuple(f"w{i+1}" for i in range(n))
    leq = rnd.choice(_preorders(worlds))
    ups = _up_sets(worlds, leq)
    val_pos = {a: rnd.choice(ups) for a in atoms}
    val_neg = {a: rnd.choice(ups) for a in atoms}
    return KripkeModel(Kind.PROP, worlds, leq, None, val_pos, val_neg)


def random_modal_model(rnd: random.Random, max_worlds=2, atoms=(0, 1)) -> KripkeModel:
    while True:
        base = random_prop_model(rnd, max_worlds, atoms)
        worlds = sorted(base.worlds)
        pairs = [(a, b) for a in worlds for b in worlds]
        rel = frozenset(p for p in pairs if rnd.random() < 0.4)
        if not any(_fs_violations(base.worlds, base.leq, rel)):
            return KripkeModel(Kind.MODAL, base.worlds, base.leq, rel,
                               base.val_pos, base.val_neg)


def random_cond_model(rnd: random.Random, max_worlds=2, atoms=(0, 1),
                      max_indices=2) -> KripkeModel:
    while True:
        base = random_prop_model(rnd, max_worlds, atoms)
        worlds = sorted(base.worlds)
        ups = _up_sets(base.worlds, base.leq)
        pairs = [(a, b) for a in worlds for b in worlds]
        access = {}
        ok = True
        for _ in range(rnd.randint(0, max_indices)):
            idx = BiSet(rnd.choice(ups), rnd.choice(ups))
            rel = frozenset(p for p in pairs if rnd.random() < 0.4)
            if not rel:
                continue
            if any(_fs_violations(base.worlds, base.leq, rel)):
                ok = False
                break
            access[idx] = access.get(idx, frozenset()) | rel
        if ok:
            return KripkeModel(Kind.COND, base.worlds, base.leq, access,
                               base.val_pos, base.val_neg)


def ref_sat(m: KripkeModel, w: str, f: Formula, sign: str) -> bool:
    """Whether f is verified ('+') or falsified ('-') at w, clause by clause
    from the definition over frozensets, with no caching and no masks."""
    above = [v for v in sorted(m.worlds) if (w, v) in m.leq]
    match f:
        case Atom(i):
            return w in m.val(i, sign)
        case Neg(b):
            return ref_sat(m, w, b, "-" if sign == "+" else "+")
        case And(a, b):
            x, y = ref_sat(m, w, a, sign), ref_sat(m, w, b, sign)
            return (x and y) if sign == "+" else (x or y)
        case Or(a, b):
            x, y = ref_sat(m, w, a, sign), ref_sat(m, w, b, sign)
            return (x or y) if sign == "+" else (x and y)
        case Imp(a, b):
            return all(ref_sat(m, v, b, sign) for v in above if ref_sat(m, v, a, "+"))
        case Box(b):
            return all(ref_sat(m, x, b, sign) for v in above for (u, x) in m.access if u == v)
        case Dia(b):
            return any(ref_sat(m, x, b, sign) for (u, x) in m.access if u == w)
        case WouldTo(a, b) | MightTo(a, b):
            idx = BiSet(*(frozenset(v for v in m.worlds if ref_sat(m, v, a, s))
                          for s in "+-"))
            rel = m.access.get(idx, ())
            if type(f) is WouldTo:
                return all(ref_sat(m, x, b, sign) for v in above for (u, x) in rel if u == v)
            return any(ref_sat(m, x, b, sign) for (u, x) in rel if u == w)
    raise TypeError(f"not a formula: {f!r}")


def ref_refutes(m: KripkeModel, w: str, c: Consecution) -> bool:
    """Every gamma member and no delta member is verified at w."""
    return (all(ref_sat(m, w, g, "+") for g in c.gamma)
            and not any(ref_sat(m, w, d, "+") for d in c.delta))
