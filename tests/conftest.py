"""Shared helpers: seeded random formulas and models for property tests."""

from __future__ import annotations

import random

from cnx.model import BiSet, Kind, KripkeModel, _fs_violations, _up_sets
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
