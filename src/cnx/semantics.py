"""The two satisfaction relations, bi-extensions, and consecution satisfaction.

Verification ('+') and falsification ('-') are computed together by one
bitset evaluator.  A formula or consecution is compiled once per model kind,
which is when its language is checked, into a program over its node table
(syntax.node_rows): one row per distinct subformula, children first
(formulas are interned, so equal subformulas are one row).  A run of the
program on a model's mask form (model.masks_of, where world sets are ints)
labels every row with its bi-extension as a (pos, neg) pair of masks, in one
loop.
Compiled programs are cached per (formula or consecution, kind) and the mask
form on the model; both are pure functions of their keys, so results are
independent of evaluation order and cache state.
"""

from __future__ import annotations

from functools import lru_cache
from operator import and_, or_
from typing import NamedTuple

from .errors import LanguageMismatch, UnknownWorld
from .model import (LANGUAGES, BiSet, Kind, KripkeModel, MaskModel, PointedModel, masks_of,
                    world_set)
from .record import Record
from .syntax import (AND, ATOM, BOX, DIA, IMP, NEG, OR, WOULD, Formula, LanguageTag,
                     language_of, node_rows)

SIGNS = ("+", "-")


class Consecution(Record):
    gamma: frozenset[Formula]
    delta: frozenset[Formula]


def consecution(gamma, delta) -> Consecution:
    return Consecution(frozenset(gamma), frozenset(delta))


# ---------------------------------------------------------------------------
# compilation

class Program(NamedTuple):
    """A consecution's node table (syntax.node_rows of its gamma members,
    then its delta members), the rows of its roots, and its conditional
    antecedents: what an evaluation of it runs."""
    nodes: tuple[tuple[int, int, int], ...]  # the node table: (code, a, b) rows
    gamma: tuple[int, ...]                   # the row of each gamma member
    delta: tuple[int, ...]                   # the row of each delta member
    antecedents: tuple[int, ...]             # the row of each @>/?> antecedent
    pl_antecedents: bool                     # every @>/?> antecedent is PL


def _compile(gamma: tuple, delta: tuple, kind: Kind) -> Program:
    row, nodes = node_rows(*gamma, *delta)
    for f in gamma + delta:
        tag = language_of(f)
        if tag not in LANGUAGES[kind]:
            raise LanguageMismatch(
                f"{tag.value} formula cannot be evaluated on a {kind.value} model")
    antecedents = {a: None for code, a, _ in nodes if code >= WOULD}
    formulas = [*row]
    return Program(nodes, tuple(map(row.get, gamma)), tuple(map(row.get, delta)),
                   tuple(antecedents), all(language_of(formulas[a]) is LanguageTag.PL
                                           for a in antecedents))


@lru_cache(maxsize=4096)
def _formula_program(f: Formula, kind: Kind) -> Program:
    """f compiled for models of the kind, as its program's one gamma root."""
    return _compile((f,), (), kind)


@lru_cache(maxsize=4096)
def consecution_program(c: Consecution, kind: Kind) -> Program:
    """c compiled for models of the kind; LanguageMismatch if a member of c
    cannot be evaluated on them."""
    return _compile(tuple(c.gamma), tuple(c.delta), kind)


# ---------------------------------------------------------------------------
# evaluation

def _every(targets: tuple[int, ...], bad_p: int, bad_n: int) -> tuple[int, int]:
    """The worlds none of whose targets is in bad_p, and those none of whose
    targets is in bad_n."""
    p = n = 0
    for i, t in enumerate(targets):
        if not t & bad_p:
            p |= 1 << i
        if not t & bad_n:
            n |= 1 << i
    return p, n


def _some(targets: tuple[int, ...], good_p: int, good_n: int) -> tuple[int, int]:
    """The worlds some of whose targets is in good_p, and those some of whose
    targets is in good_n."""
    p = n = 0
    for i, t in enumerate(targets):
        if t & good_p:
            p |= 1 << i
        if t & good_n:
            n |= 1 << i
    return p, n


def _run(prog: Program, mm: MaskModel) -> list[tuple[int, int]]:
    """The bi-extension of every node of prog on mm, as (pos, neg) masks."""
    up, vp, vn, acc = mm.up, mm.val_pos, mm.val_neg, mm.access
    full = (1 << len(up)) - 1
    vals: list[tuple[int, int]] = []
    push = vals.append
    for op, a, b in prog.nodes:
        if op == ATOM:
            r = (vp.get(a, 0), vn.get(a, 0))
        elif op == NEG:
            p, n = vals[a]
            r = (n, p)
        elif op == AND:
            (ap, an), (bp, bn) = vals[a], vals[b]
            r = (ap & bp, an | bn)
        elif op == OR:
            (ap, an), (bp, bn) = vals[a], vals[b]
            r = (ap | bp, an & bn)
        elif op == IMP:
            ap = vals[a][0]
            bp, bn = vals[b]
            r = _every(up, ap & ~bp, ap & ~bn)
        elif op == BOX or op == WOULD:  # [] reads the slot None, @> its antecedent's index
            rel, (p, n) = (acc.get(None), vals[a]) if op == BOX else (acc.get(vals[a]), vals[b])
            r = (full, full) if rel is None else _every(rel.up_image, ~p, ~n)
        else:
            rel, (p, n) = (acc.get(None), vals[a]) if op == DIA else (acc.get(vals[a]), vals[b])
            r = (0, 0) if rel is None else _some(rel.succ, p, n)
        push(r)
    return vals


@lru_cache(maxsize=4096)
def _plain_rows(masks: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per mask, a (target, -1) pair for each of its set bits, ascending."""
    return tuple(tuple((t, -1) for t in range(m.bit_length()) if m >> t & 1) for m in masks)


def _union(rows: tuple[tuple[tuple[int, int], ...], ...], slices: list[int]) -> list[int]:
    """Per world, the union of the slices of its targets, each cut to the
    mask paired with the target in the world's row."""
    out = []
    for row in rows:
        x = 0
        for t, m in row:
            x |= slices[t] & m
        out.append(x)
    return out


def _run_sliced(prog: Program, up: tuple[int, ...], slices: dict, full: int,
                access: dict) -> list[tuple[list[int], list[int]]]:
    """_run on one frame under many models at once.  A slice is an int whose
    bit b stands for the b-th model; full has a bit for each.  slices maps
    each atom to its (pos, neg) lists of per-world slices (an atom it does
    not list is empty).  Rows give, per world, (target, mask) pairs, the
    mask holding the models in which the target is in the world's up_image
    (the rows of [] and @>) or succ (of <> and ?>).  access maps each slot
    some model holds to the (up_image, succ) rows of the relation there (in
    which a model without the slot has no pair): the slot None is a modal
    frame's relation, and a conditional index (pos, neg) its relation.  A
    slot no model holds acts as the empty relation.  Bit b of a node's slice
    at world i is bit i of its _run on the b-th model."""
    above = _plain_rows(up)
    empty = [0] * len(up)
    vals: list[tuple[list[int], list[int]]] = []
    push = vals.append
    # per @>/?> antecedent, the rows of the relation each model consults
    # there: that of the index equal to the antecedent's bi-extension
    relations: dict[int, tuple] = {}
    nothing = (((),) * len(up),) * 2
    for op, a, b in prog.nodes:
        if op >= WOULD and a not in relations:
            ap, an = vals[a]
            picks = []  # per index: the models in which it is a's bi-extension, its rows
            for (x, y), rows in access.items():
                models = full
                for i, (p, n) in enumerate(zip(ap, an)):
                    models &= (p if x >> i & 1 else ~p) & (n if y >> i & 1 else ~n)
                if models:
                    picks.append((models, rows))
                    if models == full:  # so in no model is another index
                        break
            relations[a] = (picks[0][1] if picks[0][0] == full else tuple(
                [[(t, m & models) for models, rows in picks for t, m in rows[k][i]]
                 for i in range(len(up))] for k in (0, 1))) if picks else nothing
        if op == ATOM:
            r = slices.get(a) or (empty, empty)
        elif op == NEG:
            p, n = vals[a]
            r = (n, p)
        elif op == AND:
            (ap, an), (bp, bn) = vals[a], vals[b]
            r = (list(map(and_, ap, bp)), list(map(or_, an, bn)))
        elif op == OR:
            (ap, an), (bp, bn) = vals[a], vals[b]
            r = (list(map(or_, ap, bp)), list(map(and_, an, bn)))
        elif op == IMP:
            # no world above where the antecedent holds and the consequent
            # fails to be verified (to be falsified)
            ap = vals[a][0]
            bp, bn = vals[b]
            r = ([full ^ x for x in _union(above, [x & ~y for x, y in zip(ap, bp)])],
                 [full ^ x for x in _union(above, [x & ~y for x, y in zip(ap, bn)])])
        elif op == BOX or op == WOULD:
            (image, _), (p, n) = (access[None], vals[a]) if op == BOX else (relations[a], vals[b])
            r = ([full ^ x for x in _union(image, [full ^ y for y in p])],
                 [full ^ x for x in _union(image, [full ^ y for y in n])])
        else:
            (_, succ), (p, n) = (access[None], vals[a]) if op == DIA else (relations[a], vals[b])
            r = (_union(succ, p), _union(succ, n))
        push(r)
    return vals


def satisfying_slices(prog: Program, up: tuple[int, ...], slices: dict, full: int,
                      access: dict) -> list[int]:
    """satisfying_worlds under many models at once (see _run_sliced): per
    world, the models in which every gamma root and no delta root of prog is
    verified there."""
    vals = _run_sliced(prog, up, slices, full, access)
    out = [full] * len(up)
    for i in prog.gamma:
        out = list(map(and_, out, vals[i][0]))
    for i in prog.delta:
        out = [x & ~y for x, y in zip(out, vals[i][0])]
    return out


def satisfying_worlds(prog: Program, mm: MaskModel, sign: str = "+") -> int:
    """The worlds at which every gamma root and no delta root of prog is sign-satisfied."""
    vals = _run(prog, mm)
    k = SIGNS.index(sign)
    out = (1 << len(mm.up)) - 1
    for i in prog.gamma:
        out &= vals[i][k]
    for i in prog.delta:
        out &= ~vals[i][k]
    return out


def _check_sign(sign: str) -> None:
    if sign not in SIGNS:
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")


def _has(mm: MaskModel, worlds: int, w: str) -> bool:
    return bool(worlds >> mm.names.index(w) & 1)


def biextension(m: KripkeModel, f: Formula) -> BiSet:
    """The pair (worlds verifying f, worlds falsifying f)."""
    prog = _formula_program(f, m.kind)
    mm = masks_of(m)
    pos, neg = _run(prog, mm)[prog.gamma[0]]
    return BiSet(world_set(mm.names, pos), world_set(mm.names, neg))


def sat(m: KripkeModel, w: str, f: Formula, sign: str = "+") -> bool:
    """Whether f is verified ('+') or falsified ('-') at w."""
    if w not in m.worlds:
        raise UnknownWorld(f"{w!r} is not a world of the model")
    _check_sign(sign)
    mm = masks_of(m)
    return _has(mm, satisfying_worlds(_formula_program(f, m.kind), mm, sign), w)


def check_consecution(pm: PointedModel, c: Consecution) -> bool:
    """True iff every member of gamma and no member of delta is verified at
    the point."""
    m = pm.model
    mm = masks_of(m)
    return _has(mm, satisfying_worlds(consecution_program(c, m.kind), mm), pm.point)
