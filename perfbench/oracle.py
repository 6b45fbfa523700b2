"""A from-the-definition evaluator that re-checks the program's answers.

Formulas are nested tuples: ("p", i) for atom p_i, (op, a) for the prefix
operators ~ [] <>, and (op, a, b) for the binary ones, defined connectives
included.  Truth is computed point by point straight from the
verification (+) / falsification (-) clauses, with no caching, so it shares
nothing with the program's evaluator except the model it reads.
"""

from __future__ import annotations

from itertools import combinations, product

SUGAR = {
    "=>": lambda a, b: ("&", ("->", a, b), ("->", ("~", b), ("~", a))),
    "<->": lambda a, b: ("&", ("->", a, b), ("->", b, a)),
    "<=>": lambda a, b: ("&", ("=>", a, b), ("=>", b, a)),
    "#>": lambda a, b: ("[]", ("->", a, b)),
    "#=>": lambda a, b: ("[]", ("=>", a, b)),
    "@=>": lambda a, b: ("&", ("@>", a, b), ("@>", ("~", b), ("~", a))),
    "?=>": lambda a, b: ("&", ("?>", a, b), ("?>", ("~", b), ("~", a))),
}


class Model:
    """Worlds, the preorder as up-sets, both valuations, and the modal
    relation (`rel`) or the conditional relations keyed by (X, Y) bi-sets
    of worlds (`cond`)."""

    def __init__(self, worlds, leq, pos, neg, rel=(), cond=None):
        self.worlds = frozenset(worlds)
        self.up = {w: {v for (u, v) in leq if u == w} for w in self.worlds}
        self.pos = pos
        self.neg = neg
        self.rel = set(rel)
        self.cond = cond or {}

    @classmethod
    def of(cls, m) -> "Model":
        """Copy a cnx KripkeModel's fields."""
        kind = m.kind.value
        pos = {a: set(ws) for a, ws in m.val_pos.items()}
        neg = {a: set(ws) for a, ws in m.val_neg.items()}
        if kind == "modal":
            return cls(m.worlds, m.leq, pos, neg, rel=m.access)
        if kind == "cond":
            cond = {(frozenset(i.pos), frozenset(i.neg)): set(r)
                    for i, r in m.access.items()}
            return cls(m.worlds, m.leq, pos, neg, cond=cond)
        return cls(m.worlds, m.leq, pos, neg)


def holds(m: Model, w, f, plus: bool = True) -> bool:
    """w verifies f (plus) or falsifies it (not plus)."""
    op = f[0]
    if op == "p":
        return w in (m.pos if plus else m.neg).get(f[1], ())
    if op in SUGAR:
        return holds(m, w, SUGAR[op](f[1], f[2]), plus)
    if op == "~":
        return holds(m, w, f[1], not plus)
    if op == "&":
        if plus:
            return holds(m, w, f[1]) and holds(m, w, f[2])
        return holds(m, w, f[1], False) or holds(m, w, f[2], False)
    if op == "|":
        if plus:
            return holds(m, w, f[1]) or holds(m, w, f[2])
        return holds(m, w, f[1], False) and holds(m, w, f[2], False)
    if op == "->":
        # every v >= w verifying the antecedent verifies (falsifies) the consequent
        return all(holds(m, v, f[2], plus) for v in m.up[w] if holds(m, v, f[1]))
    if op == "[]":
        return all(holds(m, u, f[1], plus)
                   for v in m.up[w] for (x, u) in m.rel if x == v)
    if op == "<>":
        return any(holds(m, u, f[1], plus) for (x, u) in m.rel if x == w)
    if op in ("@>", "?>"):
        index = (frozenset(v for v in m.worlds if holds(m, v, f[1])),
                 frozenset(v for v in m.worlds if holds(m, v, f[1], False)))
        rel = m.cond.get(index, ())
        if op == "@>":
            return all(holds(m, u, f[2], plus)
                       for v in m.up[w] for (x, u) in rel if x == v)
        return any(holds(m, u, f[2], plus) for (x, u) in rel if x == w)
    raise ValueError(f"unknown operator {op!r}")


def refutes(m: Model, w, gamma, delta) -> bool:
    """w verifies every gamma member and no delta member."""
    return (all(holds(m, w, g) for g in gamma)
            and not any(holds(m, w, d) for d in delta))


def atoms(f) -> set[int]:
    if f[0] == "p":
        return {f[1]}
    return set().union(*(atoms(g) for g in f[1:]))


CLASS_OF = {"C": "P", "CnK": "FSM", "CnCK": "FSC", "CnCKR": "FSC_R"}


def one_world_models(logic: str, atom_set, max_indices: int):
    """Every one-world model of the logic's frame class over the atoms, with
    at most max_indices nonempty conditional relations: the space a search
    bounded at one world must cover.  At one world the preorder, heredity
    and the Fischer-Servi conditions hold trivially."""
    w = "w"
    worlds, leq = {w}, {(w, w)}
    atom_list = sorted(atom_set)
    subsets = (set(), {w})
    frame = CLASS_OF[logic]
    for vals in product(product(subsets, subsets), repeat=len(atom_list)):
        pos = {a: p for a, (p, _) in zip(atom_list, vals)}
        neg = {a: n for a, (_, n) in zip(atom_list, vals)}
        if frame == "P":
            yield Model(worlds, leq, pos, neg)
        elif frame == "FSM":
            for rel in ((), ((w, w),)):
                yield Model(worlds, leq, pos, neg, rel=rel)
        else:
            indices = [(frozenset(x), frozenset(y)) for x in subsets for y in subsets]
            if frame == "FSC_R":  # targets must verify the antecedent
                indices = [i for i in indices if w in i[0]]
            for k in range(max_indices + 1):
                for chosen in combinations(indices, k):
                    yield Model(worlds, leq, pos, neg,
                                cond={i: {(w, w)} for i in chosen})


def thesis(conn: str, name: str, a=("p", 0), b=("p", 1)):
    """(gamma, delta) of a connexive thesis for a connective, by definition:
    formula theses have an empty gamma."""
    def star(x, y):
        return (conn, x, y)
    return {
        "AT": ((), (("~", star(("~", a), a)),)),
        "BT": ((), (star(star(a, ("~", b)), ("~", star(a, b))),)),
        "CBT": ((), (star(("~", star(a, b)), star(a, ("~", b))),)),
        "nonSym": ((), (star(star(a, b), star(b, a)),)),
        "WBT": ((star(a, ("~", b)),), (("~", star(a, b)),)),
        "WCBT": ((("~", star(a, b)),), (star(a, ("~", b)),)),
        "WnonSym": ((star(a, b),), (star(b, a),)),
    }[name]
