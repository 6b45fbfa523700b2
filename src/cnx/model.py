"""Finite bi-valuational Kripke models, frame-class validation, named
fixtures, and the line-oriented model file format.

A model stores two hereditary valuations (one for verification, one for
falsification) over a preordered world set, plus an accessibility component
whose shape depends on the kind: none (prop), a binary relation (modal), or
a map from bi-set indices to binary relations (cond).  Conditional access is
sparse: unlisted indices denote the empty relation.

The mask form (MaskModel) has one access shape for every kind, a map from
slot to relation: a modal model's relation is at the slot None (the paper
reads []A as anchor @> A, so the modal relation is a conditional one at a
slot every model holds), a conditional model's at the (pos, neg) masks of
each index, and a prop model has no slot.  masks_of and from_masks convert
between the two forms.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Iterator, NamedTuple

from .errors import ModelFormatError, StructuralError, UnknownFixture
from .record import Record
from .syntax import LanguageTag


class Kind(Enum):
    PROP = "prop"
    MODAL = "modal"
    COND = "cond"


# the formula languages each model kind can evaluate, and hence each logic and
# proof system over that kind admits
LANGUAGES: dict[Kind, frozenset[LanguageTag]] = {
    Kind.PROP: frozenset({LanguageTag.PL}),
    Kind.MODAL: frozenset({LanguageTag.PL, LanguageTag.MD}),
    Kind.COND: frozenset({LanguageTag.PL, LanguageTag.CN}),
}


class FrameClass(Enum):
    P = "P"
    FSM = "FSM"
    FSC = "FSC"
    FSC_R = "FSC_R"

    @property
    def kind(self) -> Kind:
        return _KINDS[self]


_KINDS = {FrameClass.P: Kind.PROP, FrameClass.FSM: Kind.MODAL,
          FrameClass.FSC: Kind.COND, FrameClass.FSC_R: Kind.COND}


class BiSet(Record):
    pos: frozenset[str]
    neg: frozenset[str]

    def __iter__(self):
        yield self.pos
        yield self.neg

    def swap(self) -> "BiSet":
        return BiSet(self.neg, self.pos)


def bi(pos, neg) -> BiSet:
    return BiSet(frozenset(pos), frozenset(neg))


class KripkeModel:
    """Immutable after construction; the mask form (masks_of) is cached on
    the instance.

    Construction checks structure only (every referenced id resolves into the
    world set); preorder axioms, valuation heredity and frame conditions are
    the business of validate_model.
    """

    def __init__(self, kind, worlds, leq, access=None, val_pos=None, val_neg=None):
        self.kind = kind
        self.worlds = frozenset(worlds)
        self.leq = frozenset(tuple(p) for p in leq)
        self.val_pos = {a: frozenset(ws) for a, ws in (val_pos or {}).items()}
        self.val_neg = {a: frozenset(ws) for a, ws in (val_neg or {}).items()}

        if not self.worlds:
            raise StructuralError("a model needs at least one world")
        for w in self.worlds:
            # the model file format reads whitespace, '#', '/' and ';' as syntax
            if not w or any(ch.isspace() or ch in "#/;" for ch in w):
                raise StructuralError(f"bad world id {w!r}")
        for (w, v) in self.leq:
            if w not in self.worlds or v not in self.worlds:
                raise StructuralError(f"leq pair ({w},{v}) mentions unknown world")
        for val in (self.val_pos, self.val_neg):
            for a, ws in val.items():
                if not ws <= self.worlds:
                    raise StructuralError(f"valuation of p{a} mentions unknown world")

        if kind == Kind.PROP:
            if access:
                raise StructuralError("prop models carry no accessibility relation")
            self.access = None
        elif kind == Kind.MODAL:
            self.access = frozenset(tuple(p) for p in (access or ()))
            for (w, v) in self.access:
                if w not in self.worlds or v not in self.worlds:
                    raise StructuralError(f"r pair ({w},{v}) mentions unknown world")
        elif kind == Kind.COND:
            acc = {}
            for idx, pairs in (access or {}).items():
                idx = BiSet(frozenset(idx.pos), frozenset(idx.neg))
                if not (idx.pos <= self.worlds and idx.neg <= self.worlds):
                    raise StructuralError("index bi-set mentions unknown world")
                ps = frozenset(tuple(p) for p in pairs)
                for (w, v) in ps:
                    if w not in self.worlds or v not in self.worlds:
                        raise StructuralError(f"r triple ({w},...,{v}) mentions unknown world")
                if ps:
                    acc[idx] = ps
            self.access = acc
        else:
            raise StructuralError(f"unknown model kind {kind!r}")

        # absent atom == empty valuation; keep one canonical representation
        self.val_pos = {a: ws for a, ws in self.val_pos.items() if ws}
        self.val_neg = {a: ws for a, ws in self.val_neg.items() if ws}
        self._masks = None

    # -- small accessors -----------------------------------------------------
    def up(self, w: str) -> frozenset[str]:
        """Worlds v with w <= v (as listed; validation guarantees w is included)."""
        mm = masks_of(self)
        return world_set(mm.names, mm.up[mm.names.index(w)])

    def val(self, atom: int, sign: str) -> frozenset[str]:
        table = self.val_pos if sign == "+" else self.val_neg
        return table.get(atom, frozenset())

    def atoms(self) -> frozenset[int]:
        return frozenset(self.val_pos) | frozenset(self.val_neg)

    def __repr__(self):
        return f"<KripkeModel {self.kind.value} |W|={len(self.worlds)}>"


class PointedModel(Record):
    model: KripkeModel
    point: str

    def __post_init__(self):
        if self.point not in self.model.worlds:
            raise StructuralError(f"point {self.point!r} not a world of the model")


# ---------------------------------------------------------------------------
# mask form: world sets as ints, bit i standing for the i-th world in sorted
# order (the order refuting points are scanned in)

class Rel(NamedTuple):
    """A binary relation as per-world successor masks."""
    succ: tuple[int, ...]      # the successors of each world
    up_image: tuple[int, ...]  # the successors of the worlds above each world


class MaskModel(NamedTuple):
    """A model with every world set encoded as an int.  Valuations list only
    nonempty masks.  access maps each slot the model holds to its relation:
    the slot None to a modal model's relation (always held), and the (pos,
    neg) masks of a conditional index to the relation there (only nonempty
    ones are listed; an unlisted index has the empty relation).  A prop
    model holds no slot."""
    names: tuple[str, ...]     # the sorted worlds
    up: tuple[int, ...]        # the worlds above each world
    val_pos: dict[int, int]
    val_neg: dict[int, int]
    access: dict[tuple[int, int] | None, Rel]


def world_bits(names) -> dict[str, int]:
    """Each world's bit; names must be in sorted order."""
    return {w: 1 << i for i, w in enumerate(names)}


def to_mask(bit: dict[str, int], ws) -> int:
    return sum(bit[w] for w in ws)


@lru_cache(maxsize=4096)
def world_set(names: tuple[str, ...], mask: int) -> frozenset[str]:
    return frozenset(w for i, w in enumerate(names) if mask >> i & 1)


@lru_cache(maxsize=4096)
def _bi_index(names: tuple[str, ...], pos: int, neg: int) -> BiSet:
    return BiSet(world_set(names, pos), world_set(names, neg))


@lru_cache(maxsize=4096)
def _pair_set(names: tuple[str, ...], succ: tuple[int, ...]) -> frozenset[tuple[str, str]]:
    return frozenset((names[i], v) for i, s in enumerate(succ) for v in world_set(names, s))


def _bits(x: int) -> Iterator[int]:
    """The indices of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _image(masks, x: int) -> int:
    """The union of masks[i] over the set bits i of x."""
    out = 0
    for i in _bits(x):
        out |= masks[i]
    return out


def relation(up: tuple[int, ...], succ: tuple[int, ...]) -> Rel:
    """The relation with the given successor masks, over the frame whose
    worlds above each world are up."""
    images = []
    for above in up:
        image = 0
        for w, s in enumerate(succ):
            if above >> w & 1:
                image |= s
        images.append(image)
    return Rel(succ, tuple(images))


def succ_masks(bit: dict[str, int], pairs) -> tuple[int, ...]:
    """A relation, given as pairs of worlds, as per-world successor masks."""
    succ = dict.fromkeys(bit, 0)
    for (u, v) in pairs:
        succ[u] |= bit[v]
    return tuple(succ.values())


def masks_of(m: KripkeModel) -> MaskModel:
    """The mask form of m, computed once and cached on m."""
    if m._masks is None:
        names = tuple(sorted(m.worlds))
        bit = world_bits(names)
        up = succ_masks(bit, m.leq)
        slots = {None: m.access} if m.kind is Kind.MODAL else m.access or {}
        m._masks = MaskModel(names, up,
                             {a: to_mask(bit, ws) for a, ws in m.val_pos.items()},
                             {a: to_mask(bit, ws) for a, ws in m.val_neg.items()},
                             {None if idx is None else tuple(to_mask(bit, ws) for ws in idx):
                              relation(up, succ_masks(bit, rel)) for idx, rel in slots.items()})
    return m._masks


def from_masks(kind: Kind, mm: MaskModel) -> KripkeModel:
    """The KripkeModel whose mask form is mm.  It is built without the
    structural checks of KripkeModel(), which a mask form passes by
    construction; its own mask form is left to be computed again."""
    names = mm.names
    m = object.__new__(KripkeModel)
    m.kind = kind
    m.worlds = world_set(names, (1 << len(names)) - 1)
    m.leq = _pair_set(names, mm.up)
    slots = {None if idx is None else _bi_index(names, *idx): _pair_set(names, r.succ)
             for idx, r in mm.access.items()}
    m.access = slots[None] if kind is Kind.MODAL else slots if kind is Kind.COND else None
    m.val_pos = {a: world_set(names, x) for a, x in mm.val_pos.items()}
    m.val_neg = {a: world_set(names, x) for a, x in mm.val_neg.items()}
    m._masks = None
    return m


# ---------------------------------------------------------------------------
# frame-class validation

class Violation(Record):
    code: str
    message: str

    def __str__(self):
        return f"{self.code}: {self.message}"


class ValidationReport(Record):
    ok: bool
    violations: tuple[Violation, ...] = ()


# The frame conditions, on the mask form only: up[i] is the mask of the
# worlds above world i (as listed, so that non-preorders can be reported).
# Each generator yields the world indices of its faults in ascending order.

def transitivity_faults(up: tuple[int, ...]) -> Iterator[tuple[int, int, int]]:
    """Each (u, v, w) with u <= v and v <= w but not u <= w."""
    for u, above in enumerate(up):
        for v in _bits(above):
            for w in _bits(up[v] & ~above):
                yield u, v, w


def closure_faults(up: tuple[int, ...], s: int) -> Iterator[tuple[int, int]]:
    """Each (u, v) with u in the set s and u <= v, but v not in s."""
    for u in _bits(s):
        for v in _bits(up[u] & ~s):
            yield u, v


def up_closed(up: tuple[int, ...]) -> list[int]:
    """The masks of the up-closed sets, ascending.  With no world above
    another that is every set."""
    return [s for s in range(1 << len(up)) if not any(closure_faults(up, s))]


def fs_faults(up: tuple[int, ...], rel: Rel) -> Iterator[tuple[str, int, int, int]]:
    """The Fischer-Servi completion faults of rel: first each ("c1", w, w2, v)
    with w <= w2 and w R v but no v2 with w2 R v2 and v <= v2, then each
    ("c2", w, v, v2) with w R v and v <= v2 but no w2 with w <= w2 and
    w2 R v2."""
    succ, image = rel
    for w, s in enumerate(succ):
        if s:
            for w2 in _bits(up[w]):
                for v in _bits(s):
                    if not succ[w2] & up[v]:
                        yield "c1", w, w2, v
    for w, s in enumerate(succ):
        for v in _bits(s):
            for v2 in _bits(up[v] & ~image[w]):
                yield "c2", w, v, v2


def target_faults(rel: Rel, pos: int) -> Iterator[tuple[int, int]]:
    """Each (w, v) with w R v and v outside pos: FSC_R's condition on the
    relation at an index whose positive component is pos."""
    for w, s in enumerate(rel.succ):
        for v in _bits(s & ~pos):
            yield w, v


def _up_sets(worlds, leq) -> list[frozenset]:
    """The leq-up-closed subsets of worlds, in bitmask order over the sorted
    worlds.  With an empty leq that is every subset."""
    names = tuple(sorted(worlds))
    return [world_set(names, s) for s in up_closed(succ_masks(world_bits(names), leq))]


def _show(names: tuple[str, ...], mask: int) -> str:
    return "{" + ", ".join(repr(names[i]) for i in _bits(mask)) + "}"


def validate_model(m: KripkeModel, cls: FrameClass) -> ValidationReport:
    """Check kind/class pairing, preorder axioms, valuation heredity, and the
    per-relation Fischer-Servi conditions (plus the reflexivity-of-@>
    condition for FSC_R), on the mask form.  Violations name their
    witnesses, in world order; conditional indices come in (pos, neg) mask
    order."""
    if m.kind is not cls.kind:
        return ValidationReport(False, (Violation(
            "kind-mismatch", f"model kind {m.kind.value} does not pair with class {cls.value}"),))

    out = []
    mm = masks_of(m)
    names, up = mm.names, mm.up
    for i, w in enumerate(names):
        if not up[i] >> i & 1:
            out.append(Violation("not-reflexive", f"missing {w}<={w}"))
    for u, v, w in transitivity_faults(up):
        a, b, d = names[u], names[v], names[w]
        out.append(Violation("not-transitive", f"{a}<={b} and {b}<={d} but not {a}<={d}"))

    for sign, table in (("+", mm.val_pos), ("-", mm.val_neg)):
        for atom in sorted(table):
            for u, v in closure_faults(up, table[atom]):
                out.append(Violation("heredity", f"val{sign} p{atom} holds at {names[u]} "
                                                 f"but not at {names[v]}>={names[u]}"))

    for idx, rel in sorted(mm.access.items()):  # a modal model's one slot, None, has no tag
        tag = "" if idx is None else f"index ({_show(names, idx[0])},{_show(names, idx[1])}): "
        for code, x, y, z in fs_faults(up, rel):
            a, b, c = names[x], names[y], names[z]
            pair = f"{a}<={b} and r({a},{c})" if code == "c1" else f"r({a},{b}) and {b}<={c}"
            out.append(Violation(code, f"{tag}no completion for {pair}"))
        if cls is FrameClass.FSC_R:
            for w, v in target_faults(rel, idx[0]):
                out.append(Violation(
                    "refl-target", f"{tag}target {names[v]} of r({names[w]},{names[v]}) "
                                   "outside the positive index component"))
    return ValidationReport(not out, tuple(out))


def close_valuations(m: KripkeModel) -> KripkeModel:
    """Upward-close both valuations along the reachability of leq."""
    mm = masks_of(m)
    reach = [u | 1 << i for i, u in enumerate(mm.up)]
    for k in range(len(reach)):  # Warshall's transitive closure
        for i, r in enumerate(reach):
            if r >> k & 1:
                reach[i] = r | reach[k]

    def closed(table):
        return {a: world_set(mm.names, _image(reach, x)) for a, x in table.items()}

    return KripkeModel(m.kind, m.worlds, m.leq, m.access,
                       closed(mm.val_pos), closed(mm.val_neg))


# ---------------------------------------------------------------------------
# fixtures (p -> atom 0, q -> atom 1; "all other atoms empty on both signs")

_TRIV_ATOMS = range(8)


def _fixtures() -> dict[str, PointedModel]:
    W0 = {"w"}
    refl0 = {("w", "w")}
    m0_vals = dict(val_pos={0: W0, 1: W0}, val_neg={0: set(), 1: W0})
    f = {}

    f["M0"] = KripkeModel(Kind.PROP, W0, refl0, **m0_vals)

    W1 = {"w", "v"}
    leq1 = {("w", "w"), ("v", "v"), ("w", "v")}
    m1_vals = dict(val_pos={0: W1, 1: {"v"}}, val_neg={0: {"v"}, 1: set()})
    f["M1"] = KripkeModel(Kind.PROP, W1, leq1, **m1_vals)

    f["triv"] = KripkeModel(Kind.PROP, W0, refl0,
                            val_pos={a: W0 for a in _TRIV_ATOMS},
                            val_neg={a: W0 for a in _TRIV_ATOMS})

    f["M0m"] = KripkeModel(Kind.MODAL, W0, refl0, access={("w", "w")}, **m0_vals)
    f["M1m"] = KripkeModel(Kind.MODAL, W1, leq1,
                           access={("w", "w"), ("v", "v")}, **m1_vals)
    f["trivm"] = KripkeModel(Kind.MODAL, W0, refl0, access={("w", "w")},
                             val_pos={a: W0 for a in _TRIV_ATOMS},
                             val_neg={a: W0 for a in _TRIV_ATOMS})

    rr = frozenset({("w", "w")})
    f["M0c"] = KripkeModel(Kind.COND, W0, refl0,
                           access={bi(W0, ()): rr, bi(W0, W0): rr}, **m0_vals)
    f["M0c1"] = KripkeModel(Kind.COND, W0, refl0,
                            access={bi(W0, ()): rr, bi((), W0): rr}, **m0_vals)
    rr1 = frozenset({("w", "w"), ("v", "v")})
    f["M1c"] = KripkeModel(Kind.COND, W1, leq1,
                           access={bi(W1, W1): rr1}, **m1_vals)
    f["M2"] = KripkeModel(Kind.COND, W0, refl0, access={bi((), ()): rr})
    f["trivc"] = KripkeModel(Kind.COND, W0, refl0, access={bi(W0, W0): rr},
                             val_pos={a: W0 for a in _TRIV_ATOMS},
                             val_neg={a: W0 for a in _TRIV_ATOMS})

    return {name: PointedModel(m, "w") for name, m in f.items()}


_FIXTURES = None

FIXTURE_NAMES = ("M0", "M0m", "M0c", "M0c1", "M1", "M1m", "M1c", "M2",
                 "triv", "trivm", "trivc")

FIXTURE_CLASS = {
    "M0": FrameClass.P, "M1": FrameClass.P, "triv": FrameClass.P,
    "M0m": FrameClass.FSM, "M1m": FrameClass.FSM, "trivm": FrameClass.FSM,
    "M0c": FrameClass.FSC, "M0c1": FrameClass.FSC, "M1c": FrameClass.FSC,
    "M2": FrameClass.FSC, "trivc": FrameClass.FSC,
}


def get_fixture(name: str) -> PointedModel:
    global _FIXTURES
    if _FIXTURES is None:
        _FIXTURES = _fixtures()
    try:
        return _FIXTURES[name]
    except KeyError:
        raise UnknownFixture(f"no fixture named {name!r}; "
                             f"known: {', '.join(FIXTURE_NAMES)}") from None


# ---------------------------------------------------------------------------
# model file format

def serialize_model(m: KripkeModel, point: str | None = None) -> str:
    """Line-oriented text form; reflexive leq pairs are left implicit."""
    lines = [f"kind {m.kind.value}"]
    for w in sorted(m.worlds):
        lines.append(f"world {w}")
    for (a, b) in sorted(m.leq):
        if a != b:
            lines.append(f"leq {a} {b}")
    if m.kind is Kind.MODAL:
        for (a, b) in sorted(m.access):
            lines.append(f"r {a} {b}")
    elif m.kind is Kind.COND:
        entries = []
        for idx in m.access:
            for (a, b) in m.access[idx]:
                entries.append((sorted(idx.pos), sorted(idx.neg), a, b))
        for xs, ys, a, b in sorted(entries):
            lines.append(f"r {a} / {' '.join(xs)} ; {' '.join(ys)} / {b}")
    for tag, table in (("val+", m.val_pos), ("val-", m.val_neg)):
        for atom in sorted(table):
            if table[atom]:
                lines.append(f"{tag} p{atom} {' '.join(sorted(table[atom]))}")
    if point is not None:
        lines.append(f"point {point}")
    return "\n".join(lines) + "\n"


def serialize_pointed(pm: PointedModel) -> str:
    return serialize_model(pm.model, pm.point)


def load_model(text: str) -> tuple[KripkeModel, str | None]:
    """Parse the model file format.  Implied reflexive leq pairs are added;
    transitivity is not implied (validate_model reports it)."""
    kind = None
    worlds: list[str] = []
    leq = set()
    modal_r = set()
    cond_r: dict[BiSet, set] = {}
    val_pos: dict[int, set] = {}
    val_neg: dict[int, set] = {}
    point = None
    first_r: dict[Kind, int] = {}  # the line of the first r line of each shape

    def atom_index(tok, ln):
        if not tok.startswith("p") or not (tok[1:].isascii() and tok[1:].isdigit()):
            raise ModelFormatError(f"line {ln}: bad atom {tok!r}")
        return int(tok[1:])

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0]
        if head == "kind":
            if len(parts) != 2 or parts[1] not in ("prop", "modal", "cond"):
                raise ModelFormatError(f"line {ln}: kind must be prop|modal|cond")
            if kind is not None:
                raise ModelFormatError(f"line {ln}: a second 'kind' line")
            kind = Kind(parts[1])
        elif head == "world":
            if len(parts) != 2:
                raise ModelFormatError(f"line {ln}: world takes one id")
            worlds.append(parts[1])
        elif head == "leq":
            if len(parts) != 3:
                raise ModelFormatError(f"line {ln}: leq takes two ids")
            leq.add((parts[1], parts[2]))
        elif head == "r":
            body = line[1:].strip()
            if "/" in body:
                pieces = [p.strip() for p in body.split("/")]
                if len(pieces) != 3 or ";" not in pieces[1]:
                    raise ModelFormatError(
                        f"line {ln}: cond r is 'r SRC / X ; Y / TGT'")
                src, mid, tgt = pieces
                xs_raw, ys_raw = (s.strip() for s in mid.split(";", 1))
                idx = bi(xs_raw.split(), ys_raw.split())
                cond_r.setdefault(idx, set()).add((src, tgt))
                first_r.setdefault(Kind.COND, ln)
            else:
                if len(parts) != 3:
                    raise ModelFormatError(f"line {ln}: modal r takes two ids")
                modal_r.add((parts[1], parts[2]))
                first_r.setdefault(Kind.MODAL, ln)
        elif head in ("val+", "val-"):
            if len(parts) < 2:
                raise ModelFormatError(f"line {ln}: {head} takes an atom")
            atom = atom_index(parts[1], ln)
            table = val_pos if head == "val+" else val_neg
            table.setdefault(atom, set()).update(parts[2:])
        elif head == "point":
            if len(parts) != 2:
                raise ModelFormatError(f"line {ln}: point takes one id")
            if point is not None:
                raise ModelFormatError(f"line {ln}: a second 'point' line")
            point = parts[1]
        else:
            raise ModelFormatError(f"line {ln}: unknown directive {head!r}")

    if kind is None:
        raise ModelFormatError("missing 'kind' line")
    # the kind line may come last, so r lines are matched to it here
    stray = min(((ln, shape) for shape, ln in first_r.items() if shape is not kind),
                default=None)
    if stray:
        ln, shape = stray
        raise ModelFormatError(f"line {ln}: {shape.value} r line in a {kind.value} model")
    leq |= {(w, w) for w in worlds}
    access = modal_r if kind is Kind.MODAL else (cond_r if kind is Kind.COND else None)
    model = KripkeModel(kind, worlds, leq, access, val_pos, val_neg)
    if point is not None and point not in model.worlds:
        raise StructuralError(f"point {point!r} is not a world")
    return model, point
