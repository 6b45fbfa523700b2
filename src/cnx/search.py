"""Bounded enumeration of frame-class models and countermodel search.

Enumeration is deterministic: world counts ascend, preorders by bitmask,
valuations by atom then bitmask, relations by bitmask; conditional indices
are pairs of up-closed world sets (only those can ever be consulted, since
bi-extensions are hereditary), at most max_cond_indices of them nonempty.
Exhausting the bounds is never a theoremhood claim.

Models are generated in mask form (model.MaskModel), frame by frame
(_frames): a preorder with its up-closed sets and, for every class but P,
its Fischer-Servi relations.  enumerate_models builds a KripkeModel for each
model; find_countermodel evaluates them with a program compiled once per
search and builds a KripkeModel only for the witness.

Frames are built by construction, not by filtering candidates, and kept in
per-process tables that every later search reads: each entry is built the
first time a search needs it (never at import) and is never changed.  The
preorders on n worlds come from those on n - 1 by placing the new world
(McKay, "Isomorph-free exhaustive generation", 1998, generates by the same
augmentation), then sorted into bitmask order; their up-closed sets come
from the parent's.  A preorder's Fischer-Servi relations are built row by
row, each row drawn only from the masks the rows chosen so far allow.  The
tests hold the filters these replace, as the definition they must match.

find_countermodel walks each world count's preorders once per isomorphism
class (lex-leader symmetry breaking; Claessen and Soerensson, "New
techniques that improve MACE-style finite model finding", 2003).  It skips
the block of every preorder that some renaming of the worlds maps to a
smaller mask, since that renaming maps each model of the block to a model
of an earlier block: the valuations, the relations, the frame conditions
and the index count are all invariant under renaming.  A refuting model in
a skipped block therefore has a refuting copy in an earlier block, so the
first refuting model of the full enumeration lies in a kept block, where
the other skips keep it: neither the witness nor an exhausted verdict
changes.  enumerate_models still yields every block.

find_countermodel evaluates the models of a kept frame many at once
(bit-slicing; Biham, "A fast new DES implementation in software", 1997;
Knuth, TAOCP 4A, 7.1.3), in passes of at most CHUNK_BITS models (fewer for
a program of more than 1024 nodes), in one loop (_first_hit).  Bit b of a
pass is its b-th model in the enumeration's order, so the first set bit is
the first refuting model, its position the count of models evaluated
before it, and its point the first world whose slice has it.  A model is
a valuation and relations assigned to slots, the keys of MaskModel.access,
which _slots lists for every class (_mask_models and the search read it):
FSM's one slot, None, always holds one of the frame's relations (so [] is
@> at an index every model holds, and the evaluators read it so), P has
none, and a conditional model holds a relation at some of the frame's
indices.  _passes lays out every pass: a valuation's models, fewest slots
first, in the orders of itertools.combinations and, for their relations,
itertools.product, repeated over the valuations of the last k atoms, which
vary inside a pass while the first are constant.  A query without a
conditional is searched on the models without indices only (P's models, in
a conditional class, which evaluate it as the models with indices do), k
as large as a pass allows, a range of the relations a pass.  A query with
a conditional has k = 0, a contiguous range of a valuation's models a
pass.  A model consults one index per conditional antecedent, and the frame
conditions hold per index, so dropping the indices no antecedent consults
leaves a model of the class, earlier in its valuation's block, that refutes
the query where it did.  So the first hit and an exhausted verdict are
those of the full enumeration at a cap of A indices, A the query's distinct
antecedents (the default), and, when every antecedent is propositional,
with only the indices equal to their bi-extensions under the valuation.
"""

from __future__ import annotations

import math
import time
from enum import Enum
from functools import lru_cache, reduce
from itertools import combinations, permutations, product
from operator import or_
from typing import Iterator

from .errors import EvidenceError
from .logics import Logic
from .model import (FrameClass, Kind, KripkeModel, MaskModel, PointedModel, Rel,
                    from_masks, masks_of, relation, target_faults, validate_model)
from .record import Record
from .semantics import (_ATOM, Consecution, Program, _run, check_consecution,
                        consecution_program, satisfying_slices, satisfying_worlds)


# find_countermodel runs a query on at most this many models at once, and a
# program of more than 1024 nodes on fewer: each node keeps a slice per world
# and sign, so a pass holds at most 1024 * CHUNK_BITS bits per world and sign
CHUNK_BITS = 1 << 16


class SearchBounds(Record):
    max_worlds: int
    atoms: tuple[int, ...] | None = None  # None: the query's atoms
    max_cond_indices: int | None = None  # None: as many as the query consults
    time_limit: float | None = None

    def __post_init__(self):
        if self.max_worlds < 1:
            raise ValueError("max_worlds must be at least 1")
        if self.atoms is not None and (len(set(self.atoms)) < len(self.atoms)
                                       or any(a < 0 for a in self.atoms)):
            raise ValueError("atoms must be distinct and not negative")
        if self.max_cond_indices is not None and self.max_cond_indices < 0:
            raise ValueError("max_cond_indices must not be negative")
        # a NaN deadline is never passed, so nan would mean "no limit"
        if self.time_limit is not None and not 0 < self.time_limit < math.inf:
            raise ValueError("time_limit must be positive and finite")


class Status(Enum):
    FOUND = "found"
    EXHAUSTED = "exhausted-bounds"
    TIMED_OUT = "timed-out"


class SearchOutcome(Record):
    status: Status
    witness: PointedModel | None = None
    models: int = 0  # the models evaluated

    @property
    def found(self) -> bool:
        return self.status is Status.FOUND


# ---------------------------------------------------------------------------
# frame construction

def _world_names(n: int) -> tuple[str, ...]:
    return tuple(f"w{i + 1}" for i in range(n))


# Per-process tables of frames, each entry built on first use (never at
# import) and never changed after; a build that times out stores nothing.
# _PREORDERS[n, False] holds every preorder on n worlds, _PREORDERS[n, True]
# those least in their orbits, each as (mask, up, the up-closed masks) and
# ascending by mask (bit i*n + j holding (w<i+1>, w<j+1>)); _RELATIONS[up]
# holds the Fischer-Servi relations over the preorder up.
_PREORDERS: dict[tuple[int, bool], tuple] = {(0, False): ((0, (), (0,)),)}
_RELATIONS: dict[tuple[int, ...], tuple[Rel, ...]] = {}


def _preorders(n: int, least_only: bool, deadline: float | None) -> tuple:
    """The preorders on n worlds of _PREORDERS[n, least_only].  Each
    preorder extends exactly one on n - 1 worlds: the new world, the last,
    goes above a down-closed set D and below an up-closed set U, every
    member of D below every member of U, which is all transitivity asks.
    The old up-closed sets that miss D stay up-closed, and those that hold
    U are up-closed with the new world added.  A preorder is least in its
    orbit under the renamings of the worlds unless it renames one kept
    before it.  The deadline is checked before each preorder extended or
    kept.  (Plain loops: a cold process pays for each code object run.)"""
    key = (n, least_only)
    if key in _PREORDERS:
        return _PREORDERS[key]
    built, seen = [], set()  # seen: the masks of the preorders kept, and their renamings
    try:
        if least_only:
            moves = []  # each renaming, with the image of every row
            for p in permutations(range(n)):
                image = [0] * (1 << n)
                for row in range(1, 1 << n):
                    low = row & -row
                    image[row] = image[row ^ low] | 1 << p[low.bit_length() - 1]
                moves.append((p, image))
            for entry in _preorders(n, False, deadline):
                if entry[0] not in seen:
                    _check_deadline(deadline)
                    built.append(entry)
                    for p, image in moves:
                        mask = 0
                        for i, row in enumerate(entry[1]):
                            mask |= image[row] << p[i] * n
                        seen.add(mask)
        else:
            new = 1 << n - 1  # the new world's bit
            for _, up, ups in _preorders(n - 1, False, deadline):
                _check_deadline(deadline)
                for closed in ups:
                    below = new - 1 ^ closed  # D
                    meet, rows, mask = new - 1, [], 0  # meet: the worlds above all of D
                    for i, row in enumerate(up):
                        if below >> i & 1:
                            meet &= row
                            row |= new
                        rows.append(row)
                        mask |= row << i * n
                    missing = []  # the up-closed sets that miss D
                    for s in ups:
                        if not s & below:
                            missing.append(s)
                    for above in ups:  # U
                        if not above & ~meet:
                            sets = missing[:]
                            for s in ups:
                                if not above & ~s:
                                    sets.append(s | new)
                            built.append((mask | (above | new) << n * n - n, (*rows, above | new),
                                          tuple(sets)))
            built.sort()
    except MemoryError:  # the traceback keeps this frame: free the partial build first
        built = seen = None
        raise
    _PREORDERS[key] = built = tuple(built)
    return built


def _fs_relations(up: tuple[int, ...], deadline: float | None) -> tuple[Rel, ...]:
    """The Fischer-Servi relations over the preorder up (_RELATIONS[up]), in
    bitmask order: the successor rows are chosen from the last world's to the
    first, depth first, each in ascending order.  On masks, the conditions
    say of every world w: c1, that w's row lies in the worlds below some
    successor of each world above w; c2, that the worlds above w's
    successors are successors of some world above w.  Each is tested once
    the last row it reads is chosen, and c1 bounds the rows it can: only the
    submasks of the bound are tried.  The deadline is checked before each
    row is entered."""
    if up in _RELATIONS:
        return _RELATIONS[up]
    n, top = len(up), (1 << len(up)) - 1
    # of each row t, the worlds below some member and those above some member
    lower, upper = [0] * (top + 1), [0] * (top + 1)
    for t in range(1, top + 1):
        low = t & -t
        w = low.bit_length() - 1
        down = 0  # the worlds below w
        for v in range(n):
            if up[v] >> w & 1:
                down |= 1 << v
        lower[t], upper[t] = lower[t ^ low] | down, upper[t ^ low] | up[w]
    # what row w is tested against once chosen: the later rows above it,
    # which bound it (c1); the later rows below it (c1); and each world whose
    # first world above is w, with the worlds above it (c2)
    tests = []
    for w in range(n):
        over, under, close = [], [], []
        for x in range(w + 1, n):
            if up[w] >> x & 1:
                over.append(x)
            if up[x] >> w & 1:
                under.append(x)
        for x in range(w, n):
            if up[x] & -up[x] == 1 << w:
                above = []
                for y in range(w, n):
                    if up[x] >> y & 1:
                        above.append(y)
                close.append((x, above))
        tests.append((over, under, close))
    succ, bounds, rels = [0] * n, [top] * n, []
    w = n - 1
    _check_deadline(deadline)
    while True:
        over, under, close = tests[w]
        s = succ[w]
        for x in under:
            if succ[x] & ~lower[s]:
                break
        else:
            for x, above in close:
                image = 0
                for y in above:
                    image |= succ[y]
                if upper[succ[x]] & ~image:
                    break
            else:
                if not w:
                    rels.append(relation(up, tuple(succ)))
                else:  # enter the row below, at its first submask, 0
                    _check_deadline(deadline)
                    w -= 1
                    bound = top
                    for x in tests[w][0]:
                        bound &= lower[succ[x]]
                    bounds[w], succ[w] = bound, 0
                    continue
        while succ[w] == bounds[w]:  # the row's last submask: back up
            w += 1
            if w == n:
                _RELATIONS[up] = built = tuple(rels)
                return built
        succ[w] = (succ[w] - bounds[w]) & bounds[w]


def _valuations(atoms, up_sets) -> Iterator[tuple[dict, dict]]:
    """Every valuation of the atoms by up-set masks, as (val_pos, val_neg)
    listing only nonempty masks; atom by atom, each in bitmask order."""
    per_atom = list(product(up_sets, up_sets))
    for combo in product(per_atom, repeat=len(atoms)):
        yield ({a: p for a, (p, _) in zip(atoms, combo) if p},
               {a: n for a, (_, n) in zip(atoms, combo) if n})


def _digits(v: int, base: int, count: int) -> list[tuple[int, int]]:
    """The positions among the base up-sets of the (positive, negative) set
    of each of count atoms under the v-th valuation of _valuations."""
    out = []
    for _ in range(count):
        v, pair = divmod(v, base * base)
        out.append(divmod(pair, base))
    return out[::-1]


def _valuation(atoms, ups, digits) -> tuple[dict, dict]:
    """The (val_pos, val_neg) of the atoms at digits (of _digits) in ups."""
    return ({a: ups[p] for a, (p, _) in zip(atoms, digits) if ups[p]},
            {a: ups[q] for a, (_, q) in zip(atoms, digits) if ups[q]})


def _repeat(block: int, period: int, length: int) -> int:
    """The length bits that repeat block, of period bits, by doubling (a
    product with a repunit costs period times as much)."""
    while period < length:
        block |= block << period
        period *= 2
    return block & ((1 << length) - 1) if period > length else block


def _inner_slices(ups: list[int], n: int, k: int,
                  reps: int = 1) -> list[tuple[list[int], list[int]]]:
    """The (pos, neg) per-world slices of the last k atoms over the first
    len(ups)**(2k) valuations of _valuations, which repeat with that period,
    each valuation's bit repeated reps times (bit v*reps + j stands for the
    v-th).  The last atom's negative set steps with every valuation and its
    positive set every len(ups) valuations; each atom before steps
    len(ups)**2 times slower than the next."""
    u, length = len(ups), len(ups) ** (2 * k) * reps
    member = ["".join("1" if s >> i & 1 else "0" for s in ups) for i in range(n)]
    runs = [u ** (2 * (k - 1 - q)) * reps for q in range(k)]
    return [([_runs(m, u * run, 0, length) for m in member],
             [_runs(m, run, 0, length) for m in member]) for run in runs]


def _relation_bits(rels: list[Rel]) -> list[tuple[tuple[int, int, int], str]]:
    """Per (field of Rel, world i, target t) that some of rels relate: the
    string whose r-th char is 1 iff rels[r] takes i to t in that field."""
    worlds = range(len(rels[0].succ))
    pairs = [((f, i, t), "".join("1" if rel[f][i] >> t & 1 else "0" for rel in rels))
             for f, i, t in product((0, 1), worlds, worlds)]
    return [(key, bits) for key, bits in pairs if "1" in bits]


@lru_cache(maxsize=256)
def _runs(bits: str, run: int, lo: int, hi: int) -> int:
    """Bits lo to hi - 1, as bits 0 to hi - lo - 1, of the sequence in which
    the chars of bits in turn, and then again, each fill a run of run bits."""
    period = run * len(bits)
    if period <= hi - lo:  # one period, then doubled
        block = int(bits[::-1], 2) if run == 1 else sum(
            ((1 << run) - 1) << m * run for m, c in enumerate(bits) if c == "1")
        start = lo % period
        return _repeat(block, period, start + hi - lo) >> start
    first, last = lo // run, (hi - 1) // run  # at most len(bits) + 1 runs
    return int("".join(bits[q % len(bits)] * (min(hi, q * run + run) - max(lo, q * run))
                       for q in range(last, first - 1, -1)), 2)


def _rows(n: int, masks: dict, width: int, reps: int) -> tuple:
    """The (up_image, succ) rows of masks of width bits keyed by (field of
    Rel, world, target), each mask repeated reps times."""
    return tuple(tuple(tuple((t, _repeat(masks[f, i, t], width, width * reps))
                             for t in range(n) if (f, i, t) in masks)
                       for i in range(n)) for f in (1, 0))


def _passes(lists: list[list[Rel]], ks: range | tuple[int, ...], most: int, reps: int,
            bits: dict, deadline: float | None, made: dict) -> Iterator[tuple]:
    """A valuation's models, lists holding the relations each slot may take,
    holding k slots for each k of ks in turn, in passes of at most most
    models: (width, pieces, rows), bit v*width + o standing for the o-th
    model under the v-th of reps inner valuations.  A piece (chosen,
    strides, a, b, at) puts the models a to b - 1 of a combination's block
    at o = at onwards; its o-th model gives each chosen j the
    (o // stride % len(lists[j]))-th of lists[j].  rows holds each slot's
    rows, () if no model holds it, built from bits (_relation_bits by the
    list's id, filled on first use), checking the deadline before each
    piece.  made keeps, by the lists' ids, the pass of a valuation whose
    models fit in one, which the frame's other valuations reuse."""
    if (key := tuple(map(id, lists))) in made:
        yield made[key]
        return

    def cut(width: int, pieces: list) -> tuple:
        masks: dict[int, dict] = {}
        for chosen, strides, a, b, at in pieces:
            _check_deadline(deadline)
            for j, stride in zip(chosen, strides):
                if id(lists[j]) not in bits:
                    bits[id(lists[j])] = _relation_bits(lists[j])
                cells = masks.setdefault(j, {})
                for cell, pattern in bits[id(lists[j])]:
                    cells[cell] = cells.get(cell, 0) | _runs(pattern, stride, a, b) << at
        return width, pieces, [_rows(len(lists[j][0].succ), masks[j], width, reps)
                               if j in masks else () for j in range(len(lists))]
    pieces, end = [], 0  # a pass ends at each multiple of most, a piece too
    for k in ks:
        for chosen in combinations(range(len(lists)), k):
            sizes = [len(lists[j]) for j in chosen]
            strides = [math.prod(sizes[q + 1:]) for q in range(k)]
            begin, end = end, end + math.prod(sizes)
            for a in [begin, *range(begin - begin % most + most, end, most)]:
                if pieces and not a % most:  # the pass is full, and a model follows
                    yield cut(most, pieces)
                    pieces = []
                pieces.append((chosen, strides, a - begin,
                               min(end, a - a % most + most) - begin, a % most))
    last = cut(end % most or most, pieces)
    yield made.setdefault(key, last) if end <= most else last


class _TimedOut(Exception):
    """The deadline of a search has passed."""


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise _TimedOut


def _frames(frame: FrameClass, max_worlds: int, least_only: bool,
            deadline: float | None = None) -> Iterator[tuple]:
    """The frames of the class on up to max_worlds worlds in enumeration
    order, as (names, up, the up-closed masks, the Fischer-Servi relations
    or None for P).  With least_only, only those whose preorder is least in
    its orbit under the renamings of the worlds.  The frames are read from
    the per-process tables, whose entries are built on first use: a world
    count's preorders at once, by extending those of the world count below,
    and a preorder's relations when its frame is first reached.  A build
    checks the deadline as it goes (see _preorders and _fs_relations)."""
    for n in range(1, max_worlds + 1):
        # below 10 worlds the names sort in world order, and the tables
        # cannot reach 10: they would first hold the 63,260,289,423
        # preorders on 9 (OEIS A000798)
        names = _world_names(n)
        for _, up, ups in _preorders(n, least_only, deadline):
            yield names, up, ups, None if frame is FrameClass.P else _fs_relations(up, deadline)


def _slots(frame: FrameClass, ups: list[int], rels: tuple[Rel, ...] | None,
           cap: int | None) -> tuple[dict, range | tuple[int, ...]]:
    """The slots a model of the class on a frame may hold, in enumeration
    order, each mapped to the relations it may take, and the counts of slots
    a model holds.  FSM's one slot, None, always holds one of the frame's
    relations, and P has none.  A conditional model holds at most cap (None:
    any number) of the frame's indices, each with a nonempty relation, for
    FSC_R only one with targets in the index's positive set."""
    if frame.kind is not Kind.COND:
        return ({None: rels}, (1,)) if rels else ({}, (0,))
    nonempty = [r for r in rels if any(r.succ)]
    fits = {x: nonempty if frame is FrameClass.FSC else
            [r for r in nonempty if not any(target_faults(r, x))] for x in ups}
    choices = {(x, y): fits[x] for x in ups for y in ups if fits[x]}
    return choices, range((len(choices) if cap is None else cap) + 1)


def _mask_models(frame: FrameClass, bounds: SearchBounds) -> Iterator[MaskModel]:
    """Every model of the class within the bounds, in mask form and in the
    fixed enumeration order; a cap of None allows every set of indices."""
    if bounds.atoms is None:
        raise ValueError("enumerating models needs explicit atoms in the bounds")
    atoms = tuple(sorted(bounds.atoms))
    for names, up, ups, rels in _frames(frame, bounds.max_worlds, False):
        choices, ks = _slots(frame, ups, rels, bounds.max_cond_indices)
        for vp, vn in _valuations(atoms, ups):
            for k in ks:
                for chosen in combinations(choices, k):
                    for picked in product(*(choices[slot] for slot in chosen)):
                        yield MaskModel(names, up, vp, vn, dict(zip(chosen, picked)))


def enumerate_models(frame: FrameClass, bounds: SearchBounds) -> Iterator[KripkeModel]:
    """Yield every model of the class within the bounds (conditional access
    restricted to up-closed indices), in a fixed deterministic order."""
    kind = frame.kind
    for mm in _mask_models(frame, bounds):
        m = from_masks(kind, mm)
        m._masks = mm  # what masks_of(m) would compute, so evaluation skips it
        yield m


# ---------------------------------------------------------------------------
# countermodel search

def _first_world(mm: MaskModel, worlds: int) -> str:
    return mm.names[(worlds & -worlds).bit_length() - 1]


def refuting_point(m: KripkeModel, c: Consecution) -> str | None:
    """The first world, in sorted order, at which m refutes c."""
    mm = masks_of(m)
    hits = satisfying_worlds(consecution_program(c, m.kind), mm)
    return _first_world(mm, hits) if hits else None


def check_evidence(frame: FrameClass, c: Consecution, evidence) -> None:
    """Re-check the evidence for a verdict on c, raising EvidenceError if it
    does not back the verdict.  A pointed model must pass validate_model for
    the frame class and refute c at its point.  A proof must have c's gamma as
    its hypotheses and some of c's delta as its goals, and be an entail proof,
    or a theorem proof when gamma is empty.  A rulederive proof does not back
    a consecution: it carries truth across a whole model, not at a world.
    The checks raise rather than assert, so they also run under python -O."""
    if isinstance(evidence, PointedModel):
        report = validate_model(evidence.model, frame)
        if not report.ok:
            raise EvidenceError(f"evidence model fails {frame.value} validation: "
                                f"{report.violations[0]}")
        if not check_consecution(evidence, c):
            raise EvidenceError("evidence model does not refute the instance")
    elif not (evidence.goals and set(evidence.hypotheses) == c.gamma
              and set(evidence.goals) <= c.delta
              and evidence.kind == ("entail" if c.gamma else "theorem")):
        raise EvidenceError(f"proof {evidence.name} does not prove the instance")


def _first_hit(frame: FrameClass, prog: Program, atoms: tuple[int, ...], cap: int,
               max_worlds: int, deadline: float | None, most: int):
    """The first refuting model and point (module docstring), with the
    models evaluated up to it: (status, mask model, point, models).  Per
    frame, _slots gives the slots a model may hold (choices) and how many
    (ks), and _passes lays out each valuation."""
    models = 0
    # the program of every antecedent, if any; without, FSM is searched as
    # itself and every other class as P
    head = prog.antecedents and prog._replace(nodes=prog.nodes[:max(prog.antecedents) + 1])
    shape = frame if head or frame is FrameClass.FSM else FrameClass.P
    try:
        for names, up, ups, rels in _frames(shape, max_worlds, True, deadline):
            n, u = len(up), len(ups)
            sides = [[x >> i & 1 for i in range(n)] for x in ups]  # each up-set per world
            choices, ks = _slots(shape, ups, rels, cap)
            k = 0  # the atoms that vary within a pass: the last k
            if not head:  # a valuation's models: every slot is held, each by any of its relations
                size = math.prod(map(len, choices.values()))
                k = len(atoms)
                while k and u ** (2 * k) * size > most:
                    k -= 1
            reps, outer = u ** (2 * k), atoms[:len(atoms) - k]
            inner = dict(zip(atoms[len(outer):], _inner_slices(ups, n, k, size))) if k else {}
            bits, made = {}, {}
            for hi in range(u ** (2 * len(outer))):
                digits = _digits(hi, u, len(outer))
                slots = list(choices)
                if head and prog.pl_antecedents:  # each antecedent then consults one index
                    val = _valuation(atoms, ups, digits)
                    vals = _run(head, MaskModel(names, up, *val, {}))
                    wanted = {vals[a] for a in prog.antecedents}
                    slots = [idx for idx in slots if idx in wanted]
                lists = [choices[idx] for idx in slots]
                for width, pieces, rows in _passes(lists, ks, most // reps, reps, bits,
                                                   deadline, made):
                    _check_deadline(deadline)
                    full = (1 << reps * width) - 1
                    # an outer atom is constant within the pass
                    slices = inner | {a: ([full * x for x in sides[p]],
                                          [full * x for x in sides[q]])
                                      for a, (p, q) in zip(outer, digits)}
                    access = {idx: r for idx, r in zip(slots, rows) if r}
                    out = satisfying_slices(prog, up, slices, full, access)
                    hits = reduce(or_, out)
                    if not hits:
                        models += reps * width
                        continue
                    b = (hits & -hits).bit_length() - 1
                    v, o = divmod(b, width)
                    chosen, strides, a, _, at = next(p for p in reversed(pieces) if p[4] <= o)
                    picked = {slots[j]: lists[j][(a + o - at) // stride % len(lists[j])]
                              for j, stride in zip(chosen, strides)}
                    val = _valuation(atoms, ups, _digits(hi * reps + v, u, len(atoms)))
                    mm = MaskModel(names, up, *val, picked)
                    point = next(i for i, x in enumerate(out) if x >> b & 1)
                    return Status.FOUND, mm, names[point], models + b + 1
    except _TimedOut:
        return Status.TIMED_OUT, None, None, models
    return Status.EXHAUSTED, None, None, models


def find_countermodel(logic: Logic, c: Consecution, bounds: SearchBounds) -> SearchOutcome:
    """Search for a pointed model of the logic's class that satisfies every
    gamma member and refutes every delta member, over the bounds' atoms
    (ValueError if they miss one of c's) or else c's, at the bounds' cap on
    indices or c's count of conditional antecedents, whichever is less.
    Found outcomes re-validate and re-check before being reported.  The
    witness is the first refuting model of the full enumeration, at its
    first refuting world; models counts the models up to it, or all of
    them, by their positions in the passes of _first_hit.  The deadline is
    checked while frames are built (before each preorder extended or kept
    and each relation row entered), before each pass and each piece of a
    pass's rows.  On a timeout, models counts those of the passes done.  A
    search out of memory empties the frame tables, then raises MemoryError."""
    for f in c.gamma | c.delta:
        logic.require(f)
    frame, kind = logic.frame_class, logic.frame_class.kind
    prog = consecution_program(c, kind)
    used = {a for op, a, _ in prog.nodes if op == _ATOM}
    if bounds.atoms is not None and not used <= set(bounds.atoms):
        raise ValueError(f"the search's atoms {bounds.atoms} miss some of the query's")
    cap = len(prog.antecedents)
    if bounds.max_cond_indices is not None:
        cap = min(cap, bounds.max_cond_indices)
    deadline = (time.monotonic() + bounds.time_limit
                if bounds.time_limit is not None else None)
    most = min(CHUNK_BITS, (CHUNK_BITS << 10) // max(1, len(prog.nodes)))
    failed = False
    try:
        status, mm, point, models = _first_hit(frame, prog, tuple(sorted(bounds.atoms or used)),
                                               cap, bounds.max_worlds, deadline, most)
    except MemoryError:  # only a flag: the traceback still holds the failed build
        failed = True
    if failed:  # the build is freed now; free the tables too, which may be most of it
        _RELATIONS.clear()
        for key in list(_PREORDERS)[1:]:  # all but the first, (0, False)
            del _PREORDERS[key]
        raise MemoryError("the search ran out of memory; lower its bounds or set a time limit")
    if status is not Status.FOUND:
        return SearchOutcome(status, None, models)
    # the model is decoded afresh, so the evidence re-check also covers the
    # mask form and the decoding of the valuation
    pm = PointedModel(from_masks(kind, mm), point)
    check_evidence(frame, c, pm)
    return SearchOutcome(Status.FOUND, pm, models)
