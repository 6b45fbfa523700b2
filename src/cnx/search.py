"""Bounded enumeration of frame-class models and countermodel search.

Enumeration is deterministic: world counts ascend, preorders by bitmask,
valuations by atom then bitmask, relations by bitmask; conditional indices
are restricted to pairs of up-closed world sets (only those can ever be
consulted, since bi-extensions are hereditary) with at most max_cond_indices
simultaneously nonempty.  Because of that restriction, exhausting the bounds
for a conditional class is weaker evidence than for P or FSM; it is never a
theoremhood claim in any case.

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

find_countermodel chooses its search by the query's program.  A program
without a conditional is evaluated under all the models of a kept frame at
once (bit-slicing; Biham, "A fast new DES implementation in software",
1997, and Knuth, TAOCP 4A, 7.1.3).  In a conditional class it evaluates
each model like the same model without indices, which comes earlier, so
only those are searched: P's models, in P's order.  Bit v*R + j of a slice
stands for the v-th valuation of _valuations under the j-th of the frame's
R relations (R = 1 without), the order of the enumeration: the first set
bit is the first refuting model, its position plus one the count of models
evaluated up to it, and its point the first world whose slice has it.  A
pass takes at most CHUNK_BITS models (fewer for a program of more than 1024
nodes): the first atoms' valuations one chunk at a time, each constant
within its chunk, and the relations of a valuation that has more a
contiguous range at a time, so each pass is a run of the enumeration.

A program with a conditional is evaluated one model at a time.  Per
valuation the index-free model comes first, then the combinations of
indices, fewest first, except those holding an index the query never
consults.  A conditional looks up only the index equal to its antecedent's
bi-extension; when every antecedent is propositional, those bi-extensions
are the antecedents' values in the index-free model, and only combinations
of them are tried.  A skipped model evaluates exactly like the same model
with its unconsulted indices dropped, which comes earlier, so the first hit
and an exhausted verdict are those of the full enumeration.

Within a combination, the relations are assigned depth first in the order
of itertools.product.  Before the loop over an index's relations, the
partial model (the indices not assigned yet mapped to semantics.UNKNOWN) is
bounded by semantics.refutable_worlds, a superset of the worlds at which
some completion refutes the query, and skipped when that is empty.  A
skipped model refutes nowhere, so only the count of models evaluated falls.
"""

from __future__ import annotations

import math
import time
from enum import Enum
from functools import reduce
from itertools import chain, combinations, permutations, product
from operator import or_
from typing import Iterator

from .errors import EvidenceError
from .logics import Logic
from .model import (FrameClass, Kind, KripkeModel, MaskModel, PointedModel, Rel,
                    from_masks, masks_of, relation, target_faults, validate_model)
from .record import Record
from .semantics import (UNKNOWN, Consecution, Program, _run, check_consecution,
                        consecution_program, refutable_worlds, satisfying_slices,
                        satisfying_worlds)


# find_countermodel runs a query without a conditional on at most this many
# models at once, and a program of more than 1024 nodes on fewer: each node
# keeps a slice per world and sign, so a pass holds at most 1024 * CHUNK_BITS
# bits per world and sign
CHUNK_BITS = 1 << 16


class SearchBounds(Record):
    max_worlds: int
    atoms: tuple[int, ...] = (0, 1)
    max_cond_indices: int = 2
    time_limit: float | None = None

    def __post_init__(self):
        if self.max_worlds < 1:
            raise ValueError("max_worlds must be at least 1")
        if self.max_cond_indices < 0:
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
    bounds: SearchBounds | None = None
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
    built = []
    if least_only:
        moves = []  # each renaming, with the image of every row
        for p in permutations(range(n)):
            image = [0] * (1 << n)
            for row in range(1, 1 << n):
                low = row & -row
                image[row] = image[row ^ low] | 1 << p[low.bit_length() - 1]
            moves.append((p, image))
        seen = set()
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


def _repeat(block: int, period: int, length: int) -> int:
    """The length bits that repeat block, of period bits, by doubling (a
    product with a repunit costs period times as much)."""
    while period < length:
        block |= block << period
        period *= 2
    return block & ((1 << length) - 1)


def _inner_slices(ups: list[int], n: int, k: int,
                  reps: int = 1) -> list[tuple[list[int], list[int]]]:
    """The (pos, neg) per-world slices of the last k atoms over the first
    len(ups)**(2k) valuations of _valuations, which repeat with that period,
    each valuation's bit repeated reps times (bit v*reps + j stands for the
    v-th).  The last atom's negative set steps with every valuation and its
    positive set every len(ups) valuations; each atom before steps
    len(ups)**2 times slower than the next."""
    u, length = len(ups), len(ups) ** (2 * k) * reps

    def pattern(world: int, run: int) -> int:  # bit b: world in ups[b // run % u]
        block = sum(((1 << run) - 1) << m * run for m, s in enumerate(ups) if s >> world & 1)
        return _repeat(block, run * u, length)
    runs = [u ** (2 * (k - 1 - q)) * reps for q in range(k)]
    return [([pattern(i, u * run) for i in range(n)], [pattern(i, run) for i in range(n)])
            for run in runs]


def _access_rows(rels: list[Rel], reps: int) -> tuple:
    """The rows of [] and of <> (see semantics._run_sliced) for reps
    valuations under each of rels, bit v*len(rels) + j standing for the v-th
    valuation under rels[j]: per world, each target with the mask of the
    models in which it is in the world's up_image (for []) or succ (<>)."""
    n, r = len(rels[0].succ), len(rels)
    rows = []
    for field in (1, 0):  # Rel.up_image, Rel.succ
        # bit j of a block: whether rels[j] takes world i to target t; read
        # from a string, as a sum of shifted bits would be quadratic in r
        masks = [[_repeat(int("".join(str(rel[field][i] >> t & 1) for rel in reversed(rels)), 2),
                          r, reps * r) for t in range(n)] for i in range(n)]
        rows.append(tuple(tuple((t, m) for t, m in enumerate(row) if m) for row in masks))
    return tuple(rows)


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


def _index_choices(frame: FrameClass, ups: list[int], rels: list[Rel]) -> dict:
    """The indices a model of the conditional class on a frame may hold, in
    enumeration order, each mapped to the relations it may take: the nonempty
    ones, for FSC_R only those with targets in the index's positive set."""
    nonempty = [r for r in rels if any(r.succ)]
    fits = {x: nonempty if frame is FrameClass.FSC else
            [r for r in nonempty if not any(target_faults(r, x))] for x in ups}
    return {(x, y): fits[x] for x in ups for y in ups if fits[x]}


def _mask_models(frame: FrameClass, bounds: SearchBounds) -> Iterator[MaskModel]:
    """Every model of the class within the bounds, in mask form and in the
    fixed enumeration order."""
    atoms = tuple(sorted(bounds.atoms))
    for names, up, ups, rels in _frames(frame, bounds.max_worlds, False):
        if frame.kind is not Kind.COND:
            for vp, vn in _valuations(atoms, ups):
                for rel in rels or [None]:
                    yield MaskModel(names, up, vp, vn, rel)
            continue
        choices = _index_choices(frame, ups, rels)
        kmax = min(bounds.max_cond_indices, len(choices))
        for vp, vn in _valuations(atoms, ups):
            for k in range(kmax + 1):
                for chosen in combinations(choices, k):
                    for picked in product(*(choices[idx] for idx in chosen)):
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
    its hypotheses and some of c's delta as its goals; a proof of a bare
    formula (empty gamma) must be a theorem proof.  The checks raise rather
    than assert, so they also run under python -O."""
    if isinstance(evidence, PointedModel):
        report = validate_model(evidence.model, frame)
        if not report.ok:
            raise EvidenceError(f"evidence model fails {frame.value} validation: "
                                f"{report.violations[0]}")
        if not check_consecution(evidence, c):
            raise EvidenceError("evidence model does not refute the instance")
    elif not (evidence.goals and set(evidence.hypotheses) == c.gamma
              and set(evidence.goals) <= c.delta
              and (c.gamma or evidence.kind == "theorem")):
        raise EvidenceError(f"proof {evidence.name} does not prove the instance")


def _first_hit_sliced(frame: FrameClass, prog: Program, bounds: SearchBounds,
                      deadline: float | None):
    """The first refuting model and point among the class's index-free
    models (all of them for P and FSM), with the models evaluated up to it:
    (status, mask model, point, models).  Each kept frame is run in passes,
    each over a contiguous run of its (valuation, relation) pairs."""
    atoms = tuple(sorted(bounds.atoms))
    most = min(CHUNK_BITS, (CHUNK_BITS << 10) // max(1, len(prog.nodes)))
    shape = FrameClass.FSM if frame is FrameClass.FSM else FrameClass.P
    models = 0
    try:
        for names, up, ups, rels in _frames(shape, bounds.max_worlds, True, deadline):
            n, u, accs = len(up), len(ups), rels or [None]
            step = min(len(accs), most)  # the relations of a pass
            k = len(atoms)  # the atoms that vary within a pass: the last k
            while k and u ** (2 * k) * step > most:
                k -= 1
            reps, outer = u ** (2 * k), atoms[:len(atoms) - k]
            inner = dict(zip(atoms[len(outer):], _inner_slices(ups, n, k, step)))
            ranges = [(j, rels and _access_rows(accs[j:j + step], reps))
                      for j in range(0, len(accs), step)]
            for hi in range(u ** (2 * len(outer))):
                for j, access in ranges:
                    _check_deadline(deadline)
                    width = min(step, len(accs) - j)
                    full = (1 << reps * width) - 1
                    # an outer atom is constant within the pass
                    slices = inner | {
                        a: ([full * (ups[p] >> i & 1) for i in range(n)],
                            [full * (ups[q] >> i & 1) for i in range(n)])
                        for a, (p, q) in zip(outer, _digits(hi, u, len(outer)))}
                    out = satisfying_slices(prog, up, slices, full, access)
                    hits = reduce(or_, out)
                    if not hits:
                        models += reps * width
                        continue
                    b = (hits & -hits).bit_length() - 1
                    models += b + 1
                    v, dj = divmod(b, width)
                    digits = _digits(hi * reps + v, u, len(atoms))
                    mm = MaskModel(names, up,
                                   {a: ups[p] for a, (p, _) in zip(atoms, digits) if ups[p]},
                                   {a: ups[q] for a, (_, q) in zip(atoms, digits) if ups[q]},
                                   {} if frame.kind is Kind.COND else accs[j + dj])
                    point = next(i for i, x in enumerate(out) if x >> b & 1)
                    return Status.FOUND, mm, names[point], models
    except _TimedOut:
        return Status.TIMED_OUT, None, None, models
    return Status.EXHAUSTED, None, None, models


def _first_hit_scan(frame: FrameClass, prog: Program, bounds: SearchBounds,
                    deadline: float | None):
    """As _first_hit_sliced, for a query with a conditional: one model at a
    time, in the order of the module docstring."""
    atoms = tuple(sorted(bounds.atoms))
    models = 0
    try:
        for names, up, ups, rels in _frames(frame, bounds.max_worlds, True, deadline):
            choices = _index_choices(frame, ups, rels)
            sizes = range(1, min(bounds.max_cond_indices, len(choices)) + 1)
            for vp, vn in _valuations(atoms, ups):
                _check_deadline(deadline)
                free = MaskModel(names, up, vp, vn, {})
                models += 1
                vals = _run(prog, free)
                hits = satisfying_worlds(prog, free, "+", vals)
                if hits:
                    return Status.FOUND, free, _first_world(free, hits), models
                # with propositional antecedents, the indices they look up
                wanted = {vals[a] for a in prog.antecedents} if prog.pl_antecedents else choices
                live = [idx for idx in choices if idx in wanted]
                for chosen in chain.from_iterable(combinations(live, k) for k in sizes):
                    todo = [(0, free._replace(access=dict.fromkeys(chosen, UNKNOWN)))]
                    while todo:  # depth first, in the order of itertools.product
                        _check_deadline(deadline)
                        depth, mm = todo.pop()
                        if depth < len(chosen):
                            if refutable_worlds(prog, mm):
                                idx = chosen[depth]
                                todo += [(depth + 1, mm._replace(access={**mm.access, idx: rel}))
                                         for rel in reversed(choices[idx])]
                            continue
                        models += 1
                        hits = satisfying_worlds(prog, mm)
                        if hits:
                            return Status.FOUND, mm, _first_world(mm, hits), models
    except _TimedOut:
        return Status.TIMED_OUT, None, None, models
    return Status.EXHAUSTED, None, None, models


def find_countermodel(logic: Logic, c: Consecution, bounds: SearchBounds) -> SearchOutcome:
    """Search for a pointed model of the logic's class that satisfies every
    gamma member and refutes every delta member.  Found outcomes re-validate
    and re-check before being reported; exhausting the bounds refutes only
    within the bounds (and, for conditional classes, within the documented
    index restriction).  The witness is the first refuting model of the full
    enumeration, at its first refuting world, and models counts the models
    evaluated up to it, or all of them, as one model at a time would (see
    the module docstring).  The deadline is checked while frames are built
    (before each preorder extended or kept and each relation row entered),
    before each pass, and before every conditional model and bound, so a
    long run of skipped branches still times out.  On a
    timeout models is what was evaluated before it: without a conditional,
    every model of each pass done."""
    for f in c.gamma | c.delta:
        logic.require(f)
    frame, kind = logic.frame_class, logic.frame_class.kind
    prog = consecution_program(c, kind)
    deadline = (time.monotonic() + bounds.time_limit
                if bounds.time_limit is not None else None)
    search = _first_hit_scan if prog.antecedents else _first_hit_sliced
    status, mm, point, models = search(frame, prog, bounds, deadline)
    if status is not Status.FOUND:
        return SearchOutcome(status, None, bounds, models)
    # the model is decoded afresh, so the evidence re-check also covers the
    # mask form and the decoding of the valuation
    pm = PointedModel(from_masks(kind, mm), point)
    check_evidence(frame, c, pm)
    return SearchOutcome(Status.FOUND, pm, bounds, models)
