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

For P and FSM, find_countermodel evaluates all the valuations of a kept
frame at once (bit-slicing; Biham, "A fast new DES implementation in
software", 1997, and Knuth, TAOCP 4A, 7.1.3).  Bit v of a slice stands for
the v-th valuation of _valuations.  An atom's slices depend only on the
frame's up-closed sets, so they are built once per preorder, as a repeated
block; semantics.satisfying_slices runs the program on them once per
relation (once for P), and gives per world the valuations refuting the
query there.  Within a preorder the models come valuation by valuation and,
for each, relation by relation, so the first refuting model is the least
refuting valuation, at the first relation that refutes under it, and its
point is the first world whose slice has that bit: the model one at a time
evaluation would stop at.  Its position gives the count that evaluation
would report: v * len(relations) + j + 1 models within the preorder, and
every valuation times every relation for each preorder before it.  When a
frame has more valuations than a pass may take (CHUNK_BITS, fewer for a
program of more than 1024 nodes), the first atoms' valuations are taken one
chunk at a time, in order, and each is constant within a chunk.

For the conditional classes find_countermodel evaluates one model at a time.
It skips the models that hold an index the query never consults.  A
conditional looks up only the index equal to its antecedent's bi-extension.
When every antecedent is propositional, which the compiled program records,
those bi-extensions depend on the valuation alone, so the consulted indices
are known before any relation is chosen (semantics.consulted_indices), and
only combinations of them are enumerated.  A skipped model evaluates exactly
like the same model with its unconsulted indices dropped, which comes
earlier: it has the same valuation and fewer indices.  The models kept are a
subsequence of the full order, so the first hit and an exhausted verdict are
those of the full enumeration.  Queries with a conditional antecedent try
every combination of indices.

Within a combination, the relations are assigned depth first in the order
of itertools.product, the first chosen index outermost.  Before the loop
over an index's relations, the partial model (the indices not assigned yet
mapped to semantics.UNKNOWN) is bounded by semantics.refutable_worlds, a
superset of the worlds at which some completion refutes the query; when it
is empty the whole branch is skipped.  Every model a bound skips refutes
nowhere, so the refuting models kept are exactly those of the full order,
in the same relative order: the first hit, and whether the bounds are
exhausted, are unchanged.  Only the count of models evaluated falls.
"""

from __future__ import annotations

import math
import time
from enum import Enum
from itertools import combinations, permutations, product
from typing import Callable, Iterator

from .errors import EvidenceError
from .logics import Logic
from .model import (FrameClass, KripkeModel, MaskModel, PointedModel, from_masks,
                    fs_faults, masks_of, relation, target_faults, transitivity_faults,
                    up_closed, validate_model)
from .record import Record
from .semantics import (UNKNOWN, Consecution, Program, check_consecution,
                        consecution_program, consulted_indices, refutable_worlds,
                        satisfying_slices, satisfying_worlds)


# find_countermodel evaluates a P or FSM frame under at most this many
# valuations at once, and a program of more than 1024 nodes under fewer:
# every node keeps a slice per world and sign for the whole pass, so a pass
# holds at most 1024 * CHUNK_BITS bits per world and sign
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
# frame enumeration

def _world_names(n: int) -> tuple[str, ...]:
    return tuple(f"w{i + 1}" for i in range(n))


def _rows(mask: int, n: int, label: tuple[int, ...]) -> tuple[int, ...]:
    """The relation on n worlds whose bit i*n + j holds (w<i+1>, w<j+1>), as
    successor masks over the sorted names; the p-th sorted name is
    w<label[p]+1>.  (The two orders differ from 10 worlds on, where w10
    sorts before w2.)"""
    return tuple(sum(1 << q for q, j in enumerate(label) if mask >> i * n + j & 1)
                 for i in label)


def _preorder_masks(n: int) -> Iterator[int]:
    """The preorders on n worlds as masks (bit i*n + j holds (w<i+1>,
    w<j+1>)), in increasing order: the diagonal is fixed and the
    off-diagonal subsets ascend, each kept if its rows are transitive."""
    diagonal = sum(1 << i * (n + 1) for i in range(n))
    off = ((1 << n * n) - 1) ^ diagonal
    row = (1 << n) - 1
    s = 0
    while True:
        mask = diagonal | s
        if not any(transitivity_faults(tuple(mask >> i * n & row for i in range(n)))):
            yield mask
        if s == off:
            return
        s = (s - off) & off


def _least_in_orbit(n: int) -> Callable[[int], bool]:
    """A test of whether a preorder mask on n worlds is least among the
    masks that the renamings of the worlds map it to."""
    # each renaming but the identity, as the (from, to) bit of every pair
    moves = [[(1 << i * n + j, 1 << p[i] * n + p[j]) for i in range(n) for j in range(n)]
             for p in permutations(range(n))][1:]

    def least(mask: int) -> bool:
        return all(sum(to for frm, to in mv if mask & frm) >= mask for mv in moves)
    return least


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


def _pattern(ups: list[int], world: int, run: int, length: int) -> int:
    """The slice of length bits whose bit v says whether the world is in
    ups[v // run % len(ups)]: one period of runs, repeated by multiplying
    with a repunit."""
    period = run * len(ups)
    ones = (1 << run) - 1
    block = sum(ones << k * run for k, s in enumerate(ups) if s >> world & 1)
    return block * (((1 << length) - 1) // ((1 << period) - 1))


def _inner_slices(ups: list[int], n: int, k: int) -> list[tuple[list[int], list[int]]]:
    """The (pos, neg) per-world slices of the last k atoms over the first
    len(ups)**(2k) valuations of _valuations, which repeat with that period.
    The last atom's negative set steps with every valuation and its positive
    set every len(ups) valuations; each atom before steps len(ups)**2 times
    slower than the next."""
    u, length = len(ups), len(ups) ** (2 * k)
    out = []
    for q in range(k):
        run = u ** (2 * (k - 1 - q))
        out.append(([_pattern(ups, i, u * run, length) for i in range(n)],
                    [_pattern(ups, i, run, length) for i in range(n)]))
    return out


def _refutable_products(prog: Program, mm: MaskModel, chosen: tuple, choices: list,
                        depth: int = 0) -> Iterator[MaskModel | None]:
    """The models of product(*choices) assigned to the chosen indices of mm,
    in product order, skipping each branch no completion of which refutes
    prog.  mm assigns chosen[:depth] and maps the rest to UNKNOWN.  Yields
    None before bounding each partial model."""
    if depth == len(chosen):
        yield mm
        return
    yield None
    if not refutable_worlds(prog, mm):
        return
    idx = chosen[depth]
    for rel in choices[depth]:
        yield from _refutable_products(prog, mm._replace(access={**mm.access, idx: rel}),
                                       chosen, choices, depth + 1)


def _frames(frame: FrameClass, n: int, least_only: bool) -> Iterator[tuple]:
    """The frames of the class on n worlds in enumeration order, as (names,
    up, the up-closed masks, the Fischer-Servi relations or None for P).
    With least_only, only those whose preorder is least in its orbit under
    the renamings of the worlds."""
    worlds = _world_names(n)
    names = tuple(sorted(worlds))
    label = tuple(worlds.index(w) for w in names)
    least = _least_in_orbit(n) if least_only else None
    if frame is not FrameClass.P:
        succs = [_rows(r, n, label) for r in range(1 << n * n)]
    for mask in _preorder_masks(n):
        if least is not None and not least(mask):
            continue
        up = _rows(mask, n, label)
        rels = None if frame is FrameClass.P else [
            rel for rel in (relation(up, succ) for succ in succs) if not any(fs_faults(up, rel))]
        yield names, up, up_closed(up), rels


def _mask_models(frame: FrameClass, bounds: SearchBounds,
                 prog: Program | None = None) -> Iterator[MaskModel | None]:
    """Every model of the class within the bounds, in mask form and in the
    fixed enumeration order.  Given a query's program, it yields only the
    models that can be its first refutation, in the same relative order:
    those whose preorder is least in its orbit under the renamings of the
    worlds and, for a conditional class, whose indices are all consulted
    under their valuation (when semantics.consulted_indices knows them) and
    that no bound on a partial assignment of their relations excludes.  It
    also yields a None before each such bound, which a caller can use to
    check a deadline."""
    consulted = None if prog is None else consulted_indices(prog)
    atoms = tuple(sorted(bounds.atoms))
    for n in range(1, bounds.max_worlds + 1):
        for names, up, ups, rels in _frames(frame, n, prog is not None):
            if frame is FrameClass.P:
                for vp, vn in _valuations(atoms, ups):
                    yield MaskModel(names, up, vp, vn, None)
                continue
            if frame is FrameClass.FSM:
                for vp, vn in _valuations(atoms, ups):
                    for rel in rels:
                        yield MaskModel(names, up, vp, vn, rel)
                continue

            # conditional classes
            nonempty = [r for r in rels if any(r.succ)]
            indices = [(x, y) for x in ups for y in ups]
            if frame is FrameClass.FSC_R:
                by_pos = {x: [r for r in nonempty if not any(target_faults(r, x))]
                          for x in ups}
                per_index = {idx: by_pos[idx[0]] for idx in indices}
            else:
                per_index = dict.fromkeys(indices, nonempty)
            kmax = min(bounds.max_cond_indices, len(indices))
            for vp, vn in _valuations(atoms, ups):
                live = indices
                if consulted is not None:
                    wanted = consulted(up, vp, vn)
                    live = [idx for idx in indices if idx in wanted]
                for k in range(kmax + 1):
                    for chosen in combinations(live, k):
                        choices = [per_index[idx] for idx in chosen]
                        if any(not c for c in choices):
                            continue
                        if prog is not None:
                            partial = MaskModel(names, up, vp, vn,
                                                dict.fromkeys(chosen, UNKNOWN))
                            yield from _refutable_products(prog, partial, chosen, choices)
                            continue
                        for rels in product(*choices):
                            yield MaskModel(names, up, vp, vn, dict(zip(chosen, rels)))


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
    """The first refuting model and point of the P or FSM enumeration, with
    the models evaluated up to it: (status, mask model, point, models).
    Each kept frame is run once per relation (once for P) over all its
    valuations, or over chunks of them, in order."""
    atoms = tuple(sorted(bounds.atoms))
    most = min(CHUNK_BITS, (CHUNK_BITS << 10) // max(1, len(prog.nodes)))
    models = 0
    for n in range(1, bounds.max_worlds + 1):
        for names, up, ups, rels in _frames(frame, n, True):
            u, accs = len(ups), rels or [None]
            k = len(atoms)  # the atoms that vary within a chunk: the last k
            while k and u ** (2 * k) > most:
                k -= 1
            length, outer = u ** (2 * k), atoms[:len(atoms) - k]
            inner = dict(zip(atoms[len(outer):], _inner_slices(ups, n, k)))
            full, block = (1 << length) - 1, models
            for hi in range(u ** (2 * len(outer))):
                # an outer atom is constant within the chunk
                slices = {a: ([full * (ups[p] >> i & 1) for i in range(n)],
                              [full * (ups[q] >> i & 1) for i in range(n)])
                          for a, (p, q) in zip(outer, _digits(hi, u, len(outer)))}
                slices.update(inner)
                best = None  # (valuation in the chunk, relation, per-world hits)
                for j, acc in enumerate(accs):
                    if deadline is not None and time.monotonic() > deadline:
                        return Status.TIMED_OUT, None, None, models
                    out = satisfying_slices(prog, up, slices, full, acc)
                    hits = 0
                    for x in out:
                        hits |= x
                    if best is not None:
                        hits &= (1 << best[0]) - 1
                    if hits:
                        best = ((hits & -hits).bit_length() - 1, j, out)
                    models += length
                if best is not None:
                    v, j, out = best
                    v_all = hi * length + v
                    models = block + v_all * len(accs) + j + 1
                    digits = _digits(v_all, u, len(atoms))
                    mm = MaskModel(names, up,
                                   {a: ups[p] for a, (p, _) in zip(atoms, digits) if ups[p]},
                                   {a: ups[q] for a, (_, q) in zip(atoms, digits) if ups[q]},
                                   accs[j])
                    point = next(i for i, x in enumerate(out) if x >> v & 1)
                    return Status.FOUND, mm, names[point], models
    return Status.EXHAUSTED, None, None, models


def _first_hit_scan(frame: FrameClass, prog: Program, bounds: SearchBounds,
                    deadline: float | None):
    """As _first_hit_sliced, for a conditional class: each model that
    _mask_models keeps is run on its own."""
    models = 0
    for mm in _mask_models(frame, bounds, prog):
        if deadline is not None and time.monotonic() > deadline:
            return Status.TIMED_OUT, None, None, models
        if mm is None:  # a partial model is about to be bounded
            continue
        models += 1
        hits = satisfying_worlds(prog, mm)
        if hits:
            return Status.FOUND, mm, _first_world(mm, hits), models
    return Status.EXHAUSTED, None, None, models


def find_countermodel(logic: Logic, c: Consecution, bounds: SearchBounds) -> SearchOutcome:
    """Search for a pointed model of the logic's class that satisfies every
    gamma member and refutes every delta member.  Found outcomes re-validate
    and re-check before being reported; exhausting the bounds refutes only
    within the bounds (and, for conditional classes, within the documented
    index restriction).  The witness is the first refuting model of the full
    enumeration, at its first refuting world, and models counts the models
    evaluated up to it, or all of them, as one model at a time would: for P
    and FSM each frame's valuations are evaluated at once, but the hit taken
    is the least valuation refuted, at its first relation, and the count is
    read off its position (see the module docstring).  The deadline is
    checked before each frame, relation and chunk of valuations, and before
    every conditional model and bound, so a long run of skipped branches
    still times out.  On a timeout models is what was evaluated before it:
    for P and FSM, every (valuation, relation) pair of each pass done, which
    is not a position in the enumeration, since a chunk's passes go relation
    by relation."""
    for f in c.gamma | c.delta:
        logic.require(f)
    frame, kind = logic.frame_class, logic.frame_class.kind
    prog = consecution_program(c, kind)
    deadline = (time.monotonic() + bounds.time_limit
                if bounds.time_limit is not None else None)
    search = (_first_hit_sliced if frame in (FrameClass.P, FrameClass.FSM)
              else _first_hit_scan)
    status, mm, point, models = search(frame, prog, bounds, deadline)
    if status is not Status.FOUND:
        return SearchOutcome(status, None, bounds, models)
    # the model is decoded afresh, so the evidence re-check also covers the
    # mask form and the decoding of the valuation
    pm = PointedModel(from_masks(kind, mm), point)
    check_evidence(frame, c, pm)
    return SearchOutcome(Status.FOUND, pm, bounds, models)
