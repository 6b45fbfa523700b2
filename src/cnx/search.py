"""Bounded enumeration of frame-class models and countermodel search.

Enumeration is deterministic: world counts ascend, preorders by bitmask,
valuations by atom then bitmask, relations by bitmask; conditional indices
are restricted to pairs of up-closed world sets (only those can ever be
consulted, since bi-extensions are hereditary) with at most max_cond_indices
simultaneously nonempty.  Because of that restriction, exhausting the bounds
for a conditional class is weaker evidence than for P or FSM; it is never a
theoremhood claim in any case.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, product
from typing import Iterator

from .errors import EvidenceError
from .logics import Logic
from .model import (BiSet, FrameClass, Kind, KripkeModel, PointedModel,
                    _fs_violations, _trusted_model, _up_sets, validate_model)
from .semantics import Consecution, check_consecution


@dataclass(frozen=True)
class SearchBounds:
    max_worlds: int
    atoms: tuple[int, ...] = (0, 1)
    max_cond_indices: int = 2
    time_limit: float | None = None

    def __post_init__(self):
        if self.max_worlds < 1:
            raise ValueError("max_worlds must be at least 1")
        if self.max_cond_indices < 0:
            raise ValueError("max_cond_indices must not be negative")
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValueError("time_limit must be positive")


class Status(Enum):
    FOUND = "found"
    EXHAUSTED = "exhausted-bounds"
    TIMED_OUT = "timed-out"


@dataclass(frozen=True)
class SearchOutcome:
    status: Status
    witness: PointedModel | None = None
    bounds: SearchBounds | None = None

    @property
    def found(self) -> bool:
        return self.status is Status.FOUND


# ---------------------------------------------------------------------------
# frame enumeration

def _world_names(n: int) -> tuple[str, ...]:
    return tuple(f"w{i + 1}" for i in range(n))


def _pairs(worlds):
    return [(a, b) for a in worlds for b in worlds]


def _decode(mask: int, pairs) -> frozenset:
    return frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)


def _preorders(worlds) -> list[frozenset]:
    pairs = _pairs(worlds)
    out = []
    for mask in range(1 << len(pairs)):
        rel = _decode(mask, pairs)
        if not all((w, w) in rel for w in worlds):
            continue
        if all((a, d) in rel for (a, b) in rel for (c, d) in rel if b == c):
            out.append(rel)
    return out


def _valuations(atoms, up_sets) -> Iterator[tuple[dict, dict]]:
    if not atoms:
        yield {}, {}
        return
    per_atom = list(product(up_sets, up_sets))  # (pos, neg), bitmask order
    for combo in product(per_atom, repeat=len(atoms)):
        val_pos = {a: c[0] for a, c in zip(atoms, combo)}
        val_neg = {a: c[1] for a, c in zip(atoms, combo)}
        yield val_pos, val_neg


def enumerate_models(frame: FrameClass, bounds: SearchBounds) -> Iterator[KripkeModel]:
    """Yield every model of the class within the bounds (conditional access
    restricted to up-closed indices), in a fixed deterministic order."""
    atoms = tuple(sorted(bounds.atoms))
    for n in range(1, bounds.max_worlds + 1):
        worlds = _world_names(n)
        wset = frozenset(worlds)
        pairs = _pairs(worlds)
        for leq in _preorders(worlds):
            ups = _up_sets(worlds, leq)
            if frame is FrameClass.P:
                for vp, vn in _valuations(atoms, ups):
                    yield _trusted_model(Kind.PROP, wset, leq, None, vp, vn)
                continue

            if frame is FrameClass.FSM:
                rels = [_decode(mask, pairs) for mask in range(1 << len(pairs))]
                rels = [r for r in rels if not any(_fs_violations(worlds, leq, r))]
                for vp, vn in _valuations(atoms, ups):
                    for rel in rels:
                        yield _trusted_model(Kind.MODAL, wset, leq, rel, vp, vn)
                continue

            # conditional classes
            nonempty = [_decode(mask, pairs) for mask in range(1, 1 << len(pairs))]
            nonempty = [r for r in nonempty if not any(_fs_violations(worlds, leq, r))]
            indices = [BiSet(x, y) for x in ups for y in ups]
            per_index = {}
            for idx in indices:
                if frame is FrameClass.FSC_R:
                    per_index[idx] = [r for r in nonempty
                                      if all(v in idx.pos for (_, v) in r)]
                else:
                    per_index[idx] = nonempty
            kmax = min(bounds.max_cond_indices, len(indices))
            for vp, vn in _valuations(atoms, ups):
                for k in range(kmax + 1):
                    for chosen in combinations(indices, k):
                        choices = [per_index[idx] for idx in chosen]
                        if any(not c for c in choices):
                            continue
                        for rels in product(*choices):
                            access = dict(zip(chosen, rels))
                            yield _trusted_model(Kind.COND, wset, leq, access, vp, vn)


# ---------------------------------------------------------------------------
# countermodel search

def refuting_point(m: KripkeModel, c: Consecution) -> str | None:
    """The first world, in sorted order, at which m refutes c."""
    for w in sorted(m.worlds):
        if check_consecution(PointedModel(m, w), c):
            return w
    return None


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


def find_countermodel(logic: Logic, c: Consecution, bounds: SearchBounds) -> SearchOutcome:
    """Search for a pointed model of the logic's class that satisfies every
    gamma member and refutes every delta member.  Found outcomes re-validate
    and re-check before being reported; exhausting the bounds refutes only
    within the bounds (and, for conditional classes, within the documented
    index restriction)."""
    for f in c.gamma | c.delta:
        logic.require(f)
    frame = logic.frame_class
    deadline = (time.monotonic() + bounds.time_limit
                if bounds.time_limit is not None else None)
    for m in enumerate_models(frame, bounds):
        if deadline is not None and time.monotonic() > deadline:
            return SearchOutcome(Status.TIMED_OUT, None, bounds)
        w = refuting_point(m, c)
        if w is not None:
            pm = PointedModel(m, w)
            check_evidence(frame, c, pm)
            return SearchOutcome(Status.FOUND, pm, bounds)
    return SearchOutcome(Status.EXHAUSTED, None, bounds)
