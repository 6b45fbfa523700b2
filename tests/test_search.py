import functools
import hashlib
import itertools
import operator
import os
import random
import subprocess
import sys
import textwrap
import time
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import (CN_CONNS, MD_CONNS, PL_CONNS, definition_frames, least_in_orbit,
                      mask_rows, preorder_masks, preorders, random_formula, ref_refutes,
                      shift_atoms)
from cnx.corpus import CORPUS_DIR
from cnx.errors import EvidenceError, LanguageMismatch
from cnx.harness import DEFAULT_BOUNDS, Thesis, thesis_instance
from cnx.logics import Logic
from cnx.model import (FrameClass, Kind, KripkeModel, MaskModel, PointedModel, from_masks,
                       get_fixture, masks_of, serialize_model, serialize_pointed, succ_masks,
                       transitivity_faults, validate_model, world_bits)
from cnx.proof import parse_proof
from cnx import search
from cnx.search import (SearchBounds, Status, _first_world, _frames, _inner_slices,
                        _mask_models, _preorders, _valuations, _world_names, check_evidence,
                        enumerate_models, find_countermodel)
from cnx.semantics import (_run, _run_sliced, check_consecution, consecution,
                           consecution_program, satisfying_slices, satisfying_worlds)
from cnx.syntax import And, Atom, Imp, Neg, atoms_of, parse


def labeled_preorders_oracle(n):
    """Independent combinatorial enumeration of labeled preorders, in the
    enumeration's order: by bitmask over the pairs, the first pair the
    lowest bit."""
    worlds = [f"w{i+1}" for i in range(n)]
    pairs = list(itertools.product(worlds, worlds))
    out = []
    # product varies its last position fastest, so the last pair goes first
    for bits in itertools.product([0, 1], repeat=len(pairs)):
        rel = {p for p, b in zip(reversed(pairs), bits) if b}
        if not all((w, w) in rel for w in worlds):
            continue
        if all((a, d) in rel for (a, b) in rel for (c, d) in rel if b == c):
            out.append(frozenset(rel))
    return out


def test_preorders_match_the_definition_in_order():
    for n in (1, 2, 3):
        assert preorders(_world_names(n)) == labeled_preorders_oracle(n)
    assert [mask for mask, _, _ in _preorders(4, False, None)] == list(preorder_masks(4))
    # 6,942 preorders on 5 worlds (OEIS A000798), ascending and transitive
    masks = [mask for mask, _, _ in _preorders(5, False, None)]
    assert len(masks) == 6_942 and masks == sorted(set(masks))
    for mask in masks:
        rows = tuple(mask >> i * 5 & 31 for i in range(5))
        assert all(row >> i & 1 for i, row in enumerate(rows))
        assert not any(transitivity_faults(rows)), mask


def test_frames_match_the_definition_in_order():
    for frame, worlds in ((FrameClass.P, 4), (FrameClass.FSM, 3),
                          (FrameClass.FSC, 2), (FrameClass.FSC_R, 2)):
        for least_only in (False, True):
            assert (list(_frames(frame, worlds, least_only))
                    == list(definition_frames(frame, worlds, least_only))), (frame, least_only)


def test_rows_map_world_labels_to_sorted_names():
    # w10 sorts before w2, so from 10 worlds on the two orders differ
    rnd = random.Random(11)
    for n in (3, 10, 11):
        worlds = _world_names(n)
        names = tuple(sorted(worlds))
        label = tuple(worlds.index(w) for w in names)
        pairs = list(itertools.product(worlds, worlds))
        for _ in range(20):
            mask = rnd.getrandbits(n * n)
            rel = [p for i, p in enumerate(pairs) if mask >> i & 1]
            assert mask_rows(mask, n, label) == succ_masks(world_bits(names), rel)


def _rename(rel, perm):
    return frozenset((perm[a], perm[b]) for (a, b) in rel)


def test_least_preorders_are_one_per_isomorphism_class():
    # the unlabelled preorders on 1-4 points number 1, 3, 9 and 33
    for n, classes in ((1, 1), (2, 3), (3, 9), (4, 33)):
        worlds = _world_names(n)
        least = least_in_orbit(n)
        leaders = {rel for mask, rel in zip(preorder_masks(n), preorders(worlds))
                   if least(mask)}
        assert len(leaders) == classes
        renamings = [dict(zip(worlds, p)) for p in itertools.permutations(worlds)]
        for rel in preorders(worlds):
            assert len({_rename(rel, r) for r in renamings} & leaders) == 1, rel


def test_prop_one_world_one_atom():
    models = list(enumerate_models(FrameClass.P, SearchBounds(1, (0,))))
    assert len(models) == 4
    vals = {(m.val(0, "+"), m.val(0, "-")) for m in models}
    assert len(vals) == 4


def test_prop_two_worlds_no_atoms_matches_preorder_oracle():
    models = list(enumerate_models(FrameClass.P, SearchBounds(2, ())))
    # one 1-world frame plus the labeled preorders on 2 points
    assert len(models) == 1 + len(labeled_preorders_oracle(2))
    assert len(labeled_preorders_oracle(2)) == 4


def test_enumeration_needs_explicit_atoms():
    # a search reads its atoms off the query; the enumeration has none
    for frame in FrameClass:
        with pytest.raises(ValueError, match="needs explicit atoms"):
            next(enumerate_models(frame, SearchBounds(1)))


def test_fsm_one_world_no_atoms():
    models = list(enumerate_models(FrameClass.FSM, SearchBounds(1, ())))
    assert len(models) == 2
    assert {m.access for m in models} == {frozenset(), frozenset({("w1", "w1")})}


def test_every_enumerated_model_validates():
    for frame in FrameClass:
        bounds = SearchBounds(2, (0,), max_cond_indices=1)
        for m in itertools.islice(enumerate_models(frame, bounds), 300):
            assert validate_model(m, frame).ok


def test_enumeration_is_deterministic():
    bounds = SearchBounds(2, (0,), max_cond_indices=1)
    a = [serialize_pointed_like(m) for m in
         itertools.islice(enumerate_models(FrameClass.FSC, bounds), 100)]
    b = [serialize_pointed_like(m) for m in
         itertools.islice(enumerate_models(FrameClass.FSC, bounds), 100)]
    assert a == b


def serialize_pointed_like(m):
    from cnx.model import serialize_model
    return serialize_model(m)


def test_countermodel_nonsym_arrow():
    out = find_countermodel(Logic.C,
                            consecution([], [parse("(p0 -> p1) -> (p1 -> p0)")]),
                            SearchBounds(2, (0, 1)))
    assert out.status is Status.FOUND
    assert validate_model(out.witness.model, FrameClass.P).ok
    assert check_consecution(out.witness,
                             consecution([], [parse("(p0 -> p1) -> (p1 -> p0)")]))


def test_known_refutations_rediscovered_within_two_worlds():
    cbt_strong = parse("~(p0 => p1) => (p0 => ~p1)")
    cases = [
        (Logic.C, consecution([], [parse("(p0 -> p1) -> (~p1 -> ~p0)")])),
        (Logic.C, consecution([], [cbt_strong])),
        (Logic.C, consecution([parse("~(p0 => p1)")], [parse("p0 => ~p1")])),
        (Logic.C, consecution([parse("p0 -> p1")], [parse("p1 -> p0")])),
    ]
    for logic, c in cases:
        out = find_countermodel(logic, c, SearchBounds(2, (0, 1)))
        assert out.status is Status.FOUND, c


def test_countermodel_excluded_middle_single_world():
    out = find_countermodel(Logic.C, consecution([], [parse("p0 | ~p0")]),
                            SearchBounds(1, (0,)))
    assert out.status is Status.FOUND
    m = out.witness.model
    assert not m.val(0, "+") and not m.val(0, "-")


def test_exhausted_bounds_on_valid_formula():
    out = find_countermodel(Logic.C, consecution([], [parse("p0 -> p0")]),
                            SearchBounds(2, (0,)))
    assert out.status is Status.EXHAUSTED


def test_search_monotone_in_bounds():
    c = consecution([], [parse("(p0 -> p1) -> (p1 -> p0)")])
    small = find_countermodel(Logic.C, c, SearchBounds(1, (0, 1)))
    big = find_countermodel(Logic.C, c, SearchBounds(2, (0, 1)))
    assert small.status is Status.FOUND
    assert big.status is Status.FOUND
    # deterministic order: enlarging bounds keeps the same first hit
    assert serialize_pointed(small.witness) == serialize_pointed(big.witness)


def test_language_gate():
    with pytest.raises(LanguageMismatch):
        find_countermodel(Logic.C, consecution([], [parse("[]p0")]),
                          SearchBounds(1, (0,)))
    with pytest.raises(LanguageMismatch):
        find_countermodel(Logic.CnK, consecution([], [parse("p0 @> p1")]),
                          SearchBounds(1, (0, 1)))


def test_bounds_default_to_what_the_query_needs():
    # the search values every atom of the query, and refuses atoms that
    # leave one out; a cap above the count of conditional antecedents
    # searches as that count does
    c = consecution([], [parse("p2 -> p0")])
    out = find_countermodel(Logic.C, c, SearchBounds(2))
    assert out.found and masks_of(out.witness.model).val_pos == {2: 1}
    with pytest.raises(ValueError):
        find_countermodel(Logic.C, c, SearchBounds(2, (0, 1)))
    c = consecution([], [parse(UNPRUNED_VALID)])
    assert (find_countermodel(Logic.CnCK, c, SearchBounds(1, max_cond_indices=5)).models
            == find_countermodel(Logic.CnCK, c, SearchBounds(1)).models == 176)


# valid, and its antecedent is conditional, so a search for a countermodel
# walks every model with indices the query may consult: all of them (7.17M
# CnCK models at 2 worlds and 2 indices, exhausted in about 0.1 s; a
# valuation of the first frame on 3 worlds has 526M)
UNPRUNED_VALID = "((p0 @> p0) @> p1) -> ((p0 @> p0) @> p1)"


def test_timeout():
    # the search cannot finish within the limit
    out = find_countermodel(
        Logic.CnCK, consecution([], [parse(UNPRUNED_VALID)]),
        SearchBounds(3, (0, 1), max_cond_indices=2, time_limit=0.05))
    assert out.status is Status.TIMED_OUT
    assert out.witness is None


def test_timed_out_conditional_search_holds_one_pass_at_a_time():
    # past the 7,171,577 models of 2 worlds, a valuation of the discrete
    # frame on 3 worlds has 526,452,641 (each of its 64 indices takes 511
    # relations, up to two indices at a time): it runs in passes of at most
    # CHUNK_BITS models, each with rows built for its range only.  The 3-world
    # search is given twice the time the 2-world one takes under tracemalloc,
    # so that it gets past the 2-world models on a host of any speed
    c = consecution([], [parse(UNPRUNED_VALID)])
    two = find_countermodel(Logic.CnCK, c, SearchBounds(2, (0, 1), max_cond_indices=2))
    assert two.status is Status.EXHAUSTED and two.models == 7_171_577
    tracemalloc.start()
    try:
        start = time.perf_counter()
        find_countermodel(Logic.CnCK, c, SearchBounds(2, (0, 1), max_cond_indices=2))
        limit = 2 * (time.perf_counter() - start)
        tracemalloc.reset_peak()
        out = find_countermodel(Logic.CnCK, c, SearchBounds(3, (0, 1), max_cond_indices=2,
                                                             time_limit=limit))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.status is Status.TIMED_OUT and out.models > two.models
    assert peak < 16 * 2 ** 20, peak


def test_witness_is_first_model_the_reference_refutes():
    rnd = random.Random(59)
    cases = [
        (Logic.C, PL_CONNS, SearchBounds(2, (0, 1))),
        (Logic.CnK, MD_CONNS, SearchBounds(2, (0, 1))),
        (Logic.CnCK, CN_CONNS, SearchBounds(2, (0,), max_cond_indices=1)),
        (Logic.CnCK_R, CN_CONNS, SearchBounds(2, (0,), max_cond_indices=1)),
    ]
    found = Counter()
    for logic, conns, bounds in cases:
        for _ in range(12):
            gamma = [random_formula(rnd, 2, bounds.atoms, conns)
                     for _ in range(rnd.randint(0, 1))]
            c = consecution(gamma, [random_formula(rnd, 3, bounds.atoms, conns)])
            expected = next((serialize_model(m, w)
                             for m in enumerate_models(logic.frame_class, bounds)
                             for w in sorted(m.worlds) if ref_refutes(m, w, c)), None)
            out = find_countermodel(logic, c, bounds)
            if expected is None:
                assert out.status is Status.EXHAUSTED, c
            else:
                assert out.found and serialize_pointed(out.witness) == expected, c
                found[logic] += 1
    # most random instances are refuted, and each logic has some that are not
    assert all(3 <= found[logic] < 12 for logic, _, _ in cases), found


def _unpruned_first_hit(logic, c, bounds, limit=None):
    """The serialized first refuting point of a plain scan of every
    enumerated model, or of the first limit of them, or None."""
    kind = logic.frame_class.kind
    prog = consecution_program(c, kind)
    for mm in itertools.islice(_mask_models(logic.frame_class, bounds), limit):
        hits = satisfying_worlds(prog, mm)
        if hits:
            return serialize_pointed(PointedModel(from_masks(kind, mm),
                                                  _first_world(mm, hits)))
    return None


def test_pruned_search_matches_unpruned_scan():
    rnd = random.Random(5)
    cases = []
    # the last inputs give queries with a conditional three atoms, whose
    # valuations the search decodes from a pass's position
    for bounds, count in ((SearchBounds(2, (0,), max_cond_indices=2), 20),
                          (SearchBounds(1, (0, 1), max_cond_indices=2), 20),
                          (SearchBounds(1, (0, 1, 2), max_cond_indices=2), 4)):
        for logic in (Logic.CnCK, Logic.CnCK_R):
            for _ in range(count):
                gamma = [random_formula(rnd, 2, bounds.atoms, CN_CONNS)
                         for _ in range(rnd.randint(0, 1))]
                delta = [random_formula(rnd, 3, bounds.atoms, CN_CONNS)]
                cases.append((logic, consecution(gamma, delta), bounds, bounds))
    for logic in (Logic.CnCK, Logic.CnCK_R):
        for conn in ("@>", "?>", "@=>", "?=>"):
            for thesis in Thesis:
                bounds = SearchBounds(1, (0, 1), max_cond_indices=2)
                cases.append((logic, thesis_instance(conn, thesis), bounds, bounds))
    # queries of A >= 3 conditional antecedents, searched at the derived cap
    # A: at 1 world against the scan of every subset of the indices, and at
    # 2 worlds over p0 against the scan at cap A + 1, which reaches only the
    # first valuations of the first frame in time, so a query is kept if the
    # scan refutes it there, within its first 600 models
    deep = Counter()
    for logic in (Logic.CnCK, Logic.CnCK_R):
        for worlds, atoms, count in ((1, (0, 1), 20), (2, (0,), 3)):
            while deep[logic, worlds] < count:
                gamma = [random_formula(rnd, 2, atoms, CN_CONNS)
                         for _ in range(rnd.randint(0, 1))]
                c = consecution(gamma, [random_formula(rnd, 3, atoms, CN_CONNS)])
                a = len(consecution_program(c, Kind.COND).antecedents)
                used = tuple(sorted(set().union(*map(atoms_of, c.gamma | c.delta))))
                scan = SearchBounds(worlds, used, None if worlds == 1 else a + 1)
                if a < 3 or worlds == 2 and (find_countermodel(logic, c, SearchBounds(1)).found
                                             or _unpruned_first_hit(logic, c, scan, 600) is None):
                    continue
                cases.append((logic, c, SearchBounds(worlds), scan))
                deep[logic, worlds] += 1
    kinds = Counter()
    for logic, c, bounds, scan in cases:
        expected = _unpruned_first_hit(logic, c, scan)
        out = find_countermodel(logic, c, bounds)
        if expected is None:
            assert out.status is Status.EXHAUSTED, c
        else:
            assert out.found and serialize_pointed(out.witness) == expected, c
        prunable = consecution_program(c, logic.frame_class.kind).pl_antecedents
        kinds[prunable, out.found] += 1
    # both kinds of query, each both refuted and not
    assert len(kinds) == 4, kinds


def test_orbit_skip_matches_unpruned_scan():
    # queries that no 1-world model refutes, so that the search reaches the
    # preorders whose blocks the orbit skip leaves out; the first is refuted
    # only at 3 worlds
    cases = [(Logic.C, consecution([], [parse("~(~p0 & (p0 -> p0)) | (~p0 -> p0)")]),
              SearchBounds(3, (0,)))]
    rnd = random.Random(11)
    for logic, conns, bounds, n in (
            (Logic.C, PL_CONNS, SearchBounds(3, (0,)), 80),
            (Logic.CnK, MD_CONNS, SearchBounds(2, (0, 1)), 20),
            (Logic.CnCK, CN_CONNS, SearchBounds(2, (0,), max_cond_indices=1), 20),
            (Logic.CnCK_R, CN_CONNS, SearchBounds(2, (0,), max_cond_indices=1), 20)):
        one_world = SearchBounds(1, bounds.atoms, bounds.max_cond_indices)
        for _ in range(n):
            while True:
                gamma = [random_formula(rnd, 2, bounds.atoms, conns)
                         for _ in range(rnd.randint(0, 1))]
                c = consecution(gamma, [random_formula(rnd, 3, bounds.atoms, conns)])
                if not find_countermodel(logic, c, one_world).found:
                    break
            cases.append((logic, c, bounds))
    sizes = Counter()
    for logic, c, bounds in cases:
        expected = _unpruned_first_hit(logic, c, bounds)
        out = find_countermodel(logic, c, bounds)
        if expected is None:
            assert out.status is Status.EXHAUSTED, c
        else:
            assert out.found and serialize_pointed(out.witness) == expected, c
        sizes[logic, len(out.witness.model.worlds) if out.found else 0] += 1
    # every logic has queries refuted at 2 worlds and queries that exhaust
    assert all(sizes[logic, 2] and sizes[logic, 0] for logic, _, _ in cases), sizes
    assert sizes[Logic.C, 3], sizes


def _bits_at(slices, v):
    """The mask of the worlds whose slice has bit v."""
    return sum((s >> v & 1) << i for i, s in enumerate(slices))


def test_sliced_run_matches_run_on_every_small_model():
    # every node, sign and world of the sliced evaluator against _run on
    # each model of at most 2 worlds over p0/p1: bit v*R + j of a frame's
    # slices stands for the v-th valuation of _valuations under the j-th of
    # its R relations (R = 1 for P)
    rnd = random.Random(23)
    atoms = (0, 1)
    for frame, conns, total in ((FrameClass.P, PL_CONNS, 450),
                                (FrameClass.FSM, MD_CONNS, 5714)):
        refuted = Counter()
        for _ in range(3):
            c = consecution([random_formula(rnd, 3, atoms, conns)],
                            [random_formula(rnd, 3, atoms, conns) for _ in range(2)])
            prog = consecution_program(c, frame.kind)
            models = 0
            for names, up, ups, rels in _frames(frame, 2, False):
                accs, reps = rels or [None], len(ups) ** 4
                full = (1 << reps * len(accs)) - 1
                slices = dict(zip(atoms, _inner_slices(ups, len(up), len(atoms), len(accs))))
                # FSM's one slot, None, laid out as every search lays it out
                choices, ks = search._slots(frame, ups, rels, None)
                [(width, _, rows)] = search._passes(list(choices.values()), ks, len(accs),
                                                    reps, {}, None, {})
                assert width == len(accs)
                access = dict(zip(choices, rows))
                sliced = _run_sliced(prog, up, slices, full, access)
                hits = satisfying_slices(prog, up, slices, full, access)
                for v, (vp, vn) in enumerate(_valuations(atoms, ups)):
                    for j, acc in enumerate(accs):
                        b = v * len(accs) + j
                        mm = MaskModel(names, up, vp, vn, {} if acc is None else {None: acc})
                        for want, (pos, neg) in zip(_run(prog, mm), sliced):
                            assert want == (_bits_at(pos, b), _bits_at(neg, b))
                        assert _bits_at(hits, b) == satisfying_worlds(prog, mm)
                        refuted[bool(_bits_at(hits, b))] += 1
                        models += 1
            assert models == total
        # models that refute the consecution and models that do not
        assert len(refuted) == 2, refuted


def test_sliced_run_matches_run_on_every_small_conditional_model():
    # every node, sign and world of the sliced evaluator against _run on
    # each FSC and FSC_R model of at most 2 worlds over p0 (cap 2), in the
    # passes of search._passes over every index a frame may hold, of at most
    # `most` models so that blocks are split: the b-th model of a
    # valuation's passes is the next of _mask_models.  Each pass is run a
    # second time with every up-closed pair it lacks mapped to the empty
    # relation, which must change nothing.
    atoms = (0,)
    world_bit = [bytes.maketrans(bytes(range(256)), bytes(b"01"[v >> i & 1] for v in range(256)))
                 for i in range(2)]
    # every connective, antecedents with and without a conditional
    c = consecution([parse("(p0 @> ~p0) | ~(p0 ?> p0)")],
                    [parse("((p0 @> p0) ?> p0) & ((~p0 -> (p0 ?> ~p0)) @> ~p0)")])
    prog = consecution_program(c, Kind.COND)
    for frame, most, total in ((FrameClass.FSC, 4096, 479_978), (FrameClass.FSC_R, 333, 57_126)):
        reference = _mask_models(frame, SearchBounds(2, atoms, max_cond_indices=2))
        models, split, lacking, refuted = 0, 0, 0, Counter()
        for names, up, ups, rels in _frames(frame, 2, False):
            choices, ks = search._slots(frame, ups, rels, 2)
            bits = {id(r): search._relation_bits(r) for r in choices.values()}
            nothing = (((),) * len(up),) * 2
            for vp, vn in _valuations(atoms, ups):
                passes = list(search._passes(list(choices.values()), ks, most, 1, bits,
                                             None, {}))
                split += len(passes) > 1
                for width, pieces, rows in passes:
                    full = (1 << width) - 1
                    slices = {0: ([full * (vp.get(0, 0) >> i & 1) for i in range(len(up))],
                                  [full * (vn.get(0, 0) >> i & 1) for i in range(len(up))])}
                    access = {idx: r for idx, r in zip(choices, rows) if r}
                    padded = dict.fromkeys(itertools.product(ups, ups), nothing) | access
                    lacking += len(padded) > len(access)
                    sliced = _run_sliced(prog, up, slices, full, access)
                    assert _run_sliced(prog, up, slices, full, padded) == sliced
                    runs = []
                    for mm in itertools.islice(reference, width):
                        assert (mm.up, mm.val_pos, mm.val_neg) == (up, vp, vn)
                        runs.append(_run(prog, mm))
                    assert len(runs) == width
                    # per node and sign, each model's mask as a byte, read
                    # off per world as the string of the sliced int's bits
                    for (pos, neg), column in zip(sliced, zip(*runs)):
                        for got, masks in zip((pos, neg), map(bytes, zip(*column))):
                            for i, x in enumerate(got):
                                assert x == int(masks.translate(world_bit[i])[::-1], 2)
                    hits = bin(functools.reduce(operator.or_, satisfying_slices(
                        prog, up, slices, full, access))).count("1")
                    refuted.update({True: hits, False: width - hits})
                    models += width
        assert models == total and next(reference, None) is None
        # valuations split over several passes, passes that lack an index,
        # and models that refute the consecution and models that do not
        assert split and lacking and refuted[True] and refuted[False], (split, lacking, refuted)


def _not_refuted_at_one_world(rnd, logic, bounds, conns, n):
    """n seeded random consecutions that no 1-world model refutes."""
    one_world = SearchBounds(1, bounds.atoms)
    out = []
    while len(out) < n:
        gamma = [random_formula(rnd, 2, bounds.atoms, conns)
                 for _ in range(rnd.randint(0, 1))]
        c = consecution(gamma, [random_formula(rnd, 3, bounds.atoms, conns)])
        if not find_countermodel(logic, c, one_world).found:
            out.append(c)
    return out


def _assert_first_hits(logic, bounds, cases):
    """Each case's search gives the unpruned scan's first hit, or exhausts
    where the scan finds none; the sizes of the witnesses, 0 for none."""
    sizes = Counter()
    for c in cases:
        expected = _unpruned_first_hit(logic, c, bounds)
        out = find_countermodel(logic, c, bounds)
        if expected is None:
            assert out.status is Status.EXHAUSTED, c
        else:
            assert out.found and serialize_pointed(out.witness) == expected, c
        sizes[len(out.witness.model.worlds) if out.found else 0] += 1
    return sizes


def test_sliced_search_matches_unpruned_scan_at_three_worlds():
    bounds = SearchBounds(3, (0, 1))
    cases = _not_refuted_at_one_world(random.Random(29), Logic.C, bounds, PL_CONNS, 12)
    cases += [consecution([], [parse(t)]) for t in ("(p0 -> p1) -> (p1 -> p0)",
                                                     "((p0 -> p1) -> p0) -> p0")]
    sizes = _assert_first_hits(Logic.C, bounds, cases)
    assert sizes[2] and sizes[3] and sizes[0], sizes


def test_sliced_search_across_chunks(monkeypatch):
    # with the real chunk size: one world and nine atoms make 2**18
    # valuations, four chunks; the first valuation that falsifies p0, the
    # outermost atom, opens the second
    c = consecution([], [parse("~p0 -> p1")])
    bounds = SearchBounds(1, tuple(range(9)))
    assert 4 ** 9 > search.CHUNK_BITS == 4 ** 8
    out = find_countermodel(Logic.C, c, bounds)
    assert out.found and out.models == search.CHUNK_BITS + 1
    assert serialize_pointed(out.witness) == _unpruned_first_hit(Logic.C, c, bounds)
    # chunks of at most 16 valuations: a frame with three or four up-closed
    # sets is cut into chunks over the last atom, one with more into single
    # valuations
    monkeypatch.setattr(search, "CHUNK_BITS", 16)
    known = [consecution([], [parse(t)]) for t in ("(p0 -> p1) -> (p1 -> p0)",
                                                    "((p0 -> p1) -> p0) -> p0")]
    for logic, bounds, conns, extra in (
            (Logic.C, SearchBounds(3, (0, 1)), PL_CONNS, known),
            (Logic.CnK, SearchBounds(2, (0, 1)), MD_CONNS, [])):
        cases = _not_refuted_at_one_world(random.Random(33), logic, bounds, conns, 8)
        sizes = _assert_first_hits(logic, bounds, cases + extra)
        assert sizes[2] and sizes[0], sizes
    for logic, c, bounds, evaluated in (
            (Logic.C, _corpus_goal("strong_refl", 0), SearchBounds(3, (0,)), 237),
            (Logic.CnK, _corpus_goal("neg_box_swap", 1), SearchBounds(2, (1,)), 377)):
        out = find_countermodel(logic, c, bounds)
        assert out.status is Status.EXHAUSTED and out.models == evaluated
    # passes of at most 8 models: the discrete frame of CnK on 2 worlds has
    # 16 relations, so each of its valuations takes two passes
    monkeypatch.setattr(search, "CHUNK_BITS", 8)
    bounds = SearchBounds(2, (0, 1))
    cases = _not_refuted_at_one_world(random.Random(33), Logic.CnK, bounds, MD_CONNS, 8)
    sizes = _assert_first_hits(Logic.CnK, bounds, cases)
    assert sizes[2] and sizes[0], sizes
    out = find_countermodel(Logic.CnK, _corpus_goal("neg_box_swap", 1), SearchBounds(2, (1,)))
    assert out.status is Status.EXHAUSTED and out.models == 377


def test_conditional_search_across_passes(monkeypatch):
    # passes of at most 64 models cut most valuations of CnCK and CnCKR on
    # 2 worlds into several, and blocks of indices across passes: the
    # status, the witness and the count of models are those of whole passes;
    # UNPRUNED_VALID, over p0 and p1, at 1 world (176 and 64 models)
    rnd = random.Random(71)
    bounds = SearchBounds(2, (0,), max_cond_indices=2)
    cases = [(logic, consecution([random_formula(rnd, 2, (0,), CN_CONNS)],
                                 [random_formula(rnd, 3, (0,), CN_CONNS)]), bounds)
             for logic in (Logic.CnCK, Logic.CnCK_R) for _ in range(12)]
    cases += [(logic, consecution([], [parse(UNPRUNED_VALID)]), SearchBounds(1))
              for logic in (Logic.CnCK, Logic.CnCK_R)]
    whole = [find_countermodel(*case) for case in cases]
    monkeypatch.setattr(search, "CHUNK_BITS", 64)
    kinds = Counter()
    for (logic, c, bounds), want in zip(cases, whole):
        out = find_countermodel(logic, c, bounds)
        assert (out.status, out.models) == (want.status, want.models), c
        assert not out.found or (serialize_pointed(out.witness)
                                 == serialize_pointed(want.witness)), c
        kinds[consecution_program(c, Kind.COND).pl_antecedents, out.found] += 1
    # both kinds of query, each both refuted and not
    assert len(kinds) == 4, kinds


def _count_calls(monkeypatch, name):
    """Replace search's function of that name by one that also appends its
    arguments to the returned list."""
    calls, real = [], getattr(search, name)

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(search, name, counted)
    return calls


def test_timed_out_sliced_search_counts_the_passes_it_finished(monkeypatch):
    # a clock that moves one second per pass: a limit of 2.5 s stops the
    # search before its fourth pass, and models counts the three run (in
    # CnCK, three valuations of 11 models each)
    passes = _count_calls(monkeypatch, "satisfying_slices")
    monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: float(len(passes))))
    for logic, c, bounds, chunk in (
            (Logic.C, consecution([], [parse("p0 -> p0")]),
             SearchBounds(1, tuple(range(9)), time_limit=2.5), search.CHUNK_BITS),
            (Logic.CnCK, consecution([], [parse(UNPRUNED_VALID)]),
             SearchBounds(2, (0, 1), max_cond_indices=2, time_limit=2.5), 64),
            (Logic.CnK, _corpus_goal("neg_box_swap", 1),
             SearchBounds(2, (1,), time_limit=2.5), 8)):
        monkeypatch.setattr(search, "CHUNK_BITS", chunk)
        passes.clear()
        out = find_countermodel(logic, c, bounds)
        assert out.status is Status.TIMED_OUT and len(passes) == 3
        assert out.models == sum(args[3].bit_length() for args in passes)
    assert out.models < 377


def test_fsm_search_builds_its_rows_once_per_frame(monkeypatch):
    # over p0-p3 at 2 worlds, the discrete frame's 16 relations under the
    # 16**3 valuations of p1-p3 fill a pass of 2**16 models exactly: each of
    # the 4 kept frames builds its rows once, for every valuation of p0
    rows = _count_calls(monkeypatch, "_rows")
    c = consecution([], [parse("(p0 & p1 & p2 & p3) -> []p0 | ~[]p0 | p0")])
    out = find_countermodel(Logic.CnK, c, SearchBounds(2))
    assert out.status is Status.EXHAUSTED and len(rows) == 4


def test_frame_generation_checks_the_deadline(monkeypatch):
    # a clock that moves 10 us per candidate relation: every frame of CnK on
    # 4 worlds has 65,536 candidates, and the 0.2 s limit must stop the
    # search within a few thousand candidates of passing, not after a list
    # of all of them
    tested = _count_calls(monkeypatch, "relation")
    monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: len(tested) * 1e-5))
    out = find_countermodel(Logic.CnK, consecution([], [parse("[]p0 -> []p0")]),
                            SearchBounds(4, (0,), time_limit=0.2))
    assert out.status is Status.TIMED_OUT
    assert 20_000 <= len(tested) <= 20_000 + 4_096, len(tested)


def test_preorder_construction_checks_the_deadline():
    # the 209,527 preorders on 6 worlds and their 718 orbit leaders take
    # about a second to build; the limit stops the build, not the end of
    # the world count
    start = time.monotonic()
    out = find_countermodel(Logic.C, consecution([], [parse("p0 -> p0")]),
                            SearchBounds(6, (0,), time_limit=0.2))
    assert out.status is Status.TIMED_OUT
    assert time.monotonic() - start < 0.4


def test_conditional_classes_search_propositional_queries_as_p():
    # a query without a conditional is evaluated on the index-free models
    # only, which are P's models in P's order: the full enumeration's first
    # hit, and C's count of models
    rnd = random.Random(43)
    bounds = SearchBounds(2, (0, 1), max_cond_indices=1)
    cases = _not_refuted_at_one_world(rnd, Logic.C, bounds, PL_CONNS, 4)
    cases += [consecution([random_formula(rnd, 2, (0, 1), PL_CONNS)],
                          [random_formula(rnd, 3, (0, 1), PL_CONNS)]) for _ in range(3)]
    sizes = Counter()
    for c in cases:
        want = find_countermodel(Logic.C, c, bounds)
        for logic in (Logic.CnCK, Logic.CnCK_R):
            expected = _unpruned_first_hit(logic, c, bounds)
            out = find_countermodel(logic, c, bounds)
            if expected is None:
                assert out.status is Status.EXHAUSTED, c
            else:
                assert out.found and serialize_pointed(out.witness) == expected, c
            assert out.models == want.models, c
        sizes[len(out.witness.model.worlds) if out.found else 0] += 1
    assert sizes[1] and sizes[2] and sizes[0], sizes


def test_large_program_takes_smaller_chunks():
    # ~p0 -> p1 beside a true gamma of 3,300 nodes: a chunk of 2**16
    # valuations would hold about 40 MB of slices, so it takes 2**14; the
    # first hit and its count are those of the query alone
    small = consecution([], [parse("~p0 -> p1")])
    bounds = SearchBounds(1, tuple(range(9)))
    chain, parts = Atom(2), []
    for _ in range(1_100):
        chain = Neg(chain)
        parts.append(Imp(chain, chain))
    while len(parts) > 1:
        parts = [And(*parts[i:i + 2]) if i + 1 < len(parts) else parts[i]
                 for i in range(0, len(parts), 2)]
    c = consecution(parts, small.delta)
    assert len(consecution_program(c, Logic.C.frame_class.kind).nodes) > 3_000
    tracemalloc.start()
    try:
        out = find_countermodel(Logic.C, c, bounds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.found and out.models == search.CHUNK_BITS + 1
    expected = find_countermodel(Logic.C, small, bounds).witness
    assert serialize_pointed(out.witness) == serialize_pointed(expected)
    assert peak < 20 * 2 ** 20, peak


def _corpus_goal(name, offset):
    """The goal of a shipped proof, its atoms shifted up by offset."""
    proof = parse_proof((CORPUS_DIR / f"{name}.prf").read_text())
    return consecution([], [shift_atoms(proof.goals[0], offset)])


def test_search_counts_the_models_it_evaluates():
    # models counts positions in the enumeration, skipped indices aside.
    # The deep first-hit search of the suite: 272,541 models unpruned, and
    # 5,393 with only the indices its propositional antecedents consult
    # (the branch and bound that evaluated 259 of them is gone)
    c = thesis_instance("?=>", Thesis.WNONSYM)
    out = find_countermodel(Logic.CnCK_R, c, DEFAULT_BOUNDS)
    assert out.found and out.models == 5393
    # a conditional antecedent hides which indices are consulted, so every
    # model is evaluated: all those enumerated (92 and 48 under the bound)
    bounds = SearchBounds(1, (0, 1), max_cond_indices=2)
    for logic, evaluated in ((Logic.CnCK, 176), (Logic.CnCK_R, 64)):
        out = find_countermodel(logic, consecution([], [parse(UNPRUNED_VALID)]), bounds)
        assert out.status is Status.EXHAUSTED
        assert out.models == evaluated
        assert sum(1 for _ in _mask_models(logic.frame_class, bounds)) == evaluated
    # no conditional at all: only models without indices are evaluated, 450
    # (the whole P stream) until only one preorder per isomorphism class was
    # searched, 369 since
    out = find_countermodel(Logic.CnCK, consecution([], [parse("p0 -> p0")]),
                            SearchBounds(2, (0, 1), max_cond_indices=2))
    assert out.status is Status.EXHAUSTED
    assert out.models == 369
    assert sum(1 for _ in _mask_models(FrameClass.P, SearchBounds(2, (0, 1)))) == 450
    # exhaustive searches before and after the orbit skip: 674 -> 237,
    # 458 -> 377 and 202 -> 163 models (the last with the index its
    # antecedent consults, which the bound never pruned)
    for logic, c, bounds, evaluated in (
            (Logic.C, _corpus_goal("strong_refl", 0), SearchBounds(3, (0,)), 237),
            (Logic.CnK, _corpus_goal("neg_box_swap", 1), SearchBounds(2, (1,)), 377),
            (Logic.CnCK_R, consecution([], [parse("p0 @> p0")]),
             SearchBounds(2, (0,), max_cond_indices=1), 163)):
        out = find_countermodel(logic, c, bounds)
        assert out.status is Status.EXHAUSTED
        assert out.models == evaluated, logic


def test_fsc_r_enumeration_respects_target_condition():
    bounds = SearchBounds(1, (0,), max_cond_indices=2)
    for m in enumerate_models(FrameClass.FSC_R, bounds):
        for idx, rel in m.access.items():
            assert all(v in idx.pos for (_, v) in rel)


def test_bounds_reject_negative_values():
    with pytest.raises(ValueError):
        SearchBounds(1, max_cond_indices=-3)
    # a NaN limit would never be reached, and an infinite one is no limit
    for limit in (0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SearchBounds(1, time_limit=limit)
    assert SearchBounds(1, max_cond_indices=0).max_cond_indices == 0
    # a repeated atom would search each valuation of it twice over, and no
    # formula has a negative atom
    for atoms in ((0, 0), (1, 0, 1), (-1,), (0, -2)):
        with pytest.raises(ValueError):
            SearchBounds(2, atoms)


def test_enumeration_counts_per_world_count():
    expected = {
        FrameClass.P: {1: 16, 2: 434, 3: 18428},
        FrameClass.FSM: {1: 32, 2: 5682},
        FrameClass.FSC: {1: 176},
        FrameClass.FSC_R: {1: 64},
    }
    for frame, sizes in expected.items():
        bounds = SearchBounds(max(sizes), (0, 1), max_cond_indices=2)
        counts = Counter(len(m.worlds) for m in enumerate_models(frame, bounds))
        assert counts == sizes, frame


def test_enumeration_order_is_pinned():
    # digests of the serialized model sequence as the frozenset-level
    # enumerator of the seed produced it; the first hit of every search
    # depends on this order
    cases = [
        (FrameClass.P, SearchBounds(2, (0, 1)), None,
         "10ccd00cfcb8c581e39bab2ede9cfa42418ad0c8b45aed8e8cbadba2e38f9688"),
        (FrameClass.FSM, SearchBounds(2, (0, 1)), None,
         "2a53c54fdac0263db760e0a3461faa036e5ccfffe7ae5dd75328724f6ab4e89d"),
        (FrameClass.FSC, SearchBounds(2, (0, 1), max_cond_indices=2), 30000,
         "f16c5e61658209a4ca4a9c1f57510f22492dcc097a1cca90be6713180a89e7d9"),
        (FrameClass.FSC_R, SearchBounds(2, (0, 1), max_cond_indices=1), None,
         "c2ba7b8feabb597ff75fae8e99efe94c158e22e6173806340707735efd1c58ee"),
    ]
    for frame, bounds, limit, digest in cases:
        h = hashlib.sha256()
        for m in itertools.islice(enumerate_models(frame, bounds), limit):
            h.update(serialize_model(m).encode())
        assert h.hexdigest() == digest, frame


def _tampered_witnesses():
    """A model that fails P validation, and a valid model whose point does
    not refute the instance."""
    c = consecution([], [parse("p0 -> p0")])
    bad = KripkeModel(Kind.PROP, {"w", "v"}, {("w", "w"), ("v", "v"), ("w", "v")},
                      val_pos={0: {"w"}})
    return c, [PointedModel(bad, "w"), get_fixture("M0")]


def test_tampered_witness_raises_evidence_error():
    c, witnesses = _tampered_witnesses()
    messages = []
    for pm in witnesses:
        with pytest.raises(EvidenceError) as e:
            check_evidence(FrameClass.P, c, pm)
        messages.append(str(e.value))
    assert "fails P validation" in messages[0]
    assert "does not refute" in messages[1]


def test_rulederive_proof_backs_no_consecution():
    # necessitation derives []p0 from p0 across a whole model, but p0 ⊢ []p0
    # fails at a world: the checked rule proof is no evidence for it
    from cnx.proof import Registry, check_proof
    proof = parse_proof("system CnK\nkind rulederive\nhyp p0\ngoal []p0\n"
                        "1 p0 hyp\n2 []p0 nec 1\n")
    assert check_proof(proof, Registry()).ok
    c = consecution([parse("p0")], [parse("[]p0")])
    outcome = find_countermodel(Logic.CnK, c, SearchBounds(2, (0,)))
    assert outcome.status is Status.FOUND
    with pytest.raises(EvidenceError, match="does not prove the instance"):
        check_evidence(FrameClass.FSM, c, proof)


def test_evidence_check_survives_python_O():
    script = textwrap.dedent("""
        import sys
        from test_search import _tampered_witnesses
        from cnx.errors import EvidenceError
        from cnx.model import FrameClass
        from cnx.search import check_evidence
        c, witnesses = _tampered_witnesses()
        for pm in witnesses:
            try:
                check_evidence(FrameClass.P, c, pm)
            except EvidenceError:
                print("raised")
        print("optimize", sys.flags.optimize)
        """)
    here = Path(__file__).resolve().parent
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split("\n") == ["raised", "raised", "optimize 1", ""]
