import random

import pytest

from conftest import (MD_CONNS, random_cond_model, random_formula,
                      random_modal_model, random_prop_model, shift_atoms)
from cnx.errors import KindMismatch, LanguageMismatch, TooManyWorlds
from cnx.model import (FrameClass, Kind, KripkeModel, PointedModel, bi,
                       get_fixture, serialize_model, validate_model)
from cnx.search import SearchBounds, enumerate_models
from cnx.semantics import biextension, sat
from cnx.syntax import Atom, parse, render
from cnx.transform import (CLOSED, FULL, conditional_to_modal, dp_join,
                           extend_refuting_would, i_translate,
                           modal_to_conditional, refl, tr_phi)

rr = frozenset({("w", "w")})


class TestFormulaTranslations:
    def test_tr_phi_examples(self):
        assert tr_phi(parse("p0"), parse("[]p1")) == parse("p0 @> p1")
        assert tr_phi(parse("p0"), parse("<>(p1 -> p2)")) == parse("p0 ?> (p1 -> p2)")
        assert tr_phi(parse("p0 & p1"), parse("~[]p0")) == parse("~((p0 & p1) @> p0)")

    def test_tr_phi_nested(self):
        assert tr_phi(parse("p0"), parse("[]<>p1")) == parse("p0 @> (p0 ?> p1)")

    def test_i_translate_examples(self):
        assert i_translate(parse("p0 @> p1")) == parse("[](p0 -> p1)")
        assert i_translate(parse("p0 ?> p1")) == parse("<>(p0 & p1)")
        assert i_translate(parse("p0 ?> (p1 & p2)")) == parse("<>(p0 & (p1 & p2))")

    def test_language_gates(self):
        with pytest.raises(LanguageMismatch):
            tr_phi(parse("p0"), parse("p0 @> p1"))
        with pytest.raises(LanguageMismatch):
            i_translate(parse("[]p0"))


class TestLifts:
    def test_full_lift_on_m0m(self):
        m = modal_to_conditional(get_fixture("M0m").model, FULL)
        assert len(m.access) == 4
        assert all(rel == rr for rel in m.access.values())
        assert validate_model(m, FrameClass.FSC).ok

    def test_closed_lift_on_m0m(self):
        m = modal_to_conditional(get_fixture("M0m").model, CLOSED)
        assert m.access == {bi({"w"}, ()): rr, bi({"w"}, {"w"}): rr}
        assert validate_model(m, FrameClass.FSC_R).ok

    def test_refl_lift_on_m0m(self):
        m = modal_to_conditional(get_fixture("M0m").model, refl(parse("p0 -> p0")))
        assert m.access == {bi({"w"}, ()): rr, bi({"w"}, {"w"}): rr}
        assert validate_model(m, FrameClass.FSC_R).ok

    def test_full_lift_world_cap(self):
        worlds = {f"w{i}" for i in range(5)}
        m = KripkeModel(Kind.MODAL, worlds, {(w, w) for w in worlds}, set())
        with pytest.raises(TooManyWorlds):
            modal_to_conditional(m, FULL)

    def test_full_lift_faithfulness_random(self):
        rnd = random.Random(3)
        anchor = Atom(0)
        for _ in range(40):
            m = random_modal_model(rnd)
            lift = modal_to_conditional(m, FULL)
            f = random_formula(rnd, 3, (0, 1), MD_CONNS)
            tf = tr_phi(anchor, f)
            for w in m.worlds:
                for sign in "+-":
                    assert sat(m, w, f, sign) == sat(lift, w, tf, sign)

    def test_refl_lift_anchor_everywhere(self):
        rnd = random.Random(4)
        anchor = parse("p0 -> p0")
        for _ in range(30):
            m = random_modal_model(rnd)
            lift = modal_to_conditional(m, refl(anchor))
            assert biextension(lift, anchor).pos == lift.worlds
            f = random_formula(rnd, 3, (0, 1), MD_CONNS)
            tf = tr_phi(anchor, f)
            for w in m.worlds:
                for sign in "+-":
                    assert sat(m, w, f, sign) == sat(lift, w, tf, sign)

    def test_translation_lemmas_on_every_small_modal_model(self):
        # on every FSM model of at most 2 worlds over p0, under each lift
        # with its anchor: []p0 and <>p0 have the bi-extensions of their
        # tr_phi images on the lift (so [] is @> at the anchor's index, as
        # the evaluator reads it), and the slice at the anchor gives the
        # model's relation back
        modes = ((FULL, parse("p0")), (CLOSED, parse("p0 -> p0")),
                 (refl(parse("p0 -> p0")), parse("p0 -> p0")))
        models = list(enumerate_models(FrameClass.FSM, SearchBounds(2, (0,))))
        assert len(models) == 458
        for m in models:
            for mode, anchor in modes:
                lift = modal_to_conditional(m, mode)
                for f in (parse("[]p0"), parse("<>p0")):
                    assert biextension(m, f) == biextension(lift, tr_phi(anchor, f)), (m, mode)
                assert conditional_to_modal(lift, anchor).access == m.access, (m, mode)


class TestSlice:
    def test_slice_examples_on_fixtures(self):
        m0c = get_fixture("M0c").model
        assert conditional_to_modal(m0c, parse("p0")).access == rr
        assert conditional_to_modal(m0c, parse("p1")).access == rr
        m2 = get_fixture("M2").model
        assert conditional_to_modal(m2, parse("p0")).access == rr

    def test_slice_faithfulness_on_fixtures(self):
        rnd = random.Random(8)
        anchors = [parse("p0"), parse("p0 & p1"), parse("~p0")]
        for name in ("M0c", "M0c1", "M1c", "M2", "trivc"):
            m = get_fixture(name).model
            for anchor in anchors:
                sliced = conditional_to_modal(m, anchor)
                assert validate_model(sliced, FrameClass.FSM).ok
                for _ in range(25):
                    f = random_formula(rnd, 3, (0, 1), MD_CONNS)
                    tf = tr_phi(anchor, f)
                    for w in m.worlds:
                        for sign in "+-":
                            assert sat(sliced, w, f, sign) == sat(m, w, tf, sign)


class TestDpJoin:
    def test_prop_join_shape(self):
        res = dp_join(get_fixture("M0"), get_fixture("M0"))
        m = res.pointed.model
        assert len(m.worlds) == 3
        assert res.pointed.point not in ("w", res.right_point)
        assert validate_model(m, FrameClass.P).ok
        # root is strictly below both branch points
        assert (res.pointed.point, res.left_point) in m.leq
        assert (res.pointed.point, res.right_point) in m.leq
        # colliding atoms were shifted
        assert res.atom_offset == 2

    def test_prop_join_refutes_disjunction(self):
        res = dp_join(get_fixture("M0"), get_fixture("M0"))
        f = parse("(p0 -> p1) -> (~p1 -> ~p0)")
        g = shift_atoms(f, res.atom_offset)
        m = res.pointed.model
        assert not sat(m, res.left_point, f)
        assert not sat(m, res.right_point, g)
        from cnx.syntax import Or
        assert not sat(m, res.pointed.point, Or(f, g))

    def test_component_preservation_prop(self):
        rnd = random.Random(41)
        for _ in range(25):
            m1 = random_prop_model(rnd)
            m2 = random_prop_model(rnd)
            pm1 = PointedModel(m1, sorted(m1.worlds)[0])
            pm2 = PointedModel(m2, sorted(m2.worlds)[0])
            res = dp_join(pm1, pm2)
            joined = res.pointed.model
            for _ in range(15):
                f = random_formula(rnd, 4, (0, 1))
                for sign in "+-":
                    for v in m1.worlds:
                        assert sat(m1, v, f, sign) == sat(joined, v, f, sign)
                    g = shift_atoms(f, res.atom_offset)
                    for v in m2.worlds:
                        assert sat(m2, v, f, sign) == \
                            sat(joined, res.right_world_map[v], g, sign)

    def test_modal_and_cond_join_validate(self):
        res = dp_join(get_fixture("M0m"), get_fixture("M1m"))
        assert validate_model(res.pointed.model, FrameClass.FSM).ok
        res = dp_join(get_fixture("M0c"), get_fixture("M2"))
        assert validate_model(res.pointed.model, FrameClass.FSC).ok
        # each component's indices, extended by every bi-set over the worlds
        # outside it
        assert serialize_model(res.pointed.model) == (
            "kind cond\nworld root\nworld w\nworld w'\nleq root w\nleq root w'\nr w' /  ;  / w'\n"
            "r w' /  ; root / w'\nr w' /  ; root w / w'\nr w' /  ; w / w'\nr w' / root ;  / w'\n"
            "r w' / root ; root / w'\nr w' / root ; root w / w'\nr w' / root ; w / w'\n"
            "r w / root w ;  / w\nr w' / root w ;  / w'\nr w / root w ; root / w\n"
            "r w' / root w ; root / w'\nr w / root w ; root w / w\nr w' / root w ; root w / w'\n"
            "r w / root w ; root w w' / w\nr w / root w ; root w' / w\nr w / root w ; w / w\n"
            "r w' / root w ; w / w'\nr w / root w ; w w' / w\nr w / root w ; w' / w\n"
            "r w / root w w' ;  / w\nr w / root w w' ; root / w\nr w / root w w' ; root w / w\n"
            "r w / root w w' ; root w w' / w\nr w / root w w' ; root w' / w\n"
            "r w / root w w' ; w / w\nr w / root w w' ; w w' / w\nr w / root w w' ; w' / w\n"
            "r w / w ;  / w\nr w' / w ;  / w'\nr w / w ; root / w\nr w' / w ; root / w'\n"
            "r w / w ; root w / w\nr w' / w ; root w / w'\nr w / w ; root w w' / w\n"
            "r w / w ; root w' / w\nr w / w ; w / w\nr w' / w ; w / w'\nr w / w ; w w' / w\n"
            "r w / w ; w' / w\nr w / w w' ;  / w\nr w / w w' ; root / w\n"
            "r w / w w' ; root w / w\nr w / w w' ; root w w' / w\nr w / w w' ; root w' / w\n"
            "r w / w w' ; w / w\nr w / w w' ; w w' / w\nr w / w w' ; w' / w\nval+ p0 w\n"
            "val+ p1 w\nval- p1 w\n")

    def test_triv_join_preserves_component_satisfaction(self):
        res = dp_join(get_fixture("triv"), get_fixture("triv"))
        m = res.pointed.model
        rnd = random.Random(43)
        for _ in range(20):
            f = random_formula(rnd, 3, (0, 1))
            assert sat(m, res.left_point, f)
            assert sat(m, res.right_point, shift_atoms(f, res.atom_offset))

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatch):
            dp_join(get_fixture("M0"), get_fixture("M0m"))


class TestInterpretation:
    def test_i_images_of_conditional_theorems_survive_bounded_search(self):
        # a shipped sample of conditional-logic theorem instances whose
        # modal interpretations admit no small countermodel
        from cnx.logics import Logic
        from cnx.proof import AXIOMS, instantiate
        from cnx.search import SearchBounds, Status, find_countermodel
        from cnx.semantics import consecution
        from cnx.corpus import corpus_proof

        p0, p1 = Atom(0), Atom(1)
        sample = [instantiate(AXIOMS[name], {"phi": p0, "psi": p1, "chi": p1})
                  for name in ("g1", "g2", "g3", "g5", "g6")]
        sample += [corpus_proof("neg_would_swap").goals[0]]
        for f in sample:
            image = i_translate(f)
            out = find_countermodel(Logic.CnK, consecution([], [image]),
                                    SearchBounds(2, (0, 1)))
            assert out.status is Status.EXHAUSTED, render(f)

    def test_i_translation_is_not_faithful_for_negated_might(self):
        # Falsifying a diamond needs only some successor falsifying its body,
        # while falsifying a might-conditional runs through the antecedent's
        # bi-extension: the interpreted image of the might-negation axiom has
        # a one-world modal countermodel even though the original is valid.
        from cnx.logics import Logic
        from cnx.proof import AXIOMS, instantiate
        from cnx.search import SearchBounds, Status, find_countermodel
        from cnx.semantics import consecution

        original = instantiate(AXIOMS["g7"], {"phi": Atom(0), "psi": Atom(1)})
        out = find_countermodel(Logic.CnCK, consecution([], [original]),
                                SearchBounds(2, (0, 1), max_cond_indices=1))
        assert out.status is Status.EXHAUSTED
        out = find_countermodel(Logic.CnK,
                                consecution([], [i_translate(original)]),
                                SearchBounds(1, (0, 1)))
        assert out.status is Status.FOUND
        m = out.witness.model
        assert len(m.worlds) == 1 and m.val(1, "-")

    def test_i_image_separates_on_the_vice_versa_witnesses(self):
        # the interpretation direction is strict: these hold modally but not
        # conditionally
        from cnx.logics import Logic
        from cnx.search import SearchBounds, Status, find_countermodel
        from cnx.semantics import consecution

        for gamma, delta in ((parse("p0 ?> (p1 & p2)"), parse("(p0 & p1) ?> p2")),
                             (parse("p0 @> (p1 -> p2)"), parse("(p0 & p1) @> p2"))):
            out = find_countermodel(
                Logic.CnK,
                consecution([i_translate(gamma)], [i_translate(delta)]),
                SearchBounds(2, (0, 1, 2)))
            assert out.status is Status.EXHAUSTED
            out = find_countermodel(Logic.CnCK,
                                    consecution([gamma], [delta]),
                                    SearchBounds(2, (0, 1, 2)))
            assert out.status is Status.FOUND


class TestRootedWouldExtension:
    def test_basic_construction(self):
        # a conditional countermodel to p0 | ~p0 at its point
        base = KripkeModel(Kind.COND, {"w"}, {("w", "w")}, {})
        psi = parse("p0 | ~p0")
        assert not sat(base, "w", psi)
        out = extend_refuting_would(PointedModel(base, "w"), parse("p0"))
        assert validate_model(out.model, FrameClass.FSC).ok
        assert not sat(out.model, out.point, parse("p0 @> (p0 | ~p0)"))
        # M1c's one index and p0's bi-extension, each extended by every
        # bi-set over the new world v'
        out = extend_refuting_would(get_fixture("M1c"), parse("p0"))
        assert out.point == "v'"
        assert serialize_model(out.model) == (
            "kind cond\nworld v\nworld v'\nworld w\nleq w v\nr v' / v v' w ; v / v\n"
            "r v' / v v' w ; v / w\nr v' / v v' w ; v v' / v\nr v' / v v' w ; v v' / w\n"
            "r v / v v' w ; v v' w / v\nr w / v v' w ; v v' w / w\nr v / v v' w ; v w / v\n"
            "r w / v v' w ; v w / w\nr v' / v w ; v / v\nr v' / v w ; v / w\n"
            "r v' / v w ; v v' / v\nr v' / v w ; v v' / w\nr v / v w ; v v' w / v\n"
            "r w / v w ; v v' w / w\nr v / v w ; v w / v\nr w / v w ; v w / w\nval+ p0 v w\n"
            "val+ p1 v\nval- p0 v\n")

    def test_inner_satisfaction_untouched(self):
        rnd = random.Random(47)
        from conftest import CN_CONNS
        for _ in range(15):
            m = random_cond_model(rnd)
            point = sorted(m.worlds)[0]
            out = extend_refuting_would(PointedModel(m, point), Atom(0))
            for _ in range(10):
                f = random_formula(rnd, 3, (0, 1), CN_CONNS)
                for w in m.worlds:
                    for sign in "+-":
                        assert sat(m, w, f, sign) == sat(out.model, w, f, sign)
