import random

import pytest

from conftest import (CN_CONNS, MD_CONNS, PL_CONNS, random_cond_model, random_formula,
                      random_modal_model, random_prop_model, ref_sat)
from cnx.errors import LanguageMismatch, UnknownWorld
from cnx.model import BiSet, FrameClass, KripkeModel, get_fixture, masks_of
from cnx.search import SearchBounds, enumerate_models
from cnx.semantics import biextension, check_consecution, consecution, sat
from cnx.syntax import Atom, Neg, WouldTo, parse

p, q = "p0", "p1"


class TestPaperFixtureClaims:
    def test_m0_refutes_contraposition(self):
        m0 = get_fixture("M0").model
        assert not sat(m0, "w", parse("(p0 -> p1) -> (~p1 -> ~p0)"))

    def test_m0_strong_implication_claims(self):
        m0 = get_fixture("M0").model
        assert sat(m0, "w", parse("~(p0 => p1)"))
        assert not sat(m0, "w", parse("p0 => ~p1"))
        assert not sat(m0, "w", parse("(p0 -> p1) -> (p0 => p1)"))
        assert not sat(m0, "w", parse("(p0 -> p1) => (p0 => p1)"))

    def test_m1_negated_implication_claims(self):
        m1 = get_fixture("M1").model
        assert sat(m1, "w", parse("~((p0 & p1) -> p0)"))
        assert not sat(m1, "w", parse("~(p0 -> p0)"))

    def test_m2_refutes_conditional_contradiction(self):
        m2 = get_fixture("M2").model
        f = parse("((p0 & ~p0) @> p0) & ~((p0 & ~p0) @> p0)")
        assert not sat(m2, "w", f)

    def test_m0c_biextensions(self):
        m = get_fixture("M0c").model
        w = frozenset({"w"})
        e = frozenset()
        assert biextension(m, parse("p0")) == BiSet(w, e)
        assert biextension(m, parse("~p1")) == BiSet(w, w)
        assert biextension(m, parse("p0 @> p1")) == BiSet(w, w)
        assert biextension(m, parse("~p1 @> ~p0")) == BiSet(e, w)

    def test_m0c1_refutes_every_conditional_self_denial(self):
        m = get_fixture("M0c1").model
        for conn in ("@>", "?>", "@=>", "?=>"):
            assert not sat(m, "w", parse(f"~(~p0 {conn} p0)")), conn
        # the plain conditionals also lose their consequent-negation theses here
        for conn in ("@>", "?>"):
            assert not sat(m, "w", parse(f"(p0 {conn} ~p0) {conn} ~(p0 {conn} p0)")), conn

    def test_triv_satisfies_everything(self):
        triv = get_fixture("triv").model
        rnd = random.Random(5)
        for _ in range(100):
            f = random_formula(rnd, 5, (0, 1, 2, 3))
            assert sat(triv, "w", f, "+") and sat(triv, "w", f, "-")

    def test_trivm_trivc_satisfy_their_languages(self):
        rnd = random.Random(6)
        trivm = get_fixture("trivm").model
        trivc = get_fixture("trivc").model
        for _ in range(60):
            fm = random_formula(rnd, 4, (0, 1), MD_CONNS)
            fc = random_formula(rnd, 4, (0, 1), CN_CONNS)
            assert sat(trivm, "w", fm, "+") and sat(trivm, "w", fm, "-")
            assert sat(trivc, "w", fc, "+") and sat(trivc, "w", fc, "-")


class TestConsecutions:
    def test_fixture_consecution(self):
        pm = get_fixture("M0")
        assert check_consecution(pm, consecution([parse("p0 -> p1")],
                                                 [parse("p1 -> p0")])) is False
        # gamma satisfied, delta refuted
        assert check_consecution(pm, consecution([parse("p0 -> p1")],
                                                 [parse("~p1 -> ~p0")]))

    def test_empty_consecution_vacuously_satisfied(self):
        pm = get_fixture("M0")
        assert check_consecution(pm, consecution([], []))

    def test_triv_satisfies_any_gamma(self):
        pm = get_fixture("triv")
        rnd = random.Random(11)
        gamma = [random_formula(rnd, 4, (0, 1, 2)) for _ in range(10)]
        assert check_consecution(pm, consecution(gamma, []))


class TestGuards:
    def test_unknown_world(self):
        with pytest.raises(UnknownWorld):
            sat(get_fixture("M0").model, "nope", parse("p0"))

    def test_language_mismatch(self):
        m0 = get_fixture("M0").model
        with pytest.raises(LanguageMismatch):
            sat(m0, "w", parse("[]p0"))
        with pytest.raises(LanguageMismatch):
            sat(get_fixture("M0m").model, "w", parse("p0 @> p1"))
        with pytest.raises(LanguageMismatch):
            sat(get_fixture("M0c").model, "w", parse("[]p0"))
        # mixed rejected everywhere
        from cnx.syntax import And, Box
        with pytest.raises(LanguageMismatch):
            sat(get_fixture("M0c").model, "w",
                And(Box(Atom(0)), WouldTo(Atom(0), Atom(1))))

    def test_pl_ok_on_every_kind(self):
        f = parse("p0 -> ~p1")
        for name in ("M0", "M0m", "M0c"):
            sat(get_fixture(name).model, "w", f)


class TestInvariants:
    def test_negation_swap(self):
        rnd = random.Random(13)
        for maker, conns in ((random_prop_model, None),
                             (random_modal_model, MD_CONNS),
                             (random_cond_model, CN_CONNS)):
            for _ in range(40):
                m = maker(rnd)
                f = random_formula(rnd, 4, (0, 1), conns or (Neg,) + CN_CONNS[1:4])
                ext = biextension(m, f)
                assert biextension(m, Neg(f)) == ext.swap()

    def test_heredity_on_random_models(self):
        rnd = random.Random(17)
        for maker, conns in ((random_prop_model, None),
                             (random_modal_model, MD_CONNS),
                             (random_cond_model, CN_CONNS)):
            for _ in range(40):
                m = maker(rnd)
                f = random_formula(rnd, 4, (0, 1), conns or (Neg,) + CN_CONNS[1:4])
                for sign in "+-":
                    ext = biextension(m, f)
                    ws = ext.pos if sign == "+" else ext.neg
                    for (a, b) in m.leq:
                        if a in ws:
                            assert b in ws, (f, sign, a, b)

    def test_antecedent_replacement(self):
        # conditional clauses depend on the antecedent only through its
        # bi-extension
        rnd = random.Random(19)
        for _ in range(60):
            m = random_cond_model(rnd)
            a = random_formula(rnd, 3, (0, 1), CN_CONNS)
            b = random_formula(rnd, 3, (0, 1), CN_CONNS)
            if biextension(m, a) != biextension(m, b):
                continue
            c = random_formula(rnd, 2, (0, 1), CN_CONNS)
            assert (biextension(m, WouldTo(a, c))
                    == biextension(m, WouldTo(b, c)))

    def test_pl_satisfaction_stable_across_extensions(self):
        rnd = random.Random(23)
        m0 = get_fixture("M0").model
        m0m = get_fixture("M0m").model
        m0c = get_fixture("M0c").model
        for _ in range(60):
            f = random_formula(rnd, 4, (0, 1))
            assert biextension(m0, f) == biextension(m0m, f) == biextension(m0c, f)

    def test_memoization_transparency(self):
        # same results no matter what was evaluated before, and on a fresh
        # equal model
        f1 = parse("(p0 @> p1) & ~(p1 @> p0)")
        f2 = parse("p0 @> p1")
        m = get_fixture("M0c").model
        fresh = KripkeModel(m.kind, m.worlds, m.leq, dict(m.access),
                            m.val_pos, m.val_neg)
        a = biextension(m, f1), biextension(m, f2)
        b = biextension(fresh, f2), biextension(fresh, f1)
        assert a == (b[1], b[0])


class TestAgainstReference:
    """The bitset evaluator against conftest.ref_sat, the satisfaction
    relation from the definition over frozensets, on both signs."""

    @staticmethod
    def _agree(models, conns, seed, per_model, depth=4):
        rnd = random.Random(seed)
        checked = 0
        for m in models:
            fresh = KripkeModel(m.kind, m.worlds, m.leq, m.access, m.val_pos, m.val_neg)
            # the mask form the enumerator attached is the one the model decodes to
            assert masks_of(fresh) == masks_of(m)
            for _ in range(per_model):
                f = random_formula(rnd, depth, (0, 1), conns)
                ext = biextension(m, f)
                for w in sorted(m.worlds):
                    for sign, side in (("+", ext.pos), ("-", ext.neg)):
                        expected = ref_sat(m, w, f, sign)
                        assert (w in side) == expected == sat(m, w, f, sign), (f, sign, w)
            checked += 1
        return checked

    def test_every_p_and_fsm_model_of_two_worlds(self):
        bounds = SearchBounds(2, (0, 1))
        assert self._agree(enumerate_models(FrameClass.P, bounds), PL_CONNS, 31, 3) == 450
        assert self._agree(enumerate_models(FrameClass.FSM, bounds), MD_CONNS, 37, 2) == 5714

    def test_every_fsc_r_model_of_two_worlds_at_one_index(self):
        bounds = SearchBounds(2, (0, 1), max_cond_indices=1)
        models = enumerate_models(FrameClass.FSC_R, bounds)
        assert self._agree(models, CN_CONNS, 41, 1, depth=3) == 27070

    def test_sample_of_two_world_fsc_models(self):
        rnd = random.Random(43)
        bounds = SearchBounds(2, (0, 1), max_cond_indices=1)
        models = [m for m in enumerate_models(FrameClass.FSC, bounds)
                  if len(m.worlds) == 2 and rnd.random() < 0.03]
        assert self._agree(models, CN_CONNS, 43, 3) == len(models) > 2000

    def test_hand_built_models(self):
        # models with unsorted, non-enumerator world names and several indices
        rnd = random.Random(47)
        for maker, conns in ((random_prop_model, PL_CONNS),
                             (random_modal_model, MD_CONNS),
                             (random_cond_model, CN_CONNS)):
            models = [maker(rnd, max_worlds=3) for _ in range(60)]
            self._agree(models, conns, 53, 3)

