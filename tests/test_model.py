import itertools
import random

import pytest

from conftest import preorders, random_cond_model, random_modal_model, random_prop_model
from cnx.errors import ModelFormatError, StructuralError, UnknownFixture
from cnx.model import (FIXTURE_CLASS, FIXTURE_NAMES, BiSet, FrameClass, Kind,
                       KripkeModel, bi, close_valuations, closure_faults, fs_faults,
                       get_fixture, load_model, relation, serialize_model,
                       serialize_pointed, succ_masks, transitivity_faults, up_closed,
                       validate_model, world_bits)
from cnx.search import SearchBounds, _mask_models, _world_names


def compose(r, s):
    return {(a, c) for (a, b) in r for (b2, c) in s if b == b2}


def inverse(r):
    return {(b, a) for (a, b) in r}


def test_all_fixtures_validate():
    for name in FIXTURE_NAMES:
        pm = get_fixture(name)
        report = validate_model(pm.model, FIXTURE_CLASS[name])
        assert report.ok, (name, report.violations)


def test_fixture_contents():
    m0 = get_fixture("M0").model
    assert m0.val(0, "+") == {"w"} and m0.val(0, "-") == frozenset()
    assert m0.val(1, "+") == {"w"} and m0.val(1, "-") == {"w"}
    assert m0.val(5, "+") == frozenset()

    m2 = get_fixture("M2").model
    assert set(m2.access) == {bi((), ())}
    assert m2.access[bi((), ())] == {("w", "w")}
    assert not m2.val_pos and not m2.val_neg

    triv = get_fixture("triv").model
    for atom in range(8):
        assert triv.val(atom, "+") == {"w"} and triv.val(atom, "-") == {"w"}


def test_fixture_classes_against_fsc_r():
    assert validate_model(get_fixture("M0c").model, FrameClass.FSC_R).ok
    report = validate_model(get_fixture("M2").model, FrameClass.FSC_R)
    assert not report.ok
    assert any(v.code == "refl-target" and "w" in v.message
               for v in report.violations)
    # the strictly richer conditional fixtures
    assert validate_model(get_fixture("M1c").model, FrameClass.FSC_R).ok
    assert not validate_model(get_fixture("M0c1").model, FrameClass.FSC_R).ok


def test_unknown_fixture():
    with pytest.raises(UnknownFixture):
        get_fixture("M3")


def test_fs_violation_matches_composition_oracle():
    # two-world chain w<=v with modal r={(w,w)}
    m = KripkeModel(Kind.MODAL, {"w", "v"},
                    {("w", "w"), ("v", "v"), ("w", "v")},
                    {("w", "w")})
    report = validate_model(m, FrameClass.FSM)
    assert not report.ok
    codes = {v.code for v in report.violations}
    assert "c2" in codes

    # independent relational-composition oracle over the same frame
    leq, r = set(m.leq), set(m.access)
    c1_holds = compose(inverse(leq), r) <= compose(r, inverse(leq))
    c2_holds = compose(r, leq) <= compose(leq, r)
    assert not c2_holds
    assert c1_holds == ("c1" not in codes)


def test_fs_oracle_agrees_on_random_modal_relations():
    import itertools
    worlds = ("a", "b")
    leq = {("a", "a"), ("b", "b"), ("a", "b")}
    pairs = list(itertools.product(worlds, worlds))
    for mask in range(16):
        r = {p for i, p in enumerate(pairs) if mask >> i & 1}
        m = KripkeModel(Kind.MODAL, worlds, leq, r)
        report = validate_model(m, FrameClass.FSM)
        ok_oracle = (compose(inverse(leq), r) <= compose(r, inverse(leq))
                     and compose(r, leq) <= compose(leq, r))
        got = not any(v.code in ("c1", "c2") for v in report.violations)
        assert got == ok_oracle, (mask, r)


def _relations(worlds):
    """Every relation on worlds, in bitmask order over the pairs."""
    pairs = list(itertools.product(worlds, worlds))
    for mask in range(1 << len(pairs)):
        yield {p for i, p in enumerate(pairs) if mask >> i & 1}


def test_mask_fs_checks_match_the_composition_oracle():
    # every relation on every preorder of at most 3 worlds
    for n in (1, 2, 3):
        worlds = _world_names(n)
        names = tuple(sorted(worlds))
        bit = world_bits(names)
        kept = {}
        for mm in _mask_models(FrameClass.FSM, SearchBounds(n, ())):
            if len(mm.names) == n:
                kept.setdefault(mm.up, []).append(mm.access[None])
        oracle = {}
        for leq in preorders(worlds):
            up = succ_masks(bit, leq)
            oracle[up] = []
            for r in _relations(worlds):
                rel = relation(up, succ_masks(bit, r))
                faults = list(fs_faults(up, rel))
                assert faults == sorted(set(faults))
                got = {code: {tuple(names[i] for i in f) for c, *f in faults if c == code}
                       for code in ("c1", "c2")}
                # the witnesses, from the definition
                assert got["c1"] == {(w, w2, v) for (w, w2) in leq for (u, v) in r if u == w
                                     if not any((w2, v2) in r and (v, v2) in leq
                                                for v2 in worlds)}
                assert got["c2"] == {(w, v, v2) for (w, v) in r for (x, v2) in leq if x == v
                                     if not any((w, w2) in leq and (w2, v2) in r
                                                for w2 in worlds)}
                c1 = compose(inverse(leq), r) <= compose(r, inverse(leq))
                c2 = compose(r, leq) <= compose(leq, r)
                assert (c1, c2) == (not got["c1"], not got["c2"]), (leq, r)
                if c1 and c2:
                    oracle[up].append(rel)
        assert kept == oracle and list(kept) == list(oracle)


def test_mask_preorder_checks_match_the_definition():
    # every relation on at most 3 worlds as leq, preorder or not
    for n in (1, 2, 3):
        names = _world_names(n)
        bit = world_bits(names)
        for leq in _relations(names):
            up = succ_masks(bit, leq)
            got = [tuple(names[i] for i in f) for f in transitivity_faults(up)]
            assert got == sorted({(a, b, d) for (a, b) in leq for (c, d) in leq
                                  if b == c and (a, d) not in leq})
            closed = []
            for s in range(1 << n):
                ws = {w for i, w in enumerate(names) if s >> i & 1}
                got = [tuple(names[i] for i in f) for f in closure_faults(up, s)]
                assert got == sorted((a, b) for (a, b) in leq if a in ws and b not in ws)
                if not got:
                    closed.append(s)
            assert up_closed(up) == closed


def test_empty_conditional_relation_vacuously_valid():
    m = KripkeModel(Kind.COND, {"w"}, {("w", "w")}, {})
    assert validate_model(m, FrameClass.FSC).ok
    assert validate_model(m, FrameClass.FSC_R).ok


def test_kind_class_pairing():
    m = get_fixture("M0").model
    report = validate_model(m, FrameClass.FSM)
    assert not report.ok and report.violations[0].code == "kind-mismatch"


def test_validation_flags_bad_preorder_and_heredity():
    m = KripkeModel(Kind.PROP, {"a", "b", "c"},
                    {("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")},
                    val_pos={0: {"a"}})
    report = validate_model(m, FrameClass.P)
    codes = {v.code for v in report.violations}
    assert "not-transitive" in codes
    assert "heredity" in codes
    closed = close_valuations(m)
    assert closed.val(0, "+") == {"a", "b", "c"}
    assert not any(v.code == "heredity"
                   for v in validate_model(closed, FrameClass.P).violations)


def test_structural_errors():
    with pytest.raises(StructuralError):
        KripkeModel(Kind.PROP, set(), set())
    with pytest.raises(StructuralError):
        KripkeModel(Kind.PROP, {"w"}, {("w", "v")})
    with pytest.raises(StructuralError):
        KripkeModel(Kind.PROP, {"w"}, {("w", "w")}, val_pos={0: {"v"}})
    with pytest.raises(StructuralError):
        KripkeModel(Kind.COND, {"w"}, {("w", "w")},
                    {BiSet(frozenset({"v"}), frozenset()): {("w", "w")}})


def test_model_file_roundtrip_all_fixtures():
    for name in FIXTURE_NAMES:
        pm = get_fixture(name)
        text = serialize_pointed(pm)
        m2, point = load_model(text)
        assert point == pm.point
        assert serialize_model(m2, point) == text
        assert m2.kind is pm.model.kind
        assert m2.worlds == pm.model.worlds
        assert m2.leq == pm.model.leq
        assert m2.val_pos == pm.model.val_pos
        assert m2.val_neg == pm.model.val_neg
        assert m2.access == pm.model.access


def same_model(m1, m2) -> bool:
    return (m1.kind, m1.worlds, m1.leq, m1.access, m1.val_pos, m1.val_neg) == \
        (m2.kind, m2.worlds, m2.leq, m2.access, m2.val_pos, m2.val_neg)


def test_model_file_roundtrip_random_models():
    rnd = random.Random(37)
    kinds = set()
    for make in (random_prop_model, random_modal_model, random_cond_model) * 100:
        m = make(rnd, 3, (0, 1, 2))
        point = rnd.choice(sorted(m.worlds) + [None])
        m2, point2 = load_model(serialize_model(m, point))
        assert same_model(m, m2) and point2 == point
        kinds.add((m.kind, bool(m.access)))
    assert kinds == {(Kind.PROP, False), (Kind.MODAL, False), (Kind.MODAL, True),
                     (Kind.COND, False), (Kind.COND, True)}


@pytest.mark.parametrize("w", ["x#y", "a/b", "a;b", "#", "a b", ""])
def test_world_ids_exclude_the_model_format_syntax(w):
    with pytest.raises(StructuralError, match="bad world id"):
        KripkeModel(Kind.PROP, {w}, {(w, w)})
    with pytest.raises(StructuralError, match="bad world id"):
        KripkeModel(Kind.MODAL, {"v", w}, set())


@pytest.mark.parametrize("text, line, message", [
    ("kind prop\nworld a\nr a a\n", 3, "modal r line in a prop model"),
    ("kind prop\nworld a\nr a / ; / a\n", 3, "cond r line in a prop model"),
    ("kind cond\nworld a\nr a / a ; / a\nr a a\n", 4, "modal r line in a cond model"),
    ("kind modal\nworld a\nr a a\nr a / a ; / a\n", 4, "cond r line in a modal model"),
    # the kind line may come after the r lines
    ("r a a\nr a / ; / a\nworld a\nkind modal\n", 2, "cond r line in a modal model"),
    ("r a / ; / a\nr a a\nworld a\nkind modal\n", 1, "cond r line in a modal model"),
])
def test_model_file_rejects_r_lines_of_another_shape(text, line, message):
    with pytest.raises(ModelFormatError) as e:
        load_model(text)
    assert str(e.value) == f"line {line}: {message}"


def test_model_file_implied_reflexivity_and_comments():
    text = """# chain model
kind prop
world w
world v
leq w v
val+ p0 v      # hereditary upward
"""
    m, point = load_model(text)
    assert point is None
    assert ("w", "w") in m.leq and ("v", "v") in m.leq
    assert validate_model(m, FrameClass.P).ok


def test_model_file_does_not_imply_transitivity():
    text = "kind prop\nworld a\nworld b\nworld c\nleq a b\nleq b c\n"
    m, _ = load_model(text)
    report = validate_model(m, FrameClass.P)
    assert any(v.code == "not-transitive" for v in report.violations)


def test_cond_r_line_with_empty_sides():
    text = "kind cond\nworld w\nr w /  ;  / w\n"
    m, _ = load_model(text)
    assert m.access == {bi((), ()): frozenset({("w", "w")})}
