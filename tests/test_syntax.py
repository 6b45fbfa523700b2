import random

import pytest

from conftest import CN_CONNS, MD_CONNS, PL_CONNS, random_formula
from cnx.errors import FormulaSyntaxError
from cnx.model import get_fixture
from cnx.semantics import sat
from cnx.syntax import (MAX_DEPTH, And, Atom, Box, Dia, Imp, LanguageTag,
                        MightTo, Neg, Or, WouldTo, atoms_of, depth, language_of,
                        parse, render, strong_iff, substitute)

p0, p1, p2 = Atom(0), Atom(1), Atom(2)


def test_grammar_reading():
    assert parse("~(p0 -> p1)") == Neg(Imp(p0, p1))
    assert parse("p3") == Atom(3)
    assert parse("[]p0") == Box(p0)
    assert parse("<>p0 | p1") == Or(Dia(p0), p1)


def test_sugar_expansion():
    assert parse("p0 => p1") == And(Imp(p0, p1), Imp(Neg(p1), Neg(p0)))
    assert parse("p0 #=> p1") == Box(And(Imp(p0, p1), Imp(Neg(p1), Neg(p0))))
    assert parse("p0 @=> p1") == And(WouldTo(p0, p1), WouldTo(Neg(p1), Neg(p0)))
    assert parse("p0 ?=> p1") == And(MightTo(p0, p1), MightTo(Neg(p1), Neg(p0)))
    assert parse("p0 #> p1") == Box(Imp(p0, p1))
    assert parse("p0 <-> p1") == And(Imp(p0, p1), Imp(p1, p0))
    # <=> expands strong implications in both directions, left one first
    assert parse("p0 <=> p1") == strong_iff(p0, p1)
    assert parse("p0 <#> p1") == And(Box(Imp(p0, p1)), Box(Imp(p1, p0)))


def test_precedence_and_associativity():
    assert parse("p0 & p1 | p2") == Or(And(p0, p1), p2)
    assert parse("p0 & p1 & p2") == And(And(p0, p1), p2)
    assert parse("p0 | p1 | p2") == Or(Or(p0, p1), p2)
    assert parse("p0 -> p1 -> p2") == Imp(p0, Imp(p1, p2))
    assert parse("~p0 & p1") == And(Neg(p0), p1)
    assert parse("[]p0 -> p1") == Imp(Box(p0), p1)
    # the arrow family shares one right-associative level
    assert parse("p0 -> p1 @> p2") == Imp(p0, WouldTo(p1, p2))


def test_equivalences_do_not_associate():
    with pytest.raises(FormulaSyntaxError):
        parse("p0 <-> p1 <-> p2")
    parse("(p0 <-> p1) <-> p2")  # fine with parentheses


def test_render_examples():
    assert render(Neg(Imp(p0, p1))) == "~((p0 -> p1))"
    assert render(Atom(3)) == "p3"
    assert render(WouldTo(p0, And(p1, p2))) == "(p0 @> (p1 & p2))"


def test_roundtrip_random():
    rnd = random.Random(42)
    for conns in (PL_CONNS, MD_CONNS, CN_CONNS):
        for _ in range(150):
            f = random_formula(rnd, 6, (0, 1, 2), conns)
            assert parse(render(f)) == f


def test_rendered_output_never_reexpands():
    for text in ("p0 => p1", "p0 @=> p1", "p0 <=> p1", "p0 <#=> p1"):
        f = parse(text)
        assert parse(render(f)) == f
        assert render(parse(render(f))) == render(f)


def test_substitute():
    # (p -> q)[~p / q]
    assert substitute(Imp(p0, p1), Neg(p0), 1) == Imp(p0, Neg(p0))
    # untouched atom
    assert substitute(p1, Neg(p0), 0) == p1
    # homomorphic through conditionals
    assert substitute(WouldTo(p0, p0), Box(p0), 0) == WouldTo(Box(p0), Box(p0))


def test_substitute_preserves_language():
    rnd = random.Random(9)
    for conns, tag in ((CN_CONNS, LanguageTag.CN), (MD_CONNS, LanguageTag.MD)):
        for _ in range(60):
            phi = random_formula(rnd, 4, (0, 1), conns)
            psi = random_formula(rnd, 3, (0, 1), conns)
            out = substitute(phi, psi, 0)
            assert language_of(out) in (tag, LanguageTag.PL)


def test_language_classification():
    assert language_of(Imp(p0, p1)) is LanguageTag.PL
    assert language_of(Box(p0)) is LanguageTag.MD
    assert language_of(WouldTo(p0, p1)) is LanguageTag.CN
    assert language_of(And(Box(p0), MightTo(p0, p1))) is LanguageTag.MIXED
    # mixed formulas still parse
    assert language_of(parse("[]p0 & (p0 ?> p1)")) is LanguageTag.MIXED


def test_syntax_errors_carry_offsets():
    with pytest.raises(FormulaSyntaxError) as e:
        parse("p0 -> ")
    assert e.value.offset == 6
    with pytest.raises(FormulaSyntaxError) as e:
        parse("p0 $ p1")
    assert e.value.offset == 3
    with pytest.raises(FormulaSyntaxError) as e:
        parse("(p0 -> p1")
    assert e.value.expected == "')'"


def test_atoms_of():
    assert atoms_of(parse("p0 -> (p3 & p0)")) == {0, 3}


def test_nesting_cap():
    deepest = ["~" * MAX_DEPTH + "p0",
               "(" * MAX_DEPTH + "p0" + ")" * MAX_DEPTH,
               " & ".join(["p0"] * (MAX_DEPTH + 1)),
               " -> ".join(["p0"] * (MAX_DEPTH + 1)),
               "[](" * MAX_DEPTH + "p0" + ")" * MAX_DEPTH]
    m = get_fixture("trivm").model
    for text in deepest:
        f = parse(text)
        assert depth(f) <= MAX_DEPTH
        assert parse(render(f)) == f
        assert sat(m, "w", f)
    for text in ["~" + deepest[0], "(" + deepest[1] + ")", deepest[2] + " & p0",
                 "p0 -> " + deepest[3], "[]" + deepest[4],
                 "~" * 3000 + "p0", "(" * 3000 + "p0" + ")" * 3000,
                 "(p0 <=> " * 30 + "p0" + ")" * 30]:
        with pytest.raises(FormulaSyntaxError, match="nested more than"):
            parse(text)
