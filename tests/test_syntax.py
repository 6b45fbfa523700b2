import copy
import gc
import pickle
import random
import sys
import time
import tracemalloc
import weakref

import pytest

from conftest import (CN_CONNS, MD_CONNS, PL_CONNS, random_cond_model, random_formula,
                      random_modal_model, random_prop_model, ref_lex, ref_parse,
                      ref_parse_prefix)
from cnx.corpus import CORPUS_DIR
from cnx.errors import FormulaSyntaxError
from cnx.model import LANGUAGES, KripkeModel, get_fixture
from cnx.proof import AXIOMS, instantiate, match_scheme, parse_proof
from cnx.semantics import biextension, sat
from cnx.syntax import (MAX_DEPTH, SUGAR, And, Atom, Box, Dia, Imp, LanguageTag,
                        MightTo, Neg, Or, Parser, WouldTo, atoms_of, check_lexable,
                        _NODES, depth, language_of, map_formula, parse, render, strong_iff,
                        strong_strict_imp, strong_would, subformulas, substitute)
from cnx.transform import i_translate, tr_phi

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


def tree_map(f, fn):
    """map_formula from its definition, walking f as a tree."""
    cls = type(f)
    if cls in (Neg, Box, Dia):
        return fn(cls(tree_map(f.body, fn)))
    if cls is not Atom:
        return fn(cls(tree_map(f.left, fn), tree_map(f.right, fn)))
    return fn(f)


def tree_depth(f):
    match f:
        case Atom(_):
            return 0
        case Neg(b) | Box(b) | Dia(b):
            return 1 + tree_depth(b)
    return 1 + max(tree_depth(f.left), tree_depth(f.right))


def shared_formula(rnd, levels):
    """A random formula built by the sugar connectives, which share their
    operands, and sometimes with both operands one formula."""
    if levels == 0:
        return random_formula(rnd, 2, (0, 1, 2), CN_CONNS + (Box, Dia))
    a = shared_formula(rnd, levels - 1)
    b = a if rnd.random() < 0.3 else shared_formula(rnd, levels - 1)
    return rnd.choice(list(SUGAR.values()) + [And, WouldTo])(a, b)


def test_map_formula_and_depth_match_a_tree_walk():
    rnd = random.Random(23)
    fns = [lambda g: Dia(g.body) if type(g) is Box else g,
           lambda g: Box(Imp(g.left, g.right)) if type(g) is WouldTo else g,
           lambda g: Atom(g.index + 1) if type(g) is Atom else g]
    for _ in range(150):
        f = shared_formula(rnd, rnd.randint(0, 3))
        assert depth(f) == tree_depth(f)
        psi = random_formula(rnd, 2, (0, 1), PL_CONNS)
        assert substitute(f, psi, 1) == tree_map(f, lambda g: psi if g == p1 else g)
        for fn in fns:
            assert map_formula(f, fn) == tree_map(f, fn)


def test_formula_equality_matches_the_tree():
    # repr spells out the tree, shared nodes once per occurrence
    for seed in range(100):
        f, g = (shared_formula(random.Random(seed), 3) for _ in range(2))
        assert f is g and f == g and not f != g
        h = shared_formula(random.Random(seed + 1), 3)
        assert (f == h) == (repr(f) == repr(h)) == (not f != h)


def test_formula_equality_compares_shared_nodes_once():
    # walked as a tree, == of two parses took 0.04 s at 7 levels and 4 times
    # as long for each level more
    chain = "(p1 <=> " * 11 + "p0" + ")" * 11
    f = parse(chain)
    for other, equal in ((parse(chain), True), (parse(chain.replace("p0", "p2")), False)):
        assert (f is other) is equal
        start = time.perf_counter()
        assert (f == other) is equal
        assert time.perf_counter() - start < 1


def test_equal_formulas_are_one_object():
    # formulas are interned, so whichever way a formula is built, an equal
    # one is the same node
    text = "[](p0 => p1) & (p2 @=> ~p0)"
    f = parse(text)
    builds = [
        parse(text),
        parse(render(f)),
        Parser(f"{text} ok", {}).formula(),
        And(Box(And(Imp(p0, p1), Imp(Neg(p1), Neg(p0)))),
            And(WouldTo(p2, Neg(p0)), WouldTo(Neg(Neg(p0)), Neg(p2)))),
        And(right=strong_would(p2, Neg(p0)), left=strong_strict_imp(p0, p1)),
        substitute(parse("[](p0 => p1) & (p3 @=> ~p0)"), p2, 3),
        map_formula(parse("<>(p0 => p1) & (p2 @=> ~p0)"),
                    lambda g: Box(g.body) if type(g) is Dia else g),
        instantiate(parse("p0 & (p1 @=> ~p2)"), {"phi": f.left, "psi": p2, "chi": p0}),
        copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f)),
    ]
    for g in builds:
        assert g is f
    a1 = instantiate(AXIOMS["a1"], {"phi": f, "psi": p1})
    assert a1 is parse(f"({text}) -> (p1 -> ({text}))")
    assert match_scheme(a1, AXIOMS["a1"]) == {"phi": f, "psi": p1}
    assert tr_phi(p0, Box(f.left.body)) is WouldTo(p0, f.left.body)
    assert tr_phi(p2, parse("[]p0 -> <>p1")) is parse("(p2 @> p0) -> (p2 ?> p1)")
    # equal fields of another class, or of a twin record, are another formula
    assert Neg(p0) is not Box(p0) and Imp(p0, p1) is not WouldTo(p0, p1)
    assert Atom(0) is p0 and Atom(index=0) is p0


def test_dropped_formulas_leave_the_table():
    gc.collect()
    before = len(_NODES)
    f = parse("p900001 -> (p900002 & ~p900001)")
    nodes = [f, f.left, f.right, f.right.left, f.right.right]
    assert len(_NODES) == before + len(nodes)
    assert sorted(id(r()) for r in _NODES.values() if r() in nodes) == sorted(map(id, nodes))
    refs = [weakref.ref(g) for g in nodes]
    del f, nodes
    gc.collect()
    assert all(r() is None for r in refs)
    assert len(_NODES) == before
    assert not any(k[0] is Atom and k[1] > 900_000 for k in _NODES)
    # built again, it is a new node, which the table holds
    g = parse("p900001 -> (p900002 & ~p900001)")
    assert _NODES[(Imp, g.left, g.right)]() is g


def test_building_a_formula_runs_no_other_python_function():
    # neither finding a node in the table nor adding one runs Python code
    # but Formula.__new__ (no __hash__ of a child, no weak reference's __init__)
    f = parse("(p0 -> ~p1) & [](p2 @> p0)")
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        found = [And(f.left, f.right), Imp(p0, f.left.right), Neg(p1), Atom(2),
                 Box(f.right.body), WouldTo(p2, p0)]
        built = MightTo(f.right, Neg(Atom(900_003)))
    finally:
        sys.setprofile(None)
    assert found == [f, f.left, f.left.right, p2, f.right, f.right.body]
    assert built.right.body.index == 900_003
    assert calls == ["__new__"] * (len(found) + 3)


def tree_language(f):
    """language_of from its definition: which operators occur in f's tree."""
    def classes(g):
        if type(g) is Atom:
            return set()
        return {type(g)}.union(*map(classes, children(g)))
    found = classes(f)
    modal, cond = bool(found & {Box, Dia}), bool(found & {WouldTo, MightTo})
    return {(False, False): LanguageTag.PL, (True, False): LanguageTag.MD,
            (False, True): LanguageTag.CN, (True, True): LanguageTag.MIXED}[modal, cond]


def children(g):
    if type(g) is Atom:
        return ()
    if type(g) in (Neg, Box, Dia):
        return (g.body,)
    return (g.left, g.right)


def ref_subformulas(*roots):
    """subformulas from its definition: a recursive walk that lists each node
    when it is done with the node's children, and skips a node listed before."""
    out = []

    def visit(g):
        if g not in out:
            for c in children(g):
                visit(c)
            out.append(g)

    for f in roots:
        visit(f)
    return out


def corpus_formulas():
    """Every hypothesis, goal and line formula of the corpus files."""
    out = []
    for path in sorted(CORPUS_DIR.rglob("*.prf")):
        proof = parse_proof(path.read_text())
        out += proof.hypotheses + proof.goals + tuple(l.formula for l in proof.lines)
    return out


def ref_render(f):
    """render from its definition, recursing through the tree."""
    if type(f) is Atom:
        return f"p{f.index}"
    if type(f) in (Neg, Box, Dia):
        return {Neg: "~", Box: "[]", Dia: "<>"}[type(f)] + f"({ref_render(f.body)})"
    op = {And: "&", Or: "|", Imp: "->", WouldTo: "@>", MightTo: "?>"}[type(f)]
    return f"({ref_render(f.left)} {op} {ref_render(f.right)})"


def test_subformulas_match_a_recursive_walk():
    rnd = random.Random(31)
    sample = [shared_formula(rnd, rnd.randint(0, 3)) for _ in range(150)]
    corpus = corpus_formulas()
    assert len(corpus) > 3_000
    for f in sample + corpus:
        nodes = subformulas(f)
        assert nodes == ref_subformulas(f), f
        assert len(set(map(id, nodes))) == len(nodes) and nodes[-1] is f
    # several roots in the order given, each node once however many share it
    for f, g, h in zip(sample, sample[1:], corpus):
        assert subformulas(f, g, h, f) == ref_subformulas(f, g, h)
    assert subformulas() == []
    for bad in ((p0, "p1"), (Neg("p1"),), (None,)):
        with pytest.raises(TypeError, match="^not a formula: "):
            subformulas(*bad)


def test_render_is_unchanged_on_the_corpus():
    for f in corpus_formulas():
        text = render(f)
        assert text == ref_render(f)
        assert parse(text) is f


def test_node_language_and_depth_match_a_tree_walk():
    rnd = random.Random(29)
    sample = [shared_formula(rnd, rnd.randint(0, 3)) for _ in range(150)]
    corpus = corpus_formulas()
    assert len(corpus) > 3_000
    checked = 0
    for f in sample + corpus:
        for g in ref_subformulas(f):
            assert language_of(g) is tree_language(g), g
            assert depth(g) == tree_depth(g), g
            checked += 1
    assert checked > 20_000
    assert {language_of(f) for f in corpus} == set(LanguageTag) - {LanguageTag.MIXED}


def test_shared_sugar_chain_is_mapped_once_per_node():
    # each <=> holds both operands four times, so the tree of this chain has
    # over 4^11 leaves; walked as a tree, substitute took 4.4 s at 9 levels
    # and about 8 times as long for each level more
    chain = "(p1 <=> " * 11 + "p0" + ")" * 11
    f = parse(chain)
    assert depth(f) == 44
    # p0, p1, ~p1 and 8 nodes a level: the walk lists each once
    assert len(subformulas(f)) == 91
    out = substitute(f, Neg(p2), 1)
    assert out == parse(chain.replace("p1", "~p2"))
    assert depth(out) == 45
    assert i_translate(f) == f
    assert tr_phi(p0, Box(f)) == WouldTo(p0, f)


DEEP = 5_000


def chain(step, base=p0):
    """step applied DEEP times to base."""
    f = base
    for _ in range(DEEP):
        f = step(f)
    return f


def unrolled_biextension(m, step, n):
    """The bi-extension on m of step applied n times to p0, one application
    at a time: the next is that of step(p9) on m with p9 valued as the last.
    The sequence is eventually periodic, so it stops at its first repeat."""
    exts = [biextension(m, p0)]
    while exts[-1] not in exts[:-1]:
        pos, neg = exts[-1]
        m9 = KripkeModel(m.kind, m.worlds, m.leq, m.access,
                         {**m.val_pos, 9: pos}, {**m.val_neg, 9: neg})
        exts.append(biextension(m9, step(Atom(9))))
    start = exts.index(exts[-1])
    if n < len(exts):
        return exts[n]
    return exts[start + (n - start) % (len(exts) - 1 - start)]


@pytest.mark.parametrize("step, tr_step, i_step", [
    (Neg, Neg, Neg),
    (Box, lambda x: WouldTo(p2, x), None),
    (lambda x: Imp(p1, x), lambda x: Imp(p1, x), lambda x: Imp(p1, x)),
    (lambda x: WouldTo(p1, x), None, lambda x: Box(Imp(p1, x))),
], ids=["neg", "box", "imp", "would"])
def test_deep_chains_pass_every_walker(step, tr_step, i_step):
    # built with the constructors, whose depth is not capped, and walked at
    # the default recursion limit, which a recursive walk would pass
    assert DEEP > sys.getrecursionlimit()
    f = chain(step)
    assert depth(f) == DEEP
    assert atoms_of(f) == atoms_of(step(p0))
    head, tail = render(step(Atom(9))).split("p9")
    assert render(f) == head * DEEP + "p0" + tail * DEEP
    head, tail = repr(step(Atom(9))).split("Atom(index=9)")
    assert repr(f) == head * DEEP + "Atom(index=0)" + tail * DEEP
    assert copy.copy(f) is f and copy.deepcopy(f) is f
    assert pickle.loads(pickle.dumps(f)) is f
    assert substitute(f, Neg(p2), 0) is chain(step, Neg(p2))
    assert map_formula(f, lambda g: g) is f
    if tr_step:
        assert tr_phi(p2, f) is chain(tr_step)
    if i_step:
        assert i_translate(f) is chain(i_step)
    rnd = random.Random(37)
    for make in (random_prop_model, random_modal_model, random_cond_model):
        for _ in range(3):
            m = make(rnd, 3)
            if language_of(f) not in LANGUAGES[m.kind]:
                continue
            ext = biextension(m, f)
            assert ext == unrolled_biextension(m, step, DEEP)
            for w in m.worlds:
                assert sat(m, w, f, "+") == (w in ext.pos)
                assert sat(m, w, f, "-") == (w in ext.neg)


@pytest.mark.parametrize("step", [Neg, lambda x: Imp(p1, x), lambda x: WouldTo(p1, x)],
                         ids=["neg", "imp", "would"])
def test_render_memory_is_linear_in_its_output(step):
    # the pieces go into one list that is joined once; keeping the text of
    # every subformula made this quadratic, about 87 MB for a 40 kB text
    f = chain(step)
    tracemalloc.start()
    try:
        text = render(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 3 * DEEP
    assert peak < 10 * len(text)


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


@pytest.mark.parametrize("text, offset", [("p\u0661", 1), ("p\u00b2", 1),
                                          ("p0 & p1\u0663", 7)])
def test_atom_digits_are_ascii(text, offset):
    # a Unicode digit is not read as its value, and the error names the digit
    with pytest.raises(FormulaSyntaxError) as e:
        parse(text)
    assert (e.value.message, e.value.offset) == (f"unexpected character {text[offset]!r}",
                                                 offset)


def test_atoms_of():
    assert atoms_of(parse("p0 -> (p3 & p0)")) == {0, 3}
    # sugar expansion shares operands: the tree of this chain has over 4^11 leaves
    assert atoms_of(parse("(p1 <=> " * 11 + "p0" + ")" * 11)) == {0, 1}


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


# ---------------------------------------------------------------------------
# the parser against the eager reference lexer and parser (conftest.ref_parse)

def outcome(read, text):
    try:
        return "ok", read(text)
    except FormulaSyntaxError as e:
        return "error", e.message, e.offset, e.expected


def read_line_formula(text):
    """What the proof-file reader does with a numbered line's text: the
    formula that starts it and the offset of the token after it, where a bad
    character anywhere in the line comes first."""
    p = Parser(text, {})
    try:
        return p.formula(), p.start
    finally:
        check_lexable(text, 0, True)


_PIECES = ["p0", "p1", "p12", "~", "&", "|", "->", "=>", "#>", "#=>", "@>", "@=>", "?>",
           "?=>", "<->", "<=>", "<#>", "<#=>", "<>", "[]", "(", "(", ")", ")", " ", "\t"]
_JUNK = ["p", "p0x", "\u0663", "\u00b2", "\n", "$", "x", "axiom", "mp", "1", "42", "=", "-",
         "<", "#", "@", "?"]


def random_texts(seed: int, n: int):
    """Token soup, and rendered random formulas (which repeat groups) with a
    few pieces spliced in; one piece in ten is junk."""
    rnd = random.Random(seed)

    def piece():
        return rnd.choice(_JUNK if rnd.random() < 0.1 else _PIECES)

    for _ in range(n):
        if rnd.random() < 0.5:
            yield "".join(piece() + rnd.choice(("", "", " "))
                          for _ in range(rnd.randint(0, 14)))
            continue
        text = render(random_formula(rnd, 4, (0, 1), rnd.choice((MD_CONNS, CN_CONNS))))
        for _ in range(rnd.randint(0, 2)):
            i = rnd.randrange(len(text) + 1)
            text = text[:i] + piece() + text[i + rnd.randint(0, 3):]
        yield text


def test_parser_matches_reference_on_random_strings():
    accepted = 0
    for text in random_texts(4, 20_000):
        got = outcome(parse, text)
        assert got == outcome(ref_parse, text), text
        if got[0] == "ok":
            accepted += 1
            # a group that parses lexes the same way in a proof line, so the
            # memo can be keyed on its text alone
            group = f"({text})"
            assert ref_lex(group) == ref_lex(group, extended=True), text
    assert accepted > 3_000
    for text in random_texts(5, 20_000):
        assert outcome(read_line_formula, text) == outcome(ref_parse_prefix, text), text


def test_parser_matches_reference_on_every_corpus_line():
    files = sorted(CORPUS_DIR.rglob("*.prf"))
    assert any(path.parent.name == "negative" for path in files)
    memo = {}
    for path in files:
        text = path.read_text()
        want = {"hyp": [], "goal": [], "line": []}
        for raw in text.splitlines():
            head, _, rest = raw.split("#", 1)[0].strip().partition(" ")
            rest = rest.strip()
            if head in ("hyp", "goal"):
                ref = outcome(ref_parse, rest)
                assert outcome(parse, rest) == ref
                want[head].append(ref[1])
            elif head.isdigit():
                ref = outcome(ref_parse_prefix, rest)
                assert outcome(read_line_formula, rest) == ref
                want["line"].append(ref[1][0])
                Parser(rest, memo).formula()
        proof = parse_proof(text)
        assert proof.hypotheses == tuple(want["hyp"]), path.name
        assert proof.goals == tuple(want["goal"]), path.name
        assert tuple(line.formula for line in proof.lines) == tuple(want["line"]), path.name
    # every memoized group of the corpus lexes the same way in both modes
    assert len(memo) > 1000
    for group in memo:
        assert ref_lex(group) == ref_lex(group, extended=True), group


def test_repeated_group_in_a_proof_file_is_one_object():
    proof = parse_proof((CORPUS_DIR / "at_arrow.prf").read_text())
    # line 5 is (~(p0) -> ~(p0)), the consequent of line 4; the goal is line 9
    assert proof.lines[4].formula is proof.lines[3].formula.right
    assert proof.goals[0].body is proof.lines[8].formula.body


def test_memoized_group_reused_under_the_nesting_cap():
    group = "(p0 & (p1 | p0))"  # two parentheses deep
    for extra, fails in ((MAX_DEPTH - 2, False), (MAX_DEPTH - 1, True)):
        text = f"{group} & {'(' * extra}{group}{')' * extra}"
        assert outcome(parse, text) == outcome(ref_parse, text)
        assert (outcome(parse, text)[0] == "error") == fails
        if fails:
            with pytest.raises(FormulaSyntaxError, match="nested more than"):
                parse(text)
    proof = (f"system C\nkind theorem\ngoal {group}\n"
             f"1 {'(' * (MAX_DEPTH - 1)}{group}{')' * (MAX_DEPTH - 1)} axiom a1\n")
    with pytest.raises(FormulaSyntaxError, match="line 4: formula nested more than"):
        parse_proof(proof)
