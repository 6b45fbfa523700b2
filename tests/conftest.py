"""Shared helpers: seeded random formulas and models for property tests, a
from-the-definition satisfaction relation that the evaluator is tested
against, the frames of the search from the definition (a filter over every
candidate preorder and relation), and an eager lexer and token-list parser
that the parser is tested against; and fixtures that load the corpus afresh,
from the shipped files or from a copy of them."""

from __future__ import annotations

import random
import re
import shutil
from itertools import permutations

import pytest

from cnx import corpus
from cnx.errors import FormulaSyntaxError, ProofFormatError
from cnx.model import (BiSet, FrameClass, Kind, KripkeModel, _up_sets, fs_faults, relation,
                       transitivity_faults, up_closed, validate_model)
from cnx.proof import AxiomJust, HypJust, LemmaJust, MpJust, RuleJust
from cnx.semantics import Consecution
from cnx.search import _preorders, _world_names
from cnx.syntax import (MAX_DEPTH, SUGAR, And, Atom, Box, Dia, Formula, Imp,
                        MightTo, Neg, Or, WouldTo, depth, map_formula)

PL_CONNS = (Neg, And, Or, Imp)
MD_CONNS = PL_CONNS + (Box, Dia)
CN_CONNS = PL_CONNS + (WouldTo, MightTo)


def random_formula(rnd: random.Random, max_depth: int, atoms=(0, 1),
                   conns=PL_CONNS) -> Formula:
    if max_depth == 0 or rnd.random() < 0.25:
        return Atom(rnd.choice(atoms))
    c = rnd.choice(conns)
    if c in (Neg, Box, Dia):
        return c(random_formula(rnd, max_depth - 1, atoms, conns))
    return c(random_formula(rnd, max_depth - 1, atoms, conns),
             random_formula(rnd, max_depth - 1, atoms, conns))


def shift_atoms(f: Formula, offset: int) -> Formula:
    if offset == 0:
        return f
    return map_formula(f, lambda g: Atom(g.index + offset) if isinstance(g, Atom) else g)


def preorders(worlds) -> list[frozenset]:
    """The preorders that the search builds on len(worlds) worlds, as pair
    sets in its order; bit i*n + j of a mask holds (worlds[i], worlds[j])."""
    pairs = [(a, b) for a in worlds for b in worlds]
    return [frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
            for mask, _, _ in _preorders(len(worlds), False, None)]


# ---------------------------------------------------------------------------
# the frames of search._frames, from the definition

def preorder_masks(n: int):
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


def least_in_orbit(n: int):
    """A test of whether a preorder mask on n worlds is least among the
    masks that the renamings of the worlds map it to."""
    # each renaming but the identity, as the (from, to) bit of every pair
    moves = [[(1 << i * n + j, 1 << p[i] * n + p[j]) for i in range(n) for j in range(n)]
             for p in permutations(range(n))][1:]

    def least(mask: int) -> bool:
        return all(sum(to for frm, to in mv if mask & frm) >= mask for mv in moves)
    return least


def mask_rows(mask: int, n: int, label: tuple[int, ...]) -> tuple[int, ...]:
    """The relation on n worlds whose bit i*n + j holds (w<i+1>, w<j+1>), as
    successor masks over the sorted names; the p-th sorted name is
    w<label[p]+1>.  (The two orders differ from 10 worlds on, where w10
    sorts before w2.)"""
    return tuple(sum(1 << q for q, j in enumerate(label) if mask >> i * n + j & 1)
                 for i in label)


def definition_frames(frame: FrameClass, max_worlds: int, least_only: bool):
    """What search._frames yields, from the definition: every candidate
    preorder tested for transitivity, and with least_only for being least in
    its orbit; every candidate relation in bitmask order tested for the
    Fischer-Servi conditions."""
    for n in range(1, max_worlds + 1):
        worlds = _world_names(n)
        names = tuple(sorted(worlds))
        label = tuple(worlds.index(w) for w in names)
        least = least_in_orbit(n)
        for mask in preorder_masks(n):
            if least_only and not least(mask):
                continue
            up = mask_rows(mask, n, label)
            rels = None
            if frame is not FrameClass.P:
                rels = tuple(rel for r in range(1 << n * n)
                             for rel in [relation(up, mask_rows(r, n, label))]
                             if not any(fs_faults(up, rel)))
            yield names, up, tuple(up_closed(up)), rels


def is_fs(worlds, leq, rel) -> bool:
    """Whether rel meets the Fischer-Servi conditions over the preorder leq."""
    return validate_model(KripkeModel(Kind.MODAL, worlds, leq, rel), FrameClass.FSM).ok


def random_prop_model(rnd: random.Random, max_worlds=2, atoms=(0, 1)) -> KripkeModel:
    n = rnd.randint(1, max_worlds)
    worlds = tuple(f"w{i+1}" for i in range(n))
    leq = rnd.choice(preorders(worlds))
    ups = _up_sets(worlds, leq)
    val_pos = {a: rnd.choice(ups) for a in atoms}
    val_neg = {a: rnd.choice(ups) for a in atoms}
    return KripkeModel(Kind.PROP, worlds, leq, None, val_pos, val_neg)


def random_modal_model(rnd: random.Random, max_worlds=2, atoms=(0, 1)) -> KripkeModel:
    while True:
        base = random_prop_model(rnd, max_worlds, atoms)
        worlds = sorted(base.worlds)
        pairs = [(a, b) for a in worlds for b in worlds]
        rel = frozenset(p for p in pairs if rnd.random() < 0.4)
        if is_fs(base.worlds, base.leq, rel):
            return KripkeModel(Kind.MODAL, base.worlds, base.leq, rel,
                               base.val_pos, base.val_neg)


def random_cond_model(rnd: random.Random, max_worlds=2, atoms=(0, 1),
                      max_indices=2) -> KripkeModel:
    while True:
        base = random_prop_model(rnd, max_worlds, atoms)
        worlds = sorted(base.worlds)
        ups = _up_sets(base.worlds, base.leq)
        pairs = [(a, b) for a in worlds for b in worlds]
        access = {}
        ok = True
        for _ in range(rnd.randint(0, max_indices)):
            idx = BiSet(rnd.choice(ups), rnd.choice(ups))
            rel = frozenset(p for p in pairs if rnd.random() < 0.4)
            if not rel:
                continue
            if not is_fs(base.worlds, base.leq, rel):
                ok = False
                break
            access[idx] = access.get(idx, frozenset()) | rel
        if ok:
            return KripkeModel(Kind.COND, base.worlds, base.leq, access,
                               base.val_pos, base.val_neg)


def ref_sat(m: KripkeModel, w: str, f: Formula, sign: str) -> bool:
    """Whether f is verified ('+') or falsified ('-') at w, clause by clause
    from the definition over frozensets, with no caching and no masks."""
    above = [v for v in sorted(m.worlds) if (w, v) in m.leq]
    match f:
        case Atom(i):
            return w in m.val(i, sign)
        case Neg(b):
            return ref_sat(m, w, b, "-" if sign == "+" else "+")
        case And(a, b):
            x, y = ref_sat(m, w, a, sign), ref_sat(m, w, b, sign)
            return (x and y) if sign == "+" else (x or y)
        case Or(a, b):
            x, y = ref_sat(m, w, a, sign), ref_sat(m, w, b, sign)
            return (x or y) if sign == "+" else (x and y)
        case Imp(a, b):
            return all(ref_sat(m, v, b, sign) for v in above if ref_sat(m, v, a, "+"))
        case Box(b):
            return all(ref_sat(m, x, b, sign) for v in above for (u, x) in m.access if u == v)
        case Dia(b):
            return any(ref_sat(m, x, b, sign) for (u, x) in m.access if u == w)
        case WouldTo(a, b) | MightTo(a, b):
            idx = BiSet(*(frozenset(v for v in m.worlds if ref_sat(m, v, a, s))
                          for s in "+-"))
            rel = m.access.get(idx, ())
            if type(f) is WouldTo:
                return all(ref_sat(m, x, b, sign) for v in above for (u, x) in rel if u == v)
            return any(ref_sat(m, x, b, sign) for (u, x) in rel if u == w)
    raise TypeError(f"not a formula: {f!r}")


def ref_refutes(m: KripkeModel, w: str, c: Consecution) -> bool:
    """Every gamma member and no delta member is verified at w."""
    return (all(ref_sat(m, w, g, "+") for g in c.gamma)
            and not any(ref_sat(m, w, d, "+") for d in c.delta))


# ---------------------------------------------------------------------------
# reference parser: lex the whole text first, then descend over the token list

_REF_OPERATORS = ["<#=>", "<#>", "<=>", "<->", "<>", "[]", "#=>", "#>", "@=>", "@>",
                  "?=>", "?>", "=>", "->", "~", "&", "|", "(", ")"]
_REF_TOKENS = (r"(?P<space>[ \t]+)|(?P<atom>p[0-9]+(?!\w))|(?P<op>"
               + "|".join(map(re.escape, _REF_OPERATORS)) + ")")
_REF_TOKEN_RE = re.compile(_REF_TOKENS + r"|(?P<bad>.)", re.DOTALL)
_REF_EXTENDED_TOKEN_RE = re.compile(
    _REF_TOKENS + r"|(?P<word>[A-Za-z_][A-Za-z0-9_\-]*)|(?P<num>[0-9]+)|(?P<eq>=)|(?P<bad>.)",
    re.DOTALL)
_REF_ARROWS = {"->", "=>", "#>", "#=>", "@>", "?>", "@=>", "?=>"}
_REF_EQUIVS = {"<->", "<=>", "<#>", "<#=>"}
_REF_PREFIX = {"~": Neg, "[]": Box, "<>": Dia}
_REF_BINARY = {"&": And, "|": Or, "->": Imp, "@>": WouldTo, "?>": MightTo, **SUGAR}
_REF_BINARY_DEPTH = {op: depth(make(Atom(0), Atom(0))) for op, make in _REF_BINARY.items()}


def ref_lex(text: str, extended: bool = False) -> list[tuple[str, str, int]]:
    """(kind, text, offset) of every token; `extended` also admits the words,
    numbers and '=' of a proof line's justification."""
    out = []
    for m in (_REF_EXTENDED_TOKEN_RE if extended else _REF_TOKEN_RE).finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        if kind == "bad":
            at = m.start()
            if text[at] == "p":  # an atom with a digit other than 0-9: point at it
                i = at + 1
                while i < len(text) and text[i] in "0123456789":
                    i += 1
                if i < len(text) and text[i].isdigit():
                    at = i
            raise FormulaSyntaxError(f"unexpected character {text[at]!r}", at,
                                     expected="an atom p0, p1, ... or an operator")
        out.append((kind, m.group(), m.start()))
    return out


class _RefParser:
    def __init__(self, tokens, text_len: int):
        self.toks = tokens
        self.i = 0
        self.end = text_len
        self.parens = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def _pos(self) -> int:
        t = self.peek()
        return t[2] if t else self.end

    def take_op(self, ops):
        t = self.peek()
        if t and t[0] == "op" and t[1] in ops:
            self.i += 1
            return t[1]
        return None

    def _too_deep(self):
        return FormulaSyntaxError(f"formula nested more than {MAX_DEPTH} levels deep",
                                  self._pos())

    def _binary(self, op, left, right):
        d = max(left[1], right[1]) + _REF_BINARY_DEPTH[op]
        if d > MAX_DEPTH:
            raise self._too_deep()
        return _REF_BINARY[op](left[0], right[0]), d

    def equiv(self):
        left = self.arrow()
        op = self.take_op(_REF_EQUIVS)
        if op is None:
            return left
        right = self.arrow()
        t = self.peek()
        if t and t[0] == "op" and t[1] in _REF_EQUIVS:
            raise FormulaSyntaxError("equivalences do not associate", self._pos(),
                                     expected="parentheses around the inner equivalence")
        return self._binary(op, left, right)

    def arrow(self):
        operands = [self.disj()]
        ops = []
        while (op := self.take_op(_REF_ARROWS)) is not None:
            ops.append(op)
            operands.append(self.disj())
        f = operands.pop()
        while ops:
            f = self._binary(ops.pop(), operands.pop(), f)
        return f

    def disj(self):
        f = self.conj()
        while self.take_op({"|"}):
            f = self._binary("|", f, self.conj())
        return f

    def conj(self):
        f = self.unary()
        while self.take_op({"&"}):
            f = self._binary("&", f, self.unary())
        return f

    def unary(self):
        prefixes = []
        while (op := self.take_op(_REF_PREFIX)) is not None:
            prefixes.append(_REF_PREFIX[op])
        t = self.peek()
        if t is None:
            raise FormulaSyntaxError("formula ended unexpectedly", self.end,
                                     expected="an atom, '~', '[]', '<>' or '('")
        if t[0] == "atom":
            self.i += 1
            f, d = Atom(int(t[1][1:])), 0
        elif t[0] == "op" and t[1] == "(":
            self.parens += 1
            if self.parens > MAX_DEPTH:
                raise self._too_deep()
            self.i += 1
            f, d = self.equiv()
            if not self.take_op({")"}):
                raise FormulaSyntaxError("unclosed parenthesis", self._pos(),
                                         expected="')'")
            self.parens -= 1
        else:
            raise FormulaSyntaxError(f"unexpected token {t[1]!r}", t[2],
                                     expected="an atom, '~', '[]', '<>' or '('")
        if d + len(prefixes) > MAX_DEPTH:
            raise self._too_deep()
        for cls in reversed(prefixes):
            f = cls(f)
        return f, d + len(prefixes)


def ref_parse(text: str) -> Formula:
    """The whole text as one formula."""
    p = _RefParser(ref_lex(text), len(text))
    f = p.equiv()[0]
    t = p.peek()
    if t is not None:
        raise FormulaSyntaxError(f"trailing input {t[1]!r}", t[2], expected="end of formula")
    return f


def ref_parse_prefix(text: str) -> tuple[Formula, int]:
    """The formula that starts a proof line's text, and the offset of the
    token after it (len(text) if none): the whole text is lexed in extended
    mode first."""
    toks = ref_lex(text, extended=True)
    p = _RefParser(toks, len(text))
    f = p.equiv()[0]
    return f, p._pos()


# reference reader of a numbered proof line's justification, over the tokens
# of the eager lexer: the formula is read with ref_parse_prefix, then the
# tokens after it are taken as the justification

_REF_JUST_ARGS = {"hyp": ((), "takes no arguments"),
                  "mp": (("num", "num"), "takes two line numbers"),
                  "lemma": (("word",), "takes one name"),
                  **{rule: (("num",), "takes one line number")
                     for rule in ("nec", "ra-box", "rc-box", "ra-dia", "rc-dia")}}


def _ref_prefix_at(code: str, at: int) -> tuple[Formula, int]:
    """ref_parse_prefix of code[at:], its offsets those of code."""
    try:
        f, end = ref_parse_prefix(code[at:])
    except FormulaSyntaxError as e:
        raise FormulaSyntaxError(e.message, e.offset + at, e.expected) from None
    return f, end + at


def ref_read_line(code: str, at: int):
    """(formula, justification) of a numbered proof line whose formula starts
    at code[at:], as proof.parse_proof reads it, with the same errors (their
    messages without the "line N: " that parse_proof puts in front).  A bad
    character anywhere in the line is reported first."""
    tokens = ref_lex(code, extended=True)
    f, end = _ref_prefix_at(code, at)
    toks = [t for t in tokens if t[2] >= end]
    if not toks or toks[0][0] != "word":
        raise ProofFormatError("missing justification")
    word, args = toks[0][1], toks[1:]
    if word != "axiom":
        if word not in _REF_JUST_ARGS:
            raise ProofFormatError(f"unknown justification {word!r}")
        kinds, usage = _REF_JUST_ARGS[word]
        if tuple(kind for kind, _, _ in args) != kinds:
            raise ProofFormatError(f"{word} {usage}")
        vals = [int(text) if kind == "num" else text for kind, text, _ in args]
        make = {"hyp": HypJust, "mp": MpJust, "lemma": LemmaJust}.get(word)
        return f, make(*vals) if make else RuleJust(word, *vals)
    if not args or args[0][0] != "word":
        raise ProofFormatError("axiom takes a scheme name")
    name, binding = args[0][1], {}
    toks = args[1:]
    while toks:
        kind, var, _ = toks[0]
        if kind != "word" or var not in ("phi", "psi", "chi"):
            raise ProofFormatError("expected phi=/psi=/chi= binding")
        if len(toks) < 2 or toks[1][0] != "eq":
            raise ProofFormatError(f"expected '=' after {var}")
        if var in binding:
            raise ProofFormatError(f"{var} is bound twice")
        after = toks[1][2] + 1
        binding[var], end = _ref_prefix_at(code, after)
        toks = [t for t in toks if t[2] >= end]
    return f, AxiomJust(name, binding or None)


@pytest.fixture
def fresh_corpus():
    """load_corpus's cache, emptied before and after the test, so that the
    test's loads and the next test's first load read the files again."""
    corpus.load_corpus.cache_clear()
    yield corpus.load_corpus
    corpus.load_corpus.cache_clear()


@pytest.fixture
def corpus_copy(tmp_path, monkeypatch, fresh_corpus):
    """A copy of the shipped corpus directory, which load_corpus reads."""
    copy = tmp_path / "corpus"
    shutil.copytree(corpus.CORPUS_DIR, copy)
    monkeypatch.setattr(corpus, "CORPUS_DIR", copy)
    return copy
