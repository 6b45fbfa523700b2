"""Formula syntax: core AST, concrete grammar, sugar expansion, substitution.

The core language has nine constructors (atoms, ~, &, |, ->, [], <>, @>, ?>).
Every defined connective (=>, #>, #=>, @=>, ?=>, <->, <=>, <#>, <#=>) is
expanded at parse time; the evaluator and the proof checker only ever see
core formulas.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, NamedTuple, Union

from .errors import FormulaSyntaxError


class LanguageTag(Enum):
    PL = "PL"
    MD = "MD"
    CN = "CN"
    MIXED = "Mixed"


@dataclass(frozen=True)
class Atom:
    index: int


@dataclass(frozen=True)
class Neg:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Imp:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Box:
    body: "Formula"


@dataclass(frozen=True)
class Dia:
    body: "Formula"


@dataclass(frozen=True)
class WouldTo:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class MightTo:
    left: "Formula"
    right: "Formula"


Formula = Union[Atom, Neg, And, Or, Imp, Box, Dia, WouldTo, MightTo]

_BINARY_OPS = {And: "&", Or: "|", Imp: "->", WouldTo: "@>", MightTo: "?>"}
_PREFIX_OPS = {Neg: "~", Box: "[]", Dia: "<>"}


def _cache_hash(cls):
    # Formula nodes are hashed millions of times during bounded search;
    # the generated dataclass hash re-walks the whole tree on every call.
    generated = cls.__hash__

    def cached(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = generated(self)
            object.__setattr__(self, "_hash", h)
        return h

    cls.__hash__ = cached


for _cls in (Atom, Neg, And, Or, Imp, Box, Dia, WouldTo, MightTo):
    _cache_hash(_cls)


# ---------------------------------------------------------------------------
# defined connectives (expanded cores)

def strong_imp(a: Formula, b: Formula) -> Formula:
    """a => b, i.e. (a -> b) & (~b -> ~a)."""
    return And(Imp(a, b), Imp(Neg(b), Neg(a)))


def iff(a: Formula, b: Formula) -> Formula:
    """a <-> b, i.e. (a -> b) & (b -> a)."""
    return And(Imp(a, b), Imp(b, a))


def strong_iff(a: Formula, b: Formula) -> Formula:
    """a <=> b, i.e. (a => b) & (b => a)."""
    return And(strong_imp(a, b), strong_imp(b, a))


def strict_imp(a: Formula, b: Formula) -> Formula:
    """a #> b, i.e. [](a -> b)."""
    return Box(Imp(a, b))


def strong_strict_imp(a: Formula, b: Formula) -> Formula:
    """a #=> b, i.e. [](a => b)."""
    return Box(strong_imp(a, b))


def strict_iff(a: Formula, b: Formula) -> Formula:
    """a <#> b, i.e. (a #> b) & (b #> a)."""
    return And(strict_imp(a, b), strict_imp(b, a))


def strong_strict_iff(a: Formula, b: Formula) -> Formula:
    """a <#=> b, i.e. (a #=> b) & (b #=> a)."""
    return And(strong_strict_imp(a, b), strong_strict_imp(b, a))


def strong_would(a: Formula, b: Formula) -> Formula:
    """a @=> b, i.e. (a @> b) & (~b @> ~a)."""
    return And(WouldTo(a, b), WouldTo(Neg(b), Neg(a)))


def strong_might(a: Formula, b: Formula) -> Formula:
    """a ?=> b, i.e. (a ?> b) & (~b ?> ~a)."""
    return And(MightTo(a, b), MightTo(Neg(b), Neg(a)))


SUGAR = {
    "=>": strong_imp,
    "#>": strict_imp,
    "#=>": strong_strict_imp,
    "@=>": strong_would,
    "?=>": strong_might,
    "<->": iff,
    "<=>": strong_iff,
    "<#>": strict_iff,
    "<#=>": strong_strict_iff,
}


# ---------------------------------------------------------------------------
# analysis helpers

def subformulas(f: Formula) -> Iterator[Formula]:
    """Postorder traversal including f itself."""
    if isinstance(f, (Neg, Box, Dia)):
        yield from subformulas(f.body)
    elif isinstance(f, (And, Or, Imp, WouldTo, MightTo)):
        yield from subformulas(f.left)
        yield from subformulas(f.right)
    yield f


def atoms_of(f: Formula) -> frozenset[int]:
    return frozenset(g.index for g in subformulas(f) if isinstance(g, Atom))


# the constructors that take a formula out of PL, as bits of a language code,
# and the tag of each code
LANGUAGE_BITS = {Box: 1, Dia: 1, WouldTo: 2, MightTo: 2}
LANGUAGE_OF_CODE = (LanguageTag.PL, LanguageTag.MD, LanguageTag.CN, LanguageTag.MIXED)

_LANG_CACHE: dict = {}


def language_of(f: Formula) -> LanguageTag:
    cached = _LANG_CACHE.get(f)
    if cached is not None:
        return cached
    code = 0
    for g in subformulas(f):
        code |= LANGUAGE_BITS.get(type(g), 0)
    tag = _LANG_CACHE[f] = LANGUAGE_OF_CODE[code]
    return tag


def map_formula(f: Formula, fn: Callable[[Formula], Formula]) -> Formula:
    """Rebuild f bottom up: each node is first rebuilt from its mapped
    children, then replaced by fn(node).  What fn returns is not walked again."""
    cls = type(f)
    if cls in _PREFIX_OPS:
        f = cls(map_formula(f.body, fn))
    elif cls in _BINARY_OPS:
        f = cls(map_formula(f.left, fn), map_formula(f.right, fn))
    elif cls is not Atom:
        raise TypeError(f"not a formula: {f!r}")
    return fn(f)


def substitute(phi: Formula, psi: Formula, p: int) -> Formula:
    """phi with every occurrence of atom p replaced by psi."""
    return map_formula(phi, lambda g: psi if isinstance(g, Atom) and g.index == p else g)


def depth(f: Formula) -> int:
    match f:
        case Atom(_):
            return 0
        case Neg(b) | Box(b) | Dia(b):
            return 1 + depth(b)
        case _:
            return 1 + max(depth(f.left), depth(f.right))


# ---------------------------------------------------------------------------
# lexer

class Token(NamedTuple):
    kind: str
    text: str
    pos: int


# ordered for longest match: a regex alternation takes the first alternative
# that matches
_OPERATORS = [
    "<#=>", "<#>", "<=>", "<->", "<>", "[]",
    "#=>", "#>", "@=>", "@>", "?=>", "?>", "=>", "->",
    "~", "&", "|", "(", ")",
]

_ARROWS = {"->", "=>", "#>", "#=>", "@>", "?>", "@=>", "?=>"}
_EQUIVS = {"<->", "<=>", "<#>", "<#=>"}

_TOKENS = (r"(?P<space>[ \t]+)|(?P<atom>p\d+(?!\w))|(?P<op>"
           + "|".join(map(re.escape, _OPERATORS)) + ")")
_TOKEN_RE = re.compile(_TOKENS + r"|(?P<bad>.)", re.DOTALL)
_EXTENDED_TOKEN_RE = re.compile(
    _TOKENS + r"|(?P<word>[A-Za-z_][A-Za-z0-9_\-]*)|(?P<num>\d+)|(?P<eq>=)|(?P<bad>.)",
    re.DOTALL)


def _lex(text: str, extended: bool = False) -> list[Token]:
    """Tokenize formula text; `extended` additionally admits bare words,
    numbers and '=' so proof-file lines can carry a trailing justification."""
    out = []
    for m in (_EXTENDED_TOKEN_RE if extended else _TOKEN_RE).finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        if kind == "bad":
            raise FormulaSyntaxError(f"unexpected character {m.group()!r}", m.start(),
                                     expected="an atom p0, p1, ... or an operator")
        out.append(Token(kind, m.group(), m.start()))
    return out


# ---------------------------------------------------------------------------
# parser (recursive descent; precedence: prefix > & > | > arrows > equivalences)

# Cap on formula depth (connectives after sugar expansion) and on parenthesis
# nesting.  Parsing recurses about five frames per parenthesis, and render and
# evaluation one frame per connective, so the cap keeps all of them far from
# the interpreter's recursion limit.  The deepest corpus formula is 13 deep.
MAX_DEPTH = 100

_PREFIX = {op: cls for cls, op in _PREFIX_OPS.items()}
_BINARY = {**{op: cls for cls, op in _BINARY_OPS.items()}, **SUGAR}
# at most this many levels are added above an operand once the operator is
# expanded into the core
_BINARY_DEPTH = {op: depth(make(Atom(0), Atom(0))) for op, make in _BINARY.items()}


class _Parser:
    """Each level returns (formula, depth), so the depth cap is checked as
    nodes are built.  Prefix and arrow chains are folded in loops; only
    parentheses recurse."""

    def __init__(self, tokens: list[Token], text_len: int):
        self.toks = tokens
        self.i = 0
        self.end = text_len
        self.parens = 0

    def peek(self) -> Token | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def _pos(self) -> int:
        t = self.peek()
        return t.pos if t else self.end

    def take_op(self, ops) -> str | None:
        t = self.peek()
        if t and t.kind == "op" and t.text in ops:
            self.i += 1
            return t.text
        return None

    def _too_deep(self) -> FormulaSyntaxError:
        return FormulaSyntaxError(f"formula nested more than {MAX_DEPTH} levels deep",
                                  self._pos())

    def _binary(self, op: str, left, right) -> tuple[Formula, int]:
        d = max(left[1], right[1]) + _BINARY_DEPTH[op]
        if d > MAX_DEPTH:
            raise self._too_deep()
        return _BINARY[op](left[0], right[0]), d

    def formula(self) -> Formula:
        return self.equiv()[0]

    def equiv(self) -> tuple[Formula, int]:
        left = self.arrow()
        op = self.take_op(_EQUIVS)
        if op is None:
            return left
        right = self.arrow()
        if self.peek() and self.peek().kind == "op" and self.peek().text in _EQUIVS:
            raise FormulaSyntaxError("equivalences do not associate", self._pos(),
                                     expected="parentheses around the inner equivalence")
        return self._binary(op, left, right)

    def arrow(self) -> tuple[Formula, int]:
        # right-associative across the whole family
        operands = [self.disj()]
        ops = []
        while (op := self.take_op(_ARROWS)) is not None:
            ops.append(op)
            operands.append(self.disj())
        f = operands.pop()
        while ops:
            f = self._binary(ops.pop(), operands.pop(), f)
        return f

    def disj(self) -> tuple[Formula, int]:
        f = self.conj()
        while self.take_op({"|"}):
            f = self._binary("|", f, self.conj())
        return f

    def conj(self) -> tuple[Formula, int]:
        f = self.unary()
        while self.take_op({"&"}):
            f = self._binary("&", f, self.unary())
        return f

    def unary(self) -> tuple[Formula, int]:
        prefixes = []
        while (op := self.take_op(_PREFIX)) is not None:
            prefixes.append(_PREFIX[op])
        t = self.peek()
        if t is None:
            raise FormulaSyntaxError("formula ended unexpectedly", self.end,
                                     expected="an atom, '~', '[]', '<>' or '('")
        if t.kind == "atom":
            self.i += 1
            f, d = Atom(int(t.text[1:])), 0
        elif t.kind == "op" and t.text == "(":
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
            raise FormulaSyntaxError(f"unexpected token {t.text!r}", t.pos,
                                     expected="an atom, '~', '[]', '<>' or '('")
        if d + len(prefixes) > MAX_DEPTH:
            raise self._too_deep()
        for cls in reversed(prefixes):
            f = cls(f)
        return f, d + len(prefixes)


def parse(text: str) -> Formula:
    """Parse formula text into a core Formula with all sugar expanded."""
    toks = _lex(text)
    p = _Parser(toks, len(text))
    f = p.formula()
    t = p.peek()
    if t is not None:
        raise FormulaSyntaxError(f"trailing input {t.text!r}", t.pos,
                                 expected="end of formula")
    return f


def parse_prefix(tokens: list[Token], start: int, text_len: int) -> tuple[Formula, int]:
    """Parse a formula from tokens[start:], returning (formula, next index).

    Used by the proof-file reader, where a justification follows the formula
    on the same line.
    """
    p = _Parser(tokens[start:], text_len)
    f = p.formula()
    return f, start + p.i


def render(f: Formula) -> str:
    """Fully parenthesized canonical text; parse(render(f)) == f."""
    match f:
        case Atom(index):
            return f"p{index}"
        case Neg(body):
            return f"~({render(body)})"
        case Box(body):
            return f"[]({render(body)})"
        case Dia(body):
            return f"<>({render(body)})"
        case _:
            op = _BINARY_OPS[type(f)]
            return f"({render(f.left)} {op} {render(f.right)})"
