"""Formula syntax: core AST, concrete grammar, sugar expansion, substitution.

The core language has nine constructors (atoms, ~, &, |, ->, [], <>, @>, ?>).
Every defined connective (=>, #>, #=>, @=>, ?=>, <->, <=>, <#>, <#=>) is
expanded at parse time; the evaluator and the proof checker only ever see
core formulas.
"""

from __future__ import annotations

import functools
import re
from enum import Enum
from operator import attrgetter
from typing import Callable
from weakref import ref

from .errors import FormulaSyntaxError
from .record import Record, field_values

_set = object.__setattr__


class LanguageTag(Enum):
    PL = "PL"
    MD = "MD"
    CN = "CN"
    MIXED = "Mixed"


class _NodeRef(ref):
    """A weak reference to a node that holds the node's table key, so that the
    entry can go when the node is freed.  It has no Python-level constructor
    (weakref.KeyedRef has one), so building it runs no Python code."""
    __slots__ = ("key",)


# the one node of each distinct formula: (class, *fields) -> a weak reference
# to the node, whose entry goes when the node is freed
_NODES: dict[tuple, _NodeRef] = {}


def _forget(dead: _NodeRef, nodes=_NODES) -> None:
    # the entry may already hold a newer node of the same key
    if nodes.get(dead.key) is dead:
        del nodes[dead.key]


class Formula(Record):
    """A core formula: one of the nine constructors below.  Formulas are
    hash-consed: a call cls(*fields) returns the one node of its class and
    fields (_NODES), built the first time, so equal formulas are one object
    and == is `is`.  Called positionally, it runs no other Python code,
    whether it finds the node or builds it.  A node's hash (that of its field tuple, as for a
    frozen dataclass), language code (language_of) and depth are computed
    when it is built, from its children; a field that is not a formula
    counts as an atom."""

    __eq__ = object.__eq__

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__init__ = object.__init__  # __new__ sets the fields, once

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls.__match_args__):
            args = field_values(cls, args, kwargs)
        key = (cls, *args)
        node = _NODES.get(key)
        if node is not None and (f := node()) is not None:
            return f
        f = object.__new__(cls)
        code, height = LANGUAGE_BITS.get(cls, 0), 0
        for name, value in zip(cls.__match_args__, args):
            _set(f, name, value)
            if isinstance(value, Formula):
                code |= value._language
                if value._depth > height:
                    height = value._depth
        _set(f, "_hash", hash(args))
        _set(f, "_language", code)
        _set(f, "_depth", 0 if cls is Atom else height + 1)
        node = _NODES[key] = _NodeRef(f, _forget)
        node.key = key
        return f

    # hash(f) is f._hash, found without running Python code (so the table
    # lookup in __new__ runs none): the hash slot calls what this property
    # gives, the bound __int__ of the stored hash
    __hash__ = property(attrgetter("_hash.__int__"))

    # interned and immutable: a copy is the formula itself
    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        # pickle rebuilds the formula from a flat table of its distinct
        # subformulas, children first, so that no depth makes it recurse
        row: dict[int, int] = {}
        table = []
        for g in subformulas(self):
            cls = type(g)
            table.append((cls, g.index) if cls is Atom else
                         (cls, *(row[id(getattr(g, n))] for n in cls.__match_args__)))
            row[id(g)] = len(row)
        return _rebuild, (tuple(table),)

    def __repr__(self):
        # Record's text, Cls(field=value, ...), gathered by an explicit stack
        out, stack = [], [self]
        while stack:
            g = stack.pop()
            if type(g) is str:
                out.append(g)
                continue
            parts = [f"{type(g).__qualname__}("]
            for i, name in enumerate(g.__match_args__):
                value = getattr(g, name)
                parts += (f", {name}=" if i else f"{name}=",
                          value if isinstance(value, Formula) else repr(value))
            parts.append(")")
            stack += reversed(parts)
        return "".join(out)


def _rebuild(table: tuple) -> Formula:
    """The formula of a Formula.__reduce__ table: its last row."""
    nodes: list[Formula] = []
    for cls, *fields in table:
        nodes.append(cls(*fields) if cls is Atom else cls(*(nodes[i] for i in fields)))
    return nodes[-1]


class Atom(Formula):
    index: int


class Neg(Formula):
    body: Formula


class And(Formula):
    left: Formula
    right: Formula


class Or(Formula):
    left: Formula
    right: Formula


class Imp(Formula):
    left: Formula
    right: Formula


class Box(Formula):
    body: Formula


class Dia(Formula):
    body: Formula


class WouldTo(Formula):
    left: Formula
    right: Formula


class MightTo(Formula):
    left: Formula
    right: Formula


_BINARY_OPS = {And: "&", Or: "|", Imp: "->", WouldTo: "@>", MightTo: "?>"}
_PREFIX_OPS = {Neg: "~", Box: "[]", Dia: "<>"}


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

_EXIT = object()  # marks, on subformulas' stack, a node whose children are done


def subformulas(*roots: Formula) -> list[Formula]:
    """Each distinct subformula of the roots once, children before parents,
    left before right, the roots in the order given: the order in which a
    recursive walk that skips the nodes it has seen finishes them.  Sugar
    shares operands (a <=> b holds each side four times), so a tree walk would
    take exponential time.  Every formula walk builds on this one; its stack is
    explicit, so it takes any depth.  TypeError for a node that is not a formula."""
    out, seen = [], set()
    stack = [*reversed(roots)]
    pop = stack.pop
    while stack:
        g = pop()
        if g is _EXIT:
            out.append(pop())
            continue
        if id(g) in seen:
            continue
        seen.add(id(g))
        cls = type(g)
        if cls is Atom:
            out.append(g)
        elif cls in _PREFIX_OPS:
            stack += (g, _EXIT, g.body)
        elif cls in _BINARY_OPS:
            stack += (g, _EXIT, g.right, g.left)
        else:
            raise TypeError(f"not a formula: {g!r}")
    return out


def atoms_of(f: Formula) -> frozenset[int]:
    return frozenset(g.index for g in subformulas(f) if type(g) is Atom)


# the constructors that take a formula out of PL, as bits of a language code,
# and the tag of each code
LANGUAGE_BITS = {Box: 1, Dia: 1, WouldTo: 2, MightTo: 2}
LANGUAGE_OF_CODE = (LanguageTag.PL, LanguageTag.MD, LanguageTag.CN, LanguageTag.MIXED)


def language_of(f: Formula) -> LanguageTag:
    return LANGUAGE_OF_CODE[f._language]


def map_formula(f: Formula, fn: Callable[[Formula], Formula]) -> Formula:
    """Rebuild f bottom up: each node is first rebuilt from its mapped
    children, then replaced by fn(node).  What fn returns is not walked again.
    A node shared within f is mapped once, and its image is shared."""
    image = {}
    for g in subformulas(f):
        cls = type(g)
        if cls is Atom:
            out = g
        elif cls in _PREFIX_OPS:
            out = cls(image[id(g.body)])
        else:
            out = cls(image[id(g.left)], image[id(g.right)])
        image[id(g)] = fn(out)
    return image[id(f)]


def substitute(phi: Formula, psi: Formula, p: int) -> Formula:
    """phi with every occurrence of atom p replaced by psi."""
    return map_formula(phi, lambda g: psi if isinstance(g, Atom) and g.index == p else g)


def depth(f: Formula) -> int:
    """The connectives on f's longest path from the root to an atom."""
    return f._depth


# ---------------------------------------------------------------------------
# tokens

# longest first: a regex alternation takes the first alternative that matches
_OPERATORS = ["<#=>", "<#>", "<=>", "<->", "<>", "[]", "#=>", "#>", "@=>", "@>",
              "?=>", "?>", "=>", "->", "~", "&", "|", "(", ")"]

_ARROWS = {"->", "=>", "#>", "#=>", "@>", "?>", "@=>", "?=>"}
_EQUIVS = {"<->", "<=>", "<#>", "<#=>"}

# formula tokens, then the words, numbers and '=' of a proof line's justification
# (ASCII digits only: `\d` would take any Unicode decimal digit, which int() reads)
_ATOM, _OP = r"p[0-9]+(?!\w)", "|".join(map(re.escape, _OPERATORS))
_WORD, _NUM = r"[A-Za-z_][A-Za-z0-9_\-]*", r"[0-9]+"
# the next token after any blanks, as the group named by its kind
_TOKEN_RE = re.compile(rf"[ \t]*(?:(?P<atom>{_ATOM})|(?P<op>{_OP})|(?P<word>{_WORD})"
                       rf"|(?P<num>{_NUM})|(?P<eq>=)|(?P<bad>.)|(?P<end>))", re.DOTALL)
# the longest run of tokens from a position, without and with the words, and
# an atom's head; only a failed parse needs them, so re compiles them (and
# caches them) on first use
_LEXABLE = (rf"(?:[ \t]+|{_ATOM}|{_OP})*", rf"(?:[ \t]+|{_ATOM}|{_OP}|{_WORD}|{_NUM}|=)*")
_ATOM_HEAD = r"p[0-9]*"


def check_lexable(text: str, start: int, extended: bool) -> None:
    """Raise the error for the first character of text[start:] that begins no token
    (`extended`: of a proof line).  Called when parsing fails, so that a bad
    character anywhere in the text is reported before any grammar error."""
    end = re.compile(_LEXABLE[extended]).match(text, start).end()
    if end < len(text):
        # an atom with a digit other than 0-9 is reported at that digit
        head = re.compile(_ATOM_HEAD).match(text, end)
        if head and text[head.end():head.end() + 1].isdigit():
            end = head.end()
        raise FormulaSyntaxError(f"unexpected character {text[end]!r}", end,
                                 expected="an atom p0, p1, ... or an operator")


# ---------------------------------------------------------------------------
# parser (precedence climbing; precedence: prefix > & > | > arrows > equivalences)

# Cap on formula depth (connectives after sugar expansion) and on parenthesis
# nesting.  Parsing recurses two frames per parenthesis, and the cap keeps it
# far from the interpreter's recursion limit.  No other formula walk recurses
# (they all go through subformulas), so for them the cap is input validation
# only.  The deepest corpus formula is 13 deep.
MAX_DEPTH = 100

_PREFIX = {op: cls for cls, op in _PREFIX_OPS.items()}
_BINARY = {**{op: cls for cls, op in _BINARY_OPS.items()}, **SUGAR}
# how tightly each binary operator binds; arrows associate to the right,
# equivalences not at all, & and | to the left
_ARROW, _EQUIV = 2, 1
_POWER = {"&": 4, "|": 3, **dict.fromkeys(_ARROWS, _ARROW), **dict.fromkeys(_EQUIVS, _EQUIV)}

# a balanced parenthesized group nested at most 16 deep (the corpus nests 13);
# a deeper group is parsed afresh each time
_GROUP_RE = re.compile(functools.reduce(
    lambda inner, _: rf"\([^()]*(?:{inner}[^()]*)*\)", range(15), r"\([^()]*\)"))


class Parser:
    """Reads formulas from text[pos:], lexing each token when it is needed:
    the current one is `tok` of `kind` (a group of _TOKEN_RE, "end" at the
    end), from `start` to `end`.  One loop reads a formula by precedence
    climbing (Pratt, "Top down operator precedence", 1973); only parentheses
    recurse.  Each node is built, and its depth checked against the cap, at
    the token after its last operand.  `memo` maps each group's text to
    (formula, parenthesis depth inside), so a group seen again in the texts
    read with the same memo is not lexed again; formulas are interned, so it
    is one node wherever it occurs."""

    def __init__(self, text: str, memo: dict, pos: int = 0):
        self.text = text
        self.memo = memo
        self.parens = 0   # parentheses open around the current token
        self.deepest = 0  # the most open at once since the innermost open group began
        self.seek(pos)

    def seek(self, pos: int) -> None:
        m = _TOKEN_RE.match(self.text, pos)
        self.kind = kind = m.lastgroup
        self.tok = m.group(kind)
        self.start, self.end = m.span(kind)

    def _too_deep(self) -> FormulaSyntaxError:
        return FormulaSyntaxError(f"formula nested more than {MAX_DEPTH} levels deep",
                                  self.start)

    def formula(self) -> Formula:
        """The formula from the current token to the first token after it
        that no binary operator joins on.  `pending` holds each left operand
        read so far, with the operator after it and that operator's power,
        the powers rising up the stack; an operator first builds every
        pending node that binds at least as tightly as it does."""
        pending = []
        while True:
            # an operand: prefix operators, then an atom or a group
            prefixes = []
            while (cls := _PREFIX.get(self.tok)) is not None:
                prefixes.append(cls)
                self.seek(self.end)
            if self.kind == "atom":
                f = Atom(int(self.tok[1:]))
                self.seek(self.end)
            elif self.tok == "(":
                f = self.group()
            else:
                raise FormulaSyntaxError("formula ended unexpectedly" if self.kind == "end"
                                         else f"unexpected token {self.tok!r}", self.start,
                                         expected="an atom, '~', '[]', '<>' or '('")
            for cls in reversed(prefixes):
                f = cls(f)
            if f._depth > MAX_DEPTH:
                raise self._too_deep()
            # no word, number or bad character is spelled like an operator
            power = _POWER.get(self.tok, 0)
            while pending:
                left, op, top = pending[-1]
                if top < power or top == power == _ARROW:
                    break
                if top == power == _EQUIV:
                    raise FormulaSyntaxError("equivalences do not associate", self.start,
                                             expected="parentheses around the inner "
                                                      "equivalence")
                pending.pop()
                f = _BINARY[op](left, f)
                if f._depth > MAX_DEPTH:
                    raise self._too_deep()
            if not power:
                return f
            pending.append((f, self.tok, power))
            self.seek(self.end)

    def group(self) -> Formula:
        start, outer = self.start, self.parens
        m = _GROUP_RE.match(self.text, start)
        hit = m and self.memo.get(m.group())
        # a group reused deeper than the cap is parsed again, to fail there
        if hit and outer + hit[1] <= MAX_DEPTH:
            self.deepest = max(self.deepest, outer + hit[1])
            self.seek(m.end())
            return hit[0]
        self.parens = inner = outer + 1
        if inner > MAX_DEPTH:
            raise self._too_deep()
        enclosing, self.deepest = self.deepest, inner
        self.seek(self.end)
        f = self.formula()
        if self.tok != ")":
            raise FormulaSyntaxError("unclosed parenthesis", self.start, expected="')'")
        self.memo[self.text[start:self.end]] = f, self.deepest - outer
        self.parens, self.deepest = outer, max(enclosing, self.deepest)
        self.seek(self.end)
        return f


def parse(text: str) -> Formula:
    """Parse formula text into a core Formula with all sugar expanded."""
    p = Parser(text, {})
    try:
        f = p.formula()
        if p.kind != "end":
            raise FormulaSyntaxError(f"trailing input {p.tok!r}", p.start,
                                     expected="end of formula")
    except FormulaSyntaxError:
        check_lexable(text, 0, False)
        raise
    return f


_PREFIX_TEXT = {cls: f"{op}(" for cls, op in _PREFIX_OPS.items()}
_BINARY_TEXT = {cls: f" {op} " for cls, op in _BINARY_OPS.items()}


def render(f: Formula) -> str:
    """Fully parenthesized canonical text; parse(render(f)) == f.  The
    pieces are gathered by an explicit stack of formulas and strings into
    one list and joined once, so neither depth nor the texts of the
    subformulas cost more than the output."""
    out, stack, atoms = [], [f], {}
    put, push, pop = out.append, stack.extend, stack.pop
    while stack:
        g = pop()
        cls = type(g)
        if cls is str:
            put(g)
        elif cls is Atom:
            # one text per atom, not per occurrence: with a fresh "p1" for
            # each of the 5,000 in a -> chain, the peak is 11.7 times the
            # chain's text, with one 5.3 times
            text = atoms.get(g.index)
            if text is None:
                text = atoms[g.index] = f"p{g.index}"
            put(text)
        elif cls in _BINARY_TEXT:
            put("(")
            push((")", g.right, _BINARY_TEXT[cls], g.left))
        elif cls in _PREFIX_TEXT:
            put(_PREFIX_TEXT[cls])
            push((")", g.body))
        else:
            raise TypeError(f"not a formula: {g!r}")
    return "".join(out)
