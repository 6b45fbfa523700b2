"""Mechanical construction of the shipped proof corpus.

Proofs are assembled as shared term DAGs (axiom instance / modus ponens /
hypothesis / one-premise rule / lemma citation) and linearized into checkable
Proof objects with duplicate formulas collapsed.  Two generators do the heavy
lifting: `discharge` (turn a use of a hypothesis into an implication, the
standard a1/a2 translation) and `subst_strong_eq` (lift a strong equivalence
through an arbitrary context).  Everything here is verified by the checker in
proof.py; nothing is trusted.

Run `python -m cnx.proofgen` to regenerate src/cnx/corpus: the proof files,
then the proof table that cnx.corpus loads them from.
"""

from __future__ import annotations

from typing import Optional

from .proof import (AXIOMS, AxiomJust, HypJust, LemmaJust, MpJust, Proof,
                    ProofLine, Registry, RuleJust, RULES, instantiate,
                    match_scheme)
from .record import Record
from .syntax import (And, Atom, Box, Dia, Formula, Imp, MightTo, Neg, Or,
                     WouldTo, render, strong_imp, strong_iff,
                     strong_would, strong_might)

P0, P1, P2 = Atom(0), Atom(1), Atom(2)


# ---------------------------------------------------------------------------
# proof terms

class Ax(Record):
    name: str
    binding: tuple  # sorted (metavar, formula) pairs

    @property
    def formula(self) -> Formula:
        return instantiate(AXIOMS[self.name], dict(self.binding))


class MP(Record):
    arg: "Term"
    imp: "Term"

    def __post_init__(self):
        f = self.imp.formula
        assert isinstance(f, Imp) and f.left == self.arg.formula, (
            f"mp mismatch: {render(self.arg.formula)} vs {render(f)}")

    @property
    def formula(self) -> Formula:
        return self.imp.formula.right


class Hyp(Record):
    f: Formula

    @property
    def formula(self) -> Formula:
        return self.f


class Rule(Record):
    name: str
    premise: "Term"
    chi: Optional[Formula] = None

    @property
    def formula(self) -> Formula:
        scheme = RULES[self.name]
        binding = match_scheme(self.premise.formula, scheme.premise)
        assert binding is not None, f"{self.name} premise mismatch"
        if self.chi is not None:
            binding["chi"] = self.chi
        return instantiate(scheme.conclusion, binding)


class Lem(Record):
    name: str
    f: Formula

    @property
    def formula(self) -> Formula:
        return self.f


Term = object


def ax(name: str, **binding: Formula) -> Ax:
    return Ax(name, tuple(sorted(binding.items())))


def mp(arg: Term, imp: Term) -> MP:
    return MP(arg, imp)


# ---------------------------------------------------------------------------
# basic combinators (all return terms)

def pf_id(f: Formula) -> Term:
    step = mp(ax("a1", phi=f, psi=Imp(f, f)),
              ax("a2", phi=f, psi=Imp(f, f), chi=f))
    return mp(ax("a1", phi=f, psi=f), step)


def compose(p: Term, q: Term) -> Term:
    """From A->B and B->C build A->C."""
    a = p.formula.left
    b, c = q.formula.left, q.formula.right
    assert p.formula.right == b
    lifted = mp(q, ax("a1", phi=q.formula, psi=a))
    return mp(p, mp(lifted, ax("a2", phi=a, psi=b, chi=c)))


def chain(*ps: Term) -> Term:
    out = ps[0]
    for p in ps[1:]:
        out = compose(out, p)
    return out


def conj(p: Term, q: Term) -> Term:
    a, b = p.formula, q.formula
    return mp(q, mp(p, ax("a5", phi=a, psi=b)))


def fst(p: Term) -> Term:
    f = p.formula
    assert isinstance(f, And)
    return mp(p, ax("a3", phi=f.left, psi=f.right))


def snd(p: Term) -> Term:
    f = p.formula
    assert isinstance(f, And)
    return mp(p, ax("a4", phi=f.left, psi=f.right))


def disj_l(p: Term, right: Formula) -> Term:
    return mp(p, ax("a6", phi=p.formula, psi=right))


def or_elim(p: Term, q: Term) -> Term:
    """From A->C and B->C build (A|B)->C."""
    a, c = p.formula.left, p.formula.right
    b = q.formula.left
    assert q.formula.right == c
    return mp(q, mp(p, ax("a8", phi=a, psi=b, chi=c)))


def dne(f: Formula) -> Term:
    return fst(ax("a9", phi=f))


def dni(f: Formula) -> Term:
    return snd(ax("a9", phi=f))


def _uses(t: Term, h: Formula, memo: dict) -> bool:
    key = id(t)
    if key in memo:
        return memo[key]
    if isinstance(t, Hyp):
        out = t.f == h
    elif isinstance(t, MP):
        out = _uses(t.arg, h, memo) or _uses(t.imp, h, memo)
    elif isinstance(t, Rule):
        out = _uses(t.premise, h, memo)
    else:
        out = False
    memo[key] = out
    return out


def discharge(t: Term, h: Formula, _memo=None, _uses_memo=None) -> Term:
    """Deduction-theorem translation: from a derivation of F possibly using
    hypothesis h (via modus ponens only on h-dependent steps), produce a
    derivation of h -> F."""
    if _memo is None:
        _memo, _uses_memo = {}, {}
    key = id(t)
    if key in _memo:
        return _memo[key]
    if isinstance(t, Hyp) and t.f == h:
        out = pf_id(h)
    elif not _uses(t, h, _uses_memo):
        out = mp(t, ax("a1", phi=t.formula, psi=h))
    elif isinstance(t, MP):
        da = discharge(t.arg, h, _memo, _uses_memo)
        di = discharge(t.imp, h, _memo, _uses_memo)
        a2 = ax("a2", phi=h, psi=t.arg.formula, chi=t.formula)
        out = mp(da, mp(di, a2))
    else:
        raise AssertionError(
            f"cannot discharge over a {type(t).__name__} that uses the hypothesis")
    _memo[key] = out
    return out


def curry(p: Term) -> Term:
    """(A&B)->C to A->(B->C)."""
    ab = p.formula.left
    a, b = ab.left, ab.right
    body = mp(conj(Hyp(a), Hyp(b)), p)
    return discharge(discharge(body, b), a)


def uncurry(p: Term) -> Term:
    """A->(B->C) to (A&B)->C."""
    a = p.formula.left
    b = p.formula.right.left
    h = Hyp(And(a, b))
    return discharge(mp(snd(h), mp(fst(h), p)), And(a, b))


def swap_args(p: Term) -> Term:
    """A->(B->C) to B->(A->C)."""
    a = p.formula.left
    b = p.formula.right.left
    body = mp(Hyp(b), mp(Hyp(a), p))
    return discharge(discharge(body, a), b)


def imp_mono(p: Term, q: Term) -> Term:
    """From A'->A and B->B' build (A->B)->(A'->B')."""
    ap, a = p.formula.left, p.formula.right
    b = q.formula.left
    h = Imp(a, b)
    body = mp(mp(mp(Hyp(ap), p), Hyp(h)), q)
    return discharge(discharge(body, ap), h)


def and_mono(p: Term, q: Term) -> Term:
    """From A->C and B->D build (A&B)->(C&D)."""
    a, b = p.formula.left, q.formula.left
    h = Hyp(And(a, b))
    return discharge(conj(mp(fst(h), p), mp(snd(h), q)), And(a, b))


def or_mono(p: Term, q: Term) -> Term:
    """From A->C and B->D build (A|B)->(C|D)."""
    c, d = p.formula.right, q.formula.right
    return or_elim(compose(p, ax("a6", phi=c, psi=d)),
                   compose(q, ax("a7", phi=c, psi=d)))


# negation plumbing via a12 / a10

def neg_imp_intro(p: Term) -> Term:
    """From A->~B build ~(A->B)."""
    f = p.formula
    return mp(p, snd(ax("a12", phi=f.left, psi=f.right.body)))


# strong-implication scaffolding: seq(A,B) = (A->B)&(~B->~A)

def make_siff(p_ab: Term, p_nba: Term, p_ba: Term, p_nab: Term) -> Term:
    return conj(conj(p_ab, p_nba), conj(p_ba, p_nab))


def siff_parts(p: Term) -> tuple[Term, Term, Term, Term]:
    """(A->B, ~B->~A, B->A, ~A->~B) out of a strong equivalence."""
    return fst(fst(p)), snd(fst(p)), fst(snd(p)), snd(snd(p))


# ---------------------------------------------------------------------------
# C-level theorem builders

def b_at_arrow(a: Formula) -> Term:
    return mp(pf_id(Neg(a)), snd(ax("a12", phi=Neg(a), psi=a)))


def b_bt_arrow(a: Formula, b: Formula) -> Term:
    return snd(ax("a12", phi=a, psi=b))


def b_cbt_arrow(a: Formula, b: Formula) -> Term:
    return fst(ax("a12", phi=a, psi=b))


def b_contr(a: Formula) -> Term:
    x = And(a, Neg(a))
    first = ax("a3", phi=a, psi=Neg(a))
    second = neg_imp_intro(ax("a4", phi=a, psi=Neg(a)))
    return conj(first, second)


def b_contr_strong(a: Formula) -> Term:
    x = And(a, Neg(a))
    pos = conj(ax("a3", phi=a, psi=Neg(a)),
               chain(ax("a6", phi=Neg(a), psi=Neg(Neg(a))),
                     snd(ax("a10", phi=a, psi=Neg(a)))))
    neg_first = neg_imp_intro(ax("a4", phi=a, psi=Neg(a)))
    neg = mp(disj_l(neg_first, Neg(Imp(Neg(a), Neg(x)))),
             snd(ax("a10", phi=Imp(x, a), psi=Imp(Neg(a), Neg(x)))))
    return conj(pos, neg)


def b_strong_refl(a: Formula) -> Term:
    half = conj(pf_id(a), pf_id(Neg(a)))
    return conj(half, half)


def b_strong_sym(a: Formula, b: Formula) -> Term:
    h = Hyp(strong_iff(a, b))
    ab, nba, ba, nab = siff_parts(h)
    return discharge(make_siff(ba, nab, ab, nba), strong_iff(a, b))


def b_strong_trans(a: Formula, b: Formula, c: Formula) -> Term:
    hf = And(strong_iff(a, b), strong_iff(b, c))
    h = Hyp(hf)
    ab, nba, ba, nab = siff_parts(fst(h))
    bc, ncb, cb, nbc = siff_parts(snd(h))
    return discharge(make_siff(compose(ab, bc), compose(ncb, nba),
                               compose(cb, ba), compose(nab, nbc)), hf)


def b_strong_dne(a: Formula) -> Term:
    return make_siff(dni(a), dne(Neg(a)), dne(a), dni(Neg(a)))


def b_strong_demorgan_conj(a: Formula, b: Formula) -> Term:
    x2y = fst(ax("a10", phi=a, psi=b))
    y2x = snd(ax("a10", phi=a, psi=b))
    ny2nx = chain(fst(ax("a11", phi=Neg(a), psi=Neg(b))),
                  and_mono(dne(a), dne(b)), dni(And(a, b)))
    nx2ny = chain(dne(And(a, b)), and_mono(dni(a), dni(b)),
                  snd(ax("a11", phi=Neg(a), psi=Neg(b))))
    return make_siff(x2y, ny2nx, y2x, nx2ny)


def b_strong_demorgan_disj(a: Formula, b: Formula) -> Term:
    x2y = fst(ax("a11", phi=a, psi=b))
    y2x = snd(ax("a11", phi=a, psi=b))
    ny2nx = chain(fst(ax("a10", phi=Neg(a), psi=Neg(b))),
                  or_mono(dne(a), dne(b)), dni(Or(a, b)))
    nx2ny = chain(dne(Or(a, b)), or_mono(dni(a), dni(b)),
                  snd(ax("a10", phi=Neg(a), psi=Neg(b))))
    return make_siff(x2y, ny2nx, y2x, nx2ny)


def b_strong_neg_imp(a: Formula, b: Formula) -> Term:
    x2y = fst(ax("a12", phi=a, psi=b))
    y2x = snd(ax("a12", phi=a, psi=b))
    ny2nx = chain(fst(ax("a12", phi=a, psi=Neg(b))),
                  imp_mono(pf_id(a), dne(b)), dni(Imp(a, b)))
    nx2ny = chain(dne(Imp(a, b)), imp_mono(pf_id(a), dni(b)),
                  snd(ax("a12", phi=a, psi=Neg(b))))
    return make_siff(x2y, ny2nx, y2x, nx2ny)


def b_at_strong(a: Formula) -> Term:
    return mp(disj_l(b_at_arrow(a), Neg(Imp(Neg(a), Neg(Neg(a))))),
              snd(ax("a10", phi=Imp(Neg(a), a), psi=Imp(Neg(a), Neg(Neg(a))))))


def _seq_fwd(a: Formula, b: Formula) -> Term:
    """seq(A,~B) -> ~seq(A,B)."""
    hf = strong_imp(a, Neg(b))
    h = Hyp(hf)
    n = neg_imp_intro(fst(h))
    out = mp(disj_l(n, Neg(Imp(Neg(b), Neg(a)))),
             snd(ax("a10", phi=Imp(a, b), psi=Imp(Neg(b), Neg(a)))))
    return discharge(out, hf)


def _seq_excl(a: Formula, b: Formula) -> Term:
    """seq(A,B) -> ~seq(A,~B)."""
    hf = strong_imp(a, b)
    h = Hyp(hf)
    dn = mp(fst(h), imp_mono(pf_id(a), dni(b)))
    n = mp(dn, snd(ax("a12", phi=a, psi=Neg(b))))
    out = mp(disj_l(n, Neg(Imp(Neg(Neg(b)), Neg(a)))),
             snd(ax("a10", phi=Imp(a, Neg(b)), psi=Imp(Neg(Neg(b)), Neg(a)))))
    return discharge(out, hf)


def b_bt_strong(a: Formula, b: Formula) -> Term:
    fwd = _seq_fwd(a, b)
    nb2na = chain(dne(strong_imp(a, b)), _seq_excl(a, b))
    return conj(fwd, nb2na)


# ---------------------------------------------------------------------------
# CnK builders

def rm_box(p: Term) -> Term:
    f = p.formula
    return mp(Rule("nec", p), ax("b1", phi=f.left, psi=f.right))


def rm_dia(p: Term) -> Term:
    f = p.formula
    return mp(Rule("nec", p), ax("b2", phi=f.left, psi=f.right))


def box_neg_to_neg_box(f: Formula) -> Term:
    return snd(ax("b5", phi=f))


def neg_box_to_box_neg(f: Formula) -> Term:
    return fst(ax("b5", phi=f))


def b_at_strict(a: Formula) -> Term:
    return mp(Rule("nec", b_at_arrow(a)), box_neg_to_neg_box(Imp(Neg(a), a)))


def b_bt_strict_core(a: Formula, b: Formula) -> Term:
    return chain(rm_box(b_bt_arrow(a, b)), box_neg_to_neg_box(Imp(a, b)))


def b_cbt_strict_core(a: Formula, b: Formula) -> Term:
    return chain(neg_box_to_box_neg(Imp(a, b)), rm_box(b_cbt_arrow(a, b)))


def b_at_sstrict(a: Formula) -> Term:
    return mp(Rule("nec", b_at_strong(a)),
              box_neg_to_neg_box(strong_imp(Neg(a), a)))


def b_bt_sstrict_core(a: Formula, b: Formula) -> Term:
    """[](A=>~B) -> ~[](A=>B)."""
    return chain(rm_box(_seq_fwd(a, b)), box_neg_to_neg_box(strong_imp(a, b)))


def b_bt_sstrict(a: Formula, b: Formula) -> Term:
    fwd = b_bt_sstrict_core(a, b)
    back = chain(dne(Box(strong_imp(a, b))), rm_box(_seq_excl(a, b)),
                 box_neg_to_neg_box(strong_imp(a, Neg(b))))
    return Rule("nec", conj(fwd, back))


def b_t0_box(a: Formula) -> Term:
    x2y = fst(ax("b5", phi=a))
    y2x = snd(ax("b5", phi=a))
    ny2nx = chain(neg_box_to_box_neg(Neg(a)), rm_box(dne(a)), dni(Box(a)))
    nx2ny = chain(dne(Box(a)), rm_box(dni(a)), box_neg_to_neg_box(Neg(a)))
    return make_siff(x2y, ny2nx, y2x, nx2ny)


def b_t0_dia(a: Formula) -> Term:
    x2y = fst(ax("b6", phi=a))
    y2x = snd(ax("b6", phi=a))
    ny2nx = chain(fst(ax("b6", phi=Neg(a))), rm_dia(dne(a)), dni(Dia(a)))
    nx2ny = chain(dne(Dia(a)), rm_dia(dni(a)), snd(ax("b6", phi=Neg(a))))
    return make_siff(x2y, ny2nx, y2x, nx2ny)


def b_box_conj_dist(a: Formula, b: Formula) -> Term:
    fwd = uncurry(chain(rm_box(ax("a5", phi=a, psi=b)),
                        ax("b1", phi=b, psi=And(a, b))))
    hf = Box(And(a, b))
    h = Hyp(hf)
    back = discharge(conj(mp(h, rm_box(ax("a3", phi=a, psi=b))),
                          mp(h, rm_box(ax("a4", phi=a, psi=b)))), hf)
    return conj(fwd, back)


def b_dia_exchange(a: Formula, b: Formula) -> Term:
    inner = discharge(discharge(mp(Hyp(a), Hyp(Imp(a, b))), Imp(a, b)), a)
    return swap_args(chain(rm_box(inner), ax("b2", phi=Imp(a, b), psi=b)))


def b_contr_m_strict(a: Formula) -> Term:
    x = And(a, Neg(a))
    pos = Rule("nec", ax("a3", phi=a, psi=Neg(a)))
    neg = mp(Rule("nec", neg_imp_intro(ax("a4", phi=a, psi=Neg(a)))),
             box_neg_to_neg_box(Imp(x, a)))
    return conj(pos, neg)


def b_contr_m_sstrict(a: Formula) -> Term:
    x = And(a, Neg(a))
    cs = b_contr_strong(a)
    pos = Rule("nec", fst(cs))
    neg = mp(Rule("nec", snd(cs)), box_neg_to_neg_box(strong_imp(x, a)))
    return conj(pos, neg)


# ---------------------------------------------------------------------------
# CnCK builders

def rc_rule(kind: str, p: Term, chi: Formula) -> Term:
    return Rule(f"rc-{kind}", p, chi)


def would_nec(p: Term, anchor: Formula) -> Term:
    """From F derive anchor @> F."""
    f = p.formula
    eq = conj(ax("a1", phi=f, psi=f), mp(p, ax("a1", phi=f, psi=Imp(f, f))))
    r = rc_rule("box", eq, anchor)
    return mp(ax("g5", phi=anchor, psi=f), snd(r))


def rm_would(p: Term, chi: Formula) -> Term:
    """From A->B derive (chi @> A) -> (chi @> B)."""
    a, b = p.formula.left, p.formula.right
    back = discharge(conj(Hyp(a), mp(Hyp(a), p)), a)
    eq = conj(ax("a3", phi=a, psi=b), back)          # (A&B) <-> A
    r = rc_rule("box", eq, chi)                       # (chi@>(A&B)) <-> (chi@>A)
    g1 = ax("g1", phi=chi, psi=a, chi=b)
    hf = WouldTo(chi, a)
    h = Hyp(hf)
    out = mp(mp(mp(h, snd(r)), snd(g1)),
             ax("a4", phi=WouldTo(chi, a), psi=WouldTo(chi, b)))
    return discharge(out, hf)


def rm_might(p: Term, chi: Formula) -> Term:
    """From A->B derive (chi ?> A) -> (chi ?> B)."""
    a, b = p.formula.left, p.formula.right
    eq = conj(or_elim(p, pf_id(b)), ax("a7", phi=a, psi=b))   # (A|B) <-> B
    r = rc_rule("dia", eq, chi)                       # (chi?>(A|B)) <-> (chi?>B)
    g3 = ax("g3", phi=chi, psi=a, chi=b)
    hf = MightTo(chi, a)
    h = Hyp(hf)
    out = mp(mp(disj_l(h, MightTo(chi, b)), fst(g3)), fst(r))
    return discharge(out, hf)


def cong_would(p: Term, chi: Formula) -> Term:
    """From X<=>Y derive (chi@>X) <=> (chi@>Y)."""
    return _cong_consequent(p, chi, "box", "g6", WouldTo)


def cong_might(p: Term, chi: Formula) -> Term:
    return _cong_consequent(p, chi, "dia", "g7", MightTo)


def _cong_consequent(p, chi, kind, g_neg, ctor):
    x = p.formula.left.left.left
    y = p.formula.left.left.right
    ab, nba, ba, nab = siff_parts(p)
    r1 = rc_rule(kind, conj(ab, ba), chi)             # (chi*X) <-> (chi*Y)
    r2 = rc_rule(kind, conj(nab, nba), chi)           # (chi*~X) <-> (chi*~Y)
    n_yx = chain(fst(ax(g_neg, phi=chi, psi=y)), snd(r2),
                 snd(ax(g_neg, phi=chi, psi=x)))
    n_xy = chain(fst(ax(g_neg, phi=chi, psi=x)), fst(r2),
                 snd(ax(g_neg, phi=chi, psi=y)))
    return make_siff(fst(r1), n_yx, snd(r1), n_xy)


def _conj_detach(a: Formula, b: Formula) -> Term:
    """(A & (A->B)) -> B."""
    hf = And(a, Imp(a, b))
    h = Hyp(hf)
    return discharge(mp(fst(h), snd(h)), hf)


def b_th1(a: Formula, b: Formula, c: Formula) -> Term:
    body = compose(fst(ax("g1", phi=a, psi=b, chi=Imp(b, c))),
                   rm_would(_conj_detach(b, c), a))
    return swap_args(curry(body))


def b_th2(a: Formula, b: Formula, c: Formula) -> Term:
    body = compose(ax("g2", phi=a, psi=b, chi=Imp(b, c)),
                   rm_might(_conj_detach(b, c), a))
    return swap_args(curry(body))


def b_th3(a: Formula, b: Formula, c: Formula) -> Term:
    inner = discharge(discharge(mp(Hyp(b), Hyp(Imp(b, c))), Imp(b, c)), b)
    s1 = rm_would(inner, a)
    s2 = b_th2(a, Imp(b, c), c)
    return swap_args(compose(s1, s2))


def _dn_consequent(kind: str, anchor: Formula, b: Formula) -> Term:
    """(anchor * ~~B) <-> (anchor * B)."""
    return rc_rule(kind, ax("a9", phi=b), anchor)


def b_th4(a: Formula, b: Formula) -> Term:
    x2y = fst(ax("g6", phi=a, psi=b))
    y2x = snd(ax("g6", phi=a, psi=b))
    r = _dn_consequent("box", a, b)
    ny2nx = chain(fst(ax("g6", phi=a, psi=Neg(b))), fst(r), dni(WouldTo(a, b)))
    nx2ny = chain(dne(WouldTo(a, b)), snd(r), snd(ax("g6", phi=a, psi=Neg(b))))
    return make_siff(x2y, ny2nx, y2x, nx2ny)


def b_th5(a: Formula, b: Formula) -> Term:
    x2y = fst(ax("g7", phi=a, psi=b))
    y2x = snd(ax("g7", phi=a, psi=b))
    r = _dn_consequent("dia", a, b)
    ny2nx = chain(fst(ax("g7", phi=a, psi=Neg(b))), fst(r), dni(MightTo(a, b)))
    nx2ny = chain(dne(MightTo(a, b)), snd(r), snd(ax("g7", phi=a, psi=Neg(b))))
    return make_siff(x2y, ny2nx, y2x, nx2ny)


# ---------------------------------------------------------------------------
# CnCK_R builders

def boxto_lift(p: Term) -> Term:
    """From A->B derive A @> B (needs g8)."""
    a, b = p.formula.left, p.formula.right
    n = would_nec(p, a)
    t = b_th1(a, a, b)
    return mp(ax("g8", phi=a), mp(n, t))


def b_at_would_r(a: Formula) -> Term:
    """ss-chain prefix: ~(~A @> A)."""
    ss1 = mp(ax("g8", phi=Neg(a)), dni(WouldTo(Neg(a), Neg(a))))
    th4i = b_th4(Neg(a), Neg(a))
    ss2 = mp(ss1, snd(snd(th4i)))
    rb = cong_would(b_strong_dne(a), Neg(a))
    return mp(ss2, snd(fst(rb)))                     # ss3


def b_at_swould_r(a: Formula) -> Term:
    """Full ss-chain: ~(~A @=> A)."""
    wa = WouldTo(Neg(a), a)
    wb = WouldTo(Neg(a), Neg(Neg(a)))
    ss3 = b_at_would_r(a)
    t5i = b_strong_demorgan_conj(wa, wb)             # ss4
    d = disj_l(ss3, Neg(wb))                         # replaces ss5
    return mp(d, fst(snd(t5i)))                      # ss6


def b_bt_would_r(a: Formula, b: Formula) -> Term:
    return boxto_lift(snd(ax("g6", phi=a, psi=b)))


def b_cbt_would_r(a: Formula, b: Formula) -> Term:
    return boxto_lift(fst(ax("g6", phi=a, psi=b)))


def _swould_fwd(a: Formula, b: Formula) -> Term:
    """(A @=> ~B) -> ~(A @=> B)."""
    hf = strong_would(a, Neg(b))
    h = Hyp(hf)
    n = mp(fst(h), snd(ax("g6", phi=a, psi=b)))
    out = mp(disj_l(n, Neg(WouldTo(Neg(b), Neg(a)))),
             snd(ax("a10", phi=WouldTo(a, b), psi=WouldTo(Neg(b), Neg(a)))))
    return discharge(out, hf)


def _swould_excl(a: Formula, b: Formula) -> Term:
    """(A @=> B) -> ~(A @=> ~B)."""
    hf = strong_would(a, b)
    h = Hyp(hf)
    dn = mp(fst(h), snd(_dn_consequent("box", a, b)))
    n = mp(dn, snd(ax("g6", phi=a, psi=Neg(b))))
    out = mp(disj_l(n, Neg(WouldTo(Neg(Neg(b)), Neg(a)))),
             snd(ax("a10", phi=WouldTo(a, Neg(b)), psi=WouldTo(Neg(Neg(b)), Neg(a)))))
    return discharge(out, hf)


def b_bt_swould_r(a: Formula, b: Formula) -> Term:
    fwd = boxto_lift(_swould_fwd(a, b))
    back = boxto_lift(chain(dne(strong_would(a, b)), _swould_excl(a, b)))
    return conj(fwd, back)


# ---------------------------------------------------------------------------
# strong-equivalence substitution generator (used as a test generator)

def subst_strong_eq(p: Term, context: Formula, at: int,
                    allow: str = "prop") -> Term:
    """From a proof of X<=>Y, build a proof of context[X/at] <=> context[Y/at].

    `allow` selects the connective repertoire: 'prop', 'modal', or 'cond'.
    """
    from .syntax import substitute
    x = p.formula.left.left.left
    y = p.formula.left.left.right

    def go(theta: Formula) -> Term:
        lx = substitute(theta, x, at)
        if lx == substitute(theta, y, at):
            return b_strong_refl(lx)
        match theta:
            case Atom(index):
                assert index == at
                return p
            case Neg(body):
                q = go(body)
                qab, qnba, qba, qnab = siff_parts(q)
                bx, by = q.formula.left.left.left, q.formula.left.left.right
                return make_siff(qnab, chain(dne(by), qba, dni(bx)),
                                 qnba, chain(dne(bx), qab, dni(by)))
            case And(left, right):
                ql, qr = go(left), go(right)
                return _subst_and(ql, qr)
            case Or(left, right):
                ql, qr = go(left), go(right)
                return _subst_or(ql, qr)
            case Imp(left, right):
                ql, qr = go(left), go(right)
                return _subst_imp(ql, qr)
            case Box(body):
                assert allow == "modal"
                q = go(body)
                return _subst_box(q)
            case Dia(body):
                assert allow == "modal"
                q = go(body)
                return _subst_dia(q)
            case WouldTo(left, right):
                assert allow == "cond"
                return _subst_cond(go(left), go(right), "box", "g6", WouldTo)
            case MightTo(left, right):
                assert allow == "cond"
                return _subst_cond(go(left), go(right), "dia", "g7", MightTo)
        raise TypeError(f"not a formula: {theta!r}")

    return go(context)


def _ends(q: Term) -> tuple[Formula, Formula]:
    return q.formula.left.left.left, q.formula.left.left.right


def _subst_and(ql: Term, qr: Term) -> Term:
    lx, ly = _ends(ql)
    rx, ry = _ends(qr)
    lab, lnba, lba, lnab = siff_parts(ql)
    rab, rnba, rba, rnab = siff_parts(qr)
    fwd = and_mono(lab, rab)
    back = and_mono(lba, rba)
    n_fwd = chain(fst(ax("a10", phi=ly, psi=ry)), or_mono(lnba, rnba),
                  snd(ax("a10", phi=lx, psi=rx)))
    n_back = chain(fst(ax("a10", phi=lx, psi=rx)), or_mono(lnab, rnab),
                   snd(ax("a10", phi=ly, psi=ry)))
    return make_siff(fwd, n_fwd, back, n_back)


def _subst_or(ql: Term, qr: Term) -> Term:
    lx, ly = _ends(ql)
    rx, ry = _ends(qr)
    lab, lnba, lba, lnab = siff_parts(ql)
    rab, rnba, rba, rnab = siff_parts(qr)
    fwd = or_mono(lab, rab)
    back = or_mono(lba, rba)
    n_fwd = chain(fst(ax("a11", phi=ly, psi=ry)), and_mono(lnba, rnba),
                  snd(ax("a11", phi=lx, psi=rx)))
    n_back = chain(fst(ax("a11", phi=lx, psi=rx)), and_mono(lnab, rnab),
                   snd(ax("a11", phi=ly, psi=ry)))
    return make_siff(fwd, n_fwd, back, n_back)


def _subst_imp(ql: Term, qr: Term) -> Term:
    lx, ly = _ends(ql)
    rx, ry = _ends(qr)
    lab, lnba, lba, lnab = siff_parts(ql)
    rab, rnba, rba, rnab = siff_parts(qr)
    fwd = imp_mono(lba, rab)
    back = imp_mono(lab, rba)
    n_fwd = chain(fst(ax("a12", phi=ly, psi=ry)), imp_mono(lab, rnba),
                  snd(ax("a12", phi=lx, psi=rx)))
    n_back = chain(fst(ax("a12", phi=lx, psi=rx)), imp_mono(lba, rnab),
                   snd(ax("a12", phi=ly, psi=ry)))
    return make_siff(fwd, n_fwd, back, n_back)


def _subst_box(q: Term) -> Term:
    bx, by = _ends(q)
    ab, nba, ba, nab = siff_parts(q)
    fwd = rm_box(ab)
    back = rm_box(ba)
    n_fwd = chain(neg_box_to_box_neg(by), rm_box(nba), box_neg_to_neg_box(bx))
    n_back = chain(neg_box_to_box_neg(bx), rm_box(nab), box_neg_to_neg_box(by))
    return make_siff(fwd, n_fwd, back, n_back)


def _subst_dia(q: Term) -> Term:
    bx, by = _ends(q)
    ab, nba, ba, nab = siff_parts(q)
    fwd = rm_dia(ab)
    back = rm_dia(ba)
    n_fwd = chain(fst(ax("b6", phi=by)), rm_dia(nba), snd(ax("b6", phi=bx)))
    n_back = chain(fst(ax("b6", phi=bx)), rm_dia(nab), snd(ax("b6", phi=by)))
    return make_siff(fwd, n_fwd, back, n_back)


def _subst_cond(ql: Term, qr: Term, kind: str, g_neg: str, ctor) -> Term:
    lx, ly = _ends(ql)
    s1 = Rule(f"ra-{kind}", ql, chi=qr.formula.left.left.left)
    mid = ctor(ly, qr.formula.left.left.left)
    s2 = _cong_consequent(qr, ly, kind, g_neg, ctor)
    # transitivity: combine siff(A,B) with siff(B,C)
    a1b, n1, b1a, n2 = siff_parts(s1)
    b2c, n3, c2b, n4 = siff_parts(s2)
    return make_siff(compose(a1b, b2c), compose(n3, n1),
                     compose(c2b, b1a), compose(n2, n4))


# ---------------------------------------------------------------------------
# linearization

def linearize(term: Term, system: str, kind: str, name: str | None,
              hypotheses: tuple[Formula, ...] = (),
              goals: tuple[Formula, ...] | None = None) -> Proof:
    lines: list[ProofLine] = []
    index: dict[Formula, int] = {}

    def emit(f: Formula, just) -> int:
        got = index.get(f)
        if got is not None:
            return got
        lines.append(ProofLine(f, just))
        index[f] = len(lines)
        return len(lines)

    def walk(t: Term) -> int:
        f = t.formula
        got = index.get(f)
        if got is not None:
            return got
        if isinstance(t, Ax):
            return emit(f, AxiomJust(t.name, None))
        if isinstance(t, Hyp):
            return emit(f, HypJust())
        if isinstance(t, Lem):
            return emit(f, LemmaJust(t.name))
        if isinstance(t, MP):
            i = walk(t.arg)
            j = walk(t.imp)
            return emit(f, MpJust(i, j))
        if isinstance(t, Rule):
            i = walk(t.premise)
            return emit(f, RuleJust(t.name, i))
        raise TypeError(f"not a proof term: {t!r}")

    walk(term)
    if lines[-1].formula != term.formula:
        # duplicate-formula collapsing may have placed the goal earlier;
        # restate it so the final line matches the goal contract
        lines.append(lines[index[term.formula] - 1])
    if goals is None:
        goals = (term.formula,)
    return Proof(system, kind, name, hypotheses, goals, tuple(lines))


def theorem(name: str, system: str, term: Term) -> Proof:
    return linearize(term, system, "theorem", name)


def entail(name: str, system: str, term: Term,
           hyps: tuple[Formula, ...], goals: tuple[Formula, ...]) -> Proof:
    return linearize(term, system, "entail", name, hyps, goals)


def rulederive(name: str, system: str, term: Term,
               hyps: tuple[Formula, ...]) -> Proof:
    return linearize(term, system, "rulederive", name, hyps)


# ---------------------------------------------------------------------------
# the corpus

def _alpha_instance(n: int) -> Proof:
    binding = {"phi": P0, "psi": P1, "chi": P2}
    f = instantiate(AXIOMS[f"a{n}"], binding)
    line = ProofLine(f, AxiomJust(f"a{n}", None))
    return Proof("C", "theorem", f"alpha{n}_instance", (), (f,), (line,))


def build_corpus() -> list[Proof]:
    """Every shipped proof, in manifest (dependency) order."""
    proofs: list[Proof] = []
    add = proofs.append

    for n in range(1, 13):
        add(_alpha_instance(n))

    # C theorems
    add(theorem("at_arrow", "C", b_at_arrow(P0)))
    add(theorem("bt_arrow", "C", b_bt_arrow(P0, P1)))
    add(theorem("cbt_arrow", "C", b_cbt_arrow(P0, P1)))
    add(theorem("strong_refl", "C", b_strong_refl(P0)))
    add(theorem("strong_sym", "C", b_strong_sym(P0, P1)))
    add(theorem("strong_trans", "C", b_strong_trans(P0, P1, P2)))
    add(theorem("strong_dne", "C", b_strong_dne(P0)))
    add(theorem("strong_demorgan_conj", "C", b_strong_demorgan_conj(P0, P1)))
    add(theorem("strong_demorgan_disj", "C", b_strong_demorgan_disj(P0, P1)))
    add(theorem("strong_neg_imp", "C", b_strong_neg_imp(P0, P1)))
    add(theorem("neg_inconsistency_imp", "C", b_contr(P0)))
    add(theorem("neg_inconsistency_strong", "C", b_contr_strong(P0)))
    add(theorem("at_strong", "C", b_at_strong(P0)))
    add(theorem("bt_strong", "C", b_bt_strong(P0, P1)))

    # C entails
    add(entail("wbt_arrow", "C",
               mp(Hyp(Imp(P0, Neg(P1))), snd(ax("a12", phi=P0, psi=P1))),
               (Imp(P0, Neg(P1)),), (Neg(Imp(P0, P1)),)))
    add(entail("wcbt_arrow", "C",
               mp(Hyp(Neg(Imp(P0, P1))), fst(ax("a12", phi=P0, psi=P1))),
               (Neg(Imp(P0, P1)),), (Imp(P0, Neg(P1)),)))
    add(entail("wbt_strong", "C",
               mp(Hyp(strong_imp(P0, Neg(P1))),
                  fst(Lem("bt_strong", b_bt_strong(P0, P1).formula))),
               (strong_imp(P0, Neg(P1)),), (Neg(strong_imp(P0, P1)),)))

    # CnK
    add(rulederive("mono_box", "CnK", rm_box(Hyp(Imp(P0, P1))), (Imp(P0, P1),)))
    add(rulederive("mono_dia", "CnK", rm_dia(Hyp(Imp(P0, P1))), (Imp(P0, P1),)))
    add(theorem("neg_box_swap", "CnK", b_t0_box(P0)))
    add(theorem("neg_dia_swap", "CnK", b_t0_dia(P0)))
    add(theorem("box_conj_dist", "CnK", b_box_conj_dist(P0, P1)))
    add(theorem("dia_exchange", "CnK", b_dia_exchange(P0, P1)))
    add(theorem("at_strict", "CnK", b_at_strict(P0)))
    add(theorem("bt_strict_core", "CnK", b_bt_strict_core(P0, P1)))
    add(theorem("bt_strict", "CnK", Rule("nec", b_bt_strict_core(P0, P1))))
    add(theorem("cbt_strict_core", "CnK", b_cbt_strict_core(P0, P1)))
    add(theorem("cbt_strict", "CnK", Rule("nec", b_cbt_strict_core(P0, P1))))
    add(theorem("at_sstrict", "CnK", b_at_sstrict(P0)))
    add(theorem("bt_sstrict_core", "CnK", b_bt_sstrict_core(P0, P1)))
    add(theorem("bt_sstrict", "CnK", b_bt_sstrict(P0, P1)))
    add(theorem("contr_m_imp", "CnK", b_contr(P0)))
    add(theorem("contr_m_strong", "CnK", b_contr_strong(P0)))
    add(theorem("contr_m_strict", "CnK", b_contr_m_strict(P0)))
    add(theorem("contr_m_sstrict", "CnK", b_contr_m_sstrict(P0)))
    add(entail("wbt_strict", "CnK",
               mp(Hyp(Box(Imp(P0, Neg(P1)))),
                  Lem("bt_strict_core", b_bt_strict_core(P0, P1).formula)),
               (Box(Imp(P0, Neg(P1))),), (Neg(Box(Imp(P0, P1))),)))
    add(entail("wcbt_strict", "CnK",
               mp(Hyp(Neg(Box(Imp(P0, P1)))),
                  Lem("cbt_strict_core", b_cbt_strict_core(P0, P1).formula)),
               (Neg(Box(Imp(P0, P1))),), (Box(Imp(P0, Neg(P1))),)))
    add(entail("wbt_sstrict", "CnK",
               mp(Hyp(Box(strong_imp(P0, Neg(P1)))),
                  Lem("bt_sstrict_core", b_bt_sstrict_core(P0, P1).formula)),
               (Box(strong_imp(P0, Neg(P1))),), (Neg(Box(strong_imp(P0, P1))),)))

    # CnCK derived rules (Appendix-style)
    add(rulederive("cong_would", "CnCK",
                   cong_would(Hyp(strong_iff(P0, P1)), P2), (strong_iff(P0, P1),)))
    add(rulederive("cong_might", "CnCK",
                   cong_might(Hyp(strong_iff(P0, P1)), P2), (strong_iff(P0, P1),)))
    add(rulederive("would_nec", "CnCK", would_nec(Hyp(P0), P1), (P0,)))
    add(rulederive("mono_would", "CnCK", rm_would(Hyp(Imp(P0, P1)), P2),
                   (Imp(P0, P1),)))
    add(rulederive("mono_might", "CnCK", rm_might(Hyp(Imp(P0, P1)), P2),
                   (Imp(P0, P1),)))
    add(theorem("would_k_dist", "CnCK", b_th1(P0, P1, P2)))
    add(theorem("might_k_dist", "CnCK", b_th2(P0, P1, P2)))
    add(theorem("might_exchange", "CnCK", b_th3(P0, P1, P2)))
    add(theorem("neg_would_swap", "CnCK", b_th4(P0, P1)))
    add(theorem("neg_might_swap", "CnCK", b_th5(P0, P1)))

    # CnCK entails
    add(entail("wbt_would", "CnCK",
               mp(Hyp(WouldTo(P0, Neg(P1))), snd(ax("g6", phi=P0, psi=P1))),
               (WouldTo(P0, Neg(P1)),), (Neg(WouldTo(P0, P1)),)))
    add(entail("wcbt_would", "CnCK",
               mp(Hyp(Neg(WouldTo(P0, P1))), fst(ax("g6", phi=P0, psi=P1))),
               (Neg(WouldTo(P0, P1)),), (WouldTo(P0, Neg(P1)),)))
    add(entail("wbt_might", "CnCK",
               mp(Hyp(MightTo(P0, Neg(P1))), snd(ax("g7", phi=P0, psi=P1))),
               (MightTo(P0, Neg(P1)),), (Neg(MightTo(P0, P1)),)))
    add(entail("wcbt_might", "CnCK",
               mp(Hyp(Neg(MightTo(P0, P1))), fst(ax("g7", phi=P0, psi=P1))),
               (Neg(MightTo(P0, P1)),), (MightTo(P0, Neg(P1)),)))

    sw_hyp = strong_would(P0, Neg(P1))
    sw_body = mp(disj_l(mp(fst(Hyp(sw_hyp)), snd(ax("g6", phi=P0, psi=P1))),
                        Neg(WouldTo(Neg(P1), Neg(P0)))),
                 snd(ax("a10", phi=WouldTo(P0, P1), psi=WouldTo(Neg(P1), Neg(P0)))))
    add(entail("wbt_swould", "CnCK", sw_body,
               (sw_hyp,), (Neg(strong_would(P0, P1)),)))
    sm_hyp = strong_might(P0, Neg(P1))
    sm_body = mp(disj_l(mp(fst(Hyp(sm_hyp)), snd(ax("g7", phi=P0, psi=P1))),
                        Neg(MightTo(Neg(P1), Neg(P0)))),
                 snd(ax("a10", phi=MightTo(P0, P1), psi=MightTo(Neg(P1), Neg(P0)))))
    add(entail("wbt_smight", "CnCK", sm_body,
               (sm_hyp,), (Neg(strong_might(P0, P1)),)))

    # CnCK_R
    add(theorem("at_would_refl", "CnCKR", b_at_would_r(P0)))
    add(theorem("at_swould_refl", "CnCKR", b_at_swould_r(P0)))
    add(theorem("bt_would_refl", "CnCKR", b_bt_would_r(P0, P1)))
    add(theorem("cbt_would_refl", "CnCKR", b_cbt_would_r(P0, P1)))
    add(theorem("bt_swould_refl", "CnCKR", b_bt_swould_r(P0, P1)))

    return proofs


NEGATIVE_FIXTURES = {
    # wrong scheme instance
    "bad_scheme.prf": """system C
kind theorem
goal p0 -> p1
1 p0 -> p1 axiom a1
""",
    # forward line reference
    "bad_forward_ref.prf": """system C
kind theorem
goal p0 -> (p1 -> p0)
1 p0 -> (p1 -> p0) mp 2 3
2 p0 -> (p1 -> p0) axiom a1
3 p0 -> (p1 -> p0) axiom a1
""",
    # nec inside an entail proof
    "bad_nec_in_entail.prf": """system CnK
kind entail
hyp p0
goal []p0
1 p0 hyp
2 []p0 nec 1
""",
}


def check_corpus(proofs: list[Proof]) -> Registry:
    registry = Registry()
    for proof in proofs:
        result = registry.admit(proof)
        if not result.ok:
            raise AssertionError(f"{proof.name}: {result.describe()}")
    return registry


def emit_corpus(outdir) -> None:
    from pathlib import Path
    from .corpus import TABLE, build_table
    from .proof import render_proof
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    proofs = build_corpus()
    check_corpus(proofs)
    names = []
    for proof in proofs:
        fname = f"{proof.name}.prf"
        (out / fname).write_text(render_proof(proof))
        names.append(fname)
    (out / "manifest.txt").write_text("\n".join(names) + "\n")
    neg = out / "negative"
    neg.mkdir(exist_ok=True)
    for fname, text in NEGATIVE_FIXTURES.items():
        (neg / fname).write_text(text)
    (out / TABLE).write_bytes(build_table(out))


if __name__ == "__main__":
    import sys
    from pathlib import Path
    target = sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent / "corpus"
    emit_corpus(target)
    print(f"corpus written to {target}")
