import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import cnx

from conftest import CN_CONNS, MD_CONNS, PL_CONNS, random_formula, ref_read_line
from cnx.corpus import (CORPUS_DIR, TABLE, build_table, corpus_proof, corpus_registry,
                        decode_table, encode_table, load_corpus)
from cnx.errors import FormulaSyntaxError, ProofFormatError
from cnx.logics import Logic
from cnx.proof import (AXIOMS, SYSTEMS, Proof, Registry, check_proof, instantiate,
                       match_scheme, parse_proof, parse_proofs, render_proof,
                       system_includes)
from cnx.proofgen import (Hyp, b_strong_dne, build_corpus, discharge, mp,
                          subst_strong_eq, theorem)
from cnx.search import SearchBounds, Status, find_countermodel
from cnx.semantics import consecution
from cnx.syntax import Atom, Imp, atoms_of, parse


class TestMatching:
    def test_spec_examples(self):
        assert match_scheme(parse("(p0 & p1) -> p0"), AXIOMS["a3"]) == \
            {"phi": parse("p0"), "psi": parse("p1")}
        assert match_scheme(parse("~(p0 -> p1) <-> (p0 -> ~p1)"),
                            AXIOMS["a12"]) == \
            {"phi": parse("p0"), "psi": parse("p1")}
        assert match_scheme(parse("p0 -> p1"), AXIOMS["a1"]) is None

    def test_instantiate_roundtrip(self):
        binding = {"phi": parse("p0 & p1"), "psi": parse("~p2")}
        inst = instantiate(AXIOMS["a5"], binding)
        assert match_scheme(inst, AXIOMS["a5"]) == binding

    def test_nonlinear_templates_need_consistent_bindings(self):
        # a9 mentions phi twice
        assert match_scheme(parse("~~p0 <-> p0"), AXIOMS["a9"]) is not None
        assert match_scheme(parse("~~p0 <-> p1"), AXIOMS["a9"]) is None


class TestSystems:
    def test_scheme_inclusions(self):
        assert system_includes("S0", "C")
        assert system_includes("C", "CnK")
        assert system_includes("C", "CnCK")
        assert system_includes("CnCK", "CnCKR")
        assert not system_includes("CnK", "CnCK")
        assert not system_includes("CnCK", "CnK")

    @staticmethod
    def _scheme_models(logic, system, worlds, max_atoms=3):
        """The models each scheme of the system, taken at p0/p1/p2 and
        searched at its own atoms, evaluates before it exhausts the bounds."""
        models = {}
        for name in sorted(SYSTEMS[system].axioms):
            if len(atoms_of(AXIOMS[name])) <= max_atoms:
                out = find_countermodel(logic, consecution([], [AXIOMS[name]]),
                                        SearchBounds(worlds))
                assert out.status is Status.EXHAUSTED, (system, name)
                models[name] = out.models
        return models

    def test_schemes_hold_on_every_small_model(self):
        # valuations range over every hereditary bi-set, so a scheme that
        # holds at distinct atoms on every model of at most n worlds holds
        # for each of its instances there
        assert sum(self._scheme_models(Logic.C, "C", 3).values()) == 778_980
        assert sum(self._scheme_models(Logic.CnK, "CnK", 2).values()) == 211_410
        # all but a2 and a8, which have three atoms
        three_worlds = self._scheme_models(Logic.CnK, "CnK", 3, max_atoms=2)
        assert len(three_worlds) == 16 and sum(three_worlds.values()) == 33_910_240
        # the C schemes of one or two atoms at 5 worlds: a9 has one atom
        # (16,329 models) and the other nine two (3,635,085 each)
        five_worlds = self._scheme_models(Logic.C, "C", 5, max_atoms=2)
        assert len(five_worlds) == 10 and sum(five_worlds.values()) == 32_732_094
        # every scheme has one conditional antecedent, so the cap of 1 index
        # covers every model of the class on 2 worlds
        assert sum(self._scheme_models(Logic.CnCK, "CnCK", 2).values()) == 319_163
        assert sum(self._scheme_models(Logic.CnCK_R, "CnCKR", 2).values()) == 136_136
        # positive controls: Peirce's law is not a C theorem, CnK has no T
        # axiom, and CnCK has no g8
        for logic, f in ((Logic.C, parse("((p0 -> p1) -> p0) -> p0")),
                         (Logic.CnK, parse("[]p0 -> p0")), (Logic.CnCK, AXIOMS["g8"])):
            out = find_countermodel(logic, consecution([], [f]), SearchBounds(3, (0, 1)))
            assert out.found, f

    def test_proofs_transfer_upward(self):
        # a C proof is accepted verbatim in every extension
        base = corpus_proof("neg_inconsistency_imp")
        for system in ("CnK", "CnCK", "CnCKR"):
            moved = Proof(system, base.kind, None, base.hypotheses,
                          base.goals, base.lines)
            assert check_proof(moved, corpus_registry()).ok


class TestChecker:
    def test_spec_sample_at_proof(self):
        text = """system C
kind theorem
name sample_at
goal ~(~p0 -> p0)
1 ~p0 -> ((~p0 -> ~p0) -> ~p0) axiom a1
2 ~p0 -> (~p0 -> ~p0) axiom a1
3 (~p0 -> ((~p0 -> ~p0) -> ~p0)) -> ((~p0 -> (~p0 -> ~p0)) -> (~p0 -> ~p0)) axiom a2
4 (~p0 -> (~p0 -> ~p0)) -> (~p0 -> ~p0) mp 1 3
5 ~p0 -> ~p0 mp 2 4
6 (~(~p0 -> p0) -> (~p0 -> ~p0)) & ((~p0 -> ~p0) -> ~(~p0 -> p0)) axiom a12 phi=~p0 psi=p0
7 ((~(~p0 -> p0) -> (~p0 -> ~p0)) & ((~p0 -> ~p0) -> ~(~p0 -> p0))) -> ((~p0 -> ~p0) -> ~(~p0 -> p0)) axiom a4
8 (~p0 -> ~p0) -> ~(~p0 -> p0) mp 6 7
9 ~(~p0 -> p0) mp 5 8
"""
        assert check_proof(parse_proof(text), Registry()).ok

    def test_explicit_binding_must_match(self):
        text = """system C
kind theorem
goal (p0 & p1) -> p0
1 (p0 & p1) -> p0 axiom a3 phi=p1 psi=p0
"""
        res = check_proof(parse_proof(text), Registry())
        assert not res.ok and res.code == "bad-scheme-instance"

    def test_entail_goal_disjunction_associations(self):
        # any association/grouping of delta members is accepted
        head = "system C\nkind entail\nhyp p0\ngoal p0\ngoal p1 -> p1\n"
        body = """1 p0 hyp
2 p0 -> (p0 | (p1 -> p1)) axiom a6
3 p0 | (p1 -> p1) mp 1 2
"""
        assert check_proof(parse_proof(head + body), Registry()).ok
        # a delta member that is itself a disjunction counts as one theta
        text = """system C
kind entail
hyp p0 | p1
goal p0 | p1
1 p0 | p1 hyp
"""
        assert check_proof(parse_proof(text), Registry()).ok

    def test_entail_goal_mismatch(self):
        text = """system C
kind entail
hyp p0
goal p1
1 p0 hyp
"""
        res = check_proof(parse_proof(text), Registry())
        assert not res.ok and res.code == "goal-mismatch"

    def test_hyp_must_be_declared(self):
        text = "system C\nkind entail\nhyp p0\ngoal p0\n1 p1 hyp\n"
        res = check_proof(parse_proof(text), Registry())
        assert not res.ok and res.code == "hyp-not-declared"

    def test_rules_rejected_in_entail_even_on_closed_lines(self):
        text = """system CnK
kind entail
hyp p0
goal []( p1 -> p1 )
1 p1 -> (p1 -> p1) axiom a1
2 (p1 -> (p1 -> p1)) -> ((p1 -> p1) -> (p1 -> (p1 -> p1))) axiom a1
"""
        # nec on a theorem line is still not allowed inside an entail proof
        text = ("system CnK\nkind entail\nhyp p0\ngoal [](p0 -> (p1 -> p0))\n"
                "1 p0 -> (p1 -> p0) axiom a1\n"
                "2 [](p0 -> (p1 -> p0)) nec 1\n")
        res = check_proof(parse_proof(text), Registry())
        assert not res.ok and res.code == "rule-not-permitted-in-kind"

    def test_axiom_outside_system(self):
        text = "system C\nkind theorem\ngoal p0 @> (p1 -> p1)\n1 p0 @> (p1 -> p1) axiom g5\n"
        res = check_proof(parse_proof(text), Registry())
        assert not res.ok and res.code in ("axiom-not-in-system", "language-mismatch")

    def test_unknown_lemma_and_system_scoping(self):
        reg = Registry()
        reg.register("modal_fact", "CnK", parse("[]p0 -> []p0"))
        text = "system CnCK\nkind theorem\ngoal []p0 -> []p0\n1 []p0 -> []p0 lemma modal_fact\n"
        res = check_proof(parse_proof(text), reg)
        # CnK is not included in CnCK (language mismatch is also acceptable)
        assert not res.ok
        res = check_proof(parse_proof("system C\nkind theorem\ngoal p0\n1 p0 lemma nope\n"),
                          Registry())
        assert res.code == "unknown-lemma"

    def test_rule_conclusion_matching(self):
        good = ("system CnCK\nkind rulederive\nhyp p0 <=> p1\ngoal (p2 @> p0) <-> (p2 @> p1)\n"
                "1 p0 <=> p1 hyp\n"
                "2 (p0 -> p1) & (p1 -> p0) mp 1 3\n")
        # rc-box needs an iff premise, not the strong one
        text = ("system CnCK\nkind rulederive\nhyp p0 <=> p1\n"
                "goal (p2 @> p0) <-> (p2 @> p1)\n"
                "1 p0 <=> p1 hyp\n"
                "2 (p2 @> p0) <-> (p2 @> p1) rc-box 1\n")
        res = check_proof(parse_proof(text), Registry())
        assert not res.ok and res.code == "bad-scheme-instance"

    def test_mp_order_insensitive(self):
        text = """system C
kind entail
hyp p0
hyp p0 -> p1
goal p1
1 p0 -> p1 hyp
2 p0 hyp
3 p1 mp 2 1
"""
        assert check_proof(parse_proof(text), Registry()).ok
        swapped = text.replace("3 p1 mp 2 1", "3 p1 mp 1 2")
        assert check_proof(parse_proof(swapped), Registry()).ok


class TestProofFiles:
    def test_roundtrip_every_corpus_file(self):
        for fname in (CORPUS_DIR / "manifest.txt").read_text().split():
            text = (CORPUS_DIR / fname).read_text()
            proof = parse_proof(text)
            assert render_proof(parse_proof(render_proof(proof))) == render_proof(proof)

    def test_bad_line_numbering(self):
        with pytest.raises(ProofFormatError):
            parse_proof("system C\nkind theorem\ngoal p0\n2 p0 hyp\n")

    def test_missing_headers(self):
        with pytest.raises(ProofFormatError):
            parse_proof("kind theorem\ngoal p0\n1 p0 hyp\n")

    @pytest.mark.parametrize("text, message", [
        ("system C\nsystem CnK\nkind theorem\n", "line 2: a second 'system' line"),
        ("system C\nkind theorem\nkind entail\n", "line 3: a second 'kind' line"),
        ("system C\nkind theorem\nname t\nname u\n", "line 4: a second 'name' line"),
        ("system C\nkind theorem\ngoal p1 -> (p0 -> p1)\n"
         "1 p1 -> (p0 -> p1) axiom a1 phi=p1 phi=p0 psi=p1\n", "line 4: phi is bound twice"),
        ("system C\nkind theorem\n1 p0 -> (p0 -> p0) axiom a1 psi=p0 phi=p0 psi=p0\n",
         "line 3: psi is bound twice"),
    ])
    def test_repeated_header_or_binding_is_rejected(self, text, message):
        # each was read, the last line or binding taken
        with pytest.raises(ProofFormatError, match=f"^{message}$"):
            parse_proof(text)

    def test_strict_arrows_are_rejected_not_cut(self):
        for arrow in ("#>", "#=>", "<#>", "<#=>"):
            for line in (f"hyp p0 {arrow} p1", f"1 p0 {arrow} p1 hyp",
                         f"goal p0{arrow}p1", f"1 p0 hyp {arrow}"):
                text = f"system C\nkind entail\ngoal p0\n{line}\n"
                with pytest.raises(ProofFormatError, match="^line 4: strict arrows"):
                    parse_proof(text)
        # a comment that holds a strict arrow after its own '#' stays a comment
        proof = parse_proof("system C\nkind entail\nhyp p0  # not p0 #> p1\n"
                            "goal p0\n1 p0 hyp\n")
        assert len(proof.hypotheses) == 1 and len(proof.lines) == 1

    def test_line_index_must_be_ascii_digits(self):
        for head in ("\u00b2", "\u0663", "1\u00b2"):
            with pytest.raises(ProofFormatError,
                               match=f"^line 4: unknown directive '{head}'$"):
                parse_proof(f"system C\nkind theorem\ngoal p0 -> p0\n{head} p0 hyp\n")

    def test_file_level_rejection_has_no_line(self):
        result = check_proof(parse_proof("system C\nkind theorem\n"))
        assert result.line is None
        assert result.describe() == "empty-proof: a proof needs at least one line"
        result = check_proof(parse_proof("system C\nkind theorem\ngoal p0\n1 p0 hyp\n"))
        assert result.describe().startswith(f"line 1: {result.code}: ")

    def test_proofs_read_together_are_those_read_alone(self):
        # one group memo for all the texts, as build_table reads them
        texts = [path.read_text() for path in sorted(CORPUS_DIR.rglob("*.prf"))]
        proofs = parse_proofs(texts)
        assert [next(proofs) for _ in texts] == [parse_proof(t) for t in texts]
        # a text is read when its proof is asked for, and fails as it would alone
        bad = "system C\nkind theorem\n1 (p0 -> (p1 & p0) hyp\n"
        proofs = parse_proofs([texts[0], bad, texts[1]])
        assert next(proofs) == parse_proof(texts[0])
        with pytest.raises(FormulaSyntaxError) as alone:
            parse_proof(bad)
        with pytest.raises(FormulaSyntaxError) as together:
            next(proofs)
        assert (together.value.message, together.value.offset) == \
            (alone.value.message, alone.value.offset) == ("line 3: unclosed parenthesis", 19)

    def test_justifications_match_the_reference_reader(self):
        # random tails after a valid line formula, against conftest.ref_read_line
        outcomes = Counter()
        for line in random_justified_lines(11, 10_000):
            text = f"system C\nkind theorem\n{line}\n"
            got = read_outcome(lambda: parse_proof(text).lines[0])
            want = read_outcome(lambda: ref_read_line(line.rstrip(), 2), prefix="line 3: ")
            assert got == want, repr(line)
            outcomes[got[0] if got[0] != "ok" else type(got[2]).__name__] += 1
        # every kind of justification is read, and every kind of error is met
        assert min(outcomes[k] for k in ("AxiomJust", "MpJust", "RuleJust", "HypJust",
                                         "LemmaJust")) > 100, outcomes
        assert min(outcomes["ProofFormatError"], outcomes["FormulaSyntaxError"]) > 1000


def read_outcome(read, prefix=""):
    """What reading gives: the line's formula and justification, or the error."""
    try:
        line = read()
    except FormulaSyntaxError as e:
        return "FormulaSyntaxError", prefix + e.message, e.offset, e.expected
    except ProofFormatError as e:
        return "ProofFormatError", prefix + str(e)
    formula, just = line if isinstance(line, tuple) else (line.formula, line.just)
    return "ok", formula, just


_TAIL_WORDS = ["mp", "nec", "ra-box", "rc-dia", "hyp", "lemma", "axiom", "a1", "g8", "foo_2",
               "x-", "mp1", "p3", "p3x", "phi", "psi", "chi"]
_TAIL_NUMS = ["1", "2", "12", "007"]
_TAIL_FORMULAS = ["p0", "p1 & p2", "(p0 -> p1)", "~[]p2", "p0 <-> p1 <-> p2", "(p0", "p0 ->"]
_TAIL_JUNK = ["\t", "\u0663", "\u00b2", "$", "-", ">", "\u00e9", "4x", "="]
_LINE_FORMULAS = ["p0", "p0 -> p1", "(p0 & ~p1)", "[]p0", "p0 @=> p1", "~(p2)"]


def random_justified_lines(seed: int, n: int):
    """Numbered proof lines: a valid formula, then a justification made of
    words, numbers, '=', formulas and junk, often a well-formed one with a
    piece spliced in."""
    rnd = random.Random(seed)

    def piece():
        pool = rnd.choice((_TAIL_WORDS, _TAIL_WORDS, _TAIL_NUMS, _TAIL_NUMS, ["="],
                           _TAIL_FORMULAS, _TAIL_JUNK))
        return rnd.choice(pool)

    def sep():
        return rnd.choice(("", " ", " ", " ", "\t", "  "))

    for _ in range(n):
        num, word, f = rnd.choice(_TAIL_NUMS), rnd.choice(_TAIL_WORDS), rnd.choice(_TAIL_FORMULAS)
        v, w = rnd.choice(("phi", "psi", "chi")), rnd.choice(("phi", "psi", "chi"))
        if rnd.random() < 0.6:
            tail = rnd.choice((f"mp {num} {rnd.choice(_TAIL_NUMS)}", f"nec {num}",
                               f"ra-box {num}", "hyp", f"lemma {word}", f"axiom a{num}",
                               f"axiom {word} phi={f}", f"axiom a1 {v} = {f} {w}= p1",
                               f"axiom a2{sep()}chi{sep()}={sep()}{f}"))
            for _ in range(rnd.choice((0, 0, 1, 2))):
                i = rnd.randrange(len(tail) + 1)
                tail = tail[:i] + sep() + piece() + sep() + tail[i + rnd.randint(0, 2):]
        else:
            tail = "".join(piece() + sep() for _ in range(rnd.randint(0, 5)))
        yield f"1 {rnd.choice(_LINE_FORMULAS)}{sep()}{tail}{sep()}"


class TestCorpus:
    def test_corpus_loads_clean(self):
        registry, index = load_corpus()
        assert len(index) >= 60
        assert len(registry) >= 45

    def test_every_proof_is_named_after_its_file(self):
        # a proof can then be found by name alone, without the manifest
        fnames = (CORPUS_DIR / "manifest.txt").read_text().split()
        assert len(fnames) >= 60
        for fname in fnames:
            assert parse_proof((CORPUS_DIR / fname).read_text()).name == Path(fname).stem, fname

    def test_negative_fixtures(self):
        reg = corpus_registry()
        expected = {
            "bad_scheme.prf": "bad-scheme-instance",
            "bad_forward_ref.prf": "bad-line-ref",
            "bad_nec_in_entail.prf": "rule-not-permitted-in-kind",
        }
        for fname, code in expected.items():
            proof = parse_proof((CORPUS_DIR / "negative" / fname).read_text())
            res = check_proof(proof, reg)
            assert not res.ok and res.code == code, (fname, res)

    def test_shipped_files_match_generator(self):
        from cnx.proof import render_proof
        for proof in build_corpus():
            on_disk = (CORPUS_DIR / f"{proof.name}.prf").read_text()
            assert on_disk == render_proof(proof), proof.name
        # and the table is the one written from the shipped texts
        assert (CORPUS_DIR / TABLE).read_bytes() == build_table(CORPUS_DIR)

    def test_table_holds_the_parsed_texts(self):
        # the parser still reads every shipped file, and the table gives
        # back what it reads
        names = (CORPUS_DIR / "manifest.txt").read_text().split()
        parsed = [*parse_proofs((CORPUS_DIR / fname).read_text() for fname in names)]
        decoded = decode_table(json.loads((CORPUS_DIR / TABLE).read_bytes()))
        assert len(decoded) == len(names) == 71
        # records compare field by field, and formulas by `is`
        for fname, d, p in zip(names, decoded, parsed):
            assert d == p, fname

    def test_table_bytes_do_not_depend_on_the_hash_seed(self):
        script = ("import sys; from cnx.corpus import CORPUS_DIR, build_table; "
                  "sys.stdout.buffer.write(build_table(CORPUS_DIR))")
        shipped = (CORPUS_DIR / TABLE).read_bytes()
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": str(Path(cnx.__file__).parents[1])}
            out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                 stdout=subprocess.PIPE).stdout
            assert out == shipped, seed

    def test_table_holds_no_axiom_binding_and_no_nameless_proof(self):
        text = "system C\nkind theorem\n{}goal p0 -> (p1 -> p0)\n1 p0 -> (p1 -> p0) axiom a1{}\n"
        with pytest.raises(ValueError, match="^b.prf: line 1: the proof table holds no "):
            encode_table({"b.prf": 0}, [parse_proof(text.format("name b\n", " phi=p0"))])
        with pytest.raises(ValueError, match="^n.prf: corpus proofs must be named$"):
            encode_table({"n.prf": 0}, [parse_proof(text.format("", ""))])

    def test_every_load_checks_every_proof(self, fresh_corpus, monkeypatch):
        checked = []

        def counting_check(proof, registry=None):
            checked.append(proof.name)
            return check_proof(proof, registry)

        monkeypatch.setattr(cnx.proof, "check_proof", counting_check)
        fresh_corpus()
        names = (CORPUS_DIR / "manifest.txt").read_text().split()
        assert checked == [Path(fname).stem for fname in names] and len(checked) == 71

    def test_every_file_the_load_opens_is_package_data(self, fresh_corpus, monkeypatch):
        # an installed wheel holds only the package data's files
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
        root = Path(__file__).resolve().parents[1]
        setuptools = tomllib.loads((root / "pyproject.toml").read_text())["tool"]["setuptools"]
        package = CORPUS_DIR.parent
        shipped = {path for glob in setuptools["package-data"]["cnx"]
                   for path in package.glob(glob)}
        opened = []
        real_open = io.open

        def recording_open(file, *args, **kwargs):
            opened.append(Path(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", recording_open)
        fresh_corpus()
        monkeypatch.undo()
        assert CORPUS_DIR / TABLE in opened and CORPUS_DIR / "manifest.txt" in opened
        assert set(opened) <= shipped, set(opened) - shipped


class TestGenerators:
    def test_deduction_theorem_generator(self):
        # mechanical discharge of random modus-ponens chains
        rnd = random.Random(31)
        reg = corpus_registry()
        for _ in range(20):
            a = random_formula(rnd, 2, (0, 1))
            b = random_formula(rnd, 2, (0, 1))
            h = Imp(a, Imp(a, b))
            body = mp(Hyp(a), mp(Hyp(a), Hyp(h)))
            term = discharge(discharge(body, a), h)
            proof = theorem(None, "C", term)
            assert check_proof(proof, reg).ok
            assert proof.goals[0] == Imp(h, Imp(a, b))

    def test_strong_equivalence_substitution_generator(self):
        rnd = random.Random(37)
        reg = corpus_registry()
        for allow, conns, system in (("prop", PL_CONNS, "C"),
                                     ("modal", MD_CONNS, "CnK"),
                                     ("cond", CN_CONNS, "CnCK")):
            for _ in range(8):
                theta = random_formula(rnd, 3, (0, 1), conns)
                term = subst_strong_eq(b_strong_dne(Atom(0)), theta, 0, allow)
                proof = theorem(None, system, term)
                assert check_proof(proof, reg).ok

    def test_accepted_lines_never_refuted_on_bounded_models(self):
        # soundness spot-check: theorem goals from the corpus survive bounded
        # countermodel search in their own logic
        sample = ["at_arrow", "bt_strong", "neg_inconsistency_imp",
                  "at_strict", "box_conj_dist", "neg_would_swap",
                  "at_would_refl", "bt_swould_refl"]
        for name in sample:
            proof = corpus_proof(name)
            logic = {"C": Logic.C, "CnK": Logic.CnK, "CnCK": Logic.CnCK,
                     "CnCKR": Logic.CnCK_R}[proof.system]
            bounds = SearchBounds(2, (0, 1), max_cond_indices=1)
            out = find_countermodel(logic, consecution([], [proof.goals[0]]),
                                    bounds)
            assert out.status is Status.EXHAUSTED, name

    def test_every_corpus_line_holds_on_bounded_models(self):
        # line-by-line soundness over enumerated models: theorem and entail
        # lines hold wherever the hypotheses hold; rulederive lines hold in
        # models whose every world satisfies the hypotheses (rules preserve
        # model-wide truth, not pointwise truth)
        import itertools

        from cnx.search import enumerate_models
        from cnx.semantics import biextension
        from cnx.syntax import atoms_of

        _, index = load_corpus()
        logic_of = {"C": Logic.C, "CnK": Logic.CnK, "CnCK": Logic.CnCK,
                    "CnCKR": Logic.CnCK_R}
        for proof in index.values():
            logic = logic_of[proof.system]
            atoms = frozenset()
            for line in proof.lines:
                atoms |= atoms_of(line.formula)
            bounds = SearchBounds(2, tuple(sorted(atoms)) or (0,),
                                  max_cond_indices=1)
            stream = enumerate_models(logic.frame_class, bounds)
            cap = 120 if len(atoms) > 2 or proof.system in ("CnCK", "CnCKR") \
                else 500
            for m in itertools.islice(stream, cap):
                # the worlds verifying each formula, once per model
                hyps = [biextension(m, h).pos for h in proof.hypotheses]
                if proof.kind == "rulederive":
                    if not all(w in pos for pos in hyps for w in m.worlds):
                        continue
                    for line in proof.lines:
                        pos = biextension(m, line.formula).pos
                        for w in m.worlds:
                            assert w in pos, (proof.name, line.formula, w)
                else:
                    held = [w for w in m.worlds if all(w in pos for pos in hyps)]
                    if not held:
                        continue
                    for line in proof.lines:
                        pos = biextension(m, line.formula).pos
                        for w in held:
                            assert w in pos, (proof.name, line.formula, w)
