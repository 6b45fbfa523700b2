import pytest

from cnx.corpus import TABLE, build_table
from cnx.errors import LanguageMismatch
from cnx.harness import (ALL_CELLS, CONNECTIVES, BoundedEvidence, CountermodelEvidence,
                         ConnexivityReport, ProofEvidence, Thesis,
                         ThesisStatus, connective_defined_in, run_suite,
                         run_thesis, thesis_instance, DEFAULT_BOUNDS)
from cnx.logics import Logic
from cnx.model import serialize_model
from cnx.search import SearchBounds, find_countermodel
from cnx.semantics import Consecution, consecution
from cnx.syntax import parse


def test_cell_inventory():
    assert len(ALL_CELLS) == 18
    assert (Logic.C, "#>") not in ALL_CELLS
    assert (Logic.CnK, "@>") not in ALL_CELLS
    assert (Logic.CnCK_R, "?=>") in ALL_CELLS


def test_connectives_are_defined_by_the_logic_language():
    # -> and => are propositional, #> and #=> modal, the rest conditional
    defined = {"->": set(Logic), "=>": set(Logic), "#>": {Logic.CnK}, "#=>": {Logic.CnK}}
    for conn in CONNECTIVES:
        for logic in Logic:
            expected = logic in defined.get(conn, {Logic.CnCK, Logic.CnCK_R})
            assert connective_defined_in(conn, logic) is expected, (conn, logic)
    assert len(CONNECTIVES) * len(Logic) == 32


def test_thesis_instances():
    def theorem(text):
        return consecution([], [parse(text)])

    assert thesis_instance("->", Thesis.AT) == theorem("~(~p0 -> p0)")
    assert thesis_instance("->", Thesis.BT) == theorem("(p0 -> ~p1) -> ~(p0 -> p1)")
    assert thesis_instance("->", Thesis.CBT) == theorem("~(p0 -> p1) -> (p0 -> ~p1)")
    assert thesis_instance("->", Thesis.NONSYM) == theorem("(p0 -> p1) -> (p1 -> p0)")
    wbt = thesis_instance("@>", Thesis.WBT)
    assert isinstance(wbt, Consecution)
    assert wbt.gamma == {parse("p0 @> ~p1")}
    assert wbt.delta == {parse("~(p0 @> p1)")}
    assert thesis_instance("@=>", Thesis.AT) == theorem("~(~p0 @=> p0)")


def _report(verdicts: dict) -> ConnexivityReport:
    statuses = tuple(
        ThesisStatus(t, "holds" if verdicts.get(t) else "fails",
                     BoundedEvidence(SearchBounds(1, (0,))))
        for t in Thesis)
    return ConnexivityReport(Logic.C, "->", statuses)


def test_label_derivation():
    full_hyper = {Thesis.AT: 1, Thesis.BT: 1, Thesis.CBT: 1,
                  Thesis.WBT: 1, Thesis.WCBT: 1}
    assert _report(full_hyper).label == "fully hyperconnexive"
    assert _report({Thesis.AT: 1, Thesis.BT: 1, Thesis.WBT: 1}).label == \
        "fully connexive"
    assert _report({Thesis.AT: 1, Thesis.BT: 1}).label == "plainly connexive"
    assert _report({Thesis.AT: 1, Thesis.WBT: 1}).label == "weakly connexive"
    assert _report({Thesis.WBT: 1, Thesis.WCBT: 1}).label == \
        "weakly partially hyperconnexive"
    assert _report({Thesis.WBT: 1}).label == "weakly partially connexive"
    assert _report({Thesis.BT: 1}).label == "partially connexive"
    assert _report({}).label == "none"
    # nonSym holding blocks connexivity outright
    assert _report({Thesis.AT: 1, Thesis.BT: 1, Thesis.WBT: 1,
                    Thesis.NONSYM: 1, Thesis.WNONSYM: 1}).label == "none"


def test_undefined_connective_rejected():
    with pytest.raises(LanguageMismatch):
        run_suite(Logic.C, "#>")
    assert not connective_defined_in("@>", Logic.CnK)


def test_strong_conditional_wcbt_fails_via_m0c():
    st = run_thesis(Logic.CnCK, "@=>", Thesis.WCBT, DEFAULT_BOUNDS)
    assert st.verdict == "fails"
    assert isinstance(st.evidence, CountermodelEvidence)
    assert st.evidence.fixture == "M0c"
    st = run_thesis(Logic.CnCK, "?=>", Thesis.WCBT, DEFAULT_BOUNDS)
    assert st.verdict == "fails" and st.evidence.fixture == "M0c"


def test_conditional_at_fails_via_m0c1():
    st = run_thesis(Logic.CnCK, "@>", Thesis.AT, DEFAULT_BOUNDS)
    assert st.verdict == "fails"
    assert st.evidence.fixture == "M0c1"


def test_positive_cells_cite_proofs():
    st = run_thesis(Logic.C, "->", Thesis.AT, DEFAULT_BOUNDS)
    assert st.verdict == "holds"
    assert isinstance(st.evidence, ProofEvidence)
    assert st.evidence.name == "at_arrow"
    assert st.evidence_text == st.evidence.source == "proof:at_arrow"
    # scheme inclusion: the same C proof serves CnK and both conditional logics
    for lg in (Logic.CnK, Logic.CnCK, Logic.CnCK_R):
        st = run_thesis(lg, "->", Thesis.AT, DEFAULT_BOUNDS)
        assert isinstance(st.evidence, ProofEvidence)
        assert st.evidence.name == "at_arrow"
    # but a CnCK_R-only proof is not cited below CnCK_R
    st = run_thesis(Logic.CnCK, "@>", Thesis.BT, DEFAULT_BOUNDS)
    assert st.verdict == "fails"


def test_renamed_thesis_proof_still_backs_its_cell(corpus_copy):
    # no lemma cites wbt_might, so its file, name and manifest entry can be
    # renamed together; the cell then finds it under its new name
    text = (corpus_copy / "wbt_might.prf").read_text()
    assert "\nname wbt_might\n" in text
    (corpus_copy / "wbt_might.prf").unlink()
    (corpus_copy / "wbt_might_renamed.prf").write_text(
        text.replace("\nname wbt_might\n", "\nname wbt_might_renamed\n"))
    manifest = corpus_copy / "manifest.txt"
    manifest.write_text(manifest.read_text().replace("wbt_might.prf", "wbt_might_renamed.prf"))
    (corpus_copy / TABLE).write_bytes(build_table(corpus_copy))
    st = run_thesis(Logic.CnCK, "?>", Thesis.WBT, DEFAULT_BOUNDS)
    assert st.verdict == "holds"
    assert st.evidence_text == "proof:wbt_might_renamed"


def test_bounded_positive_fallback(monkeypatch):
    import cnx.harness as hz
    found = hz.corpus_proofs

    def without_at_would_refl(gamma, delta):
        return tuple(p for p in found(gamma, delta) if p.name != "at_would_refl")

    monkeypatch.setattr(hz, "corpus_proofs", without_at_would_refl)
    bounds = SearchBounds(1, (0, 1), max_cond_indices=2)
    st = run_thesis(Logic.CnCK_R, "@>", Thesis.AT, bounds)
    assert st.verdict == "holds"
    assert isinstance(st.evidence, BoundedEvidence)
    assert "non-conclusive" in st.evidence.source


def test_fixture_backed_verdicts_stable_under_larger_bounds():
    small = SearchBounds(1, (0, 1), max_cond_indices=2)
    big = SearchBounds(2, (0, 1), max_cond_indices=2)
    for thesis in (Thesis.AT, Thesis.WCBT):
        a = run_thesis(Logic.CnCK, "@=>", thesis, small)
        b = run_thesis(Logic.CnCK, "@=>", thesis, big)
        assert a.verdict == b.verdict
        if isinstance(a.evidence, CountermodelEvidence) and a.evidence.fixture:
            assert b.evidence.fixture == a.evidence.fixture


def _suite_statuses():
    for logic, conn in ALL_CELLS:
        for st in run_suite(logic, conn).statuses:
            yield logic, conn, st


def test_search_alone_refutes_every_fixture_cell():
    # the fixture stage only saves time: the search refutes each of its cells
    # on 1 world, early in the enumeration
    cells = [(logic, conn, st.thesis) for logic, conn, st in _suite_statuses()
             if st.evidence_text.startswith("fixture:")]
    assert len(cells) == 50
    for logic, conn, thesis in cells:
        out = find_countermodel(logic, thesis_instance(conn, thesis), SearchBounds(3))
        assert out.found, (logic, conn, thesis)
        assert len(out.witness.model.worlds) == 1 and out.models <= 18, (logic, conn, thesis)


def test_search_cells_carry_the_search_witness():
    def text(pm):
        return serialize_model(pm.model, pm.point)

    searched = 0
    for logic, conn, st in _suite_statuses():
        if st.evidence_text.startswith("search:"):
            searched += 1
            out = find_countermodel(logic, thesis_instance(conn, st.thesis), DEFAULT_BOUNDS)
            assert text(st.evidence.pointed) == text(out.witness), (logic, conn, st.thesis)
    assert searched == 19
