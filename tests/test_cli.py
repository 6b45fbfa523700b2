import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cnx import cli, search
from cnx.cli import main
from cnx.corpus import CORPUS_DIR
from cnx.model import FIXTURE_NAMES

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_ok(capsys):
    code, out, _ = run(capsys, "parse", "p0 @=> p1")
    assert code == 0
    assert out.strip() == "((p0 @> p1) & (~(p1) @> ~(p0)))"


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "parse", "p0 ->")
    assert code == 2
    assert "error:" in err


def test_parse_non_ascii_digit_exit_2(capsys):
    for text in ("p\u0661", "p\u00b2"):
        code, out, err = run(capsys, "parse", text)
        assert (code, out) == (2, ""), text
        assert err.startswith(f"error: unexpected character {text[1]!r} at offset 1"), text


def test_check_refutation_exit_1(tmp_path, capsys):
    code, out, _ = run(capsys, "fixture", "show", "M0")
    model_file = tmp_path / "M0.kmd"
    model_file.write_text(out)
    code, out, _ = run(capsys, "check", "-m", str(model_file), "-w", "w",
                       "-s", "+", "(p0 -> p1) -> (~p1 -> ~p0)")
    assert code == 1
    assert out.strip() == "false"
    code, out, _ = run(capsys, "check", "-m", str(model_file), "-w", "w",
                       "-s", "+", "~(p0 => p1)")
    assert code == 0
    assert out.strip() == "true"


def test_biext(tmp_path, capsys):
    _, out, _ = run(capsys, "fixture", "show", "M0c")
    f = tmp_path / "m.kmd"
    f.write_text(out)
    code, out, _ = run(capsys, "biext", "-m", str(f), "p0 @> p1")
    assert code == 0
    assert out == "+ w\n- w\n"


def test_countermodel_emits_model_and_exit_1(capsys):
    code, out, _ = run(capsys, "countermodel", "-L", "C", "--max-worlds", "2",
                       "--delta", "(p0 -> p1) -> (p1 -> p0)")
    assert code == 1
    assert out.startswith("kind prop")
    assert "point" in out


def test_valid_timeout_exit_2(capsys):
    # valid, with a conditional antecedent: the search walks every model,
    # 7.17M at 2 worlds (about 0.1 s) and 526M in one valuation at 3
    code, out, err = run(capsys, "valid", "-L", "CnCK", "--max-worlds", "3",
                         "--timeout", "0.05", "((p0 @> p0) @> p1) -> ((p0 @> p0) @> p1)")
    assert code == 2
    assert out == ""
    assert "search timed out" in err


def test_search_out_of_memory_exit_2(capsys, monkeypatch):
    # a search that runs out of memory while it builds the frames of CnK on
    # 3 worlds is an error, not a refutation, and the frame tables are
    # emptied before it is reported
    monkeypatch.setattr(search, "_RELATIONS", {})
    monkeypatch.setattr(search, "_PREORDERS", {(0, False): search._PREORDERS[0, False]})
    built, real = [], search.relation

    def relation(*args):
        if len(built) == 10:
            raise MemoryError
        built.append(real(*args))
        return built[-1]
    monkeypatch.setattr(search, "relation", relation)
    code, out, err = run(capsys, "valid", "-L", "CnK", "--max-worlds", "3", "p0 -> p0")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert len(built) == 10
    assert search._RELATIONS == {} and list(search._PREORDERS) == [(0, False)]


def test_preorder_build_out_of_memory_exit_2():
    # the 9,535,241 preorders on 7 worlds do not fit in 256 MB; the partial
    # table is freed before the error leaves its builder, or the frames it
    # passes through find no memory for themselves and lose it, which ends
    # in a SystemError traceback and exit 1
    script = ("import resource, sys\n"
              "from cnx import cli, search\n"
              "resource.setrlimit(resource.RLIMIT_AS,\n"
              "                   (256 << 20, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
              "code = cli.main(sys.argv[1:])\n"
              "print(code, list(search._PREORDERS), search._RELATIONS)\n")
    proc = run_python("-c", script, "valid", "-L", "C", "--max-worlds", "7", "p0 -> p0",
                      timeout=120)
    assert proc.stdout == "2 [(0, False)] {}\n", proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr


def test_valid_bounded_wording(capsys):
    code, out, _ = run(capsys, "valid", "-L", "C", "--max-worlds", "2",
                       "p0 -> p0")
    assert code == 0
    assert "no countermodel within bounds" in out
    assert "not a validity proof" in out


def test_prove_corpus_file(capsys):
    code, out, _ = run(capsys, "prove", str(CORPUS_DIR / "at_arrow.prf"))
    assert code == 0 and out.strip() == "OK"


def test_prove_rejects_with_line_and_reason(capsys):
    bad = CORPUS_DIR / "negative" / "bad_nec_in_entail.prf"
    code, out, _ = run(capsys, "prove", str(bad))
    assert code == 1
    assert "line 2" in out and "rule-not-permitted-in-kind" in out


def test_prove_rejects_strict_arrow_exit_2(tmp_path, capsys):
    f = tmp_path / "s.prf"
    f.write_text("system C\nkind entail\nhyp p0 #> p1\ngoal p0\n1 p0 hyp\n")
    code, out, err = run(capsys, "prove", "--no-corpus", str(f))
    assert code == 2 and out == ""
    assert err.startswith("error: line 3: strict arrows (#>, #=>, <#>, <#=>)")


def test_prove_non_ascii_line_index_exit_2(tmp_path, capsys):
    f = tmp_path / "d.prf"
    f.write_text("system C\nkind theorem\ngoal p0 -> p0\n\u00b2 p0 -> p0 axiom A1\n")
    code, out, err = run(capsys, "prove", "--no-corpus", str(f))
    assert code == 2 and out == ""
    assert err == "error: line 4: unknown directive '\u00b2'\n"


def test_prove_file_level_rejection_names_no_line(tmp_path, capsys):
    f = tmp_path / "t.prf"
    f.write_text("system C\nkind theorem\n")
    code, out, _ = run(capsys, "prove", "--no-corpus", str(f))
    assert code == 1
    assert out == f"{f}: empty-proof: a proof needs at least one line\n"


def test_model_file_non_ascii_atom_exit_2(tmp_path, capsys):
    f = tmp_path / "m.kmd"
    f.write_text("kind prop\nworld w\nleq w w\nval+ p\u00b2 w\n")
    code, out, err = run(capsys, "check", "-m", str(f), "-w", "w", "-s", "+", "p0")
    assert code == 2 and out == ""
    assert err == "error: line 4: bad atom 'p\u00b2'\n"


def test_prove_lemma_needs_corpus(tmp_path, capsys):
    text = ("system C\nkind theorem\nname uses_lemma\ngoal ~(~p0 -> p0)\n"
            "1 ~(~p0 -> p0) lemma at_arrow\n")
    f = tmp_path / "l.prf"
    f.write_text(text)
    code, out, _ = run(capsys, "prove", str(f))
    assert code == 0
    code, out, _ = run(capsys, "prove", "--no-corpus", str(f))
    assert code == 1 and "unknown-lemma" in out


def test_prove_registers_apart_from_the_corpus(tmp_path, capsys):
    from cnx.corpus import corpus_registry
    from cnx.proof import render_proof
    from cnx.proofgen import pf_id, theorem
    from cnx.syntax import Atom, render
    # a theorem named as a corpus one, and a file that cites it
    first = tmp_path / "first.prf"
    first.write_text(render_proof(theorem("at_arrow", "C", pf_id(Atom(0)))))
    second = tmp_path / "second.prf"
    second.write_text("system C\nkind theorem\nname cites_it\ngoal p0 -> p0\n"
                      "1 p0 -> p0 lemma at_arrow\n")
    code, out, _ = run(capsys, "prove", str(first), str(second))
    assert (code, out) == (0, f"{first}: OK\n{second}: OK\n")
    # the corpus's registry still holds the corpus statement, which a later
    # command cites
    assert render(corpus_registry().get("at_arrow").formula) == "~((~(p0) -> p0))"
    code, out, _ = run(capsys, "prove", str(second))
    assert code == 1 and "lemma-formula-mismatch" in out


STALE = ("error: {} differs from the proof table proofs.json; "
         "regenerate it with `python -m cnx.proofgen`\n")


def test_corpus_file_edited_since_the_table_exits_2(corpus_copy, capsys):
    from cnx.corpus import CorpusError, load_corpus
    # one byte of one file: its first p0 made p1
    f = corpus_copy / "strong_dne.prf"
    text = f.read_text()
    edited = text.replace("p0", "p1", 1)
    assert len(edited) == len(text) and sum(map(str.__ne__, edited, text)) == 1
    f.write_text(edited)
    with pytest.raises(CorpusError, match="^strong_dne.prf differs from the proof table"):
        load_corpus()
    code, out, err = run(capsys, "suite", "-L", "C")
    assert (code, out, err) == (2, "", STALE.format("strong_dne.prf"))
    # a manifest that lists other files than the table
    f.write_text(text)
    manifest = corpus_copy / "manifest.txt"
    manifest.write_text(manifest.read_text().replace("strong_dne.prf\n", ""))
    code, out, err = run(capsys, "suite", "-L", "C")
    assert (code, out, err) == (2, "", STALE.format("manifest.txt"))


def test_rejected_corpus_proof_exits_2(corpus_copy, capsys):
    from cnx.corpus import TABLE, build_table
    f = corpus_copy / "at_would_refl.prf"
    f.write_text(f.read_text().replace(" axiom g8\n", " axiom a1\n", 1))
    argvs = [("suite", "-L", "C", "-c", "->"), ("prove", str(corpus_copy / "at_arrow.prf"))]
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", STALE.format("at_would_refl.prf")), argv
    # a table written from the edited text: its proof is read, and rejected
    (corpus_copy / TABLE).write_bytes(build_table(corpus_copy))
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == ("error: at_would_refl.prf: line 1: bad-scheme-instance: "
                       "line is not an instance of a1\n"), argv


def test_translate(capsys):
    code, out, _ = run(capsys, "translate", "--tr", "p0", "[]p1")
    assert code == 0 and out.strip() == "(p0 @> p1)"
    code, out, _ = run(capsys, "translate", "--i", "p0 @> p1")
    assert code == 0 and out.strip() == "[]((p0 -> p1))"


def test_fixture_round_trip_through_validate(tmp_path, capsys):
    from cnx.model import FIXTURE_CLASS
    for name in FIXTURE_NAMES:
        _, out, _ = run(capsys, "fixture", "show", name)
        f = tmp_path / f"{name}.kmd"
        f.write_text(out)
        code, out2, _ = run(capsys, "validate", "-m", str(f), "-C",
                            FIXTURE_CLASS[name].value)
        assert code == 0 and out2.strip() == "ok", name
        _, out3, _ = run(capsys, "fixture", "show", name)
        assert out3 == out


def test_unknown_logic_or_frame_class_exit_2(tmp_path, capsys):
    _, out, _ = run(capsys, "fixture", "show", "trivm")
    model = tmp_path / "trivm.kmd"
    model.write_text(out)
    for argv, message in [
            (("valid", "-L", "CnCK_R", "--max-worlds", "1", "p0"),
             "error: unknown logic 'CnCK_R'; use C, CnK, CnCK, or CnCKR\n"),
            (("suite", "-L", "c"), "error: unknown logic 'c'; use C, CnK, CnCK, or CnCKR\n"),
            (("validate", "-m", str(model), "-C", "FSCR"),
             "error: unknown frame class 'FSCR'; use P, FSM, FSC, or FSC_R\n")]:
        assert run(capsys, *argv) == (2, "", message), argv
    # each name is found by its value
    for logic in ("C", "CnK", "CnCK", "CnCKR"):
        assert run(capsys, "valid", "-L", logic, "--max-worlds", "1", "p0 -> p0")[0] == 0
    from cnx.model import FIXTURE_CLASS
    assert run(capsys, "validate", "-m", str(model), "-C",
               FIXTURE_CLASS["trivm"].value) == (0, "ok\n", "")


@pytest.mark.parametrize("text, argv, message", [
    # each was read, its r line dropped, and gave the answer in the comment
    ("kind prop\nworld a\nr a a\n", ("validate", "-C", "P"),
     "line 3: modal r line in a prop model"),  # ok
    ("kind cond\nworld a\nr a a\n", ("check", "-w", "a", "~(p0 ?> p0)"),
     "line 3: modal r line in a cond model"),  # false
    ("kind modal\nworld a\nr a / a ; / a\n", ("check", "-w", "a", "<>(p0 -> p0)"),
     "line 3: cond r line in a modal model"),  # false
])
def test_model_r_line_of_another_shape_exit_2(tmp_path, capsys, text, argv, message):
    f = tmp_path / "m.kmd"
    f.write_text(text)
    code, out, err = run(capsys, argv[0], "-m", str(f), *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("text, argv, message", [
    # each was read with its last kind or point line, and gave the answer in
    # the comment
    ("kind prop\nkind modal\nworld a\nr a a\n", ("validate", "-C", "FSM"),
     "line 2: a second 'kind' line"),  # ok
    ("kind prop\nworld a\nworld b\npoint b\npoint a\n", ("validate", "-C", "P"),
     "line 5: a second 'point' line"),  # ok, at point a
])
def test_model_repeated_kind_or_point_exit_2(tmp_path, capsys, text, argv, message):
    f = tmp_path / "m.kmd"
    f.write_text(text)
    code, out, err = run(capsys, argv[0], "-m", str(f), *argv[1:])
    assert (code, out, err) == (2, "", f"error: {message}\n")


_AXIOM_LINE = "goal p0 -> (p1 -> p0)\n1 p0 -> (p1 -> p0) axiom a1"


@pytest.mark.parametrize("text, message", [
    # each was checked with its last line or binding, and passed
    (f"system C\nsystem CnK\nkind theorem\n{_AXIOM_LINE}\n", "line 2: a second 'system' line"),
    (f"system C\nkind theorem\nname t\nname u\n{_AXIOM_LINE}\n",
     "line 4: a second 'name' line"),
    (f"system C\nkind theorem\n{_AXIOM_LINE} phi=p1 phi=p0 psi=p1\n",
     "line 4: phi is bound twice"),
])
def test_proof_repeated_header_or_binding_exit_2(tmp_path, capsys, text, message):
    f = tmp_path / "p.prf"
    f.write_text(text)
    code, out, err = run(capsys, "prove", "--no-corpus", str(f))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_model_r_lines_of_the_kind_still_count(tmp_path, capsys):
    for text, formula, answer in (("kind modal\nworld a\nr a a\n", "<>(p0 -> p0)", "true"),
                                  ("kind cond\nworld a\nr a / a ; / a\n",
                                   "~(p0 ?> p0)", "false")):
        f = tmp_path / "m.kmd"
        f.write_text(text)
        code, out, _ = run(capsys, "check", "-m", str(f), "-w", "a", formula)
        assert out.strip() == answer and code == (answer == "false")


@pytest.mark.parametrize("text, message", [
    ("kind prop\nworld a/b\n", "bad world id 'a/b'"),
    ("kind prop\nworld a;b\n", "bad world id 'a;b'"),
    # the r line names the world as it must, and reads as a bad conditional triple
    ("kind modal\nworld a/b\nworld c\nr a/b c\n", "line 4: cond r is 'r SRC / X ; Y / TGT'"),
])
def test_world_id_with_model_format_syntax_exit_2(tmp_path, capsys, text, message):
    f = tmp_path / "m.kmd"
    f.write_text(text)
    code, out, err = run(capsys, "validate", "-m", str(f), "-C", "P")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_validate_violations_exit_1(tmp_path, capsys):
    _, out, _ = run(capsys, "fixture", "show", "M2")
    f = tmp_path / "m2.kmd"
    f.write_text(out)
    code, out, _ = run(capsys, "validate", "-m", str(f), "-C", "FSC_R")
    assert code == 1
    assert "refl-target" in out


def test_validate_close_flag(tmp_path, capsys):
    f = tmp_path / "m.kmd"
    f.write_text("kind prop\nworld w\nworld v\nleq w v\nval+ p0 w\n")
    code, _, _ = run(capsys, "validate", "-m", str(f), "-C", "P")
    assert code == 1
    code, out, _ = run(capsys, "validate", "-m", str(f), "-C", "P", "--close")
    assert code == 0 and out.strip() == "ok"


def test_validate_output_is_the_same_under_every_hash_seed(tmp_path):
    cases = [
        ("kind modal\nworld a\nworld b\nworld c\nworld d\nleq a b\nleq c d\nleq a d\n"
         "r a a\nr c c\nr a c\nr b d\n", "FSM",
         "c1: no completion for a<=d and r(a,a)\n"
         "c1: no completion for a<=d and r(a,c)\n"
         "c1: no completion for c<=d and r(c,c)\n"
         "c2: no completion for r(a,a) and a<=b\n"
         "c2: no completion for r(c,c) and c<=d\n"),
        ("kind cond\nworld a\nworld b\nworld c\nleq a b\n"
         "r a / a b c ; / b\nr c / a b c ; / a\n", "FSC_R",
         "c1: index ({'a', 'b', 'c'},{}): no completion for a<=b and r(a,b)\n"
         "c2: index ({'a', 'b', 'c'},{}): no completion for r(c,a) and a<=b\n"),
        # two indices, listed against their (pos, neg) order, one with a
        # target outside its positive component
        ("kind cond\nworld a\nworld b\nworld c\nleq a b\n"
         "r a / b ; c / b\nr c / a ; / c\nr b / a ; / a\n", "FSC_R",
         "c2: index ({'a'},{}): no completion for r(b,a) and a<=b\n"
         "refl-target: index ({'a'},{}): target c of r(c,c) outside the positive index "
         "component\n"
         "c1: index ({'b'},{'c'}): no completion for a<=b and r(a,b)\n"),
    ]
    for i, (text, cls, expected) in enumerate(cases):
        f = tmp_path / f"m{i}.kmd"
        f.write_text(text)
        for seed in "0123":
            proc = run_python("-m", "cnx.cli", "validate", "-m", str(f), "-C", cls,
                              env={"PYTHONHASHSEED": seed})
            assert (proc.returncode, proc.stderr, proc.stdout) == (1, "", expected), seed


def test_suite_single_cell(capsys):
    code, out, _ = run(capsys, "suite", "-L", "C", "-c", "->")
    assert code == 0
    assert "label: fully hyperconnexive" in out


def golden_cell(logic, conn):
    golden = (DATA / "golden_suite.txt").read_text()
    start = golden.index(f"logic={logic} connective={conn}\n")
    return golden[start:golden.index("\n", golden.index("  label:", start)) + 1]


def test_suite_all_logics_for_one_connective(capsys):
    code, out, err = run(capsys, "suite", "-L", "all", "-c", "@>")
    assert (code, err) == (0, "")
    assert out == golden_cell("CnCK", "@>") + golden_cell("CnCKR", "@>")
    code, out, _ = run(capsys, "suite", "-L", "all", "--json", "-c", "->")
    assert code == 0
    assert [(r["logic"], r["connective"]) for r in json.loads(out)] == [
        (logic, "->") for logic in ("C", "CnK", "CnCK", "CnCKR")]
    for conn in ("bogus", "<->"):
        code, out, err = run(capsys, "suite", "-L", "all", "-c", conn)
        assert (code, out, err) == (2, "", f"error: unknown connective {conn!r}\n")


def test_suite_json_records(capsys):
    code, out, _ = run(capsys, "suite", "-L", "C", "-c", "=>", "--json")
    assert code == 0
    records = json.loads(out)
    assert records[0]["label"] == "fully connexive"
    theses = {r["thesis"]: r for r in records[0]["theses"]}
    assert theses["WCBT"]["verdict"] == "fails"
    assert theses["WCBT"]["evidence"] == "fixture:M0"


def test_suite_golden_table_byte_for_byte(capsys):
    code, out, _ = run(capsys, "suite", "-L", "all")
    assert code == 0
    assert out == (DATA / "golden_suite.txt").read_text()


def test_suite_cell_under_python_O():
    # the cell whose WnonSym verdict rests on the deepest search, with asserts
    # stripped: the evidence re-checks must still run and the output not change
    golden = (DATA / "golden_suite.txt").read_text()
    start = golden.index("logic=CnCKR connective=?=>\n")
    end = golden.index("\n", golden.index("  label:", start)) + 1
    script = ("import sys\n"
              "from cnx.cli import main\n"
              "sys.exit(main() if sys.flags.optimize else 3)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-O", "-c", script,
                           "suite", "-L", "CnCKR", "-c", "?=>"],
                          env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == golden[start:end]


def run_python(*args, timeout=60, env=None):
    """A fresh interpreter with the package on its path, run from the
    repository root, with env added to its environment."""
    env = {**os.environ, **(env or {}), "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_valid_on_a_shared_sugar_chain_finishes():
    # each <=> holds both operands four times, so a walk of the tree rather
    # than of the shared nodes visits over 4^11 atoms
    chain = "(p1 <=> " * 11 + "p0" + ")" * 11
    valid = ("-m", "cnx.cli", "valid", "-L", "C", "--max-worlds", "1")
    proc = run_python(*valid, chain, timeout=30)
    assert (proc.returncode, proc.stderr) == (1, "")  # eleven p1s do not cancel
    assert proc.stdout.startswith("kind prop")
    proc = run_python(*valid, f"{chain} -> {chain}", timeout=30)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("no countermodel within bounds")


def test_valid_imports_only_the_search_path():
    # records are defined without dataclasses, which would also load inspect;
    # a plain command line is read without argparse, which loads gettext and
    # locale on its first message
    script = ("import sys\n"
              "from cnx.cli import main\n"
              "code = main(['valid', '-L', 'CnCK', '--max-worlds', '1', 'p0 -> p0'])\n"
              "code += main(['countermodel', '-L', 'CnCK', '--max-worlds=1',\n"
              "              '--gamma', 'p0', '--delta', 'p0 @> p1'])\n"
              "print(code, *sorted({'cnx.proof', 'cnx.corpus', 'cnx.harness',\n"
              "                     'cnx.transform', 'json', 'dataclasses',\n"
              "                     'inspect', 'argparse', 'gettext', 'locale'}\n"
              "                    & set(sys.modules)))\n")
    proc = run_python("-c", script)
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == "1"
    proc = run_python("-m", "cnx.cli", "valid", "--help")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: cnx valid [-h] -L LOGIC --max-worlds MAX_WORLDS")
    assert "\noptions:\n" in proc.stdout


def test_no_module_loads_dataclasses():
    script = ("import importlib, pkgutil, sys\n"
              "import cnx\n"
              "for m in pkgutil.iter_modules(cnx.__path__):\n"
              "    importlib.import_module('cnx.' + m.name)\n"
              "print('dataclasses' in sys.modules)\n")
    proc = run_python("-c", script)
    assert (proc.stderr, proc.stdout) == ("", "False\n")


def test_lazily_imported_commands_run_through_python_m():
    golden = (DATA / "golden_suite.txt").read_text()
    start = golden.index("logic=CnCK connective=@>\n")
    end = golden.index("\n", golden.index("  label:", start)) + 1
    proc = run_python("-m", "cnx.cli", "suite", "-L", "CnCK", "-c", "@>")
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", golden[start:end])
    proc = run_python("-m", "cnx.cli", "prove", "src/cnx/corpus/at_would_refl.prf")
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "OK\n")
    proc = run_python("-m", "cnx.cli", "translate", "--i", "p0 @> p1")
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]((p0 -> p1))\n")


def surface(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # help, and argparse's usage errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


_INTS = ["1", "2", "1", "2", "\u0662", "0", "x", "nan", "-1"]
_FLOATS = ["5", "1e9", "nan", "x", "-1", "\u0662"]
_FORMULAS = ["p0 -> p0", "p0 @> p1", "(p0 -> p1) -> (p1 -> p0)", "~p1", "x=y"]
_LOGICS = ["C", "CnK", "CnCK", "CnCKR", "bogus"]
_SEARCH = [(("--max-worlds",), _INTS, True), (("--max-indices",), _INTS, False),
           (("--timeout",), _FLOATS, False)]


def _shapes(model, proof):
    """command -> (its options as (flags, values or None for a switch, required),
    a function that draws its positionals)"""
    formula = lambda rnd: [rnd.choice(_FORMULAS)]  # noqa: E731
    model_opt = (("-m", "--model"), [model, "missing.kmd"], True)
    logic_opt = (("-L", "--logic"), _LOGICS, True)
    return {
        "parse": ([], formula),
        "check": ([model_opt, (("-w", "--world"), ["w", "v"], True),
                   (("-s", "--sign"), ["+", "-", "x"], False)], formula),
        "biext": ([model_opt], formula),
        "countermodel": ([logic_opt, (("--gamma",), _FORMULAS, False),
                          (("--delta",), _FORMULAS, True), *_SEARCH], lambda rnd: []),
        "valid": ([logic_opt, *_SEARCH], formula),
        "prove": ([(("--no-corpus",), None, False)],
                  lambda rnd: rnd.sample([proof, "missing.prf"], rnd.randint(1, 2))),
        "translate": ([(("--tr",), ["p0", "p1 & p0"], False), (("--i",), None, False)],
                      formula),
        "suite": ([(("-L", "--logic"), ["C", "CnCK", "all", "bogus"], True),
                   (("-c", "--connective"), ["->", "@>", "?=>", "bogus"], True),
                   (("--json",), None, False)], lambda rnd: []),
        "fixture": ([], lambda rnd: [rnd.choice(["show", "show", "list", "shw"])] +
                    rnd.choice([["M0"], ["M2"], []])),
        "validate": ([model_opt, (("-C", "--frame-class"), ["P", "FSC", "Q"], True),
                      (("--close",), None, False)], lambda rnd: []),
    }


def _mutate_groups(rnd, groups, pos):
    """one random departure from a plain command line"""
    op = rnd.randrange(11)
    i = rnd.randrange(len(groups) + 1)
    if op == 0 and groups:  # a flag dropped
        del groups[i - 1]
    elif op == 1 and groups:  # a flag repeated
        groups.insert(i, list(rnd.choice(groups)))
    elif op == 2 and any(len(g[0].partition("=")[0]) > 3 for g in groups):  # abbreviated
        g = rnd.choice([g for g in groups if len(g[0].partition("=")[0]) > 3])
        flag, eq, value = g[0].partition("=")
        g[0] = flag[:rnd.randint(3, len(flag) - 1)] + eq + value
    elif op == 3:
        groups.insert(i, [rnd.choice(["-h", "--help", "--"])])
    elif op == 4:  # an unknown flag
        groups.insert(i, rnd.choice([["--bogus"], ["--bogus", "x"], ["-z"], ["--bogus=1"]]))
    elif op == 5 and any(len(g) == 2 for g in groups):  # a value that starts with '-'
        rnd.choice([g for g in groups if len(g) == 2])[1] = rnd.choice(["-1", "->", "-p0"])
    elif op == 6 and any(len(g) == 2 for g in groups):  # a short flag joined to its value
        g = rnd.choice([g for g in groups if len(g) == 2])
        short = g[0] if len(g[0]) == 2 else g[0][1:3]
        g[:] = [short + rnd.choice(["", "="]) + g[1]]
    elif op == 7 and pos:  # a positional that starts with '-'
        pos[rnd.randrange(len(pos))] = rnd.choice(["-p0", "->", "-1"])
    elif op == 8 and pos:  # positionals missing
        pos.clear()
    elif op == 9:  # an extra positional
        pos.insert(rnd.randint(0, len(pos)), rnd.choice(_FORMULAS + ["M0"]))
    else:  # positionals split by a flag (below)
        return True
    return False


def argv_sample(n, seed, model="m.kmd", proof="a.prf"):
    """n seeded command lines over every command, about half of them plain;
    the rest depart from plain form in one to three ways"""
    rnd = random.Random(seed)
    shapes = _shapes(model, proof)
    out = []
    for _ in range(n):
        command = rnd.choice(list(shapes))
        options, positionals = shapes[command]
        groups = []
        for flags, values, required in options:
            if not required and rnd.random() < 0.5:
                continue
            flag = rnd.choice(flags)
            if values is None:
                groups.append([flag])
            elif flag.startswith("--") and rnd.random() < 0.3:
                groups.append([f"{flag}={rnd.choice(values)}"])
            else:
                groups.append([flag, rnd.choice(values)])
        pos, split = positionals(rnd), False
        for _ in range(rnd.choice([0, 0, 0, 1, 1, 2, 3])):
            split |= _mutate_groups(rnd, groups, pos)
        rnd.shuffle(groups)
        at = rnd.randint(0, len(groups))
        if split and pos:
            cut = rnd.randint(0, len(pos))
            pos = pos[:cut] + [tok for g in groups[:1] for tok in g] + pos[cut:]
            groups = groups[1:]
            at = min(at, len(groups))
        head = [command] if rnd.random() < 0.97 else rnd.choice([[], ["vali"], ["bogus"]])
        tokens = [tok for g in groups[:at] for tok in g] + pos + \
            [tok for g in groups[at:] for tok in g]
        out.append(head + tokens)
    return out


def _comparable(namespace) -> dict:
    # nan is no float's equal, not even its own
    return {k: "nan" if v != v else v for k, v in vars(namespace).items()}


def test_plain_reader_gives_argparses_namespace():
    full = cli.build_parser()
    accepted = passed_on = 0
    for argv in argv_sample(3000, 9):
        argv = cli._merge_connective_flag(argv)
        mine = cli._read_args(argv)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                theirs = full.parse_args(argv)
            except SystemExit as exc:
                theirs = exc.code
        if mine is None:
            passed_on += 1
            continue
        accepted += 1
        assert not isinstance(theirs, int), (argv, err.getvalue())
        assert _comparable(mine) == _comparable(theirs), argv
    assert accepted >= 750 and passed_on >= 750, (accepted, passed_on)


def test_plain_reader_leaves_output_and_errors_unchanged(tmp_path, capsys, monkeypatch):
    # the same exit code, stdout and stderr when the full argparse tree reads
    # every command line: main reads plain ones itself, and for the rest it
    # builds only the invoked command's parser
    _, text, _ = run(capsys, "fixture", "show", "M0")
    (tmp_path / "m.kmd").write_text(text)
    monkeypatch.chdir(tmp_path)
    argvs = [["--help"], [], ["bogus"], ["valid", "-L", "C", "--max-worlds", "1", "--bogus", "p0"],
             ["fixture", "show"], ["suite", "-L", "CnCK", "-c", "->"]]
    argvs += [[name, "--help"] for name in cli.COMMANDS] + [[name] for name in cli.COMMANDS]
    argvs += argv_sample(3000, 9, proof=str(CORPUS_DIR / "at_arrow.prf"))[::15]
    got = [surface(capsys, argv) for argv in argvs]
    full = cli.build_parser
    monkeypatch.setattr(cli, "_read_args", lambda argv: None)
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert got == [surface(capsys, argv) for argv in argvs]
    assert all(code == 2 and out == "" and err.startswith("usage: cnx")
               for code, out, err in got[1:5])
    assert got[1][2].endswith("error: the following arguments are required: command\n")


def test_stdin_dash(tmp_path, capsys, monkeypatch):
    import io
    import sys
    _, model_text, _ = run(capsys, "fixture", "show", "M0c")
    monkeypatch.setattr(sys, "stdin", io.StringIO(model_text))
    code, out, _ = run(capsys, "validate", "-m", "-", "-C", "FSC")
    assert code == 0 and out.strip() == "ok"


def test_fixture_list_takes_no_name(capsys):
    # like argparse's own errors for the command, these print its usage
    code, out, err = surface(capsys, ["fixture", "list", "M0"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: cnx fixture [-h]")
    assert err.endswith("\ncnx fixture: error: fixture list takes no name\n")
    code, out, err = surface(capsys, ["fixture", "show"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: cnx fixture [-h]")
    assert err.endswith("\ncnx fixture: error: fixture show needs a name\n")
    code, out, _ = surface(capsys, ["fixture", "list"])
    assert code == 0 and out.splitlines()[0] == f"{FIXTURE_NAMES[0]}\tP"


def test_usage_error_exit_2(capsys):
    code, _, err = run(capsys, "countermodel", "-L", "C", "--max-worlds", "2")
    assert code == 2
    code, _, err = run(capsys, "check", "-m", "/nonexistent.kmd", "-w", "w", "p0")
    assert code == 2


def test_max_indices_zero_is_taken_as_given(capsys):
    code, out, _ = run(capsys, "valid", "-L", "CnCK", "--max-worlds", "1",
                       "--max-indices", "0", "p0 @> p0")
    assert code == 0
    assert "at most 0 nonempty" in out


def test_negative_bounds_exit_2(capsys):
    for flags in (("--max-indices", "-1"), ("--timeout", "-1"), ("--timeout", "nan"),
                  ("--timeout", "inf")):
        code, out, err = run(capsys, "valid", "-L", "CnCK", "--max-worlds", "1",
                             *flags, "p0 @> p0")
        assert code == 2, flags
        assert out == "" and err.startswith("error:"), flags


def test_deep_nesting_exit_2_without_traceback(capsys):
    deep = "~" * 3000 + "p0"
    for argv in (("parse", deep), ("valid", "-L", "C", "--max-worlds", "1", deep)):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv[0]
        assert out == "" and err.startswith("error:") and "nested" in err, argv[0]


@pytest.mark.parametrize("line, message", [
    # a binding's formula runs to the end of the line
    ("1 p0 -> (p1 -> p0) axiom a1 phi=", "line 4: formula ended unexpectedly at offset 32"),
    ("1 p0 -> (p1 -> p0) axiom a1 psi=(p1", "line 4: unclosed parenthesis at offset 35"),
    # the line's own formula: offsets count from the start of the line
    ("1 p0 -> -> (p1 -> p0) axiom a1", "line 4: unexpected token '->' at offset 8"),
])
def test_prove_formula_error_names_line_and_offset(tmp_path, capsys, line, message):
    f = tmp_path / "bad.prf"
    f.write_text(f"system C\nkind theorem\ngoal p0 -> (p1 -> p0)\n{line}\n")
    code, out, err = run(capsys, "prove", "--no-corpus", str(f))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message} (expected ")


_FUZZ_CHARS = ["p0", "p1", "p", "~", "&", "|", "->", "@>", "?>", "<>", "[]", "(", ")",
               " ", "\n", "#", "=", "0", "1", "9", "w", "v", "/", ";", ",", "+", "-",
               "phi=", "axiom", "mp", "hyp", "lemma", "world", "leq", "val+", "r",
               "\t", "é", "٣", "\x00"]


def _mutate(rnd, text: str) -> str:
    """text as is four times in ten, else with one or two random edits"""
    for _ in range(rnd.choice((0, 0, 0, 0, 1, 1, 1, 2, 2, 2))):
        lines = text.split("\n")
        op = rnd.randrange(5)
        if op == 0 and len(lines) > 1:  # drop, repeat or swap whole lines
            i, j = rnd.randrange(len(lines)), rnd.randrange(len(lines))
            lines[i], lines[j] = lines[j], rnd.choice((lines[i], ""))
            text = "\n".join(lines)
            continue
        i = rnd.randrange(len(text) + 1)
        if op == 1:  # delete a span
            text = text[:i] + text[i + rnd.randint(1, 8):]
        elif op == 2:  # replace a span
            text = text[:i] + rnd.choice(_FUZZ_CHARS) + text[i + rnd.randint(1, 3):]
        else:  # insert
            text = text[:i] + rnd.choice(_FUZZ_CHARS) + text[i:]
    return text


def test_fuzzed_inputs_exit_0_1_or_2_without_traceback(tmp_path, capsys):
    # seeded mutations of formula, model-file and proof-file text through
    # parse, check, validate and prove
    from conftest import CN_CONNS, MD_CONNS, PL_CONNS, random_formula
    from cnx.model import FIXTURE_CLASS, Kind, get_fixture, serialize_model
    from cnx.syntax import render

    rnd = random.Random(11)
    conns = {Kind.PROP: PL_CONNS, Kind.MODAL: MD_CONNS, Kind.COND: CN_CONNS}
    models = [(serialize_model(pm.model, pm.point), conns[pm.model.kind], pm.point)
              for pm in map(get_fixture, FIXTURE_NAMES)]
    proofs = [(CORPUS_DIR / name).read_text()
              for name in ("at_arrow.prf", "mono_box.prf", "might_k_dist.prf")]
    proofs += [p.read_text() for p in sorted((CORPUS_DIR / "negative").glob("*.prf"))]
    classes = sorted({fc.value for fc in FIXTURE_CLASS.values()})
    path = tmp_path / "input"

    def check_exit(*argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv

    for _ in range(300):
        model, model_conns, point = rnd.choice(models)
        formula = _mutate(rnd, render(random_formula(rnd, 3, (0, 1), model_conns)))
        check_exit("parse", formula)
        path.write_text(_mutate(rnd, model))
        check_exit("check", "-m", str(path), "-w", rnd.choice((point, point, "v", "u")),
                   "-s", rnd.choice("+-"), formula)
        check_exit("validate", "-m", str(path), "-C", rnd.choice(classes),
                   *(("--close",) if rnd.random() < 0.3 else ()))
        path.write_text(_mutate(rnd, rnd.choice(proofs)))
        check_exit("prove", *(("--no-corpus",) if rnd.random() < 0.5 else ()), str(path))
