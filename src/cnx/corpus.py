"""The shipped proof corpus: its files, its proof table, and its loader.

The corpus is the proof files listed in corpus/manifest.txt, written by
`python -m cnx.proofgen`, which then writes the proof table beside them
(TABLE).  The table is the parser's own reading of those texts, so that a
load does not parse them again.  It is JSON, one section a line:

  files     each manifest file's name and the CRC-32 of its bytes, in
            manifest order;
  words     every name the proofs use (system, kind, proof, axiom, rule and
            lemma names), in order of first use;
  formulas  the node table of the proofs' formulas (syntax.node_rows), as
            one flat list of integers: each row's class code (the class's
            index in syntax.CLASSES), then Atom's index, or the rows of the
            formula's one or two children;
  justs     every distinct justification once, as one flat list of
            integers: a code (HYP, MP, AXIOM, RULE or LEMMA), then mp's two
            line numbers, a rule's word and line number, axiom's or lemma's
            word, or nothing for hyp;
  proofs    one flat list of integers per file: the system, kind and name
            (words), the count and rows of the hypotheses, the same for the
            goals, then each line's formula row and justification row.

load_corpus checks every file against its CRC (a file edited since the table
was written is a CorpusError naming it), rebuilds the formulas through the
hash-consing constructors, and checks every proof from scratch, in manifest
order, registering accepted theorem-kind proofs so that later files (and
user files) can cite them as lemmas.  Only the parse is skipped: whatever
the table holds is checked as a parsed proof would be, and the tests keep it
equal to the parser's reading of the shipped files.

Each load also files every checked proof under its statement (its set of
hypotheses, its set of goals) for corpus_proofs, by which a `cnx suite` cell
finds its proof: that of its instance, in a system the logic includes.
"""

from __future__ import annotations

import json
import zlib
from functools import lru_cache
from pathlib import Path

from .errors import CnxError
from .proof import (AxiomJust, HypJust, LemmaJust, MpJust, Proof, ProofLine, Registry,
                    RuleJust, parse_proofs)
from .syntax import AND, build_rows, node_rows

CORPUS_DIR = Path(__file__).parent / "corpus"
TABLE = "proofs.json"

# justification codes
HYP, MP, AXIOM, RULE, LEMMA = range(5)

# every checked proof by its statement (hypotheses, goals), in manifest
# order; refilled by each load
_BY_STATEMENT: dict[tuple[frozenset, frozenset], list[Proof]] = {}


class CorpusError(CnxError):
    """A shipped proof is rejected, or a corpus file differs from the table."""


def _stale(fname: str) -> CorpusError:
    return CorpusError(f"{fname} differs from the proof table {TABLE}; "
                       "regenerate it with `python -m cnx.proofgen`")


@lru_cache(maxsize=1)
def load_corpus() -> tuple[Registry, dict[str, Proof]]:
    """(registry of theorem statements, every checked proof by name)."""
    registry = Registry()
    index: dict[str, Proof] = {}
    _BY_STATEMENT.clear()
    names = (CORPUS_DIR / "manifest.txt").read_text().split()
    for fname, proof in zip(names, _read_table(names)):
        result = registry.admit(proof)
        if not result.ok:
            raise CorpusError(f"{fname}: {result.describe()}")
        index[proof.name] = proof
        statement = frozenset(proof.hypotheses), frozenset(proof.goals)
        _BY_STATEMENT.setdefault(statement, []).append(proof)
    return registry, index


def _read_table(names: list[str]) -> list[Proof]:
    """The proofs of the manifest files `names`, from the table, once every
    file is found to be the one the table was written from.  The decoded
    JSON is dropped on return, before any proof is checked."""
    table = json.loads((CORPUS_DIR / TABLE).read_bytes())
    files = table["files"]
    if [*files] != names:
        raise _stale("manifest.txt")
    for fname, crc in files.items():
        if zlib.crc32((CORPUS_DIR / fname).read_bytes()) != crc:
            raise _stale(fname)
    return decode_table(table)


def decode_table(table: dict) -> list[Proof]:
    """The proofs of a decoded table, in file order."""
    words = table["words"]
    fields = iter(table["formulas"])
    nodes = build_rows([(code, next(fields), next(fields) if code >= AND else 0)
                        for code in fields])

    justs = []
    fields = iter(table["justs"])
    for code in fields:
        if code == MP:
            justs.append(MpJust(next(fields), next(fields)))
        elif code == AXIOM:
            justs.append(AxiomJust(words[next(fields)], None))
        elif code == RULE:
            justs.append(RuleJust(words[next(fields)], next(fields)))
        elif code == LEMMA:
            justs.append(LemmaJust(words[next(fields)]))
        else:
            justs.append(HypJust())

    proofs = []
    for row in table["proofs"]:
        it = iter(row)
        system, kind, name = words[next(it)], words[next(it)], words[next(it)]
        hyps = tuple(nodes[next(it)] for _ in range(next(it)))
        goals = tuple(nodes[next(it)] for _ in range(next(it)))
        lines = tuple(ProofLine(nodes[f], justs[j]) for f, j in zip(it, it))
        proofs.append(Proof(system, kind, name, hyps, goals, lines))
    return proofs


def build_table(corpus_dir: Path) -> bytes:
    """The proof table of the manifest files in `corpus_dir`, as parsed."""
    names = (corpus_dir / "manifest.txt").read_text().split()
    data = [(corpus_dir / fname).read_bytes() for fname in names]
    proofs = parse_proofs(d.decode() for d in data)
    return encode_table({fname: zlib.crc32(d) for fname, d in zip(names, data)},
                        [*proofs])


def encode_table(files: dict[str, int], proofs: list[Proof]) -> bytes:
    """The table of the proofs, one per file of `files` (name -> CRC-32), in
    its order.  The same proofs give the same bytes.  ValueError for a proof
    without a name or with an axiom binding, which the table does not hold."""
    words: dict[str, int] = {}
    just_rows: dict = {}     # justification -> its row
    justs: list[int] = []

    def word(w: str) -> int:
        return words.setdefault(w, len(words))

    roots = [f for p in proofs
             for f in (*p.hypotheses, *p.goals, *(line.formula for line in p.lines))]
    rows, nodes = node_rows(*roots)  # rows: formula -> its row
    formulas = [x for node in nodes for x in (node if node[0] >= AND else node[:2])]

    out = []
    for fname, p in zip(files, proofs):
        if p.name is None:
            raise ValueError(f"{fname}: corpus proofs must be named")
        row = [word(p.system), word(p.kind), word(p.name),
               len(p.hypotheses), *map(rows.get, p.hypotheses),
               len(p.goals), *map(rows.get, p.goals)]
        for no, line in enumerate(p.lines, start=1):
            if line.just not in just_rows:
                match line.just:
                    case MpJust(i, j):
                        justs += (MP, i, j)
                    case AxiomJust(name, None):
                        justs += (AXIOM, word(name))
                    case AxiomJust():
                        raise ValueError(f"{fname}: line {no}: the proof table holds "
                                         "no axiom bindings")
                    case RuleJust(name, i):
                        justs += (RULE, word(name), i)
                    case LemmaJust(name):
                        justs += (LEMMA, word(name))
                    case HypJust():
                        justs.append(HYP)
                just_rows[line.just] = len(just_rows)
            row += (rows[line.formula], just_rows[line.just])
        out.append(row)

    table = {"files": files, "words": [*words], "formulas": formulas, "justs": justs,
             "proofs": out}
    dump = json.JSONEncoder(separators=(",", ":")).encode
    return ("{" + ",\n".join(f"{dump(key)}:{dump(value)}" for key, value in table.items())
            + "}\n").encode()


def corpus_registry() -> Registry:
    return load_corpus()[0]


def corpus_proof(name: str) -> Proof | None:
    return load_corpus()[1].get(name)


def corpus_proofs(gamma: frozenset, delta: frozenset) -> tuple[Proof, ...]:
    """The corpus proofs with hypotheses gamma and goals delta, in manifest
    order."""
    load_corpus()
    return tuple(_BY_STATEMENT.get((gamma, delta), ()))
