"""Seeded inputs for the benchmark workloads.

Everything the program receives is text made here from the seed: formula
text for `cnx valid`/`countermodel`, and proof text for the negative corpus
checks.  Formulas are also kept as trees (nested tuples, see oracle.py) so
that the answers can be checked without the program's own parser.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

ATOM_RE = re.compile(r"p(\d+)")

PL_BINARY = ("&", "|", "->", "=>", "<->", "<=>")
BINARY = {
    "C": PL_BINARY,
    "CnK": PL_BINARY + ("#>", "#=>"),
    "CnCK": PL_BINARY + ("@>", "?>", "@=>", "?=>"),
    "CnCKR": PL_BINARY + ("@>", "?>", "@=>", "?=>"),
}
PREFIX = {"C": ("~",), "CnK": ("~", "[]", "<>"), "CnCK": ("~",), "CnCKR": ("~",)}
LOGICS = ("C", "CnK", "CnCK", "CnCKR")

# Random formulas are searched at one world: most are refuted by the first
# model, and the few that exhaust cost milliseconds, so the batch's time does
# not hinge on how many of them a seed happens to draw.
RANDOM_PER_LOGIC = 50
RANDOM_MAX_WORLDS = 1

# Corpus theorems whose goals are searched, each at the bounds of its logic.
# The list is fixed and only the atom renaming varies with the seed, so every
# seed gets the same amount of exhaustive search.  The seven 1-atom C goals
# run in C (674 models at 3 worlds) and again in CnCKR, whose theorems
# include C's (1,990 models); one also runs in CnCK (5,306 models).  With the
# 1-atom CnK and CnCKR goals these 25 exhaustive searches take 15-160 ms
# each, against 1-30 ms for a random query, so the p95 latency (the 12th
# slowest of 225 queries) is set by exhaustive search.  The batch is kept to
# about 2 s so that a run has many repetitions to take each query's best of.
THEOREM_BOUNDS = {
    "C": ("--max-worlds", "3"),
    "CnK": ("--max-worlds", "2"),
    "CnCK": ("--max-worlds", "2", "--max-indices", "1"),
    "CnCKR": ("--max-worlds", "2", "--max-indices", "1"),
}
C_ONE_ATOM = ("alpha9_instance", "at_arrow", "strong_refl", "strong_dne",
              "neg_inconsistency_imp", "neg_inconsistency_strong", "at_strong")
THEOREMS = (
    ("C", C_ONE_ATOM),
    ("CnK", ("neg_box_swap", "neg_dia_swap", "at_strict", "at_sstrict",
             "contr_m_imp", "contr_m_strong", "contr_m_strict", "contr_m_sstrict")),
    ("CnCK", ("at_arrow",)),
    ("CnCKR", C_ONE_ATOM + ("at_would_refl", "at_swould_refl")),
)

# The shipped proofs that the checker must reject, with the reason it gives.
NEGATIVE = {
    "bad_forward_ref.prf": "bad-line-ref",
    "bad_nec_in_entail.prf": "rule-not-permitted-in-kind",
    "bad_scheme.prf": "bad-scheme-instance",
}


@dataclass(frozen=True)
class Query:
    argv: tuple[str, ...]
    logic: str
    max_indices: int
    gamma: tuple            # formula trees
    delta: tuple
    theorem: str | None     # corpus goal this is an instance of, if any


def render(f) -> str:
    op = f[0]
    if op == "p":
        return f"p{f[1]}"
    if len(f) == 2:
        return f"{op}{render(f[1])}"
    return f"({render(f[1])} {op} {render(f[2])})"


def random_formula(rng: random.Random, logic: str, depth: int):
    if depth == 0 or rng.random() < 0.2:
        return ("p", rng.randrange(2))
    if rng.random() < 0.3:
        return (rng.choice(PREFIX[logic]), random_formula(rng, logic, depth - 1))
    return (rng.choice(BINARY[logic]), random_formula(rng, logic, depth - 1),
            random_formula(rng, logic, depth - 1))


def _random_query(rng: random.Random, logic: str) -> Query:
    bounds = ("--max-worlds", str(RANDOM_MAX_WORLDS))
    if rng.random() < 0.5:
        f = random_formula(rng, logic, 4)
        return Query(("valid", "-L", logic) + bounds + (render(f),),
                     logic, 2, (), (f,), None)
    g = random_formula(rng, logic, 3)
    d = random_formula(rng, logic, 3)
    argv = (("countermodel", "-L", logic) + bounds
            + ("--gamma", render(g), "--delta", render(d)))
    return Query(argv, logic, 2, (g,), (d,), None)


def goal_text(corpus_dir: Path, name: str) -> str:
    for line in (corpus_dir / f"{name}.prf").read_text().splitlines():
        if line.startswith("goal "):
            return line[len("goal "):].strip()
    raise ValueError(f"{name}.prf has no goal line")


def _substitution(rng: random.Random, atoms: list[int]) -> dict[int, str]:
    """A uniform substitution sending the goal's atoms to distinct atoms
    among p0, p1.  Renaming keeps the formula's size and atom count, so the
    search walks the same models at the same cost whatever the seed; the
    p95 latency, set by these searches, then depends on the program alone."""
    targets = rng.sample((0, 1), len(atoms))
    return {a: f"p{t}" for a, t in zip(atoms, targets)}


def _theorem_query(rng: random.Random, corpus_dir: Path, logic: str,
                   name: str) -> Query:
    text = goal_text(corpus_dir, name)
    atoms = sorted({int(m.group(1)) for m in ATOM_RE.finditer(text)})
    sub = _substitution(rng, atoms)
    instance = ATOM_RE.sub(lambda m: sub[int(m.group(1))], text)
    bounds = THEOREM_BOUNDS[logic]
    indices = int(bounds[3]) if len(bounds) > 2 else 2
    return Query(("valid", "-L", logic) + bounds + (instance,),
                 logic, indices, (), (), name)


def search_batch(seed: int, corpus_dir: Path) -> list[Query]:
    """200 random queries (50 per logic) and 25 theorem instances, shuffled."""
    rng = random.Random(seed)
    batch = [_random_query(rng, logic)
             for logic in LOGICS for _ in range(RANDOM_PER_LOGIC)]
    batch += [_theorem_query(rng, corpus_dir, logic, name)
              for logic, names in THEOREMS for name in names]
    rng.shuffle(batch)
    return batch


def negative_proofs(seed: int, corpus_dir: Path) -> list[tuple[str, str, str]]:
    """(file name, proof text, expected rejection code) for each shipped
    negative proof, its atoms renamed injectively by the seed; renaming
    atoms does not change why a proof is rejected."""
    rng = random.Random(seed)
    out = []
    for fname, code in sorted(NEGATIVE.items()):
        text = (corpus_dir / "negative" / fname).read_text()
        perm = rng.sample(range(8), 8)
        out.append((fname, ATOM_RE.sub(lambda m: f"p{perm[int(m.group(1))]}", text),
                    code))
    return out
