"""Loader for the shipped proof corpus.

Reads every file in manifest order, all with one group memo (parse_proofs),
and checks each proof from scratch as it is read, registering accepted
theorem-kind proofs so later files (and user files) can cite them as lemmas.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

from .proof import Proof, Registry, check_proof, parse_proofs

CORPUS_DIR = Path(__file__).parent / "corpus"


class CorpusError(Exception):
    pass


@lru_cache(maxsize=1)
def load_corpus() -> tuple[Registry, dict[str, Proof]]:
    """(registry of theorem statements, every checked proof by name)."""
    registry = Registry()
    index: dict[str, Proof] = {}
    names = (CORPUS_DIR / "manifest.txt").read_text().split()
    proofs = parse_proofs((CORPUS_DIR / fname).read_text() for fname in names)
    for fname, proof in zip(names, proofs):
        result = check_proof(proof, registry)
        if not result.ok:
            raise CorpusError(f"{fname}: {result.describe()}")
        if proof.name is None:
            raise CorpusError(f"{fname}: corpus proofs must be named")
        index[proof.name] = proof
        if proof.kind == "theorem":
            registry.register(proof.name, proof.system, proof.goals[0])
    return registry, index


def corpus_registry() -> Registry:
    return load_corpus()[0]


def corpus_proof(name: str) -> Proof | None:
    return load_corpus()[1].get(name)
