"""Time countermodel searches, with the models each one evaluates, and the
cold set-up of the frames they search.

    python3 tools/bench_schemes.py [--root LABEL=CHECKOUT ...] [--out FILE]
                                   [--only frames|schemes|cond ...]

Every search but the deep one below is `find_countermodel` on a bare
formula at the defaults of SearchBounds: the formula's own atoms, and as
many indices as it has distinct conditional antecedents (so a checkout
from before those defaults searches other bounds).  Two groups of searches
of queries without a conditional:

- the scheme sweep: every axiom scheme of C, taken at p0/p1/p2, in C at 3
  worlds; every scheme of CnK in CnK at 2 worlds; the CnK schemes of one
  or two atoms in CnK at 3 worlds; and the C schemes of one or two atoms in
  C at 5 worlds;
- the corpus goals without a conditional that the `search` benchmark
  searches exhaustively: in C (at 3 worlds), in CnK (at 2 worlds), and in
  CnCKR and CnCK (at 2 worlds).

And the `cond` group, of queries with a conditional, in a fresh interpreter
of its own:

- the deep first-hit search of `cnx suite` (CnCKR `?=>` WnonSym, at the
  suite's bounds), once as the interpreter's first search (cold) and then
  at its best of WARM_RUNS;
- UNPRUNED_VALID, whose antecedent is conditional, at 2 worlds (2
  indices) in CnCK and CnCKR;
- the CnCK schemes g1-g4 at 3 worlds (1 index), in CnCK and CnCKR.

Each checkout (default: the one holding this script, as `change`) runs
them once, in a fresh interpreter with CHECKOUT/src first on the path.  A
search stops after TIME_LIMIT_S and is reported as timed out.  --only
runs the named parts: the frame set-ups, the two scheme groups, or cond.

Before them it times the cold set-up of the frames a search walks (one
preorder per isomorphism class) for each class and world count of
COLD_FRAMES, as a `cnx valid` process pays it: `search._frames` run to its
end right after the imports, in a fresh interpreter each time, best of
COLD_RUNS, with the page faults of that run.

Prints a table and, with --out, writes FILE with each set-up's frames,
seconds and faults, each search's status, models and seconds, the sums per
group, and the machine.  With two or more checkouts it names each search
whose status or count of models differs from the first checkout's, and then
exits 1; a search that timed out in either checkout is not compared.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TIME_LIMIT_S = 120.0

# (group, logic, worlds, most atoms): the scheme sweep
SWEEPS = [("schemes C w3", "C", 3, 3),
          ("schemes CnK w2", "CnK", 2, 3),
          ("schemes CnK w3", "CnK", 3, 2),
          ("schemes C w5", "C", 5, 2)]
C_GOALS = ("alpha9_instance", "at_arrow", "strong_refl", "strong_dne",
           "neg_inconsistency_imp", "neg_inconsistency_strong", "at_strong")
# (group, logic, worlds, corpus goals)
GOALS = [("goals C w3", "C", 3, C_GOALS),
         ("goals CnK w2", "CnK", 2,
          ("neg_box_swap", "neg_dia_swap", "at_strict", "at_sstrict",
           "contr_m_imp", "contr_m_strong", "contr_m_strict", "contr_m_sstrict")),
         ("goals CnCKR w2", "CnCK_R", 2, C_GOALS),
         ("goals CnCK w2", "CnCK", 2, ("at_arrow",))]

# (frame class, worlds): the cold frame set-ups
COLD_FRAMES = [("P", 3), ("P", 4), ("P", 5), ("FSM", 2), ("FSM", 3), ("FSC_R", 2)]
COLD_RUNS = 5

# one cold set-up in a fresh interpreter, as JSON: [frames, seconds, faults]
COLD_CHILD = r"""
import json, resource, sys, time
from cnx.model import FrameClass
from cnx.search import _frames
frame, worlds = FrameClass[sys.argv[1]], int(sys.argv[2])
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
start = time.perf_counter()
frames = sum(1 for _ in _frames(frame, worlds, True))
seconds = time.perf_counter() - start
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
print(json.dumps([frames, seconds, faults]))
"""

UNPRUNED_VALID = "((p0 @> p0) @> p1) -> ((p0 @> p0) @> p1)"
WARM_RUNS = 5

# the cond group in a fresh interpreter, as JSON lines
COND_CHILD = r"""
import json, sys, time
from cnx.harness import DEFAULT_BOUNDS, Thesis, thesis_instance
from cnx.logics import Logic
from cnx.proof import AXIOMS
from cnx.search import SearchBounds, find_countermodel
from cnx.semantics import consecution
from cnx.syntax import parse
unpruned, warm, limit = json.loads(sys.argv[1])


def timed(logic, c, bounds):
    start = time.perf_counter()
    out = find_countermodel(getattr(Logic, logic), c, bounds)
    return out, time.perf_counter() - start


def emit(group, name, out, seconds):
    print(json.dumps([group, name, out.status.value, out.models, seconds]), flush=True)


deep = thesis_instance("?=>", Thesis.WNONSYM)
emit("cond deep", "WnonSym cold", *timed("CnCK_R", deep, DEFAULT_BOUNDS))
emit("cond deep", "WnonSym warm",
     *min((timed("CnCK_R", deep, DEFAULT_BOUNDS) for _ in range(warm)), key=lambda r: r[1]))
for logic in ("CnCK", "CnCK_R"):
    bounds = SearchBounds(2, time_limit=limit)
    emit("cond unpruned w2", logic, *timed(logic, consecution([], [parse(unpruned)]), bounds))
for logic in ("CnCK", "CnCK_R"):
    for name in ("g1", "g2", "g3", "g4"):
        f = AXIOMS[name]
        bounds = SearchBounds(3, time_limit=limit)
        emit(f"cond {logic} w3", name, *timed(logic, consecution([], [f]), bounds))
"""

# one run in the checkout: every search once, as JSON lines
CHILD = r"""
import json, sys, time
from cnx.corpus import CORPUS_DIR
from cnx.logics import Logic
from cnx.proof import AXIOMS, SYSTEMS, parse_proof
from cnx.search import SearchBounds, find_countermodel
from cnx.semantics import consecution
from cnx.syntax import atoms_of
sweeps, goals, limit = json.loads(sys.argv[1])
searches = []
for group, logic, worlds, most in sweeps:
    for name in sorted(SYSTEMS[logic].axioms):
        if len(atoms_of(AXIOMS[name])) <= most:
            searches.append((group, name, logic, worlds, AXIOMS[name]))
for group, logic, worlds, names in goals:
    for name in names:
        proof = parse_proof((CORPUS_DIR / f"{name}.prf").read_text())
        searches.append((group, name, logic, worlds, proof.goals[0]))
for group, name, logic, worlds, f in searches:
    bounds = SearchBounds(worlds, time_limit=limit)
    start = time.perf_counter()
    out = find_countermodel(getattr(Logic, logic), consecution([], [f]), bounds)
    seconds = time.perf_counter() - start
    print(json.dumps([group, name, out.status.value, out.models, seconds]), flush=True)
"""


PARTS = ("frames", "schemes", "cond")


def run_child(root: Path, *args: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-c", *args], cwd=root, env=env,
                          capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"{root}: exit code {proc.returncode}\n{proc.stderr}")
    return proc.stdout


def run_checkout(root: Path, parts: set[str]) -> dict:
    groups: dict[str, dict] = {}
    for frame, worlds in COLD_FRAMES if "frames" in parts else ():
        runs = [json.loads(run_child(root, COLD_CHILD, frame, str(worlds)))
                for _ in range(COLD_RUNS)]
        frames, seconds, faults = min(runs, key=lambda run: run[1])
        groups[f"frames {frame} w{worlds}"] = {"frames": frames, "seconds": seconds,
                                               "faults": faults}
    out = ""
    if "schemes" in parts:
        out += run_child(root, CHILD, json.dumps([SWEEPS, GOALS, TIME_LIMIT_S]))
    if "cond" in parts:
        out += run_child(root, COND_CHILD, json.dumps([UNPRUNED_VALID, WARM_RUNS, TIME_LIMIT_S]))
    for line in out.splitlines():
        group, name, status, models, seconds = json.loads(line)
        items = groups.setdefault(group, {"items": {}})["items"]
        items[name] = {"status": status, "models": models, "seconds": seconds}
    for g in groups.values():
        if "items" in g:
            g["models"] = sum(i["models"] for i in g["items"].values())
            g["seconds"] = sum(i["seconds"] for i in g["items"].values())
            g["timed_out"] = sum(i["status"] == "timed-out" for i in g["items"].values())
    return {"groups": groups}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", action="append", metavar="LABEL=CHECKOUT",
                    help="a checkout to time, under a label (repeatable)")
    ap.add_argument("--out", help="write the results to this JSON file")
    ap.add_argument("--only", action="append", choices=PARTS,
                    help="run only these parts (repeatable; default: all)")
    args = ap.parse_args()
    roots = {}
    for item in args.root or [f"change={HERE.parent}"]:
        label, sep, path = item.partition("=")
        if not sep:
            ap.error(f"--root takes LABEL=CHECKOUT, got {item!r}")
        roots[label] = Path(path).resolve()
    result = {"machine": {"python": platform.python_version(),
                          "platform": platform.platform(), "cpus": os.cpu_count()},
              "time_limit_s": TIME_LIMIT_S,
              "checkouts": {label: run_checkout(root, set(args.only or PARTS))
                            for label, root in roots.items()}}
    print(f"{'group':16} " + " ".join(f"{label:>28}" for label in roots))
    (ref_label, ref), *others = result["checkouts"].items()
    for group in ref["groups"]:
        cells = []
        for c in result["checkouts"].values():
            g = c["groups"][group]
            if "frames" in g:
                cells.append(f"{g['frames']:>5} frames {g['seconds'] * 1e3:9.3f} ms")
                continue
            late = f" ({g['timed_out']} timed out)" if g["timed_out"] else ""
            cells.append(f"{g['models']:>12,} {g['seconds']:9.3f} s{late}")
        print(f"{group:16} " + " ".join(f"{cell:>28}" for cell in cells))
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    differs = False
    for label, c in others:
        for group, g in c["groups"].items():
            for name, item in g.get("items", {}).items():
                want = ref["groups"][group]["items"][name]
                if "timed-out" in (item["status"], want["status"]):
                    continue
                if (item["status"], item["models"]) != (want["status"], want["models"]):
                    differs = True
                    print(f"differs: {group} {name}: {ref_label} {want['status']} "
                          f"{want['models']:,}, {label} {item['status']} {item['models']:,}")
    return int(differs)


if __name__ == "__main__":
    sys.exit(main())
