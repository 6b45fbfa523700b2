"""Wall time of whole `cnx` commands, each in a fresh interpreter, and the
corpus load that `cnx prove` and `cnx suite` start with.

    python3 tools/cli_startup.py [--runs N] [--root LABEL=CHECKOUT ...] [--out FILE]

Runs `python -m cnx.cli` from CHECKOUT/src (default: the checkout holding
this script, as `change`) with CHECKOUT as the working directory, N times per
command (default 15), in rounds.  A round runs every command once in each
checkout, the checkouts taking turns command by command, in an order that is
reversed every other round, so that a change in the host's speed falls on all
commands and checkouts alike.  The
`load_corpus` command imports `cnx.corpus` and `cnx.harness` and loads the
corpus, as the set-up of `cnx suite` does; besides its wall time it reports,
timed inside the process, the import and load together (from just before the
first `cnx` import) and the load alone.

Prints the median, the quartiles and the sample count for each command in
each checkout, and for a bare interpreter as the floor.  With two or more
checkouts it prints, for each other checkout and each command, the median
and quartiles of the ratios of its time to the first checkout's in the same
round, and in how many rounds it was the faster.  --out writes all samples, these statistics and the machine as JSON.
The header says whether bytecode caching is on and whether each package's
`__pycache__` exists: without it every process compiles the source again.
A command that exits with another code than expected stops the script with
exit code 1.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# the set-up of `cnx suite`: the seconds of the imports with the load, and of
# the load alone
LOAD_CORPUS = ("import time; t0 = time.perf_counter(); import cnx.corpus, cnx.harness; "
               "t1 = time.perf_counter(); cnx.corpus.load_corpus(); "
               "t2 = time.perf_counter(); print(t2 - t0, t2 - t1)")
# the rows that LOAD_CORPUS prints, in its order
IN_PROCESS = ("load_corpus: import + load (in process)", "load_corpus: load (in process)")

# (label, argv after the interpreter, expected exit code)
COMMANDS = [
    ("python (bare interpreter)", ["-c", "pass"], 0),
    ("cnx parse", ["-m", "cnx.cli", "parse", "p0 @=> p1"], 0),
    ("cnx valid -L C --max-worlds 2", ["-m", "cnx.cli", "valid", "-L", "C",
                                       "--max-worlds", "2", "p0 -> p0"], 0),
    # an exhaustive search at 3 worlds: the corpus goal strong_refl
    ("cnx valid -L C --max-worlds 3", ["-m", "cnx.cli", "valid", "-L", "C", "--max-worlds", "3",
                                       "(((p0 -> p0) & (~(p0) -> ~(p0))) & "
                                       "((p0 -> p0) & (~(p0) -> ~(p0))))"], 0),
    # a countermodel found (exit 1), and a usage error (exit 2): the one
    # command line here that cnx.cli hands to argparse
    ("cnx countermodel -L CnCK", ["-m", "cnx.cli", "countermodel", "-L", "CnCK",
                                  "--max-worlds", "1", "--delta", "p0 @> p0"], 1),
    ("cnx valid --bogus (usage error)", ["-m", "cnx.cli", "valid", "-L", "C",
                                         "--max-worlds", "2", "--bogus", "p0"], 2),
    ("cnx prove at_would_refl.prf", ["-m", "cnx.cli", "prove",
                                     "src/cnx/corpus/at_would_refl.prf"], 0),
    ("cnx suite -L all", ["-m", "cnx.cli", "suite", "-L", "all"], 0),
    ("load_corpus (process)", ["-c", LOAD_CORPUS], 0),
]


def time_once(argv: list[str], root: Path, env: dict, expected: int) -> tuple[float, str]:
    """The wall seconds of one process, and its standard output."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=root, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    elapsed = time.perf_counter() - start
    if proc.returncode != expected:
        sys.exit(f"{root}: {' '.join(argv)}: exit code {proc.returncode}, expected "
                 f"{expected}\n{proc.stderr.decode(errors='replace')}")
    return elapsed, proc.stdout.decode()


def summary(ms: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(ms, n=4) if len(ms) > 1 else ms * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(ms)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=15, help="processes per command and checkout")
    ap.add_argument("--root", action="append", metavar="LABEL=CHECKOUT",
                    help="a source checkout to run, under a label (repeatable)")
    ap.add_argument("--out", help="write the samples and statistics to this JSON file")
    args = ap.parse_args()
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    roots = {}
    for item in args.root or [f"change={Path(__file__).resolve().parent.parent}"]:
        label, sep, path = item.partition("=")
        if not sep:
            ap.error(f"--root takes LABEL=CHECKOUT, got {item!r}")
        roots[label] = root = Path(path).resolve()
        if not (root / "src" / "cnx" / "cli.py").is_file():
            ap.error(f"{root} is not a cnx source checkout")
    envs = {label: {**os.environ, "PYTHONPATH": str(root / "src")}
            for label, root in roots.items()}
    rows = [label for label, _, _ in COMMANDS] + list(IN_PROCESS)
    times = {label: {row: [] for row in rows} for label in roots}
    for k in range(args.runs):
        order = [*roots.items()][::-1 if k % 2 else 1]
        for command, argv, expected in COMMANDS:
            for label, root in order:
                elapsed, out = time_once(argv, root, envs[label], expected)
                times[label][command].append(elapsed * 1e3)
                if argv[-1] == LOAD_CORPUS:
                    for row, seconds in zip(IN_PROCESS, out.split()):
                        times[label][row].append(float(seconds) * 1e3)

    print(f"python {sys.version.split()[0]}  nproc {os.cpu_count()}  runs {args.runs}")
    # the commands inherit PYTHONDONTWRITEBYTECODE (not -B); with it set and no
    # __pycache__, every process compiles the package's source again
    caching = not os.environ.get("PYTHONDONTWRITEBYTECODE")
    print(f"bytecode caching {'on' if caching else 'off'}")
    result = {"machine": {"python": platform.python_version(),
                          "platform": platform.platform(), "cpus": os.cpu_count()},
              "runs": args.runs, "bytecode_caching": caching, "checkouts": {}}
    for label, root in roots.items():
        cached = (root / "src" / "cnx" / "__pycache__").is_dir()
        print(f"{label}: {root}  src/cnx/__pycache__ {'exists' if cached else 'absent'}")
        stats = {row: {**summary(ms), "samples_ms": ms} for row, ms in times[label].items()}
        result["checkouts"][label] = {"pycache": cached, "rows": stats}
        for row, s in stats.items():
            print(f"  {row:42s} median {s['median']:8.1f} ms  [Q1 {s['q1']:.1f}, "
                  f"Q3 {s['q3']:.1f}]  n={s['n']}")
    (first, base), *others = times.items()
    if others:
        result["paired_ratios"] = {}
    for label, rows_ms in others:
        print(f"{label} / {first}, paired by round:")
        ratios = {}
        for row, ms in rows_ms.items():
            paired = [a / b for a, b in zip(ms, base[row])]
            ratios[row] = r = {**summary(paired), "faster": sum(x < 1 for x in paired)}
            print(f"  {row:42s} median {r['median']:6.3f}  [Q1 {r['q1']:.3f}, "
                  f"Q3 {r['q3']:.3f}]  faster in {r['faster']} of {r['n']}")
        result["paired_ratios"][f"{label}/{first}"] = ratios
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
