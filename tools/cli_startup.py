"""Wall time of whole `cnx` commands, each in a fresh interpreter.

    python3 tools/cli_startup.py [--runs N] [--root CHECKOUT]

Runs `python -m cnx.cli` from CHECKOUT/src (default: the checkout holding
this script) with CHECKOUT as the working directory, N times per command
(default 15), in rounds that run every command once, so that a change in
the host's speed falls on all commands alike.  Prints the median, the
quartiles and the sample count for each command, and for a bare interpreter
as the floor.  The header says whether bytecode caching is on and whether
the package's `__pycache__` exists: without it every process compiles the
source again.  A command that exits with another code than expected stops
the script with exit code 1.  Standard library only.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

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
]


def time_once(argv: list[str], root: Path, env: dict, expected: int) -> float:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=root, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    elapsed = time.perf_counter() - start
    if proc.returncode != expected:
        sys.exit(f"{' '.join(argv)}: exit code {proc.returncode}, expected {expected}\n"
                 f"{proc.stderr.decode(errors='replace')}")
    return elapsed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=15, help="processes per command")
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="the source checkout to run")
    args = ap.parse_args()
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    root = args.root.resolve()
    if not (root / "src" / "cnx" / "cli.py").is_file():
        ap.error(f"{root} is not a cnx source checkout")
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    times = {label: [] for label, _, _ in COMMANDS}
    for _ in range(args.runs):
        for label, argv, expected in COMMANDS:
            times[label].append(time_once(argv, root, env, expected))
    print(f"{root}  python {sys.version.split()[0]}  nproc {os.cpu_count()}  "
          f"runs {args.runs}")
    # the commands inherit PYTHONDONTWRITEBYTECODE (not -B); with it set and no
    # __pycache__, every process compiles the package's source again
    caching = not env.get("PYTHONDONTWRITEBYTECODE")
    cached = (root / "src" / "cnx" / "__pycache__").is_dir()
    print(f"bytecode caching {'on' if caching else 'off'}  "
          f"src/cnx/__pycache__ {'exists' if cached else 'absent'}")
    for label, samples in times.items():
        ms = sorted(t * 1e3 for t in samples)
        q1, med, q3 = statistics.quantiles(ms, n=4) if len(ms) > 1 else ms * 3
        print(f"{label:32s} median {med:8.1f} ms  [Q1 {q1:.1f}, Q3 {q3:.1f}]  n={len(ms)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
