"""The cnx benchmark.

    python3 perfbench/run.py --workload {suite,search} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
`src/`.  One client drives the program in a closed loop: each repetition
starts only after the previous one has ended.  A repetition is a fork of a
process that has done the set-up and nothing else, so it starts from the
state a fresh `cnx` process has after its imports: no cache survives from
one repetition to the next.  On `search` each query is such a fork, as each
`cnx valid` or `cnx countermodel` invocation is a process of its own.

With `--trace 0` repetitions run until `--seconds` would be exceeded (at
least MIN_REPS), and the end-to-end metrics are printed: each time is a
best over the repetitions, set-up is the median of several set-ups in fresh
interpreters.  With `--trace 1` one untraced repetition and two traced
passes over the same inputs run, and the per-layer metrics are printed; the
traced passes must give the untraced verdicts and identical counts.  Every
output is checked; a wrong one counts as failed.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give
each metric with its unit and sample count, and the machine.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED = json.loads((HERE / "pinned.json").read_text())

WORKLOADS = ("suite", "search")
# what run_s is on each workload, in the program's terms
RUN_NAME = {"suite": "suite_s", "search": "search_s"}
# A query is one user command: the whole `cnx suite -L all` table, or one
# `cnx valid` / `cnx countermodel` call.
QUERY = {"suite": "18-cell table", "search": "cli.main calls"}
# The host's speed drifts: a fixed pure-Python loop measured 104-300 ms
# within minutes on the 2-CPU machine this was written on, with no CPU
# steal.  Noise only ever slows work down, so each time is a best: the run
# time of the best repetition, and each query's best latency over the
# repetitions, of which the percentiles are taken.  Set-up is the median of
# one set-up per repetition, plus the run's own.
MIN_REPS = {"suite": 2, "search": 3}
CHILD_TIMEOUT_S = 170
TRACE_BUDGET_S = 140


class BenchError(Exception):
    pass


def child(workload: str, role: str, seed: int, *extra) -> dict:
    """Run child.py in a fresh interpreter, in a process group of its own so
    that a child killed for overrunning takes its forks with it."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), workload, role, str(seed),
         *map(str, extra)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise BenchError(f"{workload} {role} failed:\n{err[-3000:]}")
    return json.loads(out.strip().splitlines()[-1])


def harrell_davis(values, q: float) -> float:
    """The Harrell-Davis estimate of the q-quantile: a mean of the order
    statistics weighted by a Beta(q(n+1), (1-q)(n+1)) density.  Unlike the
    nearest-rank percentile it does not jump when two queries near the
    quantile swap places, which on this host they do from run to run."""
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    c = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 20  # midpoint rule on each order statistic's interval
    weights = [sum(math.exp(c + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
                   for t in ((i + (k + 0.5) / steps) / n for k in range(steps)))
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def machine() -> str:
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
            f"loadavg_at_start={load}")


def untraced(workload: str, seed: int, seconds: int):
    out = child(workload, "reps", seed, seconds, MIN_REPS[workload])
    setups, reps = out["setups_s"], out["reps"]

    n, per_rep = len(reps), len(reps[0]["lat_ms"])
    best = [min(r["lat_ms"][i] for r in reps) for i in range(per_rep)]
    each = f"each query's best of {n} repetitions, over {per_rep} {QUERY[workload]}"
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "run_s": (min(r["run_s"] for r in reps), "s",
                  f"{RUN_NAME[workload]}, best of {n} repetitions"),
        "query_p50_ms": (statistics.median(best), "ms", f"median, {each}"),
        "query_p95_ms": (harrell_davis(best, 0.95), "ms", f"Harrell-Davis p95, {each}"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in reps), "MB",
                        f"median of {n} repetitions"),
    }
    digests = {r["digest"] for r in reps}
    notes = [note for r in reps for note in r["notes"]]
    attempted = sum(r["attempted"] for r in reps) + 1
    if len(digests) != 1:
        notes.append("repetitions disagree on the verdicts")
    return metrics, attempted, notes, [f"verdict digest: {' '.join(sorted(digests))}"]


def traced(workload: str, seed: int):
    start = time.perf_counter()
    out = child(workload, "reps", seed, 0, 1)
    base = dict(out["reps"][0], wall_s=out["setups_s"][0] + out["reps"][0]["run_s"])
    t = time.perf_counter()
    first = child(workload, "trace", seed)
    now = time.perf_counter()
    passes = [first]
    info = []
    # A second pass must reproduce the counts exactly.  It is skipped only
    # when the host is so slow that it could not finish within the time a
    # run is allowed; the counts are then compared with the pinned ones only.
    if (now - start) + (now - t) <= TRACE_BUDGET_S:
        passes.append(child(workload, "trace", seed))
    else:
        info.append("second traced pass skipped: the host is too slow")
    notes = base["notes"] + [note for p in passes for note in p["notes"]]
    attempted = base["attempted"] + sum(p["attempted"] for p in passes) + len(passes)
    if any(p["digest"] != base["digest"] for p in passes):
        notes.append("traced verdicts or witnesses differ from the untraced run")
    if any(p["counts"] != first["counts"] for p in passes[1:]):
        notes.append("two traced passes produced different counts")

    metrics = {k: (v["value"], v["unit"], "traced pass 1") for k, v in first["metrics"].items()}
    metrics["trace.overhead_ratio"] = (first["wall_s"] / base["wall_s"], "ratio",
                                       "traced wall time / untraced wall time")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"trace-{workload}-{seed}.json"
    spans_file.write_text(json.dumps({
        "fields": ["id", "name", "parent", "query", "start", "end", "busy", "calls"],
        "spans": first["spans"]}))

    info += [f"verdict digest: {base['digest']}",
             f"spans: {len(first['spans'])} written to {spans_file.relative_to(ROOT)}",
             "self time by span (traced pass 1):"]
    info += [f"  {name:<32} {secs:.6f} s" for name, secs in
             sorted(first["self_s"].items(), key=lambda kv: -kv[1])]
    pinned = PINNED.get(workload, {}).get("counts")
    if pinned is not None:
        drift = {k: (pinned.get(k), first["counts"].get(k))
                 for k in sorted(set(pinned) | set(first["counts"]))
                 if pinned.get(k) != first["counts"].get(k)}
        info.append("counts match the pinned baseline" if not drift else
                    f"counts differ from the pinned baseline (pinned, now): {drift}")
    return metrics, attempted, notes, info


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="cnx benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    missing = [path for path in ("src/cnx/cli.py", "tests/data/golden_suite.txt")
               if not (ROOT / path).is_file()]
    if missing:
        print(f"error: run from a cnx source checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    print(f"cnx benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(machine())
    print("shape: closed loop, one client, one fork of the set-up process per repetition"
          + (" and per query" if args.workload == "search" else ""))
    try:
        if args.trace:
            metrics, attempted, notes, info = traced(args.workload, args.seed)
        else:
            metrics, attempted, notes, info = untraced(args.workload, args.seed,
                                                       args.seconds)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, (value, unit, how) in metrics.items():
        print(f"{name:<32} {value:<22.10g} {unit:<8} {how}")
    print(f"{'failed_ratio':<32} {len(notes) / attempted:<22.10g} {'ratio':<8} "
          f"{len(notes)} failed of {attempted} attempted")
    for line in info + [f"FAILED {note}" for note in notes]:
        print(line)
    print(json.dumps({
        "correct": not notes,
        "attempted": attempted,
        "failed": len(notes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
