"""The workloads, run in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD setup SEED
    python3 perfbench/child.py WORKLOAD reps SEED BUDGET_S MIN_REPS
    python3 perfbench/child.py WORKLOAD trace SEED

`setup` times the set-up only.  `reps` sets up once, then repeats the timed
work through the public entry points, each repetition in a fork of the
set-up process, followed by the output checks.  `trace` re-drives the same
inputs through the layers' public functions, under spans.  The result is
one JSON object on the last line of standard output.

Set-up is timed from just before the first `cnx` import, so interpreter
start-up is not in it.  The program's own output is captured, never shown.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import select
import signal
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path

import inputs
import oracle
from tracing import Tracer, clock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
CORPUS_DIR = ROOT / "src" / "cnx" / "corpus"
GOLDEN = ROOT / "tests" / "data" / "golden_suite.txt"
PINNED = json.loads((Path(__file__).resolve().parent / "pinned.json").read_text())

# A repetition that has not ended this long after set-up began is killed;
# run.py allows the whole process a little more.
REPS_LIMIT_S = 160

STAGES = ("proof", "fixture", "search", "bounded")
MODEL_CELLS = ("P.w1", "P.w2", "P.w3", "FSM.w1", "FSM.w2",
               "FSC.w1", "FSC.w2", "FSC_R.w1", "FSC_R.w2")


class Layers:
    """What a traced pass collects: spans, deterministic counts, and the
    time each search took to yield its first model (frame set-up)."""

    def __init__(self):
        self.tr = Tracer()
        self.counts: Counter = Counter()
        self.first_model_s: list[float] = []


class Ops:
    """Operations attempted and failed, with a note for each failure."""

    def __init__(self):
        self.attempted = 0
        self.notes: list[str] = []

    def op(self, problem: str | None, what: str) -> None:
        self.attempted += 1
        if problem:
            self.notes.append(f"{what}: {problem}")

    def result(self) -> dict:
        return {"attempted": self.attempted, "failed": len(self.notes),
                "notes": self.notes}


def digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(str(p).encode())
        h.update(b"\0")
    return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def forked(fn, deadline: float):
    """fn() run in a fork of this process; returns its JSON-able result.
    The fork starts from this process's state, and whatever fn changes
    (caches included) ends with it, so every call starts from the same
    state.  The fork is killed if it has not answered by `deadline`, and is
    always waited for.  The benchmark's processes have one thread each, so
    forking them is safe."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # the fork: never returns
        code = 0
        try:
            os.close(r)
            data = json.dumps(fn()).encode()
        except BaseException:  # noqa: BLE001 - reported to the parent
            data = json.dumps({"error": traceback.format_exc()[-3000:]}).encode()
            code = 1
        try:
            with os.fdopen(w, "wb") as f:
                f.write(data)
        finally:
            os._exit(code)
    os.close(w)
    chunks, answered = [], False
    try:
        while True:
            left = deadline - clock()
            if left <= 0 or not select.select([r], [], [], left)[0]:
                raise TimeoutError("a fork ran past its deadline")
            chunk = os.read(r, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
        answered = True
    finally:
        os.close(r)
        if not answered:
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
    if not chunks:
        raise RuntimeError(f"a fork died with wait status {status}")
    out = json.loads(b"".join(chunks))
    if "error" in out:
        raise RuntimeError(out["error"])
    return out


def manifest() -> list[str]:
    return (CORPUS_DIR / "manifest.txt").read_text().split()


def recheck_witness(logic, pm, gamma, delta) -> tuple[str | None, str]:
    """Round-trip a reported countermodel through the model file format,
    validate it and re-check it by definition.  (problem, model text)"""
    from cnx.model import load_model, serialize_model, validate_model
    text = serialize_model(pm.model, pm.point)
    model, point = load_model(text)
    if not validate_model(model, logic.frame_class).ok:
        return "witness fails frame validation", text
    if not oracle.refutes(oracle.Model.of(model), point, gamma, delta):
        return "witness does not refute the instance", text
    return None, text


# ---------------------------------------------------------------------------
# the corpus: loaded in suite's set-up, then checked, with the negative proofs

def rejection(text: str) -> str:
    """Why the checker rejects a proof text, or "accepted"."""
    from cnx.errors import CnxError
    from cnx.proof import Registry, check_proof, parse_proof
    try:
        result = check_proof(parse_proof(text), Registry())
    except CnxError as exc:
        return f"raised {type(exc).__name__}"
    return "accepted" if result.ok else result.code


def check_corpus(ops, registry, index, negatives):
    """Every proof loaded and every theorem registered; each negative proof
    rejected for its own reason."""
    files = manifest()
    theorems = sum("\nkind theorem\n" in "\n" + (CORPUS_DIR / f).read_text()
                   for f in files)
    ops.op(None if (len(index), len(registry)) == (len(files), theorems)
           else f"{len(index)} proofs and {len(registry)} theorems loaded, "
                f"expected {len(files)} and {theorems}", "corpus load")
    for fname, text, code in negatives:
        got = rejection(text)
        ops.op(None if got == code else f"expected rejection {code}, got {got}",
               f"negative/{fname}")


def corpus_redrive(lay: Layers, ops: Ops, negatives):
    """What load_corpus does, file by file under spans, then the negative
    proofs, which must be rejected."""
    tr, counts = lay.tr, lay.counts
    from cnx.errors import CnxError
    from cnx.proof import Registry, check_proof, parse_proof
    registry = Registry()
    with tr.span("corpus", qid="corpus"):
        for fname in manifest():
            text = (CORPUS_DIR / fname).read_text()
            with tr.span("syntax.parse_proof", qid=fname):
                proof = parse_proof(text)
            with tr.span("proof.check_proof", qid=fname):
                result = check_proof(proof, registry)
            counts["syntax.bytes"] += len(text.encode())
            counts["proof.lines"] += len(proof.lines)
            ops.op(None if result.ok else f"rejected: {result.code}", fname)
            if proof.kind == "theorem":
                registry.register(proof.name, proof.system, proof.goals[0])
    for fname, text, code in negatives:
        try:
            with tr.span("syntax.parse_proof", qid=fname):
                proof = parse_proof(text)
            with tr.span("proof.check_proof", qid=fname):
                result = check_proof(proof, Registry())
            counts["syntax.bytes"] += len(text.encode())
            counts["proof.lines"] += len(proof.lines)
            got = "accepted" if result.ok else result.code
        except CnxError as exc:
            got = f"raised {type(exc).__name__}"
        counts["proof.rejected"] += got != "accepted"
        ops.op(None if got == code else f"expected rejection {code}, got {got}",
               f"negative/{fname}")


# ---------------------------------------------------------------------------
# suite: the 18-cell connexivity table, byte for byte against the golden file

def golden_blocks() -> list[str]:
    lines = GOLDEN.read_text().splitlines()
    starts = [i for i, line in enumerate(lines) if line.startswith("logic=")]
    return ["\n".join(lines[a:b]) for a, b in zip(starts, starts[1:] + [len(lines)])]


def check_cell(ops, logic, conn, statuses, text, golden, witnesses):
    problems = [] if text == golden else ["report differs from the golden file"]
    for st in statuses:
        if st.verdict != "fails":
            continue
        gamma, delta = oracle.thesis(conn, st.thesis.value)
        problem, model_text = recheck_witness(logic, st.evidence.pointed, gamma, delta)
        if problem:
            problems.append(f"{st.thesis.value}: {problem}")
        witnesses.append(f"{logic.value} {conn} {st.thesis.value}\n{model_text}")
    ops.op("; ".join(problems) or None, f"suite {logic.value} {conn}")


def check_suite_digests(ops, output: str, witnesses: list[str]) -> str:
    pinned = PINNED["suite"]
    ops.op(None if output == GOLDEN.read_text() else "differs from the golden file",
           "suite output")
    ops.op(None if hashlib.sha256(output.encode()).hexdigest() == pinned["output_sha256"]
           else "output digest differs from the pinned one", "suite output digest")
    wd = digest(witnesses)
    ops.op(None if wd == pinned["witness_sha256"]
           else "countermodel witnesses differ from the pinned ones", "suite witnesses")
    return digest([output, wd])


def suite_setup(seed):
    from cnx.corpus import load_corpus
    from cnx.harness import ALL_CELLS, render_report, run_suite  # noqa: F401
    load_corpus()
    return inputs.negative_proofs(seed, CORPUS_DIR)


def suite_rep(negatives, deadline):
    from cnx.corpus import load_corpus
    from cnx.harness import ALL_CELLS, render_report, run_suite
    ops = Ops()
    t = clock()
    reports = [run_suite(logic, conn) for logic, conn in ALL_CELLS]
    texts = [render_report(report) for report in reports]
    run = clock() - t

    golden = golden_blocks()
    witnesses: list[str] = []
    for report, text, gold in zip(reports, texts, golden):
        check_cell(ops, report.logic, report.connective, report.statuses, text,
                   gold, witnesses)
    output = "\n".join(texts) + "\n"
    output_digest = check_suite_digests(ops, output, witnesses)
    check_corpus(ops, *load_corpus(), negatives)
    return {"run_s": run, "lat_ms": [run * 1e3], "rss_mb": peak_rss_mb(),
            "digest": output_digest, **ops.result()}


def redrive_search(lay: Layers, frame, c, bounds):
    """find_countermodel's first-hit loop, outside in: enumerate_models, then
    check_consecution at each point in world order.  Returns the witness,
    or None when the bounds are exhausted."""
    tr, counts = lay.tr, lay.counts
    from cnx.model import PointedModel
    from cnx.search import enumerate_models
    from cnx.semantics import check_consecution
    n = checks = 0
    enum_busy = sem_busy = 0.0
    per_size = Counter()
    hit = None
    with tr.span("search.find_countermodel"):
        start = clock()
        stream = enumerate_models(frame, bounds)
        while hit is None:
            s = clock()
            m = next(stream, None)
            e = clock()
            enum_busy += e - s
            if m is None:
                break
            n += 1
            if n == 1:
                lay.first_model_s.append(e - start)
            per_size[len(m.worlds)] += 1
            for w in sorted(m.worlds):
                checks += 1
                pm = PointedModel(m, w)
                if check_consecution(pm, c):
                    hit = pm
                    break
            sem_busy += clock() - e
        end = clock()
        tr.merged("search.enumerate_models", start, end, enum_busy, n + (hit is None))
        tr.merged("semantics.check_consecution", start, end, sem_busy, checks)
    counts["search.searches"] += 1
    counts["search.models"] += n
    counts["semantics.point_checks"] += checks
    for size, k in per_size.items():
        counts[f"search.models.{frame.value}.w{size}"] += k
    if hit is not None:
        counts["search.deep_hit_index"] = max(counts["search.deep_hit_index"], n)
    return hit


def validate_traced(lay: Layers, model, frame) -> bool:
    tr, counts = lay.tr, lay.counts
    from cnx.model import validate_model
    with tr.span("model.validate_model"):
        ok = validate_model(model, frame).ok
    counts["model.validations"] += 1
    return ok


def suite_trace(seed, ops, lay):
    tr, counts = lay.tr, lay.counts
    from cnx.corpus import load_corpus
    from cnx.harness import (ALL_CELLS, DEFAULT_BOUNDS, ConnexivityReport, Thesis,
                             render_report, run_thesis, thesis_instance)
    from cnx.model import serialize_model
    from cnx.semantics import Consecution, consecution
    corpus_redrive(lay, ops, inputs.negative_proofs(seed, CORPUS_DIR))
    with tr.span("corpus.load_corpus"):
        load_corpus()
    golden = golden_blocks()
    witnesses: list[str] = []
    texts = []
    for qid, (logic, conn) in enumerate(ALL_CELLS):
        statuses = []
        with tr.span("harness.cell", qid=qid):
            for thesis in Thesis:
                with tr.span("harness.run_thesis") as span:
                    st = run_thesis(logic, conn, thesis, DEFAULT_BOUNDS)
                stage = st.evidence_text.split(":", 1)[0]
                span[1] = f"harness.run_thesis.{stage}"
                counts[f"harness.stage_count.{stage}"] += 1
                statuses.append(st)
                if stage in ("search", "bounded"):
                    inst = thesis_instance(conn, thesis)
                    c = inst if isinstance(inst, Consecution) else consecution([], [inst])
                    hit = redrive_search(lay, logic.frame_class, c, DEFAULT_BOUNDS)
                    same = (hit is None if stage == "bounded" else
                            hit is not None and serialize_model(hit.model, hit.point)
                            == serialize_model(st.evidence.pointed.model,
                                               st.evidence.pointed.point))
                    ops.op(None if same else "re-driven search disagrees with run_thesis",
                           f"search {logic.value} {conn} {thesis.value}")
                if st.verdict == "fails":
                    validate_traced(lay, st.evidence.pointed.model,
                                    logic.frame_class)
        texts.append(render_report(ConnexivityReport(logic, conn, tuple(statuses))))
        check_cell(ops, logic, conn, statuses, texts[-1], golden[qid], witnesses)
    return check_suite_digests(ops, "\n".join(texts) + "\n", witnesses)


# ---------------------------------------------------------------------------
# search: a closed loop of `cnx valid` / `cnx countermodel` invocations

def check_query(q, rc: int, out: str) -> str | None:
    from cnx.logics import logic_from_name
    from cnx.model import load_model, validate_model
    if rc == 1:
        if q.theorem:
            return f"instance of theorem {q.theorem} refuted"
        model, point = load_model(out)
        if not validate_model(model, logic_from_name(q.logic).frame_class).ok:
            return "witness fails frame validation"
        if not oracle.refutes(oracle.Model.of(model), point, q.gamma, q.delta):
            return "witness does not refute the query"
        return None
    if rc != 0:
        return f"exit code {rc}"
    if not out.startswith("no countermodel within bounds"):
        return "unexpected output for an exhausted search"
    if q.theorem is None:  # bounded at one world: check every such model
        atoms = set().union(*map(oracle.atoms, q.gamma + q.delta)) or {0}
        for m in oracle.one_world_models(q.logic, atoms, q.max_indices):
            if oracle.refutes(m, "w", q.gamma, q.delta):
                return "a one-world countermodel exists"
    return None


def verdict_line(i, rc, witness_text) -> str:
    return f"{i} {rc}\n{witness_text if rc == 1 else ''}"


def search_setup(seed):
    from cnx import cli  # noqa: F401
    return inputs.search_batch(seed, CORPUS_DIR)


def run_query(argv) -> dict:
    """One `cnx` invocation: exit code, standard output, latency and peak
    memory."""
    from cnx import cli
    out, err = io.StringIO(), io.StringIO()
    s = clock()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code
        except Exception as exc:  # noqa: BLE001 - a crash fails this query only
            rc = f"raised {type(exc).__name__}: {exc}"
    lat = (clock() - s) * 1e3
    return {"rc": rc, "out": out.getvalue(), "lat_ms": lat, "rss_mb": peak_rss_mb()}


def search_rep(batch, deadline):
    """Each query runs in a fork of its own, taken before any query ran, so
    it starts from the state a fresh `cnx` process has after its imports,
    whatever ran before it."""
    ops = Ops()
    results = [forked(lambda: run_query(q.argv), deadline - 5) for q in batch]
    lat = [r["lat_ms"] for r in results]
    for i, (q, r) in enumerate(zip(batch, results)):
        ops.op(check_query(q, r["rc"], r["out"]), f"query {i} {' '.join(q.argv)}")
    return {"run_s": sum(lat) / 1e3, "lat_ms": lat,
            "rss_mb": max(r["rss_mb"] for r in results),
            "digest": digest(verdict_line(i, r["rc"], r["out"])
                             for i, r in enumerate(results)),
            **ops.result()}


def trace_query(q, qid) -> dict:
    """One query re-driven under spans, run in a fork as in search_rep."""
    from cnx import cli
    from cnx.logics import logic_from_name
    from cnx.model import serialize_model
    from cnx.search import SearchBounds
    from cnx.semantics import consecution
    from cnx.syntax import atoms_of, parse
    lay = Layers()
    tr, counts = lay.tr, lay.counts
    ok = True
    with tr.span("query", qid=qid):
        with tr.span("cli.parse_args"):
            args = cli.build_parser().parse_args(list(q.argv))
        texts = ([args.formula] if args.command == "valid" else
                 (args.gamma or []) + (args.delta or []))
        with tr.span("syntax.parse"):
            formulas = [parse(t) for t in texts]
        counts["syntax.query_formulas"] += len(formulas)
        n_gamma = 0 if args.command == "valid" else len(args.gamma or [])
        c = consecution(formulas[:n_gamma], formulas[n_gamma:])
        atoms = set().union(*map(atoms_of, formulas))
        bounds = SearchBounds(args.max_worlds, tuple(sorted(atoms)) or (0,),
                              args.max_indices)
        frame = logic_from_name(args.logic).frame_class
        hit = redrive_search(lay, frame, c, bounds)
        text = ""
        if hit is not None:
            ok = validate_traced(lay, hit.model, frame)
            with tr.span("cli.serialize_model"):
                text = serialize_model(hit.model, hit.point)
    return {"spans": tr.spans, "counts": counts, "first_model_s": lay.first_model_s,
            "rc": 0 if hit is None else 1, "text": text, "valid_witness": ok}


def search_trace(seed, ops, lay):
    deadline = clock() + REPS_LIMIT_S
    batch = search_setup(seed)
    tr, counts = lay.tr, lay.counts
    results = [forked(lambda: trace_query(q, i), deadline)
               for i, q in enumerate(batch)]
    lines = []
    for i, (q, r) in enumerate(zip(batch, results)):
        base = len(tr.spans)
        for span in r["spans"]:
            span[0] += base
            if span[2] is not None:
                span[2] += base
            tr.spans.append(span)
        deep = r["counts"].pop("search.deep_hit_index", 0)
        counts["search.deep_hit_index"] = max(counts["search.deep_hit_index"], deep)
        counts.update(r["counts"])
        lay.first_model_s += r["first_model_s"]
        rc, text = r["rc"], r["text"]
        if not r["valid_witness"]:
            problem = "witness fails frame validation"
        else:
            problem = check_query(q, rc, text if rc else "no countermodel within bounds")
        ops.op(problem, f"query {i} {' '.join(q.argv)}")
        lines.append(verdict_line(i, rc, text))
    return digest(lines)


# ---------------------------------------------------------------------------

def layer_metrics(lay: Layers) -> dict:
    def per(num, den):
        return num / den if den else 0.0

    tr, counts = lay.tr, lay.counts
    parse_s = tr.busy("syntax.parse_proof")
    check_s = tr.busy("proof.check_proof")
    enum_s = tr.busy("search.enumerate_models")
    sem_s = tr.busy("semantics.check_consecution")
    first = sorted(lay.first_model_s)
    m = {
        "syntax.parse_s": (parse_s, "s"),
        "syntax.bytes": (counts["syntax.bytes"], "bytes"),
        "syntax.bytes_per_s": (per(counts["syntax.bytes"], parse_s), "bytes/s"),
        "syntax.query_parse_s": (tr.busy("syntax.parse"), "s"),
        "proof.check_s": (check_s, "s"),
        "proof.lines": (counts["proof.lines"], "count"),
        "proof.lines_per_s": (per(counts["proof.lines"], check_s), "lines/s"),
        "proof.rejected": (counts["proof.rejected"], "count"),
        "search.enum_s": (enum_s, "s"),
        "search.searches": (counts["search.searches"], "count"),
        "search.models": (counts["search.models"], "count"),
        "search.models_per_s": (per(counts["search.models"], enum_s), "models/s"),
    }
    for cell in MODEL_CELLS:
        m[f"search.models.{cell}"] = (counts[f"search.models.{cell}"], "count")
    m.update({
        "search.first_model_ms": (first[len(first) // 2] * 1e3 if first else 0.0, "ms"),
        "search.deep_hit_index": (counts["search.deep_hit_index"], "count"),
        "semantics.check_s": (sem_s, "s"),
        "semantics.point_checks": (counts["semantics.point_checks"], "count"),
        "semantics.us_per_point_check":
            (per(sem_s, counts["semantics.point_checks"]) * 1e6, "us"),
        "model.validate_s": (tr.busy("model.validate_model"), "s"),
        "model.validations": (counts["model.validations"], "count"),
    })
    for stage in STAGES:
        m[f"harness.stage_s.{stage}"] = (tr.busy(f"harness.run_thesis.{stage}"), "s")
    for stage in STAGES:
        m[f"harness.stage_count.{stage}"] = (counts[f"harness.stage_count.{stage}"],
                                             "count")
    m["cli.self_s"] = (tr.busy("cli.parse_args") + tr.busy("cli.serialize_model"), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


SETUPS = {"suite": suite_setup, "search": search_setup}
REPS = {"suite": suite_rep, "search": search_rep}
TRACES = {"suite": suite_trace, "search": search_trace}


def fresh_setup(workload: str, seed: int, deadline: float) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, __file__, workload, "setup", str(seed)],
        capture_output=True, text=True, timeout=max(1.0, deadline - clock()))
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def repetitions(workload: str, seed: int, budget_s: float, min_reps: int) -> dict:
    """Set up once, then repeat the workload in forks of the set-up process
    until the budget would be exceeded.  After each repetition a set-up is
    timed in a fresh interpreter, so that the set-ups are spread over the
    run as the repetitions are; a budget of 0 asks for the repetitions
    alone."""
    deadline = clock() + REPS_LIMIT_S
    t0 = clock()
    ctx = SETUPS[workload](seed)
    setups = [clock() - t0]
    reps = []
    while True:
        t = clock()
        reps.append(forked(lambda: REPS[workload](ctx, deadline), deadline))
        if budget_s > 0:
            setups.append(fresh_setup(workload, seed, deadline))
        took = clock() - t
        if len(reps) >= min_reps and clock() - t0 + took > budget_s:
            break
    return {"setups_s": setups, "reps": reps}


def main() -> None:
    workload, role, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    if role == "setup":
        t0 = clock()
        SETUPS[workload](seed)
        out = {"setup_s": clock() - t0}
    elif role == "reps":
        out = repetitions(workload, seed, float(sys.argv[4]), int(sys.argv[5]))
    else:
        ops = Ops()
        lay = Layers()
        t0 = clock()
        out = {"digest": TRACES[workload](seed, ops, lay)}
        out["wall_s"] = clock() - t0
        out["metrics"] = layer_metrics(lay)
        out["counts"] = dict(sorted(lay.counts.items()))
        out["self_s"] = lay.tr.self_times()
        out["spans"] = lay.tr.spans
        out.update(ops.result())
    print(json.dumps(out))


if __name__ == "__main__":
    main()
