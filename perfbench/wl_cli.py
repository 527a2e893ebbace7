"""`cli-pipeline` workload: the six-command pipeline a CLI user runs.

Each command is a fresh `python -m plankb.cli` on the bundled blocksworld
corpus and IPC-2011 table, one at a time.  Phase 1 writes the graph
(`build-kg`, `ingest-ipc`); phase 2 reads it (`select-planner`,
`mine-macros`, `augment`, `bench`).  Interpreter start and `import
plankb.cli` are a large share of every command, so an import or dependency
change shows here and a search change barely does.

The seed picks the IPC domain whose planner is selected.  In a traced pass
each command runs under `cli_traced.py`, which records the same layer spans
inside the child and hands them back.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time

from core import Context, Ops, PassResult, children_peak_rss_kb

BENCH_HEADER = ["problem", "variant", "expanded", "evaluated", "generated", "cost", "time"]
IMPORT_SAMPLES = 5


def _env(ctx_root) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ctx_root / "src")
    # An installed CLI runs from cached byte code; time that, whatever the
    # calling environment says.  The cache goes to src/**/__pycache__.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def setup(ctx: Context) -> dict:
    data = ctx.root / "src" / "plankb" / "data"
    (ctx.work / "problems").mkdir()
    (ctx.work / "plans").mkdir()
    shutil.copy(data / "domains" / "blocksworld.pddl", ctx.work / "domain.pddl")
    problems = sorted((data / "problems").glob("bw-*.pddl"))
    for p in problems:
        shutil.copy(p, ctx.work / "problems" / p.name)
    for p in sorted((data / "plans" / "blocksworld").glob("*.plan")):
        shutil.copy(p, ctx.work / "plans" / p.name)
    shutil.copy(data / "ipc2011.csv", ctx.work / "ipc.csv")
    ipc_text = (ctx.work / "ipc.csv").read_text()
    rows = list(csv.DictReader(io.StringIO(ipc_text)))
    domain = random.Random(ctx.seed).choice(sorted({r["domain"] for r in rows}))
    state = {
        "work": ctx.work,
        "env": _env(ctx.root),
        "problems": [str(ctx.work / "problems" / p.name) for p in problems],
        "domain": domain,
        "expected_planner": _best_planner(rows, domain),
        "tracer_script": str(ctx.root / "perfbench" / "cli_traced.py"),
    }
    # Load the program once, so the byte-code cache is warm before timing.
    proc = subprocess.run([sys.executable, "-m", "plankb.cli", "--help"],
                          cwd=ctx.work, env=state["env"], capture_output=True)
    state["setup_failures"] = [] if proc.returncode == 0 else ["plankb.cli --help failed"]
    return state


def _best_planner(rows, domain: str) -> str:
    """The planner with the best solved share on the domain, ties to the
    lexicographically smallest name: what `select-planner` must print."""
    recs = [r for r in rows if r["domain"] == domain]
    best = min(recs, key=lambda r: (-int(r["solved"]) / int(r["total"]), r["planner"]))
    return best["planner"]


def _commands(state: dict) -> list[tuple[int, str, list[str]]]:
    """(phase, command, arguments)."""
    return [
        (1, "build-kg", ["domain.pddl", *state["problems"], "--plans", "plans",
                         "-o", "kg.ttl"]),
        (1, "ingest-ipc", ["ipc.csv", "-o", "kg.ttl"]),
        (2, "select-planner", ["kg.ttl", "--domain", state["domain"],
                               "--policy", "ontology"]),
        (2, "mine-macros", ["kg.ttl", "--domain", "blocksworld",
                            "--domain-file", "domain.pddl", "--format", "json"]),
        (2, "augment", ["--domain", "domain.pddl", "--macros", "macros.json",
                        "-k", "2", "-o", "augmented.pddl"]),
        (2, "bench", ["--domain", "domain.pddl", "--problems", "problems",
                      "--macros", "macros.json", "--format", "csv"]),
    ]


def run_pass(state: dict, tracer, verify: bool) -> PassResult:
    work = state["work"]
    for leftover in ("kg.ttl", "macros.json", "augmented.pddl"):
        (work / leftover).unlink(missing_ok=True)
    ops = Ops()
    results = {}
    spans_file = work / "spans.json"
    for phase, cmd, cmd_args in _commands(state):
        if tracer.enabled:
            argv = [sys.executable, state["tracer_script"], str(spans_file), cmd, *cmd_args]
        else:
            argv = [sys.executable, "-m", "plankb.cli", cmd, *cmd_args]
        with tracer.span("cli." + cmd) as span, ops.op(phase, cmd):
            proc = subprocess.run(argv, cwd=work, env=state["env"],
                                  capture_output=True, text=True)
        if tracer.enabled and spans_file.exists():
            tracer.adopt(json.loads(spans_file.read_text()), span)
            spans_file.unlink()
        if cmd == "mine-macros":  # the shell redirect of the README's pipeline
            (work / "macros.json").write_text(proc.stdout)
        results[cmd] = proc

    failures = _check(state, results)
    if verify:
        failures += state["setup_failures"]
    outputs = {cmd: (p.returncode, p.stdout if cmd != "bench" else _bench_rows(p.stdout))
               for cmd, p in results.items()}
    return PassResult(ops, len(results), (1, 2), len(results), failures, outputs,
                      _counts(results))


def _counts(results: dict) -> dict:
    counts = {}
    m = re.match(r"wrote (\d+) triples", results["build-kg"].stdout)
    counts["triples"] = int(m.group(1)) if m else 0
    try:
        counts["mined_pairs"] = len(json.loads(results["mine-macros"].stdout))
    except json.JSONDecodeError:
        counts["mined_pairs"] = 0
    for i, key in enumerate(("expanded", "evaluated", "generated", "plan_cost"), start=2):
        counts[key] = sum(int(r[i]) for r in _bench_rows(results["bench"].stdout)
                          if len(r) > i and r[i].isdigit())
    return counts


def _bench_rows(text: str) -> list[tuple]:
    """The CSV rows without the wall-time column, which differs per run."""
    return [tuple(r[:-1]) for r in csv.reader(io.StringIO(text))][1:]


def _check(state: dict, results: dict) -> list[str]:
    out = []
    for cmd, proc in results.items():
        if proc.returncode != 0:
            out.append("{} exited {}: {}".format(cmd, proc.returncode,
                                                 proc.stderr.strip()[-200:]))
    if not re.match(r"wrote [1-9]\d* triples", results["build-kg"].stdout):
        out.append("build-kg: unexpected output")
    chosen = results["select-planner"].stdout.split("\t")[0]
    if not chosen.endswith("#planner-" + state["expected_planner"]):
        out.append("select-planner chose {!r}, expected {}".format(
            chosen, state["expected_planner"]))
    try:
        pairs = json.loads(results["mine-macros"].stdout)
        if not pairs:
            out.append("mine-macros: no pairs")
    except json.JSONDecodeError:
        out.append("mine-macros: output is not JSON")
    augmented = state["work"] / "augmented.pddl"
    if not augmented.exists() or augmented.read_text().count("(:action") != 6:
        out.append("augment: expected 4 actions plus 2 macros")
    rows = list(csv.reader(io.StringIO(results["bench"].stdout)))
    if not rows or rows[0] != BENCH_HEADER:
        out.append("bench: bad CSV header")
    body = rows[1:]
    if len(body) != 2 * len(state["problems"]):
        out.append("bench: {} rows for {} problems".format(len(body), len(state["problems"])))
    for r in body:
        try:
            ints = [int(x) for x in r[2:6]]
            float(r[6])
        except (ValueError, IndexError):
            out.append("bench: row {} does not parse".format(r))
            continue
        if r[1] not in ("original", "macro") or min(ints) < 1:
            out.append("bench: row {} is not a solved task".format(r))
    return out


def peak_rss_kb() -> int:
    return children_peak_rss_kb()


def _median_run(argv: list[str], env: dict, cwd) -> float:
    times = []
    for _ in range(IMPORT_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=cwd, capture_output=True, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def extra_layer_metrics(state: dict) -> dict:
    """Import cost, measured outside the program: a fresh interpreter that
    imports plankb.cli against a bare one, and `-X importtime` for the share
    of jsonschema (0 when it is not imported)."""
    env, cwd = state["env"], state["work"]
    bare = _median_run([sys.executable, "-c", "pass"], env, cwd)
    full = _median_run([sys.executable, "-c", "import plankb.cli"], env, cwd)
    shares = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import plankb.cli"],
                              env=env, cwd=cwd, capture_output=True, text=True, check=True)
        us = 0
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] == "jsonschema":
                us = int(parts[1])
        shares.append(us / 1000.0)
    return {"cli.import_ms": 1000.0 * (full - bare),
            "cli.import_jsonschema_ms": statistics.median(shares)}
