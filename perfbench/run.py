"""Benchmark driver for plankb.

    python3 perfbench/run.py --workload {cli-pipeline,search,kg} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout: it imports plankb from `src/` there and
keeps its scratch files under `.perfbench/`.  Every input is generated from
`--seed`.  One process drives the load as a closed loop with one client.

A run sets its inputs up `SETUP_REPEATS` times (`setup_s` is the median),
makes one untimed warm-up pass whose outputs are checked against oracles
that do not use the program, then repeats timed passes until `--seconds`
have gone by; each later pass must give the warm-up's outputs.  A pass is a
list of timed operations, each preceded by a calibration loop, and a
phase's time is the sum of its operations' median calibrated times (see
`_phase_s`).  With `--trace 0`
it reports the end-to-end metrics.  With `--trace 1` it alternates untraced
and traced passes and reports the per-layer metrics of `layers.py` plus the
tracing overhead.

The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import layers
from core import CAL_REF_S, Context, PassResult, calibrate
from spans import Tracer

ROOT = Path.cwd()

SETUP_REPEATS = 9
MIN_PASSES = 3

# name -> unit; the order is that of BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_s": "s",
    "phase1_s": "s",
    "phase2_s": "s",
    "work_per_s": "1/s",
}


WORKLOADS = {"cli-pipeline": "wl_cli", "search": "wl_search", "kg": "wl_kg"}


def _check_checkout() -> None:
    """Exit without a result unless the program's source is in the checkout,
    and import plankb from there, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "plankb" / "__init__.py").is_file():
        print("error: no src/plankb under {}; run from the root of a checkout"
              .format(ROOT), file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import plankb

    if Path(plankb.__file__).resolve().parent != (src / "plankb").resolve():
        print("error: plankb imported from {}".format(plankb.__file__), file=sys.stderr)
        sys.exit(2)


def _median(xs: list[float]) -> float:
    return statistics.median(xs)


def _quartiles(xs: list[float]) -> list[float]:
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3


def _pass_s(r) -> float:
    return r.phase_s(1) + r.phase_s(2)


def _phase_s(passes) -> dict[int, float]:
    """Per phase, the sum over its operations of each operation's median,
    over the passes, of its duration divided by the calibration timed just
    before it, times CAL_REF_S.

    Other load on a shared host can slow everything by up to 2x, for longer
    than a run; medians of raw pass times then spread by 20-50% from run to
    run.  The calibration just before an operation is slowed by the same
    factor, so the ratio stays put."""
    ratios: dict[tuple, list[float]] = {}
    for r in passes:
        for (phase, name, t), c in zip(r.ops.times, r.ops.cal):
            ratios.setdefault((phase, name), []).append(t / c)
    out = {1: 0.0, 2: 0.0}
    for (phase, _), rs in ratios.items():
        out[phase] += _median(rs) * CAL_REF_S
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--small", action="store_true",
                    help="reduced inputs (used by the smoke test)")
    args = ap.parse_args(argv)

    _check_checkout()
    # One CPU for the benchmark and its children, so that the calibration
    # loop runs where the work runs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    wl = importlib.import_module(WORKLOADS[args.workload])
    work = ROOT / ".perfbench" / args.workload
    ctx = Context(ROOT, work, args.seed, args.small)
    run_id = "{}-{}-{}".format(args.workload, args.seed, os.getpid())
    tracer = Tracer(run_id, enabled=False)

    setup_samples = []  # (seconds, calibration just before)
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        gc.collect()
        cal = _median([calibrate() for _ in range(3)])
        t0 = time.perf_counter()
        state = wl.setup(ctx)
        setup_samples.append((time.perf_counter() - t0, cal))
    setup_times = [t * CAL_REF_S / cal for t, cal in setup_samples]

    attempted, failures = 0, []

    def account(res: PassResult, reference) -> None:
        nonlocal attempted
        attempted += res.attempted
        failures.extend(res.failures)
        if reference is not None:
            if res.outputs != reference:
                failures.append("pass outputs differ from the warm-up pass")
            res.outputs = None  # kept passes must not grow the peak RSS

    warm = wl.run_pass(state, tracer, verify=True)
    account(warm, None)

    timed: list[PassResult] = []
    traced: list[PassResult] = []
    traced_roots = []
    start = time.perf_counter()
    # A program that fails the warm-up checks is not worth timing further.
    while not warm.failures and (time.perf_counter() - start < args.seconds
                                 or len(timed) < MIN_PASSES):
        res = wl.run_pass(state, tracer, verify=False)
        account(res, warm.outputs)
        timed.append(res)
        if args.trace:
            tracer.enabled = True
            tracer.install()
            with tracer.span("pass") as root:
                res = wl.run_pass(state, tracer, verify=False)
            tracer.uninstall()
            tracer.enabled = False
            account(res, warm.outputs)
            traced.append(res)
            traced_roots.append(root)

    if not timed:
        timed, traced = [warm], [warm]
    failed = min(len(failures), attempted)
    for msg in failures[:20]:
        print("FAILED: " + msg)

    if args.trace:
        tracer.compute_self_times()
        measured, notes = layers.layer_metrics([tracer.subtree(r) for r in traced_roots])
        metrics = dict.fromkeys(layers.PER_LAYER, 0.0)
        metrics.update(measured)
        metrics.update(wl.extra_layer_metrics(state))
        untraced, traced_s = _phase_s(timed), _phase_s(traced)
        metrics["trace.overhead_pct"] = 100.0 * (
            sum(traced_s.values()) / sum(untraced.values()) - 1.0)
        notes["untraced_passes"] = len(timed)
        tracer.write(work.parent / "trace-{}.json".format(run_id),
                     {"workload": args.workload, "seed": args.seed, "notes": notes,
                      "metrics": metrics})
        units = {k: u for k, (u, _) in layers.PER_LAYER.items()}
    else:
        phase = _phase_s(timed)
        metrics = {
            "setup_s": _median(setup_times),
            "peak_rss_mb": wl.peak_rss_kb() / 1024.0,
            "pass_s": phase[1] + phase[2],
            "phase1_s": phase[1],
            "phase2_s": phase[2],
            "work_per_s": warm.work / sum(phase[p] for p in warm.work_phases),
        }
        units = END_TO_END
        passes = [_pass_s(r) for r in timed]
        notes = {"timed_passes": len(timed),
                 "setup_s_samples": [round(x, 4) for x in setup_times],
                 "pass_s_median": round(_median(passes), 4),
                 "pass_s_quartiles": [round(q, 4) for q in _quartiles(passes)]}

    print("workload {} seed {}: {} attempted, {} failed; {}".format(
        args.workload, args.seed, attempted, failed,
        ", ".join("{} {}".format(k, v) for k, v in notes.items())))
    print("counts per pass: " + ", ".join(
        "{} {}".format(k, v) for k, v in warm.counts.items() if "[" not in k))
    with open(work.parent / "counts-{}.json".format(run_id), "w") as f:
        json.dump(warm.counts, f, indent=1)
    with open(work.parent / "samples-{}.json".format(run_id), "w") as f:
        json.dump({"setup": setup_samples,
                   "passes": [{"ops": r.ops.times, "cal": r.ops.cal} for r in timed]}, f)
    for k, v in metrics.items():
        print("  {:<36} {:>16.6f} {}".format(k, v, units[k]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
