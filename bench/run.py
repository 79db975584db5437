"""conecross benchmark: time to certified crossing numbers.

    python3 bench/run.py --workload exact --seed 1 --seconds 40 --trace 0

Runs one seeded workload (``exact``, ``books``, ``cone``, or ``all`` for the
three in turn) through the public API in this process with threads=1,
checks every answer independently, and prints a full report line followed
by one JSON result line.  ``--seconds`` sets the batch size: about that many
seconds of work on a 2-core x86 host (Python 3.11), in whole rounds of the
workload's task list.  The same seed and seconds give the same batch.

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json.
``--trace 1`` sizes the batch for half the seconds (at least one round) and
runs every task twice, back to back: untraced, and with spans recorded
around every layer's public functions (see tracing.py).  It reports the
per-layer metrics listed in BENCHMARK.json; the report holds the full
split and the tracing overhead.  Counters repeat exactly for a seed unless
a task hits its time budget.  Reports and span files go to ``.bench_out/``.

A wrong answer prints ``"correct": false`` and exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".bench_out"

# Workload reasons and the metrics on the result line, by name and unit.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]

# Seconds one round of each workload takes on the reference host; a batch is
# max(1, round(seconds / ROUND_S)) rounds.
ROUND_S = {"exact": 9.5, "cone": 27.0, "books": 2.7}
SETUP_REPS = 5
P90_MIN_TASKS = 100
# Spans must cover this share of the cone tasks' time, per relabelled graph.
# Checked per graph, not per task: a 25 ms 2xK5 cone spends about 2% in
# cone_cr's own glue, so one garbage collection or scheduler pause there
# would fail a single task.  The lowest per-task share is reported.
CONE_COVERAGE_MIN = 0.95

# On a shared host the same code runs up to 1.8x slower or faster from one
# tenth of a second to the next.  A fixed reference kernel (networkx's
# planarity test on a 5x5 grid, code this repository never changes) is timed
# between slices of at least REF_EVERY_S of task time, and around every
# set-up.  Each task's time is scaled by REF_NOMINAL_MS over the mean of the
# two reference times around its slice, i.e. expressed at the reference host
# speed; so is each set-up.  Raw times are in the report.
REF_EVERY_S = 0.02
REF_NOMINAL_MS = 2.0
REF_AROUND_SETUP = 3


def _metric(value, unit):
    return {"value": value, "unit": unit}


def reference_ms() -> float:
    """One timed call of the reference kernel, in milliseconds."""
    import networkx as nx

    grid = nx.grid_2d_graph(5, 5)
    t0 = time.perf_counter()
    nx.check_planarity(grid)
    return (time.perf_counter() - t0) * 1e3


def run_batch(tasks, tracer=None):
    """Run and check every task; the clock covers only the library calls.

    The reference kernel runs between tasks, outside the clock.  With a
    tracer, every task also runs with spans recorded, right after or right
    before its untraced run (alternating), so both runs see the same host
    speed and their difference is the cost of tracing.  Returns the
    untraced and the traced batch (None without a tracer).
    """
    plain = {"times": [], "closed": [], "gaps": [], "errors": [], "results": []}
    traced = {key: [] for key in plain} if tracer else None
    ref = [reference_ms()]
    slice_of = []  # per task: the reference time taken just before its slice
    since_ref = 0.0
    for i, task in enumerate(tasks):
        if since_ref >= REF_EVERY_S:
            ref.append(reference_ms())
            since_ref = 0.0
        slice_of.append(len(ref) - 1)
        runs = [(plain, None)] + ([(traced, tracer)] if tracer else [])
        for into, tr in runs[::-1] if i % 2 else runs:
            result, seconds = _run_task(task, i, tr, into["errors"])
            since_ref += seconds
            ok, gap = (False, 0) if result is None else task.check(result)
            into["times"].append(seconds)
            into["closed"].append(ok)
            into["gaps"].append(gap)
            into["results"].append(result if task.pair is not None else None)
    ref.append(reference_ms())
    speeds = [2 * REF_NOMINAL_MS / (ref[k] + ref[k + 1]) for k in slice_of]
    for batch in (plain, traced):
        if batch is not None:
            batch["ref_ms"] = statistics.median(ref)
            batch["speeds"] = speeds
    return plain, traced


def _run_task(task, i, tracer, errors):
    """(result or None if it raised, seconds); spans only with a tracer."""
    if tracer is None:
        t0 = time.perf_counter()
        try:
            result = task.call()
        except Exception as exc:  # a raising task is a failed task, not a crash
            result = None
            errors.append(f"{task.kind} {task.label}: {exc!r}")
        return result, time.perf_counter() - t0
    with tracing.installed(tracer):
        t0 = time.perf_counter()
        try:
            result = tracer.run_task(i, task.call)
        except Exception as exc:
            result = None
            errors.append(f"{task.kind} {task.label}: {exc!r}")
        return result, time.perf_counter() - t0


def by_group(tasks, batch):
    """Per task group: count, summed and median time (raw and scaled to the
    reference host speed), tasks closed."""
    groups = {}
    for task, t, s, ok in zip(tasks, batch["times"], batch["speeds"], batch["closed"]):
        groups.setdefault(task.group, []).append((t, t * s, ok))
    return {
        group: {"tasks": len(rows), "wall_s": sum(t for t, _, _ in rows),
                "p50_ms": statistics.median(t for t, _, _ in rows) * 1e3,
                "p50_ref_ms": statistics.median(r for _, r, _ in rows) * 1e3,
                "closed": sum(1 for _, _, ok in rows if ok)}
        for group, rows in groups.items()
    }


def end_to_end(batch, setup):
    """Every end-to-end figure of a batch, and its count of failed tasks.

    The gated ones are the time set-up takes, the geometric mean of the task
    latencies (every task counts by its relative change, so neither the many
    small tasks nor a few long ones drown the rest, and a task that runs
    into the budget moves it only by its own share), the share of tasks that
    closed with a verified exact answer, and peak memory.  Batch wall time
    and the tail are reported only: on ``cone`` they are set by how many of
    its few budget-bound tasks close, which the seed decides.
    """
    times_ms = [t * 1e3 for t in batch["times"]]
    ref_ms = [t * s for t, s in zip(times_ms, batch["speeds"])]
    n = len(times_ms)
    failed = sum(1 for c in batch["closed"] if not c)
    return {
        "setup_s": _metric(setup["ref_s"], "s"),
        "task_ref_ms.geomean": _metric(statistics.geometric_mean(ref_ms), "ms"),
        "closed_frac": _metric((n - failed) / n, "frac"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_raw_s": _metric(setup["raw_s"], "s"),
        "task_ms.geomean": _metric(statistics.geometric_mean(times_ms), "ms"),
        "wall_s": _metric(sum(times_ms) / 1e3, "s"),
        "wall_ref_s": _metric(sum(ref_ms) / 1e3, "s"),
        "task_ms.p50": _metric(statistics.median(times_ms), "ms"),
        "task_ref_ms.p50": _metric(statistics.median(ref_ms), "ms"),
        "task_ms.p90": _metric(
            statistics.quantiles(times_ms, n=10)[8] if n >= P90_MIN_TASKS else None, "ms"),
        "ref_kernel_ms": _metric(batch["ref_ms"], "ms"),
        "failed_frac": _metric(failed / n, "frac"),
        "bracket_gap": _metric(sum(batch["gaps"]), "count"),
        "tasks": _metric(n, "count"),
    }, failed


def per_layer(tracer, traced, untraced, tasks, workload):
    traced_wall = sum(traced["times"])
    rows = tracer.by_name()
    counts = tracer.counts
    m = {}
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    # Every traced function gets .calls, .self_ms, .share (self time as a
    # share of the traced wall) and .total_ms (including the spans below it).
    for name in tracing.SPAN_NAMES:
        row = rows.get(name, zero)
        m[f"{name}.calls"] = _metric(row["calls"], "count")
        m[f"{name}.self_ms"] = _metric(row["self_s"] * 1e3, "ms")
        m[f"{name}.share"] = _metric(100 * row["self_s"] / traced_wall, "%")
        m[f"{name}.total_ms"] = _metric(row["total_s"] * 1e3, "ms")

    def per_call(name):
        row = rows.get(name, zero)
        return row["self_s"] * 1e6 / row["calls"] if row["calls"] else 0.0

    lr_calls = rows.get("planarity.lr_planar", zero)["calls"]
    m["planarity.lr_planar.us_per_call"] = _metric(per_call("planarity.lr_planar"), "us")
    m["planarity.lr_planar.nonplanar_frac"] = _metric(
        counts["planarity.lr_planar.nonplanar"] / lr_calls if lr_calls else 0.0, "frac")
    m["maxcut.maxcut_exact.us_per_call"] = _metric(per_call("maxcut.maxcut_exact"), "us")
    nodes = counts["solver.nodes"]
    m["solver.nodes"] = _metric(nodes, "count")
    m["solver.planarity_per_node"] = _metric(
        counts["solver.planarity_calls"] / nodes if nodes else 0.0, "1")
    m["solver.cr_certificates.found"] = _metric(counts["solver.cr_certificates.found"], "count")
    m["apex.insert_apex.failed"] = _metric(tracer.errors["apex.insert_apex"], "count")
    enumerations = rows.get("solver.cr_certificates", zero)["calls"]
    m["apex.drawings_per_cone"] = _metric(
        rows.get("apex.insert_apex", zero)["calls"] / enumerations if enumerations else 0.0, "1")
    m["apex.seed_excess"] = _metric(counts["apex.seed_excess"], "count")
    m["pages.prefix_nodes"] = _metric(counts["pages.prefix_nodes"], "count")
    m["pages.two_page_orders"] = _metric(counts["pages.two_page_orders"], "count")
    for name in ("graphs.Multigraph.instances", "graphs.Multigraph.instance_id"):
        m[f"{name}.calls"] = _metric(counts[name], "count")
    m["trace.overhead_frac"] = _metric(traced_wall / sum(untraced["times"]) - 1, "frac")
    spans = tracer.coverage("apex.cone_cr") if workload == "cone" else {}
    m["trace.cone_coverage_min"] = _metric(
        min((covered / wall for wall, covered in spans.values() if wall > 0), default=1.0), "frac")
    sums = {}
    for i, (wall, covered) in spans.items():
        total = sums.setdefault(tasks[i].group, [0.0, 0.0])
        total[0] += wall
        total[1] += covered
    coverage = {group: covered / wall for group, (wall, covered) in sums.items()}
    return m, coverage


def environment(args):
    import networkx

    return {
        "seed": args.seed,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "threads": 1,
    }


def import_seconds() -> float:
    """Time to import conecross and networkx in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import conecross, networkx; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(HERE.parent / "src")],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def run_workload(workload, seed, seconds, trace, tiny=None):
    """Build, run and check one workload; returns (report, final line).

    Set-up (import in a fresh interpreter, input generation, warm-up) runs
    SETUP_REPS times, each scaled to the reference host speed measured right
    before and after it; setup_s is the median.
    """
    import workloads

    share = 0.5 if trace else 1.0
    rounds = 1 if tiny else max(1, round(seconds * share / ROUND_S[workload]))
    build = workloads.BUILDERS[workload]

    def ref():
        return statistics.median(reference_ms() for _ in range(REF_AROUND_SETUP))

    raw, scaled = [], []
    for _ in range(SETUP_REPS):
        before = ref()
        import_s = import_seconds()
        t0 = time.perf_counter()
        tasks = build(seed, rounds, tiny)
        workloads.warm_up()
        raw.append(import_s + time.perf_counter() - t0)
        scaled.append(raw[-1] * 2 * REF_NOMINAL_MS / (before + ref()))
    setup = {"raw_s": statistics.median(raw), "ref_s": statistics.median(scaled),
             "reps_ref_s": scaled}

    correct = True
    report = {"workload": workload, "why": WHY[workload], "rounds": rounds,
              "setup_reps_ref_s": setup["reps_ref_s"]}
    try:
        tracer = tracing.Tracer() if trace else None
        batch, traced = run_batch(tasks, tracer)
        workloads.check_pairs(tasks, batch["results"])
        figures, failed = end_to_end(batch, setup)
        report["end_to_end"] = figures
        metrics = {k: figures[k] for k in END_TO_END}
        report["by_group"] = by_group(tasks, batch)
        if trace:
            workloads.check_pairs(tasks, traced["results"])
            layer, coverage = per_layer(tracer, traced, batch, tasks, workload)
            report["per_layer"] = layer
            report["cone_coverage"] = coverage
            for group, share in coverage.items():
                if share < CONE_COVERAGE_MIN:
                    raise workloads.WrongAnswer(f"spans cover only {share:.3f} of {group}")
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{workload}-seed{seed}.tsv")
            metrics = {k: layer[k] for k in PER_LAYER}
        report["errors"] = batch["errors"]
    except workloads.WrongAnswer as exc:
        correct = False
        report["wrong_answer"] = str(exc)
        metrics, failed = {}, 0
    line = {
        "correct": correct,
        "attempted": len(tasks),
        "failed": failed,
        "metrics": metrics,
    }
    return report, line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["exact", "cone", "books", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import workloads  # noqa: F401  (fails unless conecross is in ../src)

    names = ["exact", "cone", "books"] if args.workload == "all" else [args.workload]
    env = environment(args)
    lines = {}
    for name in names:
        report, line = run_workload(name, args.seed, args.seconds, args.trace)
        report["environment"] = env
        OUT.mkdir(exist_ok=True)
        (OUT / f"report-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(report, indent=1) + "\n")
        print(json.dumps(report), flush=True)
        lines[name] = line
    if len(names) == 1:
        final = lines[names[0]]
    else:
        final = {
            "correct": all(l["correct"] for l in lines.values()),
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {f"{w}.{k}": v for w, l in lines.items() for k, v in l["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
