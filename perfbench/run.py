"""The repository benchmark: Table IV grids and SMBO searches, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see ``plan.py`` and
``README.md``): ``table4-spapt``, ``table4-miniapp``, ``smbo-lu``.

With ``--trace 0`` the run measures the end-to-end metrics: three fresh
interpreters time set-up (``setup_s`` is their median), then one more
runs rounds of cells for S seconds (and at least 11 cells) with no
tracing installed.  With ``--trace 1`` it runs the workload's fixed
trace rounds twice in fresh interpreters, untraced and then traced, and
reports the per-layer metrics, the tracing overhead (traced wall over
untraced wall) and the spans as ``.perfbench/traces/<workload>-<seed>.jsonl``.

Every cell's output is checked against ``reference.json``.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a mismatch makes the exit
code 1.  Everything the run writes stays under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import plan  # noqa: E402
import tracing  # noqa: E402

SETUP_PROBES = 3
#: Wall-clock limit of one child interpreter.
CHILD_TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "evals_per_s": "evals/s",
    "cell_s.p50": "s",
    "cell_s.tail": "s",
    "peak_rss_mb": "MB",
    "worker_util": "ratio",
}

#: Per-layer metric -> unit, read from the traced run (see ``per_layer``).
PER_LAYER_UNITS = {
    "evaluator.measure.s": "s",
    "evaluator.measure.calls": "count",
    "kernels.metrics_for.hit_ratio": "ratio",
    "orio.compose.s": "s",
    "orio.compose.calls": "count",
    "orio.analyze_variant.s": "s",
    "orio.analyze_variant.self_s": "s",
    "orio.analyze_variant.calls": "count",
    "costmodel.runtime_seconds.s": "s",
    "costmodel.runtime_seconds.calls": "count",
    "costmodel.compile_seconds.s": "s",
    "rng.hash_draws": "count",
    "rng.hash.s": "s",
    "miniapps.measure.s": "s",
    "miniapps.measure.calls": "count",
    "searchspace.sample_indices.s": "s",
    "searchspace.sample_indices.calls": "count",
    "searchspace.encode_indices.s": "s",
    "searchspace.encode_indices.self_s": "s",
    "searchspace.encode_indices.rows": "count",
    "surrogate.fit.s": "s",
    "surrogate.predict_indices.s": "s",
    "surrogate.predict_indices.rows": "count",
    "surrogate.encode_cache.hit_ratio": "ratio",
    "forest.fit.s": "s",
    "forest.fit.self_s": "s",
    "forest.fit.calls": "count",
    "forest.fit.rows": "count",
    "forest.predict.s": "s",
    "forest.predict.rows": "count",
    "engine.run.s": "s",
    "engine.run.self_s": "s",
    "engine.run.calls": "count",
    "exec.run_grid.s": "s",
    "exec.registry.append.s": "s",
    "exec.registry.append.calls": "count",
    "exec.cells.executed": "count",
    "exec.cells.cached": "count",
    "exec.cells.retried": "count",
    "sim.measure_s": "sim_s",
    "sim.model_s": "sim_s",
    "gate.calls": "count",
    "checkpoint.calls": "count",
    "service.calls": "count",
    "trace.cells": "count",
    "trace.overhead": "ratio",
}


class ChildFailed(RuntimeError):
    pass


def run_child(mode: str, args, workdir: str) -> float:
    """Run one child interpreter to completion; returns its wall time."""
    env = dict(os.environ, TMPDIR=os.path.join(workdir, "tmp"))
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, args.workload,
           str(args.seed), str(args.seconds), workdir]
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise ChildFailed(f"{mode} child exceeded {CHILD_TIMEOUT_S:.0f} s") from None
    if code != 0:
        raise ChildFailed(f"{mode} child exited with code {code}")
    return perf_counter() - start


def load_result(workdir: str, mode: str) -> dict:
    with open(os.path.join(workdir, f"{mode}.json")) as fh:
        return json.load(fh)


def check(records: list[dict], workload: plan.Workload) -> tuple[int, int, list[str]]:
    """(attempted, failed, mismatching ids) over the cells of a run."""
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)[workload.kind]
    attempted = failed = 0
    bad = []
    for rec in records:
        if not rec["cell"]:
            continue
        attempted += 1
        if reference.get(rec["id"]) != rec["output"]:
            failed += 1
            bad.append(rec["id"])
    return attempted, failed, bad


def tail(seconds: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    cells beyond it."""
    ordered = sorted(seconds)
    i = max(0, len(ordered) - 11)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def end_to_end(result: dict, setup: list[float], workload: plan.Workload) -> tuple[dict, list[str]]:
    records = result["records"]
    cell_seconds = [r["seconds"] for r in records if r["cell"]]
    tail_s, tail_pct = tail(cell_seconds)
    metrics = {
        "setup_s": statistics.median(setup),
        "evals_per_s": sum(r["evals"] for r in records) / result["wall"],
        "cell_s.p50": statistics.median(cell_seconds),
        "cell_s.tail": tail_s,
        "peak_rss_mb": result["peak_rss_mb"],
        "worker_util": sum(cell_seconds) / (workload.workers * result["grid_wall"]),
    }
    notes = [
        f"cell_s.tail is p{tail_pct:.0f} of {len(cell_seconds)} cells",
        f"setup probes: {', '.join(f'{s:.3f}' for s in setup)} s",
        f"timed wall {result['wall']:.2f} s, grid wall {result['grid_wall']:.2f} s",
    ]
    return metrics, notes


def per_layer(workdir: str, traced: dict, untraced: dict) -> tuple[dict, list[str]]:
    spans, counters = tracing.load(os.path.join(workdir, "spans"))
    table = tracing.layer_table(spans, counters)

    def get(name: str, field: str) -> float:
        return table.get(name, {}).get(field, 0)

    def total(prefix: str) -> int:
        return sum(row["calls"] for name, row in table.items() if name.startswith(prefix))

    # Counters are summed cell by cell in cell-id order so the simulated
    # totals repeat bit for bit.
    by_cell = sorted(counters, key=lambda c: c["cell"] or "")
    sums = {k: 0 for k in counters[0]["counters"]} if counters else {}
    caches: dict[str, list[int]] = {}
    for c in by_cell:
        for k, v in c["counters"].items():
            sums[k] += v
        for key, (hits, misses) in c["caches"].items():
            if hits + misses >= sum(caches.get(key, (0, 0))):
                caches[key] = [hits, misses]
    lookups = get("kernels.metrics_for", "rows")
    cache_hits = sum(h for h, _ in caches.values())
    cache_total = sum(h + m for h, m in caches.values())
    metrics = {}
    for name in PER_LAYER_UNITS:
        layer, _, field = name.rpartition(".")
        if field in ("s", "calls", "rows", "self_s") and layer in table:
            metrics[name] = get(layer, field)
    metrics.update({
        "kernels.metrics_for.hit_ratio":
            1.0 - get("orio.analyze_variant", "calls") / lookups if lookups else 0.0,
        "rng.hash_draws": sums.get("hash_draws", 0),
        "rng.hash.s": sums.get("hash_s", 0.0),
        "surrogate.encode_cache.hit_ratio": cache_hits / cache_total if cache_total else 0.0,
        "exec.cells.executed": sums.get("cells_executed", 0),
        "exec.cells.cached": sums.get("cells_cached", 0),
        "exec.cells.retried": sums.get("cells_retried", 0),
        "sim.measure_s": sums.get("sim_measure_s", 0.0),
        "sim.model_s": sums.get("sim_model_s", 0.0),
        "gate.calls": total("gate."),
        "checkpoint.calls": total("checkpoint."),
        "service.calls": total("service."),
        "trace.cells": sum(1 for r in traced["records"] if r["cell"]),
        "trace.overhead": traced["wall"] / untraced["wall"],
    })
    metrics = {name: metrics.get(name, 0) for name in PER_LAYER_UNITS}

    notes = [tracing.format_table(table, "per-layer breakdown, all cells")]
    problems = sorted({s["cell"].split("|")[0] for s in spans if s["cell"]})
    for problem in problems:
        cells = {s["cell"] for s in spans if s["cell"] and s["cell"].startswith(problem + "|")}
        sub = tracing.layer_table(spans, counters, cells)
        notes.append(f"largest self-time layer in {problem} cells: {tracing.hottest_layer(sub)}")
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(plan.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no repro package under src/; run from a repository checkout",
              file=sys.stderr)
        return 2
    workload = plan.WORKLOADS[args.workload]
    base = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(base, f"run-{os.getpid()}")
    os.makedirs(os.path.join(workdir, "tmp"), exist_ok=True)
    try:
        if args.trace == 0:
            setup = [run_child("setup", args, workdir) for _ in range(SETUP_PROBES)]
            run_child("timed", args, workdir)
            result = load_result(workdir, "timed")
            metrics, notes = end_to_end(result, setup, workload)
            units = END_TO_END_UNITS
        else:
            run_child("fixed", args, workdir)
            run_child("traced", args, workdir)
            untraced = load_result(workdir, "fixed")
            result = load_result(workdir, "traced")
            metrics, notes = per_layer(workdir, result, untraced)
            result["records"] += untraced["records"]
            units = PER_LAYER_UNITS
            trace_dir = os.path.join(base, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            trace_path = os.path.join(trace_dir, f"{args.workload}-{args.seed}.jsonl")
            tracing.merge_jsonl(os.path.join(workdir, "spans"), trace_path)
            notes.append(f"spans written to {os.path.relpath(trace_path, ROOT)}")
        attempted, failed, bad = check(result["records"], workload)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("context: " + json.dumps(result["context"], sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {units[name]}")
    print(f"  {'fail_ratio':<36} {failed / attempted:>14.6g} ratio")
    for note in notes:
        print(note)
    for cell_id in bad:
        print(f"output mismatch: {cell_id}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
