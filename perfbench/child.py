"""One fresh interpreter of a benchmark run (started by ``run.py``).

    python3 perfbench/child.py MODE WORKLOAD SEED SECONDS WORKDIR

MODE is ``setup`` (set up and exit: the ``setup_s`` probe), ``timed``
(rounds until SECONDS have passed and at least 11 cells ran), ``fixed``
(the workload's trace rounds, untraced) or ``traced`` (the same rounds
with span tracing installed).  The result is written as JSON to
``WORKDIR/<MODE>.json``.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

import plan  # noqa: E402

#: ``cell_s.tail`` needs more than ten cells beyond its percentile.
MIN_CELLS = 11
#: Stop starting rounds after this long whatever the cell count, so a
#: run on a slow machine still ends inside its time limit.
HARD_STOP_S = 120.0
#: ``peak_rss_mb`` covers this many rounds: a fixed amount of work, since
#: RSS grows with every Table IV cell a process runs and a faster program
#: runs more cells in the same window.
RSS_ROUNDS = 3


def set_up(workload: plan.Workload):
    """Imports, the native-kernel compile probe, kernels and spaces."""
    import cells
    from repro.experiments.harness import build_problem
    from repro.ml import _native

    native = _native.diagnostics()
    if workload.kind == "smbo":
        return native, cells.SmboRounds()
    for problem in workload.problems:
        build_problem(problem)
    return native, None


def run_rounds(workload, rounds, seconds, workdir, runner):
    """Run rounds until the window is spent.

    Returns the records, the wall time, the summed round (grid) wall
    time, and the peak RSS over the first ``RSS_ROUNDS`` rounds.
    """
    import cells
    from repro.experiments.harness import grid_map

    journal = os.path.join(workdir, f"journal-{os.getpid()}.jsonl")
    records, grid_wall, n_cells, rss = [], 0.0, 0, None
    start = perf_counter()
    for r, cell_round in enumerate(rounds):
        elapsed = perf_counter() - start
        if seconds is not None and r > 0 and (
            elapsed >= HARD_STOP_S or (elapsed >= seconds and n_cells >= MIN_CELLS)
        ):
            break
        round_start = perf_counter()
        if workload.kind == "smbo":
            done = runner.run(cell_round[0][1])
        else:
            # A fresh journal per run, resume off: no cell is ever merged
            # from an earlier run.
            done = grid_map(
                f"perfbench-{workload.name}", cells.table4_cell,
                [spec for _, spec in cell_round],
                keys=[(r, cell_id) for cell_id, _ in cell_round],
                n_workers=workload.workers, registry_path=journal, resume=False,
            )
        grid_wall += perf_counter() - round_start
        records.extend(done)
        n_cells += sum(1 for rec in done if rec["cell"])
        if r + 1 == RSS_ROUNDS:
            rss = peak_rss_mb()
    wall = perf_counter() - start
    return records, wall, grid_wall, rss if rss is not None else peak_rss_mb()


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def main(argv: list[str]) -> int:
    mode, name, seed, seconds, workdir = argv
    workload = plan.WORKLOADS[name]
    seed = int(seed)
    native, runner = set_up(workload)
    if mode == "setup":
        return 0
    if mode == "traced":
        import tracing

        trace_dir = os.path.join(workdir, "spans")
        os.makedirs(trace_dir, exist_ok=True)
        recorder = tracing.install(trace_dir)
    rounds = plan.rounds(workload, seed)
    if mode == "timed":
        records, wall, grid_wall, rss = run_rounds(
            workload, rounds, float(seconds), workdir, runner)
    else:
        records, wall, grid_wall, rss = run_rounds(
            workload, itertools.islice(rounds, workload.trace_rounds),
            None, workdir, runner)
    if mode == "traced":
        recorder.flush()
    import numpy

    result = {
        "records": records,
        "wall": wall,
        "grid_wall": grid_wall,
        "peak_rss_mb": rss,
        "context": {
            "native": native,
            "workers": workload.workers,
            "nproc": os.cpu_count(),
            "seed": seed,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
    }
    with open(os.path.join(workdir, f"{mode}.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
