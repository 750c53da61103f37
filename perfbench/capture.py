"""Capture the reference output of every cell a benchmark plan can produce.

    python3 perfbench/capture.py

Writes ``perfbench/reference.json``.  Table IV references hold Prf,
Srh and success exactly as ``run_table4`` reports them, plus the
``SearchTrace.state_digest()`` of every search in the cell; the capture
fails if the benchmark's own cell function disagrees with
``run_table4`` on any cell.  SMBO references hold the digests of each
search (and, for the seeded search, of the source RS that seeded it).
Run it on the commit whose outputs define "correct".
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

import cells  # noqa: E402
import plan  # noqa: E402
from repro.experiments.harness import grid_map  # noqa: E402
from repro.experiments.table4 import run_table4  # noqa: E402

PROBLEMS = ("MM", "ATAX", "LU", "COR", "HPL", "RT")
WORKERS = 2


def main() -> int:
    reference: dict[str, dict] = {"table4": {}, "smbo": {}}
    specs = [
        (problem, source, target, cell_seed)
        for cell_seed in plan.TABLE4_CELL_SEEDS
        for problem in PROBLEMS
        for source, target in plan.PAIRS
    ]
    for record in grid_map("perfbench-capture", cells.table4_cell, specs,
                           n_workers=WORKERS):
        reference["table4"][record["id"]] = record["output"]
    for cell_seed in plan.TABLE4_CELL_SEEDS:
        result = run_table4(problems=PROBLEMS, seed=cell_seed, n_workers=WORKERS)
        for c in result.cells:
            cell_id = plan.table4_cell_id(c.problem, c.source, c.target, cell_seed)
            ours = reference["table4"][cell_id]
            public = (c.performance, c.search_time, c.successful)
            if (ours["performance"], ours["search_time"], ours["successful"]) != public:
                print(f"capture: {cell_id}: benchmark cell {ours} != run_table4 {public}",
                      file=sys.stderr)
                return 1
    runner = cells.SmboRounds()
    for cell_seed in plan.SMBO_CELL_SEEDS:
        for record in runner.run(cell_seed):
            if record["cell"]:
                reference["smbo"][record["id"]] = record["output"]
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"captured {len(reference['table4'])} Table IV cells and "
          f"{len(reference['smbo'])} SMBO searches")
    return 0


if __name__ == "__main__":
    sys.exit(main())
