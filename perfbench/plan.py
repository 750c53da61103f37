"""Workload definitions and their seeded cell plans (standard library only).

A workload is a stream of *rounds*; a round is a short list of cells
that runs as one unit (one ``grid_map`` call for the Table IV
workloads, one source phase plus two searches for ``smbo-lu``).  The
benchmark starts rounds until its measuring window is spent, so every
run holds whole rounds with the same mix of cell kinds.

``--seed`` picks the machine-pair rotation and the per-cell seeds; each
per-cell seed comes from a small fixed set so that every cell a plan can
produce has a stored reference output (``reference.json``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SOURCES = ("westmere", "sandybridge", "power7")
TARGETS = ("westmere", "sandybridge", "power7", "xgene")
#: The nine Table IV machine pairs, in ``run_table4`` grid order.
PAIRS = tuple((s, t) for t in TARGETS for s in SOURCES if s != t)

#: Per-cell seeds with stored references, for Table IV cells and SMBO.
TABLE4_CELL_SEEDS = (0, 1, 2, 3)
SMBO_CELL_SEEDS = tuple(range(12))

#: Table IV sessions run at the paper's budget of 100 evaluations.
TABLE4_NMAX = 100
#: SMBO runs at half of ``run_search_comparison``'s 100 evaluations so a
#: 30 s window holds more than ten searches, which ``cell_s.tail`` needs.
SMBO_NMAX = 50
SMBO_POOL = 2000
SMBO_PROBLEM, SMBO_SOURCE, SMBO_TARGET = "LU", "westmere", "sandybridge"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "table4" or "smbo"
    workers: int
    problems: tuple[str, ...]
    #: problems of one round, in dispatch order
    round_problems: tuple[str, ...]
    #: rounds the traced run (and its untraced twin) measures
    trace_rounds: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "table4-spapt", "table4", 1, ("MM", "ATAX", "LU", "COR"),
            ("MM", "ATAX", "LU", "COR"), 2,
            "Table IV RSb cells of the SPAPT kernels, single worker: the "
            "simulated measurement (Orio transform, analysis, cost model, "
            "noise) does most of the work",
        ),
        Workload(
            "table4-miniapp", "table4", 2, ("HPL", "RT"),
            # Both workers take a long RT cell, then drain the short HPL
            # cells unevenly: the fan-out imbalance.  Two RT cells a round
            # keep more than ten RT cells in a 30 s run, so cell_s.tail
            # falls among them while cell_s.p50 falls among the HPL cells.
            ("RT", "RT", "HPL", "HPL", "HPL", "HPL"), 2,
            "Table IV RSb cells of HPL and RT on two workers: bypasses Orio; "
            "pool sampling and encoding (RT), hash draws (HPL), executor "
            "fan-out and imbalance",
        ),
        Workload(
            "smbo-lu", "smbo", 1, (SMBO_PROBLEM,),
            ("SMBO-cold", "SMBO-seeded"), 4,
            "SMBO cold and transfer-seeded on LU westmere to sandybridge: "
            "forest refits on fewer than 128 rows dominate; evaluator runs "
            "warm",
        ),
    )
}


def table4_cell_id(problem: str, source: str, target: str, cell_seed: int) -> str:
    return f"{problem}|{source}|{target}|{cell_seed}"


def smbo_cell_id(label: str, cell_seed: int) -> str:
    return f"{label}|{cell_seed}"


def rounds(workload: Workload, seed: int):
    """Endless, seed-determined rounds of ``(cell_id, spec)`` pairs.

    Table IV specs are ``(problem, source, target, cell_seed)``; an
    SMBO round's spec is its cell seed.  Each problem walks the nine
    machine pairs from a seeded offset, so a run covers the pairs
    evenly whatever its length.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    if workload.kind == "smbo":
        order = list(SMBO_CELL_SEEDS)
        rng.shuffle(order)
        r = 0
        while True:
            cell_seed = order[r % len(order)]
            yield [(smbo_cell_id(label, cell_seed), cell_seed)
                   for label in workload.round_problems]
            r += 1
    offsets = {p: rng.randrange(len(PAIRS)) for p in workload.problems}
    slots = {p: 0 for p in workload.problems}
    while True:
        cells = []
        for problem in workload.round_problems:
            source, target = PAIRS[(offsets[problem] + slots[problem]) % len(PAIRS)]
            slots[problem] += 1
            cell_seed = rng.choice(TABLE4_CELL_SEEDS)
            cells.append((table4_cell_id(problem, source, target, cell_seed),
                          (problem, source, target, cell_seed)))
        yield cells
