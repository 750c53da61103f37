"""The benchmark's units of work: Table IV cells and SMBO rounds.

Each cell returns a plain record: its id, wall seconds, simulated
evaluations completed (every trace, source RS included), and the output
the benchmark checks against ``reference.json``.
"""

from __future__ import annotations

from time import perf_counter

import plan
import tracing
from repro.experiments.harness import build_session
from repro.experiments.table4 import DEFAULT_BUDGET_SECONDS
from repro.kernels import get_kernel
from repro.machines import get_machine
from repro.orio.evaluator import OrioEvaluator
from repro.perf.simclock import SimClock
from repro.search.random_search import random_search
from repro.search.stream import SharedStream
from repro.transfer.smbo import smbo_search
from repro.transfer.surrogate import Surrogate


def _digests(traces: dict) -> dict[str, str]:
    return {name: trace.state_digest() for name, trace in traces.items()}


def table4_cell(spec: tuple) -> dict:
    """One Table IV RSb cell, built and judged as ``run_table4`` does.

    Module level so forked grid workers can run it; every call builds
    a fresh kernel, so the metrics cache starts cold.
    """
    problem, source, target, cell_seed = spec
    cell_id = plan.table4_cell_id(*spec)
    with tracing.cell_scope(cell_id):
        start = perf_counter()
        session = build_session(
            problem, source, target,
            seed=cell_seed, nmax=plan.TABLE4_NMAX, variants=("RSb",),
            budget_seconds=DEFAULT_BUDGET_SECONDS,
        )
        outcome = session.run()
        incomplete = (
            outcome.source_trace.exhausted_budget
            or outcome.rs.exhausted_budget
            or not outcome.rs.records
            or outcome.traces["RSb"].exhausted_budget
        )
        if incomplete:
            performance = search_time = None
            successful = False
        else:
            report = outcome.report("RSb")
            performance, search_time = report.performance, report.search_time
            successful = report.successful
        seconds = perf_counter() - start
    traces = {"RS(source)": outcome.source_trace, **outcome.traces}
    return {
        "id": cell_id,
        "cell": True,
        "seconds": seconds,
        "evals": sum(t.n_evaluations for t in traces.values()),
        "output": {
            "performance": performance,
            "search_time": search_time,
            "successful": successful,
            "digests": _digests(traces),
        },
    }


class SmboRounds:
    """``smbo-lu`` rounds on one LU kernel shared by every search of a run.

    A round is the source phase (RS on the source machine and the
    surrogate fit, not a cell) followed by two cells: SMBO cold and SMBO
    seeded with the source surrogate's best pool picks, each on a fresh
    evaluator, as ``run_search_comparison`` runs them.
    """

    def __init__(self) -> None:
        self.kernel = get_kernel(plan.SMBO_PROBLEM.lower())
        self.source = get_machine(plan.SMBO_SOURCE)
        self.target = get_machine(plan.SMBO_TARGET)

    def _search(self, cell_seed: int, surrogate) -> object:
        return smbo_search(
            OrioEvaluator(self.kernel, self.target, clock=SimClock()),
            self.kernel.space,
            nmax=plan.SMBO_NMAX,
            n_initial=max(5, plan.SMBO_NMAX // 10),
            pool_size=plan.SMBO_POOL,
            source_surrogate=surrogate,
            seed=cell_seed,
        )

    def run(self, cell_seed: int) -> list[dict]:
        records = []
        with tracing.cell_scope(plan.smbo_cell_id("source", cell_seed)):
            start = perf_counter()
            source_trace = random_search(
                OrioEvaluator(self.kernel, self.source, clock=SimClock()),
                SharedStream(self.kernel.space, seed=(plan.SMBO_PROBLEM, str(cell_seed))),
                nmax=plan.SMBO_NMAX,
            )
            surrogate = Surrogate(self.kernel.space).fit(source_trace.training_data())
            seconds = perf_counter() - start
        records.append({"id": plan.smbo_cell_id("source", cell_seed), "cell": False,
                        "seconds": seconds, "evals": source_trace.n_evaluations})
        for label, seed_from in (("SMBO-cold", None), ("SMBO-seeded", surrogate)):
            cell_id = plan.smbo_cell_id(label, cell_seed)
            with tracing.cell_scope(cell_id):
                start = perf_counter()
                trace = self._search(cell_seed, seed_from)
                seconds = perf_counter() - start
            traces = {"SMBO": trace}
            if seed_from is not None:
                traces["RS(source)"] = source_trace
            records.append({"id": cell_id, "cell": True, "seconds": seconds,
                            "evals": trace.n_evaluations,
                            "output": {"digests": _digests(traces)}})
        return records
