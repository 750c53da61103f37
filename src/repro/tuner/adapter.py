"""Manipulator-technique adapter: techniques as an engine Proposer.

Bridges the OpenTuner-style stack (a bound
:class:`~repro.tuner.technique.SearchTechnique` proposing into a shared
:class:`~repro.tuner.database.ResultsDatabase`) to the
:class:`~repro.search.engine.SearchEngine` loop.  The adapter owns
everything technique-specific — the results cache (re-proposals of
measured configurations cost nothing, as in OpenTuner), the stall guard
that ends a run when a technique converges onto already-measured
configurations, failure-penalty feedback, database bookkeeping for
checkpoints, and the optional surrogate warm-start seed phase — while
the engine owns clocks, budgets, and trace recording.

This module lives in ``tuner/`` rather than next to the other proposers
because the dependency points one way: the tuner layer imports the
search layer (``runner`` → ``engine``), never the reverse.
"""

from __future__ import annotations

import numpy as np

from repro.search.protocols import EngineContext, Proposal, SurrogateModel
from repro.search.proposers import BaseProposer
from repro.searchspace.space import SearchSpace
from repro.tuner.database import Result, ResultsDatabase
from repro.tuner.technique import SearchTechnique
from repro.utils.rng import spawn_rng

__all__ = ["TechniqueProposer"]


class TechniqueProposer(BaseProposer):
    """Drive a bound search technique as the engine's candidate source.

    ``iteration_mode`` selects how the database's ``iteration`` field is
    stamped — ``"count"`` counts every ``technique.propose()`` call
    including cache hits (:class:`~repro.tuner.runner.TuningRun`'s
    historical convention), ``"trace"`` stamps the trace's evaluation
    count (``warm_started_search``'s convention).

    With ``failure_feedback_factor`` set, failed evaluations feed the
    technique a finite penalty (the censored bound when available,
    otherwise ``factor ×`` the worst value measured so far) so it steers
    away from the failing region; without it, the raw runtime is fed
    back unchanged.

    ``seed_evaluations > 0`` prepends a surrogate warm-start phase: the
    model's best ``seed_evaluations`` pool picks are proposed first
    (fit and pool-scoring time charged in setup), each result fed to
    the technique before it takes over.
    """

    def __init__(
        self,
        technique: SearchTechnique,
        database: ResultsDatabase,
        space: SearchSpace,
        *,
        result_label: str,
        failure_feedback_factor: float | None = None,
        iteration_mode: str = "count",
        surrogate: SurrogateModel | None = None,
        pool_size: int = 10_000,
        seed_evaluations: int = 0,
        rng_label: str = "warm-start-pool",
    ) -> None:
        self.technique = technique
        self.database = database
        self.space = space
        self.result_label = result_label
        self.failure_feedback_factor = failure_feedback_factor
        self.iteration_mode = iteration_mode
        self.surrogate = surrogate
        self.pool_size = pool_size
        self.seed_evaluations = seed_evaluations
        self.rng_label = rng_label
        self._iteration = 0
        self._stall = 0
        self._seeds: list = []
        self._last_from_seed = False

    def restore(self, position: int, ctx: EngineContext) -> None:
        self._iteration = 0
        self._stall = 0
        # Replay the checkpointed database as feedback so the technique
        # regains its knowledge; the cache makes re-proposals free.  A
        # stateful technique's internal RNG is *not* restored — the
        # continuation explores from rebuilt knowledge rather than
        # replaying the interrupted run bit-for-bit.
        for row in ctx.extra.get("database", []):
            config = self.space.config_at(int(row["config"]))
            result = Result(
                config=config,
                value=float(row["value"]),
                technique=row["technique"],
                elapsed=float(row["elapsed"]),
                iteration=int(row["iteration"]),
            )
            self.database.add(result)
            self.technique.feedback(config, result.value)

    def setup(self, ctx: EngineContext) -> None:
        if self.seed_evaluations <= 0:
            return
        clock = ctx.clock
        clock.advance(self.surrogate.fit_seconds)
        rng = spawn_rng(self.rng_label, self.space.name, ctx.name)
        pool = self.space.sample(rng, min(self.pool_size, self.space.cardinality))
        predictions = self.surrogate.predict(pool)
        clock.advance(self.surrogate.predict_seconds(len(pool)))
        order = np.argsort(predictions, kind="stable")
        self._seeds = [
            pool[int(i)] for i in order[: min(self.seed_evaluations, ctx.nmax)]
        ]

    def propose_block(self, ctx: EngineContext, count: int) -> list[Proposal]:
        """One candidate per call (each depends on the last feedback);
        empty once the technique converged onto measured configs."""
        while self._seeds:
            config = self._seeds.pop(0)
            cached = self.database.lookup(config)
            if cached is not None:
                # A duplicate pool pick: feed the remembered value back
                # and consume the seed without re-measuring.
                self.technique.feedback(config, cached.value)
                continue
            self._last_from_seed = True
            return [Proposal(config)]
        self._last_from_seed = False
        while True:
            config = self.technique.propose()
            self._iteration += 1
            cached = self.database.lookup(config)
            if cached is not None:
                # Feed the remembered value back; costs no search time.
                self.technique.feedback(config, cached.value)
                self._stall += 1
                if self._stall > 50 * ctx.nmax:
                    return []  # technique converged onto measured configs
                continue
            self._stall = 0
            return [Proposal(config)]

    def observe(self, ctx: EngineContext, proposal: Proposal, runtime: float,
                failed: bool, censored: bool) -> None:
        if failed and self.failure_feedback_factor is not None:
            # A censored runtime (timeout cap) is already a usable lower
            # bound; an unbounded failure is penalized relative to the
            # worst measurement seen so far.
            if censored:
                feedback = runtime
            else:
                worst = max(
                    (r.value for r in self.database.results()), default=1.0
                )
                feedback = self.failure_feedback_factor * worst
        else:
            feedback = runtime
        iteration = (
            self._iteration if self.iteration_mode == "count"
            else ctx.trace.n_evaluations
        )
        self.database.add(
            Result(
                config=proposal.config,
                value=feedback,
                technique=self.result_label,
                elapsed=ctx.clock.now,
                iteration=iteration,
            )
        )
        self.technique.feedback(proposal.config, feedback)

    def state(self) -> dict:
        return {
            "database": [
                {
                    "config": r.config.index,
                    "value": r.value,
                    "technique": r.technique,
                    "elapsed": r.elapsed,
                    "iteration": r.iteration,
                }
                for r in self.database.results()
            ]
        }

    def budget_break_skips_sync(self) -> bool:
        # Legacy quirk: a budget wall while consuming warm-start seeds
        # ends the search without syncing total_elapsed to the clock.
        return self._last_from_seed
