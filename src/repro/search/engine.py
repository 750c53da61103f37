"""The single search-evaluation loop behind every variant.

The paper's five algorithms (RS, RSp, RSb, RSpf, RSbf), the SMBO
model-based search, the warm-started techniques, and the OpenTuner-
style :class:`~repro.tuner.runner.TuningRun` are all one loop — walk a
candidate source, optionally gate each candidate by a predicted-runtime
threshold, pay for what you evaluate — that the repo used to implement
seven separate times.  :class:`SearchEngine` is that loop, written
once.  It owns every shared concern:

* **clock charging** — evaluation costs, model-query costs raised by
  gates, and the budget-wall remainder charge some variants make;
* **budgets** — the ``nmax`` evaluation budget, the optional proposal
  cap (RSp's ``max_stream_positions``), and
  :class:`~repro.errors.BudgetExhaustedError` from the simulated clock;
* **failure recording** — degraded measurements and recoverable
  :class:`~repro.errors.EvaluationFailure`\\ s become failed/censored
  trace records at their stream position (:func:`record_measurement` /
  :func:`record_failure` live here and the engine is their only
  caller), so common-random-numbers alignment survives faults;
* **stream position accounting** — proposals consumed, skips since the
  last record, ``stream_positions`` metadata;
* **checkpoint/resume** — periodic and final
  :class:`~repro.reliability.checkpoint.CheckpointManager` snapshots,
  restore of the trace/clock/reliability state, and proposer/gate
  state threading through the snapshot's ``extra`` payload.

What *varies* between algorithms is factored into two small
components — a :class:`~repro.search.protocols.Proposer` crossed with a
:class:`~repro.search.protocols.Gate` (see
:mod:`repro.search.proposers` / :mod:`repro.search.gates`) — plus a few
behavioral flags preserving each legacy loop's exact accounting, so
engine-backed variants produce bit-identical traces to the code they
replaced (enforced by ``tests/search/test_golden_equivalence.py``
against committed pre-refactor fixtures).

New compositions cost one :func:`compose` call instead of an eighth
hand-rolled loop; the prune-then-bias hybrid
(:func:`~repro.search.biasing.hybrid_search`) is the first.
"""

from __future__ import annotations

from repro.errors import BudgetExhaustedError, EvaluationFailure, SearchError
from repro.ml import _native
from repro.search.protocols import EngineContext, Gate, Proposer
from repro.search.result import EvaluationRecord, SearchTrace
from repro.searchspace.space import SearchSpace
from repro.spec import UNSET, TunerSpec, resolve_spec

__all__ = [
    "SearchEngine",
    "compose",
    "record_measurement",
    "record_failure",
]


def record_measurement(trace: SearchTrace, config, measurement, elapsed: float,
                       skipped_before: int = 0) -> None:
    """Append one evaluation outcome — successful or degraded — to a trace.

    A measurement exposing ``failed=True`` (e.g. a
    :class:`repro.reliability.resilient.FailedMeasurement`) is recorded
    distinctly from successes; it occupies its position in the shared
    stream so common-random-numbers comparisons stay aligned, but the
    trace never counts it as a best result.
    """
    trace.add(
        EvaluationRecord(
            config=config,
            runtime=measurement.runtime_seconds,
            elapsed=elapsed,
            skipped_before=skipped_before,
            failed=bool(getattr(measurement, "failed", False)),
            censored=bool(getattr(measurement, "censored", False)),
        )
    )


def record_failure(trace: SearchTrace, config, exc: EvaluationFailure,
                   elapsed: float, skipped_before: int = 0) -> None:
    """Record an unhandled evaluation failure as a failed trace entry.

    Used when the evaluator is not wrapped in a
    :class:`~repro.reliability.resilient.ResilientEvaluator`: the
    search itself censors the configuration (a timeout's cap when
    available, ``inf`` otherwise) instead of crashing.
    """
    censored_at = getattr(exc, "censored_at", None)
    trace.add(
        EvaluationRecord(
            config=config,
            runtime=float("inf") if censored_at is None else float(censored_at),
            elapsed=elapsed,
            skipped_before=skipped_before,
            failed=True,
            censored=censored_at is not None,
        )
    )


class SearchEngine:
    """One search = evaluator x proposer x gate, under one accounting.

    Parameters
    ----------
    evaluator:
        The :class:`~repro.search.protocols.Evaluator` whose ``clock``
        the whole search charges.
    proposer:
        The candidate source.
    gate:
        Admission filter; ``None`` admits everything (RS, RSb, the
        techniques).
    nmax:
        Evaluation budget: recorded evaluations, successful or failed.
    name:
        Algorithm label on the trace (and in deterministic RNG keys).
    space:
        The search space (checkpoint records rebuild from it).
    stream:
        The :class:`~repro.search.stream.SharedStream` to re-materialize
        on resume, when the proposer walks one.
    position_cap:
        Hard cap on proposals consumed (RSp's ``max_stream_positions``);
        ``None`` leaves the proposer to exhaust itself.
    failure_mode:
        ``"record"`` turns recoverable evaluation failures into failed
        trace records; ``"raise"`` propagates them (SMBO and the
        technique runs predate failure-aware traces and keep their
        historical contract).
    setup_abort_elapsed:
        Whether a budget wall hit during setup syncs ``total_elapsed``
        to the clock before returning (the stream searches do; SMBO's
        legacy accounting does not).
    charge_remainder_on_exhaust:
        Whether a budget wall hit mid-evaluation charges the remaining
        budget before ending — the partial work until the wall was real
        (:class:`~repro.tuner.runner.TuningRun` semantics).
    rewind_position_on_budget_break:
        Whether the proposal in flight when the budget died is handed
        back, so a resume with a fresh budget retries it.  RSp
        historically advances past it; everything else rewinds.
    stream_positions_metadata:
        Record the proposals-consumed count as
        ``trace.metadata["stream_positions"]`` (RSp's diagnostics).
    checkpoint:
        Optional :class:`~repro.reliability.checkpoint.CheckpointManager`;
        when its file exists the search resumes from it.
    batch_size:
        Ask the proposer for blocks of up to this many candidates
        (``None`` means blocks of one).  Purely an execution strategy:
        every candidate is still gated, evaluated, and recorded one at
        a time in stream order — every clock charge in the same order,
        the same positions, the same records — so traces and checkpoint
        bytes are identical for every batch size (the golden-trace
        suite enforces this).  Sequential sources (SMBO's model phase,
        the techniques, an armed guard) return one candidate per block
        whatever the size; proposers carrying checkpoint ``state()``
        take blocks of one under a checkpoint manager, because a
        mid-block snapshot would capture over-consumed positions.
    """

    def __init__(
        self,
        evaluator,
        proposer: Proposer,
        gate: Gate | None = None,
        *,
        nmax: int,
        name: str,
        space: SearchSpace,
        stream=None,
        position_cap: int | None = None,
        failure_mode: str = "record",
        setup_abort_elapsed: bool = True,
        charge_remainder_on_exhaust: bool = False,
        rewind_position_on_budget_break: bool = True,
        stream_positions_metadata: bool = False,
        checkpoint=None,
        batch_size=UNSET,
        spec: TunerSpec | None = None,
    ) -> None:
        # ``batch_size`` beats ``spec.engine.batch_size`` beats the
        # historical default (None — blocks of one).  The sentinel
        # keeps explicit ``batch_size=None`` meaning "blocks of one",
        # exactly as before the spec layer existed.
        if batch_size is UNSET:
            batch_size = (
                resolve_spec(spec).engine.batch_size
                if spec is not None else None
            )
        if nmax < 1:
            raise SearchError(f"nmax must be >= 1, got {nmax}")
        if failure_mode not in ("record", "raise"):
            raise SearchError(
                f"failure_mode must be 'record' or 'raise', got {failure_mode!r}"
            )
        if batch_size is not None and batch_size < 1:
            raise SearchError(f"batch_size must be >= 1, got {batch_size}")
        self.evaluator = evaluator
        self.proposer = proposer
        self.gate = gate
        self.nmax = nmax
        self.name = name
        self.space = space
        self.stream = stream
        self.position_cap = position_cap
        self.failure_mode = failure_mode
        self.setup_abort_elapsed = setup_abort_elapsed
        self.charge_remainder_on_exhaust = charge_remainder_on_exhaust
        self.rewind_position_on_budget_break = rewind_position_on_budget_break
        self.stream_positions_metadata = stream_positions_metadata
        self.checkpoint = checkpoint
        self.batch_size = batch_size

    # ------------------------------------------------------------------
    def diagnostics(self) -> dict:
        """Execution-mode report: the configured batch size and the
        native-kernel probe outcome (see
        :func:`repro.ml._native.diagnostics`).  None of it affects
        results — only throughput."""
        return {
            "batch_size": self.batch_size,
            "native": _native.diagnostics(),
        }

    def _extra(self, skipped: int) -> dict:
        """The checkpoint ``extra`` payload: proposer state, plus the
        pending-skip counter when an admission gate is in play."""
        extra = dict(self.proposer.state())
        if self.gate is not None:
            extra["skipped"] = skipped
        return extra

    def run(self) -> SearchTrace:
        """Run the composed search to its budget; returns the trace.

        Proposals come up to ``batch_size`` at a time from
        ``propose_block``; each is gated, evaluated, and recorded in
        stream order, so the clock charges, positions, and records do
        not depend on the block size.  Every early exit (budget wall,
        nmax, failure re-raise) hands strictly unconsumed proposals
        back via ``rewind``, so checkpoint bytes do not either.
        """
        proposer = self.proposer
        gate = self.gate
        evaluator = self.evaluator
        checkpoint = self.checkpoint
        trace = SearchTrace(algorithm=self.name)
        clock = evaluator.clock
        position = 0
        extra: dict = {}
        if checkpoint is not None:
            position, extra = checkpoint.restore(
                trace, self.space, evaluator=evaluator, stream=self.stream
            )
        ctx = EngineContext(
            evaluator=evaluator,
            clock=clock,
            trace=trace,
            nmax=self.nmax,
            name=self.name,
            resumed=position > 0,
            extra=extra,
        )
        skipped = int(extra.get("skipped", 0))
        proposer.restore(position, ctx)

        # One-time setup (model fits, pool scoring, cutoffs).  A budget
        # wall here ends the search before it proposed anything.
        try:
            proposer.setup(ctx)
            if gate is not None:
                gate.setup(ctx)
        except BudgetExhaustedError:
            trace.exhausted_budget = True
            if self.setup_abort_elapsed:
                trace.total_elapsed = max(trace.total_elapsed, clock.now)
            return trace

        # A mid-block periodic snapshot embeds proposer.state();
        # proposers that carry real state there (the guard wrapper, the
        # technique database) would checkpoint over-consumed positions,
        # so under a checkpoint manager they take blocks of one.
        batch = self.batch_size or 1
        if checkpoint is not None and proposer.state():
            batch = 1
        sync_elapsed = True
        stop = False
        while not stop and trace.n_evaluations < self.nmax and (
            self.position_cap is None or position < self.position_cap
        ):
            want = batch
            if self.position_cap is not None:
                want = min(want, self.position_cap - position)
            if gate is None:
                # Ungated searches record every proposal, so the block
                # never needs to overshoot the evaluation budget.
                want = min(want, self.nmax - trace.n_evaluations)
            block = proposer.propose_block(ctx, want)
            if not block:
                break  # source exhausted
            consumed = 0
            for proposal in block:
                if trace.n_evaluations >= self.nmax:
                    break
                position += 1
                consumed += 1
                try:
                    if gate is not None and not gate.admit(ctx, proposal):
                        skipped += 1
                        continue
                    measurement = evaluator.evaluate(proposal.config)
                except BudgetExhaustedError:
                    if self.rewind_position_on_budget_break:
                        position -= 1
                    if self.charge_remainder_on_exhaust and clock.remaining > 0:
                        # The budget died mid-evaluation: the partial
                        # work until the wall was real, so charge the
                        # remainder instead of silently dropping it.
                        clock.advance(clock.remaining)
                    trace.exhausted_budget = True
                    sync_elapsed = not proposer.budget_break_skips_sync()
                    stop = True
                    break
                except EvaluationFailure as exc:
                    if self.failure_mode == "raise":
                        if consumed < len(block):
                            proposer.rewind(len(block) - consumed)
                        raise
                    censored_at = getattr(exc, "censored_at", None)
                    proposer.observe(
                        ctx,
                        proposal,
                        float("inf") if censored_at is None else float(censored_at),
                        True,
                        censored_at is not None,
                    )
                    record_failure(trace, proposal.config, exc, clock.now,
                                   skipped_before=skipped)
                else:
                    proposer.observe(
                        ctx,
                        proposal,
                        measurement.runtime_seconds,
                        bool(getattr(measurement, "failed", False)),
                        bool(getattr(measurement, "censored", False)),
                    )
                    record_measurement(trace, proposal.config, measurement,
                                       clock.now, skipped_before=skipped)
                skipped = 0
                if checkpoint is not None:
                    checkpoint.maybe_save(
                        trace, position=position, evaluator=evaluator,
                        extra=self._extra(skipped),
                    )
            if consumed < len(block):
                proposer.rewind(len(block) - consumed)

        if self.stream_positions_metadata:
            trace.metadata["stream_positions"] = position
        if sync_elapsed:
            trace.total_elapsed = max(trace.total_elapsed, clock.now)
        if checkpoint is not None:
            checkpoint.save(
                trace, position=position, evaluator=evaluator,
                extra=self._extra(skipped),
            )
        return trace


def compose(
    evaluator,
    proposer: Proposer,
    gate: Gate | None = None,
    **options,
) -> SearchEngine:
    """Compose a search from parts; returns the configured engine.

    The decomposition's public construction point: any proposer crossed
    with any gate yields a runnable search under the full shared
    accounting.  ``options`` are :class:`SearchEngine` keyword options
    (``nmax``, ``name``, ``space``, ``checkpoint``, ...).

    >>> proposer = PoolRankProposer(space, surrogate)
    >>> engine = compose(evaluator, proposer,
    ...                  PredictionCutoffGate(proposer, delta_percent=20.0),
    ...                  nmax=100, name="RSpb", space=space)
    >>> trace = engine.run()
    """
    return SearchEngine(evaluator, proposer, gate, **options)
