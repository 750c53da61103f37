"""Random search with the pruning strategy (Algorithm 1, RSp).

Phase 1: fit the surrogate on the source data, sample a pool of ``N``
configurations, predict their runtimes, and set the cutoff ``∆`` to the
``δ``-quantile of those predictions (δ = 20% in the paper).

Phase 2: walk the (shared) random stream; predict each configuration's
runtime; evaluate it on the target only when the prediction is below
``∆``.  Model fitting/prediction time is charged to the search clock.

Composition: a surrogate-carrying :class:`StreamProposer` crossed with
a :class:`QuantileGate` under the shared
:class:`~repro.search.engine.SearchEngine` accounting.
"""

from __future__ import annotations

from repro.errors import SearchError
from repro.search.engine import SearchEngine
from repro.search.gates import QuantileGate
from repro.search.guarded import GuardedGate, GuardedProposer, build_guard
from repro.search.proposers import StreamProposer
from repro.search.protocols import SurrogateModel
from repro.search.result import SearchTrace
from repro.search.stream import SharedStream
from repro.spec import UNSET, TunerSpec, resolve_spec

__all__ = ["pruned_search"]


def pruned_search(
    evaluator,
    stream: SharedStream,
    surrogate: SurrogateModel,
    nmax: int = 100,
    pool_size: int | None = None,
    delta_percent: float | None = None,
    max_stream_positions: int | None = None,
    prefetch: int | None = None,
    name: str = "RSp",
    checkpoint=None,
    guard=UNSET,
    batch_size=UNSET,
    spec: TunerSpec | None = None,
) -> SearchTrace:
    """Run RSp for at most ``nmax`` evaluations.

    ``surrogate`` must already be fitted on the source machine's data
    (its fit time is charged here, since the fit happens as part of the
    target-machine tuning session).  ``max_stream_positions`` bounds
    how far past the budget the stream may be walked when almost
    everything is pruned (default: ``50 * nmax``).

    ``prefetch`` batches the per-position model queries: predictions
    for the next chunk of stream configurations are computed in one
    vectorized call, while the simulated clock is still charged
    per-position exactly as before — per-row predictions are
    independent, so traces are bit-identical for every ``prefetch``.

    Failed evaluations (recoverable
    :class:`~repro.errors.EvaluationFailure`, or degraded measurements
    from a resilient evaluator) are recorded as failed entries at their
    stream position, so CRN alignment with RS survives faults.
    ``checkpoint`` optionally resumes an interrupted run; the pruning
    cutoff is recomputed deterministically on resume without re-charging
    the model-fit time.

    ``guard`` (a :class:`repro.transfer.guard.GuardPolicy` or a
    pre-built guard instance) arms negative-transfer monitoring: the
    surrogate is scored against target observations as they accrue,
    the pruning quantile widens under suspicion (with occasional
    audits of would-be-pruned configurations), and a revoked model
    degrades the run to plain RS on the same stream.  ``guard=None``
    and ``GuardPolicy.disabled()`` are byte-identical to an unguarded
    run.

    ``batch_size`` is the engine's proposal block size (``None`` for
    blocks of one); traces are bit-identical either way — see
    :class:`~repro.search.engine.SearchEngine`.

    ``spec`` (a :class:`repro.spec.TunerSpec`) supplies defaults for
    every knob not passed explicitly — ``pool_size``,
    ``delta_percent``, ``prefetch``, ``guard``, ``batch_size`` — and
    the default spec reproduces historical behavior exactly.
    """
    spec = resolve_spec(spec)
    if pool_size is None:
        pool_size = spec.pool.size
    if delta_percent is None:
        delta_percent = spec.gate.delta_percent
    if prefetch is None:
        prefetch = spec.pool.prefetch
    if guard is UNSET:
        guard = spec.guard
    if batch_size is UNSET:
        batch_size = spec.engine.batch_size
    if nmax < 1:
        raise SearchError(f"nmax must be >= 1, got {nmax}")
    if not 0.0 < delta_percent < 100.0:
        raise SearchError(f"delta_percent must be in (0, 100), got {delta_percent}")
    if pool_size < 10:
        raise SearchError(f"pool_size must be >= 10, got {pool_size}")
    if prefetch < 1:
        raise SearchError(f"prefetch must be >= 1, got {prefetch}")
    if max_stream_positions is None:
        max_stream_positions = 50 * nmax

    space = stream.space
    proposer = StreamProposer(
        stream,
        surrogate=surrogate,
        prefetch=prefetch,
        position_cap=max_stream_positions,
    )
    gate = QuantileGate(
        space, surrogate, delta_percent=delta_percent, pool_size=pool_size
    )
    guard_obj = build_guard(guard, surrogate)
    if guard_obj is not None:
        # RSp's proposer already walks the shared stream, so no
        # separate fallback source: REVOKED simply stops paying for
        # (and acting on) model queries.
        proposer = GuardedProposer(proposer, guard_obj)
        gate = GuardedGate(gate, guard_obj)
    engine = SearchEngine(
        evaluator,
        proposer,
        gate,
        nmax=nmax,
        name=name,
        space=space,
        stream=stream,
        position_cap=max_stream_positions,
        # A budget wall during the gate's model query historically
        # advanced past the in-flight position rather than handing it
        # back for a resume to retry.
        rewind_position_on_budget_break=False,
        stream_positions_metadata=True,
        checkpoint=checkpoint,
        batch_size=batch_size,
    )
    return engine.run()
