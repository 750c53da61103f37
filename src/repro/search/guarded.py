"""Guard wrappers: model-health intervention as a composition layer.

A guarded search is an ordinary :class:`~repro.search.engine.SearchEngine`
composition whose proposer and gate are wrapped.  The wrappers hold no
policy of their own — they ask a *guard* (duck-typed; the canonical
implementation is :class:`repro.transfer.guard.ModelGuard`, which this
module deliberately does not import, keeping the search layer free of
``repro.transfer``) what state the model is in and translate the answer
into search behavior:

========  ==========================================================
state      behavior
========  ==========================================================
trusted    byte-identical delegation to the wrapped proposer/gate —
           a guard that never leaves this state leaves no mark on
           the trace (enforced by the golden-trace suite).
suspect    hedge: :class:`GuardedProposer` interleaves the model's
           ranking with draws from the shared stream (flattening the
           bias ordering), :class:`GuardedGate` widens the pruning
           quantile by the policy's ``widen_factor`` and promotes
           every ``audit_every``-th still-rejected proposal to an
           *audit* evaluation — paid evidence about the region the
           model wants to discard.
revoked    fall back to plain RS: the proposer serves the shared
           stream in order and the gate admits everything without
           charging model queries, so the remainder of the run is
           exactly what plain random search would have done on the
           same stream under common random numbers.
========  ==========================================================

The guard's verdict state rides inside the proposer's checkpoint
``state()`` payload, so a killed guarded run resumes bit-identically —
including in-flight audits and the SUSPECT interleave phase.
"""

from __future__ import annotations

from repro.errors import SearchError
from repro.search.protocols import EngineContext, Proposal
from repro.search.stream import SharedStream

__all__ = ["GuardedProposer", "GuardedGate", "build_guard"]

# The guard-state contract (mirrors repro.transfer.guard.GUARD_STATES;
# string literals keep this module import-free of the transfer layer).
_TRUSTED = "trusted"
_SUSPECT = "suspect"
_REVOKED = "revoked"


def build_guard(guard, surrogate):
    """Normalize a factory's ``guard=`` argument to a guard instance.

    Accepts ``None`` (unguarded), a policy-like object exposing
    ``build(surrogate)`` (e.g. ``repro.transfer.guard.GuardPolicy`` —
    a fresh per-run guard is built around the search's surrogate), or
    an already-built guard instance, which is used as-is.
    """
    if guard is None:
        return None
    build = getattr(guard, "build", None)
    if callable(build):
        guard = build(surrogate)
    for attr in ("enabled", "state", "observe", "state_dict", "load_state"):
        if not hasattr(guard, attr):
            raise SearchError(
                f"guard object {type(guard).__name__} lacks {attr!r}; pass a "
                "GuardPolicy, a ModelGuard, or None"
            )
    return guard


class GuardedProposer:
    """Wrap a proposer with guard-directed fallback to the shared stream.

    ``stream`` is the plain-RS candidate source used while the guard
    distrusts the model (required for pool-ranking proposers, whose
    own source *is* the model; stream-walking proposers like RSp's
    pass ``None`` and simply keep walking their stream).  Positions
    consumed from the wrapped proposer and from the fallback stream
    are tracked separately and checkpointed, so a resume hands each
    source back exactly the progress it made.
    """

    def __init__(self, inner, guard, stream: SharedStream | None = None) -> None:
        self.inner = inner
        self.guard = guard
        self.stream = stream
        self._inner_consumed = 0
        self._fallback_consumed = 0
        self._flip = False
        self._last_origin = "inner"

    # -- lifecycle -----------------------------------------------------
    def restore(self, position: int, ctx: EngineContext) -> None:
        extra = ctx.extra
        saved = extra.get("guard_positions") if self.guard.enabled else None
        if self.guard.enabled and extra.get("guard") is not None:
            self.guard.load_state(extra["guard"])
        if saved is None:
            self._inner_consumed = position
            self._fallback_consumed = 0
            self._flip = False
            self._last_origin = "inner"
            self.inner.restore(position, ctx)
            return
        inner_pos = int(saved["inner"])
        fallback_pos = int(saved["fallback"])
        self._flip = bool(saved["flip"])
        self._last_origin = saved["last_origin"]
        if inner_pos + fallback_pos == position + 1:
            # The engine rewound the in-flight proposal at a budget
            # wall; hand it back to whichever source produced it.
            if self._last_origin == "fallback" and fallback_pos > 0:
                fallback_pos -= 1
            else:
                inner_pos -= 1
        self._inner_consumed = inner_pos
        self._fallback_consumed = fallback_pos
        self.inner.restore(inner_pos, ctx)

    def setup(self, ctx: EngineContext) -> None:
        self.inner.setup(ctx)

    # -- proposing -----------------------------------------------------
    def propose_block(self, ctx: EngineContext, count: int) -> list[Proposal]:
        """Blocks only while the guard cannot intervene.

        With the guard armed and a fallback stream present, any block
        could straddle a TRUSTED -> SUSPECT/REVOKED transition — and a
        rewind could not un-count ``note_fallback_proposal`` calls
        already serialized into the guard's checkpoint state — so those
        runs propose one candidate per call.  With no guard (or no
        stream, where every state delegates to the inner proposer
        anyway), delegation is byte-identical.
        """
        guard = self.guard
        if not guard.enabled or self.stream is None:
            return self._propose_inner(ctx, count)
        if guard.state == _TRUSTED:
            return self._propose_inner(ctx, 1)
        if guard.state == _REVOKED:
            return self._propose_fallback()
        # SUSPECT: alternate model ranking with plain stream draws —
        # the bias ordering is flattened, not abandoned.
        self._flip = not self._flip
        if self._flip:
            return self._propose_fallback()
        return self._propose_inner(ctx, 1) or self._propose_fallback()

    def _propose_inner(self, ctx: EngineContext, count: int) -> list[Proposal]:
        block = self.inner.propose_block(ctx, count)
        if block:
            self._inner_consumed += len(block)
            self._last_origin = "inner"
        return block

    def _propose_fallback(self) -> list[Proposal]:
        config = self.stream[self._fallback_consumed]
        self._fallback_consumed += 1
        self._last_origin = "fallback"
        self.guard.note_fallback_proposal()
        return [Proposal(config)]

    def rewind(self, count: int) -> None:
        self.inner.rewind(count)
        self._inner_consumed -= count

    # -- feedback / checkpointing --------------------------------------
    def observe(self, ctx: EngineContext, proposal: Proposal, runtime: float,
                failed: bool, censored: bool) -> None:
        if self.guard.enabled:
            self.guard.observe(ctx, proposal, runtime, failed)
        self.inner.observe(ctx, proposal, runtime, failed, censored)

    def state(self) -> dict:
        state = dict(self.inner.state())
        if self.guard.enabled:
            state["guard"] = self.guard.state_dict()
            state["guard_positions"] = {
                "inner": self._inner_consumed,
                "fallback": self._fallback_consumed,
                "flip": self._flip,
                "last_origin": self._last_origin,
            }
        return state

    def budget_break_skips_sync(self) -> bool:
        return self.inner.budget_break_skips_sync()


class GuardedGate:
    """Wrap an admission gate with guard-directed leniency.

    TRUSTED delegates untouched (same charges, same verdicts).
    SUSPECT widens the inner gate's quantile via its ``cutoff_at``
    hook — reusing the pool predictions already paid for — and
    promotes every ``audit_every``-th still-rejected proposal to an
    audit evaluation.  REVOKED admits everything without consulting
    (or charging) the model, completing the fall-back to plain RS.
    Fallback-stream proposals carry no prediction and are always
    admitted — there is nothing left to prune them with.
    """

    def __init__(self, inner, guard) -> None:
        self.inner = inner
        self.guard = guard

    def setup(self, ctx: EngineContext) -> None:
        self.inner.setup(ctx)

    def admit(self, ctx: EngineContext, proposal: Proposal) -> bool:
        guard = self.guard
        if not guard.enabled:
            return self.inner.admit(ctx, proposal)
        if guard.state == _REVOKED:
            return True
        if proposal.predicted is None:
            return True
        admitted = self.inner.admit(ctx, proposal)
        if admitted or guard.state != _SUSPECT:
            return admitted
        widened = self._widened_cutoff()
        if widened is not None and not (proposal.predicted >= widened):
            guard.note_widened_admit()
            return True
        if guard.audit_due():
            guard.begin_audit(proposal)
            return True
        return False

    def _widened_cutoff(self) -> float | None:
        cutoff_at = getattr(self.inner, "cutoff_at", None)
        fraction = getattr(self.inner, "delta_fraction", None)
        if cutoff_at is None or fraction is None:
            return None
        widened = min(fraction * self.guard.policy.widen_factor, 0.95)
        return cutoff_at(widened)
