"""Structural interfaces of the search layer.

The search algorithms only ever *use* a surrogate (predict a batch,
charge its simulated cost) — they never construct one.  Declaring that
surface as a :class:`typing.Protocol` here breaks the runtime circular
import that previously forced ``pruning.py``/``biasing.py`` to hide
``from repro.transfer.surrogate import Surrogate`` behind
``TYPE_CHECKING`` blocks: ``repro.transfer`` imports the searches, so
the searches must not import ``repro.transfer``.  Now they import the
protocol from their own package and
:class:`repro.transfer.surrogate.Surrogate` satisfies it structurally.

The module also defines the component protocols of the
:class:`~repro.search.engine.SearchEngine` decomposition:

* a :class:`Proposer` walks a candidate source (a shared random
  stream, a model-ranked pool, a source-machine trace, a search
  technique, a refitted surrogate) and yields :class:`Proposal`\\ s;
* a :class:`Gate` decides which proposals are worth paying an
  evaluation for (accept-all, a predicted-runtime quantile cutoff, a
  source-runtime replay threshold);
* the engine crosses one of each with an evaluator and owns every
  shared concern: clock charging, budgets, failure recording, stream
  position accounting, and checkpoint/resume.

See ``docs/architecture.md`` for the full composition table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

from repro.search.result import SearchTrace
from repro.searchspace.space import Configuration

if TYPE_CHECKING:  # annotation-only; numpy is not a runtime dependency here
    import numpy as np

__all__ = [
    "SurrogateModel",
    "Clock",
    "Measurement",
    "Evaluator",
    "Proposal",
    "EngineContext",
    "Proposer",
    "Gate",
]


@runtime_checkable
class SurrogateModel(Protocol):
    """What the searches require of a performance model ``M``.

    :class:`repro.transfer.surrogate.Surrogate` is the canonical
    implementation; anything exposing this surface (a mock, a
    zero-overhead oracle, a remote model client) works the same.
    """

    fit_seconds: float  # simulated cost of the last fit, charged once

    def predict(self, configs: Sequence[Configuration]) -> "np.ndarray":
        """Predicted runtimes for a batch of configurations."""
        ...

    def predict_seconds(self, n: int) -> float:
        """Simulated wall time of predicting ``n`` configurations."""
        ...


class Clock(Protocol):
    """The simulated-time surface the engine charges against."""

    @property
    def now(self) -> float: ...

    @property
    def remaining(self) -> float: ...

    def advance(self, seconds: float) -> float: ...


class Measurement(Protocol):
    """One evaluation outcome (possibly degraded — see ``failed``)."""

    runtime_seconds: float


class Evaluator(Protocol):
    """The evaluation surface: measure a configuration, charge a clock."""

    clock: Clock

    def evaluate(self, config: Configuration) -> Measurement: ...


# ----------------------------------------------------------------------
# Engine components
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Proposal:
    """One candidate the proposer wants considered.

    ``predicted`` carries the score the proposer already knows for the
    candidate — a surrogate prediction for pool rankers, the *source*
    runtime for trace replays — so threshold gates can decide without
    recomputing (or re-charging) anything.
    """

    config: Configuration
    predicted: float | None = None


@dataclass
class EngineContext:
    """Everything a proposer/gate may need from the running engine."""

    evaluator: Evaluator
    clock: Clock
    trace: SearchTrace
    nmax: int
    name: str  # the algorithm label (also keys deterministic RNGs)
    resumed: bool = False  # restored from a checkpoint with progress?
    extra: dict = field(default_factory=dict)  # checkpoint extra payload


class Proposer(Protocol):
    """Walks one candidate source; the engine asks it for proposals.

    Lifecycle: ``restore`` (checkpoint state, even when empty) →
    ``setup`` (one-time work; simulated costs charged to ``ctx.clock``
    only when ``ctx.resumed`` is false, since a restored clock already
    paid) → ``propose_block`` per engine iteration and ``observe`` per
    evaluated candidate → ``state`` whenever a checkpoint is written.
    """

    def restore(self, position: int, ctx: EngineContext) -> None: ...

    def setup(self, ctx: EngineContext) -> None: ...

    def propose_block(self, ctx: EngineContext, count: int) -> list[Proposal]:
        """Up to ``count`` next candidates; empty when the source is
        exhausted.  Sequential sources (each candidate depends on the
        previous outcome) return at most one."""
        ...

    def rewind(self, count: int) -> None:
        """Take back the last ``count`` proposals of the latest block,
        which the engine did not consume.  The engine always consumes a
        block's first proposal, so a one-proposal block is never
        rewound."""
        ...

    def observe(
        self,
        ctx: EngineContext,
        proposal: Proposal,
        runtime: float,
        failed: bool,
        censored: bool,
    ) -> None:
        """Outcome feedback, delivered before the trace records it."""
        ...

    def state(self) -> dict:
        """JSON-serializable checkpoint payload (merged into ``extra``)."""
        ...

    def budget_break_skips_sync(self) -> bool:
        """Legacy quirk hook: whether a budget break right now ends the
        search *without* syncing ``total_elapsed`` to the clock."""
        ...


class Gate(Protocol):
    """Decides which proposals are worth an evaluation.

    ``admit`` may charge model-query time to ``ctx.clock`` (and may
    therefore raise ``BudgetExhaustedError``, which ends the search
    exactly like a budget-exhausted evaluation).
    """

    def setup(self, ctx: EngineContext) -> None: ...

    def admit(self, ctx: EngineContext, proposal: Proposal) -> bool: ...
