"""Candidate sources for the :class:`~repro.search.engine.SearchEngine`.

Each proposer walks one kind of candidate source and yields
:class:`~repro.search.protocols.Proposal`\\ s to the engine:

* :class:`StreamProposer` — the shared random stream, in order (RS;
  with a surrogate attached it also carries per-position predictions
  for RSp's quantile gate, prefetched in vectorized chunks);
* :class:`PoolRankProposer` — a surrogate-scored pool in ascending
  order of predicted runtime (RSb, and the gated hybrid RSpb);
* :class:`ReplayProposer` — the source machine's evaluated
  configurations, in source order or sorted by source runtime
  (RSpf / RSbf);
* :class:`SMBOProposer` — an initial design followed by
  acquisition-maximizing candidates from a surrogate refit on the
  target observations (SMBO, optionally transfer-seeded).

The manipulator-technique adapter (GA, annealing, PSO, the AUC bandit,
...) lives in :mod:`repro.tuner.adapter` — the tuner layer imports the
search layer, never the reverse.

Simulated model costs are charged exactly where the pre-engine loops
charged them; the golden-trace suite holds every proposer to
bit-identical behavior.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.ml import _native
from repro.ml.forest import RandomForestRegressor
from repro.search.protocols import (
    EngineContext,
    Proposal,
    SurrogateModel,
)
from repro.search.stream import SharedStream
from repro.searchspace.encoding import encode_cached, encoding_cache
from repro.searchspace.space import Configuration, SearchSpace
from repro.utils.rng import spawn_rng

__all__ = [
    "BaseProposer",
    "StreamProposer",
    "PoolRankProposer",
    "ReplayProposer",
    "SMBOProposer",
]

_SQRT2 = math.sqrt(2.0)


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.vectorize(math.erf)(z / _SQRT2))


def _normal_pdf(z: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _expected_improvement(mu: np.ndarray, sigma: np.ndarray, best: float) -> np.ndarray:
    """EI for minimization in log space."""
    sigma = np.maximum(sigma, 1e-9)
    z = (best - mu) / sigma
    return (best - mu) * _normal_cdf(z) + sigma * _normal_pdf(z)


class BaseProposer:
    """No-op lifecycle defaults; subclasses override what they need."""

    def restore(self, position: int, ctx: EngineContext) -> None:
        pass

    def setup(self, ctx: EngineContext) -> None:
        pass

    def observe(self, ctx: EngineContext, proposal: Proposal, runtime: float,
                failed: bool, censored: bool) -> None:
        pass

    def state(self) -> dict:
        return {}

    def budget_break_skips_sync(self) -> bool:
        return False


class StreamProposer(BaseProposer):
    """Walk a :class:`~repro.search.stream.SharedStream` in order.

    Without a surrogate this is RS's candidate source.  With one, each
    proposal carries the surrogate's runtime prediction for its stream
    position (RSp): predictions for the next ``prefetch`` positions are
    computed in one vectorized call, while the *clock* is still charged
    one query at a time by the gate — per-row predictions are
    independent, so traces are bit-identical for every ``prefetch``.
    """

    def __init__(
        self,
        stream: SharedStream,
        surrogate: SurrogateModel | None = None,
        prefetch: int = 256,
        position_cap: int | None = None,
    ) -> None:
        self.stream = stream
        self.surrogate = surrogate
        self.prefetch = prefetch
        self.position_cap = position_cap
        self._position = 0
        self._buffered = np.empty(0)
        self._buf_start = 0

    def restore(self, position: int, ctx: EngineContext) -> None:
        self._position = position
        self._buffered = np.empty(0)
        self._buf_start = position

    def propose_block(self, ctx: EngineContext, count: int) -> list[Proposal]:
        """The next ``count`` consecutive stream proposals.

        The stream is unbounded, so the block is always full.  On the
        surrogate path the prediction buffer refills every ``prefetch``
        positions whatever the block size, keeping the memoized
        prediction keys (and therefore traces) bit-identical.
        """
        start = self._position
        self._position += count
        if self.surrogate is None:
            return [Proposal(self.stream[start + i]) for i in range(count)]
        block = []
        for position in range(start, start + count):
            if position - self._buf_start >= len(self._buffered):
                chunk = self.prefetch
                if self.position_cap is not None:
                    chunk = min(chunk, self.position_cap - position)
                self._buffered = self.surrogate.predict(
                    [self.stream[position + i] for i in range(chunk)]
                )
                self._buf_start = position
            predicted = float(self._buffered[position - self._buf_start])
            block.append(Proposal(self.stream[position], predicted))
        return block

    def rewind(self, count: int) -> None:
        """Hand back the last ``count`` unconsumed proposals.

        The prediction buffer stays valid: it covers positions from
        ``_buf_start`` forward, and a rewind never moves before the
        block's start, which the buffer already covered.
        """
        self._position -= count


class PoolRankProposer(BaseProposer):
    """A surrogate-scored pool, proposed in ascending predicted runtime.

    RSb's candidate source (Algorithm 2's argmin-with-removal is
    equivalent to a stable presort).  Setup charges the model fit and
    the pool-scoring time; a resumed run's restored clock already paid,
    and the pool redraws deterministically from its stateless RNG key.
    Proposals carry their prediction so a cutoff gate (the RSpb hybrid)
    can prune the tail of the ranking without extra model queries.
    """

    def __init__(
        self,
        space: SearchSpace,
        surrogate: SurrogateModel,
        pool_size: int = 10_000,
        rng_label: str = "rsb-pool",
    ) -> None:
        self.space = space
        self.surrogate = surrogate
        self.pool_size = pool_size
        self.rng_label = rng_label
        self.predictions: np.ndarray = np.empty(0)
        self._pool_indices: list[int] | None = None
        self._pool_configs: list[Configuration | None] = []
        self._order: np.ndarray = np.empty(0, dtype=np.int64)
        self._order_upto = 0
        self._rank = 0

    def restore(self, position: int, ctx: EngineContext) -> None:
        self._rank = position

    def setup(self, ctx: EngineContext) -> None:
        clock = ctx.clock
        if not ctx.resumed:
            clock.advance(self.surrogate.fit_seconds)
        pool_rng = spawn_rng(self.rng_label, self.space.name, ctx.name)
        n = min(self.pool_size, self.space.cardinality)
        predict_indices = getattr(self.surrogate, "predict_indices", None)
        sample_indices = getattr(self.space, "sample_indices", None)
        if predict_indices is not None and sample_indices is not None:
            # Bulk path: the pool stays as linear indices — the same
            # RNG draws, the same prediction memo key, the same bytes —
            # and Configuration objects materialize lazily, only for
            # the pool slots the ranking actually reaches.
            indices = sample_indices(pool_rng, n)
            predictions = predict_indices(indices)
            self._pool_indices = [int(i) for i in indices]
            self._pool_configs = [None] * n
        else:
            pool = self.space.sample(pool_rng, n)
            predictions = self.surrogate.predict(pool)
            self._pool_indices = None
            self._pool_configs = list(pool)
        if not ctx.resumed:
            clock.advance(self.surrogate.predict_seconds(n))
        self.predictions = predictions
        self._order = np.empty(0, dtype=np.int64)
        self._order_upto = 0
        ctx.trace.metadata["pool_size"] = n

    @property
    def pool(self) -> list[Configuration]:
        """The scored pool, fully materialized (diagnostic use only —
        the ranking itself never needs every Configuration built)."""
        return [self._config_for(i) for i in range(len(self._pool_configs))]

    def _config_for(self, slot: int) -> Configuration:
        config = self._pool_configs[slot]
        if config is None:
            config = self.space.config_at(self._pool_indices[slot])
            self._pool_configs[slot] = config
        return config

    def _ensure_order(self, upto: int) -> None:
        """Extend the ranking to cover at least ``upto`` positions.

        A search evaluates ``nmax`` of a 10k pool, so a partial stable
        top-k (the native kernel) replaces the full argsort; growth is
        geometric, and the NumPy fallback or a near-full request sorts
        the whole pool once.  The prefix is identical to the stable
        full argsort by construction, so traces do not depend on which
        path ran.
        """
        n = len(self.predictions)
        if upto <= self._order_upto or self._order_upto >= n:
            return
        k = max(64, 2 * upto)
        if k * 2 < n:
            topk = _native.gate_topk(self.predictions, k)
            if topk is not None:
                self._order = topk[0]
                self._order_upto = k
                return
        self._order = np.argsort(self.predictions, kind="stable")
        self._order_upto = n

    def propose_block(self, ctx: EngineContext, count: int) -> list[Proposal]:
        """The next ``count`` pool entries in predicted order (may be
        short, or empty when the pool is exhausted)."""
        n = len(self.predictions)
        end = min(self._rank + count, n)
        self._ensure_order(end)
        block = []
        for rank in range(self._rank, end):
            idx = int(self._order[rank])
            block.append(
                Proposal(self._config_for(idx), float(self.predictions[idx]))
            )
        self._rank = end
        return block

    def rewind(self, count: int) -> None:
        self._rank -= count


class ReplayProposer(BaseProposer):
    """Replay the source machine's evaluated configurations (Ta).

    The model-free controls' candidate source: source order for RSpf
    (whose gate thresholds on the carried *source* runtime), ascending
    source runtime for RSbf.  Restricted to what the source already
    evaluated — which is exactly why the paper sees no performance
    speedups from these variants.
    """

    def __init__(
        self,
        training: Sequence[tuple[Configuration, float]],
        sort: bool = False,
    ) -> None:
        pairs = list(training)
        if sort:
            pairs = sorted(pairs, key=lambda pair: pair[1])
        self.pairs = pairs
        self._index = 0

    def restore(self, position: int, ctx: EngineContext) -> None:
        self._index = position

    def propose_block(self, ctx: EngineContext, count: int) -> list[Proposal]:
        """The next ``count`` replayed pairs (empty when exhausted)."""
        pairs = self.pairs[self._index : self._index + count]
        self._index += len(pairs)
        return [Proposal(config, runtime) for config, runtime in pairs]

    def rewind(self, count: int) -> None:
        self._index -= count


class SMBOProposer(BaseProposer):
    """Sequential model-based optimization's candidate source.

    Setup builds the initial design — the source surrogate's best pool
    picks when transfer-seeded, a random design otherwise.  Once the
    design is consumed, each proposal refits a random forest on the
    target observations (every ``refit_every`` evaluations, optionally
    blending median-rescaled source observations), scores a fresh
    candidate pool with the acquisition function, and proposes the
    argmax.  Refit and scoring costs are charged *while proposing*,
    outside the engine's budget guard: a budget wall mid-refit
    propagates to the caller, exactly as the pre-engine loop behaved.
    """

    def __init__(
        self,
        space: SearchSpace,
        rng,
        *,
        n_initial: int,
        pool_size: int,
        acquisition: str,
        kappa: float,
        source_surrogate: SurrogateModel | None = None,
        source_data: Sequence[tuple[Configuration, float]] | None = None,
        refit_every: int = 1,
        forest: "ForestSpec | None" = None,
    ) -> None:
        from repro.spec import SMBOSpec

        self.space = space
        self.rng = rng
        self.n_initial = n_initial
        self.pool_size = pool_size
        self.acquisition = acquisition
        self.kappa = kappa
        self.source_surrogate = source_surrogate
        self.source_data = source_data
        self.refit_every = refit_every
        # The refit forest's hyperparameters come from the shared
        # ForestSpec default (deduplicated with the surrogate's), not a
        # second hard-coded copy.
        self.forest = forest if forest is not None else SMBOSpec().forest
        self._design: list[Configuration] = []
        self._block_design: list[Configuration] = []
        self._observations: list[tuple[Configuration, float]] = []
        self._evaluated: set[int] = set()
        self._model: RandomForestRegressor | None = None
        self._since_fit = refit_every
        self._last_was_design = False

    def setup(self, ctx: EngineContext) -> None:
        clock = ctx.clock
        if self.source_surrogate is not None:
            clock.advance(self.source_surrogate.fit_seconds)
            n = min(self.pool_size, self.space.cardinality)
            predict_indices = getattr(
                self.source_surrogate, "predict_indices", None
            )
            sample_indices = getattr(self.space, "sample_indices", None)
            if predict_indices is not None and sample_indices is not None:
                # Bulk path: identical RNG draws and predictions (the
                # memo key is the same index tuple), but only the
                # n_initial design picks are materialized.  The design
                # selection keeps the historical *unstable* argsort —
                # its result is reproducible because the prediction
                # array is bit-identical.
                indices = sample_indices(self.rng, n)
                preds = predict_indices(indices)
                clock.advance(self.source_surrogate.predict_seconds(n))
                design = [
                    self.space.config_at(indices[int(i)])
                    for i in np.argsort(preds)[: self.n_initial]
                ]
            else:
                pool = self.space.sample(self.rng, n)
                preds = self.source_surrogate.predict(pool)
                clock.advance(self.source_surrogate.predict_seconds(len(pool)))
                design = [pool[int(i)] for i in np.argsort(preds)[: self.n_initial]]
        else:
            design = self.space.sample(
                self.rng, min(self.n_initial, self.space.cardinality)
            )
        self._design = list(design)
        self._since_fit = self.refit_every  # force a first fit

    def propose_block(self, ctx: EngineContext, count: int) -> list[Proposal]:
        """Up to ``count`` initial-design proposals, then one model pick
        per call: each pick depends on the previous observation."""
        if self._design:
            take = self._design[:count]
            del self._design[:count]
            self._last_was_design = True
            self._block_design = take
            return [Proposal(config) for config in take]
        self._last_was_design = False
        clock = ctx.clock
        if self._since_fit >= self.refit_every or self._model is None:
            self._since_fit = 0
            training = list(self._observations)
            if self.source_data:
                src_med = float(np.median([y for _, y in self.source_data]))
                tgt_med = float(np.median([y for _, y in self._observations]))
                scale = tgt_med / src_med if src_med > 0 else 1.0
                training += [(c, y * scale) for c, y in self.source_data]
            X = encode_cached(self.space, [c for c, _ in training])
            y = np.log([v for _, v in training])
            self._model = RandomForestRegressor.from_spec(self.forest)
            self._model.fit(X, y)
            clock.advance(0.5 + 2e-3 * len(training))  # simulated fit cost
        n = min(self.pool_size, self.space.cardinality)
        sample_indices = getattr(self.space, "sample_indices", None)
        if sample_indices is not None:
            # Bulk path: same RNG draws, same candidate set, but the
            # 1k-row pool is encoded straight from indices and only the
            # acquisition argmax becomes a Configuration.
            indices = [
                i for i in sample_indices(self.rng, n)
                if i not in self._evaluated
            ]
            if not indices:
                return []
            Xc = encoding_cache(self.space).encode_indices(indices)
            winner = lambda scores: self.space.config_at(  # noqa: E731
                indices[int(np.argmax(scores))]
            )
        else:
            candidates = self.space.sample(self.rng, n)
            candidates = [c for c in candidates if c.index not in self._evaluated]
            if not candidates:
                return []
            Xc = encode_cached(self.space, candidates)
            winner = lambda scores: candidates[int(np.argmax(scores))]  # noqa: E731
        mu = self._model.predict(Xc)
        clock.advance(2e-4 * len(Xc))
        if self.acquisition == "mean":
            scores = -mu
        else:
            sigma = self._model.predict_std(Xc)
            if self.acquisition == "lcb":
                scores = -(mu - self.kappa * sigma)
            else:
                best = math.log(min(v for _, v in self._observations))
                scores = _expected_improvement(mu, sigma, best)
        return [Proposal(winner(scores))]

    def rewind(self, count: int) -> None:
        # Only a design block can be longer than one proposal.
        tail = self._block_design[len(self._block_design) - count :]
        self._design[:0] = tail

    def observe(self, ctx: EngineContext, proposal: Proposal, runtime: float,
                failed: bool, censored: bool) -> None:
        self._evaluated.add(proposal.config.index)
        self._observations.append((proposal.config, runtime))
        if not self._last_was_design:
            self._since_fit += 1
