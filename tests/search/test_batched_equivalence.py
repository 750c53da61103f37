"""Batched-engine equivalence: block execution is invisible in results.

The batched loop (``SearchEngine(batch_size=...)``) is an execution
strategy, not an algorithm change: for every variant and every batch
size — including the degenerate ``batch_size=1`` — traces must be
byte-identical to the serial loop, checkpoints written mid-run must be
byte-identical files, and a run killed in the middle of a block must
resume to the same golden trace.  Guarded runs whose guard actually
intervenes (SUSPECT widening, REVOKED fallback) must also be unchanged:
the wrappers decline block execution whenever the guard could act.
"""

import functools

import pytest

from repro.reliability import CheckpointManager, trace_to_dict
from repro.search import warm_start
from repro.search.biasing import biased_search, hybrid_search
from repro.search.engine import SearchEngine
from repro.search.proposers import StreamProposer
from repro.search.pruning import pruned_search
from repro.spec import EngineSpec, TunerSpec
from repro.transfer.guard import GuardPolicy

from tests.search.golden_scenarios import (
    CHECKPOINTABLE,
    POOL,
    SCENARIOS,
    _kernel,
    _source_training,
    _stream,
    _surrogate,
    _target,
)
from tests.search.test_golden_equivalence import FIXTURES, _Killed, _KillingManager

# Factory-backed scenarios covering all seven variants (RSpb has no
# golden fixture, so the hybrid is exercised against its serial run
# below).  ``batch_size`` threads through the scenario's **kw.
BATCHABLE = (
    "rs_clean",
    "rs_faulted",
    "rs_budget",
    "rsp_clean",
    "rsp_faulted",
    "rsb_clean",
    "rsb_faulted",
    "rsb_budget",
    "rspf_clean",
    "rspf_faulted",
    "rsbf_clean",
    "rsbf_faulted",
    "smbo_cold",
    "smbo_transfer",
    "smbo_faulted",
)

BATCH_SIZES = (1, 3, 64)

# Scenarios whose proposer is sequential (a search technique, with or
# without a surrogate seed phase): one proposal per block at any size.
SEQUENTIAL = (
    "tuner_random_clean",
    "tuner_ga_clean",
    "tuner_ga_faulted",
    "warm_ga_cold",
    "warm_ga_warm",
)


@pytest.fixture(scope="module")
def kernel():
    return _kernel()


@pytest.fixture(scope="module")
def training(kernel):
    return _source_training(kernel)


@pytest.fixture(scope="module")
def surrogate(kernel, training):
    return _surrogate(kernel, training)


@pytest.fixture(scope="module")
def inverted(kernel, training):
    runtimes = [y for _, y in training]
    lo, hi = min(runtimes), max(runtimes)
    return _surrogate(kernel, [(c, lo + hi - y) for c, y in training])


# ----------------------------------------------------------------------
# Trace identity across batch sizes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", BATCHABLE)
@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_batched_trace_matches_golden(name, batch):
    trace = SCENARIOS[name](batch_size=batch)
    assert trace_to_dict(trace) == FIXTURES[name]


@pytest.mark.parametrize("name", BATCHABLE)
def test_serial_trace_matches_golden(name):
    """``batch_size=None`` is the exact pre-batching loop."""
    trace = SCENARIOS[name](batch_size=None)
    assert trace_to_dict(trace) == FIXTURES[name]


@pytest.mark.parametrize("name", SEQUENTIAL)
@pytest.mark.parametrize("batch", (None,) + BATCH_SIZES)
def test_sequential_trace_matches_golden(name, batch, monkeypatch):
    """Technique proposers run in the block loop at every block size."""
    spec = TunerSpec(engine=EngineSpec(batch_size=batch))
    # warm_started_search takes no spec; hand it to the engine it builds.
    monkeypatch.setattr(
        warm_start, "SearchEngine", functools.partial(SearchEngine, spec=spec)
    )
    kw = {"spec": spec} if name.startswith("tuner_") else {}
    assert trace_to_dict(SCENARIOS[name](**kw)) == FIXTURES[name]


@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_hybrid_rspb_batched_matches_serial(kernel, surrogate, batch):
    def run(batch_size):
        return hybrid_search(
            _target(kernel), kernel.space, surrogate,
            nmax=16, pool_size=POOL, batch_size=batch_size,
        )

    assert trace_to_dict(run(batch)) == trace_to_dict(run(None))


# ----------------------------------------------------------------------
# Checkpoints: same bytes mid-run, same resume
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", CHECKPOINTABLE)
def test_mid_batch_checkpoint_bytes_match_serial(name, tmp_path):
    """Kill both loops at the same periodic save; the checkpoint files
    — position, clock, trace records, proposer extra — must be
    byte-identical even though the batched kill lands mid-block."""
    paths = {}
    for mode, batch in (("serial", None), ("batched", 5)):
        path = tmp_path / f"{name}-{mode}.json"
        with pytest.raises(_Killed):
            SCENARIOS[name](
                checkpoint=_KillingManager(path, every=2, kill_after=3),
                batch_size=batch,
            )
        paths[mode] = path
    assert paths["serial"].read_bytes() == paths["batched"].read_bytes()


@pytest.mark.parametrize("name", CHECKPOINTABLE)
@pytest.mark.parametrize("batch", (1, 5))
def test_killed_mid_batch_resumes_to_golden(name, batch, tmp_path):
    path = tmp_path / f"{name}.json"
    with pytest.raises(_Killed):
        SCENARIOS[name](
            checkpoint=_KillingManager(path, every=2, kill_after=3),
            batch_size=batch,
        )
    killed = CheckpointManager(path).load()
    assert killed is not None and killed.position > 0
    resumed = SCENARIOS[name](
        checkpoint=CheckpointManager(path, every=2), batch_size=batch
    )
    assert trace_to_dict(resumed) == FIXTURES[name]


# ----------------------------------------------------------------------
# Guarded runs: interventions unchanged by batching
# ----------------------------------------------------------------------
def test_guarded_rsp_intervening_matches_serial(kernel, inverted):
    def run(batch_size):
        return pruned_search(
            _target(kernel), _stream(kernel), inverted,
            nmax=12, pool_size=POOL, guard=GuardPolicy(),
            batch_size=batch_size,
        )

    serial = run(None)
    assert serial.metadata["guard"]["state"] == "revoked"
    assert trace_to_dict(run(64)) == trace_to_dict(serial)


def test_guarded_rsb_intervening_matches_serial(kernel, inverted):
    def run(batch_size):
        return biased_search(
            _target(kernel), kernel.space, inverted,
            nmax=16, pool_size=POOL, guard=GuardPolicy(),
            stream=_stream(kernel), batch_size=batch_size,
        )

    serial = run(None)
    assert serial.metadata["guard"]["state"] == "revoked"
    assert serial.metadata["guard"]["fallback_proposals"] > 0
    assert trace_to_dict(run(64)) == trace_to_dict(serial)


def test_guarded_rspb_intervening_matches_serial(kernel, inverted):
    def run(batch_size):
        return hybrid_search(
            _target(kernel), kernel.space, inverted,
            nmax=16, pool_size=POOL, guard=GuardPolicy(),
            stream=_stream(kernel), batch_size=batch_size,
        )

    serial = run(None)
    assert serial.metadata["guard"]["state"] in ("suspect", "revoked")
    assert trace_to_dict(run(64)) == trace_to_dict(serial)


def test_trusted_guard_batched_matches_golden(kernel, surrogate):
    """A faithful surrogate keeps the guard TRUSTED; the batched run
    must still match the unguarded golden fixture byte for byte."""
    trace = pruned_search(
        _target(kernel), _stream(kernel), surrogate,
        nmax=12, pool_size=POOL, guard=GuardPolicy(), batch_size=64,
    )
    assert trace_to_dict(trace) == FIXTURES["rsp_clean"]


# ----------------------------------------------------------------------
# Engine diagnostics
# ----------------------------------------------------------------------
def test_engine_diagnostics_report_mode(kernel):
    stream = _stream(kernel)
    batched = SearchEngine(
        _target(kernel), StreamProposer(stream),
        nmax=4, name="RS", space=kernel.space, batch_size=16,
    )
    diag = batched.diagnostics()
    assert set(diag) == {"batch_size", "native"}
    assert diag["batch_size"] == 16
    assert diag["native"]["status"] in (
        "ok", "disabled", "no-compiler", "compile-failed", "load-failed"
    )

    serial = SearchEngine(
        _target(kernel), StreamProposer(stream),
        nmax=4, name="RS", space=kernel.space,
    )
    assert serial.diagnostics()["batch_size"] is None
