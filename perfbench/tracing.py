"""Span tracing for the traced benchmark run, installed from outside ``repro``.

:func:`install` wraps the public functions of each layer (see
:data:`SPANS`) so that every call records a span: name, id, parent,
cell id, start, end, self time, and the ``SimClock`` seconds charged
while it was the innermost open span.  Self time is the span's duration
minus the time of its child spans and folded leaves in the same
process.

SHA-256 hash draws (``repro.utils.rng``) run tens of thousands of times
per cell, so they are *folded leaves*: each call adds its count and time
to per-cell counters and to its parent's child time, instead of
recording a span.  ``SimClock.advance`` is folded the same way; an
advance made inside an ``*.evaluate`` span, or one that spends the rest
of a budget when an evaluation hits the budget wall, counts as
``sim.measure_s``, every other advance (surrogate and forest charges
made by the proposers) as ``sim.model_s``.

Spans live in memory.  When a cell ends, its process appends the
buffered spans and the cell's counters to ``spans-<pid>.jsonl`` in the
trace directory, so cells that ran in forked grid workers reach the
trace too; :func:`load` reads every file back.

Nothing here changes what ``repro`` computes: wrappers pass arguments
and results through untouched.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import sys
from contextlib import contextmanager
from time import perf_counter

#: The recorder installed in this process (inherited by forked workers).
_active = None


def _arg_len(args, kwargs, result):
    """Rows of a call: the length of its first argument after ``self``."""
    first = args[1] if len(args) > 1 else next(iter(kwargs.values()))
    return len(first)


def _result_len(args, kwargs, result):
    return len(result) if result is not None else 0


#: Span name -> (module, attribute path, rows function or None).  A
#: dotted attribute path names a method and is patched on its class; a
#: plain name is a module function and is replaced wherever a ``repro``
#: module imported it.
SPANS = {
    "evaluator.evaluate": ("repro.orio.evaluator", "OrioEvaluator.evaluate", None),
    "evaluator.measure": ("repro.orio.evaluator", "OrioEvaluator.measure", None),
    "kernels.metrics_for": ("repro.kernels.base", "SpaptKernel.metrics_for", _result_len),
    "orio.compose": ("repro.orio.transforms.pipeline", "compose", None),
    "orio.analyze_variant": ("repro.orio.analysis", "analyze_variant", None),
    "costmodel.runtime_seconds": ("repro.perf.costmodel", "CostModel.runtime_seconds", None),
    "costmodel.compile_seconds": ("repro.perf.costmodel", "CostModel.compile_seconds", None),
    "miniapps.evaluate": ("repro.miniapps.base", "MiniappEvaluator.evaluate", None),
    "miniapps.measure": ("repro.miniapps.base", "MiniappEvaluator.measure", None),
    "searchspace.sample_indices": ("repro.searchspace.space", "SearchSpace.sample_indices",
                                   _result_len),
    "searchspace.encode_indices": ("repro.searchspace.space", "SearchSpace.encode_indices",
                                   _arg_len),
    "surrogate.fit": ("repro.transfer.surrogate", "Surrogate.fit", _arg_len),
    "surrogate.predict_indices": ("repro.transfer.surrogate", "Surrogate.predict_indices",
                                  _arg_len),
    "forest.fit": ("repro.ml.forest", "RandomForestRegressor.fit", _arg_len),
    "forest.predict": ("repro.ml.forest", "RandomForestRegressor.predict",
                       _arg_len),
    "forest.predict_std": ("repro.ml.forest", "RandomForestRegressor.predict_std",
                           _arg_len),
    "engine.run": ("repro.search.engine", "SearchEngine.run", None),
    "exec.run_grid": ("repro.exec.executor", "run_grid", None),
    "exec.registry.append": ("repro.exec.registry", "RunRegistry.append", None),
    # Layers no workload exercises; their call counts must stay zero.
    "gate.setup": ("repro.search.gates", "{gates}.setup", None),
    "gate.admit": ("repro.search.gates", "{gates}.admit", None),
    "gate.admit_vector": ("repro.search.gates", "{gates}.admit_vector", None),
    "checkpoint.save": ("repro.reliability.checkpoint", "CheckpointManager.save", None),
    "checkpoint.restore": ("repro.reliability.checkpoint", "CheckpointManager.restore", None),
    "checkpoint.save_traces": ("repro.reliability.checkpoint", "save_traces", None),
    "checkpoint.load_traces": ("repro.reliability.checkpoint", "load_traces", None),
    "service.init": ("repro.service.service", "TuningService.__init__", None),
    "service.submit": ("repro.service.service", "TuningService.submit", None),
}

_GATES = ("AcceptAll", "QuantileGate", "ReplayThresholdGate", "PredictionCutoffGate")

#: Per-cell counters, flushed with the cell's spans.
_COUNTERS = ("hash_draws", "hash_s", "sim_measure_s", "sim_model_s",
             "cells_executed", "cells_cached", "cells_retried")


class _Frame:
    __slots__ = ("name", "id", "parent", "start", "child", "sim")

    def __init__(self, name, span_id, parent, start):
        self.name = name
        self.id = span_id
        self.parent = parent
        self.start = start
        self.child = 0.0
        self.sim = 0.0


class Recorder:
    """Open-span stack, finished spans, and per-cell counters of one process."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.seq = 0
        self.stack: list[_Frame] = []
        self.spans: list[tuple] = []
        self.cell: str | None = None
        #: fitted surrogates by encoding-cache key, snapshotted at each flush
        self.surrogates: dict = {}
        self._reset_counters()

    def _reset_counters(self) -> None:
        for name in _COUNTERS:
            setattr(self, name, 0 if not name.endswith("_s") else 0.0)

    def _after_fork(self) -> None:
        # A forked worker inherits the parent's buffers; its parent
        # spans stay open (and are closed) in the parent only.
        self.pid = os.getpid()
        self.seq = 0
        self.spans = []
        self.surrogates = {}
        self._reset_counters()

    def open(self, name: str) -> _Frame:
        if os.getpid() != self.pid:
            self._after_fork()
        self.seq += 1
        parent = self.stack[-1].id if self.stack else None
        frame = _Frame(name, f"{self.pid}.{self.seq}", parent, perf_counter())
        self.stack.append(frame)
        return frame

    def close(self, frame: _Frame, rows) -> None:
        end = perf_counter()
        duration = end - frame.start
        self.stack.pop()
        if self.stack:
            self.stack[-1].child += duration
        self.spans.append((frame.name, frame.id, frame.parent, self.cell,
                           frame.start, end, duration - frame.child, frame.sim, rows))

    # -- cells ----------------------------------------------------------
    def begin_cell(self, cell_id: str) -> _Frame:
        frame = self.open("cell")
        self.flush()  # counters gathered outside any cell stay cell-less
        self.cell = cell_id
        return frame

    def end_cell(self, frame: _Frame) -> None:
        self.close(frame, None)
        self.flush()
        self.cell = None

    def flush(self) -> None:
        """Append buffered spans and the current counters to this
        process's span file, then clear them."""
        if os.getpid() != self.pid:
            self._after_fork()
        lines = [json.dumps({"span": s[0], "id": s[1], "parent": s[2], "cell": s[3],
                             "start": s[4], "end": s[5], "self": s[6], "sim": s[7],
                             "rows": s[8]}) for s in self.spans]
        counters = {name: getattr(self, name) for name in _COUNTERS}
        caches = {}
        for key, surrogate in self.surrogates.items():
            stats = surrogate.cache_stats()
            caches[key] = [stats["hits"], stats["misses"]]
        lines.append(json.dumps({"counters": counters, "cell": self.cell,
                                 "caches": caches}))
        with open(os.path.join(self.out_dir, f"spans-{self.pid}.jsonl"), "a") as fh:
            fh.write("\n".join(lines) + "\n")
        self.spans = []
        self._reset_counters()


@contextmanager
def cell_scope(cell_id: str):
    """Root span of one cell; a no-op unless tracing is installed."""
    rec = _active
    if rec is None:
        yield
        return
    frame = rec.begin_cell(cell_id)
    try:
        yield
    finally:
        rec.end_cell(frame)


def _span_wrapper(rec: Recorder, name: str, fn, rows):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = rec.open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            rec.close(frame, rows(args, kwargs, result) if rows else None)

    return wrapper


def _hash_wrapper(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(*args):
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            elapsed = perf_counter() - start
            rec.hash_draws += 1
            rec.hash_s += elapsed
            if rec.stack:
                rec.stack[-1].child += elapsed

    return wrapper


def _advance_wrapper(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(clock, seconds):
        burn = (clock.budget_seconds is not None and seconds > 0
                and seconds == clock.remaining)
        now = fn(clock, seconds)
        top = rec.stack[-1] if rec.stack else None
        if top is not None:
            top.sim += seconds
        if burn or (top is not None and top.name.endswith(".evaluate")):
            rec.sim_measure_s += seconds
        else:
            rec.sim_model_s += seconds
        return now

    return wrapper


def _replace_everywhere(original, replacement) -> None:
    """Rebind a module function in every ``repro`` module that holds it."""
    for modname, module in list(sys.modules.items()):
        if module is None or not modname.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(out_dir: str) -> Recorder:
    """Wrap every layer in :data:`SPANS`, the hash draws and the clock."""
    global _active
    import importlib

    rec = Recorder(out_dir)
    for name, (modname, path, rows) in SPANS.items():
        module = importlib.import_module(modname)
        if "." not in path:
            original = getattr(module, path)
            _replace_everywhere(original, _span_wrapper(rec, name, original, rows))
            continue
        owner, method = path.split(".")
        for cls_name in (_GATES if owner == "{gates}" else (owner,)):
            cls = getattr(module, cls_name)
            if method in vars(cls):
                setattr(cls, method, _span_wrapper(rec, name, vars(cls)[method], rows))

    from repro.utils import rng
    for fn in (rng.stable_hash, rng.stable_seed):
        _replace_everywhere(fn, _hash_wrapper(rec, fn))

    from repro.perf.simclock import SimClock
    SimClock.advance = _advance_wrapper(rec, SimClock.advance)

    from repro.transfer.surrogate import Surrogate
    fit = Surrogate.fit

    @functools.wraps(fit)
    def fit_and_track(self, *args, **kwargs):
        # Surrogates on one space share its encoding cache.
        rec.surrogates[f"{os.getpid()}.{id(self.space)}"] = self
        return fit(self, *args, **kwargs)

    Surrogate.fit = fit_and_track

    from repro.exec import executor
    run_grid = executor.run_grid

    @functools.wraps(run_grid)
    def run_grid_counted(*args, **kwargs):
        outcome = run_grid(*args, **kwargs)
        rec.cells_executed += outcome.executed
        rec.cells_cached += outcome.cached
        return outcome

    _replace_everywhere(run_grid, run_grid_counted)

    map_ = executor.SupervisedExecutor.map

    @functools.wraps(map_)
    def map_counted(self, *args, **kwargs):
        before = self.stats().retries
        try:
            return map_(self, *args, **kwargs)
        finally:
            rec.cells_retried += self.stats().retries - before

    executor.SupervisedExecutor.map = map_counted
    _active = rec
    return rec


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def load(out_dir: str) -> tuple[list[dict], list[dict]]:
    spans, counters = [], []
    for path in sorted(glob.glob(os.path.join(out_dir, "spans-*.jsonl"))):
        with open(path) as fh:
            for line in fh:
                record = json.loads(line)
                (counters if "counters" in record else spans).append(record)
    return spans, counters


def layer_table(spans: list[dict], counters: list[dict],
                cells: set | None = None) -> dict[str, dict]:
    """Per span name: calls, inclusive and self seconds, and rows.

    The folded hash draws appear as one more row, ``rng.hash``.
    ``cells`` restricts the table to spans and counters of those cells.
    """
    table: dict[str, dict] = {}
    for s in spans:
        if cells is not None and s["cell"] not in cells:
            continue
        row = table.setdefault(s["span"], {"calls": 0, "s": 0.0, "self_s": 0.0, "rows": 0})
        row["calls"] += 1
        row["s"] += s["end"] - s["start"]
        row["self_s"] += s["self"]
        row["rows"] += s["rows"] or 0
    draws = [c["counters"] for c in counters if cells is None or c["cell"] in cells]
    if any(c["hash_draws"] for c in draws):
        hash_s = sum(c["hash_s"] for c in draws)
        table["rng.hash"] = {"calls": sum(c["hash_draws"] for c in draws),
                             "s": hash_s, "self_s": hash_s, "rows": 0}
    return table


def format_table(table: dict[str, dict], title: str) -> str:
    total = table.get("cell", {}).get("s", 0.0)
    lines = [title, f"  {'layer':<28}{'calls':>9}{'incl s':>10}{'self s':>10}{'share':>8}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        share = f"{row['self_s'] / total:7.1%}" if total and name != "exec.run_grid" else "      -"
        lines.append(f"  {name:<28}{row['calls']:>9}{row['s']:>10.3f}"
                     f"{row['self_s']:>10.3f} {share}")
    return "\n".join(lines)


def hottest_layer(table: dict[str, dict]) -> str:
    """The span with the most self time, not counting the cell root or
    the grid supervisor (which waits while workers compute)."""
    layers = {k: v for k, v in table.items() if k not in ("cell", "exec.run_grid")}
    return max(layers, key=lambda k: layers[k]["self_s"]) if layers else "-"


def merge_jsonl(out_dir: str, dest: str) -> None:
    """Concatenate every process's span file into one JSONL trace."""
    with open(dest, "w") as out:
        for path in sorted(glob.glob(os.path.join(out_dir, "spans-*.jsonl"))):
            with open(path) as fh:
                out.write(fh.read())
