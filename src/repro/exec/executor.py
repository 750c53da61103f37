"""The supervised, crash-safe process executor and the grid runner.

``multiprocessing.Pool`` treats a dead worker as a fatal, unrecoverable
event: one segfault, OOM kill, or runaway cell aborts an entire
figure/table grid with nothing to show for the completed cells.  The
:class:`SupervisedExecutor` replaces the pool with explicitly owned
worker processes and a supervision loop:

* each worker holds **one task at a time**, assigned over its own duplex
  pipe — the supervisor always knows exactly which cell a dead worker
  was holding;
* a daemon **heartbeat thread** in every worker beats while a task is
  running; the :class:`~repro.exec.watchdog.Watchdog` turns silence or
  a blown per-task wall-clock budget into a kill verdict;
* dead or killed workers are **respawned** and their task is **retried**
  with exponential backoff, up to ``max_task_retries`` times;
* cells that keep failing are **quarantined** as structured
  :class:`CellFailure` results instead of poisoning the grid (grid
  mode), or re-raised with full fidelity (``on_failure="raise"``);
* ``SIGINT``/``SIGTERM`` tear the worker fleet down cleanly — workers
  ignore ``SIGINT`` so a Ctrl-C hits only the supervisor, which kills,
  joins, and reaps every child before re-raising.

Determinism: the executor adds none of its own randomness.  Tasks are
pure functions of their arguments (the library's seeding discipline),
so results are bit-identical to a serial run regardless of worker
count, retries, crashes, or resume — the supervision layer only decides
*whether and where* a cell runs, never *what it computes*.

:func:`run_grid` composes the executor with the
:class:`~repro.exec.registry.RunRegistry` journal: completed cells are
journaled as they finish and skipped on re-invocation, so an
interrupted grid resumes instead of restarting.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import multiprocessing as mp
from multiprocessing.connection import wait as _wait_connections

from repro.errors import (
    ExperimentError,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.exec.fingerprint import canonical, cell_fingerprint
from repro.exec.registry import RegistryState, RunRegistry, resume_enabled
from repro.exec.watchdog import DEFAULT_HEARTBEAT_INTERVAL, Watchdog
from repro.utils.rng import stable_hash

__all__ = [
    "CellFailure",
    "ChaosConfig",
    "ExecutorStats",
    "SupervisedExecutor",
    "GridOutcome",
    "default_workers",
    "run_grid",
]

#: Exit code chaos-killed workers die with (distinguishable in logs).
CHAOS_EXITCODE = 113

_TWO64 = float(1 << 64)


def default_workers(cap: int = 8) -> int:
    """A sensible worker count: physical-ish cores, capped.

    The ``REPRO_WORKERS`` environment variable overrides the heuristic
    (useful on shared CI machines and for forcing serial runs).
    """
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            # The int() context adds nothing: the message already says
            # exactly what was wrong and where it came from.
            raise ValueError(
                f"REPRO_WORKERS must be an integer, got {env!r}"
            ) from None
    cpus = os.cpu_count() or 1
    return max(1, min(cap, cpus - 1 if cpus > 1 else 1))


def _env_task_timeout() -> float | None:
    """Per-task wall-clock budget from ``REPRO_TASK_TIMEOUT`` (seconds).

    Unset, empty, or ``0`` means no timeout.
    """
    env = os.environ.get("REPRO_TASK_TIMEOUT")
    if env is None or env.strip() == "":
        return None
    try:
        value = float(env)
    except ValueError:
        raise ValueError(
            f"REPRO_TASK_TIMEOUT must be a number of seconds, got {env!r}"
        ) from None
    return value if value > 0 else None


def _env_chaos_float(name: str, raw: str, lo: float, hi: float) -> float:
    """Parse one chaos env var strictly (the ``REPRO_WORKERS`` convention)."""
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be a number, got {raw!r}"
        ) from None
    if not (lo <= value <= hi):
        raise ValueError(
            f"{name} must be in [{lo:g}, {hi:g}], got {value:g}"
        )
    return value


@dataclass(frozen=True)
class ChaosConfig:
    """Deterministic worker kill/hang injection for supervision tests.

    With probability ``kill_rate`` a worker ``os._exit``'s the moment it
    receives a task — before any work happens — modelling a segfault or
    OOM kill at the worst possible time.  Independently, with
    probability ``hang_rate`` the worker goes *silent* for
    ``hang_seconds`` before starting the task: no heartbeats are sent
    during the hang, so a hang longer than the watchdog's stall grace is
    detected and killed, while a shorter one just burns wall-clock
    against the task's deadline (deadline-pressure chaos).  Both
    decisions are pure hashes of ``(seed, task_id, attempt)``: a given
    run of a given grid kills/hangs the same workers on the same cells
    every time, and a retried task draws a fresh decision, so recovery
    is exercised deterministically.
    """

    kill_rate: float
    seed: Any = 0
    exitcode: int = CHAOS_EXITCODE
    hang_rate: float = 0.0
    hang_seconds: float = 0.5

    def should_kill(self, task_id: int, attempt: int) -> bool:
        if self.kill_rate <= 0.0:
            return False
        draw = stable_hash("chaos-kill", self.seed, task_id, attempt) / _TWO64
        return draw < self.kill_rate

    def should_hang(self, task_id: int, attempt: int) -> bool:
        if self.hang_rate <= 0.0:
            return False
        draw = stable_hash("chaos-hang", self.seed, task_id, attempt) / _TWO64
        return draw < self.hang_rate

    @classmethod
    def from_env(cls) -> "ChaosConfig | None":
        """A config from the ``REPRO_CHAOS_*`` environment variables.

        ``REPRO_CHAOS_RATE`` (kill probability), ``REPRO_CHAOS_HANG_RATE``,
        ``REPRO_CHAOS_HANG_SECONDS``, and ``REPRO_CHAOS_SEED``.  Returns
        ``None`` when no rate is set — the hook ``make chaos`` uses to
        run the exec test suite under injected worker kills.  Malformed
        or out-of-range values raise :class:`ValueError` immediately
        rather than surfacing as a confusing mid-grid failure.
        """
        rate = os.environ.get("REPRO_CHAOS_RATE")
        hang_rate = os.environ.get("REPRO_CHAOS_HANG_RATE")
        if (rate is None or rate.strip() == "") and (
            hang_rate is None or hang_rate.strip() == ""
        ):
            return None
        kwargs: dict[str, Any] = {"kill_rate": 0.0}
        if rate is not None and rate.strip() != "":
            kwargs["kill_rate"] = _env_chaos_float(
                "REPRO_CHAOS_RATE", rate, 0.0, 1.0
            )
        if hang_rate is not None and hang_rate.strip() != "":
            kwargs["hang_rate"] = _env_chaos_float(
                "REPRO_CHAOS_HANG_RATE", hang_rate, 0.0, 1.0
            )
        hang_seconds = os.environ.get("REPRO_CHAOS_HANG_SECONDS")
        if hang_seconds is not None and hang_seconds.strip() != "":
            kwargs["hang_seconds"] = _env_chaos_float(
                "REPRO_CHAOS_HANG_SECONDS", hang_seconds, 0.0, 3600.0
            )
        return cls(seed=os.environ.get("REPRO_CHAOS_SEED", "0"), **kwargs)


@dataclass(frozen=True)
class CellFailure:
    """A cell the executor gave up on, as a structured result.

    ``kind`` distinguishes operational deaths (``"crash"``, retried),
    blown budgets (``"timeout"``, retried), and deterministic
    application exceptions raised by the cell function (``"error"``,
    never retried — a pure function fails the same way every time).
    """

    index: int
    key: Any
    kind: str  # "crash" | "timeout" | "error"
    error: str  # exception class name
    message: str
    attempts: int
    exitcode: int | None = None
    fingerprint: str | None = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"cell {self.index} ({self.key!r}) {self.kind} after "
            f"{self.attempts} attempt(s): {self.error}: {self.message}"
        )


class _RemoteTraceback(Exception):
    """Carries a worker's formatted traceback as the ``__cause__``."""

    def __init__(self, tb: str) -> None:
        self.tb = tb
        super().__init__(tb)

    def __str__(self) -> str:
        return f"\n{self.tb}"


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _worker_main(slot, conn, func, chaos, heartbeat_interval):
    """Run tasks from ``conn`` until the shutdown sentinel arrives.

    Protocol (all messages tuples, first element the kind):
      supervisor -> worker: ``(task_id, attempt, [(index, item), ...])``
                            or ``None`` to shut down;
      worker -> supervisor: ``("hb", slot, task_id)``,
                            ``("ok", slot, task_id, [results])``,
                            ``("err", slot, task_id, index, name, msg,
                               pickled_exc_or_None, formatted_tb)``.
    """
    # Ctrl-C belongs to the supervisor; it will shut us down cleanly.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    send_lock = threading.Lock()
    current = {"task": None}
    stop = threading.Event()

    def _heartbeat():
        while not stop.wait(heartbeat_interval):
            task_id = current["task"]
            if task_id is None:
                continue
            try:
                with send_lock:
                    conn.send(("hb", slot, task_id))
            except OSError:
                return

    if heartbeat_interval is not None:
        threading.Thread(target=_heartbeat, daemon=True).start()

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg is None:
            break
        task_id, attempt, chunk = msg
        if chaos is not None and chaos.should_kill(task_id, attempt):
            os._exit(chaos.exitcode)
        if chaos is not None and chaos.should_hang(task_id, attempt):
            # Go silent *before* the heartbeat picks the task up: no
            # beats during the sleep, so a hang past the stall grace is
            # watchdog-killed and a shorter one eats deadline budget.
            time.sleep(chaos.hang_seconds)
        current["task"] = task_id
        results = []
        failure = None
        for index, item in chunk:
            try:
                results.append(func(item))
            except Exception as exc:
                try:
                    payload = pickle.dumps(exc)
                except Exception:
                    payload = None
                failure = (
                    index,
                    type(exc).__name__,
                    str(exc),
                    payload,
                    traceback.format_exc(),
                )
                break
        current["task"] = None
        try:
            with send_lock:
                if failure is None:
                    conn.send(("ok", slot, task_id, results))
                else:
                    conn.send(("err", slot, task_id) + failure)
        except OSError:
            break
    stop.set()
    try:
        conn.close()
    except OSError:
        pass


# ----------------------------------------------------------------------
# Supervisor side
# ----------------------------------------------------------------------
@dataclass
class _Task:
    task_id: int
    chunk: list  # [(index, item), ...]
    keys: list
    failures: int = 0
    not_before: float = 0.0


@dataclass
class _WorkerHandle:
    slot: int
    proc: mp.process.BaseProcess
    conn: Any
    task_id: int | None = None


_UNSET = object()


@dataclass(frozen=True)
class ExecutorStats:
    """A point-in-time snapshot of one executor's supervision state.

    ``live_workers``/``busy_workers``/``queue_depth`` describe the
    currently running ``map`` call (all zero between calls); the
    remaining counters are cumulative over the executor's lifetime —
    the numbers a service health endpoint reports.
    """

    live_workers: int
    busy_workers: int
    queue_depth: int
    tasks_completed: int
    retries: int
    quarantined: int
    worker_deaths: int
    timeouts: int
    #: worker deaths whose exit code matched the chaos config — injected
    #: kills the supervision layer survived (0 when chaos is off).
    chaos_kills: int = 0


class SupervisedExecutor:
    """Order-preserving parallel map with worker supervision.

    Parameters
    ----------
    n_workers:
        Worker process count; ``None`` defers to
        :func:`default_workers` (which honours ``REPRO_WORKERS``).
    task_timeout:
        Per-task wall-clock budget in seconds.  The string ``"env"``
        (default) reads ``REPRO_TASK_TIMEOUT``; ``None`` disables.
    heartbeat_interval:
        Worker heartbeat period; ``None`` disables stall detection.
    max_task_retries:
        How many times a task is retried after an operational failure
        (worker death or timeout) before it is given up on.
    """

    def __init__(
        self,
        n_workers: int | None = None,
        task_timeout: float | str | None = "env",
        heartbeat_interval: float | None = DEFAULT_HEARTBEAT_INTERVAL,
        max_task_retries: int = 2,
        retry_backoff_seconds: float = 0.05,
        retry_backoff_factor: float = 2.0,
        max_backoff_seconds: float = 2.0,
        chaos: ChaosConfig | None = None,
        poll_interval: float = 0.05,
        start_method: str | None = None,
        drain_grace: float = 0.25,
    ) -> None:
        if max_task_retries < 0:
            raise ValueError(f"max_task_retries must be >= 0, got {max_task_retries}")
        self.n_workers = n_workers
        self.task_timeout = (
            _env_task_timeout() if task_timeout == "env" else task_timeout
        )
        self.heartbeat_interval = heartbeat_interval
        self.max_task_retries = max_task_retries
        self.retry_backoff_seconds = retry_backoff_seconds
        self.retry_backoff_factor = retry_backoff_factor
        self.max_backoff_seconds = max_backoff_seconds
        self.chaos = chaos
        self.poll_interval = poll_interval
        self.drain_grace = drain_grace
        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        self._ctx = mp.get_context(start_method)
        # Lifetime counters (cumulative across map calls) plus a handle
        # on the currently running supervision, for stats().
        self._tasks_completed = 0
        self._retries = 0
        self._quarantined = 0
        self._worker_deaths = 0
        self._timeouts = 0
        self._chaos_kills = 0
        self._active: "_Supervision | None" = None

    def stats(self) -> ExecutorStats:
        """A snapshot for health endpoints; safe to call from any thread.

        The live numbers come from the ``map`` call running right now
        (if any); the counters survive across calls.
        """
        active = self._active
        live = busy = depth = 0
        if active is not None:
            workers = list(active.workers.values())
            live = sum(1 for w in workers if w.proc.is_alive())
            busy = sum(1 for w in workers if w.task_id is not None)
            depth = len(active.ready) + len(active.delayed)
        return ExecutorStats(
            live_workers=live,
            busy_workers=busy,
            queue_depth=depth,
            tasks_completed=self._tasks_completed,
            retries=self._retries,
            quarantined=self._quarantined,
            worker_deaths=self._worker_deaths,
            timeouts=self._timeouts,
            chaos_kills=self._chaos_kills,
        )

    # ------------------------------------------------------------------
    def map(
        self,
        func: Callable,
        items: Sequence | Iterable,
        *,
        keys: Sequence | None = None,
        chunksize: int = 1,
        on_failure: str = "raise",
        on_result: Callable[[int, Any, int], None] | None = None,
    ) -> list:
        """Apply ``func`` to every item under supervision, in order.

        ``on_failure="raise"``: the first application exception (or
        exhausted-retry operational failure) propagates after the fleet
        is torn down.
        ``on_failure="quarantine"`` (requires ``chunksize=1``) never
        raises for a cell: failing cells come back as
        :class:`CellFailure` entries in the result list.

        ``on_result(index, result, attempts)`` is invoked from the
        supervisor as each item *completes* (completion order, not input
        order) — the journaling hook.
        """
        if on_failure not in ("raise", "quarantine"):
            raise ValueError(f"unknown on_failure mode {on_failure!r}")
        items = list(items)
        keys = list(keys) if keys is not None else list(range(len(items)))
        if len(keys) != len(items):
            raise ValueError(
                f"keys ({len(keys)}) and items ({len(items)}) must align"
            )
        if on_failure == "quarantine" and chunksize != 1:
            raise ValueError("quarantine mode requires chunksize=1")
        n_workers = self.n_workers
        if n_workers is None:
            n_workers = default_workers()
        if n_workers <= 1 or len(items) <= 1:
            return self._map_serial(func, items, keys, on_failure, on_result)
        return _Supervision(self, func, items, keys, max(1, chunksize),
                            on_failure, on_result, n_workers).run()

    # ------------------------------------------------------------------
    def _map_serial(self, func, items, keys, on_failure, on_result) -> list:
        """In-process fallback — no supervision, simplest tracebacks."""
        results = []
        for index, (key, item) in enumerate(zip(keys, items)):
            try:
                result = func(item)
            except Exception as exc:
                if on_failure == "raise":
                    raise
                self._quarantined += 1
                results.append(
                    CellFailure(
                        index=index,
                        key=key,
                        kind="error",
                        error=type(exc).__name__,
                        message=str(exc),
                        attempts=1,
                    )
                )
                continue
            if on_result is not None:
                on_result(index, result, 1)
            self._tasks_completed += 1
            results.append(result)
        return results


class _Supervision:
    """One ``map`` call's supervision state machine."""

    def __init__(self, executor, func, items, keys, chunksize,
                 on_failure, on_result, n_workers) -> None:
        self.ex = executor
        self.func = func
        self.on_failure = on_failure
        self.on_result = on_result
        self.results: list = [_UNSET] * len(items)
        self.tasks: list[_Task] = []
        for start in range(0, len(items), chunksize):
            chunk = [(i, items[i]) for i in range(start, min(start + chunksize, len(items)))]
            chunk_keys = [keys[i] for i, _ in chunk]
            self.tasks.append(_Task(len(self.tasks), chunk, chunk_keys))
        self.ready: deque[int] = deque(t.task_id for t in self.tasks)
        self.delayed: list[int] = []
        self.unfinished = len(self.tasks)
        self.n_workers = min(n_workers, len(self.tasks))
        self.workers: dict[int, _WorkerHandle] = {}
        self.next_slot = 0
        self.watchdog = Watchdog(
            task_timeout=self.ex.task_timeout,
            heartbeat_interval=self.ex.heartbeat_interval,
        )
        self.pending_exc: BaseException | None = None

    # -- lifecycle ------------------------------------------------------
    def run(self) -> list:
        prev_term = None
        main_thread = threading.current_thread() is threading.main_thread()
        if main_thread:
            def _on_term(signum, frame):
                raise KeyboardInterrupt("SIGTERM")

            try:
                prev_term = signal.signal(signal.SIGTERM, _on_term)
            except (ValueError, OSError):  # pragma: no cover - non-main ctx
                prev_term = None
        self.ex._active = self
        try:
            for _ in range(self.n_workers):
                self._spawn()
            self._loop()
        finally:
            self.ex._active = None
            self._teardown()
            if prev_term is not None:
                signal.signal(signal.SIGTERM, prev_term)
        if self.pending_exc is not None:
            raise self.pending_exc
        assert all(r is not _UNSET for r in self.results)
        return self.results

    def _spawn(self) -> _WorkerHandle:
        slot = self.next_slot
        self.next_slot += 1
        parent_conn, child_conn = self.ex._ctx.Pipe(duplex=True)
        proc = self.ex._ctx.Process(
            target=_worker_main,
            args=(slot, child_conn, self.func, self.ex.chaos,
                  self.ex.heartbeat_interval),
            daemon=True,
            name=f"repro-exec-{slot}",
        )
        proc.start()
        child_conn.close()
        handle = _WorkerHandle(slot, proc, parent_conn)
        self.workers[slot] = handle
        return handle

    def _teardown(self) -> None:
        self._salvage_in_flight()
        for w in self.workers.values():
            try:
                w.conn.send(None)
            except OSError:
                pass
        deadline = time.monotonic() + 1.0
        for w in self.workers.values():
            w.proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for w in self.workers.values():
            if w.proc.is_alive():
                w.proc.kill()
                w.proc.join(timeout=1.0)
            try:
                w.conn.close()
            except OSError:
                pass
        self.workers.clear()

    def _salvage_in_flight(self) -> None:
        """Drain completed-but-unreported results before killing workers.

        A SIGTERM (or the first error in raise mode) exits the main
        loop at an arbitrary point: a worker that finished its task in
        the meantime has its ``"ok"`` sitting unread in the pipe.
        Dropping it would lose a *completed* cell — the journaling
        ``on_result`` hook never fired — so teardown first drains every
        busy worker's connection, waiting up to ``drain_grace`` seconds
        for messages already in flight.  Best-effort by design: a
        worker still mid-task after the grace simply re-runs its cell
        on the next invocation.
        """
        deadline = time.monotonic() + self.ex.drain_grace
        for w in list(self.workers.values()):
            if w.task_id is None:
                continue
            try:
                while w.task_id is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not w.conn.poll(max(0.0, remaining)):
                        break
                    self._drain(w)
            except Exception:
                # Teardown must finish; an unjournaled cell re-runs.
                continue

    # -- main loop ------------------------------------------------------
    def _loop(self) -> None:
        while self.unfinished > 0 and self.pending_exc is None:
            now = time.monotonic()
            self._promote_delayed(now)
            self._assign(now)
            readable = {w.conn: w for w in self.workers.values()}
            sentinels = {
                w.proc.sentinel: w
                for w in self.workers.values()
                if w.task_id is not None
            }
            ready = _wait_connections(
                list(readable) + list(sentinels), timeout=self.ex.poll_interval
            )
            for obj in ready:
                if obj in readable:
                    self._drain(readable[obj])
            if self.pending_exc is not None:
                return
            for w in list(self.workers.values()):
                if not w.proc.is_alive():
                    self._drain(w)  # salvage results sent just before dying
                    if w.slot in self.workers and not w.proc.is_alive():
                        self._handle_death(w)
            self._check_watchdog(time.monotonic())

    def _promote_delayed(self, now: float) -> None:
        still = []
        for task_id in self.delayed:
            if self.tasks[task_id].not_before <= now:
                self.ready.append(task_id)
            else:
                still.append(task_id)
        self.delayed = still

    def _assign(self, now: float) -> None:
        for w in self.workers.values():
            if not self.ready:
                return
            if w.task_id is not None or not w.proc.is_alive():
                continue
            task = self.tasks[self.ready.popleft()]
            try:
                w.conn.send((task.task_id, task.failures, task.chunk))
            except (OSError, ValueError):
                # Worker died between checks; requeue and let the death
                # handler respawn it.
                self.ready.appendleft(task.task_id)
                continue
            w.task_id = task.task_id
            self.watchdog.assign(w.slot, task.task_id, now)

    # -- message handling ----------------------------------------------
    def _drain(self, w: _WorkerHandle) -> None:
        while True:
            try:
                if not w.conn.poll(0):
                    return
                msg = w.conn.recv()
            except (EOFError, OSError):
                return
            kind = msg[0]
            if kind == "hb":
                _, slot, task_id = msg
                self.watchdog.beat(slot, task_id, time.monotonic())
            elif kind == "ok":
                _, _, task_id, results = msg
                if w.task_id != task_id:
                    continue  # stale (task was re-dispatched elsewhere)
                self._task_done(w, self.tasks[task_id], results)
            elif kind == "err":
                _, _, task_id, index, name, message, payload, tb = msg
                if w.task_id != task_id:
                    continue
                self._task_errored(
                    w, self.tasks[task_id], index, name, message, payload, tb
                )

    def _release(self, w: _WorkerHandle) -> None:
        w.task_id = None
        self.watchdog.clear(w.slot)

    def _task_done(self, w: _WorkerHandle, task: _Task, results: list) -> None:
        self._release(w)
        for (index, _item), result in zip(task.chunk, results):
            self.results[index] = result
            if self.on_result is not None:
                self.on_result(index, result, task.failures + 1)
        self.ex._tasks_completed += len(task.chunk)
        self.unfinished -= 1

    def _task_errored(self, w, task, index, name, message, payload, tb) -> None:
        """A deterministic application exception — never retried."""
        self._release(w)
        self.unfinished -= 1
        if self.on_failure == "raise":
            exc: BaseException | None = None
            if payload is not None:
                try:
                    exc = pickle.loads(payload)
                except Exception:
                    exc = None
            if exc is None:
                exc = RuntimeError(f"{name}: {message}")
            exc.__cause__ = _RemoteTraceback(tb)
            self.pending_exc = exc
            return
        key = task.keys[[i for i, _ in task.chunk].index(index)]
        self.ex._quarantined += 1
        self.results[index] = CellFailure(
            index=index,
            key=key,
            kind="error",
            error=name,
            message=message,
            attempts=task.failures + 1,
        )

    # -- failure handling ----------------------------------------------
    def _handle_death(self, w: _WorkerHandle) -> None:
        exitcode = w.proc.exitcode
        task_id = w.task_id
        self.ex._worker_deaths += 1
        if self.ex.chaos is not None and exitcode == self.ex.chaos.exitcode:
            self.ex._chaos_kills += 1
        self._discard_worker(w)
        if task_id is not None:
            self._operational_failure(
                self.tasks[task_id],
                "crash",
                WorkerCrashError(
                    f"worker process died with exit code {exitcode} while "
                    f"running task {task_id}",
                    exitcode=exitcode,
                ),
                exitcode=exitcode,
            )
        self._maybe_respawn()

    def _check_watchdog(self, now: float) -> None:
        for verdict in self.watchdog.overdue(now):
            w = self.workers.get(verdict.slot)
            if w is None or w.task_id != verdict.task_id:
                continue
            # The result may have raced in right at the deadline — prefer
            # accepting it over killing a worker that just finished.
            self._drain(w)
            if w.task_id != verdict.task_id:
                continue
            task_id = w.task_id
            self.ex._timeouts += 1
            w.proc.kill()
            w.proc.join(timeout=5.0)
            self._discard_worker(w)
            if verdict.reason == "timeout":
                exc: WorkerCrashError | TaskTimeoutError = TaskTimeoutError(
                    f"task {task_id} exceeded its {self.ex.task_timeout:g}s "
                    f"wall-clock budget (ran {verdict.elapsed:.2f}s); worker "
                    "killed",
                    elapsed=verdict.elapsed,
                )
            else:
                exc = TaskTimeoutError(
                    f"task {task_id} stalled: no heartbeat for "
                    f"{self.watchdog.stall_grace:.2f}s after "
                    f"{verdict.elapsed:.2f}s of runtime; worker killed",
                    elapsed=verdict.elapsed,
                )
            self._operational_failure(self.tasks[task_id], verdict.reason, exc)
            self._maybe_respawn()

    def _discard_worker(self, w: _WorkerHandle) -> None:
        self.watchdog.clear(w.slot)
        self.workers.pop(w.slot, None)
        if not w.proc.is_alive():
            w.proc.join(timeout=1.0)
        try:
            w.conn.close()
        except OSError:
            pass

    def _maybe_respawn(self) -> None:
        if self.pending_exc is not None:
            return
        while len(self.workers) < min(self.n_workers, self.unfinished):
            self._spawn()

    def _operational_failure(self, task: _Task, kind: str,
                             exc: Exception, exitcode: int | None = None) -> None:
        """Worker death or timeout: retry with backoff, then give up."""
        task.failures += 1
        if task.failures <= self.ex.max_task_retries:
            self.ex._retries += 1
            backoff = min(
                self.ex.retry_backoff_seconds
                * self.ex.retry_backoff_factor ** (task.failures - 1),
                self.ex.max_backoff_seconds,
            )
            task.not_before = time.monotonic() + backoff
            self.delayed.append(task.task_id)
            return
        self.unfinished -= 1
        if self.on_failure == "raise":
            self.pending_exc = exc
            return
        self.ex._quarantined += len(task.chunk)
        for (index, _item), key in zip(task.chunk, task.keys):
            self.results[index] = CellFailure(
                index=index,
                key=key,
                kind=kind,
                error=type(exc).__name__,
                message=str(exc),
                attempts=task.failures,
                exitcode=exitcode,
            )


# ----------------------------------------------------------------------
# Grid running: executor + registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GridOutcome:
    """What :func:`run_grid` did: merged results plus resume accounting."""

    experiment: str
    results: tuple
    fingerprints: tuple[str, ...]
    cached: int
    executed: int
    failures: tuple[CellFailure, ...]
    #: Journal records quarantined by scrub-and-salvage during the
    #: registry load that seeded this run (0 on a healthy journal).
    salvaged: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def raise_on_failure(self) -> None:
        """Raise an :class:`ExperimentError` summarizing quarantined cells."""
        if not self.failures:
            return
        lines = "\n".join(f"  - {f}" for f in self.failures)
        raise ExperimentError(
            f"{len(self.failures)} of {len(self.results)} cells of "
            f"{self.experiment!r} failed permanently "
            f"(the journal keeps the {self.cached + self.executed} completed "
            f"cells; a re-invocation retries only the failures):\n{lines}"
        )


def run_grid(
    experiment: str,
    func: Callable,
    specs: Sequence,
    *,
    keys: Sequence | None = None,
    registry: RunRegistry | str | os.PathLike | None = None,
    resume: bool | None = None,
    executor: SupervisedExecutor | None = None,
    n_workers: int | None = 1,
    task_timeout: float | str | None = "env",
    max_task_retries: int = 2,
    chaos: ChaosConfig | None = None,
    version: str | None = None,
) -> GridOutcome:
    """Run one experiment grid crash-safely and resumably.

    Every cell is fingerprinted (experiment name + cell key + code
    version); with a ``registry``, completed cells are journaled as they
    finish and skipped bit-identically on re-invocation (each cell is a
    pure function of its spec, so skip-and-merge preserves exact
    results).  ``resume=None`` honours ``REPRO_RESUME`` (default on).

    Cells that fail permanently come back as :class:`CellFailure`
    entries in ``GridOutcome.results`` — callers that cannot represent a
    hole call :meth:`GridOutcome.raise_on_failure`, *after* the journal
    has durably kept every completed sibling.
    """
    specs = list(specs)
    keys = list(keys) if keys is not None else [canonical(s) for s in specs]
    if len(keys) != len(specs):
        raise ExperimentError(
            f"grid {experiment!r}: {len(keys)} keys for {len(specs)} specs"
        )
    fingerprints = [cell_fingerprint(experiment, k, version=version) for k in keys]
    if len(set(fingerprints)) != len(fingerprints):
        seen: dict[str, int] = {}
        for i, fp in enumerate(fingerprints):
            if fp in seen:
                raise ExperimentError(
                    f"grid {experiment!r}: cells {seen[fp]} and {i} have "
                    f"identical keys ({keys[i]!r}) — results would be "
                    "indistinguishable in the registry"
                )
            seen[fp] = i
    if registry is not None and not isinstance(registry, RunRegistry):
        registry = RunRegistry(registry)
    if resume is None:
        resume = resume_enabled()

    state = registry.load() if (registry is not None and resume) else RegistryState()
    results: list = [_UNSET] * len(specs)
    todo: list[int] = []
    for i, fp in enumerate(fingerprints):
        record = state.completed.get(fp)
        if record is not None:
            results[i] = record.result()
        else:
            todo.append(i)
    cached = len(specs) - len(todo)

    failures: list[CellFailure] = []
    if todo:
        ex = executor or SupervisedExecutor(
            n_workers=n_workers,
            task_timeout=task_timeout,
            max_task_retries=max_task_retries,
            chaos=chaos,
        )

        def _journal(sub_index: int, result: Any, attempts: int) -> None:
            if registry is None:
                return
            i = todo[sub_index]
            registry.mark_completed(
                fingerprints[i],
                experiment,
                result,
                key=canonical(keys[i]),
                attempts=attempts,
            )

        sub_results = ex.map(
            func,
            [specs[i] for i in todo],
            keys=[keys[i] for i in todo],
            on_failure="quarantine",
            on_result=_journal,
        )
        for sub_index, result in zip(todo, sub_results):
            if isinstance(result, CellFailure):
                failure = dataclasses.replace(
                    result, index=sub_index, fingerprint=fingerprints[sub_index]
                )
                results[sub_index] = failure
                failures.append(failure)
                if registry is not None:
                    registry.mark_failed(
                        fingerprints[sub_index],
                        experiment,
                        error=failure.error,
                        message=failure.message,
                        key=canonical(keys[sub_index]),
                        attempts=failure.attempts,
                        meta={"kind": failure.kind},
                    )
            else:
                results[sub_index] = result

    return GridOutcome(
        experiment=experiment,
        results=tuple(results),
        fingerprints=tuple(fingerprints),
        cached=cached,
        executed=len(todo) - len(failures),
        failures=tuple(failures),
        salvaged=state.salvaged_records,
    )
