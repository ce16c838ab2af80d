"""Process-parallel crypto engine: a multiprocessing pairing worker pool.

PR 1 bought the single-core wins (fixed-base tables, prepared Miller
loops); BENCH_crypto.json then showed the GIL wall — thread pools gain
1.03x on batch verify and *lose* to serial on search.  Pairings are pure
CPython bytecode over big integers, so threads serialize on the
interpreter lock.  This module moves the pairing-heavy hot paths — IBS
``batch_verify``, PEKS/PECK ``test`` and IBE/HIBC key derivation — into
**worker processes**, which scale with cores.

Design:

* **Tasks are dotted specs**, ``"module:function"``, resolved with
  :mod:`importlib` inside the worker.  The engine therefore never imports
  the modules whose tasks it runs, and the crypto layer stays at the
  bottom of the dependency order (enforced by hcpplint's layering
  contracts).
* **Workers warm up once, in an initializer.**  Shipping a
  :class:`~repro.crypto.precompute.PrecomputedPoint` table (thousands of
  affine multiples) per task would drown the win in pickle bytes.
  Instead the initializer receives only the *points* (a few hundred
  bytes) and rebuilds prepared pairings / windowed tables in-worker via
  the module registries, which also memoise any points the warm-up list
  missed.
* **Chunked submission with a serial fallback.**  Items are split into
  ``workers × chunks_per_worker`` chunks so a slow chunk cannot idle the
  pool, and batches below ``min_parallel`` run inline in the parent —
  small batches must never pay fork/IPC overhead (the acceptance bar is
  *never worse than serial*).
* **Identical results and error order.**  Each item maps to an
  ``(ok, value-or-exception)`` pair; the parent re-raises the *first*
  failure in item order, exactly like the serial loop would.

The engine imports :mod:`multiprocessing` (stdlib) plus sibling crypto
modules only; entities and protocols reach it through the existing
``engine=`` keywords on :func:`repro.crypto.ibs.batch_verify` and
friends, never by importing this module's pool machinery directly.
"""

from __future__ import annotations

import atexit
import importlib
import multiprocessing
import os
import threading
from typing import Any, Callable, Iterable, Sequence

from repro.crypto import pairing as _pairing
from repro.crypto import precompute as _precompute
from repro.exceptions import ParameterError

__all__ = ["CryptoEngine", "default_engine", "configure", "resolve",
           "DEFAULT_MIN_PARALLEL", "DEFAULT_CHUNKS_PER_WORKER"]

#: Batches smaller than this run inline in the parent — IPC setup costs
#: more than four pairings, so tiny batches must not touch the pool.
DEFAULT_MIN_PARALLEL = 4

#: Chunks submitted per worker; >1 smooths load imbalance (a chunk that
#: finishes early frees its worker for another) without per-item IPC.
DEFAULT_CHUNKS_PER_WORKER = 4


# ---------------------------------------------------------------------------
# Worker-side machinery.  These run inside pool processes (and inline in
# the parent for the serial fallback — same code path, same semantics).
# ---------------------------------------------------------------------------

_task_cache: dict[str, Callable[[Any], Any]] = {}


def _resolve_spec(spec: str) -> Callable[[Any], Any]:
    """``"pkg.mod:func"`` → the callable, memoised per process."""
    fn = _task_cache.get(spec)
    if fn is not None:
        return fn
    module_name, sep, func_name = spec.partition(":")
    if not sep or not module_name or not func_name:
        raise ParameterError("task spec must be 'module:function', got %r"
                             % (spec,))
    module = importlib.import_module(module_name)
    fn = getattr(module, func_name, None)
    if fn is None:
        raise ParameterError("task spec %r: %s has no attribute %s"
                             % (spec, module_name, func_name))
    _task_cache[spec] = fn
    return fn


def _worker_init(config: dict[str, Any]) -> None:
    """Pool initializer: rebuild prepared/precomputed state in-worker.

    ``config`` carries only picklable points; the expensive tables are
    reconstructed here exactly once per worker process and land in the
    same module registries the task functions consult, so every later
    task hits a warm cache.
    """
    for point in config.get("prepare_points", ()):
        _pairing.prepared(point)
    window = config.get("window", _precompute.DEFAULT_WINDOW)
    for point in config.get("table_points", ()):
        _precompute.precomputed(point, window)


def _run_chunk(spec: str,
               chunk: Sequence[Any]) -> list[tuple[bool, Any]]:
    """Apply the task to each item, capturing per-item success/failure.

    Exceptions are captured (not raised) so one bad item cannot hide the
    results — or mask the *earlier* failure — of its chunk-mates; the
    parent restores serial-identical first-failure semantics.
    """
    fn = _resolve_spec(spec)
    out: list[tuple[bool, Any]] = []
    for item in chunk:
        try:
            out.append((True, fn(item)))
        except Exception as exc:  # noqa: BLE001 - re-raised in parent
            out.append((False, exc))
    return out


def _collect(pairs: Iterable[tuple[bool, Any]]) -> list[Any]:
    """Unwrap ``(ok, value)`` pairs, re-raising the first failure in order."""
    results: list[Any] = []
    for ok, value in pairs:
        if not ok:
            raise value
        results.append(value)
    return results


# ---------------------------------------------------------------------------
# The engine.
# ---------------------------------------------------------------------------

class CryptoEngine:
    """A lazily started pool of crypto worker processes.

    ``workers <= 1`` is a valid configuration that never forks: every
    ``map`` runs inline, making a 1-worker engine bit-identical *and*
    cost-identical to the serial path.  The pool itself is created on
    first parallel use (lazy ``start``) so constructing an engine — e.g.
    from the CLI's ``--workers`` flag — costs nothing until a batch
    actually crosses ``min_parallel``.
    """

    def __init__(self, workers: int, *,
                 prepare_points: Sequence[Any] = (),
                 table_points: Sequence[Any] = (),
                 window: int = _precompute.DEFAULT_WINDOW,
                 min_parallel: int = DEFAULT_MIN_PARALLEL,
                 chunks_per_worker: int = DEFAULT_CHUNKS_PER_WORKER) -> None:
        if workers < 0:
            raise ParameterError("workers must be >= 0, got %d" % workers)
        if min_parallel < 1:
            raise ParameterError("min_parallel must be >= 1")
        if chunks_per_worker < 1:
            raise ParameterError("chunks_per_worker must be >= 1")
        self.workers = workers
        self.min_parallel = min_parallel
        self.chunks_per_worker = chunks_per_worker
        self._config = {
            "prepare_points": tuple(prepare_points),
            "table_points": tuple(table_points),
            "window": window,
        }
        self._lock = threading.Lock()
        self._pool: multiprocessing.pool.Pool | None = None

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "multiprocessing.pool.Pool | None":
        """Create the pool if needed; returns it (None when serial-only).

        ``fork`` is preferred — workers inherit the parent's warm
        registries for free and the initializer only tops them up — with
        ``spawn`` as the portable fallback, where the initializer does
        the full rebuild from the pickled config.
        """
        if self.workers <= 1:
            return None
        with self._lock:
            if self._pool is None:
                try:
                    ctx = multiprocessing.get_context("fork")
                except ValueError:  # pragma: no cover - non-POSIX
                    ctx = multiprocessing.get_context("spawn")
                self._pool = ctx.Pool(self.workers,
                                      initializer=_worker_init,
                                      initargs=(self._config,))
            return self._pool

    def close(self) -> None:
        """Shut the pool down; the engine can be started again later."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()
            pool.join()

    def __enter__(self) -> "CryptoEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- execution -------------------------------------------------------
    def map(self, spec: str, items: Iterable[Any]) -> list[Any]:
        """Apply task ``spec`` to every item; results in item order.

        Semantics match ``[fn(item) for item in items]`` exactly,
        including which exception propagates when several items fail
        (the earliest).  Batches below ``min_parallel`` — and every
        batch on a ``workers <= 1`` engine — run inline.
        """
        batch = list(items)
        if not batch:
            return []
        pool = None
        if len(batch) >= self.min_parallel:
            pool = self.start()
        if pool is None:
            return _collect(_run_chunk(spec, batch))
        size = -(-len(batch) // (self.workers * self.chunks_per_worker))
        chunks = [batch[i:i + size] for i in range(0, len(batch), size)]
        try:
            chunked = pool.starmap(_run_chunk,
                                   [(spec, chunk) for chunk in chunks])
        except Exception:
            # A torn-down or crashed pool must never lose user work:
            # recompute inline, which also surfaces the real task error.
            return _collect(_run_chunk(spec, batch))
        return _collect(pair for chunk in chunked for pair in chunk)

    def parallel(self) -> bool:
        """True when ``map`` may actually fan out to worker processes."""
        return self.workers > 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "CryptoEngine(workers=%d, min_parallel=%d)" % (
            self.workers, self.min_parallel)


# ---------------------------------------------------------------------------
# Process-wide default engine: HCPP_CRYPTO_WORKERS=N (unset/0 → disabled).
# Call sites take ``engine=None`` and fall back to this via `resolve`, so
# exporting the variable routes every hot path through the pool without
# touching any call signature — that is what the CI engine leg exercises.
# ---------------------------------------------------------------------------

_default_lock = threading.Lock()
_default_engine: CryptoEngine | None = None
_default_resolved = False


@atexit.register
def _close_default() -> None:
    """Join the default pool before interpreter teardown.

    An abandoned ``multiprocessing.Pool`` garbage-collected during
    shutdown races the dying pickler (``Exception ignored in
    Pool.__del__``); closing it while the interpreter is still whole
    keeps HCPP_CRYPTO_WORKERS runs silent on exit.
    """
    engine = _default_engine
    if engine is not None:
        engine.close()


def default_engine() -> CryptoEngine | None:
    """The engine configured by ``HCPP_CRYPTO_WORKERS``, or None."""
    global _default_engine, _default_resolved
    with _default_lock:
        if not _default_resolved:
            raw = os.environ.get("HCPP_CRYPTO_WORKERS", "").strip()
            if raw:
                try:
                    workers = int(raw)
                except ValueError:
                    raise ParameterError(
                        "HCPP_CRYPTO_WORKERS must be an integer, got %r"
                        % raw) from None
            else:
                workers = 0
            _default_engine = (CryptoEngine(workers) if workers > 1
                               else None)
            _default_resolved = True
        return _default_engine


def configure(workers: int, **kwargs: Any) -> CryptoEngine | None:
    """Install (workers > 1) or clear (workers <= 1) the default engine.

    Used by the CLI's ``--workers`` flag and by tests; any previously
    installed default is closed.  Returns the new default (or None).
    """
    global _default_engine, _default_resolved
    new = CryptoEngine(workers, **kwargs) if workers > 1 else None
    with _default_lock:
        old, _default_engine = _default_engine, new
        _default_resolved = True
    if old is not None:
        old.close()
    return new


def resolve(engine: "CryptoEngine | None") -> "CryptoEngine | None":
    """An explicit engine wins; otherwise the process default (may be None)."""
    return engine if engine is not None else default_engine()
