"""Process-parallel crypto engine: a multiprocessing pairing worker pool.

Pairings are pure CPython bytecode over big integers, so threads
serialize on the interpreter lock; worker processes scale with cores.
The one hot path that measures a win from fanning out is the S-server's
MHI scan — the PEKS ``test_batch`` of one trapdoor against every stored
tag (one pairing per tag, 1.1–2.3x on 2 cores at 16–64 tags).

Design:

* **Tasks are module-level functions.**  Pickle sends a function by
  reference (module + qualified name), so the worker imports the task's
  module itself and this engine never imports the layers it serves —
  the crypto layer stays at the bottom of the dependency order
  (enforced by hcpplint's layering contracts).
* **Chunked submission with a serial fallback.**  Items are split into
  ``workers × CHUNKS_PER_WORKER`` chunks so a slow chunk cannot idle the
  pool, and batches below ``MIN_PARALLEL`` run inline in the parent —
  small batches must never pay fork/IPC overhead.
* **Identical results and error order.**  Each item maps to an
  ``(ok, value-or-exception)`` pair; the parent re-raises the *first*
  failure in item order, exactly like the serial loop would.

The only switch is the process default: ``HCPP_CRYPTO_WORKERS=N`` or
:func:`configure` (behind the CLI's ``--workers``).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
from typing import Any, Callable, Iterable, Sequence

from repro.exceptions import ParameterError

__all__ = ["CryptoEngine", "default_engine", "configure",
           "MIN_PARALLEL", "CHUNKS_PER_WORKER"]

#: Batches smaller than this run inline in the parent — IPC setup costs
#: more than four pairings, so tiny batches must not touch the pool.
MIN_PARALLEL = 4

#: Chunks submitted per worker; >1 smooths load imbalance (a chunk that
#: finishes early frees its worker for another) without per-item IPC.
CHUNKS_PER_WORKER = 4


def _run_chunk(fn: Callable[[Any], Any],
               chunk: Sequence[Any]) -> list[tuple[bool, Any]]:
    """Apply the task to each item, capturing per-item success/failure.

    Exceptions are captured (not raised) so one bad item cannot hide the
    results — or mask the *earlier* failure — of its chunk-mates; the
    parent restores serial-identical first-failure semantics.  Runs in
    pool processes and inline in the parent alike.
    """
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


class CryptoEngine:
    """A lazily started pool of crypto worker processes.

    ``workers <= 1`` is a valid configuration that never forks: every
    ``map`` runs inline.  The pool itself is created on first parallel
    use, so constructing an engine costs nothing until a batch actually
    crosses ``MIN_PARALLEL``.
    """

    def __init__(self, workers: int) -> None:
        if workers < 0:
            raise ParameterError("workers must be >= 0, got %d" % workers)
        self.workers = workers
        self._lock = threading.Lock()
        self._pool: multiprocessing.pool.Pool | None = None

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "multiprocessing.pool.Pool | None":
        """Create the pool if needed; returns it (None when serial-only).

        ``fork`` is preferred — workers inherit the parent's warm
        prepared-pairing registries for free — with ``spawn`` as the
        portable fallback.
        """
        if self.workers <= 1:
            return None
        with self._lock:
            if self._pool is None:
                try:
                    ctx = multiprocessing.get_context("fork")
                except ValueError:  # pragma: no cover - non-POSIX
                    ctx = multiprocessing.get_context("spawn")
                self._pool = ctx.Pool(self.workers)
            return self._pool

    def close(self) -> None:
        """Shut the pool down; the engine can be started again later."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()
            pool.join()

    # -- execution -------------------------------------------------------
    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        """Apply module-level task ``fn`` to every item; results in order.

        Semantics match ``[fn(item) for item in items]`` exactly,
        including which exception propagates when several items fail
        (the earliest).  Batches below ``MIN_PARALLEL`` — and every
        batch on a ``workers <= 1`` engine — run inline.
        """
        batch = list(items)
        if not batch:
            return []
        pool = None
        if len(batch) >= MIN_PARALLEL:
            pool = self.start()
        if pool is None:
            return _collect(_run_chunk(fn, batch))
        size = -(-len(batch) // (self.workers * CHUNKS_PER_WORKER))
        chunks = [batch[i:i + size] for i in range(0, len(batch), size)]
        try:
            chunked = pool.starmap(_run_chunk,
                                   [(fn, chunk) for chunk in chunks])
        except Exception:
            # A torn-down or crashed pool must never lose user work:
            # recompute inline, which also surfaces the real task error.
            return _collect(_run_chunk(fn, batch))
        return _collect(pair for chunk in chunked for pair in chunk)


# ---------------------------------------------------------------------------
# Process-wide default engine: HCPP_CRYPTO_WORKERS=N (unset/0 → disabled),
# or `configure` (the CLI's --workers).  This is the only way to turn the
# pool on; the PEKS batch tests consult it on every call.
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


def configure(workers: int) -> CryptoEngine | None:
    """Install (workers > 1) or clear (workers <= 1) the default engine.

    Used by the CLI's ``--workers`` flag and by tests; any previously
    installed default is closed.  Returns the new default (or None).
    """
    global _default_engine, _default_resolved
    new = CryptoEngine(workers) if workers > 1 else None
    with _default_lock:
        old, _default_engine = _default_engine, new
        _default_resolved = True
    if old is not None:
        old.close()
    return new
