"""Layer spans for the traced run, installed from outside the program.

:func:`install` wraps the public functions of each layer named in
:data:`LAYERS` with a timing span: class methods are patched in place,
and a module-level function is rebound in every ``repro.*`` module that
holds it by name (``seal`` inside ``protocols.retrieval``, ...).  Each
wrapper calls the original and re-raises whatever it raises, so every
check in the program still runs.  :func:`install` returns a function
that puts every original back.

Spans nest on a per-thread stack (``AsyncTransport`` serves each frame
on a handler thread, the router scatters on a pool).  A span's *self
time* is its duration minus its children on the same thread.  Only one
round is in flight at a time, so every span that closes while a round
is open, on any thread, is charged to that round.  The transport's
carry time is the request's duration minus the time the serving
endpoint spent in ``handle_frame`` for the same frame bytes on its own
thread.

The untraced run never imports this module.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

from repro.store.journal import K_FRAME

# (layer, "module:Class.method" or "module:function", counter hook name)
# A hook name of None records time only.  Same-layer nesting collapses
# into the outermost span, so e.g. ``seal_role_key`` calling
# ``extract_role_key`` is one A-server call.
LAYERS = [
    ("crypto.pairing", "repro.crypto.pairing:tate_pairing", "calls"),
    ("crypto.pairing", "repro.crypto.pairing:PreparedPairing.pair", "calls"),
    ("crypto.pairing", "repro.crypto.pairing:pairing_product", "calls"),
    ("crypto.pairing", "repro.crypto.pairing:prepared", None),
    ("crypto.nike", "repro.crypto.nike:shared_key_from_points", "calls"),
    ("crypto.nike", "repro.crypto.nike:shared_key", "calls"),
    ("crypto.ibs", "repro.crypto.ibs:sign", "calls"),
    ("crypto.ibs", "repro.crypto.ibs:verify", "calls"),
    ("crypto.ibs", "repro.crypto.ibs:verify_or_raise", "calls"),
    ("crypto.ibs", "repro.crypto.ibs:batch_verify", "calls"),
    ("crypto.ibe", "repro.crypto.ibe:BasicIdent.encrypt", "calls"),
    ("crypto.ibe", "repro.crypto.ibe:BasicIdent.decrypt", "calls"),
    ("crypto.ibe", "repro.crypto.ibe:FullIdent.encrypt", "calls"),
    ("crypto.ibe", "repro.crypto.ibe:FullIdent.decrypt", "calls"),
    ("crypto.ibe", "repro.crypto.ibe:encrypt_to_point", "calls"),
    ("crypto.ibe", "repro.crypto.ibe:decrypt_with_point", "calls"),
    ("crypto.ibe", "repro.crypto.ibe:PrivateKeyGenerator.extract", "calls"),
    ("crypto.peks", "repro.crypto.peks:RolePeks.tag", None),
    ("crypto.peks", "repro.crypto.peks:RolePeks.test", "peks_one"),
    ("crypto.peks", "repro.crypto.peks:RolePeks.test_batch", "peks_batch"),
    ("crypto.peks", "repro.crypto.peks:MultiKeywordPeks.tag", None),
    ("crypto.peks", "repro.crypto.peks:MultiKeywordPeks.test", "peks_one"),
    ("crypto.peks", "repro.crypto.peks:MultiKeywordPeks.test_batch",
     "peks_batch"),
    ("crypto.peks", "repro.crypto.peks:MultiKeywordPeks.test_all", None),
    ("crypto.hmac_impl", "repro.crypto.hmac_impl:hmac_sha256", "hmac"),
    ("crypto.hmac_impl", "repro.crypto.hmac_impl:verify_hmac", None),
    ("crypto.aes", "repro.crypto.aes:AES.__init__", None),
    ("crypto.aes", "repro.crypto.aes:AES.encrypt_block", "blocks"),
    ("crypto.aes", "repro.crypto.aes:AES.decrypt_block", "blocks"),
    ("crypto.modes", "repro.crypto.modes:ctr_transform", "modes_bytes"),
    ("crypto.modes", "repro.crypto.modes:cbc_encrypt", "modes_bytes"),
    ("crypto.modes", "repro.crypto.modes:cbc_decrypt", "modes_bytes"),
    ("crypto.modes", "repro.crypto.modes:SemanticCipher.encrypt", None),
    ("crypto.modes", "repro.crypto.modes:SemanticCipher.decrypt", None),
    ("crypto.modes", "repro.crypto.modes:AuthenticatedCipher.encrypt", None),
    ("crypto.modes", "repro.crypto.modes:AuthenticatedCipher.decrypt", None),
    ("sse.index.build", "repro.sse.index:build_secure_index", "calls"),
    ("sse.index.search", "repro.sse.index:SecureIndex.search", "search"),
    ("sse.index.parse", "repro.sse.index:SecureIndex.from_bytes", None),
    ("sse.index.parse", "repro.sse.index:load_index_cached", None),
    ("core.aserver", "repro.core.aserver:StateAServer.register_pdevice",
     "calls"),
    ("core.aserver", "repro.core.aserver:StateAServer.authenticate_emergency",
     "calls"),
    ("core.aserver", "repro.core.aserver:StateAServer.extract_role_key",
     "calls"),
    ("core.aserver", "repro.core.aserver:StateAServer.seal_role_key",
     "calls"),
    ("core.auditlog", "repro.core.auditlog:AuditLog.append", "appends"),
    ("core.sserver.search", "repro.core.sserver:StorageServer.handle_search",
     None),
    ("core.sserver.search",
     "repro.core.sserver:StorageServer.handle_search_session", None),
    ("core.sserver.search",
     "repro.core.sserver:StorageServer.handle_search_batch", None),
    ("core.sserver.search",
     "repro.core.sserver:StorageServer.handle_search_each", None),
    ("core.sserver.search",
     "repro.core.sserver:StorageServer.handle_search_shard", None),
    ("core.sserver.search",
     "repro.core.sserver:StorageServer.handle_search_merge", None),
    ("core.sserver.search",
     "repro.core.sserver:StorageServer.handle_search_multi", None),
    ("core.sserver.search",
     "repro.core.sserver:StorageServer.handle_get_broadcast", None),
    ("core.sserver.search",
     "repro.core.sserver:StorageServer.handle_search_wrapped", None),
    ("core.sserver.store", "repro.core.sserver:StorageServer.handle_store",
     None),
    ("core.sserver.store",
     "repro.core.sserver:StorageServer.handle_store_serialized", None),
    ("core.sserver.store",
     "repro.core.sserver:StorageServer.handle_mhi_store", None),
    ("core.sserver.mhi_search",
     "repro.core.sserver:StorageServer.handle_mhi_search", None),
    ("core.router", "repro.core.router:RouterEndpoint.handle_frame",
     "router_frame"),
    ("core.router", "repro.core.router:RouterEndpoint._forward", "legs"),
    ("core.router", "repro.core.router:RouterEndpoint._first_result",
     "hedges"),
    ("core.router.wait", "repro.core.router:RouterEndpoint._scatter", None),
    ("core.dispatch", "repro.core.dispatch:Endpoint.handle_frame",
     "dispatch_frame"),
    ("core.wire", "repro.core.wire:make_frame", "frames"),
    ("core.wire", "repro.core.wire:parse_frame", None),
    ("core.wire", "repro.core.wire:ok_response", None),
    ("core.wire", "repro.core.wire:error_response", None),
    ("core.wire", "repro.core.wire:partial_response", None),
    ("core.wire", "repro.core.wire:parse_response", None),
    ("core.wire", "repro.core.wire:parse_partial", None),
    ("core.wire", "repro.core.wire:transient_error_in", None),
    ("core.wire", "repro.core.wire:encode_files", None),
    ("core.wire", "repro.core.wire:decode_files", None),
    ("core.wire", "repro.core.wire:files_digest", None),
    ("core.wire", "repro.core.wire:seal_internal_frame", None),
    ("core.wire", "repro.core.wire:open_internal_frame", None),
    ("core.wire", "repro.core.wire:wrap_corr", None),
    ("core.wire", "repro.core.wire:unwrap_corr", None),
    ("core.messages", "repro.core.protocols.messages:seal", "seals"),
    ("core.messages", "repro.core.protocols.messages:open_envelope",
     "opens"),
    ("core.messages",
     "repro.core.protocols.messages:ReplayGuard.check_and_remember",
     "guard"),
    ("core.messages", "repro.core.protocols.messages:Envelope.to_bytes",
     None),
    ("core.messages", "repro.core.protocols.messages:Envelope.from_bytes",
     None),
    ("store.journal.append", "repro.store.journal:JournalWriter.append",
     "journal_append"),
    ("store.journal.fsync", "repro.store.journal:JournalWriter.sync",
     "fsyncs"),
    ("store.durable", "repro.store.durable:DurableEndpoint.handle_frame",
     "durable_frame"),
    ("store.durable", "repro.store.durable:DurableEndpoint._commit", None),
    ("store.durable", "repro.store.durable:DurableEndpoint.recover", None),
    ("store.recovery", "repro.store.durable:DurableStore.read",
     "recovery_read"),
    ("net.transport", "repro.net.transport.base:Transport.request",
     "transport"),
    ("net.transport", "repro.net.transport.base:Transport.notify",
     "transport"),
    ("net.transport", "repro.net.transport.base:Transport._attempt",
     "attempts"),
]

# Every public class of the entities module is one layer.
ENTITY_CLASSES = ("Patient", "_PrivilegedEntity", "Family", "PDevice",
                  "Physician")

# Hooks that also count when the call is nested inside a span of the
# same layer (the primitive sits under a wrapper of its own layer).
_COUNT_NESTED = {"modes_bytes", "blocks", "hmac", "attempts", "frames",
                 "legs", "hedges", "guard"}

# Wrappers whose first argument after ``self`` is a whole wire frame:
# the top-level one on a serving thread is the endpoint the transport
# delivered the frame to.
_FRAME_ENTRIES = {"router_frame", "dispatch_frame", "durable_frame"}


class _Span:
    __slots__ = ("layer", "start", "child")

    def __init__(self, layer: str, start: float) -> None:
        self.layer = layer
        self.start = start
        self.child = 0.0


class Tracer:
    """Span stacks per thread, totals per round kind."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.main_thread()
        self.active = False
        self.kind = None
        # Seconds of self time and counter values, by round kind.
        self.self_s = defaultdict(lambda: defaultdict(float))
        self.counts = defaultdict(lambda: defaultdict(int))
        # Frame bytes -> seconds its serving endpoint spent in handle_frame.
        self._served: dict[bytes, float] = {}
        self._client_spans_s = 0.0

    # -- rounds ---------------------------------------------------------------
    def begin(self, kind: str) -> None:
        self.kind = kind
        self._client_spans_s = 0.0
        self._served.clear()
        self.active = True

    def end(self, round_s: float) -> None:
        """Close the round; charge the client's unspanned time."""
        self.active = False
        with self._lock:
            self.self_s[self.kind]["bench.client"] += max(
                0.0, round_s - self._client_spans_s)
            self.self_s[self.kind]["bench.round"] += round_s
            self.counts[self.kind]["rounds"] += 1

    def count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counts[self.kind][name] += value

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- the wrapper ----------------------------------------------------------
    def wrap(self, layer: str, fn, hook=None, *, count_nested=False,
             frame_entry=False, carry=False):
        """``fn`` inside a span of ``layer``; ``hook(tracer, args, result,
        exc, nested)`` updates counters after each call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack and stack[-1].layer == layer:
                if hook is None or not count_nested:
                    return fn(*args, **kwargs)
                result = exc = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                except BaseException as error:
                    exc = error
                    raise
                finally:
                    hook(tracer, args, result, exc, True)
            span = _Span(layer, time.perf_counter())
            stack.append(span)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                stack.pop()
                duration = time.perf_counter() - span.start
                if stack:
                    stack[-1].child += duration
                tracer._close(layer, duration - span.child, duration, args,
                              top=not stack, frame_entry=frame_entry,
                              carry=carry)
                if hook is not None:
                    hook(tracer, args, result, exc, False)

        return traced

    def _close(self, layer, own, duration, args, *, top, frame_entry,
               carry) -> None:
        with self._lock:
            if carry:
                # Carry = request time minus the serving endpoint's
                # handle_frame time for the same frame bytes.
                own -= self._served.pop(args[3], 0.0)
            self.self_s[self.kind][layer] += own
            if not top:
                return
            if threading.current_thread() is self._main:
                self._client_spans_s += duration
            elif frame_entry:
                self._served[args[1]] = (self._served.get(args[1], 0.0)
                                         + duration)


# -- counter hooks: (tracer, args, result, exc, nested) ---------------------
def _calls(counter):
    def hook(tracer, args, result, exc, nested):
        tracer.count(counter)
    return hook


def _peks_one(tracer, args, result, exc, nested):
    tracer.count("crypto.peks.tests")
    if result:
        tracer.count("crypto.peks.matches")


def _peks_batch(tracer, args, result, exc, nested):
    tracer.count("crypto.peks.tests", len(args[0]))
    if result:
        tracer.count("crypto.peks.matches", sum(1 for hit in result if hit))


def _hmac(tracer, args, result, exc, nested):
    tracer.count("crypto.hmac_impl.calls")
    tracer.count("crypto.hmac_impl.bytes", len(args[1]))


def _modes_bytes(tracer, args, result, exc, nested):
    tracer.count("crypto.modes.bytes", len(args[2]))


def _search(tracer, args, result, exc, nested):
    tracer.count("sse.index.search.calls")
    if result is not None:
        tracer.count("sse.index.search.results", len(result))


def _router_frame(tracer, args, result, exc, nested):
    tracer.count("core.router.frames")
    if result is not None and result[:1] == b"\x02":
        tracer.count("core.router.partials")


def _dispatch_frame(tracer, args, result, exc, nested):
    tracer.count("core.dispatch.frames")
    if exc is not None or (result is not None and result[:1] == b"\x01"):
        tracer.count("core.dispatch.errors")


def _frames(tracer, args, result, exc, nested):
    if result is not None:
        tracer.count("core.wire.frames")
        tracer.count("core.wire.bytes", len(result))


def _is_replay(exc) -> bool:
    return type(exc).__name__ == "ReplayError"


def _opens(tracer, args, result, exc, nested):
    tracer.count("core.messages.opens")
    if _is_replay(exc):
        tracer.count("core.messages.replay_rejects")


def _guard(tracer, args, result, exc, nested):
    # Inside open_envelope the rejection is counted by open_envelope.
    if _is_replay(exc) and not nested:
        tracer.count("core.messages.replay_rejects")


def _journal_append(tracer, args, result, exc, nested):
    tracer.count("store.journal.appends")
    tracer.count("store.journal.bytes", len(args[2]))


def _recovery_read(tracer, args, result, exc, nested):
    if result is not None:
        tracer.count("store.recovery.frames",
                     sum(1 for record in result if record.kind == K_FRAME))


def _transport(tracer, args, result, exc, nested):
    tracer.count("net.transport.requests")
    tracer.count("net.transport.bytes",
                 len(args[3]) + (len(result) if result is not None else 0))


_HOOKS = {
    "peks_one": _peks_one,
    "peks_batch": _peks_batch,
    "hmac": _hmac,
    "blocks": _calls("crypto.aes.blocks"),
    "modes_bytes": _modes_bytes,
    "search": _search,
    "appends": _calls("core.auditlog.appends"),
    "router_frame": _router_frame,
    "legs": _calls("core.router.legs"),
    "hedges": _calls("core.router.hedges"),
    "dispatch_frame": _dispatch_frame,
    "frames": _frames,
    "seals": _calls("core.messages.seals"),
    "opens": _opens,
    "guard": _guard,
    "journal_append": _journal_append,
    "fsyncs": _calls("store.journal.fsyncs"),
    "recovery_read": _recovery_read,
    "transport": _transport,
    "attempts": _calls("net.transport.attempts"),
}


def _resolve(target: str):
    module_name, _, qualname = target.partition(":")
    module = importlib.import_module(module_name)
    owner, _, name = qualname.rpartition(".")
    cls = getattr(module, owner) if owner else None
    return module, cls, name


def install(tracer: Tracer):
    """Wrap every layer function; returns the function that unwraps."""
    undo = []
    targets = list(LAYERS)
    for cls_name in ENTITY_CLASSES:
        cls = getattr(importlib.import_module("repro.core.entities"),
                      cls_name)
        for name, value in vars(cls).items():
            if not name.startswith("_") and callable(value):
                targets.append(("core.entities", "repro.core.entities:%s.%s"
                                % (cls_name, name), None))
    repro_modules = [module for name, module in list(sys.modules.items())
                     if module is not None
                     and (name == "repro" or name.startswith("repro."))]
    for layer, target, hook_name in targets:
        module, cls, name = _resolve(target)
        hook = (_calls(layer + ".calls") if hook_name == "calls"
                else _HOOKS.get(hook_name))
        options = {"count_nested": hook_name in _COUNT_NESTED,
                   "frame_entry": hook_name in _FRAME_ENTRIES,
                   "carry": hook_name == "transport"}
        if cls is not None:
            raw = cls.__dict__[name]
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(tracer.wrap(layer, raw.__func__, hook,
                                                **options))
            else:
                wrapped = tracer.wrap(layer, raw, hook, **options)
            setattr(cls, name, wrapped)
            undo.append((cls, name, raw))
            continue
        original = getattr(module, name)
        wrapped = tracer.wrap(layer, original, hook, **options)
        for holder in repro_modules:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, wrapped)
                    undo.append((holder, attr, original))

    def uninstall() -> None:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)
    return uninstall


# -- the reported per-layer metrics ----------------------------------------
def unit_of(metric: str) -> str:
    """The unit of one per-layer metric, read off its name."""
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith(".bytes"):
        return "B"
    if metric.endswith("_pct"):
        return "%"
    if metric.endswith(("_ratio", "_rate")):
        return "fraction"
    return "count"


def per_round(totals_s, counts, rounds: int) -> dict:
    """Per-round means of one set of totals (all kinds or one kind)."""
    n = max(rounds, 1)

    def ms(layer):
        return totals_s.get(layer, 0.0) * 1000.0 / n

    def per(counter):
        return counts.get(counter, 0) / n

    tests = counts.get("crypto.peks.tests", 0)
    requests = counts.get("net.transport.requests", 0)
    return {
        "crypto.pairing.calls": per("crypto.pairing.calls"),
        "crypto.pairing.self_ms": ms("crypto.pairing"),
        "crypto.nike.calls": per("crypto.nike.calls"),
        "crypto.nike.self_ms": ms("crypto.nike"),
        "crypto.ibs.calls": per("crypto.ibs.calls"),
        "crypto.ibs.self_ms": ms("crypto.ibs"),
        "crypto.ibe.calls": per("crypto.ibe.calls"),
        "crypto.ibe.self_ms": ms("crypto.ibe"),
        "crypto.peks.tests": per("crypto.peks.tests"),
        "crypto.peks.match_ratio": (counts.get("crypto.peks.matches", 0)
                                    / tests if tests else 0.0),
        "crypto.peks.self_ms": ms("crypto.peks"),
        "crypto.hmac_impl.calls": per("crypto.hmac_impl.calls"),
        "crypto.hmac_impl.bytes": per("crypto.hmac_impl.bytes"),
        "crypto.hmac_impl.self_ms": ms("crypto.hmac_impl"),
        "crypto.aes.blocks": per("crypto.aes.blocks"),
        "crypto.aes.self_ms": ms("crypto.aes"),
        "crypto.modes.bytes": per("crypto.modes.bytes"),
        "crypto.modes.self_ms": ms("crypto.modes"),
        "sse.index.build.calls": per("sse.index.build.calls"),
        "sse.index.build.self_ms": ms("sse.index.build"),
        "sse.index.search.calls": per("sse.index.search.calls"),
        "sse.index.search.results": per("sse.index.search.results"),
        "sse.index.search.self_ms": ms("sse.index.search"),
        "sse.index.parse.self_ms": ms("sse.index.parse"),
        "core.entities.self_ms": ms("core.entities"),
        "core.aserver.calls": per("core.aserver.calls"),
        "core.aserver.self_ms": ms("core.aserver"),
        "core.auditlog.appends": per("core.auditlog.appends"),
        "core.auditlog.self_ms": ms("core.auditlog"),
        "core.sserver.search.self_ms": ms("core.sserver.search"),
        "core.sserver.store.self_ms": ms("core.sserver.store"),
        "core.sserver.mhi_search.self_ms": ms("core.sserver.mhi_search"),
        "core.router.frames": per("core.router.frames"),
        "core.router.legs": per("core.router.legs"),
        "core.router.partials": per("core.router.partials"),
        "core.router.hedges": per("core.router.hedges"),
        "core.router.wait_ms": ms("core.router.wait"),
        "core.router.self_ms": ms("core.router"),
        "core.dispatch.frames": per("core.dispatch.frames"),
        "core.dispatch.errors": per("core.dispatch.errors"),
        "core.dispatch.self_ms": ms("core.dispatch"),
        "core.wire.frames": per("core.wire.frames"),
        "core.wire.bytes": per("core.wire.bytes"),
        "core.wire.self_ms": ms("core.wire"),
        "core.messages.seals": per("core.messages.seals"),
        "core.messages.opens": per("core.messages.opens"),
        "core.messages.replay_rejects": per("core.messages.replay_rejects"),
        "core.messages.self_ms": ms("core.messages"),
        "store.journal.appends": per("store.journal.appends"),
        "store.journal.bytes": per("store.journal.bytes"),
        "store.journal.append_ms": ms("store.journal.append"),
        "store.journal.fsyncs": per("store.journal.fsyncs"),
        "store.journal.fsync_ms": ms("store.journal.fsync"),
        "store.durable.self_ms": ms("store.durable"),
        "net.transport.requests": per("net.transport.requests"),
        "net.transport.bytes": per("net.transport.bytes"),
        "net.transport.retries": (counts.get("net.transport.attempts", 0)
                                  - requests) / n,
        "net.transport.carry_ms": ms("net.transport"),
        "bench.client.self_ms": ms("bench.client"),
        "bench.round_ms": ms("bench.round"),
    }
