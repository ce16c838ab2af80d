"""Standalone before/after benchmark for the hot-path accelerations.

Measures the naive and accelerated variants of the optimisation targets
side by side and appends a run entry to a trajectory JSON file (default
``BENCH_crypto.json`` at the repo root):

1. fixed-base scalar multiplication — generic NAF ``Point.__mul__`` vs the
   windowed :class:`~repro.crypto.precompute.PrecomputedPoint` tables,
2. fixed-first-argument pairing — full ``tate_pairing`` Miller loop vs
   :class:`~repro.crypto.pairing.PreparedPairing` replay,
3. the multi-keyword PEKS scan — serial vs the crypto engine's worker
   pool at 1/2/4 workers,
4. index deserialization — cold ``SecureIndex.from_bytes`` vs cached.

Usage::

    PYTHONPATH=src python benchmarks/run_bench_crypto.py \
        --params ss512 --iters 20 --out BENCH_crypto.json

The crypto sections honour ``--params`` (ss512 = production Type-A,
ss160 = fast test curve); the index-cache section is symmetric-crypto-bound
and does not depend on them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time
from pathlib import Path

from repro.crypto import engine as engine_mod
from repro.crypto.fpbackend import active_backend
from repro.crypto.ibe import PrivateKeyGenerator
from repro.crypto.pairing import (PreparedPairing, clear_pairing_cache,
                                  tate_pairing)
from repro.crypto.params import default_params, test_params
from repro.crypto.peks import MultiKeywordPeks
from repro.crypto.precompute import PrecomputedPoint
from repro.crypto.rng import HmacDrbg
from repro.sse.index import SecureIndex, clear_index_cache, load_index_cached
from repro.sse.scheme import Sse1Scheme, keygen

ENGINE_BATCH = 16
ENGINE_WORKER_STEPS = (1, 2, 4)


def _time(fn, iters: int) -> float:
    """Median seconds per call over ``iters`` calls."""
    samples = []
    for _ in range(iters):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _time_each(fn, args_list) -> float:
    """Median seconds per call, one distinct argument per call."""
    samples = []
    for arg in args_list:
        t0 = time.perf_counter()
        fn(arg)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def bench_scalar_mult(params, iters: int) -> dict:
    G = params.generator
    rng = HmacDrbg(b"bench-runner-mul")
    scalars = [params.random_scalar(rng) for _ in range(iters)]

    naive_s = _time_each(lambda k: G * k, scalars)
    t0 = time.perf_counter()
    table = PrecomputedPoint(G)
    build_s = time.perf_counter() - t0
    fast_s = _time_each(table.multiply, scalars)
    assert table.multiply(scalars[0]) == G * scalars[0]
    return {"naive_ms": naive_s * 1e3, "accelerated_ms": fast_s * 1e3,
            "table_build_ms": build_s * 1e3,
            "speedup": naive_s / fast_s}


def bench_prepared_pairing(params, iters: int) -> dict:
    P = params.generator * 7
    rng = HmacDrbg(b"bench-runner-pair")
    qs = [params.generator * params.random_scalar(rng) for _ in range(iters)]

    clear_pairing_cache()  # distinct Qs anyway; keep the LRU out of it
    naive_s = _time_each(lambda Q: tate_pairing(P, Q), qs)
    t0 = time.perf_counter()
    prep = PreparedPairing(P)
    build_s = time.perf_counter() - t0
    fast_s = _time_each(prep.pair, qs)
    assert prep.pair(qs[0]) == tate_pairing(P, qs[0])
    return {"naive_ms": naive_s * 1e3, "accelerated_ms": fast_s * 1e3,
            "prepare_ms": build_s * 1e3, "speedup": naive_s / fast_s}


def bench_engine_scaling(params, iters: int) -> dict:
    """Per-core scaling of the process-parallel crypto engine.

    Runs the multi-keyword PEKS scan (the S-server's MHI search, the one
    batch the engine serves) serially and under a process default engine
    of 1/2/4 workers installed with
    :func:`~repro.crypto.engine.configure`.  ``cpu_count`` is recorded
    alongside the timings: process pools scale with *cores*, so a
    4-worker speedup is only meaningful relative to the cores the box
    actually has (on a 1-core machine the pooled runs measure pure IPC
    overhead, and a 1-worker default is the serial path itself).
    """
    rng = HmacDrbg(b"bench-runner-engine")
    pkg = PrivateKeyGenerator(params, rng)
    iters = max(2, iters // 4)

    role = "2026|ER|bench"
    role_key = pkg.extract(role)
    peks = MultiKeywordPeks(params, pkg.public_key)
    tags = [peks.tag(role, ["kw-%d" % i, "common"], rng)
            for i in range(ENGINE_BATCH)]
    trapdoor = MultiKeywordPeks.trapdoor(role_key.private, params, "common")

    def scan():
        return MultiKeywordPeks.test_batch(tags, trapdoor)

    per_worker = {}
    try:
        engine_mod.configure(0)
        serial_s = _time(scan, iters)
        for workers in ENGINE_WORKER_STEPS:
            engine = engine_mod.configure(workers)
            if engine is not None:
                engine.start()  # pay the fork outside the timer
            pooled_s = _time(scan, iters)
            per_worker[str(workers)] = {"ms": pooled_s * 1e3,
                                        "speedup": serial_s / pooled_s}
    finally:
        engine_mod.configure(0)
    return {"cpu_count": os.cpu_count(),
            "fp_backend": active_backend().name,
            "multi_keyword_search": {"batch_size": ENGINE_BATCH,
                                     "serial_ms": serial_s * 1e3,
                                     "workers": per_worker}}


def bench_index_cache(iters: int) -> dict:
    rng = HmacDrbg(b"bench-runner-cache")
    scheme = Sse1Scheme(keygen(rng))
    keyword_map = {"kw-%04d" % i: [rng.random_bytes(16)] for i in range(200)}
    blob = scheme.build_index(keyword_map, rng).to_bytes()
    clear_index_cache()
    cold_s = _time(lambda: SecureIndex.from_bytes(blob), iters)
    load_index_cached(blob)
    hot_s = _time(lambda: load_index_cached(blob), iters)
    return {"blob_bytes": len(blob), "cold_ms": cold_s * 1e3,
            "cached_ms": hot_s * 1e3, "speedup": cold_s / hot_s}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--params", choices=["ss512", "ss160"],
                        default="ss512")
    parser.add_argument("--iters", type=int, default=20,
                        help="timing samples per measurement (median kept)")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_crypto.json")
    args = parser.parse_args()
    if args.iters < 1:
        parser.error("--iters must be at least 1")

    params = default_params() if args.params == "ss512" else test_params()
    results = {}
    print("== fixed-base scalar multiplication (%s) ==" % args.params)
    results["scalar_mult"] = bench_scalar_mult(params, args.iters)
    print("   naive %.3f ms  accelerated %.3f ms  speedup %.2fx"
          % (results["scalar_mult"]["naive_ms"],
             results["scalar_mult"]["accelerated_ms"],
             results["scalar_mult"]["speedup"]))
    print("== fixed-argument pairing (%s) ==" % args.params)
    results["prepared_pairing"] = bench_prepared_pairing(params, args.iters)
    print("   naive %.3f ms  accelerated %.3f ms  speedup %.2fx"
          % (results["prepared_pairing"]["naive_ms"],
             results["prepared_pairing"]["accelerated_ms"],
             results["prepared_pairing"]["speedup"]))
    print("== engine per-core scaling (%s, n=%d, %s cores) =="
          % (args.params, ENGINE_BATCH, os.cpu_count()))
    results["engine_scaling"] = bench_engine_scaling(params, args.iters)
    scaling = results["engine_scaling"]["multi_keyword_search"]
    line = "   multi_keyword_search serial %.3f ms" % scaling["serial_ms"]
    for workers in ENGINE_WORKER_STEPS:
        line += "  %dw %.2fx" % (workers,
                                 scaling["workers"][str(workers)]["speedup"])
    print(line)
    print("== index deserialization cache ==")
    results["index_cache"] = bench_index_cache(args.iters)
    print("   cold %.3f ms  cached %.4f ms  speedup %.0fx"
          % (results["index_cache"]["cold_ms"],
             results["index_cache"]["cached_ms"],
             results["index_cache"]["speedup"]))

    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "params": args.params,
        "iters": args.iters,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "results": results,
    }
    trajectory = {"runs": []}
    if args.out.exists():
        try:
            trajectory = json.loads(args.out.read_text())
        except (ValueError, OSError):
            pass
        if not isinstance(trajectory.get("runs"), list):
            trajectory = {"runs": []}
    trajectory["runs"].append(entry)
    args.out.write_text(json.dumps(trajectory, indent=2) + "\n")
    print("appended run to %s (%d run(s) recorded)"
          % (args.out, len(trajectory["runs"])))


if __name__ == "__main__":
    main()
