"""HCPP end-to-end benchmark: one workload per run, metrics as JSON.

Usage (from the repository root)::

    python3 hcppbench/run.py --workload search --seed 1 --seconds 20 --trace 0
    python3 hcppbench/run.py --workload all --seed 2 --seconds 20

``--trace 0`` sets the deployment up several times (``setup_s`` is the
median), runs the seeded closed-loop mix for ``--seconds``, then the
workload's closing phase, and reports the end-to-end metrics.  Times
are normalised to a fixed host speed by the probe of :mod:`hostspeed`,
run after every round and every set-up step; the wall-clock figures
are printed beside them.
``--trace 1`` runs a fixed number of rounds three times (bare, under
the layer spans of :mod:`spans`, bare again) and reports per-layer
means per round of the traced pass plus the tracing overhead.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed``, ``metrics``.
``--workload all`` runs the three workloads in turn and also prints
every round metric under its round's name.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Program knobs stay at their defaults: drop any HCPP_* override.
for _name in [n for n in os.environ if n.startswith("HCPP_")]:
    del os.environ[_name]
sys.path.insert(0, str(ROOT / "src"))
try:
    # The program under test is the checkout's own source tree, never
    # a copy installed elsewhere.
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise ImportError("no src/repro package in the checkout")
    from repro.crypto import engine as _engine, fpbackend as _fpbackend
    from repro.crypto.pairing import clear_pairing_cache
    from repro.sse.index import clear_index_cache, index_cache_capacity
except ImportError as _exc:
    sys.stderr.write("hcppbench: cannot import the HCPP program from %s: "
                     "%s\n" % (ROOT / "src", _exc))
    sys.exit(2)

import hostspeed  # noqa: E402
from workloads import WORKLOADS, WrongResult  # noqa: E402

END_TO_END = (
    ("setup_s", "s"), ("setup_peak_rss_mib", "MiB"),
    ("main_p50_norm_ms", "ms"), ("second_p50_norm_ms", "ms"),
    ("mix_p50_norm_ms", "ms"))


class RoundLog:
    """Every round: [kind, seconds, failure or None, bytes, phase]."""

    def __init__(self) -> None:
        self.rounds: list = []

    def fail_late(self, position, reason: str) -> None:
        """A check after the round (audit, durability) failed it."""
        if position is None:  # an upload acknowledged during set-up
            self.rounds.append(["setup-upload", 0.0, reason, 0, "setup"])
        elif self.rounds[position][2] is None:
            self.rounds[position][2] = reason

    def samples_ms(self, kind: str, phase: str) -> list:
        return [r[1] * 1000.0 for r in self.rounds
                if r[0] == kind and r[2] is None and r[4] == phase]

    def normalised_ms(self, kind: str, probes: list) -> list:
        """The first ``len(probes)`` rounds' times of ``kind``, each
        normalised by the host-speed probes around it."""
        count = len(probes)
        scaled = hostspeed.normalised(
            [r[1] * 1000.0 for r in self.rounds[:count]], probes)
        return [value for r, value in zip(self.rounds[:count], scaled)
                if r[0] == kind and r[2] is None]

    def failed(self) -> int:
        return sum(1 for r in self.rounds if r[2] is not None)

    def failures(self) -> dict:
        out: dict = {}
        for kind, _s, failure, _b, _p in self.rounds:
            if failure is not None:
                out.setdefault(kind, {}).setdefault(failure, 0)
                out[kind][failure] += 1
        return out


def run_round(workload, spec, log: RoundLog, phase: str,
              tracer=None) -> None:
    """Execute one round (timed), then check it (untimed)."""
    kind = spec[0]
    workload.position = len(log.rounds)
    failure, result, nbytes = None, None, 0
    if tracer is not None:
        tracer.begin(kind)
    started = time.perf_counter()
    try:
        result = workload.execute(spec)
    except Exception as exc:  # typed or not, a failed round is counted
        failure = type(exc).__name__
    elapsed = time.perf_counter() - started
    if tracer is not None:
        tracer.end(elapsed)
    if failure is None:
        try:
            nbytes = workload.check(spec, result)
        except WrongResult:
            failure = "WrongResult"
        except Exception as exc:
            failure = type(exc).__name__
    log.rounds.append([kind, elapsed, failure, nbytes, phase])


def p50(samples: list) -> float:
    return statistics.median(samples) if samples else float("nan")


def p90(samples: list) -> float:
    """Nearest-rank 90th percentile."""
    if not samples:
        return float("nan")
    ordered = sorted(samples)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(workload, **run) -> dict:
    engine = _engine.default_engine()
    env = {"cpu_count": os.cpu_count(),
           "python": platform.python_version(),
           "fp_backend": _fpbackend.active_backend().name,
           "engine_workers": engine.workers if engine is not None else 0,
           "index_cache_capacity": index_cache_capacity()}
    env.update(workload.environment())
    env.update(run)
    return env


def run_untraced(cls, seed: int, seconds: int, work_root: str) -> dict:
    hostspeed.warm_up()
    setup_s, setup_norm_s = [], []
    for repeat in range(cls.setup_repeats):
        if repeat:
            workload.teardown()
            gc.collect()
        clear_index_cache()
        clear_pairing_cache()
        workload = cls(seed, work_root)
        watch = hostspeed.Stopwatch()
        workload.tick = watch.tick
        workload.setup()
        watch.tick()
        del workload.tick
        setup_s.append(watch.wall_s())
        setup_norm_s.append(watch.normalised_s())
    # Read before the timed loop: what the loop stores grows with its
    # speed, so a later peak would penalise a faster program.
    setup_rss = peak_rss_mib()
    log = RoundLog()
    probes: list = []
    try:
        started = time.perf_counter()
        deadline = started + seconds
        while time.perf_counter() < deadline:
            run_round(workload, workload.draw(), log, "timed")
            probes.append(hostspeed.probe_ms())
        timed_s = time.perf_counter() - started
        closing = workload.close(log)
        env = environment(workload, seed=seed, seconds=seconds)
    finally:
        workload.teardown()
    (main, _), (second, _) = cls.mix[:2]
    samples = {kind: log.samples_ms(kind, "timed") for kind, _ in cls.mix}
    if "verify_ms" in closing:
        samples["verify"] = closing["verify_ms"]
    norm = {kind: log.normalised_ms(kind, probes) for kind, _ in cls.mix}
    deck = sum(weight for _, weight in cls.mix)
    metrics = {
        "setup_s": statistics.median(setup_norm_s),
        "setup_peak_rss_mib": setup_rss,
        "main_p50_norm_ms": p50(norm[main]),
        "second_p50_norm_ms": p50(norm[second]),
        # Every kind's median weighted by its share of the mix: a stall
        # of the host moves a median far less than a mean.
        "mix_p50_norm_ms": sum(weight * p50(norm[kind])
                               for kind, weight in cls.mix) / deck,
    }
    # The same figures under the names of the rounds they measure, and
    # the wall-clock figures beside them.
    named = {"setup_s": metrics["setup_s"],
             "setup_wall_s": statistics.median(setup_s),
             "probe_p50_ms": p50(probes),
             "error_rate": log.failed() / max(len(log.rounds), 1),
             "setup_peak_rss_mib": setup_rss,
             "peak_rss_mib": peak_rss_mib()}
    for kind, values in norm.items():
        named["%s_p50_norm_ms" % kind] = p50(values)
    for kind, values in samples.items():
        named["%s_p50_ms" % kind] = p50(values)
    named["%s_p90_ms" % main] = p90(samples[main])
    if cls.name == "ingest":
        done = [r for r in log.rounds if r[2] is None and r[4] == "timed"]
        named["ingest_kib_s"] = (sum(r[3] for r in done) / 1024.0
                                 / sum(r[1] for r in done))
    if "recover_s" in closing:
        named["recover_s"] = closing["recover_s"]
    return {"log": log, "metrics": metrics, "named": named, "env": env,
            "setup_runs_s": setup_norm_s, "timed_s": timed_s,
            "sample_counts": {k: len(v) for k, v in samples.items()},
            "closing": {k: v for k, v in closing.items() if k != "verify_ms"}}


def run_traced(cls, seed: int, work_root: str) -> dict:
    import spans

    workload = cls(seed, work_root)
    workload.setup()
    specs = [workload.draw() for _ in range(cls.trace_rounds)]
    log = RoundLog()
    tracer = spans.Tracer()
    uninstall = None
    try:
        # bare, traced, bare: the overhead compares the traced pass with
        # the mean of the bare passes around it, so cache warmth favours
        # neither side.
        for spec in specs:
            run_round(workload, spec, log, "bare")
        uninstall = spans.install(tracer)
        for spec in specs:
            run_round(workload, spec, log, "traced", tracer)
        uninstall()
        uninstall = None
        for spec in specs:
            run_round(workload, spec, log, "bare")
        uninstall = spans.install(tracer)
        tracer.begin("close")
        workload.close(log)
        tracer.active = False
        env = environment(workload, seed=seed, rounds=len(specs))
    finally:
        if uninstall is not None:
            uninstall()
        workload.teardown()
    kinds = [k for k in tracer.counts if k != "close"]

    def merged(table) -> dict:
        out: dict = {}
        for kind in kinds:
            for name, value in table[kind].items():
                out[name] = out.get(name, 0) + value
        return out

    counts = merged(tracer.counts)
    metrics = spans.per_round(merged(tracer.self_s), counts,
                              counts.get("rounds", 0))
    metrics["store.recovery.frames"] = tracer.counts["close"].get(
        "store.recovery.frames", 0)
    metrics["error_rate"] = log.failed() / max(len(log.rounds), 1)
    n = len(specs)
    passes = [log.rounds[i * n:(i + 1) * n] for i in range(3)]
    ok = [all(r[2] is None for r in rounds) for rounds in zip(*passes)]
    bare = sum((a[1] + c[1]) / 2 for a, c, good
               in zip(passes[0], passes[2], ok) if good)
    traced = sum(b[1] for b, good in zip(passes[1], ok) if good)
    metrics["trace_overhead_pct"] = ((traced / bare - 1.0) * 100.0
                                     if bare else 0.0)
    by_kind = {kind: spans.per_round(tracer.self_s[kind],
                                     tracer.counts[kind],
                                     tracer.counts[kind]["rounds"])
               for kind in kinds}
    return {"log": log, "metrics": metrics, "by_kind": by_kind, "env": env}


def report(name: str, result: dict, trace: bool) -> None:
    """Human-readable lines ahead of the final JSON line."""
    print("== %s (%s)" % (name, "traced" if trace else "untraced"))
    print("env %s" % json.dumps(result["env"], sort_keys=True))
    log = result["log"]
    print("rounds attempted=%d failed=%d failures_by_kind=%s"
          % (len(log.rounds), log.failed(), json.dumps(log.failures(),
                                                       sort_keys=True)))
    if trace:
        for kind, layers in sorted(result["by_kind"].items()):
            print("layers[%s] %s" % (kind, json.dumps(
                {k: round(v, 4) for k, v in layers.items() if v},
                sort_keys=True)))
        return
    print("setup runs_s (normalised) %s" % json.dumps(
        [round(s, 4) for s in result["setup_runs_s"]]))
    print("samples %s timed_s %.3f" % (json.dumps(result["sample_counts"],
                                                  sort_keys=True),
                                       result["timed_s"]))
    print("closing %s" % json.dumps(result["closing"], sort_keys=True))
    for metric, value in result["named"].items():
        print("  %-22s %12.4f %s" % (metric, value, _unit(metric)))


def _unit(metric: str) -> str:
    for suffix, unit in (("_kib_s", "KiB/s"), ("_ms", "ms"), ("_s", "s"),
                         ("_mib", "MiB"), ("_rate", "fraction")):
        if metric.endswith(suffix):
            return unit
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict = {}
    # Durable shards journal under the checkout, in a directory of this
    # process's own (removed on exit).
    # A SIGTERM unwinds like an exception, so the endpoints are closed
    # and the journals removed on that path too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    work_root = tempfile.mkdtemp(prefix=".hcppbench-", dir=ROOT)
    try:
        for name in names:
            cls = WORKLOADS[name]
            result = (run_traced(cls, args.seed, work_root) if args.trace
                      else run_untraced(cls, args.seed, args.seconds,
                                        work_root))
            report(name, result, bool(args.trace))
            attempted += len(result["log"].rounds)
            failed += result["log"].failed()
            if args.workload != "all":
                metrics = result["metrics"]
            elif args.trace:
                metrics.update({"%s.%s" % (name, k): v
                                for k, v in result["metrics"].items()})
            else:
                for metric, value in result["named"].items():
                    shared = metric in ("setup_s", "setup_wall_s",
                                        "probe_p50_ms", "error_rate",
                                        "setup_peak_rss_mib", "peak_rss_mib",
                                        "recover_s")
                    metrics[("%s.%s" % (metric, name)) if shared
                            else metric] = value
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    if args.trace:
        import spans
        units = spans.unit_of
    else:
        units = dict(END_TO_END).get
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value,
                           "unit": units(name) or _unit(name) or "count"}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
