"""Host-speed probe: a fixed piece of pure-Python work timed between rounds.

The benchmark shares a few cores of a busy host, whose speed drifts by
tens of percent over seconds to minutes; a round's wall time moves with
it.  The probe runs the same work every time, so its duration tracks
that drift and nothing else: it is the benchmark's own code, so no
change to the program can speed it up or slow it down.  Its kernels
mirror the kinds of work the program's rounds spend their time on:
interpreter dispatch over small integers, 512-bit modular arithmetic
(the F_p layer), string formatting with dict inserts and lookups
(field packing, caches), and table lookups over byte buffers followed
by SHA-256 (AES and HMAC).

A round's *normalised* time is its wall time scaled by ``REF_MS`` over
the median probe time of the rounds around it: the round's time on a
host on which the probe takes ``REF_MS``.  ``REF_MS`` is about what the
probe takes on a quiet 2-vCPU x86-64 box, so normalised times read
close to wall times there.  It is a fixed scale: changing it, or the
probe, changes every normalised figure.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import time

#: Probe time, in ms, that normalised times are scaled to.
REF_MS = 0.7
#: Rounds on either side whose probes normalise a round.
WINDOW = 5

_rnd = random.Random("hcppbench/hostspeed")
_P = (1 << 512) - 569
_G = _rnd.getrandbits(510)
_SBOX = list(range(256))
_rnd.shuffle(_SBOX)
_BLOCK = bytes(range(256)) * 4


def _int_loop() -> int:
    x = 3
    for i in range(2000):
        x = (x * x + i) % 1000000007
    return x


def _bigint() -> int:
    x = _G
    for _ in range(120):
        x = x * x % _P
    return x


def _dict_str() -> int:
    table = {}
    for i in range(400):
        table["k%d" % i] = i
    return sum(table["k%d" % i] for i in range(400))


def _bytes_table() -> bytes:
    block = _BLOCK
    for r in range(5):
        block = bytes(_SBOX[v ^ r] for v in block)
    return hashlib.sha256(block).digest()


_KERNELS = (_int_loop, _bigint, _dict_str, _bytes_table)


def probe_ms() -> float:
    """Run the probe once; its wall time in ms."""
    started = time.perf_counter()
    for kernel in _KERNELS:
        kernel()
    return (time.perf_counter() - started) * 1000.0


def warm_up(times: int = 20) -> None:
    for _ in range(times):
        probe_ms()


class Stopwatch:
    """Times a phase step by step, probing the host after each step.

    ``tick()`` ends a step; the probe it runs is not part of any step.
    """

    def __init__(self) -> None:
        self.steps_ms: list = []
        self.probes: list = []
        self.mark = time.perf_counter()

    def tick(self) -> None:
        self.steps_ms.append((time.perf_counter() - self.mark) * 1000.0)
        self.probes.append(probe_ms())
        self.mark = time.perf_counter()

    def wall_s(self) -> float:
        return sum(self.steps_ms) / 1000.0

    def normalised_s(self) -> float:
        return sum(normalised(self.steps_ms, self.probes)) / 1000.0


def normalised(wall: list, probes: list) -> list:
    """Each ``wall[i]`` scaled by ``REF_MS`` over the median of
    ``probes[i - WINDOW : i + WINDOW + 1]``."""
    out = []
    for i, value in enumerate(wall):
        around = probes[max(0, i - WINDOW):i + WINDOW + 1]
        out.append(value * REF_MS / statistics.median(around))
    return out
