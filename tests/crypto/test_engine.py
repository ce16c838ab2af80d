"""Process-parallel crypto engine: pooled results == serial results.

The engine's contract is *bit-identical outputs*: the one engine-routed
path — the PEKS ``test_batch`` scan behind the S-server's MHI search —
must return exactly what the serial loop returns, in the same order,
raising the same first error.  The pool itself is exercised with 2
workers — correctness does not depend on core count.
"""

from __future__ import annotations

import os

import pytest

from repro.crypto import engine as engine_mod
from repro.crypto.engine import MIN_PARALLEL, CryptoEngine
from repro.crypto.ibe import PrivateKeyGenerator
from repro.crypto.params import test_params as _test_params
from repro.crypto.peks import (MultiKeywordPeks, RolePeks,
                               _multi_test_task)
from repro.crypto.rng import HmacDrbg
from repro.exceptions import ParameterError

PARAMS = _test_params()
PKG = PrivateKeyGenerator(PARAMS, HmacDrbg(b"engine-pkg"))
ROLE = "2026-08-07|ER|boston"
ROLE_KEY = PKG.extract(ROLE)
MULTI = MultiKeywordPeks(PARAMS, PKG.public_key)
TAGS = [MULTI.tag(ROLE, ["kw-%d" % i, "shared"], HmacDrbg(b"tag-%d" % i))
        for i in range(8)]
TRAPDOOR = MultiKeywordPeks.trapdoor(ROLE_KEY.private, PARAMS, "kw-2")


def _items(count):
    return [(TRAPDOOR, tag) for tag in TAGS[:count]]


def _serial(items):
    return [_multi_test_task(item) for item in items]


@pytest.fixture(scope="module")
def pool_engine():
    """One 2-worker pool shared by the module (fork is cheap, not free)."""
    engine = CryptoEngine(2)
    yield engine
    engine.close()


@pytest.fixture()
def default_pool():
    """A 2-worker process default, then the env-configured one back."""
    installed = engine_mod.configure(2)
    yield installed
    engine_mod.configure(0)
    # Hand the rest of the suite back to the env-configured default
    # (matters for the HCPP_CRYPTO_WORKERS=2 CI leg).
    engine_mod._default_resolved = False  # noqa: SLF001


# -- map semantics ---------------------------------------------------------

def test_map_results_in_item_order(pool_engine):
    items = _items(7)
    pooled = pool_engine.map(_multi_test_task, items)
    assert pool_engine._pool is not None  # noqa: SLF001 - really pooled
    assert pooled == _serial(items)
    assert pooled == [i == 2 for i in range(7)]


def test_map_empty_batch(pool_engine):
    assert pool_engine.map(_multi_test_task, []) == []


def test_small_batch_runs_inline():
    # Below MIN_PARALLEL a batch must never start the pool.
    engine = CryptoEngine(4)
    items = _items(MIN_PARALLEL - 1)
    result = engine.map(_multi_test_task, items)
    assert engine._pool is None  # noqa: SLF001 - asserting laziness
    assert result == _serial(items)
    engine.close()


def test_one_worker_engine_never_forks():
    engine = CryptoEngine(1)
    items = _items(6)
    assert engine.map(_multi_test_task, items) == _serial(items)
    assert engine.start() is None
    engine.close()


def test_first_error_in_item_order(pool_engine):
    # Items 2 and 5 are malformed; the serial loop would raise on 2.
    items = _items(8)
    items[2] = 2      # not a pair: unpacking raises TypeError
    items[5] = (TRAPDOOR,)  # too short: unpacking raises ValueError
    with pytest.raises(TypeError):
        pool_engine.map(_multi_test_task, items)


def test_engine_restart_after_close():
    engine = CryptoEngine(2)
    items = _items(MIN_PARALLEL)
    first = engine.map(_multi_test_task, items)
    engine.close()
    second = engine.map(_multi_test_task, items)
    engine.close()
    assert first == second == _serial(items)


def test_invalid_configuration():
    with pytest.raises(ParameterError):
        CryptoEngine(-1)


# -- the engine-routed PEKS scans ---------------------------------------------

def test_peks_test_batch_matches_serial(default_pool):
    serial = [MULTI.test(tag, TRAPDOOR) for tag in TAGS]
    assert serial == [i == 2 for i in range(8)]
    assert MultiKeywordPeks.test_batch(TAGS, TRAPDOOR) == serial
    assert default_pool._pool is not None  # noqa: SLF001 - really pooled
    shared_td = MultiKeywordPeks.trapdoor(ROLE_KEY.private, PARAMS, "shared")
    assert MultiKeywordPeks.test_batch(TAGS, shared_td) == [True] * 8


def test_role_peks_test_batch_matches_serial(default_pool):
    rng = HmacDrbg(b"role-batch")
    peks = RolePeks(PARAMS, PKG.public_key)
    tags = [peks.tag(ROLE, "kw-%d" % i, rng) for i in range(5)]
    trapdoor = RolePeks.trapdoor(ROLE_KEY.private, PARAMS, "kw-1")
    serial = [peks.test(tag, trapdoor) for tag in tags]
    assert serial == [i == 1 for i in range(5)]
    assert RolePeks.test_batch(tags, trapdoor) == serial
    assert default_pool._pool is not None  # noqa: SLF001 - really pooled


# -- default-engine plumbing ------------------------------------------------

def test_configure_and_default_engine(default_pool):
    assert default_pool is not None and default_pool.workers == 2
    assert engine_mod.default_engine() is default_pool
    assert engine_mod.configure(1) is None
    assert engine_mod.default_engine() is None


def test_env_default_disabled_for_zero_or_unset():
    old = os.environ.pop("HCPP_CRYPTO_WORKERS", None)
    try:
        engine_mod.configure(0)  # reset, then force re-read of the env
        engine_mod._default_resolved = False  # noqa: SLF001
        assert engine_mod.default_engine() is None
        os.environ["HCPP_CRYPTO_WORKERS"] = "not-a-number"
        engine_mod._default_resolved = False  # noqa: SLF001
        with pytest.raises(ParameterError):
            engine_mod.default_engine()
        os.environ["HCPP_CRYPTO_WORKERS"] = "2"
        engine_mod._default_resolved = False  # noqa: SLF001
        resolved = engine_mod.default_engine()
        assert resolved is not None and resolved.workers == 2
    finally:
        if old is None:
            os.environ.pop("HCPP_CRYPTO_WORKERS", None)
        else:
            os.environ["HCPP_CRYPTO_WORKERS"] = old
        engine_mod.configure(0)
        engine_mod._default_resolved = False  # noqa: SLF001 - re-read env
