"""Smoke check of the predicted layer split, from short traced runs.

Each workload must load the layers it was chosen for and leave the
others alone; if a workload drifts (a journal write on the emergency
path, a search inside ingest's timed phase, ...) these fail.  Run with

    python3 -m pytest hcppbench/test_layer_split.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts the program on sys.path)
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7


def _short(name: str):
    return type(name, (WORKLOADS[name],), {"trace_rounds": 30})


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    work_root = str(tmp_path_factory.mktemp("hcppbench"))
    return {name: run.run_traced(_short(name), SEED, work_root)
            for name in ("search", "emergency", "ingest")}


def _kinds(result):
    return result["by_kind"]


def test_every_round_passes_the_oracle(traced):
    for name, result in traced.items():
        assert result["log"].failed() == 0, (name,
                                             result["log"].failures())


def test_fsyncs_only_on_the_durable_workloads(traced):
    for kind, layers in _kinds(traced["emergency"]).items():
        assert layers["store.journal.fsyncs"] == 0, kind
    retrieve = _kinds(traced["search"])["retrieve"]
    assert retrieve["store.journal.fsyncs"] == pytest.approx(1.0, abs=0.1)
    assert _kinds(traced["ingest"])["store"]["store.journal.fsyncs"] >= 1


def test_router_scatters_only_batch_and_multi(traced):
    for name, result in traced.items():
        for kind, layers in _kinds(result).items():
            legs = layers["core.router.legs"] - layers["core.router.hedges"]
            if kind in ("batch", "multi"):
                assert legs > layers["core.router.frames"], (name, kind)
            else:
                assert legs == layers["core.router.frames"], (name, kind)


def test_no_peks_on_search(traced):
    for kind, layers in _kinds(traced["search"]).items():
        assert layers["crypto.peks.tests"] == 0, kind


def test_no_index_walk_in_ingest_timed_phase(traced):
    for kind, layers in _kinds(traced["ingest"]).items():
        assert layers["sse.index.search.calls"] == 0, kind


def test_counts_repeat_with_one_seed(traced, tmp_path):
    again = run.run_traced(_short("emergency"), SEED, str(tmp_path))["metrics"]
    first = traced["emergency"]["metrics"]
    for metric, value in first.items():
        if spans.unit_of(metric) in ("count", "B"):
            assert again[metric] == value, metric
