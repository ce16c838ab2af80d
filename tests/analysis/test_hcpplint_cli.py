"""The hcpplint CLI: exit codes, formats, and the negative self-test
(an injected violation must fail the run)."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", ".."))
HCPPLINT = os.path.join(REPO_ROOT, "tools", "hcpplint.py")

# Per-rule violating snippets; each must drive exit code 1 on its own.
VIOLATIONS = {
    "secret-flow": ("def f(passcode):\n"
                    "    print(passcode)\n"),
    "crypto-hygiene": ("def f(tag, expected):\n"
                       "    return tag == expected\n"),
    "layering": ("from repro.core.wire import request\n"),
    "concurrency": ("class C:\n"
                    "    def a(self):\n"
                    "        with self._lock:\n"
                    "            self._x = 1\n"
                    "    def b(self):\n"
                    "        self._x = 2\n"),
    "wire-coverage": ("class E:\n"
                      "    MUTATING_OPS = frozenset({wire.OP_Z})\n"
                      "    def boot(self):\n"
                      "        self._ops = {wire.OP_Z: self._op_z}\n"
                      "    def _op_z(self, body):\n"
                      "        return mutate(body)\n"),
    "wire-schema": ('OP_A = b"\\x01"\n'
                    'OP_B = b"\\x01"\n'),
    "async-discipline": ("import time\n"
                         "async def pump():\n"
                         "    time.sleep(1)\n"),
}

# layering judges modules by their dotted path, so the fixture must
# live somewhere a contract governs.
VIOLATION_DIRS = {"layering": "src/repro/crypto"}


def _load_cli():
    spec = importlib.util.spec_from_file_location("hcpplint_cli", HCPPLINT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def cli():
    return _load_cli()


def test_repo_run_is_clean(cli, capsys):
    assert cli.main([]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_json_format(cli, capsys):
    assert cli.main(["--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["clean"] is True
    assert data["files"] > 80
    assert data["suppressed"]


def test_list_rules(cli, capsys):
    assert cli.main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("secret-flow", "crypto-hygiene", "wire-coverage",
                    "wire-schema", "async-discipline", "layering",
                    "concurrency"):
        assert rule_id in out


def test_unknown_rule_is_a_usage_error(cli, capsys):
    assert cli.main(["--rules", "no-such-rule"]) == 2


def test_missing_target_is_a_usage_error(cli, capsys):
    assert cli.main(["no/such/dir"]) == 2


def test_missing_explicit_baseline_is_a_usage_error(cli, capsys):
    assert cli.main(["--baseline", "no-such-baseline.json"]) == 2


@pytest.mark.parametrize("rule_id", sorted(VIOLATIONS))
def test_injected_violation_fails(cli, capsys, rule_id):
    """The negative self-test: a planted violation must exit 1."""
    directory = os.path.join(
        REPO_ROOT, VIOLATION_DIRS.get(rule_id, "src/repro"))
    path = os.path.join(directory, "_lintcheck_fixture.py")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(VIOLATIONS[rule_id])
    try:
        status = cli.main(["--rules", rule_id,
                           os.path.relpath(path, REPO_ROOT)])
        out = capsys.readouterr().out
        assert status == 1, "[%s] did not flag:\n%s" % (rule_id, out)
        assert "[%s]" % rule_id in out
    finally:
        os.unlink(path)


def test_cli_works_as_a_subprocess():
    """CI invokes the script, not the module — make sure that works."""
    result = subprocess.run(
        [sys.executable, HCPPLINT, "--format", "json"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    assert json.loads(result.stdout)["clean"] is True


def test_sarif_format(cli, capsys):
    assert cli.main(["--format", "sarif"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["version"] == "2.1.0"
    run = document["runs"][0]
    assert run["properties"]["clean"] is True
    rule_ids = {entry["id"] for entry in run["tool"]["driver"]["rules"]}
    assert {"wire-schema", "async-discipline"} <= rule_ids
    # A clean repo run still emits the baseline-accepted findings, each
    # with its written justification.
    for result in run["results"]:
        assert result["suppressions"][0]["justification"]


def test_since_bad_revision_is_a_usage_error(cli, capsys):
    assert cli.main(["--since", "not-a-revision"]) == 2


def test_since_head_smoke(cli, capsys):
    status = cli.main(["--since", "HEAD", "src/repro/store"])
    out = capsys.readouterr().out
    assert status == 0, out


def test_since_sees_callers_outside_the_changed_file(cli, capsys,
                                                     monkeypatch):
    """Analyzed alone, durable.py holds one ``rekey`` and secret-flow
    misreads it; the changed-files run must analyze the whole target
    and report only the changed file's findings."""
    monkeypatch.setattr(cli, "_changed_since",
                        lambda rev, targets: ["src/repro/store/durable.py"])
    status = cli.main(["--since", "HEAD", "--no-cache", "src/repro/store"])
    out = capsys.readouterr().out
    assert status == 0, out
    assert "0 finding(s)" in out


def test_cache_round_trip(cli, capsys, tmp_path):
    cache = str(tmp_path / "cache.json")
    assert cli.main(["--cache", cache, "--rules", "layering"]) == 0
    capsys.readouterr()
    assert os.path.exists(cache)
    # Warm run replays from the cache and stays clean.
    assert cli.main(["--cache", cache, "--rules", "layering"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_no_cache_skips_the_cache_file(cli, capsys, tmp_path):
    cache = str(tmp_path / "cache.json")
    assert cli.main(["--no-cache", "--cache", cache,
                     "--rules", "layering"]) == 0
    assert not os.path.exists(cache)
