#!/usr/bin/env python3
"""hcpplint — enforce HCPP's security and layering invariants statically.

Usage::

    python tools/hcpplint.py                       # all rules, src/repro
    python tools/hcpplint.py --rules layering src/repro/core/protocols
    python tools/hcpplint.py --format json
    python tools/hcpplint.py --format sarif        # SARIF 2.1.0 document
    python tools/hcpplint.py --since origin/main   # findings in changed files
    python tools/hcpplint.py --no-baseline         # show suppressed too

Exit codes: 0 clean, 1 findings (or stale baseline entries), 2 usage /
setup errors.  The baseline (``.hcpplint-baseline.json`` at the repo
root) holds accepted findings, each with a written justification; see
docs/static-analysis.md.

Runs are incremental by default: per-file findings are cached in
``.hcpplint-cache.json`` keyed by content hash and rule version, and
cross-file passes replay when the project fingerprint is unchanged.
``--no-cache`` forces a cold analysis; ``--cache PATH`` relocates the
cache (useful for CI cache restores).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.analysis import (Analyzer, Baseline, all_rules, get_rule,  # noqa: E402
                            rule_ids)
from repro.analysis.cache import AnalysisCache  # noqa: E402
from repro.analysis.sarif import render_sarif  # noqa: E402

DEFAULT_BASELINE = ".hcpplint-baseline.json"
DEFAULT_CACHE = ".hcpplint-cache.json"
DEFAULT_TARGETS = ["src/repro"]


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="hcpplint",
        description="static analysis for the HCPP reproduction")
    parser.add_argument("targets", nargs="*", default=None,
                        help="files or directories, relative to the repo "
                             "root (default: src/repro)")
    parser.add_argument("--rules", default=None, metavar="ID[,ID...]",
                        help="comma-separated rule ids (default: all of "
                             "%s)" % ",".join(rule_ids()))
    parser.add_argument("--format", dest="fmt", default="text",
                        choices=("text", "json", "sarif"))
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="baseline file (default: %s at the repo "
                             "root)" % DEFAULT_BASELINE)
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline; report everything")
    parser.add_argument("--since", default=None, metavar="REV",
                        help="report only findings in files changed "
                             "since the git revision; the whole project "
                             "is still analyzed, so cross-file rules "
                             "see every caller")
    parser.add_argument("--cache", default=None, metavar="PATH",
                        help="findings cache file (default: %s at the "
                             "repo root)" % DEFAULT_CACHE)
    parser.add_argument("--no-cache", action="store_true",
                        help="analyze from scratch; do not read or "
                             "write the cache")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the registered rules and exit")
    return parser.parse_args(argv)


def _changed_since(rev: str, targets: list[str]) -> list[str] | None:
    """Repo-relative .py files changed since ``rev`` that fall under
    one of ``targets`` and still exist.  None on git failure."""
    try:
        out = subprocess.run(
            ["git", "diff", "--name-only", rev, "--"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
            timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    prefixes = tuple(t.rstrip("/") for t in targets)
    changed = []
    for line in out.splitlines():
        rel = line.strip().replace(os.sep, "/")
        if not rel.endswith(".py"):
            continue
        if not any(rel == p or rel.startswith(p + "/") for p in prefixes):
            continue
        if os.path.exists(os.path.join(REPO_ROOT, rel)):
            changed.append(rel)
    return changed


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)

    if args.list_rules:
        for rule_id in rule_ids():
            print("%-16s %s" % (rule_id, get_rule(rule_id).description))
        return 0

    try:
        rules = ([get_rule(rule_id.strip())
                  for rule_id in args.rules.split(",") if rule_id.strip()]
                 if args.rules else None)
    except KeyError as exc:
        print("hcpplint: %s" % exc.args[0], file=sys.stderr)
        return 2
    if rules is not None and not rules:
        print("hcpplint: --rules selected nothing", file=sys.stderr)
        return 2

    baseline = Baseline()
    if not args.no_baseline:
        baseline_path = args.baseline or os.path.join(REPO_ROOT,
                                                      DEFAULT_BASELINE)
        if os.path.exists(baseline_path):
            try:
                baseline = Baseline.load(baseline_path)
            except (ValueError, OSError) as exc:
                print("hcpplint: bad baseline %s: %s"
                      % (baseline_path, exc), file=sys.stderr)
                return 2
        elif args.baseline:
            print("hcpplint: baseline %s not found" % baseline_path,
                  file=sys.stderr)
            return 2

    targets = args.targets or DEFAULT_TARGETS
    for target in targets:
        if not os.path.exists(os.path.join(REPO_ROOT, target)):
            print("hcpplint: no such target %r" % target, file=sys.stderr)
            return 2

    changed = None
    if args.since is not None:
        changed = _changed_since(args.since, targets)
        if changed is None:
            print("hcpplint: git diff against %r failed" % args.since,
                  file=sys.stderr)
            return 2
        if not changed:
            print("hcpplint: no files changed since %s — clean"
                  % args.since)
            return 0

    cache = None
    if not args.no_cache:
        cache = AnalysisCache(args.cache or os.path.join(REPO_ROOT,
                                                         DEFAULT_CACHE))

    analyzer = Analyzer(REPO_ROOT, rules=rules, baseline=baseline)
    if changed is None:
        report = analyzer.run(targets, cache=cache)
    else:
        # A cross-file rule run on a subset mistakes the missing files
        # for missing callers: analyze the whole project, then report
        # only the changed files.
        report = analyzer.run(sorted(set(DEFAULT_TARGETS) | set(targets)),
                              cache=cache)
        keep = set(changed)
        report = dataclasses.replace(
            report,
            findings=[f for f in report.findings if f.path in keep],
            suppressed=[f for f in report.suppressed if f.path in keep],
            unused_baseline=[e for e in report.unused_baseline
                             if e["path"] in keep])

    if args.fmt == "sarif":
        print(render_sarif(report, rules if rules is not None
                           else all_rules(),
                           baseline if not args.no_baseline else None))
    elif args.fmt == "json":
        print(report.to_json())
    else:
        print(report.to_text())
    return 0 if report.clean else 1


if __name__ == "__main__":
    sys.exit(main())
