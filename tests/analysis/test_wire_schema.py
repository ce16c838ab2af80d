"""wire-schema fixtures: each cross-check flags its planted violation
and stays quiet on the conforming twin."""

from __future__ import annotations

import ast

import pytest

from repro.analysis import analyze_source, get_rule
from repro.analysis.framework import Module, Project


@pytest.fixture()
def rule():
    return get_rule("wire-schema")


def _run(rule, sources: dict[str, str]):
    modules = [Module(path=path, source=source, tree=ast.parse(source))
               for path, source in sources.items()]
    project = Project(modules=modules)
    findings = []
    for module in modules:
        findings.extend(rule.check_module(module))
    findings.extend(rule.finish(project))
    return findings


# -- registry ---------------------------------------------------------------

def test_duplicate_wire_bytes_flag(rule):
    findings = analyze_source(
        'OP_A = b"\\x01"\nOP_B = b"\\x01"\n', rule)
    assert len(findings) == 1
    assert "reuses the wire byte value" in findings[0].message


def test_distinct_wire_bytes_are_clean(rule):
    assert not analyze_source('OP_A = b"\\x01"\nOP_B = b"\\x02"\n', rule)


def test_unserved_opcode_flags_when_dispatch_is_in_scope(rule):
    findings = analyze_source("""
OP_A = b"\\x01"
OP_B = b"\\x02"

class Endpoint:
    def boot(self):
        self._ops = {OP_A: self._op_a}
    def _op_a(self, fields):
        return fields
""", rule)
    assert [f for f in findings if "no _ops or _routes" in f.message]


def test_no_endpoints_in_scope_means_no_dispatch_claims(rule):
    # Partial runs (a lone fixture, --since) must not guess.
    assert not analyze_source('OP_A = b"\\x01"\n', rule)


# -- arity ------------------------------------------------------------------

_ARITY = """
OP_A = b"\\x01"

def _expect(fields, count):
    return fields

class Endpoint:
    def boot(self):
        self._ops = {OP_A: self._op_a}
    def _op_a(self, fields):
        _expect(fields, 2)
        return fields

def client():
    return make_frame(OP_A, %s)
"""


def test_build_site_arity_mismatch_flags(rule):
    findings = analyze_source(_ARITY % "only_one", rule)
    assert len(findings) == 1
    assert "1 operand(s)" in findings[0].message
    assert "expects 2" in findings[0].message


def test_build_site_arity_match_is_clean(rule):
    assert not analyze_source(_ARITY % "one, two", rule)


def test_variadic_handler_is_exempt(rule):
    assert not analyze_source("""
OP_A = b"\\x01"

class Endpoint:
    def boot(self):
        self._ops = {OP_A: self._op_a}
    def _op_a(self, fields):
        for entry in fields:
            use(entry)

def client():
    return make_frame(OP_A, one, two, three)
""", rule)


def test_sealed_opcode_make_frame_carries_the_tag(rule):
    # A raw make_frame of an internal opcode must add the federation
    # tag field the handler's _expect will count.
    source = """
OP_S = b"\\x09"

def _expect(fields, count):
    return fields

class Endpoint:
    def boot(self):
        self._ops = {OP_S: self._op_s}
    def _op_s(self, fields):
        open_internal_frame(key, OP_S, fields)
        _expect(fields, 2)
        return fields

def leg():
    return make_frame(OP_S, %s)
"""
    assert not analyze_source(source % "tag, one, two", rule)
    findings = analyze_source(source % "one, two", rule)
    assert findings and "expects 3" in findings[0].message


# -- federation sealing -----------------------------------------------------

_SEALING = """
OP_S = b"\\x09"

class Endpoint:
    def boot(self):
        self._ops = {OP_S: self._op_s}
    def _op_s(self, fields):
        %s

def scatter(key):
    return seal_internal_frame(key, OP_S, payload)
"""


def test_internal_handler_without_verification_flags(rule):
    findings = analyze_source(_SEALING % "return mutate(fields)", rule)
    assert len(findings) == 1
    assert "open_internal_frame" in findings[0].message
    assert "forge" in findings[0].message


def test_internal_handler_verifying_first_is_clean(rule):
    assert not analyze_source(
        _SEALING % "inner = open_internal_frame(self._key, OP_S, fields)",
        rule)


# -- write-lock discipline --------------------------------------------------

_LOCKING = """
OP_W = b"\\x03"

class Endpoint:
    MUTATING_OPS = frozenset({OP_W})
    def boot(self):
        self._ops = {OP_W: self._op_w}
    def _op_w(self, fields):
        return fields
%s
"""

_HANDLE_FRAME = """
    def handle_frame(self, opcode, fields):
        if opcode in self.MUTATING_OPS:
            with self._write_lock:
                return self._ops[opcode](fields)
        return self._ops[opcode](fields)
"""


def test_mutating_ops_without_write_lock_flags(rule):
    findings = analyze_source(_LOCKING % "", rule)
    assert [f for f in findings if "_write_lock" in f.message]


def test_mutating_ops_with_serializing_handle_frame_is_clean(rule):
    assert not analyze_source(_LOCKING % _HANDLE_FRAME, rule)


def test_inherited_handle_frame_satisfies_the_chain(rule):
    assert not _run(rule, {"src/repro/base.py": """
class Base:
%s
""" % _HANDLE_FRAME, "src/repro/core/dispatch.py": """
OP_W = b"\\x03"

class Endpoint(Base):
    MUTATING_OPS = frozenset({OP_W})
    def boot(self):
        self._ops = {OP_W: self._op_w}
    def _op_w(self, fields):
        return fields
"""})


# -- durable journaling -----------------------------------------------------

_DURABLE_OK = """
def commit(journal, opcode, frame):
    if opcode in MUTATING_OPS:
        journal.append(K_FRAME, frame)
"""


def test_durable_without_k_frame_flags(rule):
    findings = _run(rule, {
        "src/repro/store/durable.py": "def commit(journal):\n    pass\n"})
    messages = " / ".join(f.message for f in findings)
    assert "K_FRAME" in messages
    assert "MUTATING_OPS" in messages


def test_durable_journaling_mutating_frames_is_clean(rule):
    assert not _run(rule, {"src/repro/store/durable.py": _DURABLE_OK})


def test_durable_journaling_through_an_append_helper_is_clean(rule):
    assert not _run(rule, {"src/repro/store/durable.py": """
class Durable:
    def _append(self, kind, payload):
        self.writer().append(kind, payload)

    def commit(self, opcode, frame):
        if opcode in MUTATING_OPS:
            self._append(K_FRAME, frame)
"""})


def test_helper_that_drops_the_kind_does_not_count(rule):
    findings = _run(rule, {"src/repro/store/durable.py": """
class Durable:
    def _append(self, kind, payload):
        self.writer().append(K_META, payload)

    def commit(self, opcode, frame):
        if opcode in MUTATING_OPS:
            self._append(K_FRAME, frame)
"""})
    assert any("K_FRAME" in f.message for f in findings)


def test_partial_run_without_durable_stays_quiet(rule):
    assert not analyze_source("def unrelated():\n    pass\n", rule)


# -- router coverage --------------------------------------------------------

_ROUTER = """
OP_CLIENT = b"\\x01"
OP_OTHER = b"\\x02"
OP_INTERNAL = b"\\x09"

class Shard:
    def boot(self):
        self._ops = {OP_CLIENT: self._op_c,
                     OP_OTHER: self._op_o,
                     OP_INTERNAL: self._op_i}
    def _op_c(self, fields):
        return fields
    def _op_o(self, fields):
        return fields
    def _op_i(self, fields):
        open_internal_frame(self._key, OP_INTERNAL, fields)

class Router:
    def boot(self):
        self._routes = {%s}
"""


def test_router_missing_a_client_facing_opcode_flags(rule):
    findings = analyze_source(_ROUTER % "OP_CLIENT: 1", rule)
    assert len(findings) == 1
    assert "OP_OTHER" in findings[0].message
    assert "does not forward" in findings[0].message


def test_router_covering_all_client_opcodes_is_clean(rule):
    assert not analyze_source(
        _ROUTER % "OP_CLIENT: 1, OP_OTHER: 2", rule)
