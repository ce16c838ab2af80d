"""wire-schema: the opcode registry, dispatch tables, and frame builders
must agree — per opcode, project-wide.

PR 8's security review found its HIGH bugs *between* layers: an
internal scatter leg built without a federation seal, a merge handler
that trusted unverified chunks.  Each individual file looked fine; the
contract they jointly violated lived nowhere.  This pass makes that
contract a machine-checked schema, cross-referencing four artifacts it
discovers in the project:

* the **opcode registry** — module-level ``OP_* = b"..."`` assignments
  (in the real tree, all of them in ``core/wire.py``);
* **dispatch tables** — ``self._ops = {OP_X: self._op_x, ...}`` (plus
  subscript registrations) and their ``MUTATING_OPS`` declarations;
* **frame builders** — every ``make_frame(OP_X, ...)`` /
  ``seal_internal_frame(key, OP_X, ...)`` call site;
* **router tables** — ``self._routes = {OP_X: ...}``.

Checks, per opcode: two opcodes must not share wire bytes; a registered
opcode must be served by some ``_ops``/``_routes`` table; every build
site's operand count must match the handler's ``_expect`` arity (sealed
frames carry one extra tag field; handlers that branch on
``len(fields)`` or iterate over the operand list are variadic and
exempt); an opcode that is ever *sealed* is federation-internal — its
handlers must call ``open_internal_frame`` in their first statement,
before any state is touched; a class declaring ``MUTATING_OPS`` must
run a ``handle_frame`` (own or inherited) that serializes mutating
opcodes under a ``_write_lock``; ``store/durable.py`` must journal
``K_FRAME`` records keyed on ``MUTATING_OPS`` membership (moved here
from wire-coverage — it is a registry-wide contract, not a replay
one); and a router's ``_routes`` must forward every client-facing
opcode an internal-serving endpoint exposes.

Every check is discovery-gated: when a partial run (``--since``, test
fixtures) lacks one of the artifacts, the checks needing it stay quiet
instead of guessing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable

from repro.analysis.callgraph import terminal
from repro.analysis.framework import Finding, Module, Project, Rule, register
from repro.analysis.wire_coverage import _EndpointClass

DISPATCH_MODULE = "repro.core.dispatch"
DURABLE_MODULE = "repro.store.durable"


@dataclass
class _Registry:
    """Everything the pass discovers, before cross-checking."""

    #: opcode label -> (module, line, wire bytes or None)
    opcodes: dict[str, tuple[Module, int, bytes | None]] = field(
        default_factory=dict)
    #: endpoint classes with an _ops table (any, not just mutating)
    endpoints: list[tuple[Module, _EndpointClass]] = field(
        default_factory=list)
    #: router classes: (module, class node, routed labels)
    routers: list[tuple[Module, ast.ClassDef, dict[str, int]]] = field(
        default_factory=list)
    #: (kind, label, operand count, module, line); kind is make|seal
    build_sites: list[tuple[str, str, int, "Module", int]] = field(
        default_factory=list)
    #: labels ever passed to seal_internal_frame / open_internal_frame
    internal: set[str] = field(default_factory=set)


def _collect(project: Project) -> _Registry:
    reg = _Registry()
    for module in project.modules:
        for node in module.tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    name = terminal(target)
                    if (name and name.startswith("OP_")
                            and name not in reg.opcodes):
                        value = (node.value.value
                                 if isinstance(node.value, ast.Constant)
                                 and isinstance(node.value.value, bytes)
                                 else None)
                        reg.opcodes[name] = (module, node.lineno, value)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                endpoint = _EndpointClass(module, node)
                if endpoint.ops:
                    reg.endpoints.append((module, endpoint))
                routes = _routes_table(node)
                if routes:
                    reg.routers.append((module, node, routes))
            elif isinstance(node, ast.Call):
                _collect_call(reg, module, node)
    return reg


def _routes_table(cls: ast.ClassDef) -> dict[str, int]:
    routes: dict[str, int] = {}
    for stmt in ast.walk(cls):
        if not isinstance(stmt, ast.Assign):
            continue
        for target in stmt.targets:
            if (isinstance(target, ast.Attribute)
                    and target.attr == "_routes"
                    and isinstance(stmt.value, ast.Dict)):
                for key in stmt.value.keys:
                    label = terminal(key)
                    if label and label.startswith("OP_"):
                        routes[label] = stmt.lineno
            elif (isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Attribute)
                    and target.value.attr == "_routes"):
                label = terminal(target.slice)
                if label and label.startswith("OP_"):
                    routes[label] = stmt.lineno
    return routes


def _collect_call(reg: _Registry, module: Module, call: ast.Call) -> None:
    name = terminal(call.func)
    if name == "make_frame" and call.args:
        label = terminal(call.args[0])
        if label and label.startswith("OP_"):
            operands = call.args[1:]
            if not any(isinstance(a, ast.Starred) for a in operands):
                reg.build_sites.append(("make", label, len(operands),
                                        module, call.lineno))
    elif name == "seal_internal_frame" and len(call.args) >= 2:
        label = terminal(call.args[1])
        if label and label.startswith("OP_"):
            reg.internal.add(label)
            operands = call.args[2:]
            if not any(isinstance(a, ast.Starred) for a in operands):
                reg.build_sites.append(("seal", label, len(operands),
                                        module, call.lineno))
    elif name == "open_internal_frame" and len(call.args) >= 2:
        label = terminal(call.args[1])
        if label and label.startswith("OP_"):
            reg.internal.add(label)


def _handler_def(endpoint: _EndpointClass,
                 method: str) -> ast.FunctionDef | None:
    for node in ast.walk(endpoint.node):
        if isinstance(node, (ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            if node.name == method:
                return node
    return None


def _fields_param(handler: ast.FunctionDef) -> str | None:
    """The operand-list parameter: first positional after self/cls."""
    params = [a.arg for a in handler.args.posonlyargs + handler.args.args]
    if params and params[0] in ("self", "cls"):
        params = params[1:]
    return params[0] if params else None


def _handler_arity(handler: ast.FunctionDef) -> int | None:
    """The operand count a handler demands, or None when variadic."""
    fields = _fields_param(handler)
    if fields is None:
        return None
    counts: set[int] = set()
    for node in ast.walk(handler):
        if isinstance(node, ast.For) and terminal(node.iter) == fields:
            return None                       # iterates the operand list
        if not isinstance(node, ast.Call):
            continue
        name = terminal(node.func)
        if (name == "len" and node.args
                and terminal(node.args[0]) == fields):
            return None                       # branches on operand count
        if (name == "_expect" and len(node.args) >= 2
                and terminal(node.args[0]) == fields
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, int)):
            counts.add(node.args[1].value)
    if len(counts) == 1:
        return counts.pop()
    return None


def _first_statement_opens_frame(handler: ast.FunctionDef) -> bool:
    body = list(handler.body)
    while body and (isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
        body.pop(0)                           # docstring
    if not body:
        return False
    for node in ast.walk(body[0]):
        if (isinstance(node, ast.Call)
                and terminal(node.func) == "open_internal_frame"):
            return True
    return False


@register
class WireSchemaRule(Rule):
    id = "wire-schema"
    version = 2
    cross_file = True
    description = ("every registry opcode is dispatched with matching "
                   "operand arity, mutating opcodes take the write lock "
                   "and journal K_FRAME, sealed opcodes verify "
                   "open_internal_frame first, and the router forwards "
                   "all client-facing opcodes")

    def finish(self, project: Project) -> Iterable[Finding]:
        reg = _collect(project)
        findings: list[Finding] = []
        findings.extend(self._check_duplicate_bytes(reg))
        findings.extend(self._check_dispatched(project, reg))
        findings.extend(self._check_arity(reg))
        findings.extend(self._check_internal_sealing(reg))
        findings.extend(self._check_write_lock(project))
        findings.extend(self._check_durable(project))
        findings.extend(self._check_router(reg))
        return findings

    # -- registry ----------------------------------------------------------
    def _check_duplicate_bytes(self, reg: _Registry) -> list[Finding]:
        findings = []
        by_value: dict[bytes, str] = {}
        for label, (module, line, value) in sorted(reg.opcodes.items()):
            if value is None:
                continue
            other = by_value.get(value)
            if other is not None:
                findings.append(self.finding(
                    module, line,
                    "opcode %s reuses the wire byte value of %s — frames "
                    "become ambiguous at dispatch" % (label, other)))
            else:
                by_value[value] = label
        return findings

    def _check_dispatched(self, project: Project,
                          reg: _Registry) -> list[Finding]:
        if not reg.endpoints:
            return []                          # no dispatch tables in scope
        if (len(project.modules) > 1
                and project.by_dotted(DISPATCH_MODULE) is None):
            return []                          # partial run without dispatch
        served: set[str] = set()
        for _module, endpoint in reg.endpoints:
            served.update(endpoint.ops)
        for _module, _cls, routes in reg.routers:
            served.update(routes)
        findings = []
        for label, (module, line, _value) in sorted(reg.opcodes.items()):
            if label not in served:
                findings.append(self.finding(
                    module, line,
                    "opcode %s is in the wire registry but no _ops or "
                    "_routes table serves it — frames carrying it can "
                    "only ever error" % label))
        return findings

    # -- arity -------------------------------------------------------------
    def _check_arity(self, reg: _Registry) -> list[Finding]:
        arities: dict[str, list[tuple[str, str, int]]] = {}
        for _module, endpoint in reg.endpoints:
            for label, method in endpoint.ops.items():
                handler = _handler_def(endpoint, method)
                if handler is None:
                    continue
                count = _handler_arity(handler)
                if count is not None:
                    arities.setdefault(label, []).append(
                        (endpoint.node.name, method, count))
        findings = []
        for kind, label, operands, module, line in reg.build_sites:
            expected = arities.get(label)
            if not expected:
                continue
            # A sealed frame hits the handler with its federation tag
            # stripped; a raw make_frame of an internal opcode must
            # itself carry the tag field.
            offset = (1 if (kind == "make" and label in reg.internal)
                      else 0)
            if any(operands == count + offset
                   for _cls, _method, count in expected):
                continue
            cls, method, count = expected[0]
            findings.append(self.finding(
                module, line,
                "frame for %s is built with %d operand(s) here but "
                "handler %s.%s expects %d — the frame can never "
                "dispatch cleanly" % (label, operands, cls, method,
                                      count + offset)))
        return findings

    # -- federation sealing ------------------------------------------------
    def _check_internal_sealing(self, reg: _Registry) -> list[Finding]:
        findings = []
        for _module, endpoint in reg.endpoints:
            for label, method in sorted(endpoint.ops.items()):
                if label not in reg.internal:
                    continue
                handler = _handler_def(endpoint, method)
                if handler is None:
                    continue
                if not _first_statement_opens_frame(handler):
                    findings.append(self.finding(
                        endpoint.module, handler.lineno,
                        "handler %s.%s serves federation-internal opcode "
                        "%s but does not verify it with "
                        "open_internal_frame before touching any state — "
                        "an unauthenticated peer can forge the leg"
                        % (endpoint.node.name, method, label)))
        return findings

    # -- write-lock discipline ----------------------------------------------
    def _check_write_lock(self, project: Project) -> list[Finding]:
        classes: dict[str, ast.ClassDef] = {}
        mutating: list[tuple[Module, _EndpointClass]] = []
        for module in project.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    classes.setdefault(node.name, node)
                    endpoint = _EndpointClass(module, node)
                    if endpoint.mutating:
                        mutating.append((module, endpoint))
        findings = []
        for module, endpoint in mutating:
            if not self._chain_serializes(endpoint.node, classes):
                findings.append(self.finding(
                    module, endpoint.node.lineno,
                    "%s declares MUTATING_OPS but no handle_frame in its "
                    "class chain serializes mutating opcodes under a "
                    "_write_lock — concurrent mutations can interleave"
                    % endpoint.node.name))
        return findings

    @staticmethod
    def _chain_serializes(cls: ast.ClassDef,
                          classes: dict[str, ast.ClassDef]) -> bool:
        seen: set[str] = set()
        frontier = [cls]
        while frontier:
            node = frontier.pop()
            if node.name in seen:
                continue
            seen.add(node.name)
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and item.name == "handle_frame"
                        and _serializes_mutations(item)):
                    return True
            for base in node.bases:
                base_name = terminal(base)
                if base_name and base_name in classes:
                    frontier.append(classes[base_name])
        return False

    # -- durable journaling (moved from wire-coverage) ----------------------
    def _check_durable(self, project: Project) -> list[Finding]:
        module = project.by_dotted(DURABLE_MODULE)
        if module is None:
            return []  # partial run (fixtures / subset targets)
        # An append helper is a function that hands its first argument
        # (after ``self``) to ``.append`` as the record kind.
        appenders = {"append"}
        for func in ast.walk(module.tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            params = [arg.arg for arg in func.args.args
                      if arg.arg != "self"]
            if params and any(
                    isinstance(node, ast.Call)
                    and terminal(node.func) == "append" and node.args
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id == params[0]
                    for node in ast.walk(func)):
                appenders.add(func.name)
        journals_frames = False
        keyed_on_mutating = False
        for node in ast.walk(module.tree):
            if (isinstance(node, ast.Call)
                    and terminal(node.func) in appenders
                    and node.args
                    and terminal(node.args[0]) == "K_FRAME"):
                journals_frames = True
            if isinstance(node, ast.Compare):
                names = {terminal(part)
                         for part in ast.walk(node)
                         if isinstance(part, (ast.Name, ast.Attribute))}
                if "MUTATING_OPS" in names and any(
                        isinstance(op, (ast.In, ast.NotIn))
                        for op in node.ops):
                    keyed_on_mutating = True
        findings = []
        if not journals_frames:
            findings.append(self.finding(
                module, 1,
                "store/durable.py never appends a K_FRAME journal "
                "record — acknowledged mutations are not crash-"
                "consistent"))
        if not keyed_on_mutating:
            findings.append(self.finding(
                module, 1,
                "store/durable.py no longer keys its journal commit on "
                "MUTATING_OPS membership — mutating frames may go "
                "unjournaled"))
        return findings

    # -- router coverage ----------------------------------------------------
    def _check_router(self, reg: _Registry) -> list[Finding]:
        if not reg.routers:
            return []
        client_facing: set[str] = set()
        for _module, endpoint in reg.endpoints:
            if reg.internal & set(endpoint.ops):
                client_facing.update(
                    label for label in endpoint.ops
                    if label not in reg.internal)
        if not client_facing:
            return []
        findings = []
        for module, cls, routes in reg.routers:
            for label in sorted(client_facing - set(routes)):
                findings.append(self.finding(
                    module, cls.lineno,
                    "router %s does not forward client-facing opcode "
                    "%s — federated deployments cannot reach it"
                    % (cls.name, label)))
        return findings


def _serializes_mutations(handler: ast.FunctionDef) -> bool:
    membership = False
    locked = False
    for node in ast.walk(handler):
        if isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.In, ast.NotIn)) for op in node.ops):
            names = {terminal(part) for part in ast.walk(node)
                     if isinstance(part, (ast.Name, ast.Attribute))}
            if "MUTATING_OPS" in names:
                membership = True
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                probe = item.context_expr
                if isinstance(probe, ast.Call):
                    probe = probe.func
                name = terminal(probe)
                if name and "write_lock" in name:
                    locked = True
    return membership and locked
