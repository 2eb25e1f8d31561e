"""Tracer hygiene: protect the ≤2% disabled-overhead gate structurally.

Two rules, both born from the PR-6 observability contract:

* ``span balance`` — every ``*.span(...)`` call must be context-managed:
  either directly (``with tracer.span(...) as s:``) or assigned to a name
  that is entered by a ``with`` in the same function
  (``run_span = tracer.span(...)`` … ``with run_span, ...:``).  A span
  that is begun but never ``__exit__``-ed corrupts the active-span stack
  for every span after it.

* ``hot-path payloads`` — in the hot-path files (the spiking executor's
  timestep loop, the serving batcher/server), building span *payloads* —
  f-strings or dict literals fed to ``span(...)``/``set_attribute``/
  ``add_event`` — inside a loop must happen under an ``if`` that tests
  ``tracer.enabled`` / ``span.recording`` (either branch: the executor's
  ``if not tracer.enabled: … else: …`` split counts).  Payload built
  outside the guard is paid even when tracing is off, which is exactly
  what the benchmarks/test_obs_overhead.py gate exists to prevent.

Cold-path files may build payloads freely — the NULL_TRACER fast path
already makes the *call* free; it is the argument construction in tight
loops that shows up in the overhead numbers.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from ..core import Checker, Finding, Module, register_checker

#: files where per-timestep / per-request loops live.
HOT_PATH_FILES = (
    "src/repro/snn/executor.py",
    "src/repro/snn/neurons.py",
    "src/repro/snn/functional.py",
    "src/repro/snn/network.py",
    "src/repro/serve/batcher.py",
    "src/repro/serve/server.py",
    "src/repro/serve/engine.py",
)

_PAYLOAD_SINKS = {"span", "set_attribute", "add_event", "event"}
_LOOP_TYPES = (ast.For, ast.While, ast.AsyncFor)
_FUNC_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _is_span_call(node: ast.Call) -> bool:
    return isinstance(node.func, ast.Attribute) and node.func.attr == "span"


def _mentions_guard(test: ast.expr, recording_aliases: Set[str]) -> bool:
    """Does this if-test consult ``.enabled`` / ``.recording`` (directly or
    via a hoisted alias like ``recording = span.recording``)?"""

    for sub in ast.walk(test):
        if isinstance(sub, ast.Attribute) and sub.attr in {"enabled", "recording"}:
            return True
        if isinstance(sub, ast.Name) and sub.id in recording_aliases:
            return True
    return False


def _has_payload(call: ast.Call) -> bool:
    """Does this sink call carry a freshly-built payload (f-string or dict
    literal, positionally or by keyword)?"""

    exprs = list(call.args) + [kw.value for kw in call.keywords]
    for expr in exprs:
        for sub in ast.walk(expr):
            if isinstance(sub, (ast.JoinedStr, ast.Dict, ast.DictComp)):
                return True
    return False


class _FunctionAnalysis:
    """Span calls, with-entered names, and guard aliases for one scope."""

    def __init__(self, body: List[ast.stmt]):
        self.span_calls: List[ast.Call] = []
        self.with_entered_calls: Set[int] = set()  # id() of Call nodes
        self.with_entered_names: Set[str] = set()
        self.span_assigned_names: dict = {}  # name -> Call node
        self.recording_aliases: Set[str] = set()
        for stmt in body:
            self._visit(stmt)

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, _FUNC_TYPES):
            return  # nested scopes analysed separately
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call) and _is_span_call(expr):
                    self.with_entered_calls.add(id(expr))
                elif isinstance(expr, ast.Name):
                    self.with_entered_names.add(expr.id)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            if _is_span_call(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.span_assigned_names[target.id] = node.value
            elif (
                isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr in {"enabled", "recording"}
            ):  # pragma: no cover - enabled/recording are properties, not calls
                pass
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute):
            if node.value.attr in {"enabled", "recording"}:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.recording_aliases.add(target.id)
        if isinstance(node, ast.Call) and _is_span_call(node):
            self.span_calls.append(node)
        for child in ast.iter_child_nodes(node):
            self._visit(child)


@register_checker
class TracerChecker(Checker):
    rule = "tracer"
    description = "spans must be context-managed; hot-path loops must guard span payload construction"

    def check(self, module: Module) -> Iterator[Finding]:
        if "repro" not in module.relpath or not module.relpath.startswith("src/"):
            return
        yield from self._check_scope(module, list(ast.iter_child_nodes(module.tree)))
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_scope(module, node.body)
                if module.relpath in HOT_PATH_FILES:
                    yield from self._check_hot_path(module, node)

    def _check_scope(self, module: Module, body: List[ast.stmt]) -> Iterator[Finding]:
        analysis = _FunctionAnalysis(body)
        entered_names = analysis.with_entered_names
        for call in analysis.span_calls:
            if id(call) in analysis.with_entered_calls:
                continue
            assigned_to = [
                name for name, c in analysis.span_assigned_names.items() if c is call
            ]
            if assigned_to and any(name in entered_names for name in assigned_to):
                continue
            yield self.finding(
                module,
                call,
                "span is not context-managed: enter it with 'with' (directly or "
                "via the assigned name) so __exit__ always runs",
            )

    def _check_hot_path(
        self, module: Module, func: ast.FunctionDef
    ) -> Iterator[Finding]:
        analysis = _FunctionAnalysis(func.body)
        aliases = analysis.recording_aliases

        def walk(node: ast.AST, in_loop: bool, guarded: bool) -> Iterator[Finding]:
            if isinstance(node, _FUNC_TYPES):
                return
            if isinstance(node, ast.If) and _mentions_guard(node.test, aliases):
                # Either branch counts: `if not tracer.enabled: fast else: slow`
                for child in node.body + node.orelse:
                    yield from walk(child, in_loop, True)
                return
            if isinstance(node, _LOOP_TYPES):
                in_loop = True
            if (
                in_loop
                and not guarded
                and isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _PAYLOAD_SINKS
                and _has_payload(node)
            ):
                yield self.finding(
                    module,
                    node,
                    f"span payload built in a hot loop outside an enabled/recording "
                    f"guard ({node.func.attr}); wrap in 'if tracer.enabled:' or "
                    "'if span.recording:' to keep the disabled path free",
                )
            for child in ast.iter_child_nodes(node):
                yield from walk(child, in_loop, guarded)

        for stmt in func.body:
            yield from walk(stmt, False, False)
