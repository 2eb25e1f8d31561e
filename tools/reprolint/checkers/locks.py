"""Lock discipline: a lightweight static race detector.

The threaded tiers (serve server/batcher/registry/pool, obs
metrics/tracer) follow one convention: every attribute that is *written
under a lock* belongs to that lock, and every other touch of it must also
hold the lock.  This checker encodes exactly that, per class:

1. Find the lock attributes: ``self.<name> = threading.Lock()`` (or
   ``RLock``/``Condition``) in any method.
2. Find the *protected set*: attributes stored (assign / augassign / del /
   subscript-store) or mutated via a mutating method call (``append``,
   ``pop``, ``update``...) inside a ``with self.<lock>:`` block, in any
   method other than ``__init__``.
3. Flag every access (read or write) of a protected attribute outside a
   ``with self.<lock>:`` block.

``__init__`` is exempt end-to-end — the object isn't shared yet.  Single
reads of a reference that is swapped atomically (the active-policy /
active-tracer singletons) are real findings under this rule; they carry an
``allow[lock]`` comment explaining why the bare read is safe, which keeps
the reasoning in the source instead of in the checker.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from ..core import Checker, Finding, Module, register_checker

_LOCK_FACTORIES = {"Lock", "RLock", "Condition"}

#: method calls that mutate common containers in place.
_MUTATORS = {
    "append",
    "extend",
    "insert",
    "remove",
    "pop",
    "popitem",
    "clear",
    "update",
    "setdefault",
    "add",
    "discard",
    "appendleft",
    "popleft",
    "move_to_end",
    "sort",
    "reverse",
}


def _is_lock_factory(node: ast.expr) -> bool:
    """``threading.Lock()`` / ``threading.RLock()`` / bare ``Lock()``."""

    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr in _LOCK_FACTORIES
    if isinstance(func, ast.Name):
        return func.id in _LOCK_FACTORIES
    return False


def _self_attr(node: ast.expr) -> str:
    """'x' for a ``self.x`` expression, else ''."""

    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return ""


def _with_lock_names(node: ast.With) -> Set[str]:
    """Lock attribute names entered by this with-statement (``self.<lock>``
    or ``self.<lock>.acquire…`` style context items)."""

    names: Set[str] = set()
    for item in node.items:
        expr = item.context_expr
        if isinstance(expr, ast.Call):  # e.g. self._cv.wait_for wrappers
            expr = expr.func
        name = _self_attr(expr)
        if name:
            names.add(name)
    return names


class _MethodScanner:
    """Walks one method, tracking which lock attributes are held."""

    def __init__(self, lock_attrs: Set[str]):
        self.lock_attrs = lock_attrs
        # attr -> lock names held at (node, is_write) occurrences
        self.accesses: List[Tuple[str, ast.AST, bool, frozenset]] = []

    def scan(self, method: ast.FunctionDef) -> None:
        for stmt in method.body:
            self._visit(stmt, frozenset())

    def _visit(self, node: ast.AST, held: frozenset) -> None:
        if isinstance(node, ast.With):
            entered = _with_lock_names(node) & self.lock_attrs
            for item in node.items:
                self._visit(item.context_expr, held)
            for stmt in node.body:
                self._visit(stmt, held | entered)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # Nested callables run later, with no lock held.
            for child in ast.iter_child_nodes(node):
                self._visit(child, frozenset())
            return

        self._record(node, held)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATORS
            and self._mutated_attr(node)
        ):
            # A mutator call was recorded as one write; don't also record the
            # receiver's attribute load while descending.
            for arg in node.args:
                self._visit(arg, held)
            for kw in node.keywords:
                self._visit(kw.value, held)
            return
        for child in ast.iter_child_nodes(node):
            self._visit(child, held)

    def _record(self, node: ast.AST, held: frozenset) -> None:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                self._record_store(target, node, held)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                self._record_store(target, node, held)
        elif isinstance(node, ast.Call):
            attr = self._mutated_attr(node)
            if attr:
                self.accesses.append((attr, node, True, held))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attr = _self_attr(node)
            if attr:
                self.accesses.append((attr, node, False, held))

    @staticmethod
    def _mutated_attr(node: ast.Call) -> str:
        """'x' when the call mutates ``self.x`` via a container mutator."""

        if not (isinstance(node.func, ast.Attribute) and node.func.attr in _MUTATORS):
            return ""
        attr = _self_attr(node.func.value)
        if not attr and isinstance(node.func.value, ast.Subscript):
            attr = _self_attr(node.func.value.value)
        return attr

    def _record_store(self, target: ast.expr, node: ast.AST, held: frozenset) -> None:
        attr = _self_attr(target)
        if not attr and isinstance(target, ast.Subscript):
            attr = _self_attr(target.value)
        if not attr and isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_store(elt, node, held)
            return
        if attr:
            self.accesses.append((attr, node, True, held))


@register_checker
class LockChecker(Checker):
    rule = "lock"
    description = "attributes written under a lock must always be accessed under that lock"

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    def _check_class(self, module: Module, cls: ast.ClassDef) -> Iterator[Finding]:
        methods = [
            stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]

        lock_attrs: Set[str] = set()
        for method in methods:
            for sub in ast.walk(method):
                if isinstance(sub, ast.Assign) and _is_lock_factory(sub.value):
                    for target in sub.targets:
                        name = _self_attr(target)
                        if name:
                            lock_attrs.add(name)
        if not lock_attrs:
            return

        # Pass 1: which attrs are written under which lock (outside __init__)?
        protected: Dict[str, Set[str]] = {}  # attr -> locks it was written under
        scanners: Dict[str, _MethodScanner] = {}
        for method in methods:
            scanner = _MethodScanner(lock_attrs)
            scanner.scan(method)
            scanners[method.name] = scanner
            if method.name == "__init__":
                continue
            for attr, _node, is_write, held in scanner.accesses:
                if is_write and held and attr not in lock_attrs:
                    protected.setdefault(attr, set()).update(held)

        # Pass 2: flag bare accesses of protected attrs (outside __init__).
        for method in methods:
            if method.name == "__init__":
                continue
            for attr, node, is_write, held in scanners[method.name].accesses:
                locks = protected.get(attr)
                if not locks or locks & held:
                    continue
                verb = "written" if is_write else "read"
                lock_desc = "/".join(f"self.{name}" for name in sorted(locks))
                yield self.finding(
                    module,
                    node,
                    f"{cls.name}.{attr} is guarded by {lock_desc} elsewhere but "
                    f"{verb} here without it",
                )
