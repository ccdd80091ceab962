"""Flow-rules RS010–RS013: concurrency contracts checked over CFGs.

These rules combine :mod:`repro.analysis.cfg`,
:mod:`repro.analysis.dataflow` and the contract vocabulary of
:mod:`repro.analysis.concurrency` to make path-sensitive claims that
no single-node AST rule can:

* **RS010 lock-discipline** — every read/write of a ``@guarded_by``
  attribute happens with the named lock held on *all* CFG paths
  (forward must-analysis of held locks; exceptional edges included).
* **RS011 resource-lifecycle** — tracer spans, ingest sessions,
  buffer-pool pins and WAL handles opened in a function are closed /
  committed / released on *every* path out of it (forward may-analysis
  of still-open resources; ``with``/``finally`` discipline).
* **RS012 check-then-act** — in a ``@shared_across_queries`` class, an
  ``if`` that reads an attribute and then mutates the same attribute
  must run under a lock, or two queries interleave between the check
  and the act.
* **RS013 service-loop discipline** — in :mod:`repro.serve`, every
  unbounded (``while True``) loop must poll ``checkpoint()`` so
  shutdown is observed, and no engine-execution call
  (``search`` / ``range_search`` / ``iter_matches`` / ``run_query`` /
  ``open_stream`` / ``get_next``)
  may run with a service lock held (must-analysis of held locks —
  a lock held across an engine call serializes the whole service
  behind one query).

Documented blind spots (kept deliberately, to stay simple and fast):
closures over ``self`` are not analyzed against their enclosing
class's contract (RS010 skips nested functions), aliased locks
(``lock = self._lock``) are not tracked, and resources handed to
another object (passed as a call argument, stored on an attribute,
returned) are treated as ownership transfer and no longer tracked.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis.cfg import (
    CFG,
    EXCEPTION,
    BasicBlock,
    Edge,
    FunctionNode,
    walk_evaluated,
)
from repro.analysis.concurrency import ClassContract, module_contracts
from repro.analysis.dataflow import (
    FORWARD,
    DataflowProblem,
    is_top,
    solve,
)
from repro.analysis.findings import Finding
from repro.analysis.framework import FlowRule, ModuleSource, register

#: Methods allowed to touch guarded state without the lock: the object
#: is not yet (or no longer) reachable by other queries while they run.
_LIFECYCLE_METHODS = {"__init__", "__post_init__", "__new__", "__del__"}


def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.X`` -> ``"X"`` (None for anything else)."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _self_method_call(node: ast.AST) -> Optional[str]:
    """``self.m(...)`` -> ``"m"``."""
    if isinstance(node, ast.Call):
        attr = _self_attr(node.func)
        return attr
    return None


def _with_lock_attrs(stmt: ast.stmt, locks: FrozenSet[str]) -> Set[str]:
    """Lock attributes acquired by ``with self.<lock>:`` items."""
    acquired: Set[str] = set()
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            attr = _self_attr(item.context_expr)
            if attr is not None and attr in locks:
                acquired.add(attr)
    return acquired


def _acquire_release_attrs(
    stmt: ast.stmt, locks: FrozenSet[str], method: str
) -> Set[str]:
    """Lock attributes on which ``self.<lock>.<method>()`` is called."""
    out: Set[str] = set()
    for node in walk_evaluated(stmt):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == method
        ):
            attr = _self_attr(node.func.value)
            if attr is not None and attr in locks:
                out.add(attr)
    return out


class _HeldLocks(DataflowProblem):
    """Forward must-analysis: which of ``locks`` are held at each block.

    Gen: ``with self.<lock>:`` headers and explicit ``.acquire()``.
    Kill: the with-statement's synthetic exit blocks (normal *and*
    exceptional — ``__exit__`` releases on both) and explicit
    ``.release()``.  The gen is dropped along an ``exception`` edge
    leaving the acquiring block itself: if ``__enter__``/``acquire``
    raised, the lock was never taken.
    """

    direction = FORWARD
    may = False

    def __init__(self, locks: FrozenSet[str], entry: FrozenSet[str]) -> None:
        self._locks = locks
        self._entry = entry

    def boundary(self, cfg: CFG) -> FrozenSet[str]:
        return self._entry

    def gen(self, block: BasicBlock) -> FrozenSet[str]:
        out: Set[str] = set()
        for stmt in block.statements:
            out |= _with_lock_attrs(stmt, self._locks)
            out |= _acquire_release_attrs(stmt, self._locks, "acquire")
        return frozenset(out)

    def kill(self, block: BasicBlock) -> FrozenSet[str]:
        out: Set[str] = set()
        if block.label in ("with-exit", "with-except") and isinstance(
            block.origin, (ast.With, ast.AsyncWith)
        ):
            out |= _with_lock_attrs(block.origin, self._locks)
        for stmt in block.statements:
            out |= _acquire_release_attrs(stmt, self._locks, "release")
        return frozenset(out)

    def edge_value(
        self, block: BasicBlock, edge: Edge, value: FrozenSet[str]
    ) -> FrozenSet[str]:
        if edge.kind == EXCEPTION:
            return value - self.gen(block)
        return value


def _held_before(
    module: ModuleSource,
    func: FunctionNode,
    locks: FrozenSet[str],
    entry: FrozenSet[str],
) -> Tuple[CFG, Dict[int, object]]:
    cfg = module.cfg(func)
    result = solve(cfg, _HeldLocks(locks, entry))
    return cfg, result.before


@register
class LockDisciplineRule(FlowRule):
    """RS010: guarded attributes only touched with their lock held."""

    code = "RS010"
    name = "lock-discipline"
    rationale = (
        "a @guarded_by attribute read/written without its lock held on "
        "every CFG path is a data race once queries run concurrently"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        contracts: Dict[ast.ClassDef, ClassContract] = {
            contract.node: contract
            for contract in module_contracts(module.tree)
        }
        if not contracts:
            return
        for owner, func, in self._methods(module, contracts):
            contract = contracts[owner]
            yield from self._check_method(module, contract, func)

    def _methods(
        self,
        module: ModuleSource,
        contracts: Dict[ast.ClassDef, ClassContract],
    ) -> Iterator[Tuple[ast.ClassDef, FunctionNode]]:
        for owner, func in module.function_contexts():
            if owner is None or owner not in contracts:
                continue
            contract = contracts[owner]
            if not contract.guards and not contract.requires:
                continue
            if func.name in _LIFECYCLE_METHODS:
                continue
            yield owner, func

    def _check_method(
        self,
        module: ModuleSource,
        contract: ClassContract,
        func: FunctionNode,
    ) -> Iterator[Finding]:
        locks = frozenset(contract.lock_attrs)
        entry = frozenset(
            {contract.requires[func.name]}
            if func.name in contract.requires
            else ()
        )
        cfg, before = _held_before(module, func, locks, entry)
        reported: Set[Tuple[int, int, str]] = set()
        for block in cfg.blocks:
            held = before.get(block.block_id)
            if held is None or is_top(held):
                continue  # unreachable
            for stmt in block.statements:
                for node in walk_evaluated(stmt):
                    yield from self._check_node(
                        module, contract, node, held, reported
                    )

    def _check_node(
        self,
        module: ModuleSource,
        contract: ClassContract,
        node: ast.AST,
        held: object,
        reported: Set[Tuple[int, int, str]],
    ) -> Iterator[Finding]:
        assert isinstance(held, frozenset)
        attr = _self_attr(node)
        if attr is not None and attr in contract.guards:
            lock = contract.guards[attr]
            if lock not in held:
                key = (node.lineno, node.col_offset, attr)
                if key not in reported:
                    reported.add(key)
                    yield self.finding(
                        module,
                        node,
                        f"access to 'self.{attr}' (guarded by "
                        f"'self.{lock}') without the lock held on every "
                        f"path; wrap in 'with self.{lock}:'",
                    )
        method = _self_method_call(node)
        if method is not None and method in contract.requires:
            lock = contract.requires[method]
            if lock not in held:
                key = (node.lineno, node.col_offset, f"{method}()")
                if key not in reported:
                    reported.add(key)
                    yield self.finding(
                        module,
                        node,
                        f"call to 'self.{method}()' requires "
                        f"'self.{lock}' held (declared via "
                        f"@requires_lock) but no path guarantees it",
                    )


# ---------------------------------------------------------------------------
# RS011 resource lifecycle
# ---------------------------------------------------------------------------

#: method-call openers: method name -> (human label, closer methods).
_METHOD_OPENERS: Dict[str, Tuple[str, FrozenSet[str]]] = {
    "start_span": ("tracer span", frozenset({"close", "end_span"})),
    "ingest": ("ingest session", frozenset({"commit", "abort", "close"})),
    "pin": ("buffer-pool pin", frozenset({"release", "unpin", "close"})),
}

#: bare-callable openers (constructors/factories): name -> same shape.
_CALLABLE_OPENERS: Dict[str, Tuple[str, FrozenSet[str]]] = {
    "WriteAheadLog": ("write-ahead log", frozenset({"close"})),
    "create_durable": ("write-ahead log", frozenset({"close"})),
}

#: Modules that implement the resources themselves; their internals
#: legitimately juggle half-open handles.
_RS011_EXEMPT = ("repro/obs/tracer.py",)


def _opener_of(call: ast.AST) -> Optional[Tuple[str, FrozenSet[str]]]:
    if not isinstance(call, ast.Call):
        return None
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in _METHOD_OPENERS:
        return _METHOD_OPENERS[func.attr]
    if isinstance(func, ast.Name) and func.id in _CALLABLE_OPENERS:
        return _CALLABLE_OPENERS[func.id]
    return None


def _names_in(node: ast.AST) -> Set[str]:
    return {
        child.id for child in ast.walk(node) if isinstance(child, ast.Name)
    }


class _OpenResources(DataflowProblem):
    """Forward may-analysis: which resource variables may be open."""

    direction = FORWARD
    may = True

    def __init__(
        self,
        opens: Dict[int, Dict[str, ast.Call]],  # block id -> var -> call
        closers: Dict[str, FrozenSet[str]],  # var -> closer methods
    ) -> None:
        self._opens = opens
        self._closers = closers
        self._vars = frozenset(closers)

    def gen(self, block: BasicBlock) -> FrozenSet[str]:
        return frozenset(self._opens.get(block.block_id, {}))

    def kill(self, block: BasicBlock) -> FrozenSet[str]:
        killed: Set[str] = set()
        for stmt in block.statements:
            killed |= self._killed_by(stmt)
        return frozenset(killed)

    def edge_value(
        self, block: BasicBlock, edge: Edge, value: FrozenSet[str]
    ) -> FrozenSet[str]:
        # If the opener call itself raised, the resource never existed.
        if edge.kind == EXCEPTION:
            return value - self.gen(block)
        return value

    def _killed_by(self, stmt: ast.stmt) -> Set[str]:
        killed: Set[str] = set()
        # `with resource:` — the context manager closes it.
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                expr = item.context_expr
                if isinstance(expr, ast.Name) and expr.id in self._vars:
                    killed.add(expr.id)
        # Ownership transfer out of the function.
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            killed |= _names_in(stmt.value) & self._vars
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id in self._vars:
                    killed.add(target.id)
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            value = stmt.value
            for target in targets:
                # Rebinding the variable forgets the old resource;
                # storing it on an object transfers ownership.
                if isinstance(target, ast.Name) and target.id in self._vars:
                    killed.add(target.id)
                if isinstance(target, (ast.Attribute, ast.Subscript, ast.Tuple)):
                    if value is not None:
                        killed |= _names_in(value) & self._vars
            if (
                value is not None
                and isinstance(value, ast.Name)
                and value.id in self._vars
            ):
                killed.add(value.id)  # alias: tracked var escapes
        for node in walk_evaluated(stmt):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in self._vars
                    and func.attr in self._closers[func.value.id]
                ):
                    killed.add(func.value.id)
                for arg in node.args:
                    inner = (
                        arg.value if isinstance(arg, ast.Starred) else arg
                    )
                    killed |= _names_in(inner) & self._vars
                for keyword in node.keywords:
                    killed |= _names_in(keyword.value) & self._vars
            elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                if node.value is not None:
                    killed |= _names_in(node.value) & self._vars
        return killed


@register
class ResourceLifecycleRule(FlowRule):
    """RS011: spans/sessions/pins/WAL handles closed on every path."""

    code = "RS011"
    name = "resource-lifecycle"
    rationale = (
        "a span/ingest-session/pin/WAL handle that can reach function "
        "exit unclosed leaks on the exceptional path; use with/finally"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if not module.in_package("repro/"):
            return
        if module.in_package(*_RS011_EXEMPT):
            return
        for _owner, func in module.function_contexts():
            yield from self._check_function(module, func)

    def _check_function(
        self, module: ModuleSource, func: FunctionNode
    ) -> Iterator[Finding]:
        opens, closers, discarded = self._collect(module, func)
        for call, label in discarded:
            yield self.finding(
                module,
                call,
                f"{label} opened and immediately discarded; nothing can "
                "ever close it — use 'with' or keep a reference",
            )
        if not closers:
            return
        cfg = module.cfg(func)
        result = solve(cfg, _OpenResources(opens, closers))
        exit_value = result.before.get(cfg.exit)
        if exit_value is None or is_top(exit_value):
            return
        assert isinstance(exit_value, frozenset)
        reported: Set[str] = set()
        for block_opens in opens.values():
            for var, call in block_opens.items():
                if var in exit_value and var not in reported:
                    reported.add(var)
                    label = (_opener_of(call) or ("resource", frozenset()))[0]
                    closer_names = " / ".join(
                        sorted(f".{name}()" for name in closers[var])
                    )
                    yield self.finding(
                        module,
                        call,
                        f"{label} '{var}' may reach function exit without "
                        f"{closer_names} on some path (exceptions "
                        "included); use 'with' or close in a 'finally'",
                    )

    def _collect(
        self, module: ModuleSource, func: FunctionNode
    ) -> Tuple[
        Dict[int, Dict[str, ast.Call]],
        Dict[str, FrozenSet[str]],
        List[Tuple[ast.Call, str]],
    ]:
        cfg = module.cfg(func)
        opens: Dict[int, Dict[str, ast.Call]] = {}
        closers: Dict[str, FrozenSet[str]] = {}
        discarded: List[Tuple[ast.Call, str]] = []
        for block in cfg.blocks:
            for stmt in block.statements:
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target = stmt.targets[0]
                    value = stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    target = stmt.target
                    value = stmt.value
                elif isinstance(stmt, ast.Expr):
                    opener = _opener_of(stmt.value)
                    if opener is not None:
                        assert isinstance(stmt.value, ast.Call)
                        discarded.append((stmt.value, opener[0]))
                    continue
                else:
                    continue
                if value is None or not isinstance(target, ast.Name):
                    continue
                opener = _opener_of(value)
                if opener is None:
                    continue
                assert isinstance(value, ast.Call)
                opens.setdefault(block.block_id, {})[target.id] = value
                closers[target.id] = opener[1]
        return opens, closers, discarded


# ---------------------------------------------------------------------------
# RS012 check-then-act
# ---------------------------------------------------------------------------

#: Method calls on an attribute that count as mutating it.
_MUTATORS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "move_to_end",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "update",
    }
)


def _attrs_read(node: ast.AST) -> Set[str]:
    """Self-attributes read anywhere inside ``node``."""
    reads: Set[str] = set()
    for child in ast.walk(node):
        attr = _self_attr(child)
        if attr is not None and isinstance(child.ctx, ast.Load):  # type: ignore[attr-defined]
            reads.add(attr)
    return reads


def _direct_writes(node: ast.AST) -> Set[str]:
    """Self-attributes directly mutated inside ``node``.

    Covers plain/aug/ann assignment to ``self.X`` or ``self.X[...]``,
    ``del`` of either, and mutator method calls (``self.X.pop()``).
    Nested function/class bodies are not descended into.
    """
    writes: Set[str] = set()
    pending: List[ast.AST] = [node]
    while pending:
        current = pending.pop()
        if isinstance(
            current,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
        ) and current is not node:
            continue
        if isinstance(current, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                current.targets
                if isinstance(current, ast.Assign)
                else [current.target]
            )
            for target in targets:
                writes |= _write_target_attrs(target)
        elif isinstance(current, ast.Delete):
            for target in current.targets:
                writes |= _write_target_attrs(target)
        elif isinstance(current, ast.Call):
            func = current.func
            if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
                attr = _self_attr(func.value)
                if attr is not None:
                    writes.add(attr)
        pending.extend(ast.iter_child_nodes(current))
    return writes


def _write_target_attrs(target: ast.AST) -> Set[str]:
    attr = _self_attr(target)
    if attr is not None:
        return {attr}
    if isinstance(target, ast.Subscript):
        attr = _self_attr(target.value)
        if attr is not None:
            return {attr}
    if isinstance(target, (ast.Tuple, ast.List)):
        out: Set[str] = set()
        for element in target.elts:
            out |= _write_target_attrs(element)
        return out
    return set()


def _any_lock_universe(func: FunctionNode) -> FrozenSet[str]:
    """Every ``self.<attr>`` used as a with-context or acquire target."""
    locks: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                attr = _self_attr(item.context_expr)
                if attr is not None:
                    locks.add(attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "acquire"
        ):
            attr = _self_attr(node.func.value)
            if attr is not None:
                locks.add(attr)
    return frozenset(locks)


@register
class CheckThenActRule(FlowRule):
    """RS012: read-test-mutate of a shared attribute under no lock."""

    code = "RS012"
    name = "check-then-act"
    rationale = (
        "in a @shared_across_queries class, testing an attribute and "
        "then mutating it outside a lock lets two queries interleave "
        "between the check and the act"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        shared = {
            contract.node: contract
            for contract in module_contracts(module.tree)
            if contract.shared
        }
        if not shared:
            return
        for owner, func in module.function_contexts():
            if owner is None or owner not in shared:
                continue
            if func.name in _LIFECYCLE_METHODS:
                continue
            contract = shared[owner]
            writes_by_method = self._writes_by_method(owner)
            yield from self._check_method(
                module, contract, func, writes_by_method
            )

    def _writes_by_method(self, klass: ast.ClassDef) -> Dict[str, Set[str]]:
        out: Dict[str, Set[str]] = {}
        for child in klass.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out[child.name] = _direct_writes(child)
        return out

    def _check_method(
        self,
        module: ModuleSource,
        contract: ClassContract,
        func: FunctionNode,
        writes_by_method: Dict[str, Set[str]],
    ) -> Iterator[Finding]:
        locks = _any_lock_universe(func) | frozenset(contract.lock_attrs)
        entry = frozenset(
            {contract.requires[func.name]}
            if func.name in contract.requires
            else ()
        )
        cfg, before = _held_before(module, func, locks, entry)
        for block in cfg.blocks:
            if not block.statements:
                continue
            stmt = block.statements[0]
            if not isinstance(stmt, ast.If):
                continue
            held = before.get(block.block_id)
            if held is None or is_top(held):
                continue
            assert isinstance(held, frozenset)
            if held:
                continue  # some lock is held across the check
            reads = _attrs_read(stmt.test)
            if not reads:
                continue
            writes: Set[str] = set()
            for branch_stmt in stmt.body + stmt.orelse:
                writes |= _direct_writes(branch_stmt)
                for node in ast.walk(branch_stmt):
                    method = _self_method_call(node)
                    if method is not None and method in writes_by_method:
                        writes |= writes_by_method[method]
            racy = sorted(reads & writes)
            if racy:
                attrs = ", ".join(f"'self.{attr}'" for attr in racy)
                yield self.finding(
                    module,
                    stmt,
                    f"check-then-act on shared attribute(s) {attrs} "
                    "without a lock: the test and the mutation can "
                    "interleave with another query; hold a lock across "
                    "both",
                )


# ---------------------------------------------------------------------------
# RS013 service-loop discipline
# ---------------------------------------------------------------------------

#: Terminal attribute names that constitute engine execution: calling
#: any of these runs (part of) a query against the database.
_ENGINE_EXECUTION_CALLS = frozenset(
    {
        "search",
        "range_search",
        "iter_matches",
        "run_query",
        "open_stream",
        "get_next",
    }
)


def _is_constant_true(test: ast.expr) -> bool:
    return isinstance(test, ast.Constant) and bool(test.value)


@register
class ServiceLoopDisciplineRule(FlowRule):
    """RS013: serve loops checkpoint; no lock held across engine calls.

    The query service is built from daemon loops (worker, accept,
    connection handlers) that only terminate cooperatively: an
    unbounded ``while True`` loop that never polls ``checkpoint()``
    keeps its thread alive through :meth:`QueryService.shutdown`
    forever.  And because the service multiplexes many queries over a
    few locks, holding *any* service lock across an engine-execution
    call serializes every other request behind one query's I/O — the
    exact convoy the bounded queue and admission controller exist to
    prevent.  Both halves share the :class:`_HeldLocks` must-analysis
    with RS010, so the lock claim holds on *all* CFG paths.
    """

    code = "RS013"
    name = "service-loop-discipline"
    rationale = (
        "an uncheckpointed while-True service loop never observes "
        "shutdown, and a lock held across engine execution convoys "
        "every concurrent request behind one query"
    )

    scope = ("repro/serve/",)

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if not module.in_package(*self.scope):
            return
        contracts: Dict[ast.ClassDef, ClassContract] = {
            contract.node: contract
            for contract in module_contracts(module.tree)
        }
        for owner, func in module.function_contexts():
            yield from self._check_loops(module, func)
            contract = contracts.get(owner) if owner is not None else None
            yield from self._check_engine_calls(module, func, contract)

    # -- half one: unbounded loops must poll checkpoint() --------------

    def _outermost_loops(
        self, func: FunctionNode
    ) -> Iterator[ast.While]:
        stack: List[ast.AST] = list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(node, ast.While):
                yield node
                continue  # nested loops belong to this loop's subtree
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def _has_checkpoint(loop: ast.While) -> bool:
        for node in ast.walk(loop):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "checkpoint"
            ):
                return True
        return False

    def _check_loops(
        self, module: ModuleSource, func: FunctionNode
    ) -> Iterator[Finding]:
        for loop in self._outermost_loops(func):
            if not _is_constant_true(loop.test):
                continue  # bounded loops terminate on their own
            if not self._has_checkpoint(loop):
                yield self.finding(
                    module,
                    loop,
                    f"unbounded 'while True' loop in {func.name}() never "
                    f"calls checkpoint(): the thread outlives shutdown "
                    f"and the service cannot drain; poll "
                    f"shutdown_control.checkpoint() each iteration",
                )

    # -- half two: no service lock held across engine execution --------

    def _check_engine_calls(
        self,
        module: ModuleSource,
        func: FunctionNode,
        contract: Optional[ClassContract],
    ) -> Iterator[Finding]:
        locks = _any_lock_universe(func)
        if contract is not None:
            locks |= frozenset(contract.lock_attrs)
        if not locks:
            return
        entry = frozenset(
            {contract.requires[func.name]}
            if contract is not None and func.name in contract.requires
            else ()
        )
        cfg, before = _held_before(module, func, locks, entry)
        reported: Set[Tuple[int, int]] = set()
        for block in cfg.blocks:
            held = before.get(block.block_id)
            if held is None or is_top(held):
                continue  # unreachable
            assert isinstance(held, frozenset)
            if not held:
                continue
            for stmt in block.statements:
                for node in walk_evaluated(stmt):
                    if not (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in _ENGINE_EXECUTION_CALLS
                    ):
                        continue
                    key = (node.lineno, node.col_offset)
                    if key in reported:
                        continue
                    reported.add(key)
                    held_names = ", ".join(
                        sorted(f"'self.{name}'" for name in held)
                    )
                    yield self.finding(
                        module,
                        node,
                        f"engine-execution call '.{node.func.attr}()' "
                        f"with {held_names} held on every path: a lock "
                        f"held across engine execution serializes all "
                        f"concurrent requests behind this query; "
                        f"release before dispatching",
                    )
