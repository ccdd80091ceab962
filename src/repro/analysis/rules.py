"""The built-in repo-specific rules.

Each rule polices one contract that the paper's guarantees rest on but
that Python cannot express in the type system.  All six are plain
``ast`` walks; the two lock rules (RS010, RS013) share one lexical walk
over ``with self.<lock>:`` nesting, :func:`_walk_held`.  The per-rule
table with hit counts and recorded catches lives in
``docs/static-analysis.md``; the one-line versions are in each rule's
``rationale`` attribute (shown by ``--list-rules``).
"""

from __future__ import annotations

import ast
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.analysis.concurrency import ClassContract, module_contracts
from repro.analysis.contracts import (
    LOWER_BOUND_CONTRACTS,
    is_bound_name,
)
from repro.analysis.findings import Finding
from repro.analysis.framework import ModuleSource, Rule, register

AnyFunction = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _own_nodes(func: AnyFunction) -> Iterator[ast.AST]:
    """Nodes in a function body, excluding nested function bodies.

    Nested functions are linted as functions in their own right, so the
    enclosing function must not inherit (or be blamed for) their calls.
    """
    stack: List[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _terminal_name(expr: ast.expr) -> Optional[str]:
    """The last identifier of a dotted expression (``a.b.pager`` -> ``pager``)."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _outermost_loops(
    func: AnyFunction,
) -> Iterator[Union[ast.For, ast.While]]:
    """Top-level loops of a function body (nested functions excluded)."""
    stack: List[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.For, ast.While)):
            yield node
            continue  # nested loops belong to this loop's subtree
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _has_checkpoint(loop: Union[ast.For, ast.While]) -> bool:
    """Whether a ``.checkpoint()`` call appears anywhere under ``loop``."""
    for node in ast.walk(loop):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "checkpoint"
        ):
            return True
    return False


@register
class BufferBypassRule(Rule):
    """RS001: ``Pager.read`` called outside the buffer layer.

    The paper's headline metric is the number of page accesses
    (``NUM_IO``), measured at the :class:`~repro.storage.pager.Pager`
    and deduplicated by the :class:`~repro.storage.buffer.BufferPool`'s
    LRU cache.  Any code path that calls ``Pager.read`` directly fetches
    pages *around* the pool: it inflates the physical-read counters
    relative to what a buffered execution would cost, skips the pool's
    transient-fault retry policy, and makes engine comparisons
    meaningless.  Only the buffer layer itself (and the fault-injection
    wrapper, which subclasses ``Pager``) may issue physical reads.
    """

    code = "RS001"
    name = "buffer-bypass"
    rationale = (
        "Pager.read outside the buffer layer corrupts the paper's "
        "page-access (NUM_IO) accounting and skips fault retries."
    )

    #: Modules allowed to touch the pager's physical read path.
    whitelist = (
        "repro/storage/pager.py",
        "repro/storage/buffer.py",
        "repro/storage/faults.py",
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if not module.path.startswith("repro/"):
            return
        if module.path in self.whitelist:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "read"):
                continue
            receiver = _terminal_name(func.value)
            if receiver is None:
                continue
            if receiver == "Pager" or "pager" in receiver.lower():
                yield self.finding(
                    module,
                    node,
                    f"physical read bypasses the BufferPool "
                    f"({ast.unparse(func)}): route page fetches through "
                    f"BufferPool.get() so NUM_IO accounting and retry "
                    f"policy apply",
                )


@register
class LowerBoundContractRule(Rule):
    """RS005: bound functions must match the static contract table.

    Cross-checks ``repro/core/lower_bounds.py`` against
    :data:`repro.analysis.contracts.LOWER_BOUND_CONTRACTS` in both
    directions, so the no-false-dismissal chain of Lemma 1 always has a
    machine-readable statement of which functions participate and in
    which direction (see the contracts module docstring).
    """

    code = "RS005"
    name = "lower-bound-contract"
    rationale = (
        "Every bound function must be declared in the static contract "
        "table, keeping Lemma 1's chain machine-checkable."
    )

    #: The one module whose definitions the table describes.
    target = "repro/core/lower_bounds.py"

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if module.path != self.target:
            return
        defined: dict = {}
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined[node.name] = node
        for name, node in defined.items():
            if is_bound_name(name) and name not in LOWER_BOUND_CONTRACTS:
                yield self.finding(
                    module,
                    node,
                    f"bound-shaped function {name}() has no entry in "
                    f"repro/analysis/contracts.py: declare its direction "
                    f"(lower/upper) and the quantity it bounds, and cover "
                    f"it in the lower-bound property tests",
                )
        for name in LOWER_BOUND_CONTRACTS:
            if name not in defined:
                yield self.finding_at(
                    module,
                    1,
                    f"contract table entry {name!r} has no matching "
                    f"definition in {self.target}: the declared guarantee "
                    f"no longer maps to code (stale after a rename?)",
                )


@register
class CheckpointDisciplineRule(Rule):
    """RS007: engine traversal loops must call ``checkpoint()``.

    The budget/deadline/cancellation plane (:mod:`repro.control`) is
    *cooperative*: limits only trip when engine code polls them.  An
    engine loop that never calls
    :meth:`~repro.control.ExecutionControl.checkpoint` is a blind spot —
    a query stuck in that loop ignores its deadline, overruns its page
    budget unbounded, and cannot be cancelled.  Every outermost
    ``for``/``while`` loop in an engine's ``_run``/``search`` — and in
    the range probe's ``_probe_window`` tree walk — must therefore
    contain a ``.checkpoint()`` call somewhere in its body (nested
    loops are covered by the enclosing loop's subtree).
    """

    code = "RS007"
    name = "missing-checkpoint"
    rationale = (
        "Engine loops without budget.checkpoint() are uncancellable "
        "blind spots that ignore deadlines and I/O budgets."
    )

    scope = ("repro/engines/",)

    #: Function names that constitute an engine's main traversal.
    loop_functions = frozenset({"_run", "search", "_probe_window"})

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if not module.in_package(*self.scope):
            return
        for func in module.functions():
            if func.name not in self.loop_functions:
                continue
            for loop in _outermost_loops(func):
                if not _has_checkpoint(loop):
                    keyword = "for" if isinstance(loop, ast.For) else "while"
                    yield self.finding(
                        module,
                        loop,
                        f"{keyword} loop in {func.name}() never calls "
                        f"budget.checkpoint(): the query cannot be "
                        f"cancelled or budget-limited while it runs; "
                        f"checkpoint at the loop boundary (see "
                        f"repro.control)",
                    )


@register
class WalDisciplineRule(Rule):
    """RS009: page mutation outside a WAL/session context.

    Crash safety of online ingest (:mod:`repro.ingest`) rests on
    write-ahead discipline: every post-build structural mutation —
    ``Pager.allocate``/``write``/``free`` against a sealed database —
    must be intent-logged to the :class:`~repro.storage.wal.WriteAheadLog`
    *before* it is applied, or recovery replays a WAL that does not
    describe what actually happened to the pages.  A storage/index
    function that mutates pages with no session context in sight — no
    ``wal``/``session`` parameter and no ``self._wal``/``session``
    reference — is either an offline build path (funnel its writes
    through a helper and suppress with ``# repro: ignore[RS009]``
    stating why, as the R*-tree does) or a crash-unsafe write that
    recovery can never reproduce.  The WAL, pager, buffer,
    fault-injection, and persistence layers implement the discipline
    and are exempt.
    """

    code = "RS009"
    name = "wal-discipline"
    rationale = (
        "Pager mutations outside a WAL/ingest-session context are "
        "invisible to crash recovery: log intent first or funnel "
        "through a session-threaded path."
    )

    scope = ("repro/storage/", "repro/index/")

    #: Layers that implement the discipline rather than consume it.
    whitelist = (
        "repro/storage/pager.py",
        "repro/storage/buffer.py",
        "repro/storage/faults.py",
        "repro/storage/wal.py",
        "repro/storage/persistence.py",
    )

    #: Pager methods that mutate page state.
    mutators = frozenset({"allocate", "write", "free"})

    #: Parameter names / annotation substrings that prove session context.
    _context_params = frozenset({"wal", "session", "ingest"})
    _context_annotations = ("WriteAheadLog", "IngestSession")
    _context_names = frozenset({"wal", "_wal", "session", "_session"})

    def _mutator_calls(self, func: AnyFunction) -> List[ast.Call]:
        calls = []
        for node in _own_nodes(func):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self.mutators
            ):
                continue
            receiver = _terminal_name(node.func.value)
            if receiver is None:
                continue
            if receiver == "Pager" or "pager" in receiver.lower():
                calls.append(node)
        return calls

    def _has_session_context(self, func: AnyFunction) -> bool:
        args = func.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        for param in params:
            if param.arg in self._context_params:
                return True
            if param.annotation is not None:
                annotation = ast.unparse(param.annotation)
                if any(
                    hint in annotation for hint in self._context_annotations
                ):
                    return True
        for node in _own_nodes(func):
            if isinstance(node, ast.Name) and node.id in self._context_names:
                return True
            if (
                isinstance(node, ast.Attribute)
                and node.attr in self._context_names
            ):
                return True
        return False

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if not module.in_package(*self.scope):
            return
        if module.path in self.whitelist:
            return
        for func in module.functions():
            calls = self._mutator_calls(func)
            if not calls or self._has_session_context(func):
                continue
            for call in calls:
                assert isinstance(call.func, ast.Attribute)
                yield self.finding(
                    module,
                    call,
                    f"{func.name}() mutates pages via "
                    f".{call.func.attr}() with no WAL/session context "
                    f"(no wal/session parameter or self._wal reference): "
                    f"log intent to the WAL before applying, or funnel "
                    f"through a session-threaded path (see repro.ingest)",
                )


# ---------------------------------------------------------------------------
# Lock discipline (RS010, RS013): one lexical walk over ``with`` nesting
# ---------------------------------------------------------------------------

#: Methods allowed to touch guarded state without the lock: the object
#: is not yet (or no longer) reachable by other queries while they run.
_LIFECYCLE_METHODS = {"__init__", "__post_init__", "__new__", "__del__"}

_NESTED_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _self_attr(node: Optional[ast.AST]) -> Optional[str]:
    """``self.X`` -> ``"X"`` (None for anything else)."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _bare_lock_call(node: ast.AST) -> Optional[Tuple[str, str]]:
    """``self.<attr>.acquire(...)`` / ``.release()`` -> ``(attr, method)``."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("acquire", "release")
    ):
        attr = _self_attr(node.func.value)
        if attr is not None:
            return attr, node.func.attr
    return None


def _walk_held(
    nodes: Iterable[ast.AST],
    held: FrozenSet[str],
    locks: Optional[FrozenSet[str]],
) -> Iterator[Tuple[ast.AST, FrozenSet[str]]]:
    """Every node under ``nodes`` with the locks lexically held there.

    A lock ``self.<attr>`` (any attribute when ``locks`` is None, else
    only the named ones) is held inside the body of ``with
    self.<attr>:`` — ``__exit__`` releases it on every way out, so
    nesting alone decides, with no path reasoning.  ``held`` seeds the
    walk (a ``@requires_lock`` method starts with its lock).  A bare
    ``self.<attr>.acquire()`` statement counts as holding the lock for
    the statements after it in the same suite, until a bare
    ``.release()``: RS010 reports the pair itself, and RS013 must still
    see an engine call made between them.

    Deliberate blind spots: nested ``def``/``class`` bodies are not
    chased (they run later; ``self`` there is a closure variable),
    ``lambda`` bodies count as running where they are written (true for
    ``self._lock.wait_for(lambda: ...)``, the shape the service code
    uses), and aliased locks (``lock = self._lock``) are not tracked.
    """
    for node in nodes:
        if isinstance(node, _NESTED_SCOPES):
            continue
        yield node, held
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = held
            for item in node.items:
                yield from _walk_held(ast.iter_child_nodes(item), inner, locks)
                attr = _self_attr(item.context_expr)
                if attr is not None and (locks is None or attr in locks):
                    inner = inner | {attr}
            yield from _walk_held(node.body, inner, locks)
            continue
        yield from _walk_held(ast.iter_child_nodes(node), held, locks)
        if isinstance(node, ast.Expr):
            call = _bare_lock_call(node.value)
            if call is not None and (locks is None or call[0] in locks):
                lock, method = call
                held = held | {lock} if method == "acquire" else held - {lock}


def _entry_locks(contract: ClassContract, func: AnyFunction) -> FrozenSet[str]:
    """Locks a method may assume held on entry (``@requires_lock``)."""
    lock = contract.requires.get(func.name)
    return frozenset() if lock is None else frozenset({lock})


@register
class LockDisciplineRule(Rule):
    """RS010: guarded attributes only touched with their lock held.

    In every method of a class that declares a ``@guarded_by`` /
    ``@requires_lock`` contract (lifecycle methods exempt), three
    things are findings: a read or write of a guarded attribute, or a
    call to a ``@requires_lock`` helper, that is not lexically inside
    ``with self.<lock>:`` (or a method that itself requires the lock);
    and a bare ``.acquire()`` / ``.release()`` on a declared lock, which
    the walk cannot pair up and a ``with`` block makes unnecessary.
    """

    code = "RS010"
    name = "lock-discipline"
    rationale = (
        "a @guarded_by attribute read/written outside 'with "
        "self.<lock>:' is a data race once queries run concurrently"
    )

    def __init__(self) -> None:
        #: Non-vacuity evidence for the self-check test: how many
        #: contract classes and guarded accesses this instance visited.
        self.classes_visited = 0
        self.accesses_visited = 0

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for contract in module_contracts(module.tree):
            if not contract.guards and not contract.requires:
                continue
            self.classes_visited += 1
            locks = frozenset(contract.lock_attrs)
            for method in contract.node.body:
                if (
                    isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and method.name not in _LIFECYCLE_METHODS
                ):
                    entry = _entry_locks(contract, method)
                    for node, held in _walk_held(method.body, entry, locks):
                        yield from self._check_node(
                            module, contract, node, held
                        )

    def _check_node(
        self,
        module: ModuleSource,
        contract: ClassContract,
        node: ast.AST,
        held: FrozenSet[str],
    ) -> Iterator[Finding]:
        attr = _self_attr(node)
        if attr is not None and attr in contract.guards:
            self.accesses_visited += 1
            lock = contract.guards[attr]
            if lock not in held:
                yield self.finding(
                    module,
                    node,
                    f"access to 'self.{attr}' (guarded by 'self.{lock}') "
                    f"outside 'with self.{lock}:'; wrap it, or mark the "
                    f"method @requires_lock(\"{lock}\")",
                )
        method = _self_attr(node.func) if isinstance(node, ast.Call) else None
        if method is not None and method in contract.requires:
            lock = contract.requires[method]
            if lock not in held:
                yield self.finding(
                    module,
                    node,
                    f"call to 'self.{method}()' requires 'self.{lock}' "
                    f"held (declared via @requires_lock) but is outside "
                    f"'with self.{lock}:'",
                )
        call = _bare_lock_call(node)
        if call is not None and call[0] in contract.lock_attrs:
            yield self.finding(
                module,
                node,
                f"bare 'self.{call[0]}.{call[1]}()' on a declared lock: "
                f"hold it with 'with self.{call[0]}:' so the release "
                f"happens on every exit and this rule can see the scope",
            )


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


@register
class ServiceLoopDisciplineRule(Rule):
    """RS013: serve loops checkpoint; no lock held across engine calls.

    The query service is built from daemon loops (worker, accept,
    connection handlers) that only terminate cooperatively: an
    unbounded ``while True`` loop that never polls ``checkpoint()``
    keeps its thread alive through :meth:`QueryService.shutdown`
    forever.  And because the service multiplexes many queries over a
    few locks, holding *any* service lock across an engine-execution
    call (``search`` / ``range_search`` / ``iter_matches`` /
    ``run_query`` / ``open_stream`` / ``get_next``) serializes every
    other request behind one query's I/O — the exact convoy the bounded
    queue and admission controller exist to prevent.  The lock half
    shares :func:`_walk_held` with RS010, treating every ``with
    self.<attr>:`` as a lock.
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
        entry: Dict[ast.AST, FrozenSet[str]] = {
            method: _entry_locks(contract, method)
            for contract in module_contracts(module.tree)
            for method in contract.node.body
            if isinstance(method, ast.FunctionDef)
        }
        for func in module.functions():
            yield from self._check_loops(module, func)
            held_at_entry = entry.get(func, frozenset())
            for node, held in _walk_held(func.body, held_at_entry, None):
                if (
                    held
                    and isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _ENGINE_EXECUTION_CALLS
                ):
                    held_names = ", ".join(
                        sorted(f"'self.{name}'" for name in held)
                    )
                    yield self.finding(
                        module,
                        node,
                        f"engine-execution call '.{node.func.attr}()' "
                        f"with {held_names} held: a lock held across "
                        f"engine execution serializes all concurrent "
                        f"requests behind this query; release before "
                        f"dispatching",
                    )

    def _check_loops(
        self, module: ModuleSource, func: AnyFunction
    ) -> Iterator[Finding]:
        for loop in _outermost_loops(func):
            if not (
                isinstance(loop, ast.While)
                and isinstance(loop.test, ast.Constant)
                and loop.test.value
            ):
                continue  # bounded loops terminate on their own
            if not _has_checkpoint(loop):
                yield self.finding(
                    module,
                    loop,
                    f"unbounded 'while True' loop in {func.name}() never "
                    f"calls checkpoint(): the thread outlives shutdown "
                    f"and the service cannot drain; poll "
                    f"shutdown_control.checkpoint() each iteration",
                )
