"""The built-in repo-specific rules (RS001–RS009).

Each rule polices one contract that the paper's guarantees rest on but
that Python cannot express in the type system.  The catalog with full
rationale lives in ``docs/static-analysis.md``; the one-line versions
are in each rule's ``rationale`` attribute (shown by ``--list-rules``).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple, Union

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
class ExceptionTaxonomyRule(Rule):
    """RS002: generic builtin exceptions raised inside the library layers.

    ``repro/exceptions.py`` defines the typed hierarchy that the
    degradation machinery keys off: engines catch ``StorageError`` to
    decide raise-vs-degrade, persistence distinguishes
    ``PartialSaveError`` from ``IntegrityError``, and the CLI maps
    ``ReproError`` to exit codes.  A bare ``ValueError`` or
    ``RuntimeError`` raised inside ``storage/``/``engines/`` escapes all
    of that: it aborts degraded queries that should have skipped a page
    and is indistinguishable from a genuine bug at API boundaries.
    ``raise StopIteration`` inside a ``__next__`` method is the iterator
    protocol, not an error, and stays allowed.
    """

    code = "RS002"
    name = "exception-taxonomy"
    rationale = (
        "Generic builtin raises in library layers escape the typed "
        "ReproError hierarchy that fault degradation keys off."
    )

    scope = ("repro/core/", "repro/storage/", "repro/engines/", "repro/index/")

    #: Builtin exception classes that must not be raised by library code.
    #: ``FileNotFoundError`` is deliberately allowed (it is precise, and
    #: the CLI handles it as "no such database"); ``NotImplementedError``
    #: is the standard abstract-stub idiom.
    disallowed = frozenset(
        {
            "BaseException",
            "Exception",
            "ValueError",
            "TypeError",
            "RuntimeError",
            "KeyError",
            "IndexError",
            "LookupError",
            "ArithmeticError",
            "ZeroDivisionError",
            "AssertionError",
            "OSError",
            "IOError",
            "StopIteration",
        }
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if not module.in_package(*self.scope):
            return
        inside_next = {
            id(inner)
            for function in ast.walk(module.tree)
            if isinstance(function, ast.FunctionDef)
            and function.name == "__next__"
            for inner in ast.walk(function)
        }
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            name = exc.id if isinstance(exc, ast.Name) else None
            if name == "StopIteration" and id(node) in inside_next:
                continue
            if name in self.disallowed:
                yield self.finding(
                    module,
                    node,
                    f"raise of builtin {name} in a library layer: raise "
                    f"a typed subclass of ReproError from "
                    f"repro/exceptions.py instead",
                )


@register
class FloatEqualityRule(Rule):
    """RS003: ``==``/``!=`` against float constants in ``core/``.

    The distance and lower-bound code is the exactness-critical layer:
    a float equality test against a computed value (e.g. comparing a
    distance to ``0.0`` or a bound to a literal) silently becomes a
    nondeterministic branch under reassociation, differing BLAS builds,
    or ``p`` values that do not round-trip.  Compare against tolerances,
    use ``math.isinf``/``math.isnan`` for sentinels, or — for genuinely
    exact dispatch on a *user-supplied parameter* — suppress with an
    inline ``# repro: ignore[RS003]`` stating the intent.
    """

    code = "RS003"
    name = "float-equality"
    rationale = (
        "Float == in distance/lower-bound code turns exactness-critical "
        "branches nondeterministic; use isinf/isnan or tolerances."
    )

    scope = ("repro/core/",)

    def _is_float_operand(self, expr: ast.expr) -> bool:
        if isinstance(expr, ast.Constant) and isinstance(expr.value, float):
            return True
        if isinstance(expr, ast.Name) and expr.id == "_INF":
            return True
        if isinstance(expr, ast.Attribute) and expr.attr in ("inf", "nan"):
            return True
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id == "float":
                return True
        return False

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if not module.in_package(*self.scope):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(self._is_float_operand(operand) for operand in operands):
                yield self.finding(
                    module,
                    node,
                    "float equality comparison in exactness-critical "
                    "code: use math.isinf/math.isnan for sentinels or a "
                    "tolerance for computed values (suppress only for "
                    "intentional exact parameter dispatch)",
                )


@register
class MutableDefaultRule(Rule):
    """RS004: mutable default argument values.

    A list/dict/set default is created once at definition time and
    shared across calls.  In this codebase that is how a stray
    candidate list or stats accumulator leaks state *between queries*,
    which corrupts the per-query counters the benchmarks report.
    """

    code = "RS004"
    name = "mutable-default"
    rationale = (
        "Mutable defaults share state across calls — in this repo that "
        "leaks candidates/counters between queries."
    )

    _mutable_calls = frozenset({"list", "dict", "set", "bytearray"})

    def _is_mutable(self, expr: ast.expr) -> bool:
        if isinstance(
            expr,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
             ast.SetComp),
        ):
            return True
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id in self._mutable_calls:
                return True
        return False

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for func in module.functions():
            defaults: List[Optional[ast.expr]] = [
                *func.args.defaults,
                *func.args.kw_defaults,
            ]
            for default in defaults:
                if default is not None and self._is_mutable(default):
                    yield self.finding(
                        module,
                        default,
                        f"mutable default argument in {func.name}(): "
                        f"evaluated once and shared across calls; default "
                        f"to None and create inside the function",
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
class StatsDisciplineRule(Rule):
    """RS006: engine code that fetches pages must thread ``QueryStats``.

    The paper's three reported metrics (candidates, page accesses, wall
    time) are only comparable across engines because every fetch path
    updates the same :class:`~repro.core.metrics.QueryStats` object.  An
    engine function that reads index nodes (``read_node``) or candidate
    values (``get_subsequence``) without access to the query's stats —
    no ``stats``/``evaluator`` parameter and no ``.stats`` attribute —
    is doing unaccounted work that silently skews Figure 8-style
    comparisons.
    """

    code = "RS006"
    name = "missing-stats"
    rationale = (
        "Engine fetch paths without QueryStats access do unaccounted "
        "I/O work, skewing the paper's per-engine metrics."
    )

    scope = ("repro/engines/",)

    #: Method names whose invocation implies page fetches.
    fetching_calls = frozenset({"read_node", "get_subsequence"})

    #: Parameter names / annotation substrings that prove stats access.
    _stat_params = frozenset({"stats", "evaluator", "recorder"})
    _stat_annotations = ("QueryStats", "CandidateEvaluator", "StatsRecorder")
    _stat_attrs = frozenset({"stats", "_stats"})

    def _fetch_calls(self, func: AnyFunction) -> List[ast.Call]:
        calls = []
        for node in _own_nodes(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self.fetching_calls
            ):
                calls.append(node)
        return calls

    def _has_stats_access(self, func: AnyFunction) -> bool:
        args = func.args
        params = [
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
        ]
        for param in params:
            if param.arg in self._stat_params:
                return True
            if param.annotation is not None:
                annotation = ast.unparse(param.annotation)
                if any(hint in annotation for hint in self._stat_annotations):
                    return True
        for node in _own_nodes(func):
            if isinstance(node, ast.Name) and node.id in self._stat_params:
                return True
            if isinstance(node, ast.Attribute) and node.attr in self._stat_attrs:
                return True
        return False

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if not module.in_package(*self.scope):
            return
        for func in module.functions():
            calls = self._fetch_calls(func)
            if not calls or self._has_stats_access(func):
                continue
            for call in calls:
                assert isinstance(call.func, ast.Attribute)
                yield self.finding(
                    module,
                    call,
                    f"{func.name}() fetches pages via "
                    f".{call.func.attr}() but has no QueryStats access "
                    f"(no stats/evaluator parameter or .stats attribute): "
                    f"thread the query's stats so page work is accounted",
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

    def _outermost_loops(
        self, func: AnyFunction
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

    @staticmethod
    def _has_checkpoint(loop: Union[ast.For, ast.While]) -> bool:
        for node in ast.walk(loop):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "checkpoint"
            ):
                return True
        return False

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if not module.in_package(*self.scope):
            return
        for func in module.functions():
            if func.name not in self.loop_functions:
                continue
            for loop in self._outermost_loops(func):
                if not self._has_checkpoint(loop):
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
class SpanDisciplineRule(Rule):
    """RS008: tracer spans must be opened via ``with`` context managers.

    The observability plane's conformance guarantee — every span
    closed, the tree well-nested, ``buffer.fetch`` span counts summing
    exactly to NUM_IO — rests on spans being closed on *every* exit
    path, including exceptions (budget interrupts unwind straight
    through engine loops).  A bare ``tracer.start_span(...)`` /
    ``tracer.span(...)`` call whose result is not a ``with`` context
    leaks an open span: every later span nests under it, the exporter
    reports an unclosed tree, and the conformance suite fails far from
    the actual bug.  Long-lived spans that genuinely cannot be a
    ``with`` block (e.g. a stream's root span closed in a finalizer)
    must pair ``start_span`` with a guaranteed ``close()`` and suppress
    with ``# repro: ignore[RS008]`` stating where the close happens.
    """

    code = "RS008"
    name = "span-discipline"
    rationale = (
        "Bare start_span()/span() calls outside a with-statement leak "
        "open spans, breaking span-tree nesting and NUM_IO conformance."
    )

    #: The tracer implementation itself manages span lifetimes by hand.
    whitelist = ("repro/obs/tracer.py",)

    def _is_tracer_receiver(self, expr: ast.expr) -> bool:
        name = _terminal_name(expr)
        return name is not None and "tracer" in name.lower()

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if not module.path.startswith("repro/"):
            return
        if module.path in self.whitelist:
            return
        with_contexts: Set[ast.AST] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    with_contexts.add(item.context_expr)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr == "start_span":
                pass  # any receiver: the raw opener is always suspect
            elif func.attr == "span" and self._is_tracer_receiver(
                func.value
            ):
                pass
            else:
                continue
            if node in with_contexts:
                continue
            yield self.finding(
                module,
                node,
                f"span opened without a with-statement "
                f"({ast.unparse(func)}(...)): use "
                f"'with tracer.span(...):' so the span closes on every "
                f"exit path; a deliberately long-lived span must "
                f"guarantee close() and suppress this line",
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
