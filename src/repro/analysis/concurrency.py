"""Concurrency-sharing contracts: runtime decorators + static reader.

The multi-query era (ROADMAP item 1) needs a machine-checked answer to
"which objects may be shared between in-flight queries, and under what
lock?".  The vocabulary is deliberately tiny:

``@shared_across_queries``
    Class marker: instances may be reached by several queries at once,
    so any attribute listed in a ``@guarded_by`` contract must only be
    touched with its lock held (RS010).

``@guarded_by("_lock", "_frames", "stats")``
    Class decorator declaring that the listed attributes are protected
    by the lock stored in the first argument's attribute.  RS010
    verifies every read/write of a guarded attribute sits lexically
    inside ``with self._lock:`` (or a ``@requires_lock`` method).

``@single_query``
    Escape hatch: instances are owned by exactly one query at a time
    (per-query stats, result accumulators).  Documents that their
    unlocked check-then-act code is intentional.

``@requires_lock("_lock")``
    Method marker: callers must already hold the named lock.  RS010
    starts the method's walk with the lock held and flags calls to
    such helpers from outside a ``with`` block on it.

The decorators are runtime no-wrappers — they only attach dunder
attributes (``__repro_shared__``, ``__repro_guards__``,
``__repro_requires_lock__``) so annotated classes pay zero overhead
and the contracts are introspectable at runtime.  The static half
(:func:`module_contracts`) re-reads the same decorators from the AST,
by name, so the linter needs no imports to resolve.  Fifteen runtime
modules import this one, so it (and the package ``__init__``) imports
nothing of the linter.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple, TypeVar

_ClassT = TypeVar("_ClassT", bound=type)
_FuncT = TypeVar("_FuncT", bound=Callable[..., object])


# ---------------------------------------------------------------------------
# Runtime decorators
# ---------------------------------------------------------------------------


def shared_across_queries(cls: _ClassT) -> _ClassT:
    """Mark a class whose instances may be shared between queries."""
    cls.__repro_shared__ = True  # type: ignore[attr-defined]
    return cls


def single_query(cls: _ClassT) -> _ClassT:
    """Mark a class whose instances are owned by one query at a time."""
    cls.__repro_shared__ = False  # type: ignore[attr-defined]
    return cls


def guarded_by(lock_attr: str, *attrs: str) -> Callable[[_ClassT], _ClassT]:
    """Declare that ``attrs`` are protected by ``self.<lock_attr>``."""

    def decorate(cls: _ClassT) -> _ClassT:
        guards: Dict[str, str] = dict(getattr(cls, "__repro_guards__", {}))
        for attr in attrs:
            guards[attr] = lock_attr
        cls.__repro_guards__ = guards  # type: ignore[attr-defined]
        return cls

    return decorate


def requires_lock(lock_attr: str) -> Callable[[_FuncT], _FuncT]:
    """Declare that a method must be called with ``self.<lock_attr>`` held."""

    def decorate(func: _FuncT) -> _FuncT:
        func.__repro_requires_lock__ = lock_attr  # type: ignore[attr-defined]
        return func

    return decorate


# ---------------------------------------------------------------------------
# Static contract extraction (AST, by decorator name)
# ---------------------------------------------------------------------------


@dataclass
class ClassContract:
    """The sharing contract one class declares via decorators."""

    node: ast.ClassDef
    #: True = @shared_across_queries, False = @single_query, None = unmarked.
    shared: Optional[bool] = None
    #: guarded attribute name -> lock attribute name.
    guards: Dict[str, str] = field(default_factory=dict)
    #: method name -> lock attribute the caller must hold.
    requires: Dict[str, str] = field(default_factory=dict)

    @property
    def lock_attrs(self) -> Set[str]:
        return set(self.guards.values()) | set(self.requires.values())


def _decorator_name(node: ast.expr) -> str:
    """Trailing name of a decorator expression (``a.b.c`` -> ``c``)."""
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Attribute):
        return target.attr
    if isinstance(target, ast.Name):
        return target.id
    return ""


def _string_args(call: ast.Call) -> List[str]:
    out: List[str] = []
    for arg in call.args:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            out.append(arg.value)
    return out


def class_contract(node: ast.ClassDef) -> ClassContract:
    """Read one class's contract from its (and its methods') decorators."""
    contract = ClassContract(node=node)
    for decorator in node.decorator_list:
        name = _decorator_name(decorator)
        if name == "shared_across_queries":
            contract.shared = True
        elif name == "single_query":
            contract.shared = False
        elif name == "guarded_by" and isinstance(decorator, ast.Call):
            strings = _string_args(decorator)
            if len(strings) >= 2:
                lock = strings[0]
                for attr in strings[1:]:
                    contract.guards[attr] = lock
    for child in node.body:
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in child.decorator_list:
            if _decorator_name(decorator) == "requires_lock" and isinstance(
                decorator, ast.Call
            ):
                strings = _string_args(decorator)
                if strings:
                    contract.requires[child.name] = strings[0]
    return contract


def module_contracts(tree: ast.Module) -> Iterator[ClassContract]:
    """Contracts for every class in a module that declares one."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            contract = class_contract(node)
            if (
                contract.shared is not None
                or contract.guards
                or contract.requires
            ):
                yield contract
