"""Repo-specific static analysis (``python -m repro lint``).

The reproduction's two load-bearing guarantees are *exactness* (lower
bounds never exceed the true DTW_rho distance, so no false dismissals)
and *faithful I/O accounting* (every counted page access flows through
the :class:`~repro.storage.buffer.BufferPool`, so the paper's
``NUM_IO`` / page-access metric means what it says).  Neither guarantee
is enforced by the type system, and both can be silently violated by an
innocent-looking refactor.  This package makes them, and the durability
and locking disciplines built around them, machine-checked:

* :mod:`repro.analysis.framework` — the rule registry, suppression
  comments (``# repro: ignore[RS001]``), and the linting driver;
* :mod:`repro.analysis.rules` — the six rules, all plain ``ast``
  walks: RS001 buffer-bypass, RS005 lower-bound contract table, RS007
  engine-loop checkpoints, RS009 WAL discipline, RS010 lock discipline
  and RS013 service-loop discipline;
* :mod:`repro.analysis.concurrency` — the sharing-contract vocabulary
  (``@shared_across_queries``, ``@guarded_by``, ``@single_query``,
  ``@requires_lock``), both runtime decorators and their AST reader;
* :mod:`repro.analysis.contracts` — the static lower-bound contract
  table that RS005 cross-checks against ``repro/core/lower_bounds.py``;
* :mod:`repro.analysis.cli` — output formatting (human, JSON) and the
  ``lint`` subcommand behind ``python -m repro lint``.

Everything is stdlib ``ast`` only, so the linter can gate CI without
any third-party dependency.  Fifteen runtime modules import the
decorators from :mod:`repro.analysis.concurrency`, so this ``__init__``
imports nothing eagerly: the names below resolve on first access, and
the rules register when the driver is first asked for them.
"""

from __future__ import annotations

import importlib
from typing import Any

#: Public name -> submodule that defines it.
_EXPORTS = {
    "Finding": "findings",
    "Severity": "findings",
    "Rule": "framework",
    "all_rules": "framework",
    "lint_paths": "framework",
    "lint_source": "framework",
    "rule_registry": "framework",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_EXPORTS[name]}")
    return getattr(module, name)
