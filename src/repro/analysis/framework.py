"""Rule registry, suppression comments, and the linting driver.

A rule is a class with a unique ``code`` (``RSnnn``), registered via the
:func:`register` decorator.  Rules receive a parsed
:class:`ModuleSource` and yield :class:`~repro.analysis.findings.Finding`
objects; the driver then filters findings through inline suppression
comments::

    pager.read(page_id)          # repro: ignore[RS001]
    pager.write(page_id, node)   # repro: ignore[RS001, RS009]
    anything_at_all()            # repro: ignore

A coded marker must earn its place: one that names an unregistered
code, or that silenced nothing in a full (unfiltered) run, is itself
reported under ``RS000``, so suppressions cannot outlive their rule.

Scoping is by *virtual path*: the path of the module relative to (and
including) the ``repro`` package root, in POSIX form — for example
``repro/storage/buffer.py``.  Rules use it to restrict themselves to
the layers whose contracts they police, and tests use it to lint
in-memory fixture snippets as if they lived anywhere in the tree.
"""

from __future__ import annotations

import abc
import ast
import pathlib
import re
import tokenize
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

from repro.analysis.findings import Finding, Severity
from repro.exceptions import ConfigurationError

#: Matches one suppression comment.  ``# repro: ignore`` suppresses every
#: rule on the line; with ``[RS001, RS009]`` appended, only those codes.
_SUPPRESSION_RE = re.compile(
    r"#\s*repro:\s*ignore(?:\[(?P<codes>[A-Z0-9,\s]*)\])?"
)

#: Sentinel stored in the suppression map for a blanket ``ignore``.
_ALL_CODES = "*"

_CODE_RE = re.compile(r"^RS\d{3}$")


@dataclass(frozen=True)
class ModuleSource:
    """One parsed module handed to every rule.

    Attributes
    ----------
    path:
        Virtual POSIX path starting at the ``repro`` package root
        (``repro/core/distance.py``); rules scope on this.
    source:
        Full module text.
    tree:
        Parsed AST of ``source``.
    """

    path: str
    source: str
    tree: ast.Module

    def in_package(self, *prefixes: str) -> bool:
        """Whether the module lives under any of the given prefixes."""
        return any(self.path.startswith(prefix) for prefix in prefixes)

    def functions(self) -> Iterator[ast.FunctionDef]:
        """Every (sync) function definition, including methods."""
        for node in ast.walk(self.tree):
            if isinstance(node, ast.FunctionDef):
                yield node


class Rule(abc.ABC):
    """Base class for one lint rule.

    Subclasses set the class attributes and implement :meth:`check`.
    ``rationale`` ties the rule back to the paper guarantee it protects;
    it is surfaced by ``python -m repro lint --list-rules`` and in the
    rule catalog documentation.
    """

    code: str = ""
    name: str = ""
    rationale: str = ""
    severity: Severity = Severity.ERROR

    @abc.abstractmethod
    def check(self, module: ModuleSource) -> Iterator[Finding]:
        """Yield findings for one module."""

    def finding(
        self, module: ModuleSource, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored at an AST node."""
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            message=message,
            severity=self.severity,
        )

    def finding_at(
        self, module: ModuleSource, line: int, message: str
    ) -> Finding:
        """Build a finding at an explicit line (column 1)."""
        return Finding(
            path=module.path,
            line=line,
            col=1,
            code=self.code,
            message=message,
            severity=self.severity,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator: add a rule to the global registry.

    Codes must be unique and match ``RSnnn``; collisions are a
    programming error and fail fast.
    """
    code = rule_class.code
    if not _CODE_RE.match(code):
        raise ConfigurationError(
            f"rule code {code!r} does not match the RSnnn convention"
        )
    if code in _REGISTRY and _REGISTRY[code] is not rule_class:
        raise ConfigurationError(f"duplicate rule code {code}")
    _REGISTRY[code] = rule_class
    return rule_class


def _loaded_registry() -> Dict[str, Type[Rule]]:
    """The registry, with the built-in rules registered on first use.

    Deferred so that importing the package for its runtime decorators
    (:mod:`repro.analysis.concurrency`) does not load the linter.
    """
    import repro.analysis.rules  # noqa: F401  (side effect: registers)

    return _REGISTRY


def rule_registry() -> Dict[str, Type[Rule]]:
    """A copy of the code -> rule-class registry."""
    return dict(_loaded_registry())


def all_rules(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Rule]:
    """Instantiate registered rules, optionally filtered by code.

    ``select`` keeps only the listed codes; ``ignore`` drops the listed
    codes.  Unknown codes raise
    :class:`~repro.exceptions.ConfigurationError` so typos in CI
    configuration fail loudly instead of silently disabling a gate.
    """
    registry = _loaded_registry()
    known = set(registry)
    chosen = set(known)
    if select is not None:
        wanted = {code.strip() for code in select if code.strip()}
        unknown = wanted - known
        if unknown:
            raise ConfigurationError(
                f"unknown rule code(s): {', '.join(sorted(unknown))}"
            )
        chosen = wanted
    if ignore is not None:
        dropped = {code.strip() for code in ignore if code.strip()}
        unknown = dropped - known
        if unknown:
            raise ConfigurationError(
                f"unknown rule code(s): {', '.join(sorted(unknown))}"
            )
        chosen -= dropped
    return [registry[code]() for code in sorted(chosen)]


def parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number -> set of suppressed codes (``*`` = all).

    Uses the tokenizer so suppression markers inside string literals do
    not count; falls back to a line scan if the module does not tokenize
    (the parse error will surface separately).
    """
    suppressions: Dict[int, Set[str]] = {}

    def record(line: int, comment: str) -> None:
        match = _SUPPRESSION_RE.search(comment)
        if match is None:
            return
        codes = match.group("codes")
        if codes is None:
            suppressions.setdefault(line, set()).add(_ALL_CODES)
            return
        for code in codes.split(","):
            code = code.strip()
            if code:
                suppressions.setdefault(line, set()).add(code)

    try:
        lines = iter(source.splitlines(keepends=True))
        for token in tokenize.generate_tokens(lambda: next(lines, "")):
            if token.type == tokenize.COMMENT:
                record(token.start[0], token.string)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        for line_number, text in enumerate(source.splitlines(), start=1):
            if "#" in text:
                record(line_number, text[text.index("#") :])
    return suppressions


#: Compound statements whose ``end_lineno`` spans a whole suite; their
#: headers must *not* alias suppressions, or a comment on an ``if`` line
#: would silence every finding in its body.
_COMPOUND_STMTS = (
    ast.If,
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.With,
    ast.AsyncWith,
    ast.Try,
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
)


def suppression_aliases(tree: ast.Module) -> Dict[int, Set[int]]:
    """Map finding lines to the other lines whose comments cover them.

    Two cases beyond the exact-line match:

    * a *multi-line simple statement* — a suppression comment on the
      logical line's first physical line covers findings anchored
      anywhere in the statement's span;
    * a *decorated definition* — a comment on any decorator line or on
      the ``def``/``class`` line covers findings anchored anywhere in
      the definition's header (decorators through the signature).
    """
    alias: Dict[int, Set[int]] = {}
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            anchors = {dec.lineno for dec in node.decorator_list}
            anchors.add(node.lineno)
            start = min(anchors)
            end = node.body[0].lineno - 1 if node.body else node.lineno
        elif isinstance(node, ast.stmt) and not isinstance(
            node, _COMPOUND_STMTS
        ):
            end = getattr(node, "end_lineno", None) or node.lineno
            if end == node.lineno:
                continue  # single-line: exact match already covers it
            anchors = {node.lineno}
            start = node.lineno
        else:
            continue
        for line in range(start, end + 1):
            alias.setdefault(line, set()).update(anchors)
    return alias


@dataclass
class LintReport:
    """Findings plus bookkeeping for one lint run."""

    findings: List[Finding] = field(default_factory=list)
    #: Findings silenced by ``# repro: ignore`` comments.
    suppressed: int = 0
    #: Files that failed to parse (reported as findings too).
    parse_errors: int = 0
    files_checked: int = 0


def lint_source(
    source: str,
    path: str,
    rules: Optional[Sequence[Rule]] = None,
    report: Optional[LintReport] = None,
) -> List[Finding]:
    """Lint one module given as text; returns unsuppressed findings.

    ``path`` is the virtual path used for rule scoping (see module
    docstring).  This is the primary entry point for fixture-based
    tests: snippets can be linted *as if* they lived at any layer.
    """
    if report is None:
        report = LintReport()
    if rules is None:
        rules = all_rules()
    report.files_checked += 1
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        report.parse_errors += 1
        finding = Finding(
            path=path,
            line=error.lineno or 1,
            col=(error.offset or 1),
            code="RS000",
            message=f"syntax error: {error.msg}",
            severity=Severity.ERROR,
        )
        report.findings.append(finding)
        return [finding]
    module = ModuleSource(path=path, source=source, tree=tree)
    suppressions = parse_suppressions(source)
    aliases = suppression_aliases(tree) if suppressions else {}
    kept: List[Finding] = []
    #: (comment line, code) markers that silenced at least one finding.
    used: Set[Tuple[int, str]] = set()
    for rule in rules:
        for finding in rule.check(module):
            lines = {finding.line} | aliases.get(finding.line, set())
            hits = {
                (line, code)
                for line in lines
                for code in (finding.code, _ALL_CODES)
                if code in suppressions.get(line, ())
            }
            if hits:
                used |= hits
                report.suppressed += 1
                continue
            kept.append(finding)
    kept.extend(_stale_suppressions(path, suppressions, used, rules))
    kept.sort()
    report.findings.extend(kept)
    return kept


def _stale_suppressions(
    path: str,
    suppressions: Dict[int, Set[str]],
    used: Set[Tuple[int, str]],
    rules: Sequence[Rule],
) -> Iterator[Finding]:
    """``RS000`` findings for coded markers that silence nothing.

    A marker naming an unregistered code can never match and is always
    reported.  A marker for a registered code is reported when it
    silenced no finding — but only in a full run: under ``--select`` /
    ``--ignore`` its rule may simply not have been asked.  Blanket
    ``# repro: ignore`` markers name no code and are left alone.
    """
    registry = _loaded_registry()
    full_run = {rule.code for rule in rules} >= set(registry)
    for line, codes in sorted(suppressions.items()):
        for code in sorted(codes - {_ALL_CODES}):
            if code not in registry:
                reason = f"names unregistered rule code {code}"
            elif full_run and (line, code) not in used:
                reason = f"silences no {code} finding"
            else:
                continue
            yield Finding(
                path=path,
                line=line,
                col=1,
                code="RS000",
                message=f"stale suppression: marker {reason}; delete it",
                severity=Severity.ERROR,
            )


def virtual_path(file_path: pathlib.Path) -> str:
    """Compute the ``repro/...`` virtual path for a real file.

    Uses the last ``repro`` component in the path so checkouts nested
    under directories that happen to be called ``repro`` still resolve.
    Files outside the package (tests, benchmarks) keep their real
    relative path, which no layer-scoped rule matches.
    """
    parts = file_path.as_posix().split("/")
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index:])
    return file_path.name


def iter_python_files(paths: Sequence[pathlib.Path]) -> Iterator[pathlib.Path]:
    """Expand files and directories into a sorted stream of ``.py`` files."""
    for path in paths:
        if path.is_dir():
            yield from sorted(
                candidate
                for candidate in path.rglob("*.py")
                if "__pycache__" not in candidate.parts
                and "egg-info" not in candidate.name
            )
        elif path.suffix == ".py":
            yield path


def lint_paths(
    paths: Sequence[pathlib.Path],
    rules: Optional[Sequence[Rule]] = None,
) -> LintReport:
    """Lint every Python file under ``paths`` and return the report."""
    report = LintReport()
    if rules is None:
        rules = all_rules()
    for file_path in iter_python_files(paths):
        source = file_path.read_text(encoding="utf-8")
        lint_source(
            source, virtual_path(file_path), rules=rules, report=report
        )
    report.findings.sort()
    return report
