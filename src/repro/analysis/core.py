"""The repro-lint engine: findings, file contexts, the rule registry,
pragma suppression, and the analyzer that drives them.

The repo's behavioural fidelity rests on a determinism contract —
every component takes an injected :class:`~repro.common.clock.Clock`
and a seeded :class:`random.Random`, all inter-node traffic flows
through :class:`~repro.simnet.SimNetwork`, and failure handling goes
through :mod:`repro.common.resilience`.  That contract used to be
enforced only by convention; this package enforces it with AST-based
static analysis, the same move DBLog makes for CDC consistency
invariants: machine-checkable instead of tribal knowledge.

Vocabulary:

* a :class:`Rule` inspects one parsed module and yields
  :class:`Finding`\\ s; rules self-register via :func:`register`;
* a :class:`FileContext` bundles the parse tree, source lines, import
  aliases, per-line pragma suppressions and the control-flow graphs
  (one per function, built on first request) for one file;
* the :class:`Analyzer` walks files in sorted order (the lint run is
  itself deterministic), applies suppressions, and counts everything
  through a :class:`~repro.common.metrics.MetricsRegistry`;
* a committed baseline (see :mod:`repro.analysis.baseline`)
  grandfathers known findings so the CI gate only trips on *new*
  violations.

Suppression is per statement span: ``# repro-lint: disable=wall-clock``
(any registered rule names, comma-separated) anywhere on the lines a
finding's node covers (first line through ``end_lineno``) silences
those rules for it — so the pragma on the
closing line of a multi-line call still counts; ``disable=all``
silences every rule there.
"""

from __future__ import annotations

import ast
import hashlib
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.flow import CFG, FUNCTION_NODES, build_cfg
from repro.common.errors import ConfigurationError
from repro.common.metrics import MetricsRegistry

_PRAGMA = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\-\s]+)")

#: Transport/availability error names from ``repro.common.errors`` that
#: several rules treat as "the network failed" signals.
TRANSPORT_ERROR_NAMES = frozenset({
    "NodeUnavailableError",
    "TransientNetworkError",
    "RequestTimeoutError",
    "DeadlineExceededError",
    "CircuitOpenError",
    "OverloadError",
    "ServerOverloadedError",
    "BackpressureError",
})

#: Attribute names that mark a call as a simulated-network operation
#: (``SimNetwork.invoke`` / ``SimNetwork.send`` and their wrappers).
NETWORK_CALL_ATTRS = frozenset({"invoke", "send"})


@dataclass(frozen=True)
class Frame:
    """One hop of an interprocedural finding's call chain.

    ``caller`` performed a call on ``line`` of ``path`` that reaches
    ``callee`` (a function qualname, or a primitive like ``<invoke>``
    / the raised exception name at the chain's end)."""

    path: str
    line: int
    caller: str
    callee: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.caller} -> {self.callee}"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Interprocedural rules attach the ``chain`` of call frames from the
    entry point down to the offending call; per-line rules leave it
    empty.  Both reporters render it, and a pragma on any frame's line
    suppresses the finding (see :meth:`Analyzer._project_findings`).
    """

    rule: str
    path: str          # posix-style path relative to the scan root
    line: int
    col: int
    message: str
    snippet: str = ""  # the stripped source line, for fingerprinting
    end_line: int = 0  # last line of the anchoring node (0 = same line)
    chain: tuple[Frame, ...] = ()

    def fingerprint(self) -> str:
        """Location-drift-tolerant identity used by the baseline.

        Hashes the rule, path, and source-line *text* (not the line
        number), so unrelated edits above a grandfathered finding do
        not un-baseline it.  Identical findings on identical lines are
        disambiguated by the baseline's per-fingerprint counts.
        """
        digest = hashlib.sha1(
            f"{self.rule}\x00{self.path}\x00{self.snippet}".encode()
        ).hexdigest()
        return digest[:16]

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


class ImportMap:
    """Resolved import aliases for one module.

    Lets rules ask "what dotted name does this call really target?"
    so ``from time import sleep as pause`` still resolves to
    ``time.sleep``.
    """

    def __init__(self, tree: ast.AST):
        self.modules: dict[str, str] = {}   # local alias -> module dotted name
        self.names: dict[str, str] = {}     # local name -> module.attr
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.modules[alias.asname] = alias.name
                    else:
                        top = alias.name.split(".")[0]
                        self.modules[top] = top
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    self.names[alias.asname or alias.name] = \
                        f"{node.module}.{alias.name}"

    def resolve_call(self, func: ast.expr) -> str | None:
        """Dotted target of a call's ``func`` expression, or None.

        ``Name`` nodes resolve through ``from``-imports; ``Attribute``
        chains resolve their base through plain imports.  Calls on
        local variables (``rng.random()``) resolve to None — the
        linter cannot know their type and stays silent rather than
        guessing.
        """
        if isinstance(func, ast.Name):
            return self.names.get(func.id)
        if isinstance(func, ast.Attribute):
            parts = [func.attr]
            node: ast.expr = func.value
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if not isinstance(node, ast.Name):
                return None
            base = self.modules.get(node.id)
            if base is None:
                # a from-imported name used as an attribute base, e.g.
                # ``from datetime import datetime; datetime.now()``
                base = self.names.get(node.id)
            if base is None:
                return None
            return ".".join([base, *reversed(parts)])
        return None


def attach_parents(tree: ast.AST) -> None:
    """Annotate every node with a ``.parent`` backlink (rules use this
    to ask e.g. "is this set iteration already wrapped in sorted()?")."""
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child.parent = node  # type: ignore[attr-defined]


@dataclass
class FileContext:
    """Everything a rule needs to know about one source file."""

    path: Path
    rel_path: str
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    imports: ImportMap = None  # type: ignore[assignment]
    suppressions: dict[int, set[str]] = field(default_factory=dict)
    #: function node -> its CFG; every rule of the run shares these
    _cfgs: dict[ast.AST, CFG] = field(default_factory=dict, init=False,
                                      repr=False)

    @classmethod
    def parse(cls, source: str, rel_path: str,
              path: Path | None = None) -> "FileContext":
        tree = ast.parse(source, filename=rel_path)
        attach_parents(tree)
        ctx = cls(path=path or Path(rel_path), rel_path=rel_path,
                  source=source, tree=tree, lines=source.splitlines())
        ctx.imports = ImportMap(tree)
        for lineno, text in enumerate(ctx.lines, start=1):
            match = _PRAGMA.search(text)
            if match:
                rules = {part.strip() for part in match.group(1).split(",")}
                ctx.suppressions[lineno] = {r for r in rules if r}
        return ctx

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def cfg(self, fn: ast.AST) -> CFG:
        """The control-flow graph of one function of this file: built
        the first time a rule asks, then shared for the rest of the run
        (the memo lives and dies with this context)."""
        cfg = self._cfgs.get(fn)
        if cfg is None:
            cfg = self._cfgs[fn] = build_cfg(fn)
        return cfg

    def function_cfgs(self) -> Iterator[CFG]:
        """A CFG for every function in the file, nested ones included."""
        for node in ast.walk(self.tree):
            if isinstance(node, FUNCTION_NODES):
                yield self.cfg(node)

    def suppressed(self, rule: str, lineno: int, end_lineno: int = 0) -> bool:
        """Is ``rule`` disabled anywhere on lines lineno..end_lineno?

        Multi-line statements anchor a finding on their first line but
        a trailing pragma naturally lands on the last, so the whole
        node span counts.
        """
        last = max(lineno, end_lineno)
        for pragma_line, active in self.suppressions.items():
            if lineno <= pragma_line <= last \
                    and (rule in active or "all" in active):
                return True
        return False


class Rule:
    """Base class: subclass, set the class attributes, implement
    :meth:`check`, and decorate with :func:`register`."""

    name: str = ""
    summary: str = ""
    rationale: str = ""
    #: posix path suffixes exempt from this rule (e.g. the one module
    #: allowed to touch the wall clock).
    exempt_suffixes: tuple[str, ...] = ()

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def exempt(self, ctx: FileContext) -> bool:
        return any(ctx.rel_path.endswith(suffix)
                   for suffix in self.exempt_suffixes)

    def finding(self, ctx: FileContext, node: ast.AST, message: str,
                chain: tuple[Frame, ...] = ()) -> Finding:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        end = getattr(node, "end_lineno", None) or lineno
        return Finding(rule=self.name, path=ctx.rel_path, line=lineno,
                       col=col, message=message,
                       snippet=ctx.line_text(lineno), end_line=end,
                       chain=chain)


class ProjectRule(Rule):
    """A rule that sees the whole scanned project at once.

    Per-file rules get one :class:`FileContext`; subclasses of this
    get the :class:`~repro.analysis.callgraph.Project` — parsed files,
    call graph, and effect summaries (built once per run and shared) —
    and yield findings whose :attr:`Finding.chain` spells out the call
    path that convicts them.
    """

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project) -> Iterator[Finding]:
        raise NotImplementedError

    def chain_finding(self, project, path: str, line: int, message: str,
                      chain: tuple[Frame, ...]) -> Finding:
        """A finding anchored on a *line* — interprocedural convictions
        sit on a frame of their chain, not on one AST node."""
        return Finding(rule=self.name, path=path, line=line, col=0,
                       message=message,
                       snippet=project.contexts[path].line_text(line),
                       end_line=line, chain=chain)


_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.name:
        raise ConfigurationError(f"rule {cls.__name__} has no name")
    if cls.name in _REGISTRY:
        raise ConfigurationError(f"duplicate rule name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def all_rules() -> list[Rule]:
    """Instantiate every registered rule, sorted by name (the report
    order is part of the determinism story)."""
    import repro.analysis.rules  # noqa: F401  (self-registration)
    return [_REGISTRY[name]() for name in sorted(_REGISTRY)]


def rule_names() -> list[str]:
    import repro.analysis.rules  # noqa: F401
    return sorted(_REGISTRY)


@dataclass
class LintReport:
    """The outcome of one analyzer run, before baseline filtering."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    parse_errors: list[str] = field(default_factory=list)
    suppressed: int = 0


class Analyzer:
    """Runs a rule set over files/directories and aggregates findings.

    ``root`` anchors the relative paths used in reports and baseline
    fingerprints (defaults to the current directory), so a baseline
    written from the repo root matches runs from anywhere.

    A run is one serial pass: every file is parsed and checked by the
    per-file rules, then the interprocedural pass (the
    :class:`ProjectRule`\\ s) runs once over the full parse, because
    the call graph needs every file at once.
    """

    def __init__(self, rules: Iterable[Rule] | None = None,
                 root: Path | str | None = None,
                 metrics: MetricsRegistry | None = None):
        self.rules = list(rules) if rules is not None else all_rules()
        self.root = Path(root) if root is not None else Path.cwd()
        self.metrics = metrics or MetricsRegistry()
        #: per-rule wall seconds and finding counts, accumulated across
        #: the run (the --stats report)
        self.rule_seconds: dict[str, float] = {r.name: 0.0 for r in self.rules}
        self.rule_findings: dict[str, int] = {r.name: 0 for r in self.rules}

    def _rel(self, path: Path) -> str:
        try:
            return path.resolve().relative_to(self.root.resolve()).as_posix()
        except ValueError:
            return path.as_posix()

    @staticmethod
    def iter_files(paths: Iterable[Path | str]) -> Iterator[Path]:
        for entry in paths:
            path = Path(entry)
            if path.is_dir():
                yield from sorted(path.rglob("*.py"))
            elif path.suffix == ".py":
                yield path

    def check_source(self, source: str, rel_path: str) -> list[Finding]:
        """Analyze one source string (the unit-test entry point) —
        per-file rules plus the project rules over a one-file project."""
        ctx = FileContext.parse(source, rel_path)
        findings = self._check_context(ctx)
        findings.extend(self._project_findings([ctx]))
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return findings

    def _check_context(self, ctx: FileContext) -> list[Finding]:
        kept: list[Finding] = []
        for rule in self.rules:
            if isinstance(rule, ProjectRule) or rule.exempt(ctx):
                continue
            # timing the linter itself is diagnostics, not simulated
            # behaviour, so the real clock is fine here
            started = time.perf_counter()  # repro-lint: disable=wall-clock
            for finding in rule.check(ctx):
                if ctx.suppressed(finding.rule, finding.line,
                                  finding.end_line):
                    self.metrics.counter("lint.suppressed").increment()
                    continue
                self.metrics.counter(
                    f"lint.findings.{finding.rule}").increment()
                self.rule_findings[rule.name] += 1
                kept.append(finding)
            elapsed = time.perf_counter() - started  # repro-lint: disable=wall-clock
            self.rule_seconds[rule.name] += elapsed
        kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return kept

    def run(self, paths: Iterable[Path | str]) -> LintReport:
        report = LintReport()
        contexts: list[FileContext] = []
        for path in self.iter_files(paths):
            report.files_scanned += 1
            self.metrics.counter("lint.files").increment()
            source = path.read_text(encoding="utf-8")
            rel = self._rel(path)
            try:
                ctx = FileContext.parse(source, rel, path=path)
            except SyntaxError as exc:
                self.metrics.counter("lint.parse_errors").increment()
                report.parse_errors.append(f"{rel}: {exc.msg} (line {exc.lineno})")
                continue
            contexts.append(ctx)
            report.findings.extend(self._check_context(ctx))
        report.findings.extend(self._project_findings(contexts))
        report.suppressed = self.metrics.counter("lint.suppressed").value
        report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return report

    def _project_findings(self, contexts: list[FileContext]) -> list[Finding]:
        """Run the interprocedural rules once over the whole parse.

        Suppression honours the pragma *at any frame of the chain*: a
        ``# repro-lint: disable=<rule>`` on the entry point, on an
        intermediate call, or on the offending line all silence the
        finding — whichever frame the justification reads best at.
        """
        project_rules = [r for r in self.rules if isinstance(r, ProjectRule)]
        if not project_rules or not contexts:
            return []
        from repro.analysis.callgraph import Project   # lazy: import cycle
        project = Project(contexts)
        by_path = {ctx.rel_path: ctx for ctx in contexts}
        kept: list[Finding] = []
        for rule in project_rules:
            started = time.perf_counter()  # repro-lint: disable=wall-clock
            for finding in rule.check_project(project):
                if self._chain_suppressed(finding, by_path):
                    self.metrics.counter("lint.suppressed").increment()
                    continue
                self.metrics.counter(
                    f"lint.findings.{finding.rule}").increment()
                self.rule_findings[rule.name] += 1
                kept.append(finding)
            elapsed = time.perf_counter() - started  # repro-lint: disable=wall-clock
            self.rule_seconds[rule.name] += elapsed
        return kept

    @staticmethod
    def _chain_suppressed(finding: Finding,
                          by_path: dict[str, FileContext]) -> bool:
        ctx = by_path.get(finding.path)
        if ctx is not None and ctx.suppressed(finding.rule, finding.line,
                                              finding.end_line):
            return True
        for frame in finding.chain:
            frame_ctx = by_path.get(frame.path)
            if frame_ctx is not None and \
                    frame_ctx.suppressed(finding.rule, frame.line):
                return True
        return False
