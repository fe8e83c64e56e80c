"""Codebase self-lint rules (``SL2xx``): the library's own invariants, by AST.

The crash-safety story of this library rests on conventions the type system
cannot enforce: every persistent write goes through :mod:`repro.atomicio`,
the simulator stays bit-deterministic, exceptions stay inside the subsystem
that owns them.  These rules pin those conventions down with a stdlib
:mod:`ast` pass so drift shows up in CI instead of in a post-mortem.

Findings can be silenced per line with a justification comment::

    os.replace(tmp, target)  # lint: disable=SL201 -- compaction publishes by rename

The rule list accepts multiple comma-separated ids; anything after the ids
is free-form justification (and strongly encouraged).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import LintError
from repro.lint.engine import DEFAULT_REGISTRY, Finding, LintReport, Rule, RuleRegistry

#: ``# lint: disable=SL201, SL203 -- why`` (ids first, justification after).
_SUPPRESS_RE = re.compile(r"#\s*lint:\s*disable=((?:[A-Z]{2}\d{3})(?:\s*,\s*[A-Z]{2}\d{3})*)")

#: The one module allowed to perform raw persistence (it implements the
#: write-temp/fsync/rename discipline everything else must go through).
_ATOMICIO_MODULE = "atomicio.py"

#: Modes that make an ``open`` call a persistence site.
_WRITE_MODE_CHARS = set("wax+")

#: Internal exception name -> module prefixes (relative to the package root,
#: POSIX separators) allowed to raise it.  Raising one of these anywhere
#: else leaks a subsystem's failure vocabulary across an API boundary.
_EXCEPTION_OWNERS: Dict[str, Tuple[str, ...]] = {
    # PROV substrate
    "ProvError": ("prov/",),
    "InvalidQualifiedNameError": ("prov/",),
    "UnknownNamespaceError": ("prov/",),
    "SerializationError": ("prov/",),
    "ValidationError": ("prov/",),
    "DuplicateRecordError": ("prov/",),
    # tracking core
    "TrackingError": ("core/",),
    "NoActiveRunError": ("core/",),
    "RunAlreadyActiveError": ("core/",),
    "UnknownContextError": ("core/",),
    "ArtifactError": ("core/",),
    "JournalError": ("core/journal.py", "wal.py"),
    "RecoveryError": ("core/recover.py",),
    # metric storage
    "StorageError": ("storage/",),
    "CodecError": ("storage/",),
    "StoreFormatError": ("storage/",),
    "ChecksumError": ("storage/",),
    # RO-Crate packaging (the workflow layer builds crates too)
    "CrateError": ("crate/", "workflow/wfcrate.py"),
    # embedded graph database
    "GraphDBError": ("yprov/graphdb.py",),
    "NodeNotFoundError": ("yprov/graphdb.py",),
    "ConstraintViolationError": ("yprov/graphdb.py",),
    # provenance service + transport
    "ServiceError": ("yprov/",),
    "DocumentNotFoundError": ("yprov/",),
    "HandleError": ("yprov/handle.py",),
    "TransportError": ("yprov/client.py",),
    "CircuitOpenError": ("yprov/client.py",),
    "SpoolError": ("yprov/spool.py", "yprov/client.py"),
    "SegmentError": ("yprov/segments.py",),
    "IngestError": ("yprov/ingest.py",),
    # shard cluster (router tier)
    "ClusterError": ("yprov/cluster/",),
    "QuorumError": ("yprov/cluster/",),
    "PartialResultError": ("yprov/cluster/",),
    # PROVQL query engine
    "QueryError": ("query/",),
    "QuerySyntaxError": ("query/",),
    "PlanError": ("query/",),
    # job fleet (the client re-raises fleet errors from coded REST replies)
    "FleetError": ("fleet/", "yprov/client.py"),
    "JobNotFoundError": ("fleet/", "yprov/client.py"),
    "QueueFullError": ("fleet/", "yprov/client.py"),
    "LeaseExpiredError": ("fleet/", "yprov/client.py"),
    "JobStateError": ("fleet/", "yprov/client.py"),
    # workflow DAGs
    "WorkflowError": ("workflow/",),
    "CycleError": ("workflow/",),
    "WorkflowJournalError": ("workflow/",),
    "TaskCancelledError": ("workflow/",),
    # simulator
    "SimulationError": ("simulator/",),
    "ClusterConfigError": ("simulator/",),
    "CommError": ("simulator/",),
    "WalltimeExceededError": ("simulator/",),
    # analysis
    "AnalysisError": ("analysis/",),
    "InsufficientHistoryError": ("analysis/",),
    # this subsystem (the CLI front-end raises lint usage errors on its behalf)
    "LintError": ("lint/", "yprov/cli.py"),
}

#: numpy legacy global-state samplers (all draw from the unseeded global RNG).
_NP_GLOBAL_SAMPLERS = {
    "rand", "randn", "randint", "random", "random_sample", "normal",
    "uniform", "choice", "shuffle", "permutation", "standard_normal",
}


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for Attribute/Name chains, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _call_mode(call: ast.Call, *, is_method: bool) -> Optional[str]:
    """The string-literal mode argument of an ``open`` call, if any.

    ``open(path, "w")`` passes the mode at index 1; ``path.open("w")`` at
    index 0.  Non-literal modes return ``None`` (we cannot judge them).
    """
    index = 0 if is_method else 1
    mode_node: Optional[ast.AST] = None
    if len(call.args) > index:
        mode_node = call.args[index]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode_node = kw.value
    if isinstance(mode_node, ast.Constant) and isinstance(mode_node.value, str):
        return mode_node.value
    return None


def _is_write_mode(mode: Optional[str]) -> bool:
    return mode is not None and bool(set(mode) & _WRITE_MODE_CHARS)


@dataclass
class ModuleContext:
    """One parsed source module plus its suppression map."""

    rel_path: str  # POSIX path relative to the package root
    tree: ast.Module
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    parents: Dict[ast.AST, ast.AST] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: Path, rel_path: str) -> "ModuleContext":
        """Read and parse one module; unreadable source is a LintError."""
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=rel_path)
        except (OSError, SyntaxError) as exc:
            raise LintError(f"cannot parse {rel_path}: {exc}") from exc
        ctx = cls(rel_path=rel_path, tree=tree,
                  suppressions=_collect_suppressions(source))
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                ctx.parents[child] = parent
        return ctx

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self.parents.get(node)

    def walk(self) -> Iterator[ast.AST]:
        return ast.walk(self.tree)

    def is_suppressed(self, rule_id: str, line: Optional[int]) -> bool:
        return line is not None and rule_id in self.suppressions.get(line, set())


def _collect_suppressions(source: str) -> Dict[int, Set[str]]:
    out: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if match:
                ids = {part.strip() for part in match.group(1).split(",")}
                out.setdefault(tok.start[0], set()).update(ids)
    except tokenize.TokenizeError:
        pass  # unparseable files are reported by ModuleContext.parse
    return out


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------

_R = DEFAULT_REGISTRY


@_R.rule(
    "SL201", "persistence-outside-atomicio", "error", "self",
    "Raw write persistence must go through repro.atomicio (atomic temp+rename).",
)
def check_persistence(rule: Rule, ctx: ModuleContext) -> Iterable[Finding]:
    """SL201: raw write persistence is only allowed inside repro.atomicio."""
    if ctx.rel_path == _ATOMICIO_MODULE:
        return  # the one module implementing the discipline
    for node in ctx.walk():
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            if _is_write_mode(_call_mode(node, is_method=False)):
                yield rule.finding(
                    "builtin open() in write mode; use repro.atomicio",
                    path=ctx.rel_path, line=node.lineno,
                )
        elif isinstance(func, ast.Attribute):
            if func.attr == "open" and _is_write_mode(_call_mode(node, is_method=True)):
                yield rule.finding(
                    ".open() in write mode; use repro.atomicio",
                    path=ctx.rel_path, line=node.lineno,
                )
            elif func.attr in ("write_text", "write_bytes"):
                yield rule.finding(
                    f".{func.attr}() is a non-atomic write; use repro.atomicio",
                    path=ctx.rel_path, line=node.lineno,
                )
            else:
                dotted = _dotted_name(func)
                if dotted in ("os.replace", "os.rename", "shutil.move"):
                    yield rule.finding(
                        f"{dotted}() outside repro.atomicio bypasses the "
                        "temp-file/fsync discipline",
                        path=ctx.rel_path, line=node.lineno,
                    )


@_R.rule(
    "SL202", "nondeterminism-in-simulator", "error", "self",
    "The simulator must be seed-deterministic: no wall clocks, no unseeded RNGs.",
)
def check_simulator_determinism(rule: Rule, ctx: ModuleContext) -> Iterable[Finding]:
    """SL202: simulator modules must not read wall clocks or unseeded RNGs."""
    if not ctx.rel_path.startswith("simulator/"):
        return
    for node in ctx.walk():
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted_name(node.func) or ""
        leaf = dotted.rsplit(".", 1)[-1]
        message: Optional[str] = None
        if dotted in ("time.time", "time.time_ns", "time.perf_counter",
                      "time.monotonic"):
            message = f"{dotted}() reads the wall clock; use SimClock"
        elif leaf in ("now", "utcnow", "today") and "datetime" in dotted:
            message = f"{dotted}() reads the wall clock; use SimClock"
        elif leaf in ("default_rng", "Random", "RandomState") and not (
            node.args or node.keywords
        ):
            message = f"{dotted}() without a seed is nondeterministic"
        elif dotted.startswith(("np.random.", "numpy.random.")) and (
            leaf in _NP_GLOBAL_SAMPLERS or leaf == "seed"
        ):
            message = (
                f"{dotted}() uses numpy's global RNG state; pass an explicit "
                "np.random.default_rng(seed)"
            )
        elif dotted.startswith("random.") and dotted.count(".") == 1 and leaf != "Random":
            message = (
                f"{dotted}() uses the global random module state; use a "
                "seeded random.Random instance"
            )
        if message is not None:
            yield rule.finding(message, path=ctx.rel_path, line=node.lineno)


@_R.rule(
    "SL203", "bare-except", "warning", "self",
    "Bare `except:` swallows KeyboardInterrupt/SystemExit and masks bugs.",
)
def check_bare_except(rule: Rule, ctx: ModuleContext) -> Iterable[Finding]:
    """SL203: no bare `except:` clauses."""
    for node in ctx.walk():
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield rule.finding(
                "bare `except:`; catch a specific exception type",
                path=ctx.rel_path, line=node.lineno,
            )


@_R.rule(
    "SL204", "foreign-exception-raise", "error", "self",
    "A subsystem's exception types may only be raised by that subsystem.",
)
def check_exception_ownership(rule: Rule, ctx: ModuleContext) -> Iterable[Finding]:
    """SL204: exceptions may only be raised by their owning subsystem."""
    for node in ctx.walk():
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        name = exc.id if isinstance(exc, ast.Name) else None
        if name is None or name not in _EXCEPTION_OWNERS:
            continue
        owners = _EXCEPTION_OWNERS[name]
        if not any(
            ctx.rel_path == owner or (owner.endswith("/") and ctx.rel_path.startswith(owner))
            for owner in owners
        ):
            yield rule.finding(
                f"{name} belongs to {owners[0]!r}; raising it here leaks a "
                "foreign subsystem's failure vocabulary",
                path=ctx.rel_path, line=node.lineno, element=name,
            )


#: Parent node types through which an opened handle safely escapes the
#: expression (someone holds a reference and can close it).
_SAFE_HANDLE_PARENTS = (
    ast.withitem, ast.Assign, ast.AnnAssign, ast.AugAssign,
    ast.NamedExpr, ast.Return, ast.Yield, ast.YieldFrom,
)


@_R.rule(
    "SL205", "leaked-file-handle", "warning", "self",
    "A file handle opened without `with` and consumed inline is never closed.",
)
def check_leaked_handles(rule: Rule, ctx: ModuleContext) -> Iterable[Finding]:
    """SL205: opened file handles must be held (with/assign/return), not leaked."""
    for node in ctx.walk():
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        is_open = (isinstance(func, ast.Name) and func.id == "open") or (
            isinstance(func, ast.Attribute) and func.attr == "open"
        )
        if not is_open:
            continue
        parent = ctx.parent(node)
        if isinstance(parent, _SAFE_HANDLE_PARENTS):
            continue
        yield rule.finding(
            "open() result consumed inline; the handle is never closed — "
            "use a `with` block",
            path=ctx.rel_path, line=node.lineno,
        )


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def default_source_root() -> Path:
    """The installed :mod:`repro` package directory (the self-lint target)."""
    import repro

    return Path(repro.__file__).resolve().parent


def iter_source_files(root: Path) -> Iterator[Tuple[Path, str]]:
    """Yield ``(absolute path, package-relative POSIX path)`` for the tree."""
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        yield path, path.relative_to(root).as_posix()


def lint_source(
    source_root: Optional[Any] = None,
    registry: RuleRegistry = DEFAULT_REGISTRY,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> LintReport:
    """Run the self-lint family over a source tree (default: this package)."""
    root = Path(source_root) if source_root is not None else default_source_root()
    if not root.is_dir():
        raise LintError(f"source root does not exist: {root}")
    rules = registry.select("self", select=select, ignore=ignore)
    findings: List[Finding] = []
    suppressed = 0
    for path, rel_path in iter_source_files(root):
        ctx = ModuleContext.parse(path, rel_path)
        for rule in rules:
            for finding in rule.check(rule, ctx):
                if ctx.is_suppressed(finding.rule_id, finding.line):
                    suppressed += 1
                else:
                    findings.append(finding)
    return LintReport(
        findings=findings,
        checked_rules=[r.rule_id for r in rules],
        target=str(root),
        suppressed=suppressed,
    )
