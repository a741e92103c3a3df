"""The reprolint rule pack: RPR001–RPR010.

Each rule encodes one of the codebase's cross-cutting contracts (see the
package docstring). Rules are instantiated per run with the resolved
:class:`~repro.analysis.engine.Config` and participate in the two-pass
pipeline:

* ``check(ctx)`` — per-file findings (pass 1, cached);
* ``collect(ctx)`` — a JSON-serializable fact fragment for this file
  (pass 1, cached);
* ``check_program(program)`` — whole-program findings over the merged
  fragments plus the symbol table / call graph in
  :class:`~repro.analysis.callgraph.Program` (pass 2, always fresh).

Known, accepted limitations (static analysis is approximate by design):

* RPR002/RPR010 only see *literal* metric names plus f-string
  prefix/suffix templates; fully dynamic names are left to the runtime
  catalog enforcement in ``obs.registry``.
* RPR003 tracks lexical lock regions and same-class ``self.method()``
  indirection; calls through other objects are modeled only via the
  blocking-method name list.
* RPR004 inspects declared field annotations and ``__init__``
  assignments, not runtime attribute injection.
* RPR007 resolves calls through import aliases, ``self.``, local
  constructor typing, and unique basenames; calls through unresolvable
  receivers do not propagate taint.
* RPR009 treats a ``close()`` anywhere inside a ``finally`` block as
  closing on all paths, and any escape of the handle (returned,
  yielded, stored, passed to a call) as a transfer of ownership.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import ClassVar, Iterator

from .callgraph import (
    CallSite,
    FunctionFacts,
    Program,
    in_scope,
    iter_functions,
)
from .engine import ENGINE_RULE_ID, Config, FileContext, Finding


@dataclass(frozen=True)
class RuleSpec:
    """Static description of a rule, for docs verification."""

    id: str
    name: str
    summary: str


class Rule:
    """Base class: one invariant, checked per file plus a program pass."""

    id: ClassVar[str]
    name: ClassVar[str]
    summary: ClassVar[str]

    def __init__(self, config: Config) -> None:
        self.config = config

    def check(self, ctx: FileContext) -> list[Finding]:
        """Findings local to one file (cached with the file)."""
        return []

    def collect(self, ctx: FileContext) -> object | None:
        """JSON-serializable facts this rule needs from one file."""
        return None

    def check_program(self, program: Program) -> list[Finding]:
        """Findings that need the whole-program view."""
        return []


# ---------------------------------------------------------------------------
# RPR001 — determinism
# ---------------------------------------------------------------------------

#: Calls that read the wall clock or ambient entropy. ``time.perf_counter``
#: and ``time.monotonic`` are allowed: they feed metrics, not data.
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "numpy.random.rand",
    "numpy.random.randn",
    "numpy.random.random",
    "numpy.random.randint",
    "numpy.random.normal",
    "numpy.random.uniform",
    "numpy.random.choice",
    "numpy.random.shuffle",
    "numpy.random.permutation",
    "numpy.random.seed",
}
_ENTROPY_PREFIXES = ("random.", "secrets.")


def _source_of(dotted: str | None, bare: bool) -> str | None:
    """The wall-clock/entropy source a dotted call reads, if any."""
    if dotted is None:
        return None
    if dotted == "numpy.random.default_rng":
        return dotted if bare else None
    if dotted in _WALL_CLOCK or dotted.startswith(_ENTROPY_PREFIXES):
        return dotted
    return None


class NoWallClockRule(Rule):
    """RPR001: deterministic paths must not read clocks or unseeded RNG.

    The paper's lossless-reconstruction guarantees (Gorilla/PMC-Mean/
    Swing) and the batch/scalar bit-equivalence tests both assume that
    fitting, ingestion, and serialization are pure functions of their
    inputs.
    """

    id = "RPR001"
    name = "no-wallclock-rng"
    summary = (
        "no wall-clock reads or unseeded RNG inside models/, ingest/, "
        "or storage serialization"
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        if not ctx.in_scope(self.config.deterministic_paths):
            return []
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.dotted(node.func)
            if dotted is None:
                continue
            bare = not node.args and not node.keywords
            source = _source_of(dotted, bare)
            if source is None:
                continue
            if source == "numpy.random.default_rng":
                message = (
                    "unseeded np.random.default_rng() in a "
                    "deterministic path — pass an explicit seed"
                )
            else:
                message = (
                    f"non-deterministic call {source}() in a "
                    "deterministic path"
                )
            findings.append(
                Finding(self.id, ctx.rel, node.lineno, node.col_offset, message)
            )
        return findings


# ---------------------------------------------------------------------------
# RPR002 — metric names
# ---------------------------------------------------------------------------

_INSTRUMENT_METHODS = {"counter", "gauge", "histogram"}


class MetricCatalogRule(Rule):
    """RPR002: literal metric names at call sites must be declared.

    ``scripts/check_docs.py`` keeps docs/METRICS.md equal to the
    catalog; this closes the remaining gap — a call site asking the
    registry for an undeclared name, which today only fails at runtime
    when that code path executes.
    """

    id = "RPR002"
    name = "metric-name-in-catalog"
    summary = (
        "every literal registry.counter/gauge/histogram() name exists "
        "in obs/catalog.py or a literal .declare() call"
    )

    def collect(self, ctx: FileContext) -> object | None:
        declared: list[str] = []
        uses: list[list[object]] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute) or not node.args:
                continue
            first = node.args[0]
            if not (
                isinstance(first, ast.Constant) and isinstance(first.value, str)
            ):
                continue  # f-string names: runtime enforcement covers them
            if func.attr == "declare":
                declared.append(first.value)
            elif func.attr in _INSTRUMENT_METHODS:
                uses.append([first.value, node.lineno, node.col_offset])
        if not declared and not uses:
            return None
        return {"declared": declared, "uses": uses}

    def _catalog_names(self) -> set[str] | None:
        module_name, _, attr = self.config.metrics_catalog.partition(":")
        try:
            import importlib

            catalog = getattr(importlib.import_module(module_name), attr)
            return set(catalog)
        except Exception:  # broad-ok: missing catalog disables the rule
            return None

    def check_program(self, program: Program) -> list[Finding]:
        catalog = self._catalog_names()
        if catalog is None:
            return []
        fragments = program.fragments(self.id)
        known = set(catalog)
        for fragment in fragments.values():
            known.update(fragment["declared"])  # type: ignore[index]
        findings: list[Finding] = []
        for rel, fragment in fragments.items():
            for name, line, col in fragment["uses"]:  # type: ignore[index]
                if name not in known:
                    findings.append(
                        Finding(
                            self.id,
                            rel,
                            int(line),
                            int(col),
                            f'metric "{name}" is not declared in '
                            "the metrics catalog",
                        )
                    )
        return findings


# ---------------------------------------------------------------------------
# RPR003 — lock discipline
# ---------------------------------------------------------------------------

#: Identifier component that marks an expression as a lock: ``_lock``,
#: ``lock_a``, ``cache_lock``, ``mutex`` — but not ``unlock``/``locked``.
_LOCK_NAME = re.compile(r"(?:^|_)(lock|mutex)(?:$|_)", re.IGNORECASE)

#: Method names that block (or may acquire another lock) when called.
_BLOCKING_METHODS = {
    "sleep",
    "recv",
    "recv_into",
    "sendall",
    "accept",
    "connect",
    "result",
    "join",
    "acquire",
    "wait",
    "urlopen",
    "sql",
    "execute_partial",
    # Registry instruments serialize on their own internal lock, and the
    # registry lookup methods take the registry lock — calling either
    # while holding an unrelated lock couples independent lock domains.
    "inc",
    "record",
    "counter",
    "gauge",
    "histogram",
}
_SAFE_DOTTED_PREFIXES = ("os.path.", "posixpath.", "ntpath.", "shlex.")
_BLOCKING_DOTTED = {
    "time.sleep",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.Popen",
    "socket.create_connection",
    "urllib.request.urlopen",
    "requests.get",
    "requests.post",
    "open",
}

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


class LockDisciplineRule(Rule):
    """RPR003: no blocking calls under a lock; lock order is acyclic.

    Lexical ``with <...lock>:`` blocks define held-lock regions. Inside
    a region the rule flags blocking calls (I/O, RPC, joins, metric
    instruments with their own locks), re-acquisition of the held lock
    (``threading.Lock`` is non-reentrant — instant deadlock), including
    through same-class ``self.method()`` calls, and records every
    outer→inner acquisition as an edge fragment; the program pass folds
    every file's edges into one acquisition-order graph and reports its
    cycles.
    """

    id = "RPR003"
    name = "lock-discipline"
    summary = (
        "no blocking calls or re-acquisition while holding a lock; the "
        "whole-program lock-acquisition-order graph stays acyclic"
    )

    def __init__(self, config: Config) -> None:
        super().__init__(config)
        #: rel -> (local findings, ordered [outer, inner, line] edges);
        #: memoized so check() and collect() share one scan per file.
        self._memo: dict[str, tuple[list[Finding], list[list[object]]]] = {}

    # -- lock identity -------------------------------------------------
    @staticmethod
    def _terminal_name(node: ast.expr) -> str | None:
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Name):
            return node.id
        return None

    def _lock_identity(
        self, node: ast.expr, ctx: FileContext, cls: str | None
    ) -> str | None:
        """Canonical identity of a lock expression, or None if not one."""
        terminal = self._terminal_name(node)
        if terminal is None or not _LOCK_NAME.search(terminal):
            return None
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            owner = f"{ctx.module}.{cls}" if cls else ctx.module
            return f"{owner}.{node.attr}"
        if isinstance(node, ast.Name):
            return f"{ctx.module}.{node.id}"
        # An attribute chain rooted in an import resolves to one canonical
        # dotted name in every file, so module-level locks reached through
        # imports participate in the cross-file acquisition-order graph.
        base = node
        while isinstance(base, ast.Attribute):
            base = base.value
        if isinstance(base, ast.Name) and base.id in ctx.aliases:
            dotted = ctx.dotted(node)
            if dotted is not None:
                return dotted
        return f"{ctx.module}.{ast.unparse(node)}"

    # -- per-file passes -----------------------------------------------
    def _analyze(
        self, ctx: FileContext
    ) -> tuple[list[Finding], list[list[object]]]:
        if ctx.rel in self._memo:
            return self._memo[ctx.rel]
        findings: list[Finding] = []
        raw_edges: list[tuple[str, str, int]] = []
        for cls_name, func in self._iter_functions(ctx.tree):
            method_locks = self._method_locks(ctx, cls_name)
            for stmt in func.body:
                self._scan(
                    stmt, [], ctx, cls_name, method_locks, findings, raw_edges
                )
        edges: list[list[object]] = []
        seen: set[tuple[str, str]] = set()
        for outer, inner, line in raw_edges:
            if (outer, inner) not in seen:
                seen.add((outer, inner))
                edges.append([outer, inner, line])
        self._memo[ctx.rel] = (findings, edges)
        return self._memo[ctx.rel]

    def check(self, ctx: FileContext) -> list[Finding]:
        return list(self._analyze(ctx)[0])

    def collect(self, ctx: FileContext) -> object | None:
        edges = self._analyze(ctx)[1]
        return {"edges": edges} if edges else None

    @staticmethod
    def _iter_functions(
        tree: ast.Module,
    ) -> Iterator[tuple[str | None, ast.FunctionDef | ast.AsyncFunctionDef]]:
        yield from iter_functions(tree)

    def _method_locks(
        self, ctx: FileContext, cls_name: str | None
    ) -> dict[str, set[str]]:
        """Method name -> lock identities it lexically acquires."""
        if cls_name is None:
            return {}
        cache_key = (ctx.rel, cls_name)
        cached = getattr(self, "_method_lock_cache", None)
        if cached is None:
            cached = {}
            self._method_lock_cache: dict[
                tuple[str, str], dict[str, set[str]]
            ] = cached
        if cache_key in cached:
            return cached[cache_key]
        table: dict[str, set[str]] = {}
        for node in ctx.tree.body:
            if not (isinstance(node, ast.ClassDef) and node.name == cls_name):
                continue
            for item in node.body:
                if not isinstance(item, _FUNCTION_NODES):
                    continue
                acquired: set[str] = set()
                for sub in ast.walk(item):
                    if isinstance(sub, (ast.With, ast.AsyncWith)):
                        for with_item in sub.items:
                            identity = self._lock_identity(
                                with_item.context_expr, ctx, cls_name
                            )
                            if identity is not None:
                                acquired.add(identity)
                if acquired:
                    table[item.name] = acquired
        cached[cache_key] = table
        return table

    def _scan(
        self,
        node: ast.AST,
        held: list[str],
        ctx: FileContext,
        cls: str | None,
        method_locks: dict[str, set[str]],
        findings: list[Finding],
        edges: list[tuple[str, str, int]],
    ) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired: list[str] = []
            for item in node.items:
                identity = self._lock_identity(item.context_expr, ctx, cls)
                if identity is None:
                    self._scan(
                        item.context_expr,
                        held,
                        ctx,
                        cls,
                        method_locks,
                        findings,
                        edges,
                    )
                    continue
                if identity in held:
                    findings.append(
                        Finding(
                            self.id,
                            ctx.rel,
                            item.context_expr.lineno,
                            item.context_expr.col_offset,
                            f"re-acquires {identity} already held — "
                            "threading.Lock is non-reentrant (deadlock)",
                        )
                    )
                elif held:
                    edges.append(
                        (held[-1], identity, item.context_expr.lineno)
                    )
                acquired.append(identity)
            inner = held + acquired
            for child in node.body:
                self._scan(
                    child, inner, ctx, cls, method_locks, findings, edges
                )
            return
        if isinstance(node, (*_FUNCTION_NODES, ast.Lambda)):
            # A nested def/lambda runs later, outside this lock region.
            for child in ast.iter_child_nodes(node):
                self._scan(child, [], ctx, cls, method_locks, findings, edges)
            return
        if isinstance(node, ast.Call) and held:
            self._check_call(
                node, held, ctx, cls, method_locks, findings, edges
            )
        for child in ast.iter_child_nodes(node):
            self._scan(child, held, ctx, cls, method_locks, findings, edges)

    def _check_call(
        self,
        node: ast.Call,
        held: list[str],
        ctx: FileContext,
        cls: str | None,
        method_locks: dict[str, set[str]],
        findings: list[Finding],
        edges: list[tuple[str, str, int]],
    ) -> None:
        func = node.func
        dotted = ctx.dotted(func)
        if dotted in _BLOCKING_DOTTED:
            findings.append(
                Finding(
                    self.id,
                    ctx.rel,
                    node.lineno,
                    node.col_offset,
                    f"blocking call {dotted}() while holding {held[-1]}",
                )
            )
            return
        if not isinstance(func, ast.Attribute):
            return
        # Same-class indirection: self.m() where m acquires locks.
        if (
            isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and func.attr in method_locks
        ):
            for inner in sorted(method_locks[func.attr]):
                if inner in held:
                    findings.append(
                        Finding(
                            self.id,
                            ctx.rel,
                            node.lineno,
                            node.col_offset,
                            f"self.{func.attr}() re-acquires {inner} "
                            "already held — threading.Lock is "
                            "non-reentrant (deadlock)",
                        )
                    )
                else:
                    edges.append((held[-1], inner, node.lineno))
        if func.attr not in _BLOCKING_METHODS:
            return
        if func.attr == "join" and isinstance(func.value, ast.Constant):
            return  # "sep".join(...) — string join, not thread join
        if dotted is not None and dotted.startswith(_SAFE_DOTTED_PREFIXES):
            return
        findings.append(
            Finding(
                self.id,
                ctx.rel,
                node.lineno,
                node.col_offset,
                f"blocking call .{func.attr}() while holding {held[-1]}",
            )
        )

    # -- whole-program cycle detection ---------------------------------
    def check_program(self, program: Program) -> list[Finding]:
        edge_sites: dict[tuple[str, str], tuple[str, int]] = {}
        for rel, fragment in program.fragments(self.id).items():
            for outer, inner, line in fragment["edges"]:  # type: ignore[index]
                edge_sites.setdefault(
                    (str(outer), str(inner)), (rel, int(line))
                )
        graph: dict[str, list[str]] = {}
        for outer, inner in edge_sites:
            graph.setdefault(outer, []).append(inner)
        for targets in graph.values():
            targets.sort()
        findings: list[Finding] = []
        seen_cycles: set[tuple[str, ...]] = set()
        state: dict[str, int] = {}  # 1 = on stack, 2 = done
        stack: list[str] = []

        def visit(lock: str) -> None:
            state[lock] = 1
            stack.append(lock)
            for target in graph.get(lock, ()):
                mark = state.get(target)
                if mark == 1:
                    cycle = stack[stack.index(target):]
                    pivot = cycle.index(min(cycle))
                    canonical = tuple(cycle[pivot:] + cycle[:pivot])
                    if canonical in seen_cycles:
                        continue
                    seen_cycles.add(canonical)
                    path, line = edge_sites[(cycle[-1], target)]
                    chain = " -> ".join((*canonical, canonical[0]))
                    findings.append(
                        Finding(
                            self.id,
                            path,
                            line,
                            0,
                            f"lock-acquisition-order cycle: {chain}",
                        )
                    )
                elif mark is None:
                    visit(target)
            stack.pop()
            state[lock] = 2

        for lock in sorted(graph):
            if lock not in state:
                visit(lock)
        return findings


# ---------------------------------------------------------------------------
# RPR004 — pickle safety across the RPC boundary
# ---------------------------------------------------------------------------

#: Canonical dotted names whose instances cannot cross a pickle boundary.
#: Annotation names are resolved through the file's import aliases first,
#: so a project-local class that happens to be called ``Condition`` (the
#: SQL WHERE clause) is not confused with ``threading.Condition``.
_UNPICKLABLE_TYPES = {
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
    "threading.Event",
    "threading.Thread",
    "multiprocessing.Process",
    "multiprocessing.Queue",
    "multiprocessing.Lock",
    "socket.socket",
    "queue.Queue",
    "queue.SimpleQueue",
    "typing.Callable",
    "typing.Generator",
    "typing.Iterator",
    "typing.IO",
    "typing.TextIO",
    "typing.BinaryIO",
    "collections.abc.Callable",
    "collections.abc.Generator",
    "collections.abc.Iterator",
    "io.IOBase",
    "io.TextIOWrapper",
    "io.BufferedReader",
    "io.BufferedWriter",
}
_UNPICKLABLE_FACTORIES = {
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "threading.Event",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
    "socket.socket",
    "socket.create_connection",
    "open",
}


class PickleSafetyRule(Rule):
    """RPR004: RPC payload types carry only picklable state.

    Everything listed in ``rpc-types`` crosses a worker process
    boundary through ``cluster/fleet.py``; a lock, socket, generator, or
    lambda smuggled into a field turns into a runtime PicklingError on
    whichever code path first ships the object.
    """

    id = "RPR004"
    name = "rpc-pickle-safety"
    summary = (
        "types crossing the cluster RPC boundary must not hold locks, "
        "sockets, generators, lambdas, or open files"
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name not in self.config.rpc_types:
                continue
            findings.extend(self._check_class(node, ctx))
        return findings

    def _check_class(
        self, node: ast.ClassDef, ctx: FileContext
    ) -> list[Finding]:
        findings: list[Finding] = []
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign):
                culprit = self._unpicklable_annotation(stmt.annotation, ctx)
                if culprit is not None:
                    findings.append(
                        Finding(
                            self.id,
                            ctx.rel,
                            stmt.lineno,
                            stmt.col_offset,
                            f"RPC type {node.name} declares field with "
                            f"unpicklable annotation ({culprit})",
                        )
                    )
            elif isinstance(stmt, _FUNCTION_NODES) and stmt.name == "__init__":
                findings.extend(self._check_init(stmt, node.name, ctx))
        return findings

    @staticmethod
    def _unpicklable_annotation(
        annotation: ast.expr, ctx: FileContext
    ) -> str | None:
        """The first banned dotted name inside the annotation, if any.

        String annotations (``"Lock | None"``) are parsed as expressions
        so deferred annotations get the same treatment.
        """
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            try:
                annotation = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return None
        for node in ast.walk(annotation):
            if isinstance(node, (ast.Name, ast.Attribute)):
                dotted = ctx.dotted(node)
                if dotted in _UNPICKLABLE_TYPES:
                    return dotted
        return None

    def _check_init(
        self,
        init: ast.FunctionDef | ast.AsyncFunctionDef,
        cls_name: str,
        ctx: FileContext,
    ) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(init):
            if not isinstance(node, ast.Assign):
                continue
            if not any(
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                for target in node.targets
            ):
                continue
            reason: str | None = None
            value = node.value
            if isinstance(value, ast.Lambda):
                reason = "a lambda"
            elif isinstance(value, ast.GeneratorExp):
                reason = "a generator expression"
            elif isinstance(value, ast.Call):
                dotted = ctx.dotted(value.func)
                if dotted in _UNPICKLABLE_FACTORIES:
                    reason = f"{dotted}()"
            if reason is not None:
                findings.append(
                    Finding(
                        self.id,
                        ctx.rel,
                        node.lineno,
                        node.col_offset,
                        f"RPC type {cls_name} stores {reason} on self — "
                        "not picklable across the cluster boundary",
                    )
                )
        return findings


# ---------------------------------------------------------------------------
# RPR005 — justified broad excepts
# ---------------------------------------------------------------------------

_JUSTIFICATION = re.compile(r"#.*\b(pragma:|broad-ok:|noqa:)")
_BROAD_NAMES = {"Exception", "BaseException"}


class BroadExceptRule(Rule):
    """RPR005: bare/broad ``except`` needs a same-line justification.

    A swallowed exception in this codebase does not crash a test — it
    silently corrupts an experiment (the loadgen error-counting bug is
    the canonical example). ``# broad-ok: <reason>`` — or an existing
    ``# pragma:`` / ``# noqa: <code> - <reason>`` tag — on the
    ``except`` line states why broad is right.
    """

    id = "RPR005"
    name = "justified-broad-except"
    summary = (
        "no bare `except:` / `except Exception:` without a same-line "
        "`# broad-ok:` (or `# pragma:` / `# noqa:`) justification"
    )

    @staticmethod
    def _is_broad(handler: ast.ExceptHandler) -> bool:
        node = handler.type
        if node is None:
            return True
        names = node.elts if isinstance(node, ast.Tuple) else [node]
        return any(
            isinstance(name, ast.Name) and name.id in _BROAD_NAMES
            for name in names
        )

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node):
                continue
            comment = ctx.comments.get(node.lineno, "")
            if _JUSTIFICATION.search(comment):
                continue
            label = (
                "bare except:"
                if node.type is None
                else f"broad except {ast.unparse(node.type)}:"
            )
            findings.append(
                Finding(
                    self.id,
                    ctx.rel,
                    node.lineno,
                    node.col_offset,
                    f"{label} without a `# broad-ok: <reason>` tag",
                )
            )
        return findings


# ---------------------------------------------------------------------------
# RPR006 — no scalar loops in batch kernels
# ---------------------------------------------------------------------------


class ScalarLoopRule(Rule):
    """RPR006: batch kernels must stay vectorized.

    The columnar ingestion and read paths exist because per-tick Python
    loops were the bottleneck. Inside an ``extend`` kernel, a ``for``
    loop feeding ``append``/``_try_append`` row by row silently reverts
    that win; inside a ``values_block`` decode kernel, a loop of
    ``value_at`` calls reconstructs the block one scalar at a time. Both
    stay bit-identical, so only a linter catches the regression.
    """

    id = "RPR006"
    name = "no-scalar-loop-in-kernels"
    summary = (
        "no per-tick `for` loop feeding append/_try_append or calling "
        "value_at inside the batch kernels (extend/_extend/values_block "
        "and the analytics forecast/window-bound kernels)"
    )

    _KERNEL_FUNCTIONS = {
        "extend",
        "_extend",
        "values_block",
        # The model-native analytics kernels (query/analytics.py):
        # per-series/per-window numpy broadcasts that must not regress
        # into per-tick scalar loops.
        "forecast_block",
        "forecast_halfwidths",
        "window_lower_bounds",
    }

    def check(self, ctx: FileContext) -> list[Finding]:
        if not ctx.in_scope(self.config.kernel_paths):
            return []
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, _FUNCTION_NODES):
                continue
            if node.name not in self._KERNEL_FUNCTIONS:
                continue
            for loop in ast.walk(node):
                if not isinstance(loop, (ast.For, ast.AsyncFor)):
                    continue
                if self._loop_scalar_calls(loop):
                    findings.append(
                        Finding(
                            self.id,
                            ctx.rel,
                            loop.lineno,
                            loop.col_offset,
                            "per-tick scalar loop (append/_try_append/"
                            f"value_at) inside batch kernel "
                            f"{node.name}() — vectorize it",
                        )
                    )
        return findings

    @staticmethod
    def _loop_scalar_calls(loop: ast.For | ast.AsyncFor) -> bool:
        for stmt in loop.body:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not isinstance(func, ast.Attribute):
                    continue
                if func.attr in ("_try_append", "value_at"):
                    return True
                if (
                    func.attr == "append"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "self"
                ):
                    return True
        return False


# ---------------------------------------------------------------------------
# RPR007 — interprocedural determinism taint
# ---------------------------------------------------------------------------


class DeterminismTaintRule(Rule):
    """RPR007: no call *chain* from a deterministic scope to a clock.

    RPR001 sees a ``time.time()`` written inside ``models/``; it cannot
    see ``models/`` calling a helper in ``util/`` that reads the clock
    two frames down. This rule propagates every wall-clock/RNG source
    backwards through the whole-program call graph and flags any call
    site inside the deterministic or kernel scopes whose callee can
    reach one, reporting the full path so the finding is actionable.
    Direct in-scope source calls are left to RPR001 (no double report).
    """

    id = "RPR007"
    name = "no-transitive-wallclock"
    summary = (
        "no call path from models/ingest/serialization/analytics "
        "kernels to a wall-clock or unseeded-RNG source in any file "
        "(interprocedural closure of RPR001)"
    )

    def check_program(self, program: Program) -> list[Finding]:
        scope = (
            *self.config.deterministic_paths,
            *self.config.kernel_paths,
        )

        def classify(call: CallSite) -> str | None:
            if call.kind != "dotted":
                return None
            return _source_of(call.target, call.bare)

        tainted = program.taint(classify)
        if not tainted:
            return []
        direct = {
            qualname
            for qualname, info in tainted.items()
            if len(info.chain) == 1
        }
        findings: list[Finding] = []
        for rel in sorted(program.modules):
            if not in_scope(rel, scope):
                continue
            for func in program.modules[rel].functions:
                for call in func.calls:
                    for target in program.resolve_call(func, call):
                        info = tainted.get(target)
                        if info is None or target == func.qualname:
                            continue
                        target_rel = program.rel_of(target)
                        if target in direct and in_scope(target_rel, scope):
                            # RPR001 already flags the source call
                            # inside that in-scope callee.
                            continue
                        chain = " -> ".join(info.chain)
                        findings.append(
                            Finding(
                                self.id,
                                rel,
                                call.line,
                                call.col,
                                f"call into {target}() reaches "
                                f"non-deterministic {info.source}() "
                                f"(path: {chain})",
                            )
                        )
        return findings


# ---------------------------------------------------------------------------
# RPR008 — wire-contract consistency
# ---------------------------------------------------------------------------

#: The request field that *selects* the handler; it is consumed by the
#: dispatch `if` ladder itself, so the threaded-onward check skips it.
_DISPATCH_FIELD = "op"


class WireContractRule(Rule):
    """RPR008: the wire protocol agrees with itself in all four places.

    An op is declared four times — the server's ``_handle_request``
    ladder, a ``ServerClient`` payload, a dispatcher route, and the
    operator docs. History shows they drift one at a time; this rule
    diffs them. It also checks that a request field a handler bothers
    to validate (``request.get("as_of")`` + type check) is actually
    threaded onward to the engine rather than validated and dropped.
    """

    id = "RPR008"
    name = "wire-contract"
    summary = (
        "every protocol op has a server handler branch, a ServerClient "
        "payload, real dispatcher routes, and a docs/OPERATIONS.md "
        "mention; validated request fields are threaded onward"
    )

    # -- pass 1: facts -------------------------------------------------
    def collect(self, ctx: FileContext) -> object | None:
        if ctx.rel == self.config.wire_server:
            return self._collect_server(ctx)
        if ctx.rel == self.config.wire_client:
            return self._collect_client(ctx)
        if ctx.rel == self.config.wire_dispatcher:
            return self._collect_dispatcher(ctx)
        return None

    def _collect_server(self, ctx: FileContext) -> dict[str, object]:
        handler_ops: list[list[object]] = []
        dispatcher_calls: list[list[object]] = []
        fields: list[list[object]] = []
        for _cls, func in iter_functions(ctx.tree):
            if func.name == "_handle_request":
                handler_ops.extend(self._handler_ops(func))
            if func.name.startswith("_handle"):
                fields.extend(self._request_fields(func))
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func_expr = node.func
            if (
                isinstance(func_expr, ast.Attribute)
                and isinstance(func_expr.value, ast.Attribute)
                and func_expr.value.attr == "dispatcher"
                and isinstance(func_expr.value.value, ast.Name)
                and func_expr.value.value.id == "self"
            ):
                dispatcher_calls.append(
                    [func_expr.attr, node.lineno, node.col_offset]
                )
        return {
            "role": "server",
            "handler_ops": handler_ops,
            "dispatcher_calls": dispatcher_calls,
            "fields": fields,
        }

    @staticmethod
    def _handler_ops(
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> list[list[object]]:
        ops: list[list[object]] = []
        for node in ast.walk(func):
            if not isinstance(node, ast.Compare) or len(node.ops) != 1:
                continue
            if not isinstance(node.ops[0], ast.Eq):
                continue
            sides = [node.left, node.comparators[0]]
            names = [s for s in sides if isinstance(s, ast.Name)]
            consts = [
                s
                for s in sides
                if isinstance(s, ast.Constant) and isinstance(s.value, str)
            ]
            if (
                len(names) == 1
                and len(consts) == 1
                and names[0].id == _DISPATCH_FIELD
            ):
                ops.append(
                    [consts[0].value, node.lineno, node.col_offset]
                )
        return ops

    def _request_fields(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> list[list[object]]:
        """[field, line, col, used_onward] for each request.get() read."""
        reads: list[tuple[str, str, int, int]] = []  # (var, field, ...)
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            value = node.value
            if not isinstance(target, ast.Name):
                continue
            if not (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "get"
                and isinstance(value.func.value, ast.Name)
                and value.func.value.id == "request"
                and value.args
                and isinstance(value.args[0], ast.Constant)
                and isinstance(value.args[0].value, str)
            ):
                continue
            field_name = value.args[0].value
            if field_name == _DISPATCH_FIELD:
                continue
            reads.append(
                (target.id, field_name, node.lineno, node.col_offset)
            )
        if not reads:
            return []
        excluded = self._validation_only_nodes(func)
        used_vars: set[str] = set()
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and id(node) not in excluded
            ):
                used_vars.add(node.id)
        return [
            [field_name, line, col, var in used_vars]
            for var, field_name, line, col in reads
        ]

    @staticmethod
    def _validation_only_nodes(func: ast.AST) -> set[int]:
        """ids of Name loads that only validate (tests / error paths)."""
        excluded: set[int] = set()
        for node in ast.walk(func):
            zones: list[ast.AST] = []
            if isinstance(node, (ast.If, ast.IfExp, ast.While)):
                zones.append(node.test)
            elif isinstance(node, ast.Call):
                callee = node.func
                name = (
                    callee.attr
                    if isinstance(callee, ast.Attribute)
                    else callee.id
                    if isinstance(callee, ast.Name)
                    else ""
                )
                if "error" in name:
                    zones.extend(node.args)
                    zones.extend(kw.value for kw in node.keywords)
            for zone in zones:
                for sub in ast.walk(zone):
                    if isinstance(sub, ast.Name):
                        excluded.add(id(sub))
        return excluded

    def _collect_client(self, ctx: FileContext) -> dict[str, object]:
        ops: list[list[object]] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Dict):
                continue
            for key, value in zip(node.keys, node.values):
                if (
                    isinstance(key, ast.Constant)
                    and key.value == _DISPATCH_FIELD
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                ):
                    ops.append([value.value, node.lineno, node.col_offset])
        return {"role": "client", "ops": ops}

    @staticmethod
    def _collect_dispatcher(ctx: FileContext) -> dict[str, object]:
        classes: dict[str, list[str]] = {}
        for node in ctx.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            classes[node.name] = [
                item.name
                for item in node.body
                if isinstance(item, _FUNCTION_NODES)
            ]
        return {"role": "dispatcher", "classes": classes}

    # -- pass 2: the diff ----------------------------------------------
    def check_program(self, program: Program) -> list[Finding]:
        fragments = program.fragments(self.id)
        server = fragments.get(self.config.wire_server)
        if not isinstance(server, dict):
            return []  # the wire surface is not part of this run
        client = fragments.get(self.config.wire_client)
        dispatcher = fragments.get(self.config.wire_dispatcher)
        findings: list[Finding] = []
        server_rel = self.config.wire_server

        handler_sites: dict[str, tuple[int, int]] = {}
        for op, line, col in server.get("handler_ops", ()):
            handler_sites.setdefault(str(op), (int(line), int(col)))
        client_sites: dict[str, tuple[int, int]] = {}
        if isinstance(client, dict):
            for op, line, col in client.get("ops", ()):
                client_sites.setdefault(str(op), (int(line), int(col)))

        if isinstance(client, dict):
            for op in sorted(set(client_sites) - set(handler_sites)):
                line, col = client_sites[op]
                findings.append(
                    Finding(
                        self.id,
                        self.config.wire_client,
                        line,
                        col,
                        f'client sends op "{op}" but {server_rel} has no '
                        "handler branch for it",
                    )
                )
            for op in sorted(set(handler_sites) - set(client_sites)):
                line, col = handler_sites[op]
                findings.append(
                    Finding(
                        self.id,
                        server_rel,
                        line,
                        col,
                        f'protocol op "{op}" has no ServerClient payload '
                        f"in {self.config.wire_client}",
                    )
                )

        docs_path = program.root / self.config.wire_docs
        if docs_path.is_file():
            docs_text = docs_path.read_text(encoding="utf-8")
            for op in sorted(handler_sites):
                pattern = (
                    r"(?<![A-Za-z0-9_])" + re.escape(op) + r"(?![A-Za-z0-9_])"
                )
                if not re.search(pattern, docs_text):
                    line, col = handler_sites[op]
                    findings.append(
                        Finding(
                            self.id,
                            server_rel,
                            line,
                            col,
                            f'protocol op "{op}" is not documented in '
                            f"{self.config.wire_docs}",
                        )
                    )

        if isinstance(dispatcher, dict):
            classes = dict(dispatcher.get("classes", {}))
            routes = set(
                classes.get("Dispatcher")
                or [m for methods in classes.values() for m in methods]
            )
            for attr, line, col in server.get("dispatcher_calls", ()):
                if str(attr) not in routes:
                    findings.append(
                        Finding(
                            self.id,
                            server_rel,
                            int(line),
                            int(col),
                            f"server routes self.dispatcher.{attr}() but "
                            f"{self.config.wire_dispatcher} defines no "
                            f"{attr}()",
                        )
                    )

        for field_name, line, col, used in server.get("fields", ()):
            if not used:
                findings.append(
                    Finding(
                        self.id,
                        server_rel,
                        int(line),
                        int(col),
                        f'request field "{field_name}" is read and '
                        "validated but never threaded onward — the "
                        "engine will silently ignore it",
                    )
                )
        return findings


# ---------------------------------------------------------------------------
# RPR009 — resource lifecycle
# ---------------------------------------------------------------------------

_CLOSE_METHODS = {"close", "shutdown"}
_FACTORY_METHODS = {"open", "open_directory", "connect"}


class ResourceLifecycleRule(Rule):
    """RPR009: a created resource handle is closed on all paths.

    ``ModelarDB.open``, ``FileStorage``, ``ServerClient`` and the
    cluster tiers own OS state (files, sockets, worker processes). A
    handle constructed in a function must be closed there (``with``, or
    ``close()`` on every path — a ``finally`` counts), or its ownership
    must visibly escape (returned, yielded, stored, or passed to
    another call). The rule also flags any internal call to a
    ``DeprecationWarning`` shim — shims exist so *external* users get a
    migration window, not so internal code can keep old habits.
    """

    id = "RPR009"
    name = "resource-lifecycle"
    summary = (
        "Storage/client/cluster handles are closed on all paths (with "
        "block, or close() in a finally) unless ownership escapes; no "
        "internal calls to DeprecationWarning shims"
    )

    # -- pass 1: creations ---------------------------------------------
    def collect(self, ctx: FileContext) -> object | None:
        creations: list[list[object]] = []
        for _cls, func in iter_functions(ctx.tree):
            creations.extend(self._scan_function(func, ctx))
        return {"creations": creations} if creations else None

    def _resource_type(self, dotted: str | None) -> str | None:
        if dotted is None:
            return None
        parts = dotted.split(".")
        if len(parts) >= 2 and parts[-1] in _FACTORY_METHODS:
            candidate = parts[-2]
        else:
            candidate = parts[-1]
        return candidate if candidate in self.config.resource_types else None

    def _scan_function(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        ctx: FileContext,
    ) -> list[list[object]]:
        rows: list[list[object]] = []
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            rtype = self._resource_type(ctx.dotted(node.value.func))
            if rtype is None:
                continue
            closed_any, closed_uncond = self._closes(func, target.id)
            escapes = self._escapes(func, target.id, node)
            rows.append(
                [
                    rtype,
                    target.id,
                    node.lineno,
                    node.col_offset,
                    closed_any,
                    closed_uncond,
                    escapes,
                ]
            )
        return rows

    @classmethod
    def _closes(cls, func: ast.AST, var: str) -> tuple[bool, bool]:
        """(closed anywhere, closed on an all-paths position)."""
        closed_any = False
        closed_uncond = False

        def walk(node: ast.AST, conditional: bool, in_finally: bool) -> None:
            nonlocal closed_any, closed_uncond
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Name) and expr.id == var:
                        closed_any = True
                        if not conditional or in_finally:
                            closed_uncond = True
                for child in node.body:
                    walk(child, conditional, in_finally)
                return
            if isinstance(node, ast.Call):
                callee = node.func
                if (
                    isinstance(callee, ast.Attribute)
                    and callee.attr in _CLOSE_METHODS
                    and isinstance(callee.value, ast.Name)
                    and callee.value.id == var
                ):
                    closed_any = True
                    if not conditional or in_finally:
                        closed_uncond = True
            if isinstance(node, ast.Try):
                # The try body may be cut short by an exception and the
                # handlers/orelse may never run; only `finally` is
                # guaranteed. Anything inside a finally counts as
                # all-paths, even under an `if` — the guard is assumed
                # to mirror the creation condition (approximation).
                for child in node.body:
                    walk(child, True, in_finally)
                for handler in node.handlers:
                    for child in handler.body:
                        walk(child, True, in_finally)
                for child in node.orelse:
                    walk(child, True, in_finally)
                for child in node.finalbody:
                    walk(child, conditional, True)
                return
            if isinstance(node, (ast.If, ast.While)):
                walk(node.test, conditional, in_finally)
                for child in (*node.body, *node.orelse):
                    walk(child, True, in_finally)
                return
            if isinstance(node, (ast.For, ast.AsyncFor)):
                walk(node.iter, conditional, in_finally)
                for child in (*node.body, *node.orelse):
                    walk(child, True, in_finally)
                return
            for child in ast.iter_child_nodes(node):
                walk(child, conditional, in_finally)

        for child in ast.iter_child_nodes(func):
            walk(child, False, False)
        return closed_any, closed_uncond

    @staticmethod
    def _escapes(func: ast.AST, var: str, creation: ast.Assign) -> bool:
        def contains_var(node: ast.AST) -> bool:
            """Var loaded in this subtree, *outside* nested calls.

            Calls are cut out so ``rows = db.sql(...)`` (a method call
            *on* the handle) is not mistaken for aliasing; escapes via
            call arguments are handled by the Call branch below.
            """
            if isinstance(node, ast.Call):
                return False
            if (
                isinstance(node, ast.Name)
                and node.id == var
                and isinstance(node.ctx, ast.Load)
            ):
                return True
            return any(
                contains_var(child) for child in ast.iter_child_nodes(node)
            )

        for node in ast.walk(func):
            if node is creation:
                continue
            if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                if node.value is not None and contains_var(node.value):
                    return True
            elif isinstance(node, ast.Call):
                for arg in (*node.args, *(kw.value for kw in node.keywords)):
                    if (
                        isinstance(arg, ast.Name)
                        and arg.id == var
                        and isinstance(arg.ctx, ast.Load)
                    ) or contains_var(arg):
                        return True
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)):
                value = node.value
                if value is not None and contains_var(value):
                    return True
            elif isinstance(node, (ast.List, ast.Tuple, ast.Set)):
                if any(
                    isinstance(elt, ast.Name) and elt.id == var
                    for elt in node.elts
                ):
                    return True
            elif isinstance(node, ast.Dict):
                if any(
                    isinstance(part, ast.Name) and part.id == var
                    for part in (*node.keys, *node.values)
                    if part is not None
                ):
                    return True
        return False

    # -- pass 2: leak + shim findings ----------------------------------
    def check_program(self, program: Program) -> list[Finding]:
        findings: list[Finding] = []
        for rel, fragment in program.fragments(self.id).items():
            for row in fragment["creations"]:  # type: ignore[index]
                rtype, _var, line, col, closed_any, closed_uncond, escapes = (
                    row
                )
                if escapes:
                    continue
                if not closed_any:
                    findings.append(
                        Finding(
                            self.id,
                            rel,
                            int(line),
                            int(col),
                            f"{rtype} handle is never closed and never "
                            'escapes — use a "with" block or close() it',
                        )
                    )
                elif not closed_uncond:
                    findings.append(
                        Finding(
                            self.id,
                            rel,
                            int(line),
                            int(col),
                            f"{rtype} handle is only conditionally closed "
                            '— close it in a "finally" or use "with"',
                        )
                    )
        findings.extend(self._shim_calls(program))
        return findings

    def _shim_calls(self, program: Program) -> list[Finding]:
        shims: dict[str, str] = {}  # qualname -> display name
        shim_methods: dict[str, list[str]] = {}  # method name -> qualnames
        for qualname, func in program.functions.items():
            if not func.warns_deprecation:
                continue
            display = (
                f"{func.cls}.{func.name}" if func.cls else func.name
            )
            shims[qualname] = display
            shim_methods.setdefault(func.name, []).append(qualname)
        if not shims:
            return []
        findings: list[Finding] = []
        for rel in sorted(program.modules):
            for func in program.modules[rel].functions:
                if func.qualname in shims:
                    continue  # a shim may call anything it likes
                for call in func.calls:
                    hit = self._shim_target(program, func, call, shims)
                    if hit is not None:
                        findings.append(
                            Finding(
                                self.id,
                                rel,
                                call.line,
                                call.col,
                                f"calls DeprecationWarning shim {hit}() — "
                                "internal code must use the replacement "
                                "API",
                            )
                        )
        return findings

    @staticmethod
    def _shim_target(
        program: Program,
        func: FunctionFacts,
        call: CallSite,
        shims: dict[str, str],
    ) -> str | None:
        for target in program.resolve_call(func, call):
            if target in shims:
                return shims[target]
        if call.kind == "method":
            # Unresolvable receiver: flag only when the method name is
            # project-unique and that unique owner is the shim.
            owners = program.method_owners(call.target)
            if len(owners) == 1:
                qualname = f"{owners[0]}.{call.target}"
                if qualname in shims:
                    return shims[qualname]
        return None


# ---------------------------------------------------------------------------
# RPR010 — dead metrics (the inverse of RPR002)
# ---------------------------------------------------------------------------


class DeadMetricRule(Rule):
    """RPR010: every catalog entry is recorded somewhere.

    RPR002 stops call sites using undeclared names; this is the
    inverse — a catalog entry (and its docs/METRICS.md row, and its
    dashboard panel) that no instrument call ever records into is a lie
    about what the system observes. Literal names count, and so do
    f-string templates: ``registry.counter(f"server.{name}_total")``
    covers every catalog entry matching ``server.*_total``.
    """

    id = "RPR010"
    name = "no-dead-metrics"
    summary = (
        "every metric declared in obs/catalog.py is recorded by at "
        "least one counter/gauge/histogram call site (literal or "
        "f-string template)"
    )

    def collect(self, ctx: FileContext) -> object | None:
        catalog_module = self.config.metrics_catalog.partition(":")[0]
        uses: list[str] = []
        templates: list[list[str]] = []
        entries: list[list[object]] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            first = node.args[0]
            if isinstance(func, ast.Attribute) and func.attr in (
                _INSTRUMENT_METHODS | {"declare"}
            ):
                if isinstance(first, ast.Constant) and isinstance(
                    first.value, str
                ):
                    uses.append(first.value)
                elif isinstance(first, ast.JoinedStr):
                    templates.append(list(self._template(first)))
            if ctx.module == catalog_module:
                terminal = (
                    func.attr
                    if isinstance(func, ast.Attribute)
                    else func.id
                    if isinstance(func, ast.Name)
                    else None
                )
                if (
                    terminal == "MetricSpec"
                    and isinstance(first, ast.Constant)
                    and isinstance(first.value, str)
                ):
                    entries.append([first.value, node.lineno])
        if not uses and not templates and not entries:
            return None
        return {"uses": uses, "templates": templates, "entries": entries}

    @staticmethod
    def _template(joined: ast.JoinedStr) -> tuple[str, str]:
        """(literal prefix, literal suffix) of an f-string name."""
        parts = joined.values
        prefix = ""
        for part in parts:
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                prefix += part.value
            else:
                break
        suffix = ""
        for part in reversed(parts):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                suffix = part.value + suffix
            else:
                break
        if len(prefix) + len(suffix) >= sum(
            len(part.value)
            for part in parts
            if isinstance(part, ast.Constant) and isinstance(part.value, str)
        ) and not any(
            isinstance(part, ast.FormattedValue) for part in parts
        ):
            # A JoinedStr with no formatted part is just a literal.
            return (prefix, "")
        return (prefix, suffix)

    def check_program(self, program: Program) -> list[Finding]:
        catalog_rel = None
        catalog_module = self.config.metrics_catalog.partition(":")[0]
        catalog_rel = program.rel_for_module(catalog_module)
        fragments = program.fragments(self.id)
        entries: list[tuple[str, int]] = []
        used: set[str] = set()
        templates: list[tuple[str, str]] = []
        for fragment in fragments.values():
            used.update(fragment["uses"])  # type: ignore[index]
            templates.extend(
                (str(prefix), str(suffix))
                for prefix, suffix in fragment["templates"]  # type: ignore[index]
            )
            entries.extend(
                (str(name), int(line))
                for name, line in fragment["entries"]  # type: ignore[index]
            )
        if not entries or catalog_rel is None:
            return []  # catalog not part of this run: nothing to diff
        findings: list[Finding] = []
        for name, line in entries:
            if name in used:
                continue
            if any(
                name.startswith(prefix)
                and name.endswith(suffix)
                and len(name) >= len(prefix) + len(suffix)
                for prefix, suffix in templates
            ):
                continue
            findings.append(
                Finding(
                    self.id,
                    catalog_rel,
                    line,
                    0,
                    f'metric "{name}" is declared in the catalog but no '
                    "instrument call ever records it — dead metric",
                )
            )
        return findings


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

RULES: tuple[type[Rule], ...] = (
    NoWallClockRule,
    MetricCatalogRule,
    LockDisciplineRule,
    PickleSafetyRule,
    BroadExceptRule,
    ScalarLoopRule,
    DeterminismTaintRule,
    WireContractRule,
    ResourceLifecycleRule,
    DeadMetricRule,
)

#: Every rule id the tool can emit, engine diagnostics included —
#: ``scripts/check_docs.py`` verifies docs/DEVELOPMENT.md against this.
ALL_RULE_SPECS: tuple[RuleSpec, ...] = (
    RuleSpec(
        ENGINE_RULE_ID,
        "engine-diagnostics",
        "unused `# reprolint: disable=` suppressions and unparsable files",
    ),
    *(RuleSpec(rule.id, rule.name, rule.summary) for rule in RULES),
)
