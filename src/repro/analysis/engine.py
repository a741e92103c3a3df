"""The reprolint engine: file walking, caching, suppressions, reports.

The engine is rule-agnostic and drives the two analysis passes:

* **Pass 1 (per file, cached):** each file is parsed once into a
  :class:`FileContext`; every rule contributes local findings
  (``Rule.check``) and a JSON-serializable fact fragment
  (``Rule.collect``), and the generic symbol/call facts are extracted
  (:func:`~repro.analysis.callgraph.extract_module_facts`). All of it
  is stored in a content-hash incremental cache
  (``.reprolint-cache.json``), so an unchanged file is never re-parsed.
* **Pass 2 (whole program, always fresh):** the per-file facts are
  merged into a :class:`~repro.analysis.callgraph.Program` and every
  rule's ``check_program`` runs over it — the interprocedural rules
  (taint, wire contract, resource lifecycle, dead metrics, lock-order
  cycles) live entirely in this pass, which is why caching pass 1 is
  sound: facts are a pure function of file content + config.

After both passes the engine applies ``# reprolint: disable=RPR0xx``
suppressions and reports suppressions that suppressed nothing as engine
findings (``RPR000``) — except suppressions naming a rule disabled in
``[tool.reprolint] disabled-rules``, which *cannot* fire and are left
alone so a temporarily disabled rule does not cascade into RPR000 noise.

Exit-code contract of :func:`run_analysis` callers: 0 when clean, 1
when findings remain, 2 on usage errors (see ``__main__``).
"""

from __future__ import annotations

import ast
import hashlib
import io
import json
import re
import sys
import tokenize
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .callgraph import (
    ModuleFacts,
    Program,
    extract_module_facts,
    module_name,
)

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from .rules import Rule

#: Engine-level diagnostics: unused suppressions and unparsable files.
ENGINE_RULE_ID = "RPR000"

#: Bump when the cached fact/finding format changes shape.
CACHE_VERSION = 1

#: Cache file name, created under the analysis root (gitignored).
CACHE_FILENAME = ".reprolint-cache.json"

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*disable=(?P<rules>RPR\d{3}(?:\s*,\s*RPR\d{3})*)"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a file position."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "Finding":
        return cls(
            rule=str(data["rule"]),
            path=str(data["path"]),
            line=int(data["line"]),  # type: ignore[arg-type]
            col=int(data["col"]),  # type: ignore[arg-type]
            message=str(data["message"]),
        )


#: Defaults mirrored by the ``[tool.reprolint]`` table in pyproject.toml
#: (kept in code so the linter still runs on Python 3.10 installations
#: without tomllib and on trees without a pyproject).
_DEFAULT_PATHS = ("src", "benchmarks", "scripts")
_DEFAULT_DETERMINISTIC = (
    "src/repro/models",
    "src/repro/ingest",
    "src/repro/storage/serialization.py",
)
_DEFAULT_KERNELS = ("src/repro/models", "src/repro/query/analytics.py")
_DEFAULT_CATALOG = "repro.obs.catalog:CATALOG"
_DEFAULT_RPC_TYPES = (
    "PartialResult",
    "IngestStats",
    "ModelUsage",
    "Fault",
    "FaultPlan",
    "TimeSeries",
    "TimeSeriesGroup",
    "Dimension",
    "DimensionSet",
    "Configuration",
    "Query",
    "SegmentGroup",
    "ClusterIngestReport",
    "ShardMap",
    "SegmentBatch",
    "ShardQueryReport",
    "SegmentScan",
)
#: RPR009: classes whose instances own an OS resource and must be
#: closed (directly, via ``with``, or by handing ownership onward).
_DEFAULT_RESOURCES = (
    "ModelarDB",
    "FileStorage",
    "ServerClient",
    "WorkerFleet",
    "ShardedCluster",
)
#: RPR008: the four places the wire protocol is declared.
_DEFAULT_WIRE_SERVER = "src/repro/server/server.py"
_DEFAULT_WIRE_CLIENT = "src/repro/server/client.py"
_DEFAULT_WIRE_DISPATCHER = "src/repro/server/dispatcher.py"
_DEFAULT_WIRE_DOCS = "docs/OPERATIONS.md"


@dataclass
class Config:
    """Resolved ``[tool.reprolint]`` configuration."""

    paths: tuple[str, ...] = _DEFAULT_PATHS
    deterministic_paths: tuple[str, ...] = _DEFAULT_DETERMINISTIC
    kernel_paths: tuple[str, ...] = _DEFAULT_KERNELS
    metrics_catalog: str = _DEFAULT_CATALOG
    rpc_types: tuple[str, ...] = _DEFAULT_RPC_TYPES
    resource_types: tuple[str, ...] = _DEFAULT_RESOURCES
    wire_server: str = _DEFAULT_WIRE_SERVER
    wire_client: str = _DEFAULT_WIRE_CLIENT
    wire_dispatcher: str = _DEFAULT_WIRE_DISPATCHER
    wire_docs: str = _DEFAULT_WIRE_DOCS
    #: Rule ids switched off project-wide; they neither run nor count
    #: toward the RPR000 unused-suppression audit.
    disabled_rules: tuple[str, ...] = ()

    @classmethod
    def from_pyproject(cls, root: Path) -> "Config":
        """Read the ``[tool.reprolint]`` table; defaults when absent."""
        pyproject = root / "pyproject.toml"
        if not pyproject.is_file():
            return cls()
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10: run on defaults
            return cls()
        with pyproject.open("rb") as handle:
            table = tomllib.load(handle).get("tool", {}).get("reprolint", {})
        config = cls()
        tuple_keys = {
            "paths": "paths",
            "deterministic-paths": "deterministic_paths",
            "kernel-paths": "kernel_paths",
            "rpc-types": "rpc_types",
            "resource-types": "resource_types",
            "disabled-rules": "disabled_rules",
        }
        for key, attr in tuple_keys.items():
            if key in table:
                setattr(config, attr, tuple(table[key]))
        string_keys = {
            "metrics-catalog": "metrics_catalog",
            "wire-server": "wire_server",
            "wire-client": "wire_client",
            "wire-dispatcher": "wire_dispatcher",
            "wire-docs": "wire_docs",
        }
        for key, attr in string_keys.items():
            if key in table:
                setattr(config, attr, str(table[key]))
        return config

    def digest(self) -> str:
        """Stable hash of the config, for cache invalidation."""
        payload = json.dumps(asdict(self), sort_keys=True, default=list)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class FileContext:
    """Everything a rule needs about one analyzed file."""

    def __init__(self, root: Path, path: Path, source: str) -> None:
        self.path = path
        self.rel = path.relative_to(root).as_posix()
        self.module = module_name(self.rel)
        self.source = source
        self.tree = ast.parse(source, filename=self.rel)
        #: line number -> full comment text (including the ``#``).
        self.comments: dict[int, str] = {}
        reader = io.StringIO(source).readline
        try:
            for token in tokenize.generate_tokens(reader):
                if token.type == tokenize.COMMENT:
                    self.comments[token.start[0]] = token.string
        except tokenize.TokenError:  # pragma: no cover - ast parsed already
            pass
        self._aliases: dict[str, str] | None = None

    # -- scoping -------------------------------------------------------
    def in_scope(self, prefixes: Sequence[str]) -> bool:
        """Whether this file lives under any of the path prefixes."""
        for prefix in prefixes:
            clean = prefix.rstrip("/")
            if self.rel == clean or self.rel.startswith(clean + "/"):
                return True
        return False

    # -- name resolution -----------------------------------------------
    @property
    def aliases(self) -> dict[str, str]:
        """Local name -> canonical dotted prefix, from the imports."""
        if self._aliases is None:
            aliases: dict[str, str] = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for name in node.names:
                        local = name.asname or name.name.partition(".")[0]
                        target = name.name if name.asname else local
                        aliases[local] = target
                elif isinstance(node, ast.ImportFrom) and node.module:
                    if node.level:  # relative import: outside our scope
                        continue
                    for name in node.names:
                        local = name.asname or name.name
                        aliases[local] = f"{node.module}.{name.name}"
            self._aliases = aliases
        return self._aliases

    def dotted(self, node: ast.expr) -> str | None:
        """Canonical dotted name of an expression, if it is one.

        ``np.random.default_rng`` with ``import numpy as np`` resolves
        to ``numpy.random.default_rng``; non-name expressions (calls,
        subscripts) resolve to None.
        """
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        root = self.aliases.get(current.id, current.id)
        parts.append(root)
        return ".".join(reversed(parts))


@dataclass
class Report:
    """Outcome of one analysis run."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    files_reused: int = 0  #: pass-1 results served from the cache

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict[str, object]:
        by_rule: dict[str, int] = {}
        for finding in self.findings:
            by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
        return {
            "tool": "reprolint",
            "version": 2,
            "files_checked": self.files_checked,
            "files_reused": self.files_reused,
            "findings": [finding.to_dict() for finding in self.findings],
            "counts_by_rule": dict(sorted(by_rule.items())),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)

    def to_sarif(self) -> dict[str, object]:
        """SARIF 2.1.0 log, for CI code-scanning annotation."""
        from .rules import ALL_RULE_SPECS

        rules_meta = [
            {
                "id": spec.id,
                "name": spec.name,
                "shortDescription": {"text": spec.summary},
            }
            for spec in ALL_RULE_SPECS
        ]
        results = [
            {
                "ruleId": finding.rule,
                "level": "error",
                "message": {"text": finding.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {"uri": finding.path},
                            "region": {
                                "startLine": max(finding.line, 1),
                                "startColumn": finding.col + 1,
                            },
                        }
                    }
                ],
            }
            for finding in self.findings
        ]
        return {
            "$schema": (
                "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json"
            ),
            "version": "2.1.0",
            "runs": [
                {
                    "tool": {
                        "driver": {
                            "name": "reprolint",
                            "informationUri": (
                                "https://example.invalid/repro/reprolint"
                            ),
                            "rules": rules_meta,
                        }
                    },
                    "results": results,
                }
            ],
        }

    def to_sarif_json(self) -> str:
        return json.dumps(self.to_sarif(), indent=2, sort_keys=False)

    def render(self) -> str:
        lines = [finding.render() for finding in self.findings]
        if self.findings:
            lines.append(
                f"reprolint: {len(self.findings)} finding(s) in "
                f"{self.files_checked} file(s)"
            )
        else:
            lines.append(
                f"reprolint: clean — {self.files_checked} file(s), 0 findings"
            )
        return "\n".join(lines)


def iter_python_files(root: Path, paths: Sequence[str]) -> Iterator[Path]:
    """Every ``.py`` file under the given paths, ``__pycache__`` skipped."""
    seen: set[Path] = set()
    for raw in paths:
        target = (root / raw).resolve()
        if target.is_file() and target.suffix == ".py":
            candidates: Iterable[Path] = [target]
        elif target.is_dir():
            candidates = sorted(target.rglob("*.py"))
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
        for candidate in candidates:
            if "__pycache__" in candidate.parts or candidate in seen:
                continue
            seen.add(candidate)
            yield candidate


def _suppressions(ctx: FileContext) -> dict[int, set[str]]:
    """line -> rule ids disabled on that line."""
    table: dict[int, set[str]] = {}
    for line, comment in ctx.comments.items():
        match = _SUPPRESS_RE.search(comment)
        if match is not None:
            rules = {part.strip() for part in match.group("rules").split(",")}
            table.setdefault(line, set()).update(rules)
    return table


# ---------------------------------------------------------------------------
# Incremental cache
# ---------------------------------------------------------------------------


class _Cache:
    """Content-hash cache of pass-1 results (facts + local findings).

    An entry is valid iff the file's sha256 matches; the whole cache is
    valid iff the format version, config digest, and Python minor
    version match (the AST — and therefore the facts — can change
    between minors). Pass 2 always runs fresh, so caching pass 1 never
    changes results, only skips re-parsing.
    """

    def __init__(self, path: Path, config: Config) -> None:
        self.path = path
        self.key = {
            "cache_version": CACHE_VERSION,
            "config": config.digest(),
            "python": f"{sys.version_info[0]}.{sys.version_info[1]}",
        }
        self.entries: dict[str, dict[str, object]] = {}
        self.dirty = False
        try:
            stored = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if not isinstance(stored, dict):
            return
        if {k: stored.get(k) for k in self.key} != self.key:
            return
        files = stored.get("files")
        if isinstance(files, dict):
            self.entries = files

    def get(self, rel: str, digest: str) -> dict[str, object] | None:
        entry = self.entries.get(rel)
        if entry is not None and entry.get("hash") == digest:
            return entry
        return None

    def put(self, rel: str, entry: dict[str, object]) -> None:
        if self.entries.get(rel) != entry:
            self.entries[rel] = entry
            self.dirty = True

    def prune(self, live: set[str]) -> None:
        dead = set(self.entries) - live
        for rel in dead:
            del self.entries[rel]
            self.dirty = True

    def save(self) -> None:
        if not self.dirty:
            return
        payload = {**self.key, "files": self.entries}
        try:
            self.path.write_text(
                json.dumps(payload, sort_keys=True), encoding="utf-8"
            )
        except OSError:  # read-only checkout: run uncached
            pass


# ---------------------------------------------------------------------------
# The two-pass driver
# ---------------------------------------------------------------------------


def run_analysis(
    root: Path,
    paths: Sequence[str] | None = None,
    config: Config | None = None,
    rules: Sequence["Rule"] | None = None,
    use_cache: bool | None = None,
) -> Report:
    """Analyze the tree under ``root`` and return the findings.

    ``rules`` defaults to fresh instances of every registered rule not
    named in ``config.disabled_rules``; pass a subset to run one rule
    in isolation (tests). The incremental cache is used only for
    default-rule runs (``use_cache=None``) — an explicit rule subset
    would otherwise poison entries keyed solely by file + config.
    """
    from .rules import RULES

    root = Path(root).resolve()
    config = config if config is not None else Config.from_pyproject(root)
    explicit_rules = rules is not None
    active = (
        list(rules)
        if rules is not None
        else [
            rule_type(config)
            for rule_type in RULES
            if rule_type.id not in config.disabled_rules
        ]
    )
    if use_cache is None:
        use_cache = not explicit_rules
    cache = _Cache(root / CACHE_FILENAME, config) if use_cache else None

    report = Report()
    raw_findings: list[Finding] = []
    suppression_table: dict[str, dict[int, set[str]]] = {}
    modules: dict[str, ModuleFacts] = {}
    fragments: dict[str, dict[str, object]] = {}
    live_rels: set[str] = set()

    for path in iter_python_files(root, paths or config.paths):
        rel = path.relative_to(root).as_posix()
        live_rels.add(rel)
        source_bytes = path.read_bytes()
        digest = hashlib.sha256(source_bytes).hexdigest()
        entry = cache.get(rel, digest) if cache is not None else None
        if entry is not None:
            report.files_reused += 1
            parse_error = entry.get("parse_error")
            if parse_error is not None:
                raw_findings.append(Finding.from_dict(parse_error))  # type: ignore[arg-type]
                continue
            report.files_checked += 1
            raw_findings.extend(
                Finding.from_dict(data)
                for data in entry.get("findings", ())  # type: ignore[union-attr]
            )
            suppression_table[rel] = {
                int(line): set(rule_ids)
                for line, rule_ids in dict(
                    entry.get("suppressions", {})  # type: ignore[arg-type]
                ).items()
            }
            modules[rel] = ModuleFacts.from_dict(entry["facts"])  # type: ignore[arg-type]
            for rule_id, fragment in dict(
                entry.get("fragments", {})  # type: ignore[arg-type]
            ).items():
                fragments.setdefault(rule_id, {})[rel] = fragment
            continue

        source = source_bytes.decode("utf-8")
        try:
            ctx = FileContext(root, path, source)
        except SyntaxError as error:
            finding = Finding(
                ENGINE_RULE_ID,
                rel,
                error.lineno or 1,
                (error.offset or 1) - 1,
                f"file does not parse: {error.msg}",
            )
            raw_findings.append(finding)
            if cache is not None:
                cache.put(
                    rel, {"hash": digest, "parse_error": finding.to_dict()}
                )
            continue
        report.files_checked += 1
        suppression_table[rel] = _suppressions(ctx)
        modules[rel] = extract_module_facts(ctx)
        local: list[Finding] = []
        file_fragments: dict[str, object] = {}
        for rule in active:
            local.extend(rule.check(ctx))
            fragment = rule.collect(ctx)
            if fragment is not None:
                file_fragments[rule.id] = fragment
                fragments.setdefault(rule.id, {})[rel] = fragment
        raw_findings.extend(local)
        if cache is not None:
            cache.put(
                rel,
                {
                    "hash": digest,
                    "findings": [finding.to_dict() for finding in local],
                    "suppressions": {
                        str(line): sorted(rule_ids)
                        for line, rule_ids in suppression_table[rel].items()
                    },
                    "facts": modules[rel].to_dict(),
                    "fragments": file_fragments,
                },
            )

    program = Program(root, config, modules, fragments)
    for rule in active:
        raw_findings.extend(rule.check_program(program))

    if cache is not None:
        cache.prune(live_rels)
        cache.save()

    used: set[tuple[str, int, str]] = set()
    for finding in raw_findings:
        disabled = suppression_table.get(finding.path, {}).get(
            finding.line, set()
        )
        if finding.rule in disabled:
            used.add((finding.path, finding.line, finding.rule))
        else:
            report.findings.append(finding)
    for rel, table in suppression_table.items():
        for line, rule_ids in sorted(table.items()):
            for rule_id in sorted(rule_ids):
                if rule_id in config.disabled_rules:
                    # The rule cannot fire, so its suppressions are not
                    # evidence of a stale comment.
                    continue
                if (rel, line, rule_id) not in used:
                    report.findings.append(
                        Finding(
                            ENGINE_RULE_ID,
                            rel,
                            line,
                            0,
                            f"unused suppression: no {rule_id} finding on "
                            "this line — remove the disable comment",
                        )
                    )
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report
