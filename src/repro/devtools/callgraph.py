"""Project-wide import/call-graph builder with an on-disk summary cache.

The ``--deep`` lint mode (:mod:`repro.devtools.taint`,
:mod:`repro.devtools.reachability`) needs a *whole-program* view: which
functions are transitively callable from the pool-worker entry point, and
which ``SimConfig``/``RunSpec`` attribute reads are reachable from the
simulation execution seams.  The per-file rules cannot answer either
question, so this module builds the view in two stages:

1. **Extraction** — each parsed file is reduced to a
   :class:`ModuleSummary`: its functions (with resolved call targets,
   config-attribute reads, ``global`` writes, nondeterministic calls,
   container mutations and payload elisions), classes (methods + fields),
   module-level mutable containers, dispatch tables, fingerprint functions,
   and the ``FINGERPRINT_ELISIONS`` allowlist entries it declares.
   Summaries are plain JSON-serialisable data, independent of the AST they
   came from.

2. **Linking** — :class:`CallGraph` stitches the summaries together:
   import aliases (including package re-exports such as
   ``repro.policies.MHPEPolicy`` -> ``repro.policies.mhpe.MHPEPolicy``) are
   followed transitively, instantiations resolve to ``__init__`` /
   ``__post_init__``, and :meth:`CallGraph.reachable_from` computes
   transitive closures by BFS.

Call resolution is deliberately best-effort (see DESIGN.md "Call-graph
resolution"): precise for direct calls, imports, ``self.method()``,
``Cls(...).method()`` and annotated/locally-constructed receivers; the
known dynamic seams are over-approximated — a call through a module-level
dispatch table (``_POLICY_BUILDERS[name]()``) fans out to every callable
the table references, and an unresolvable ``x.method()`` fans out to every
*simulation-package* class method of that name (harness classes are only
reached through precise edges, so the over-approximation cannot drag the
whole harness into worker scope).

Because extraction is the expensive part (a full typed walk per file), the
summaries are cached on disk (:class:`SummaryCache`) keyed by the SHA-256
of each file's source: a warm cache means the deep pass re-extracts nothing
for unchanged files.  The cache stores data only — stale entries are simply
recomputed, so the file can be deleted (or persisted across CI runs via
``actions/cache``) at will.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .boundary import is_simulation_module
from .determinism import _SEEDED_NUMPY_CTORS, _SEEDED_RANDOM_CTORS, _WALLCLOCK_CALLS
from .rules import FileContext

__all__ = [
    "SUMMARY_VERSION",
    "ATTR_CALL_PREFIX",
    "TABLE_PREFIX",
    "REGISTRY_PREFIX",
    "ConfigRead",
    "SiteList",
    "FunctionSummary",
    "ClassSummary",
    "ElisionEntry",
    "FingerprintInfo",
    "ModuleSummary",
    "extract_module_summary",
    "SummaryCache",
    "CallGraph",
]

#: Bumped whenever the summary shape or the extraction changes; cache
#: entries written by a different version are ignored (recomputed), never
#: migrated.
SUMMARY_VERSION = 3

#: Call-target marker for an unresolved method invocation (``x.foo()`` with
#: unknown receiver type): resolved at link time via the method-name index.
ATTR_CALL_PREFIX = "attr:"

#: Call-target marker for a subscripted call through a module-level dispatch
#: table (``_POLICY_BUILDERS[name]()``): fans out to the table's referents.
TABLE_PREFIX = "table:"

#: Call-target marker for a component-registry build
#: (``repro.registry.build("policy", name)``): fans out to every builder
#: registered for that kind anywhere in the batch (``registry:policy``), or
#: to every registered builder of any kind when the kind argument is not a
#: string literal (``registry:*``).  This is the seam that keeps plugin
#: builders — registered at import time, dispatched by name at run time —
#: inside the worker/simulation closures.
REGISTRY_PREFIX = "registry:"

#: The registry mutators whose *module-level* calls populate
#: :attr:`ModuleSummary.registrations`, and the builder facades whose call
#: sites emit ``registry:<kind>`` markers.
_REGISTRY_REGISTER_FUNCS: FrozenSet[str] = frozenset(
    {"repro.registry.register", "repro.registry.Registry.add"}
)
_REGISTRY_TABLE_FUNCS: FrozenSet[str] = frozenset(
    {"repro.registry.register_table"}
)
_REGISTRY_BUILD_FUNCS: FrozenSet[str] = frozenset(
    {"repro.registry.build", "repro.registry.Registry.build"}
)

# Receiver-name heuristics for untyped config/spec parameters.  Only used
# when no annotation is available; taint rules treat heuristic-based reads
# as lower-confidence (they gate REPRO501 on field-name membership and
# never raise REPRO503 from them).
_CONFIG_NAME_HINTS: Dict[str, str] = {
    "config": "SimConfig",
    "cfg": "SimConfig",
    "sim_config": "SimConfig",
    "simconfig": "SimConfig",
    "spec": "RunSpec",
    "run_spec": "RunSpec",
    "runspec": "RunSpec",
}

# Methods that mutate their receiver in place: a reachable call on a
# module-level container is shared-state mutation (REPRO602).
_MUTATOR_METHODS: FrozenSet[str] = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "update",
        "__setitem__",
    }
)

# Constructors whose module-level result is a mutable container.
_CONTAINER_CTORS: FrozenSet[str] = frozenset(
    {
        "dict",
        "list",
        "set",
        "collections.defaultdict",
        "collections.OrderedDict",
        "collections.Counter",
        "collections.deque",
    }
)

_ENV_READS: FrozenSet[str] = frozenset(
    {"os.getenv", "os.environ.get", "os.environ"}
)

_FINGERPRINT_RE = "fingerprint|cache_key"


# ---------------------------------------------------------------------------
# Summary data model (all JSON-serialisable; tuples become lists on disk, so
# everything is stored as lists from the start to keep warm and cold runs
# byte-identical).
# ---------------------------------------------------------------------------

#: ``[hint_class, field, line, col, from_annotation]``
ConfigRead = List[Any]

#: ``[label, line, col]`` — a named site inside a function body.
SiteList = List[Any]


@dataclass
class FunctionSummary:
    """One function (or method), reduced to what the deep rules consume."""

    name: str  # qualified within the module: "f" or "Cls.f"
    line: int
    calls: List[str] = dataclass_field(default_factory=list)
    config_reads: List[ConfigRead] = dataclass_field(default_factory=list)
    global_writes: List[SiteList] = dataclass_field(default_factory=list)
    nondet_calls: List[SiteList] = dataclass_field(default_factory=list)
    container_writes: List[SiteList] = dataclass_field(default_factory=list)
    elisions: List[SiteList] = dataclass_field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "line": self.line,
            "calls": self.calls,
            "config_reads": self.config_reads,
            "global_writes": self.global_writes,
            "nondet_calls": self.nondet_calls,
            "container_writes": self.container_writes,
            "elisions": self.elisions,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FunctionSummary":
        return cls(
            name=payload["name"],
            line=payload["line"],
            calls=list(payload["calls"]),
            config_reads=[list(r) for r in payload["config_reads"]],
            global_writes=[list(r) for r in payload["global_writes"]],
            nondet_calls=[list(r) for r in payload["nondet_calls"]],
            container_writes=[list(r) for r in payload["container_writes"]],
            elisions=[list(r) for r in payload["elisions"]],
        )


@dataclass
class ClassSummary:
    """A class definition: enough to answer attribute/method lookups."""

    name: str
    line: int
    bases: List[str] = dataclass_field(default_factory=list)
    methods: List[str] = dataclass_field(default_factory=list)
    fields: List[str] = dataclass_field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "line": self.line,
            "bases": self.bases,
            "methods": self.methods,
            "fields": self.fields,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ClassSummary":
        return cls(
            name=payload["name"],
            line=payload["line"],
            bases=list(payload["bases"]),
            methods=list(payload["methods"]),
            fields=list(payload["fields"]),
        )


#: ``[dataclass_name, field, reason, line, col]`` — one parsed
#: ``FingerprintElision(...)`` entry from a ``FINGERPRINT_ELISIONS`` table.
ElisionEntry = List[Any]

#: ``[function_name, param_class, whole_object, fields_read, line]`` — one
#: fingerprint function and what it covers of its annotated parameter.
FingerprintInfo = List[Any]


@dataclass
class ModuleSummary:
    """Everything the deep pass needs to know about one file."""

    module: str
    path: str  # display path (repo-relative when under the project root)
    functions: List[FunctionSummary] = dataclass_field(default_factory=list)
    classes: List[ClassSummary] = dataclass_field(default_factory=list)
    imports: Dict[str, str] = dataclass_field(default_factory=dict)
    containers: List[SiteList] = dataclass_field(default_factory=list)
    tables: Dict[str, List[str]] = dataclass_field(default_factory=dict)
    elision_entries: List[ElisionEntry] = dataclass_field(default_factory=list)
    fingerprints: List[FingerprintInfo] = dataclass_field(default_factory=list)
    #: Component-registry kind -> builder referents registered by this
    #: module's import-time ``register(...)`` / ``register_table(...)``
    #: calls (referents use the same grammar as ``tables`` entries, so
    #: ``table:`` markers compose).
    registrations: Dict[str, List[str]] = dataclass_field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "module": self.module,
            "path": self.path,
            "functions": [f.to_dict() for f in self.functions],
            "classes": [c.to_dict() for c in self.classes],
            "imports": self.imports,
            "containers": self.containers,
            "tables": self.tables,
            "elision_entries": self.elision_entries,
            "fingerprints": self.fingerprints,
            "registrations": self.registrations,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ModuleSummary":
        return cls(
            module=payload["module"],
            path=payload["path"],
            functions=[
                FunctionSummary.from_dict(f) for f in payload["functions"]
            ],
            classes=[ClassSummary.from_dict(c) for c in payload["classes"]],
            imports=dict(payload["imports"]),
            containers=[list(c) for c in payload["containers"]],
            tables={k: list(v) for k, v in payload["tables"].items()},
            elision_entries=[list(e) for e in payload["elision_entries"]],
            fingerprints=[list(f) for f in payload["fingerprints"]],
            registrations={
                k: list(v) for k, v in payload["registrations"].items()
            },
        )


# ---------------------------------------------------------------------------
# Import resolution (handles relative imports, which rules.ImportMap skips
# on purpose: per-file rules only need absolute stdlib names).
# ---------------------------------------------------------------------------


class _ImportTable:
    """Local name -> fully qualified dotted target, for one module."""

    def __init__(self, module: str, is_package: bool, tree: ast.Module) -> None:
        self.names: Dict[str, str] = {}
        parts = module.split(".")
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.names[local] = target
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0:
                    base = node.module or ""
                else:
                    # ``from ..x import y`` in package ``a.b.c`` resolves
                    # against a.b (level 1 from a module strips the module
                    # name itself; packages resolve level 1 to themselves).
                    anchor = parts if is_package else parts[:-1]
                    cut = len(anchor) - (node.level - 1)
                    if cut < 0:
                        continue
                    prefix = anchor[:cut]
                    base = ".".join(prefix + ([node.module] if node.module else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.names[local] = (
                        base + "." + alias.name if base else alias.name
                    )

    def resolve(self, dotted: str) -> str:
        head, _, rest = dotted.partition(".")
        if head in self.names:
            resolved = self.names[head]
            return resolved + "." + rest if rest else resolved
        return dotted


def _dotted(expr: ast.expr) -> Optional[str]:
    parts: List[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _annotation_class(node: Optional[ast.expr]) -> Optional[str]:
    """Best-effort class name from an annotation (unwraps Optional/str)."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip().strip("'\"")
        return text.split("[")[0].split(".")[-1] or None
    if isinstance(node, ast.Subscript):
        # Optional[X] / Final[X] / "X | None" style wrappers.
        inner = node.slice
        if isinstance(inner, ast.Tuple):
            for element in inner.elts:
                name = _annotation_class(element)
                if name is not None and name != "None":
                    return name
            return None
        return _annotation_class(inner)
    if isinstance(node, ast.BinOp):  # X | None (py310 syntax in source)
        left = _annotation_class(node.left)
        if left is not None and left != "None":
            return left
        return _annotation_class(node.right)
    name = _dotted(node)
    if name is None:
        return None
    tail = name.split(".")[-1]
    return tail if tail not in {"None", "Optional", "Final"} else None


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def _is_mutable_literal(node: ast.expr, imports: _ImportTable) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        target = _dotted(node.func)
        if target is not None and imports.resolve(target) in _CONTAINER_CTORS:
            return True
    return False


def _table_referents(node: ast.expr, imports: _ImportTable, module: str, local_defs: Set[str]) -> List[str]:
    """Callables referenced by a dispatch-table literal (incl. inside lambdas)."""
    refs: List[str] = []
    for sub in ast.walk(node):
        target: Optional[str] = None
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            target = sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            target = _dotted(sub)
        if target is None:
            continue
        head = target.split(".")[0]
        if head in local_defs:
            refs.append(module + "." + target)
        elif head in imports.names:
            refs.append(imports.resolve(target))
    # Deterministic, deduplicated.
    return sorted(set(refs))


def _registry_call_kind(node: ast.Call) -> str:
    """Literal ``kind`` argument of a registry call, or ``"*"`` (unknown
    kind — conservatively fans out to every registered builder)."""
    kind_arg: Optional[ast.expr] = node.args[0] if node.args else None
    for kw in node.keywords:
        if kw.arg == "kind":
            kind_arg = kw.value
    if isinstance(kind_arg, ast.Constant) and isinstance(kind_arg.value, str):
        return kind_arg.value
    return "*"


def _registration_referents(
    call: ast.Call,
    resolved: str,
    imports: _ImportTable,
    module: str,
    local_defs: Set[str],
) -> List[str]:
    """Builder referents contributed by one import-time registration call."""
    if resolved in _REGISTRY_TABLE_FUNCS:
        table_arg: Optional[ast.expr] = (
            call.args[1] if len(call.args) > 1 else None
        )
        for kw in call.keywords:
            if kw.arg == "table":
                table_arg = kw.value
        if table_arg is None:
            return []
        if isinstance(table_arg, ast.Name):
            # Module-level table name: defer to the table seam so the
            # referent list stays in one place (summary.tables).
            return [TABLE_PREFIX + module + "." + table_arg.id]
        return _table_referents(table_arg, imports, module, local_defs)
    builder_arg: Optional[ast.expr] = (
        call.args[2] if len(call.args) > 2 else None
    )
    for kw in call.keywords:
        if kw.arg == "builder":
            builder_arg = kw.value
    if builder_arg is None:
        return []
    return _table_referents(builder_arg, imports, module, local_defs)


class _FunctionWalker:
    """Extracts one top-level function/method (nested defs included)."""

    def __init__(
        self,
        summary: FunctionSummary,
        imports: _ImportTable,
        module: str,
        local_defs: Set[str],
        local_classes: Set[str],
        module_containers: Set[str],
        module_tables: Set[str],
        self_attr_types: Dict[str, str],
        own_class: Optional[str],
    ) -> None:
        self.summary = summary
        self.imports = imports
        self.module = module
        self.local_defs = local_defs
        self.local_classes = local_classes
        self.module_containers = module_containers
        self.module_tables = module_tables
        self.self_attr_types = self_attr_types
        self.own_class = own_class
        self.param_types: Dict[str, str] = {}
        self.heuristic_types: Dict[str, str] = {}
        self.local_names: Set[str] = set()
        self.local_tables: Dict[str, List[str]] = {}
        self.global_names: Set[str] = set()

    # -- setup ----------------------------------------------------------

    def collect_params(self, fn: ast.FunctionDef) -> None:
        args = fn.args
        every = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        if args.vararg:
            every.append(args.vararg)
        if args.kwarg:
            every.append(args.kwarg)
        for arg in every:
            self.local_names.add(arg.arg)
            hint = _annotation_class(arg.annotation)
            if hint is not None:
                self.param_types[arg.arg] = hint
            elif arg.arg in _CONFIG_NAME_HINTS:
                self.heuristic_types[arg.arg] = _CONFIG_NAME_HINTS[arg.arg]

    # -- helpers --------------------------------------------------------

    def _bind_target_names(self, target: ast.expr) -> None:
        """Names *bound* by an assignment target.

        ``x = ...`` and ``x, y = ...`` bind locals; ``D[k] = ...`` and
        ``obj.attr = ...`` do NOT bind ``D``/``obj`` — treating them as
        locals would hide module-container mutations (REPRO602).
        """
        if isinstance(target, ast.Name):
            self.local_names.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target_names(element)
        elif isinstance(target, ast.Starred):
            self._bind_target_names(target.value)

    def _resolve_callable(self, target: str) -> str:
        head = target.split(".")[0]
        if head in self.local_names and head not in self.local_defs:
            return ""  # shadowed by a local binding; unresolvable
        if head in self.local_defs:
            return self.module + "." + target
        return self.imports.resolve(target)

    def _add_call(self, target: str) -> None:
        if target and target not in self.summary.calls:
            self.summary.calls.append(target)

    def _receiver_hint(self, name: str) -> Tuple[Optional[str], bool]:
        """(class hint, from_annotation) for a Name receiver."""
        if name in self.param_types:
            return self.param_types[name], True
        if name in self.heuristic_types:
            return self.heuristic_types[name], False
        return None, False

    def _record_nondet(self, target: str, node: ast.AST) -> None:
        self.summary.nondet_calls.append(
            [target, node.lineno, node.col_offset]
        )

    def _check_nondet(self, resolved: str, node: ast.AST) -> None:
        if resolved in _WALLCLOCK_CALLS or resolved in _ENV_READS:
            self._record_nondet(resolved, node)
            return
        for prefix, ctors in (
            ("random.", _SEEDED_RANDOM_CTORS),
            ("numpy.random.", _SEEDED_NUMPY_CTORS),
        ):
            if resolved.startswith(prefix) and resolved not in ctors:
                self._record_nondet(resolved, node)
                return

    def _check_registry_build(self, resolved: str, node: ast.Call) -> None:
        """Registry-dispatch seam: ``build("policy", name)`` reaches every
        registered policy builder.  A literal kind narrows the fanout; a
        computed kind conservatively fans out to every registered builder
        (``registry:*``)."""
        if resolved not in _REGISTRY_BUILD_FUNCS:
            return
        self._add_call(REGISTRY_PREFIX + _registry_call_kind(node))

    # -- walk -----------------------------------------------------------

    def walk(self, fn: ast.FunctionDef) -> None:
        self.collect_params(fn)
        # First pass: locally bound names (assignments, loops, withs) so we
        # can tell module-level containers apart from same-named locals.
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                self.global_names.update(node.names)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    self._bind_target_names(target)
            elif isinstance(node, ast.For):
                self._bind_target_names(node.target)
            elif isinstance(node, ast.withitem) and node.optional_vars:
                self._bind_target_names(node.optional_vars)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node is not fn:
                    self.local_names.add(node.name)
        self.local_names -= self.global_names
        # Locally constructed receivers: x = Cls(...) types x as Cls.
        local_ctor_types: Dict[str, str] = {}
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
            ):
                target = _dotted(node.value.func)
                if target is not None:
                    resolved = self._resolve_callable(target)
                    if resolved:
                        local_ctor_types[node.targets[0].id] = resolved
            # Local dispatch-table merge: regenerators = {**_FIGURES, ...}.
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Dict)
            ):
                merged: List[str] = []
                for key, value in zip(node.value.keys, node.value.values):
                    if key is None and isinstance(value, ast.Name):
                        if value.id in self.module_tables:
                            merged.append(
                                TABLE_PREFIX + self.module + "." + value.id
                            )
                if merged:
                    self.local_tables[node.targets[0].id] = merged

        for node in ast.walk(fn):
            self._visit(node, local_ctor_types)

    def _visit(self, node: ast.AST, local_ctor_types: Dict[str, str]) -> None:
        if isinstance(node, ast.Call):
            self._visit_call(node, local_ctor_types)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            self._visit_attribute(node)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            self._visit_store(node)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                self._visit_delete(target)

    def _visit_callback(self, arg: ast.expr) -> None:
        """Callback references passed as arguments keep the seam closed
        (pool.submit(_pool_entry, ...), table values, progress hooks, and
        bound methods such as ``events.schedule(t, self._run)``, also as
        either branch of a conditional expression)."""
        if isinstance(arg, ast.IfExp):
            self._visit_callback(arg.body)
            self._visit_callback(arg.orelse)
            return
        if (
            isinstance(arg, ast.Attribute)
            and isinstance(arg.value, ast.Name)
            and arg.value.id == "self"
            and self.own_class is not None
        ):
            # The same edge a ``self.<name>()`` call records.
            self._add_call(self.module + "." + self.own_class + "." + arg.attr)
            return
        target = _dotted(arg) if isinstance(arg, (ast.Name, ast.Attribute)) else None
        if target is not None:
            head = target.split(".")[0]
            if head in self.local_defs or head in self.imports.names:
                resolved = self._resolve_callable(target)
                if resolved and "." in resolved:
                    self._add_call(resolved)

    def _visit_call(self, node: ast.Call, local_ctor_types: Dict[str, str]) -> None:
        func = node.func
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            self._visit_callback(arg)

        if isinstance(func, ast.Name):
            resolved = self._resolve_callable(func.id)
            if resolved:
                self._add_call(resolved)
                self._check_nondet(resolved, node)
                self._check_registry_build(resolved, node)
            return
        if isinstance(func, ast.Attribute):
            receiver = func.value
            # Chained constructor: Cls(...).method()
            if isinstance(receiver, ast.Call):
                inner = _dotted(receiver.func)
                if inner is not None:
                    resolved = self._resolve_callable(inner)
                    if resolved:
                        self._add_call(resolved + "." + func.attr)
                        return
            if isinstance(receiver, ast.Name):
                name = receiver.id
                if name == "self" and self.own_class is not None:
                    self._add_call(
                        self.module + "." + self.own_class + "." + func.attr
                    )
                    return
                if name in local_ctor_types:
                    self._add_call(local_ctor_types[name] + "." + func.attr)
                    return
                # Module-level dispatch-table call: TABLE[key]() is handled
                # under Subscript below; direct module.attr() calls:
                dotted = _dotted(func)
                if dotted is not None and name in self.imports.names:
                    resolved = self.imports.resolve(dotted)
                    self._add_call(resolved)
                    self._check_nondet(resolved, node)
                    self._check_registry_build(resolved, node)
                    return
                # Mutation of a module-level container via method call.
                if (
                    name in self.module_containers
                    and name not in self.local_names
                    and func.attr in _MUTATOR_METHODS
                ):
                    self.summary.container_writes.append(
                        [name, node.lineno, node.col_offset]
                    )
                # dict.pop("field") on a payload: candidate hash elision.
                if (
                    func.attr == "pop"
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                ):
                    self.summary.elisions.append(
                        [node.args[0].value, node.lineno, node.col_offset]
                    )
                hint, _ = self._receiver_hint(name)
                if hint is not None:
                    # Method call on a config-typed receiver: record as a
                    # read so properties/methods count as known attributes.
                    self.summary.config_reads.append(
                        [hint, func.attr, node.lineno, node.col_offset, False]
                    )
                    return
                self._add_call(ATTR_CALL_PREFIX + func.attr)
                return
            # Unknown receiver expression.
            self._add_call(ATTR_CALL_PREFIX + func.attr)
            return
        if isinstance(func, ast.Subscript):
            base = func.value
            if isinstance(base, ast.Name):
                if base.id in self.module_tables and base.id not in self.local_names:
                    self._add_call(TABLE_PREFIX + self.module + "." + base.id)
                elif base.id in self.local_tables:
                    for entry in self.local_tables[base.id]:
                        self._add_call(entry)

    def _visit_attribute(self, node: ast.Attribute) -> None:
        # Skip the function part of calls — handled in _visit_call.
        receiver = node.value
        if isinstance(receiver, ast.Name):
            if receiver.id == "self":
                hinted = self.self_attr_types.get(node.attr)
                # self.config / self.spec roots handled one level up (the
                # outer Attribute sees value=Attribute(self, 'config')).
                _ = hinted
                return
            dotted = _dotted(node)
            if dotted is not None:
                full = self.imports.resolve(dotted)
                if full in _ENV_READS:
                    self._record_nondet(full, node)
                    return
            hint, annotated = self._receiver_hint(receiver.id)
            if hint is not None and receiver.id not in self.local_names - set(self.param_types) - set(self.heuristic_types):
                self.summary.config_reads.append(
                    [hint, node.attr, node.lineno, node.col_offset, annotated]
                )
            return
        if isinstance(receiver, ast.Attribute) and isinstance(receiver.value, ast.Name):
            if receiver.value.id == "self":
                attr_name = receiver.attr
                hint = self.self_attr_types.get(attr_name)
                annotated = hint is not None
                if hint is None and attr_name in _CONFIG_NAME_HINTS:
                    hint = _CONFIG_NAME_HINTS[attr_name]
                if hint is not None:
                    self.summary.config_reads.append(
                        [hint, node.attr, node.lineno, node.col_offset, annotated]
                    )

    def _visit_store(self, node: ast.stmt) -> None:
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]  # type: ignore[attr-defined]
        )
        for target in targets:
            # global-declared rebind (the REPRO301/601 shape).
            if isinstance(target, ast.Name) and target.id in self.global_names:
                self.summary.global_writes.append(
                    [target.id, node.lineno, node.col_offset]
                )
            # Subscript store on a module-level container.
            if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
                name = target.value.id
                if name in self.module_containers and name not in self.local_names:
                    self.summary.container_writes.append(
                        [name, node.lineno, node.col_offset]
                    )

    def _visit_delete(self, target: ast.expr) -> None:
        if isinstance(target, ast.Subscript):
            if (
                isinstance(target.slice, ast.Constant)
                and isinstance(target.slice.value, str)
            ):
                self.summary.elisions.append(
                    [target.slice.value, target.lineno, target.col_offset]
                )
            if isinstance(target.value, ast.Name):
                name = target.value.id
                if name in self.module_containers and name not in self.local_names:
                    self.summary.container_writes.append(
                        [name, target.lineno, target.col_offset]
                    )


def _self_attr_types(cls: ast.ClassDef) -> Dict[str, str]:
    """``self.<attr>`` -> class name, from ``__init__`` param annotations."""
    types: Dict[str, str] = {}
    for stmt in cls.body:
        if not (isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"):
            continue
        params: Dict[str, str] = {}
        for arg in stmt.args.posonlyargs + stmt.args.args + stmt.args.kwonlyargs:
            hint = _annotation_class(arg.annotation)
            if hint is not None:
                params[arg.arg] = hint
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Attribute)
                and isinstance(node.targets[0].value, ast.Name)
                and node.targets[0].value.id == "self"
                and isinstance(node.value, ast.Name)
                and node.value.id in params
            ):
                types[node.targets[0].attr] = params[node.value.id]
    return types


def _fingerprint_coverage(
    fn: ast.FunctionDef, imports: _ImportTable
) -> Optional[FingerprintInfo]:
    """Fingerprint functions: which annotated param class they cover, how."""
    import re

    if not re.search(_FINGERPRINT_RE, fn.name, re.IGNORECASE):
        return None
    param_name: Optional[str] = None
    param_class: Optional[str] = None
    for arg in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs:
        hint = _annotation_class(arg.annotation)
        if hint is not None:
            param_name = arg.arg
            param_class = hint
            break
    if param_name is None or param_class is None:
        return None
    aliases = {param_name}
    # effective = spec / effective = config if ... else SimConfig() /
    # payload = asdict(spec): follow alias hops through names, or-defaults
    # and ternary-defaults.
    whole = False
    fields_read: Set[str] = set()

    def _names_in_value(value: ast.expr) -> List[str]:
        if isinstance(value, ast.Name):
            return [value.id]
        if isinstance(value, ast.BoolOp):  # config or SimConfig()
            return [v.id for v in value.values if isinstance(v, ast.Name)]
        if isinstance(value, ast.IfExp):  # config if ... else SimConfig()
            return _names_in_value(value.body) + _names_in_value(value.orelse)
        return []

    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            if any(n in aliases for n in _names_in_value(node.value)):
                aliases.add(node.targets[0].id)
    _NEUTRAL = {"repr", "str", "isinstance", "id", "type", "len", "print"}
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            target = _dotted(node.func)
            resolved = imports.resolve(target) if target else None
            for arg in node.args:
                if isinstance(arg, ast.Name) and arg.id in aliases:
                    if resolved in {"dataclasses.asdict", "asdict", "vars"}:
                        whole = True
                    elif resolved is not None and resolved not in _NEUTRAL:
                        # Delegation to a helper; treat as whole-object
                        # (the helper's elisions are collected through the
                        # fingerprint closure).
                        whole = True
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                fields_read.add(node.attr)
    return [fn.name, param_class, whole, sorted(fields_read), fn.lineno]


def _parse_elision_entries(value: ast.expr) -> List[ElisionEntry]:
    entries: List[ElisionEntry] = []
    elements: List[ast.expr] = []
    if isinstance(value, (ast.Tuple, ast.List)):
        elements = list(value.elts)
    for element in elements:
        if not isinstance(element, ast.Call):
            continue
        args: List[Optional[str]] = []
        for arg in element.args:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                args.append(arg.value)
            else:
                args.append(None)
        kwargs: Dict[str, str] = {}
        for kw in element.keywords:
            if (
                kw.arg is not None
                and isinstance(kw.value, ast.Constant)
                and isinstance(kw.value.value, str)
            ):
                kwargs[kw.arg] = kw.value.value
        dataclass_name = kwargs.get(
            "dataclass_name", args[0] if len(args) > 0 else None
        )
        field_name = kwargs.get("field", args[1] if len(args) > 1 else None)
        reason = kwargs.get("reason", args[2] if len(args) > 2 else None)
        entries.append(
            [
                dataclass_name or "",
                field_name or "",
                reason or "",
                element.lineno,
                element.col_offset,
            ]
        )
    return entries


def extract_module_summary(ctx: FileContext) -> ModuleSummary:
    """Reduce one parsed file to its :class:`ModuleSummary`."""
    is_package = ctx.path.name == "__init__.py"
    imports = _ImportTable(ctx.module, is_package, ctx.tree)
    summary = ModuleSummary(
        module=ctx.module, path=ctx.display_path, imports=dict(imports.names)
    )

    local_defs: Set[str] = set()
    local_classes: Set[str] = set()
    for stmt in ctx.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local_defs.add(stmt.name)
        elif isinstance(stmt, ast.ClassDef):
            local_defs.add(stmt.name)
            local_classes.add(stmt.name)

    # Module-level containers and dispatch tables.
    module_containers: Set[str] = set()
    module_tables: Set[str] = set()
    for stmt in ctx.tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if target.id == "FINGERPRINT_ELISIONS":
                summary.elision_entries.extend(
                    _parse_elision_entries(stmt.value)
                )
            if _is_mutable_literal(stmt.value, imports):
                module_containers.add(target.id)
                summary.containers.append(
                    [target.id, stmt.lineno, stmt.col_offset]
                )
                refs = _table_referents(
                    stmt.value, imports, ctx.module, local_defs
                )
                if refs:
                    summary.tables[target.id] = refs
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if stmt.value is not None:
                if stmt.target.id == "FINGERPRINT_ELISIONS":
                    summary.elision_entries.extend(
                        _parse_elision_entries(stmt.value)
                    )
                if _is_mutable_literal(stmt.value, imports):
                    module_containers.add(stmt.target.id)
                    summary.containers.append(
                        [stmt.target.id, stmt.lineno, stmt.col_offset]
                    )
                    refs = _table_referents(
                        stmt.value, imports, ctx.module, local_defs
                    )
                    if refs:
                        summary.tables[stmt.target.id] = refs

    # Import-time component registrations (the ``registry:`` seam):
    # module-level ``register(...)`` / ``register_table(...)`` statements
    # contribute their builders to the kind's fanout set, so a later
    # ``build("policy", name)`` call site reaches every registered builder.
    for stmt in ctx.tree.body:
        if isinstance(stmt, ast.Expr):
            maybe_call: Optional[ast.expr] = stmt.value
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            maybe_call = stmt.value
        else:
            continue
        if not isinstance(maybe_call, ast.Call):
            continue
        dotted = _dotted(maybe_call.func)
        if dotted is None:
            continue
        head = dotted.split(".")[0]
        if head in local_defs:
            resolved = ctx.module + "." + dotted
        else:
            resolved = imports.resolve(dotted)
        if (
            resolved not in _REGISTRY_REGISTER_FUNCS
            and resolved not in _REGISTRY_TABLE_FUNCS
        ):
            continue
        refs = _registration_referents(
            maybe_call, resolved, imports, ctx.module, local_defs
        )
        if refs:
            kind = _registry_call_kind(maybe_call)
            merged = set(summary.registrations.get(kind, [])) | set(refs)
            summary.registrations[kind] = sorted(merged)

    def extract_function(
        fn: ast.FunctionDef,
        qualname: str,
        own_class: Optional[str],
        self_types: Dict[str, str],
    ) -> None:
        fn_summary = FunctionSummary(name=qualname, line=fn.lineno)
        walker = _FunctionWalker(
            fn_summary,
            imports,
            ctx.module,
            local_defs,
            local_classes,
            module_containers,
            module_tables | set(summary.tables),
            self_types,
            own_class,
        )
        walker.walk(fn)
        summary.functions.append(fn_summary)
        info = _fingerprint_coverage(fn, imports)
        if info is not None and own_class is None:
            summary.fingerprints.append(info)

    for stmt in ctx.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            extract_function(stmt, stmt.name, None, {})  # type: ignore[arg-type]
        elif isinstance(stmt, ast.ClassDef):
            bases: List[str] = []
            for base in stmt.bases:
                dotted = _dotted(base)
                if dotted is not None:
                    head = dotted.split(".")[0]
                    if head in local_classes:
                        bases.append(ctx.module + "." + dotted)
                    else:
                        bases.append(imports.resolve(dotted))
            methods: List[str] = []
            fields: List[str] = []
            for member in stmt.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.append(member.name)
                elif isinstance(member, ast.AnnAssign) and isinstance(
                    member.target, ast.Name
                ):
                    fields.append(member.target.id)
                elif isinstance(member, ast.Assign):
                    for target in member.targets:
                        if isinstance(target, ast.Name):
                            fields.append(target.id)
            summary.classes.append(
                ClassSummary(
                    name=stmt.name,
                    line=stmt.lineno,
                    bases=bases,
                    methods=methods,
                    fields=fields,
                )
            )
            self_types = _self_attr_types(stmt)
            for member in stmt.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    extract_function(
                        member,  # type: ignore[arg-type]
                        stmt.name + "." + member.name,
                        stmt.name,
                        self_types,
                    )
    return summary


# ---------------------------------------------------------------------------
# On-disk summary cache
# ---------------------------------------------------------------------------


def source_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


class SummaryCache:
    """Content-addressed store of :class:`ModuleSummary` JSON payloads.

    Keyed by display path; an entry is valid only when its recorded source
    digest matches the file's current content, so edits invalidate exactly
    the touched files.  The store is advisory: any read error or version
    mismatch degrades to re-extraction.
    """

    def __init__(self, path: Optional[Path]) -> None:
        self.path = path
        self.entries: Dict[str, Dict[str, Any]] = {}
        self.hits = 0
        self.misses = 0
        if path is not None:
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                payload = None
            if (
                isinstance(payload, dict)
                and payload.get("version") == SUMMARY_VERSION
                and isinstance(payload.get("entries"), dict)
            ):
                self.entries = payload["entries"]

    def lookup(self, display_path: str, digest: str) -> Optional[ModuleSummary]:
        entry = self.entries.get(display_path)
        if entry is None or entry.get("sha256") != digest:
            return None
        try:
            return ModuleSummary.from_dict(entry["summary"])
        except (KeyError, TypeError, ValueError):
            return None

    def store(self, display_path: str, digest: str, summary: ModuleSummary) -> None:
        self.entries[display_path] = {
            "sha256": digest,
            "summary": summary.to_dict(),
        }

    def save(self, keep: Iterable[str]) -> None:
        """Persist entries for ``keep`` paths (prunes files gone from the batch)."""
        if self.path is None:
            return
        kept = {k: self.entries[k] for k in keep if k in self.entries}
        payload = {"version": SUMMARY_VERSION, "entries": kept}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        handle, tmp_name = tempfile.mkstemp(
            dir=str(self.path.parent), suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(tmp_name, str(self.path))
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass


# ---------------------------------------------------------------------------
# Linking
# ---------------------------------------------------------------------------


class CallGraph:
    """Linked view over a batch of module summaries."""

    def __init__(self, summaries: Dict[str, ModuleSummary]) -> None:
        self.summaries = summaries
        self.functions: Dict[str, FunctionSummary] = {}
        self.function_module: Dict[str, str] = {}
        self.classes: Dict[str, ClassSummary] = {}
        self.class_module: Dict[str, str] = {}
        self.aliases: Dict[str, str] = {}
        self.tables: Dict[str, List[str]] = {}
        self.method_index: Dict[str, List[str]] = {}
        self.registrations: Dict[str, List[str]] = {}
        for module, summary in summaries.items():
            for fn in summary.functions:
                qual = module + "." + fn.name
                self.functions[qual] = fn
                self.function_module[qual] = module
            for cls in summary.classes:
                qual = module + "." + cls.name
                self.classes[qual] = cls
                self.class_module[qual] = module
                for method in cls.methods:
                    self.method_index.setdefault(method, []).append(
                        qual + "." + method
                    )
            for local, target in summary.imports.items():
                self.aliases[module + "." + local] = target
            for name, refs in summary.tables.items():
                self.tables[module + "." + name] = refs
            for kind, refs in summary.registrations.items():
                merged = set(self.registrations.get(kind, [])) | set(refs)
                self.registrations[kind] = sorted(merged)

    # -- resolution -----------------------------------------------------

    def _dealias(self, target: str) -> str:
        seen: Set[str] = set()
        current = target
        while current not in seen:
            seen.add(current)
            if current in self.aliases:
                current = self.aliases[current]
                continue
            # Re-exported symbol with a trailing attribute:
            # repro.policies.MHPEPolicy.build -> (alias) -> ...mhpe.MHPEPolicy.build
            head, _, tail = current.rpartition(".")
            if head and head in self.aliases:
                current = self.aliases[head] + "." + tail
                continue
            break
        return current

    def _ctor_targets(self, class_qual: str, depth: int = 0) -> List[str]:
        """Function quals executed when instantiating ``class_qual``."""
        if depth > 4 or class_qual not in self.classes:
            return []
        cls = self.classes[class_qual]
        out: List[str] = []
        for ctor in ("__init__", "__post_init__"):
            qual = class_qual + "." + ctor
            if qual in self.functions:
                out.append(qual)
        if not out:
            for base in cls.bases:
                base_qual = self._dealias(base)
                out.extend(self._ctor_targets(base_qual, depth + 1))
        return out

    def resolve(self, target: str, caller_module: str) -> List[str]:
        """Function quals a recorded call target may reach."""
        if target.startswith(ATTR_CALL_PREFIX):
            name = target[len(ATTR_CALL_PREFIX):]
            out = []
            for qual in self.method_index.get(name, []):
                class_qual = qual.rsplit(".", 1)[0]
                module = self.class_module.get(class_qual, "")
                if is_simulation_module(module) or module == caller_module:
                    out.append(qual)
            return out
        if target.startswith(TABLE_PREFIX):
            table = self._dealias(target[len(TABLE_PREFIX):])
            out = []
            for ref in self.tables.get(table, []):
                out.extend(self.resolve(ref, caller_module))
            return out
        if target.startswith(REGISTRY_PREFIX):
            # Registry dispatch: fan out to every builder registered for
            # the kind (all kinds for a computed ``registry:*`` kind).
            kind = target[len(REGISTRY_PREFIX):]
            kinds = (
                sorted(self.registrations) if kind == "*" else [kind]
            )
            out = []
            for k in kinds:
                for ref in self.registrations.get(k, []):
                    out.extend(self.resolve(ref, caller_module))
            return out
        resolved = self._dealias(target)
        if resolved in self.functions:
            return [resolved]
        if resolved in self.classes:
            return self._ctor_targets(resolved)
        # Method on a resolved class: repro.engine.simulator.Simulator.run
        head, _, tail = resolved.rpartition(".")
        if head in self.classes:
            qual = head + "." + tail
            if qual in self.functions:
                return [qual]
            # Inherited method: walk base classes.
            seen: Set[str] = set()
            stack = [head]
            while stack:
                class_qual = stack.pop()
                if class_qual in seen or class_qual not in self.classes:
                    continue
                seen.add(class_qual)
                candidate = class_qual + "." + tail
                if candidate in self.functions:
                    return [candidate]
                stack.extend(
                    self._dealias(b) for b in self.classes[class_qual].bases
                )
        return []

    # -- closure --------------------------------------------------------

    def reachable_from(self, roots: Iterable[str]) -> FrozenSet[str]:
        """Transitive closure of function quals callable from ``roots``."""
        seen: Set[str] = set()
        stack = [r for r in roots if r in self.functions]
        while stack:
            qual = stack.pop()
            if qual in seen:
                continue
            seen.add(qual)
            fn = self.functions[qual]
            module = self.function_module[qual]
            for target in fn.calls:
                for resolved in self.resolve(target, module):
                    if resolved not in seen:
                        stack.append(resolved)
        return frozenset(seen)

    def modules_of(self, quals: Iterable[str]) -> FrozenSet[str]:
        return frozenset(
            self.function_module[q] for q in quals if q in self.function_module
        )
