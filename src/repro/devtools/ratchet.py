"""Strictness-ratchet rules (``REPRO4xx``).

``pyproject.toml`` carries a per-module mypy allowlist: modules not yet
``--strict``-clean get ``ignore_errors = true`` overrides.  The allowlist
is a *ratchet* — it may only shrink.  ``REPRO401`` enforces that statically
by comparing the overrides against the baseline frozen here: adding a new
module to the allowlist (or re-adding one that already graduated to
strict, like ``repro.config`` / ``repro.harness.cache``) is a finding.
Removing entries never is.

When a module is made strict-clean, delete it from the pyproject override
*and* from :data:`MYPY_ALLOWLIST_BASELINE` in the same commit.
"""

from __future__ import annotations

from pathlib import Path
from typing import FrozenSet, Iterator, List, Tuple

try:  # py3.11+; on older interpreters the ratchet rule degrades to a no-op
    import tomllib
except ImportError:  # pragma: no cover - py<3.11 only
    tomllib = None  # type: ignore[assignment]

from .findings import Finding
from .rules import ProjectContext, ProjectRule, register

__all__ = ["MYPY_ALLOWLIST_BASELINE", "STRICT_REQUIRED", "MypyRatchetRule"]

#: Modules currently allowed to carry ``ignore_errors = true`` overrides.
#: This set may only lose members over time (delete here when a module
#: graduates to strict).  It must stay in sync with ``pyproject.toml``.
MYPY_ALLOWLIST_BASELINE: FrozenSet[str] = frozenset(
    {
        "repro.__main__",
        "repro.cli",
        "repro.errors",
        "repro.units",
        "repro.engine",
        "repro.engine.*",
        "repro.policies",
        "repro.policies.hpe",
        "repro.policies.lru",
        "repro.policies.mhpe",
        "repro.policies.random_policy",
        "repro.policies.reserved_lru",
        "repro.prefetch",
        "repro.prefetch.disabled",
        "repro.prefetch.locality",
        "repro.prefetch.pattern_aware",
        "repro.prefetch.tree_neighborhood",
        "repro.memsim",
        "repro.memsim.address",
        "repro.memsim.device_memory",
        "repro.memsim.dram",
        "repro.memsim.fault",
        "repro.memsim.page_table",
        "repro.memsim.pcie",
        "repro.memsim.system",
        "repro.core",
        "repro.core.*",
        "repro.translation",
        "repro.translation.*",
        "repro.workloads",
        "repro.workloads.*",
        "repro.analysis",
        "repro.analysis.*",
        "repro.harness",
        "repro.harness.baselines",
        "repro.harness.docgen",
        "repro.harness.experiment",
        "repro.harness.figures",
        "repro.harness.parallel",
        "repro.harness.report",
        "repro.harness.store",
        "repro.harness.tables",
    }
)

#: Modules that already graduated to ``--strict``: they carry ``py.typed``
#: guarantees and must never re-enter the allowlist.
STRICT_REQUIRED: FrozenSet[str] = frozenset(
    {
        "repro.config",
        "repro.devtools.findings",
        "repro.harness.cache",
        "repro.harness.faults",
        "repro.memsim.chunk_chain",
        "repro.policies.base",
        "repro.prefetch.base",
        "repro.registry",
    }
)

#: Package whose every module must stay strict (the checker itself).
_STRICT_PACKAGES = ("repro.devtools",)


def _relaxed_modules(pyproject: Path) -> List[str]:
    """Module patterns with ``ignore_errors = true`` mypy overrides."""
    if tomllib is None:  # pragma: no cover - py<3.11 only
        return []
    with pyproject.open("rb") as fh:
        data = tomllib.load(fh)
    tool = data.get("tool", {})
    overrides = tool.get("mypy", {}).get("overrides", [])
    relaxed: List[str] = []
    for entry in overrides:
        if not isinstance(entry, dict) or not entry.get("ignore_errors"):
            continue
        modules = entry.get("module", [])
        if isinstance(modules, str):
            modules = [modules]
        relaxed.extend(str(m) for m in modules)
    return relaxed


@register
class MypyRatchetRule(ProjectRule):
    rule_id = "REPRO401"
    title = "mypy strictness allowlist grew"
    rationale = (
        "the per-module allowlist exists to burn down, not to hide new "
        "untyped code; letting it grow silently would erode the typed "
        "strict gate that backs the cache/config contracts."
    )
    fix_hint = (
        "make the new module --strict-clean instead of allowlisting it "
        "(or, for a planned module, update MYPY_ALLOWLIST_BASELINE in the "
        "same change, with review)"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        if project.root is None:
            return
        pyproject = project.root / "pyproject.toml"
        if not pyproject.is_file():
            return
        for lineno, module in self._violations(pyproject):
            yield Finding(
                path=str(pyproject),
                line=lineno,
                column=1,
                rule=self.rule_id,
                message=(
                    f"module pattern `{module}` added to the mypy "
                    "ignore_errors allowlist (the allowlist may only shrink)"
                ),
                fix_hint=self.fix_hint,
            )

    def _violations(self, pyproject: Path) -> List[Tuple[int, str]]:
        out: List[Tuple[int, str]] = []
        text = pyproject.read_text().splitlines()

        def line_of(module: str) -> int:
            quoted = f'"{module}"'
            for idx, line in enumerate(text, start=1):
                if quoted in line:
                    return idx
            return 1

        for module in _relaxed_modules(pyproject):
            strict_locked = (
                module in STRICT_REQUIRED
                or any(
                    module == pkg or module.startswith(pkg + ".")
                    for pkg in _STRICT_PACKAGES
                )
            )
            if strict_locked or module not in MYPY_ALLOWLIST_BASELINE:
                out.append((line_of(module), module))
        return out
