"""Hot-path rules: keep per-page Python loops out of ``repro.memsim``.

The memory system keeps its page and chunk state in flat lists and bit
masks because per-page Python data-structure traffic (set/dict membership
probed once per page inside an index loop) was the simulator's dominant
cost.  This module adds a lint family (``REPRO107``) that keeps the pattern
from creeping back into the mechanism layer: page bookkeeping iterated per
index belongs in flat lists / bit masks (``repro.memsim.page_table``,
``repro.memsim.chunk_chain``), not in Python container probes.

The rule is deliberately scoped to ``repro.memsim`` — harness, analysis
and devtools code may loop however it likes.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .findings import Finding
from .rules import FileContext, FileRule, register

__all__ = ["PerPageMembershipLoopRule"]


def _is_memsim_module(module: str) -> bool:
    return module == "repro.memsim" or module.startswith("repro.memsim.")


def _is_range_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "range"
    )


@register
class PerPageMembershipLoopRule(FileRule):
    rule_id = "REPRO107"
    title = "per-page membership loop in memsim hot path"
    rationale = (
        "a `for i in range(...)` loop that probes `x in container` (or "
        "`not in`) per iteration is the per-page Python bookkeeping pattern "
        "the flat-list memory system was built to eliminate: each probe "
        "hashes a boxed int against a set/dict, and at pages-per-chunk x "
        "chunks x faults scale those probes dominate the simulator's wall "
        "time.  Inside repro.memsim, per-index page state belongs in flat "
        "lists or bit masks (repro.memsim.page_table, "
        "repro.memsim.chunk_chain) where the whole loop collapses to an "
        "O(1) index or mask test."
    )
    fix_hint = (
        "replace the per-index membership probe with a flat-list / "
        "bit-mask lookup (see repro.memsim.page_table), or hoist the "
        "probe out of the loop"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not _is_memsim_module(ctx.module):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.For) or not _is_range_call(node.iter):
                continue
            for inner in ast.walk(node):
                if not isinstance(inner, ast.Compare):
                    continue
                if any(isinstance(op, (ast.In, ast.NotIn)) for op in inner.ops):
                    # Membership against a constant/tuple literal is a
                    # value comparison (e.g. `kind in ("lru", "ref")`),
                    # not per-page container traffic.
                    comparator = inner.comparators[-1]
                    if isinstance(comparator, (ast.Constant, ast.Tuple)):
                        continue
                    yield ctx.finding(
                        inner,
                        self,
                        "per-iteration membership probe inside an index "
                        "loop (`for ... in range(...)`)",
                    )
