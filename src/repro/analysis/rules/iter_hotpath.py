"""Rule keeping trace-facade calls out of unguarded kernel loops.

Permanently-instrumented kernels stay cheap because their span and
metric calls run once per call, not once per iteration: a loop that
needs a count (the jittered Cholesky's retries) tallies it in a local
and publishes it after the loop.  This rule pins that, so a future
edit cannot quietly put a per-iteration facade call on the hot path.
A call under an ``if trace.enabled():`` guard is exempt.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import Finding, ModuleContext, Rule, register_rule

__all__ = ["IterHotpathRule"]

#: Trace-facade functions that are per-call machinery, not per-iteration
#: machinery: calling any of them inside a kernel loop means spans or
#: metrics churn once per iteration.
_FACADE_CALLS = frozenset({"span", "count", "gauge"})

#: Modules whose import binds the trace facade.
_TRACE_MODULES = ("repro.telemetry", "repro.telemetry.trace")


def _is_enabled_probe(node: ast.expr) -> bool:
    """``X.enabled`` / ``X.enabled()`` / bare ``enabled`` tests."""
    if isinstance(node, ast.Call):
        return _is_enabled_probe(node.func)
    if isinstance(node, ast.Attribute):
        return node.attr == "enabled"
    return isinstance(node, ast.Name) and node.id == "enabled"


def _guard_kind(test: ast.expr) -> str | None:
    """Classify an ``if`` test: ``"pos"`` when its truthy branch is the
    tracing-enabled side, ``"neg"`` when its falsy branch is, ``None``
    when the test says nothing about tracing."""
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return "neg" if _is_enabled_probe(test.operand) else None
    if _is_enabled_probe(test):
        return "pos"
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        if any(_is_enabled_probe(value) for value in test.values):
            return "pos"
    return None


@register_rule("iter-hotpath")
class IterHotpathRule(Rule):
    """Trace-facade calls stay out of unguarded kernel loops."""

    title = "trace-facade call inside a kernel loop"
    severity = "error"
    rationale = (
        "Kernels stay permanently instrumented only because the "
        "disabled path is near-free: each instrumented call pays one "
        "global read per span or metric.  A trace.span/count/gauge "
        "call inside a kernel loop pays it once per iteration, and "
        "under tracing churns spans or metrics per iteration — the "
        "regression the overhead-budget tests exist to catch, moved "
        "to check time."
    )
    hint = (
        "Hoist span/metric calls out of the loop: tally per-iteration "
        "events in a local and publish the total after the loop, or "
        "put the call under an 'if trace.enabled():' guard."
    )
    scope = (
        "repro.stats",
        "repro.reconstruction",
        "repro.linalg",
        "repro.metrics",
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        self._trace_names: set[str] = set()
        self._facade_aliases: set[str] = set()
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in _TRACE_MODULES:
                        bound = alias.asname or alias.name.split(".")[0]
                        if alias.name == "repro.telemetry.trace":
                            self._trace_names.add(
                                alias.asname or "trace"
                            )
                        else:
                            self._trace_names.add(bound)
            elif isinstance(node, ast.ImportFrom):
                if node.module == "repro.telemetry":
                    for alias in node.names:
                        if alias.name == "trace":
                            self._trace_names.add(alias.asname or "trace")
                elif node.module == "repro.telemetry.trace":
                    for alias in node.names:
                        if alias.name in _FACADE_CALLS:
                            self._facade_aliases.add(
                                alias.asname or alias.name
                            )
        yield from self._scan(context, context.tree.body, False, False)

    # -- statement traversal -------------------------------------------

    def _scan(
        self,
        context: ModuleContext,
        stmts: list[ast.stmt],
        guarded: bool,
        in_loop: bool,
    ) -> Iterator[Finding]:
        """Walk a statement list tracking loop depth and enabled guards.

        ``guarded`` is sticky for the rest of the list after an
        early-exit guard (``if not X.enabled(): ...; continue``), and
        set for the matching branch of an ``if X.enabled:`` test.
        """
        for stmt in stmts:
            if isinstance(stmt, ast.If):
                kind = _guard_kind(stmt.test)
                yield from self._scan(
                    context, stmt.body, guarded or kind == "pos", in_loop
                )
                yield from self._scan(
                    context, stmt.orelse, guarded or kind == "neg", in_loop
                )
                if (
                    kind == "neg"
                    and stmt.body
                    and isinstance(
                        stmt.body[-1],
                        (ast.Continue, ast.Break, ast.Return, ast.Raise),
                    )
                ):
                    guarded = True
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                header = (
                    stmt.test
                    if isinstance(stmt, ast.While)
                    else stmt.iter
                )
                yield from self._check_expr(context, header, guarded, True)
                yield from self._scan(context, stmt.body, guarded, True)
                yield from self._scan(context, stmt.orelse, guarded, in_loop)
            elif isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                yield from self._scan(context, stmt.body, False, False)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    yield from self._check_expr(
                        context, item.context_expr, guarded, in_loop
                    )
                yield from self._scan(context, stmt.body, guarded, in_loop)
            elif isinstance(stmt, ast.Try):
                for block in (
                    stmt.body,
                    stmt.orelse,
                    stmt.finalbody,
                    *(handler.body for handler in stmt.handlers),
                ):
                    yield from self._scan(context, block, guarded, in_loop)
            else:
                yield from self._check_expr(context, stmt, guarded, in_loop)

    def _check_expr(
        self,
        context: ModuleContext,
        node: ast.AST | None,
        guarded: bool,
        in_loop: bool,
    ) -> Iterator[Finding]:
        """Flag facade calls in one simple statement."""
        if node is None or guarded or not in_loop:
            return
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            facade = self._facade_call(sub.func)
            if facade is not None:
                yield self.finding(
                    context,
                    sub,
                    f"trace.{facade}() inside a kernel loop runs once "
                    "per iteration; tally in a local and publish the "
                    "total after the loop",
                )

    def _facade_call(self, func: ast.expr) -> str | None:
        """The facade function name when ``func`` is a trace call."""
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _FACADE_CALLS
            and isinstance(func.value, ast.Name)
            and func.value.id in self._trace_names
        ):
            return func.attr
        if isinstance(func, ast.Name) and func.id in self._facade_aliases:
            return func.id
        return None
