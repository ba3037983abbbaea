"""Core types of the static-analysis subsystem.

The checker is organized exactly like the component catalog in
:mod:`repro.registry`: rules are classes registered under short string
keys in a lazily-populated :class:`RuleRegistry`.  Each rule walks one
parsed module (:class:`ModuleContext`) and yields :class:`Finding`
records; the runner applies inline ``# repro: ignore[rule-key]``
suppressions afterwards, so rules never need to know about them.

A rule carries its own documentation: a one-line ``title``, a
``rationale`` naming the historical bug class it guards against, and a
``hint`` shown by ``repro check --fix-hints``.  Severities are
``"error"`` (violates a determinism/safety contract) or ``"warning"``
(hazard that needs review).  Any unsuppressed finding — either severity
— fails the check, so the distinction is informational, not a gate.
"""

from __future__ import annotations

import ast
import importlib
from dataclasses import dataclass, field
from typing import Iterator

from repro.exceptions import ValidationError

__all__ = [
    "SEVERITIES",
    "Finding",
    "ModuleContext",
    "Rule",
    "RuleRegistry",
    "RULES",
    "register_rule",
]

#: Recognized severities, strongest first.
SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location.

    Attributes
    ----------
    rule:
        Registry key of the rule that fired (also the suppression ID).
    severity:
        ``"error"`` or ``"warning"`` (copied from the rule).
    path:
        File the finding is in, as given to the runner.
    line / col:
        1-based line and 0-based column of the offending node.
    message:
        Human-readable description of this specific violation.
    suppressed:
        True when an inline ``# repro: ignore[...]`` on the line covers
        this rule; suppressed findings never fail the check.
    """

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False

    def location(self) -> str:
        """``path:line:col`` (column 1-based, editor convention)."""
        return f"{self.path}:{self.line}:{self.col + 1}"


@dataclass
class ModuleContext:
    """One parsed source file handed to every applicable rule.

    Attributes
    ----------
    path:
        Path the file was read from (relative paths stay relative, so
        reports are stable across machines).
    module:
        Dotted module name, derived by walking ``__init__.py`` parents
        (e.g. ``"repro.stats.mvn"``); scripts outside a package get their
        bare stem.  Scoped rules match their prefixes against this.
    source:
        Full file text.
    tree:
        Parsed ``ast`` module node.
    """

    path: str
    module: str
    source: str
    tree: ast.Module
    _lines: list[str] = field(default_factory=list, repr=False)

    @property
    def lines(self) -> list[str]:
        """Source split into lines (lazily, cached)."""
        if not self._lines:
            self._lines = self.source.splitlines()
        return self._lines

    def in_package(self, *prefixes: str) -> bool:
        """True when the module sits under any of the dotted prefixes."""
        return any(
            self.module == prefix or self.module.startswith(prefix + ".")
            for prefix in prefixes
        )


class Rule:
    """Base class for one registered check.

    Subclasses set the class attributes and implement :meth:`check`.

    Attributes
    ----------
    key:
        Registry key; also the ID accepted by ``# repro: ignore[key]``
        and ``repro check --rules key``.  Set by registration.
    title:
        One-line summary used in listings.
    severity:
        ``"error"`` or ``"warning"``.
    rationale:
        Why the rule exists — the bug class (ideally the concrete
        historical incident) it would have caught.
    hint:
        Suggested fix, shown by ``--fix-hints``.
    scope:
        Dotted module prefixes the rule is restricted to; empty means
        every checked file.
    """

    key: str = ""
    title: str = ""
    severity: str = "error"
    rationale: str = ""
    hint: str = ""
    scope: tuple[str, ...] = ()

    def applies(self, context: ModuleContext) -> bool:
        """Whether this rule runs on the given module (scope check)."""
        if not self.scope:
            return True
        return context.in_package(*self.scope)

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        """Yield findings for one module."""
        raise NotImplementedError

    def finding(
        self, context: ModuleContext, node: ast.AST, message: str
    ) -> Finding:
        """Build a :class:`Finding` anchored at an AST node."""
        return Finding(
            rule=self.key,
            severity=self.severity,
            path=context.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


class RuleRegistry:
    """String-keyed rule catalog (the :class:`repro.registry.Registry`
    pattern, specialized for rules).

    Parameters
    ----------
    modules:
        Modules imported lazily before the first lookup; importing them
        triggers the ``@register_rule`` decorators they contain.
    """

    def __init__(self, modules: tuple[str, ...] = ()):
        self._modules = modules
        self._entries: dict[str, Rule] = {}
        self._loaded = False

    def _ensure_loaded(self) -> None:
        if self._loaded:
            return
        for module in self._modules:
            importlib.import_module(module)
        # Set only after every import succeeded so a failed import
        # surfaces again instead of leaving a partial catalog.
        self._loaded = True

    def register(self, key: str):
        """Class decorator adding a :class:`Rule` subclass under ``key``."""
        if not isinstance(key, str) or not key:
            raise ValidationError(
                f"rule key must be a non-empty string, got {key!r}"
            )

        def decorate(cls: type) -> type:
            if not (isinstance(cls, type) and issubclass(cls, Rule)):
                raise ValidationError(
                    f"{cls!r} must subclass Rule to be registered"
                )
            existing = self._entries.get(key)
            if existing is not None and type(existing) is not cls:
                raise ValidationError(
                    f"rule key {key!r} already registered to "
                    f"{type(existing).__name__}"
                )
            if cls.severity not in SEVERITIES:
                raise ValidationError(
                    f"rule {key!r} severity must be one of {SEVERITIES}, "
                    f"got {cls.severity!r}"
                )
            cls.key = key
            self._entries[key] = cls()
            return cls

        return decorate

    def names(self) -> list[str]:
        """All registered rule keys, sorted."""
        self._ensure_loaded()
        return sorted(self._entries)

    def get(self, key: str) -> Rule:
        """The rule instance registered under ``key``."""
        self._ensure_loaded()
        try:
            return self._entries[key]
        except KeyError:
            raise ValidationError(
                f"unknown rule {key!r}; registered: {self.names()}"
            ) from None

    def __contains__(self, key: str) -> bool:
        self._ensure_loaded()
        return key in self._entries

    def select(self, keys=None) -> list[Rule]:
        """Rule instances for ``keys`` (all rules when ``None``)."""
        self._ensure_loaded()
        if keys is None:
            return [self._entries[key] for key in self.names()]
        return [self.get(key) for key in keys]

    def __repr__(self) -> str:
        self._ensure_loaded()
        return f"RuleRegistry({self.names()})"


#: The rule catalog; rule modules register themselves on import.
RULES = RuleRegistry(
    (
        "repro.analysis.rules.determinism",
        "repro.analysis.rules.dataclass_eq",
        "repro.analysis.rules.pickle_safety",
        "repro.analysis.rules.api_surface",
        "repro.analysis.rules.concurrency",
        "repro.analysis.rules.registry_contract",
        "repro.analysis.rules.iter_hotpath",
    )
)

register_rule = RULES.register
