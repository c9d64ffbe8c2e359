"""String-keyed lint-rule registry.

A :class:`repro.utils.registry.Registry` of rule classes: rules are
registered under a stable id with a decorator, the engine instantiates
whatever the registry holds, and project-specific rules can be added without
touching the engine or the CLI::

    from repro.analysis import register_rule, Rule

    @register_rule("DET900")
    class NoEvalRule(Rule):
        summary = "eval() in library code"
        ...

A rule is an :class:`ast.NodeVisitor` subclass (see
:class:`repro.analysis.base.Rule`) whose instances emit
:class:`~repro.analysis.findings.Finding`s while visiting one file.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Callable, Type, Union

from repro.utils.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.base import Rule

#: Rule ids are short upper-case alphanumerics, e.g. ``DET001``.
_RULE_ID = re.compile(r"^[A-Z][A-Z0-9]{2,15}$")


class RuleRegistry(Registry[Type["Rule"]]):
    """A mutable mapping from rule ids to :class:`Rule` subclasses.

    Rule ids must match ``[A-Z][A-Z0-9]{2,15}`` so pragmas and config
    sections can name them unambiguously; registering a rule stamps its id
    on the class as ``rule_id``.
    """

    kind = "rule"

    def _check_name(self, name: object) -> None:
        if not isinstance(name, str) or not _RULE_ID.match(name):
            raise ValueError(f"rule id must match {_RULE_ID.pattern!r}, got {name!r}")

    def _check_entry(self, entry: object) -> None:
        if not isinstance(entry, type):
            raise TypeError(f"rule must be a Rule subclass, got {entry!r}")

    def _admit(self, name: str, entry: Type["Rule"]) -> None:
        entry.rule_id = name

    def ids(self) -> tuple[str, ...]:
        """Registered rule ids, in registration order."""
        return self.names()


#: The process-wide registry used when no explicit registry is passed.
DEFAULT_REGISTRY = RuleRegistry()


def register_rule(
    rule_id: str, *, registry: Union[RuleRegistry, None] = None
) -> Callable[[Type["Rule"]], Type["Rule"]]:
    """Decorator registering a rule class in the (default) registry::

        @register_rule("DET001")
        class BareTranscendentalRule(Rule):
            ...
    """
    target = registry if registry is not None else DEFAULT_REGISTRY
    return target.register(rule_id)


def available_rules() -> tuple[str, ...]:
    """Rule ids registered in the default registry (built-ins plus plugins)."""
    return DEFAULT_REGISTRY.ids()
