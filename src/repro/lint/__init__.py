"""Static analysis and runtime invariant auditing for circuit IR.

Three layers:

* :mod:`repro.lint.core` -- the rule/pass framework: a :class:`Rule`
  registry with stable ids (``L0xx`` graph, ``N0xx`` netlist, ``S0xx``
  sanitizer), severities, and JSON-round-trippable :class:`Diagnostic`
  / :class:`LintReport` dataclasses.
* :mod:`repro.lint.constraints` -- the canonical constraint set ``C``
  (re-exported lazily from :mod:`repro.ir`).
* :mod:`repro.lint.sanitize` -- the opt-in runtime auditor that
  cross-checks every incremental cache against from-scratch
  recomputation and raises :class:`InvariantViolation` on divergence.

Import discipline: this package's eager imports only touch
``repro.ir.graph`` / ``repro.ir.node_types``, so ``repro.ir`` can
lazily re-export the constraint functions without a cycle; the netlist
and sanitizer rule modules (which pull in ``repro.synth``) load on
first use.
"""

from __future__ import annotations

from . import graph_rules  # noqa: F401  (registers L0xx)
from .constraints import (
    ValidationReport,
    arity_violations,
    assert_valid,
    dangling_outputs,
    find_combinational_cycles,
    has_combinational_loop,
    validate,
    would_create_combinational_loop,
)
from .core import (
    ERROR,
    INFO,
    SEVERITIES,
    WARNING,
    Diagnostic,
    LintReport,
    Rule,
    get_rule,
    lint_graph,
    lint_netlist,
    rule_catalog,
    rules_for,
)

#: Names served lazily from modules that transitively import
#: ``repro.synth`` (kept out of the eager import set -- see module
#: docstring).
_LAZY = {
    "InvariantViolation": "sanitize",
    "Sanitizer": "sanitize",
    "current_sanitizer": "sanitize",
    "env_sanitize": "sanitize",
    "is_sanitizing": "sanitize",
    "sanitizing": "sanitize",
}

__all__ = [
    "ERROR",
    "INFO",
    "SEVERITIES",
    "WARNING",
    "Diagnostic",
    "InvariantViolation",
    "LintReport",
    "Rule",
    "Sanitizer",
    "ValidationReport",
    "arity_violations",
    "assert_valid",
    "current_sanitizer",
    "dangling_outputs",
    "env_sanitize",
    "find_combinational_cycles",
    "get_rule",
    "has_combinational_loop",
    "is_sanitizing",
    "lint_graph",
    "lint_netlist",
    "rule_catalog",
    "rules_for",
    "sanitizing",
    "validate",
    "would_create_combinational_loop",
]


def __getattr__(name: str) -> object:
    module_name = _LAZY.get(name)
    if module_name is not None:
        from importlib import import_module

        module = import_module(f".{module_name}", __name__)
        value: object = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
