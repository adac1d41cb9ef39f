"""Static analysis of the repro's durable invariants.

The ROADMAP's contracts — batch-invariant env kernels, deterministic
pricing oracles, ``ReplayBuffer`` lock discipline, the
``seed + env_offset(w) + i`` seeding scheme, and ``TrainingConfig``/CLI
parity — were enforced only by convention and after-the-fact regression
tests.
This package enforces them *statically*, at diff time, with an AST-visitor
rule framework symmetric with the scheduler's pluggable policies:

* :class:`~repro.analysis.rules.Rule` subclasses register via
  :func:`~repro.analysis.rules.register_rule` (the extension point);
* :func:`~repro.analysis.engine.analyze` parses the requested paths once
  and runs every rule, producing structured
  :class:`~repro.analysis.findings.Finding` records;
* inline ``# repro-lint: allow[rule-id]: <justification>`` pragmas suppress
  individual findings — the justification text is mandatory;
* ``python -m repro.analysis --strict src benchmarks examples`` is the CI
  gate (text or ``--format json`` output).

The linter is pure :mod:`ast` — it never imports or executes the code it
checks.
"""

from .engine import AnalysisReport, SourceModule, analyze, collect_sources
from .findings import SEVERITIES, Finding
from .pragmas import PRAGMA_RULE_ID, Pragma, scan_pragmas, suppressed_lines
from .rules import (
    RULES,
    BatchInvariantKernels,
    ConfigCliParity,
    DeterministicOracles,
    HotPathDiscipline,
    LockDiscipline,
    Rule,
    SeedingScheme,
    default_rules,
    register_rule,
    resolve_rules,
)

__all__ = [
    "AnalysisReport",
    "SourceModule",
    "analyze",
    "collect_sources",
    "SEVERITIES",
    "Finding",
    "PRAGMA_RULE_ID",
    "Pragma",
    "scan_pragmas",
    "suppressed_lines",
    "RULES",
    "Rule",
    "register_rule",
    "default_rules",
    "resolve_rules",
    "BatchInvariantKernels",
    "DeterministicOracles",
    "LockDiscipline",
    "SeedingScheme",
    "ConfigCliParity",
    "HotPathDiscipline",
]
