"""simlint: determinism & sim-safety static analysis for the simulator.

The whole reproduction rests on bit-for-bit deterministic simulation;
this package is the gate that keeps it that way. It ships:

- an AST-based analyzer (stdlib ``ast`` only) with a rule registry
  (:mod:`repro.lint.rules`), per-module rules SIM101–SIM106, SIM111
  and SIM112–SIM113 (:mod:`repro.lint.visitors`), four interprocedural project rules
  SIM107–SIM110 (:mod:`repro.lint.interproc` — lock-order cycles,
  mutate-after-send aliasing, yield-while-locked, shared module state),
  per-line pragma suppressions and a findings baseline
  (:mod:`repro.lint.pragmas`), and text/JSON reporters
  (:mod:`repro.lint.reporters`);
- a dynamic cross-check (:mod:`repro.lint.determinism`) that replays a
  traced smoke simulation under distinct ``PYTHONHASHSEED`` values and
  compares ``repro.obs`` trace digests;
- the simsan gate (``san`` subcommand, :mod:`repro.san.cli`): static
  scan plus a smoke simulation under the :mod:`repro.san` runtime
  sanitizer (wait-for-graph deadlock detection, payload fingerprints).

CLI::

    python -m repro.lint src                  # static analysis, exit 1 on findings
    python -m repro.lint src --format json
    python -m repro.lint --list-rules
    python -m repro.lint --determinism --seeds 3
    python -m repro.lint san --json simsan-findings.json

Suppress a deliberate finding with a justified line pragma::

    started = time.time()  # host-side progress timer  # simlint: ignore[SIM101]
"""

from repro.lint.pragmas import Baseline, Suppressions, parse_pragmas
from repro.lint.rules import (
    REGISTRY,
    Finding,
    Module,
    Project,
    ProjectRule,
    Rule,
    default_rules,
    lint_paths,
    lint_source,
    register,
)
from repro.lint.reporters import render_json, render_text

__all__ = [
    "Baseline",
    "Finding",
    "Module",
    "Project",
    "ProjectRule",
    "REGISTRY",
    "Rule",
    "Suppressions",
    "default_rules",
    "lint_paths",
    "lint_source",
    "parse_pragmas",
    "register",
    "render_json",
    "render_text",
]
