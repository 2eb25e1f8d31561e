"""repro-lint: project-specific static analysis for the repro stack.

The stack's correctness rests on conventions the regular toolchain cannot
see: the package layering contract in ``docs/architecture.md``, the PR-4
rule that every array allocation routes through the active
:class:`~repro.runtime.ComputePolicy`, the rule that shared state in the
threaded serving and observability tiers is only touched under its lock,
the tracer's zero-overhead-when-disabled contract, and the
:class:`~repro.runtime.buffers.BufferPool` rule that scratch arrays never
outlive the call that took them.  ``repro-lint`` enforces all five with a
pure-stdlib ``ast`` pass over every file, every run — the static complement
of the dynamic ``repro.runtime.audit`` harness, which only sees the paths a
test happens to execute.

Layout::

    tools/reprolint/
      core.py          Finding, Module, checker registry, suppressions
      baseline.py      the shrink-only committed-baseline ratchet
      cli.py           discovery, output formats, exit codes
      checkers/        one module per rule (layering, dtype, lock,
                       tracer, bufferpool)

Run it from the repo root (the CI job does)::

    PYTHONPATH=tools python -m reprolint src/

or, after ``pip install -e .``, as the ``repro-lint`` console script.
``docs/static-analysis.md`` documents the rules, the suppression policy
(``# reprolint: allow[rule] -- reason``) and how to write a checker.
"""

from .core import CHECKERS, Checker, Finding, Module, register_checker, run_checkers
from .baseline import Baseline, compare_to_baseline

# Importing the package registers the built-in checkers.
from . import checkers  # noqa: F401  (import-for-side-effect)

__all__ = [
    "CHECKERS",
    "Checker",
    "Finding",
    "Module",
    "register_checker",
    "run_checkers",
    "Baseline",
    "compare_to_baseline",
]

__version__ = "1.0.0"
