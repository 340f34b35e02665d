"""AST-based invariant checkers for the estimator zoo, kernels and engine.

``repro analyze src/repro`` (or ``python tools/analyze.py``) runs the
domain-specific checkers that mechanically enforce the invariants the
paper's claims depend on:

==============  ======================================================
checker          invariant
==============  ======================================================
purity           plane paths stay vectorized (no per-item Python)
determinism      randomness flows from explicit seeds, never globals
dtype            hash planes keep uint64/declared dtypes, no implicit casts
contract         estimator subclasses honour the library-wide contract
serialization    recorded state round-trips through to_bytes/from_bytes
guards           ``# guarded-by:`` fields stay under their declared lock
lockorder        the acquires-while-holding graph stays acyclic
asyncio          event-loop hygiene: no blocking calls, shielded gates,
                 no fire-and-forget tasks
analysis         ``allow()`` ids name real rules (suppression audit)
==============  ======================================================

See ``docs/dev-tooling.md`` for each rule's rationale and the
suppression workflow. Importing this package registers the standard
checkers; :func:`~repro.analysis.core.analyze_paths` is the
programmatic entry point and :func:`~repro.analysis.cli.analyze_main`
the CLI one.
"""

from repro.analysis.core import (
    AnalysisResult,
    Checker,
    Diagnostic,
    Rule,
    all_checkers,
    all_rules,
    analyze_paths,
    load_baseline,
    register_checker,
    write_baseline,
)

# Importing the checker modules registers them with the rule registry.
from repro.analysis import (  # noqa: F401  (imported for side effects)
    aio,
    contracts,
    determinism,
    dtypes,
    guards,
    lockorder,
    purity,
    serialization,
)

__all__ = [
    "AnalysisResult",
    "Checker",
    "Diagnostic",
    "Rule",
    "all_checkers",
    "all_rules",
    "analyze_paths",
    "load_baseline",
    "register_checker",
    "write_baseline",
]
