"""Oracle-guided barrier weakening for ported modules.

AtoMig's output is correct but maximally synchronized: every atomized
access is SEQ_CST.  ``repro.opt`` relaxes that output — stepping orders
down per-access ladders and deleting porter-inserted fences — while a
model-checking oracle certifies after every step that the module's
verdict (ok / violation / deadlock) is unchanged.  The result is the
weakest barrier assignment the checker can vouch for, never weaker.

Entry points:

- :func:`optimize_module` — optimize one IR module, returning the
  optimized clone and an :class:`OptimizationReport`.
- :func:`repro.opt.parallel.run_optimize_task` — the batch worker for
  Table 9 (optimize the whole Table 2 corpus across cores through
  :func:`repro.core.workers.run_batch`).
"""

from repro.opt.candidates import Candidate, enumerate_candidates
from repro.opt.oracle import Oracle
from repro.opt.report import OptimizationReport
from repro.opt.weaken import optimize_module

__all__ = [
    "Candidate",
    "Oracle",
    "OptimizationReport",
    "enumerate_candidates",
    "optimize_module",
]
