"""The unified execution-plan core: one planner/operator pipeline behind
every recommend path.

- :mod:`repro.exec.plan` — :class:`ExecPlan`, :class:`Placement` and the
  :class:`PlanRegistry` (``PLAN_REGISTRY`` is the process-wide default);
- :mod:`repro.exec.ops` — the composable operators plans compile into;
- :mod:`repro.exec.compile` — ``compile_plan`` / ``as_executor``, the
  shared ``coerce_k`` request prologue and the facades' one tuning
  verb, ``configure``;
- :mod:`repro.exec.dedup` — the one memo stage: the duplicate-collapse
  store backing the ``*-dedup`` plan variants (exact and
  MinHash/LSH-approximate modes).

See docs/ARCHITECTURE.md §10 for the operator diagram and the
how-to-add-a-plan recipe.
"""

from repro.exec.compile import (
    CompiledPlan,
    as_executor,
    coerce_k,
    compile_plan,
    configure,
)
from repro.exec.dedup import DedupGroup, DedupState, DedupStats
from repro.exec.ops import (
    CandidateOp,
    CppseKnnOp,
    CppseProbeCandidateOp,
    DedupOp,
    ExecContext,
    FanoutOp,
    FullScanCandidateOp,
    MergeOp,
    OracleScoreOp,
    OracleSelectOp,
    PreRankedSelectOp,
    ScoreOp,
    SelectOp,
    ServeOp,
    TopKSelectOp,
    VectorizedScoreOp,
    flush_pending_maintenance,
)
from repro.exec.plan import (
    BATCHINGS,
    CANDIDATE_SOURCES,
    PLACEMENT_KINDS,
    PLAN_REGISTRY,
    SCORINGS,
    ExecPlan,
    Placement,
    PlanRegistry,
)

__all__ = [
    "BATCHINGS",
    "CANDIDATE_SOURCES",
    "CandidateOp",
    "CompiledPlan",
    "CppseKnnOp",
    "CppseProbeCandidateOp",
    "DedupGroup",
    "DedupOp",
    "DedupState",
    "DedupStats",
    "ExecContext",
    "ExecPlan",
    "FanoutOp",
    "FullScanCandidateOp",
    "MergeOp",
    "OracleScoreOp",
    "OracleSelectOp",
    "PLACEMENT_KINDS",
    "PLAN_REGISTRY",
    "Placement",
    "PlanRegistry",
    "PreRankedSelectOp",
    "SCORINGS",
    "ScoreOp",
    "SelectOp",
    "ServeOp",
    "TopKSelectOp",
    "VectorizedScoreOp",
    "as_executor",
    "coerce_k",
    "compile_plan",
    "configure",
    "flush_pending_maintenance",
]
