"""Exact integer-partition engine: crank/mex statistics and their bijections.

The package has four layers:

* :mod:`crankmex.core` — the :class:`Partition` value type with its statistics
  (crank, mex above ``j``, shifted Durfee sizes, arm coordinates), plus the
  Durfee and mex decompositions and the staircase builder.
* :mod:`crankmex.maps` — the staircase step maps and every bijection built
  from them, through the composite crank/mex correspondence.
* :mod:`crankmex.verify` — exhaustive enumeration, exact counting series, the
  crank table, and the theorem suite that re-proves every identity at desk
  scale with element-by-element witnesses.
* :mod:`crankmex.cli` — the ``crankmex`` command-line frontend.
"""

from .core import (
    MAX_WEIGHT,
    DomainError,
    DurfeeTriple,
    IterationLimitError,
    MexDecomposition,
    Partition,
    PartitionError,
    mex_join,
    mex_split,
    staircase,
)
from .maps import (
    FIXED_POINT,
    PairState,
    StepResult,
    Trace,
    TraceStep,
    attach_step,
    crank_to_mex,
    detach_step,
    fold,
    fold_complement,
    fold_pair,
    fold_step,
    from_low_crank,
    mex_to_crank,
    negate_crank,
    to_low_crank,
    unfold,
    unfold_complement,
    unfold_pair,
    unfold_step,
)
from .verify import (
    ENUMERATION_LIMIT,
    CheckResult,
    CrankTable,
    VerificationReport,
    count_matching,
    crank_table,
    odd_mex_series,
    partition_series,
    partitions_of,
    run_theorem_suite,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_WEIGHT",
    "ENUMERATION_LIMIT",
    "FIXED_POINT",
    "PartitionError",
    "DomainError",
    "IterationLimitError",
    "Partition",
    "DurfeeTriple",
    "MexDecomposition",
    "staircase",
    "mex_split",
    "mex_join",
    "PairState",
    "StepResult",
    "TraceStep",
    "Trace",
    "fold_step",
    "unfold_step",
    "fold_pair",
    "unfold_pair",
    "fold",
    "unfold",
    "detach_step",
    "attach_step",
    "fold_complement",
    "unfold_complement",
    "to_low_crank",
    "from_low_crank",
    "negate_crank",
    "mex_to_crank",
    "crank_to_mex",
    "partitions_of",
    "count_matching",
    "CrankTable",
    "crank_table",
    "partition_series",
    "odd_mex_series",
    "CheckResult",
    "VerificationReport",
    "run_theorem_suite",
]
