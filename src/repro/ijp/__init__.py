"""Independent Join Paths (Section 9, Appendix C).

An IJP is a canonical database certifying hardness of RES(q) via a
generalized vertex-cover reduction (Definition 48, Conjecture 49):

* :mod:`repro.ijp.checker` — verify the five IJP conditions for a
  given (database, query, tuple pair);
* :mod:`repro.ijp.rgs` — restricted-growth-string enumeration of the
  partition space: vectorized lex-order expansion, exact subtree
  counting, contiguous sharding;
* :mod:`repro.ijp.space` — batched Definition 48 screening over RGS
  ranges: sound subtree pruning, vectorized leaf filters, the shared
  condition-5 hitting-set prescreen, engine-probe certification;
* :mod:`repro.ijp.search` — the Appendix C.2 procedure (Example 62):
  enumerate canonical join copies and constant partitions, test each
  merged database (the recursive baseline the vectorized engine is
  benchmarked against is the test oracle ``tests/oracles/ijp.py``);
* :mod:`repro.ijp.sweep` — the sharded, resumable, distributed sweep
  and the standing open-conjecture table (``docs/ijp.md``);
* :mod:`repro.ijp.examples` — the paper's concrete IJP databases
  (Examples 58-61).
"""

from repro.ijp.checker import IJPReport, check_ijp, find_ijp_pair
from repro.ijp.rgs import bell_number, rgs_from_partition, shard_space
from repro.ijp.search import canonical_database, ijp_search
from repro.ijp.space import (
    IJPCertificate,
    NearMiss,
    SpaceSweepResult,
    SpaceSweepStats,
    sweep_space,
)
from repro.ijp.sweep import (
    OPEN_QUERIES,
    OPEN_QUERY_STATUS,
    QuerySweep,
    SweepReport,
    certificate_is_proper,
    standing_queries,
    standing_sweep,
    sweep,
    sweep_range,
)
from repro.ijp.examples import (
    example_58_qvc,
    example_59_triangle,
    example_60_z5,
    example_60_z5_corrected,
    example_61_failed,
)

__all__ = [
    "IJPReport",
    "check_ijp",
    "find_ijp_pair",
    "bell_number",
    "rgs_from_partition",
    "shard_space",
    "ijp_search",
    "canonical_database",
    "IJPCertificate",
    "NearMiss",
    "SpaceSweepResult",
    "SpaceSweepStats",
    "sweep_space",
    "OPEN_QUERIES",
    "OPEN_QUERY_STATUS",
    "QuerySweep",
    "SweepReport",
    "certificate_is_proper",
    "standing_queries",
    "standing_sweep",
    "sweep",
    "sweep_range",
    "example_58_qvc",
    "example_59_triangle",
    "example_60_z5",
    "example_60_z5_corrected",
    "example_61_failed",
]
