"""repro.sim — adversarial workload simulation + differential conformance.

The exactness backstop of the serving stack:

- :mod:`repro.sim.scenarios` — :class:`ScenarioGenerator`, a seeded
  catalog of adversarial stream scenarios (bursts, cold starts, drift,
  skew, duplicates/out-of-order delivery, maintenance-boundary storms)
  composed on top of the synthpop resampler;
- :mod:`repro.sim.oracle` — :class:`OracleMatcher`, the naive per-pair
  reference matcher every serving path is judged against;
- :mod:`repro.sim.conformance` — :class:`ConformanceRunner`, which
  replays each scenario through the scan, batched, CPPse-index and
  sharded serving paths (including a mid-stream snapshot reload) and
  counts top-k divergences.

Run the whole suite from the shell with ``python -m repro.eval
conformance``; see docs/TESTING.md for the catalog and the comparison
semantics.
"""

from repro.sim.conformance import (
    CONFORMANCE_PATHS,
    ConformanceReport,
    ConformanceRunner,
    Divergence,
    PathReport,
    fit_template,
)
from repro.sim.oracle import OracleMatcher, matches_exactly, matches_within_ties
from repro.sim.scenarios import SCENARIOS, ReplayStep, Scenario, ScenarioGenerator, StreamEvent

__all__ = [
    "SCENARIOS",
    "Scenario",
    "ScenarioGenerator",
    "StreamEvent",
    "ReplayStep",
    "OracleMatcher",
    "matches_exactly",
    "matches_within_ties",
    "CONFORMANCE_PATHS",
    "ConformanceRunner",
    "fit_template",
    "ConformanceReport",
    "PathReport",
    "Divergence",
]
