"""Evaluation harness: metrics, stream protocol, per-figure experiments.

- :mod:`repro.eval.metrics` — P@k (the paper's definition), prediction
  accuracy, diversity, timing summaries.
- :mod:`repro.eval.harness` — :class:`StreamEvaluator`: replays the test
  partitions item-by-item with interleaved profile updates, judging hits
  against the partition's ground-truth interactions; includes the
  decomposed-score lambda sweep that makes Figs. 6-7 cheap.
- :mod:`repro.eval.figures` — one driver per table/figure (Table II-III,
  Figs. 5-11), each returning a structured result.
- :mod:`repro.eval.systems` — the serving-stack drivers beyond the paper
  (throughput, sharding, dedup, kernels, the wire, conformance), built on
  :mod:`repro.eval.serving`'s one timed-arms protocol.
- :mod:`repro.eval.reporting` — plain-text tables matching the paper's
  rows/series.
"""

from repro.eval.metrics import (
    PrecisionAccumulator,
    TimingStats,
    intra_list_distance,
    precision_at_k,
)
from repro.eval.harness import EvalOutcome, StreamEvaluator
from repro.eval import figures, systems
from repro.eval.reporting import format_table, format_series

__all__ = [
    "PrecisionAccumulator",
    "TimingStats",
    "intra_list_distance",
    "precision_at_k",
    "EvalOutcome",
    "StreamEvaluator",
    "figures",
    "systems",
    "format_table",
    "format_series",
]
