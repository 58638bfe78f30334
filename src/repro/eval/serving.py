"""Shared pieces of the serving experiments (:mod:`repro.eval.systems`):
the fitted recommender, the served test slice, the serving *arm*, and
:func:`time_arms` — the one protocol for comparing arms (batch sizes,
fan-out backends, memo modes, scoring kernels, server dispatch modes)
serving the same inputs: untimed warm-up, rotating serve order, parity
judged on the very outputs that were timed.
"""

from __future__ import annotations

import gc
import operator
import time
from collections.abc import Callable, Hashable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.core.config import SsRecConfig
from repro.core.ssrec import SsRecRecommender
from repro.datasets.partitions import PartitionedStream, partition_interactions
from repro.datasets.schema import Dataset, SocialItem


def fit_ssrec(
    dataset: Dataset,
    stream: PartitionedStream,
    config: SsRecConfig,
    use_index: bool = False,
    seed: int = 1,
) -> SsRecRecommender:
    """An ssRec recommender fitted on ``stream``'s training partitions."""
    rec = SsRecRecommender(config=config, use_index=use_index, seed=seed)
    return rec.fit(dataset, stream.training_interactions())


def serving_slice(
    dataset: Dataset, max_items: int
) -> tuple[PartitionedStream, list[SocialItem]]:
    """Partition ``dataset`` and take the first ``max_items`` test-partition
    uploads — the fixed item slice the throughput drivers serve."""
    stream = partition_interactions(dataset)
    items = [
        item
        for partition in stream.test_indices
        for item in stream.items_in_partition(partition)
    ][: int(max_items)]
    if not items:
        raise ValueError("dataset has no test items to serve")
    return stream, items


def windows_of(items: Sequence, size: int) -> list:
    """``items`` cut into consecutive windows of ``size`` (last one partial)."""
    return [items[start : start + size] for start in range(0, len(items), size)]


def serve_arm(recommender, k: int, batch_size: int, samples: list | None = None):
    """A :func:`time_arms` arm: ``serve(items)`` -> one ranked list per
    item, through ``recommend`` at ``batch_size=1`` (with ``samples``, the
    latest pass's per-call seconds are left in it) and through
    ``recommend_batch`` windows of ``batch_size`` otherwise."""

    def serve(items: Sequence) -> list:
        if batch_size > 1:
            return [
                ranked
                for window in windows_of(items, batch_size)
                for ranked in recommender.recommend_batch(window, k)
            ]
        if samples is None:
            return [recommender.recommend(item, k) for item in items]
        samples.clear()
        ranked_lists = []
        for item in items:
            started = time.perf_counter()
            ranked_lists.append(recommender.recommend(item, k))
            samples.append(time.perf_counter() - started)
        return ranked_lists

    return serve


def rate(count: float, seconds: float) -> float:
    """``count / seconds`` — 0 when nothing was timed."""
    return count / seconds if seconds else 0.0


@dataclass
class ArmsResult:
    """Base of the arm-vs-arm results: every arm served the same items.

    Attributes:
        n_served: items each arm served during its timed seconds.
        seconds: arm -> timed seconds.
        parity_ok: every judged arm returned the reference arm's answers
            while it was being timed.
    """

    n_served: int
    seconds: dict
    parity_ok: bool

    def items_per_sec(self, arm: Hashable) -> float:
        return rate(self.n_served, self.seconds[arm])

    def speedup(self, arm: Hashable, over: Hashable) -> float:
        """Throughput of ``arm`` relative to ``over``."""
        return rate(self.seconds[over], self.seconds[arm])

    def _arm_line(self, label: str, arm: Hashable) -> str:
        return (
            f"  {label} {self.items_per_sec(arm):9.1f} items/sec "
            f"({self.seconds[arm]:.3f}s)"
        )


@dataclass
class ArmTimings:
    """What :func:`time_arms` measured.

    Attributes:
        seconds: arm -> timed seconds of each round, in round order.
        outputs: arm -> what the arm returned in each timed round.
        diverged: arms whose output failed the judge against the
            reference (first) arm's in some round.
    """

    seconds: dict[Hashable, list[float]] = field(default_factory=dict)
    outputs: dict[Hashable, list] = field(default_factory=dict)
    diverged: list[Hashable] = field(default_factory=list)

    @property
    def parity_ok(self) -> bool:
        return not self.diverged

    def total(self, arm: Hashable) -> float:
        """Seconds ``arm`` spent over all timed rounds."""
        return sum(self.seconds[arm])


def time_arms(
    arms: Mapping[Hashable, Callable[[Any], Any]],
    rounds: Iterable[Any],
    judge: Callable[[Any, Any], bool] = operator.eq,
    warm: bool = True,
    clock: Callable[[], float] = time.perf_counter,
) -> ArmTimings:
    """Serve every round's input through every arm, timed and judged.

    Args:
        arms: name -> ``serve(round_input) -> output``; the first arm is
            the reference the others are judged against.
        rounds: one input per timed round.  A generator may do untimed
            work between rounds (apply stream writes, sync replicas).
        judge: ``judge(got, want)`` compares an arm's output with the
            reference arm's *of the same timed round*, so a measured win
            is proven correct as it is measured.
        warm: serve the first round's input through every arm untimed
            first (cache fills, JIT compilation, worker spawn).  Off only
            where an arm's first serve is the measurement — a warm-up
            would pre-fill a memo stage.
        clock: the timer (tests substitute a fake).

    Who serves first rotates by one arm per round, so no arm
    systematically inherits caches another has warmed.  Garbage is
    collected once before the first timed round, so no arm pays a
    full collection of what earlier arms, their construction or the
    warm-up left behind.
    """
    names = list(arms)
    timings = ArmTimings({n: [] for n in names}, {n: [] for n in names})
    for index, round_input in enumerate(rounds):
        if index == 0:
            if warm:
                for name in names:
                    arms[name](round_input)
            gc.collect()
        first = index % len(names)
        for name in names[first:] + names[:first]:
            started = clock()
            output = arms[name](round_input)
            timings.seconds[name].append(clock() - started)
            timings.outputs[name].append(output)
        want = timings.outputs[names[0]][-1]
        for name in names[1:]:
            if name not in timings.diverged and not judge(
                timings.outputs[name][-1], want
            ):
                timings.diverged.append(name)
    return timings
