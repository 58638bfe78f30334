"""Shared fixtures: tiny deterministic datasets and fitted recommenders.

Session-scoped where construction is expensive; tests must not mutate
session-scoped fixtures (mutating tests build their own instances).
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.core.config import SsRecConfig
from repro.core.ssrec import SsRecRecommender
from repro.datasets.mlens import MLensConfig, generate_mlens
from repro.datasets.partitions import partition_interactions
from repro.datasets.ytube import YTubeConfig, generate_ytube
from repro.serve.shmem import SEGMENT_PREFIX, live_segment_names


@pytest.fixture(autouse=True)
def _no_leaked_segments():
    """Suite-wide guard: every test leaves zero live shared-memory segments.

    The shmem backend's whole contract is explicit segment lifecycle
    (publish → retire/close); a leaked segment means a publisher or
    attachment outlived its owner — the class of bug CPython's
    resource-tracker warnings hint at but don't fail on.  Segment names
    embed the publishing process's pid and publishing only ever happens
    in the parent (workers are readers), so the guard scopes itself to
    *this* process's segments — segments that predate the test or belong
    to concurrent unrelated runs on the same host are tolerated; only
    segments created and left behind by this test fail it.
    """
    mine = f"{SEGMENT_PREFIX}{os.getpid():x}-"
    before = set(live_segment_names())
    yield
    leaked = [
        name
        for name in live_segment_names()
        if name.startswith(mine) and name not in before
    ]
    assert not leaked, f"test leaked shared-memory segments: {leaked}"


@pytest.fixture(autouse=True)
def _no_leaked_workers():
    """Suite-wide guard: no test leaves a shard worker process running.

    Every ``ShardWorkerPool`` worker is a ``multiprocessing`` child named
    ``repro-*``; a service that is never closed leaves its workers alive
    until the interpreter exits — the leak that ends a CI job with
    processes still running.  Workers that predate the test (a
    module-scoped fixture's warmed pool) are tolerated; any other live
    one fails the test and is reaped, so one leak cannot cascade into
    the tests after it.
    """
    before = {child.pid for child in multiprocessing.active_children()}
    yield
    leaked = [
        child
        for child in multiprocessing.active_children()
        if child.name.startswith("repro-") and child.pid not in before
    ]
    for child in leaked:
        child.terminate()
    for child in leaked:
        child.join(timeout=10)
    assert not leaked, f"test left worker processes running: {leaked}"


@pytest.fixture(scope="session")
def ytube_small():
    """Tiny YTube-like dataset (read-only)."""
    return generate_ytube(YTubeConfig.small())


@pytest.fixture(scope="session")
def mlens_small():
    """Tiny MLens-like dataset (read-only)."""
    return generate_mlens(MLensConfig.small())


@pytest.fixture(scope="session")
def ytube_stream(ytube_small):
    """Partitioned tiny YTube stream (read-only)."""
    return partition_interactions(ytube_small)


@pytest.fixture(scope="session")
def fitted_ssrec(ytube_small, ytube_stream):
    """ssRec fitted on the tiny YTube training slice, scan mode (read-only:
    recommend-only usage; tests that update must build their own)."""
    rec = SsRecRecommender(config=SsRecConfig(), use_index=False, seed=1)
    rec.fit(ytube_small, ytube_stream.training_interactions())
    return rec


@pytest.fixture(scope="session")
def fitted_ssrec_indexed(ytube_small, ytube_stream):
    """ssRec fitted with the CPPse-index on the tiny YTube training slice."""
    rec = SsRecRecommender(config=SsRecConfig(), use_index=True, seed=1)
    rec.fit(ytube_small, ytube_stream.training_interactions())
    return rec


@pytest.fixture()
def fresh_ssrec(ytube_small, ytube_stream):
    """A mutable per-test ssRec (scan mode)."""
    rec = SsRecRecommender(config=SsRecConfig(), use_index=False, seed=1)
    rec.fit(ytube_small, ytube_stream.training_interactions())
    return rec


@pytest.fixture()
def fresh_ssrec_indexed(ytube_small, ytube_stream):
    """A mutable per-test ssRec with the CPPse-index."""
    rec = SsRecRecommender(config=SsRecConfig(), use_index=True, seed=1)
    rec.fit(ytube_small, ytube_stream.training_interactions())
    return rec
