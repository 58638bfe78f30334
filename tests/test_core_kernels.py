"""Native scoring kernels: logic, availability gate, fallback, agreement.

numba is optional, so these tests are written to pass on both CI legs of
the kernel matrix: where the extra is missing the kernels run as plain
Python through the no-op ``njit`` stand-in, and the fallback tests force
determinism with ``REPRO_NATIVE=0`` so they hold even where numba *is*
installed.  The agreement tests exercise :class:`NativeEngine` directly
(kernel logic is identical compiled or interpreted; only speed differs).
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import kernels
from repro.core.kernels import (
    NativeEngine,
    _fused_scores,
    _topk_select,
    _worse,
)
from repro.exec.ops import NativeCppseKnnOp, NativeTopKOp, PreRankedSelectOp
from repro.hmm.utils import PROB_FLOOR


@pytest.fixture(autouse=True)
def _isolated_kernel_state():
    """Save/restore the module-level readiness cache and fallback counters
    so these tests neither observe nor leak cross-test state."""
    saved = (kernels._ready, kernels._fallbacks, kernels._warned)
    yield
    kernels._ready, kernels._fallbacks, kernels._warned = saved


def _assert_same_ranking(got, want, *, atol=1e-9):
    """Same users in the same order, scores within the tie tolerance."""
    assert [u for u, _ in got] == [u for u, _ in want]
    for (_, s_got), (_, s_want) in zip(got, want):
        assert s_got == pytest.approx(s_want, rel=0.0, abs=atol)


# ----------------------------------------------------------------------
# Selection kernel logic
# ----------------------------------------------------------------------
class TestTopKSelect:
    def _reference(self, scores, user_ids, k):
        order = sorted(range(len(scores)), key=lambda r: (-scores[r], user_ids[r]))
        return order[: min(k, len(scores))]

    def test_k_zero_selects_nothing(self):
        scores = np.array([3.0, 1.0, 2.0])
        uids = np.array([10, 11, 12], dtype=np.int64)
        out_idx = np.empty(0, dtype=np.int64)
        assert _topk_select(scores, uids, 0, out_idx) == 0

    def test_k_larger_than_n_returns_all_sorted(self):
        scores = np.array([1.0, 3.0, 2.0])
        uids = np.array([10, 11, 12], dtype=np.int64)
        out_idx = np.empty(3, dtype=np.int64)
        count = _topk_select(scores, uids, 50, out_idx)
        assert count == 3
        assert list(out_idx) == self._reference(scores, uids, 50)

    def test_ties_break_on_user_id_not_position(self):
        scores = np.array([1.0, 1.0, 1.0, 1.0])
        uids = np.array([40, 20, 30, 10], dtype=np.int64)
        out_idx = np.empty(2, dtype=np.int64)
        count = _topk_select(scores, uids, 2, out_idx)
        assert count == 2
        assert [int(uids[i]) for i in out_idx] == [10, 20]

    def test_worse_orders_by_score_then_user_id(self):
        scores = np.array([2.0, 1.0, 2.0])
        uids = np.array([5, 6, 3], dtype=np.int64)
        assert _worse(scores, uids, 1, 0)       # lower score loses
        assert not _worse(scores, uids, 0, 1)
        assert _worse(scores, uids, 0, 2)       # equal score: higher uid loses
        assert not _worse(scores, uids, 2, 0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=45),
    )
    def test_matches_sorted_reference(self, seed, n, k):
        rng = np.random.default_rng(seed)
        # Coarse quantization manufactures plenty of exact score ties.
        scores = rng.integers(0, 5, size=n).astype(np.float64)
        uids = rng.permutation(n).astype(np.int64) + 100
        out_idx = np.empty(max(k, 1), dtype=np.int64)
        count = _topk_select(scores, uids, k, out_idx)
        want = self._reference(scores, uids, k)
        assert count == len(want)
        assert list(out_idx[:count]) == want


# ----------------------------------------------------------------------
# Scoring kernel vs. NumPy reference (the matcher's arithmetic)
# ----------------------------------------------------------------------
class TestFusedScores:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=7),   # users
        st.integers(min_value=1, max_value=4),   # categories
        st.integers(min_value=1, max_value=5),   # producers
        st.integers(min_value=1, max_value=6),   # entities in the universe
        st.integers(min_value=0, max_value=4),   # entities in the query
    )
    def test_matches_numpy_reference(self, seed, n_users, n_cats, n_prods, n_ents, q_ents):
        rng = np.random.default_rng(seed)
        long_dist = rng.random((n_users, n_cats))
        short_dist = rng.random((n_users, n_cats))
        producer_counts = rng.integers(0, 6, size=(n_users, n_prods)).astype(np.float64)
        entity_counts = rng.integers(0, 6, size=(n_users, n_ents)).astype(np.float64)
        n_long = producer_counts.sum(axis=1)
        n_tokens = entity_counts.sum(axis=1)
        category = int(rng.integers(n_cats))
        producer = int(rng.integers(n_prods))
        ent_idx = rng.integers(0, n_ents, size=q_ents).astype(np.int64)
        ent_w = rng.uniform(0.01, 2.0, size=q_ents)
        mu, lam = float(rng.uniform(0.5, 20.0)), float(rng.uniform(0.0, 1.0))
        rows = np.arange(n_users, dtype=np.int64)
        out = np.empty(n_users)
        _fused_scores(
            category, producer, ent_idx, ent_w, 0, q_ents, rows,
            producer_counts, entity_counts, n_long, n_tokens, long_dist,
            short_dist, mu, n_prods, n_ents, PROB_FLOOR, lam, out,
        )
        p_long = np.maximum(long_dist[:, category], PROB_FLOOR)
        p_short = np.maximum(short_dist[:, category], PROB_FLOOR)
        p_prod = (producer_counts[:, producer] + mu / n_prods) / (n_long + mu)
        esum = np.zeros(n_users)
        for j in range(q_ents):
            esum += ent_w[j] * (entity_counts[:, ent_idx[j]] + mu / n_ents) / (n_tokens + mu)
        r_long = (
            np.log(p_long)
            + np.log(np.maximum(p_prod, PROB_FLOOR))
            + np.log(np.maximum(esum, PROB_FLOOR))
        )
        want = (1.0 - lam) * r_long + lam * np.log(p_short)
        np.testing.assert_allclose(out, want, rtol=0.0, atol=1e-9)


# ----------------------------------------------------------------------
# Availability gate, warning discipline, telemetry
# ----------------------------------------------------------------------
class TestAvailabilityGate:
    def test_env_kill_switch_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        kernels._reset_native_state()
        assert kernels.native_ready() is False
        # The kill switch must not poison the cache for when it is lifted.
        assert kernels._ready is None

    @pytest.mark.skipif(kernels.NUMBA_AVAILABLE, reason="numba installed")
    def test_not_ready_without_numba(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        kernels._reset_native_state()
        assert kernels.native_ready() is False

    @pytest.mark.skipif(not kernels.NUMBA_AVAILABLE, reason="numba missing")
    def test_self_test_passes_with_numba(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        kernels._reset_native_state()
        assert kernels.native_ready() is True

    def test_self_test_accepts_plain_python_kernels(self):
        # The reference comparison inside the probe must hold however the
        # kernels execute; without numba we can run it directly.
        assert kernels._self_test() is True

    def test_record_fallback_warns_exactly_once(self):
        kernels._reset_native_state()
        assert kernels.fallback_count() == 0
        with pytest.warns(RuntimeWarning, match="scan-item-native"):
            kernels.record_fallback("scan-item-native")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernels.record_fallback("index-item-native")
        assert kernels.fallback_count() == 2

    def test_obs_registry_reports_readiness_and_fallbacks(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        kernels._reset_native_state()
        with pytest.warns(RuntimeWarning):
            kernels.record_fallback("scan-item-native")
        kernels.record_fallback("scan-batch-native")
        registry = kernels.obs_registry()
        assert registry.gauge("native.ready").value == 0.0
        assert registry.counter("native.fallbacks").value == 2


# ----------------------------------------------------------------------
# Fallback serving: native plan, kernels unavailable
# ----------------------------------------------------------------------
class TestFallbackServing:
    def test_configure_rejects_unknown_backend(self, fresh_ssrec):
        with pytest.raises(ValueError, match="scoring"):
            fresh_ssrec.configure(scoring="gpu")

    def test_fallback_is_bit_identical_and_counted(
        self, fresh_ssrec, ytube_small, monkeypatch
    ):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        kernels._reset_native_state()
        items = ytube_small.items[:6]
        expected_item = fresh_ssrec.recommend(items[0], 10)
        expected_batch = fresh_ssrec.recommend_batch(items, 10)

        fresh_ssrec.configure(scoring="native")
        with pytest.warns(RuntimeWarning, match="vectorized path"):
            got_item = fresh_ssrec.recommend(items[0], 10)
        assert got_item == expected_item  # bit-identical, not just close
        assert fresh_ssrec.recommend_batch(items, 10) == expected_batch
        assert kernels.fallback_count() >= 1
        assert kernels.obs_registry().gauge("native.ready").value == 0.0

    def test_fallback_plan_compiles_vectorized_ops(self, fresh_ssrec, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        kernels._reset_native_state()
        fresh_ssrec.configure(scoring="native")
        with pytest.warns(RuntimeWarning):
            compiled = fresh_ssrec.executor()
        assert compiled.plan.name == "scan-item-native"
        op_types = {type(op) for op in compiled.ops}
        assert NativeTopKOp not in op_types
        assert NativeCppseKnnOp not in op_types


# ----------------------------------------------------------------------
# NativeEngine vs. the machinery it accelerates (plain-Python kernels)
# ----------------------------------------------------------------------
class TestNativeEngineScan:
    def test_rejects_negative_k(self, fitted_ssrec):
        engine = NativeEngine(fitted_ssrec.matcher)
        with pytest.raises(ValueError, match="k must be"):
            engine.top_k_batch([], -1)

    @pytest.mark.parametrize("k", [0, 1, 5, 50])
    def test_top_k_matches_matcher(self, fitted_ssrec, ytube_small, k):
        engine = NativeEngine(fitted_ssrec.matcher)
        for item in ytube_small.items[:4]:
            _assert_same_ranking(
                engine.top_k(item, k), fitted_ssrec.matcher.top_k(item, k)
            )

    def test_top_k_batch_matches_matcher(self, fitted_ssrec, ytube_small):
        engine = NativeEngine(fitted_ssrec.matcher)
        items = ytube_small.items[:8]
        got = engine.top_k_batch(items, 7)
        want = fitted_ssrec.matcher.top_k_batch(items, 7)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same_ranking(g, w)


class TestNativeEngineIndex:
    @pytest.mark.parametrize("k", [0, 1, 5, 50])
    def test_knn_matches_index(self, fitted_ssrec_indexed, ytube_small, k):
        rec = fitted_ssrec_indexed
        engine = NativeEngine(rec.matcher, rec.index)
        for item in ytube_small.items[:4]:
            _assert_same_ranking(engine.knn(item, k), rec.index.knn(item, k))

    def test_knn_batch_matches_index(self, fitted_ssrec_indexed, ytube_small):
        rec = fitted_ssrec_indexed
        engine = NativeEngine(rec.matcher, rec.index)
        items = ytube_small.items[:8]
        got = engine.knn_batch(items, 7)
        want = rec.index.knn_batch(items, 7)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same_ranking(g, w)


# ----------------------------------------------------------------------
# Forced-native plan compilation and serving
# ----------------------------------------------------------------------
class TestForcedNativeServing:
    """Force ``native_ready()`` True so plan compilation takes the native
    branch; without numba the kernels execute as plain Python, which
    keeps these end-to-end checks meaningful on every matrix leg."""

    @pytest.fixture(autouse=True)
    def _force_ready(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        monkeypatch.setattr(kernels, "_ready", True)

    def test_scan_plan_compiles_native_ops(self, fresh_ssrec, ytube_small):
        fresh_ssrec.configure(scoring="native")
        compiled = fresh_ssrec.executor()
        assert compiled.plan.name == "scan-item-native"
        op_types = [type(op) for op in compiled.ops]
        assert NativeTopKOp in op_types
        assert PreRankedSelectOp in op_types
        vectorized = fresh_ssrec.configure(scoring="vectorized").recommend(
            ytube_small.items[0], 10
        )
        native = fresh_ssrec.configure(scoring="native").recommend(ytube_small.items[0], 10)
        _assert_same_ranking(native, vectorized)

    def test_index_plan_compiles_native_ops(self, fresh_ssrec_indexed, ytube_small):
        rec = fresh_ssrec_indexed
        rec.configure(scoring="native")
        compiled = rec.executor()
        assert compiled.plan.name == "index-item-native"
        assert NativeCppseKnnOp in [type(op) for op in compiled.ops]
        items = ytube_small.items[:5]
        vectorized = rec.configure(scoring="vectorized").recommend_batch(items, 10)
        native = rec.configure(scoring="native").recommend_batch(items, 10)
        for g, w in zip(native, vectorized):
            _assert_same_ranking(g, w)

    def test_no_fallback_recorded_when_ready(self, fresh_ssrec, ytube_small):
        before = kernels.fallback_count()
        fresh_ssrec.configure(scoring="native")
        fresh_ssrec.recommend(ytube_small.items[0], 5)
        assert kernels.fallback_count() == before
