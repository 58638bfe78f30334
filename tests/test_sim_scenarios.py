"""Scenario generator: determinism, catalog invariants, stream integrity."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.datasets.schema import Dataset, Interaction, SocialItem
from repro.sim import SCENARIOS, Scenario, ScenarioGenerator, StreamEvent


@pytest.fixture(scope="module")
def generator(ytube_small):
    return ScenarioGenerator(base=ytube_small, seed=11, max_events=240)


@pytest.fixture(scope="module")
def catalog(generator):
    """Every scenario, generated once for the whole module."""
    return {name: generator.generate(name) for name in SCENARIOS}


def _event_key(event):
    return (event.kind, event.timestamp, event.payload)


def _unperturbed_events(generator, scenario):
    """Reconstruct the pre-perturbation serving stream of ``scenario``.

    The split and merge are deterministic functions of the synthesized
    dataset (``scenario.dataset``), so the unperturbed stream can be
    rebuilt without replaying the generator's random draws.
    """
    syn = scenario.dataset
    ordered = sorted(syn.interactions, key=lambda i: (i.timestamp, i.item_id, i.user_id))
    cut = max(2, int(len(ordered) * generator.train_fraction))
    cutoff = ordered[cut - 1].timestamp
    serve_items = [it for it in syn.items if it.timestamp > cutoff]
    return ScenarioGenerator._merge(serve_items, ordered[cut:])[: generator.max_events]


class TestDeterminism:
    def test_same_seed_same_stream(self, ytube_small):
        a = ScenarioGenerator(base=ytube_small, seed=3, max_events=120)
        b = ScenarioGenerator(base=ytube_small, seed=3, max_events=120)
        left = a.generate("duplicate_out_of_order")
        right = b.generate("duplicate_out_of_order")
        assert [_event_key(e) for e in left.events] == [
            _event_key(e) for e in right.events
        ]
        assert left.train_interactions == right.train_interactions

    def test_scenarios_independent_of_generation_order(self, ytube_small):
        """Each scenario's stream depends only on (seed, name)."""
        a = ScenarioGenerator(base=ytube_small, seed=3, max_events=120)
        first = a.generate("abrupt_drift")
        b = ScenarioGenerator(base=ytube_small, seed=3, max_events=120)
        b.generate("bursty_uploads")  # interleave another generation
        second = b.generate("abrupt_drift")
        assert [_event_key(e) for e in first.events] == [
            _event_key(e) for e in second.events
        ]

    def test_different_seeds_differ(self, ytube_small):
        a = ScenarioGenerator(base=ytube_small, seed=3, max_events=120).generate("baseline")
        b = ScenarioGenerator(base=ytube_small, seed=4, max_events=120).generate("baseline")
        assert [_event_key(e) for e in a.events] != [_event_key(e) for e in b.events]

    def test_unknown_scenario_rejected(self, generator):
        with pytest.raises(ValueError, match="unknown scenario"):
            generator.generate("meteor_strike")


class TestStreamIntegrity:
    def test_every_scenario_has_both_event_kinds(self, catalog):
        for name, scenario in catalog.items():
            summary = scenario.summary()
            assert summary["n_uploads"] > 0, name
            assert summary["n_interactions"] > 0, name
            assert summary["n_events"] == len(scenario.events), name

    def test_max_events_honoured_after_perturbation(self, generator, catalog):
        """Event-adding scenarios (duplicates, injected uploads) must
        still respect the configured stream-length cap."""
        for name, scenario in catalog.items():
            assert len(scenario.events) <= generator.max_events, name

    def test_interactions_resolve_to_consistent_items(self, catalog):
        """Every interaction's denormalized fields match its item payload —
        the invariant the profile/index layers depend on."""
        for name, scenario in catalog.items():
            for inter in scenario.interactions():
                item = scenario.item_payload(inter)
                assert item is not None, (name, inter.item_id)
                assert item.item_id == inter.item_id
                assert item.category == inter.category
                assert item.producer == inter.producer

    def test_upload_ids_unique_except_redelivery(self, catalog):
        """Uploads are delivered exactly once — except in the scenarios
        whose at-least-once transport redelivers uploads on purpose:
        duplicate/out-of-order (the exact memo's bench surface) and the
        mutated-retry / cross-producer-repost pair (the dedup stage's,
        which mix exact redeliveries with fresh-id near-duplicates)."""
        redelivering = {
            "duplicate_out_of_order", "mutated_retry", "cross_producer_repost",
        }
        for name, scenario in catalog.items():
            ids = [it.item_id for it in scenario.uploads()]
            if name in redelivering:
                assert len(ids) > len(set(ids)), name  # redelivery happened
            else:
                assert len(ids) == len(set(ids)), name

    def test_training_slice_precedes_serving(self, catalog):
        for name, scenario in catalog.items():
            cutoff = scenario.train_interactions[-1].timestamp
            assert all(
                it.timestamp > cutoff for it in scenario.uploads()
            ), name


class TestScenarioShapes:
    def test_baseline_is_clean(self, catalog):
        summary = catalog["baseline"].summary()
        assert summary["n_new_users"] == 0
        assert summary["n_new_items"] == 0
        assert summary["n_new_producers"] == 0

    def test_bursty_uploads_clump(self, catalog):
        events = catalog["bursty_uploads"].events
        run = best = 0
        for event in events:
            run = run + 1 if event.kind == "upload" else 0
            best = max(best, run)
        n_uploads = catalog["bursty_uploads"].summary()["n_uploads"]
        assert best >= min(12, n_uploads)

    def test_cold_start_users_are_unseen(self, catalog):
        scenario = catalog["cold_start_users"]
        known = set(scenario.dataset.consumer_ids) | set(scenario.dataset.producer_ids)
        new_users = {i.user_id for i in scenario.interactions()} - known
        assert new_users
        assert not any(
            i.user_id in new_users for i in scenario.train_interactions
        )

    def test_cold_start_producers_upload_mid_stream(self, catalog):
        scenario = catalog["cold_start_producers"]
        known = set(scenario.dataset.producer_ids)
        novel_uploads = [it for it in scenario.uploads() if it.producer not in known]
        assert novel_uploads
        assert scenario.extra_items
        assert {it.item_id for it in novel_uploads} == set(scenario.extra_items)
        # And users actually interact with the novel items.
        novel_ids = set(scenario.extra_items)
        assert any(i.item_id in novel_ids for i in scenario.interactions())

    def test_abrupt_drift_rotates_categories(self, generator, catalog):
        """Post-midpoint interactions are re-pointed into the rotated
        category block; pre-midpoint ones are untouched."""
        scenario = catalog["abrupt_drift"]
        pre = _unperturbed_events(generator, scenario)
        post = scenario.events
        assert len(pre) == len(post)
        shift = max(1, scenario.dataset.n_categories // 2)
        midpoint = len(post) / 2
        remapped = 0
        for position, (before, after) in enumerate(zip(pre, post)):
            if before.kind != "interact":
                continue
            if position < midpoint:
                assert after.payload == before.payload
            elif after.payload != before.payload:
                expected = (before.payload.category + shift) % scenario.dataset.n_categories
                assert after.payload.category == expected
                remapped += 1
        assert remapped > 0

    def test_skewed_producers_hot_spot(self, catalog):
        scenario = catalog["skewed_producers"]
        inters = scenario.interactions()
        counts = {}
        for inter in inters:
            counts[inter.producer] = counts.get(inter.producer, 0) + 1
        hottest = max(counts.values())
        assert hottest >= 0.5 * len(inters)

    def test_duplicates_and_disorder(self, catalog):
        scenario = catalog["duplicate_out_of_order"]
        inters = scenario.interactions()
        keys = [(i.user_id, i.item_id, i.timestamp) for i in inters]
        assert len(keys) > len(set(keys))  # duplicates delivered
        times = [e.timestamp for e in scenario.events]
        assert times != sorted(times)  # delivery out of timestamp order

    def test_maintenance_storm_cadence(self, catalog):
        scenario = catalog["maintenance_storm"]
        assert scenario.maintenance_interval == 5
        # Interactions arrive in bursts around the cadence, not singly.
        run = best = 0
        for event in scenario.events:
            run = run + 1 if event.kind == "interact" else 0
            best = max(best, run)
        assert best >= scenario.maintenance_interval


class TestGeneratorValidation:
    def test_rejects_bad_train_fraction(self, ytube_small):
        with pytest.raises(ValueError, match="train_fraction"):
            ScenarioGenerator(base=ytube_small, train_fraction=1.0)

    def test_rejects_tiny_max_events(self, ytube_small):
        with pytest.raises(ValueError, match="max_events"):
            ScenarioGenerator(base=ytube_small, max_events=3)

    def test_catalog_names_stable(self):
        assert ScenarioGenerator.names() == SCENARIOS
        assert len(SCENARIOS) >= 8


class TestReplaySteps:
    """``Scenario.steps`` is the one windowing walk every replay driver
    (conformance, loadgen, the dedup experiment) consumes."""

    @staticmethod
    def _scenario(kinds):
        """A stream whose i-th event is an upload (True) or an interaction
        (False) about item i; only even item ids are known to the dataset."""
        items = [SocialItem(i, 0, 0, (), "", float(i)) for i in range(len(kinds))]
        events = [
            StreamEvent(float(i), "upload", items[i])
            if is_upload
            else StreamEvent(float(i), "interact", Interaction(1, i, 0, 0, float(i)))
            for i, is_upload in enumerate(kinds)
        ]
        dataset = Dataset(name="steps", n_categories=1, items=items[::2])
        return Scenario("steps", "", 0, dataset, [], events)

    @given(kinds=st.lists(st.booleans(), max_size=60), window_size=st.integers(1, 9))
    def test_steps_window_the_events_in_order(self, kinds, window_size):
        scenario = self._scenario(kinds)
        steps = list(scenario.steps(window_size))
        # Flattening the write steps reproduces the events, in order.
        writes = [step for step in steps if step.kind != "serve"]
        assert [
            ("upload", step.item) if step.kind == "observe" else ("interact", step.interaction)
            for step in writes
        ] == [(event.kind, event.payload) for event in scenario.events]
        for step in writes:
            if step.kind == "update":
                assert step.item is scenario.item_payload(step.interaction)
        # Every upload lands in exactly one window, in upload order ...
        windows = [step.window for step in steps if step.kind == "serve"]
        assert [item for window in windows for item in window] == scenario.uploads()
        # ... every window but the flushed tail is exactly full ...
        assert all(len(window) == window_size for window in windows[:-1])
        assert all(1 <= len(window) <= window_size for window in windows)
        # ... and a window is served the moment its last upload was
        # observed: nothing but the observes of the next window's items
        # and updates sit between two serve steps.
        served = 0
        observed = 0
        for step in steps:
            if step.kind == "observe":
                observed += 1
            elif step.kind == "serve":
                served += len(step.window)
                assert served == observed
        assert served == len(scenario.uploads())

    def test_catalog_scenarios_flush_their_tail(self, catalog):
        for scenario in catalog.values():
            served = [
                item
                for step in scenario.steps(7)
                if step.kind == "serve"
                for item in step.window
            ]
            assert served == scenario.uploads(), scenario.name

    def test_window_size_validated(self, catalog):
        with pytest.raises(ValueError, match="window_size"):
            next(catalog["baseline"].steps(0))
