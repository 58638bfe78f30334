"""The shared serving-experiment pieces: ``serving_slice`` and ``time_arms``."""

import pytest

from repro.datasets.schema import Dataset
from repro.eval.serving import serving_slice, time_arms


class FakeClock:
    """A clock only the arms advance, so timed seconds are exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_arms(clock, costs, answer=lambda name, x: x):
    """Arms that take ``costs[name]`` fake seconds and log ``(name, input)``."""
    calls = []

    def arm(name):
        def serve(round_input):
            calls.append((name, round_input))
            clock.now += costs[name]
            return answer(name, round_input)

        return serve

    return {name: arm(name) for name in costs}, calls


class TestTimeArms:
    def test_warm_up_is_untimed(self):
        clock = FakeClock()
        arms, calls = make_arms(clock, {"a": 1.0, "b": 2.0})
        timings = time_arms(arms, ["r0", "r1"], clock=clock)
        # Every arm served the first round's input once more than it was timed.
        assert calls[:2] == [("a", "r0"), ("b", "r0")]
        assert len(calls) == 2 + 2 * 2
        assert timings.seconds == {"a": [1.0, 1.0], "b": [2.0, 2.0]}
        assert timings.total("b") == 4.0
        assert timings.outputs == {"a": ["r0", "r1"], "b": ["r0", "r1"]}

    def test_no_warm_up_when_first_serve_is_the_measurement(self):
        clock = FakeClock()
        arms, calls = make_arms(clock, {"a": 1.0, "b": 1.0})
        time_arms(arms, ["r0"], warm=False, clock=clock)
        assert calls == [("a", "r0"), ("b", "r0")]

    def test_each_arm_serves_first_equally_often(self):
        clock = FakeClock()
        arms, calls = make_arms(clock, {"a": 1.0, "b": 1.0, "c": 1.0})
        time_arms(arms, range(6), warm=False, clock=clock)
        firsts = [name for name, _ in calls[::3]]
        assert firsts == ["a", "b", "c", "a", "b", "c"]
        # ... and every round still serves every arm exactly once.
        for start in range(0, len(calls), 3):
            assert sorted(name for name, _ in calls[start : start + 3]) == ["a", "b", "c"]

    def test_diverging_arm_flips_parity_and_names_itself(self):
        clock = FakeClock()
        arms, _ = make_arms(
            clock,
            {"ref": 1.0, "good": 1.0, "bad": 1.0},
            answer=lambda name, x: -x if name == "bad" and x == 2 else x,
        )
        timings = time_arms(arms, [1, 2, 3], clock=clock)
        assert not timings.parity_ok
        assert timings.diverged == ["bad"]

    def test_agreeing_arms_keep_parity_under_a_custom_judge(self):
        clock = FakeClock()
        arms, _ = make_arms(
            clock, {"ref": 1.0, "near": 1.0}, answer=lambda name, x: x + (name == "near") * 1e-12
        )
        timings = time_arms(
            arms, [1.0, 2.0], judge=lambda got, want: abs(got - want) < 1e-9, clock=clock
        )
        assert timings.parity_ok and timings.diverged == []


class TestServingSlice:
    def test_takes_first_test_partition_items(self, ytube_small):
        stream, items = serving_slice(ytube_small, 7)
        assert len(items) == 7
        first = stream.items_in_partition(stream.test_indices[0])
        assert items == first[:7]

    def test_dataset_without_test_items_rejected(self, ytube_small):
        empty = Dataset(
            name="empty",
            n_categories=ytube_small.n_categories,
            items=[],
            interactions=ytube_small.interactions,
            entity_names=ytube_small.entity_names,
            producer_ids=ytube_small.producer_ids,
            consumer_ids=ytube_small.consumer_ids,
        )
        with pytest.raises(ValueError, match="no test items"):
            serving_slice(empty, 4)
