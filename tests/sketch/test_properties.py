"""Property-based guarantees of the three sketch families.

Runs only where ``hypothesis`` is installed (optional dev dependency,
same convention as ``tests/property``). ``derandomize=True`` keeps the
statistical asserts reproducible: the ``εN``-at-``δ`` CMS bound and the
``1.04/√m`` HLL error are confidence claims, so a fresh example stream
every run would turn their tail probability into CI flakes.
"""

from __future__ import annotations

import json
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.sketch import (  # noqa: E402
    CountMinSketch,
    HyperLogLog,
    SpaceSaving,
)
from repro.sketch.cms import SketchMergeError  # noqa: E402

DETERMINISTIC = settings(
    max_examples=40, deadline=None, derandomize=True
)

key = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789.-", min_size=1,
    max_size=16,
)
stream = st.lists(
    st.tuples(key, st.integers(min_value=1, max_value=50)),
    min_size=1,
    max_size=120,
)


def _truth(events):
    exact = {}
    for name, count in events:
        exact[name] = exact.get(name, 0) + count
    return exact


# -- count-min ----------------------------------------------------------------


@DETERMINISTIC
@given(stream)
def test_cms_never_undercounts(events):
    sketch = CountMinSketch(depth=4, width=512, seed=11)
    for name, count in events:
        sketch.update(name, count)
    exact = _truth(events)
    assert sketch.total == sum(exact.values())
    for name, count in exact.items():
        assert sketch.estimate(name) >= count


@DETERMINISTIC
@given(st.lists(stream, min_size=2, max_size=60))
def test_cms_overestimate_rate_within_delta(streams):
    """P(estimate > truth + eN) <= delta, checked as a rate."""
    sketch = CountMinSketch(depth=4, width=256, seed=7)
    events = [pair for chunk in streams for pair in chunk]
    for name, count in events:
        sketch.update(name, count)
    exact = _truth(events)
    bound = sketch.error_bound()
    assert bound == pytest.approx(sketch.epsilon * sketch.total)
    violations = sum(
        sketch.estimate(name) > count + bound
        for name, count in exact.items()
    )
    assert violations <= max(2, 2 * sketch.delta * len(exact))


def test_cms_conservative_tightens():
    additive = CountMinSketch(depth=4, width=64, seed=5)
    conservative = CountMinSketch(
        depth=4, width=64, seed=5, conservative=True
    )
    events = [(f"key-{i % 23}", 1 + i % 7) for i in range(500)]
    for name, count in events:
        additive.update(name, count)
        conservative.update(name, count)
    exact = _truth(events)
    for name, count in exact.items():
        assert count <= conservative.estimate(name) <= additive.estimate(
            name
        )


# -- space-saving -------------------------------------------------------------


@DETERMINISTIC
@given(stream)
def test_space_saving_guaranteed_frequency_invariant(events):
    summary = SpaceSaving(capacity=8)
    for name, count in events:
        summary.update(name, count)
    exact = _truth(events)
    floor = min(
        (count for count, _ in summary.counters.values()), default=0
    )
    for name, count, error in summary.top(len(summary.counters)):
        # count - error <= truth <= count for every tracked key.
        assert count - error <= exact[name] <= count
    for name, true_count in exact.items():
        if name not in summary.counters:
            # An evicted key's true count cannot beat the floor.
            assert true_count <= floor
    if summary.evictions == 0:
        assert summary.exact
        for name, count, error in summary.top(len(exact)):
            assert error == 0 and count == exact[name]


# -- hyperloglog --------------------------------------------------------------


@pytest.mark.parametrize("cardinality", [0, 1, 1000, 1_000_000])
def test_hll_relative_error_within_3_sigma(cardinality):
    counter = HyperLogLog(precision=12, seed=2016)
    for index in range(cardinality):
        counter.add(f"domain-{index}.example")
    estimate = counter.estimate()
    if cardinality <= 1:
        # Linear counting bias at one touched register is ~1/(2m).
        assert estimate == pytest.approx(cardinality, abs=0.01)
        return
    sigma = counter.relative_error
    assert abs(estimate - cardinality) <= 3 * sigma * cardinality


def test_hll_duplicates_do_not_count():
    counter = HyperLogLog(precision=12, seed=1)
    for _ in range(5000):
        counter.add("same-key")
    assert counter.estimate() == pytest.approx(1.0, abs=0.01)


@DETERMINISTIC
@given(
    st.lists(key, min_size=0, max_size=200),
    st.integers(min_value=0, max_value=200),
)
def test_hll_merge_equals_feed_byte_identically(keys, split):
    split = min(split, len(keys))
    whole = HyperLogLog(precision=6, seed=9)
    left = HyperLogLog(precision=6, seed=9)
    right = HyperLogLog(precision=6, seed=9)
    for name in keys:
        whole.add(name)
    for name in keys[:split]:
        left.add(name)
    for name in keys[split:]:
        right.add(name)
    left.merge(right)
    # Precision 6 -> 64 registers, sparse limit 16: these streams cross
    # the sparse->dense promotion on one side or both, and the merged
    # representation must still match the serial feed byte for byte.
    assert json.dumps(left.to_dict(), sort_keys=True) == json.dumps(
        whole.to_dict(), sort_keys=True
    )


def test_hll_dense_promotion_is_set_determined():
    """The representation depends on the key set, never insert order."""
    forward = HyperLogLog(precision=6, seed=4)
    backward = HyperLogLog(precision=6, seed=4)
    keys = [f"key-{index}" for index in range(120)]
    for name in keys:
        forward.add(name)
    for name in reversed(keys):
        backward.add(name)
    assert forward.to_dict() == backward.to_dict()


def test_hll_large_merge_matches_union():
    left = HyperLogLog(precision=12, seed=2)
    right = HyperLogLog(precision=12, seed=2)
    union = HyperLogLog(precision=12, seed=2)
    for index in range(20_000):
        left.add(f"left-{index}")
        union.add(f"left-{index}")
    for index in range(20_000):
        right.add(f"right-{index}")
        union.add(f"right-{index}")
    left.merge(right)
    assert left.to_dict() == union.to_dict()
    sigma = union.relative_error
    assert abs(left.estimate() - 40_000) <= 3 * sigma * 40_000


def test_hll_seed_mismatch_refuses_merge():
    with pytest.raises(SketchMergeError):
        HyperLogLog(precision=6, seed=1).merge(
            HyperLogLog(precision=6, seed=2)
        )
    with pytest.raises(SketchMergeError):
        HyperLogLog(precision=6, seed=1).merge(
            HyperLogLog(precision=7, seed=1)
        )


def test_error_parameters_match_theory():
    sketch = CountMinSketch(depth=5, width=2048, seed=0)
    assert sketch.epsilon == pytest.approx(math.e / 2048)
    assert sketch.delta == pytest.approx(math.exp(-5))
    counter = HyperLogLog(precision=12, seed=0)
    assert counter.relative_error == pytest.approx(1.04 / 64.0)
