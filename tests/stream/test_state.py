"""Unit tests for the interval builder and per-scope stream state."""

import pytest

from repro.core.detection import IntervalBuilder, UseInterval
from repro.core.references import RefType
from repro.stream import ScopeState


class TestIntervalBuilder:
    def test_in_order_run(self):
        builder = IntervalBuilder()
        for day in (3, 4, 5):
            builder.add_day(day)
        assert builder.intervals() == [UseInterval(3, 6)]

    def test_gap_starts_new_run(self):
        builder = IntervalBuilder()
        builder.add_day(1)
        builder.add_day(3)
        assert builder.intervals() == [UseInterval(1, 2), UseInterval(3, 4)]

    def test_late_day_extends_left_run(self):
        builder = IntervalBuilder([[0, 2], [5, 6]])
        builder.add_day(2)
        assert builder.runs == [[0, 3], [5, 6]]

    def test_late_day_extends_right_run(self):
        builder = IntervalBuilder([[0, 2], [5, 6]])
        builder.add_day(4)
        assert builder.runs == [[0, 2], [4, 6]]

    def test_late_day_merges_adjacent_runs(self):
        builder = IntervalBuilder([[0, 2], [3, 6]])
        builder.add_day(2)
        assert builder.runs == [[0, 6]]

    def test_late_day_isolated_insert(self):
        builder = IntervalBuilder([[0, 1], [8, 9]])
        builder.add_day(4)
        assert builder.runs == [[0, 1], [4, 5], [8, 9]]

    def test_late_day_before_first_run(self):
        builder = IntervalBuilder([[5, 6]])
        builder.add_day(2)
        assert builder.runs == [[2, 3], [5, 6]]

    def test_late_day_prepends_to_first_run(self):
        builder = IntervalBuilder([[5, 6]])
        builder.add_day(4)
        assert builder.runs == [[4, 6]]

    def test_duplicate_day_raises(self):
        builder = IntervalBuilder()
        builder.add_day(3)
        with pytest.raises(ValueError):
            builder.add_day(3)

    def test_duplicate_late_day_raises(self):
        builder = IntervalBuilder([[0, 5]])
        with pytest.raises(ValueError):
            builder.add_day(2)

    def test_late_span_bridges_both_neighbours(self):
        builder = IntervalBuilder([[0, 2], [6, 8]])
        builder.add_run(2, 6)
        assert builder.runs == [[0, 8]]

    @pytest.mark.parametrize("span", [(1, 3), (4, 7), (3, 9), (6, 7)])
    def test_late_span_overlapping_either_neighbour_raises(self, span):
        builder = IntervalBuilder([[0, 2], [6, 8]])
        with pytest.raises(ValueError):
            builder.add_run(*span)
        assert builder.runs == [[0, 2], [6, 8]]

    def test_out_of_order_equals_in_order(self):
        days = [9, 0, 4, 2, 1, 7, 8, 3]
        shuffled = IntervalBuilder()
        for day in days:
            shuffled.add_day(day)
        ordered = IntervalBuilder()
        for day in sorted(days):
            ordered.add_day(day)
        assert shuffled.runs == ordered.runs


NS_ONLY = {"StubDPS": frozenset({RefType.NS})}
NS_AND_AS = {"StubDPS": frozenset({RefType.NS, RefType.AS})}


class TestScopeState:
    def test_horizon_must_be_positive(self):
        with pytest.raises(ValueError):
            ScopeState(0)

    def test_non_matching_domain_counts_only_domains(self):
        state = ScopeState(10)
        state.observe("plain.com", "com", 0, {})
        assert state.domains_seen == 1
        assert state.provider_names == []
        assert state.any_adoption(0) == 0

    def test_matching_domain_increments_series(self):
        state = ScopeState(10)
        state.observe("prot.com", "com", 3, NS_ONLY)
        assert state.adoption("StubDPS", 3) == 1
        assert state.adoption("StubDPS", 4) == 0
        assert state.any_adoption(3) == 1
        assert state.tld_series("com")[3] == 1
        assert state.any_series()[3] == 1

    def test_intervals_accumulate_per_domain_provider(self):
        state = ScopeState(10)
        for day in (2, 3, 6):
            state.observe("prot.com", "com", day, NS_ONLY)
        assert state.domain_intervals("prot.com") == {
            "StubDPS": [UseInterval(2, 4), UseInterval(6, 7)]
        }
        assert ("prot.com", "StubDPS") in state.intervals()

    def test_result_matches_observed_facts(self):
        state = ScopeState(5)
        state.observe("prot.com", "com", 0, NS_AND_AS)
        state.observe("plain.net", "net", 0, {})
        result = state.result()
        assert result.domains_seen == 2
        assert result.providers["StubDPS"].total == [1, 0, 0, 0, 0]
        assert result.providers["StubDPS"].by_ref[RefType.NS][0] == 1
        assert result.providers["StubDPS"].by_ref[RefType.AS][0] == 1
        assert result.any_use_combined == [1, 0, 0, 0, 0]
        assert result.any_use_by_tld == {"com": [1, 0, 0, 0, 0]}
        assert result.combo_days == {"StubDPS": {"AS+NS": 1}}

    def test_serialization_roundtrip(self):
        state = ScopeState(8)
        state.observe("prot.com", "com", 1, NS_AND_AS)
        state.observe("prot.com", "com", 2, NS_ONLY)
        state.observe("plain.org", "org", 2, {})
        restored = ScopeState.from_dict(state.to_dict())
        assert restored.to_dict() == state.to_dict()
        assert restored.result() == state.result()

    def test_serialization_is_canonical(self):
        first = ScopeState(8)
        second = ScopeState(8)
        # Same facts, different arrival order.
        first.observe("a.com", "com", 1, NS_ONLY)
        first.observe("b.com", "com", 1, NS_ONLY)
        second.observe("b.com", "com", 1, NS_ONLY)
        second.observe("a.com", "com", 1, NS_ONLY)
        assert first.to_dict() == second.to_dict()
