"""Unit tests for the simulated clock (repro.hw.clock)."""

import pytest

from repro.hw.clock import SimClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now_ns == 0.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(100.0)
        clock.advance(50.5)
        assert clock.now_ns == pytest.approx(150.5)

    def test_now_s_converts(self):
        clock = SimClock()
        clock.advance(2.5e9)
        assert clock.now_s == pytest.approx(2.5)

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)

    def test_advance_to_future(self):
        clock = SimClock()
        clock.advance_to(500.0)
        assert clock.now_ns == 500.0

    def test_advance_to_past_is_noop(self):
        clock = SimClock()
        clock.advance(1000.0)
        clock.advance_to(500.0)
        assert clock.now_ns == 1000.0

    def test_region_attributes_time(self):
        clock = SimClock()
        with clock.region("compute"):
            clock.advance(300.0)
        clock.advance(700.0)
        assert clock.region_ns("compute") == pytest.approx(300.0)

    def test_regions_accumulate_across_entries(self):
        clock = SimClock()
        for _ in range(3):
            with clock.region("io"):
                clock.advance(10.0)
        assert clock.region_ns("io") == pytest.approx(30.0)

    def test_nested_regions_count_both(self):
        clock = SimClock()
        with clock.region("outer"):
            clock.advance(5.0)
            with clock.region("inner"):
                clock.advance(20.0)
        assert clock.region_ns("inner") == pytest.approx(20.0)
        assert clock.region_ns("outer") == pytest.approx(25.0)

    def test_unknown_region_is_zero(self):
        assert SimClock().region_ns("nope") == 0.0
