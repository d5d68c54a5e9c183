"""Tests for zone listings (stage I)."""

import pytest

from repro.measurement.zonefeed import ZoneFeed, ZoneListing


class TestListing:
    def test_listing_contents(self, tiny_world):
        feed = ZoneFeed(tiny_world)
        listing = feed.listing("com", 0)
        assert listing.tld == "com"
        assert len(listing) == len(list(tiny_world.zone_names("com", 0)))

    def test_outside_window_rejected(self, tiny_world):
        feed = ZoneFeed(tiny_world)
        with pytest.raises(ValueError):
            feed.listing("nl", 0)  # .nl starts at day 366

    def test_nl_window_accepted(self, tiny_world):
        feed = ZoneFeed(tiny_world)
        assert len(feed.listing("nl", 366)) > 0

    def test_download_counter(self, tiny_world):
        feed = ZoneFeed(tiny_world)
        feed.listing("com", 0)
        feed.listing("net", 0)
        assert feed.downloads == 2

    def test_alexa_listing(self, tiny_world):
        feed = ZoneFeed(tiny_world)
        listing = feed.alexa_listing(400)
        assert listing.tld == "alexa"
        assert set(listing.names) <= set(tiny_world.alexa_names)

    def test_alexa_outside_window_rejected(self, tiny_world):
        """The ranking is measured from day 366 up to the horizon."""
        feed = ZoneFeed(tiny_world)
        for day in (-5, 365, tiny_world.horizon):
            with pytest.raises(ValueError, match=f"alexa on day {day} "):
                feed.alexa_listing(day)
        assert len(feed.alexa_listing(tiny_world.horizon - 1)) > 0

    def test_sources(self, tiny_world):
        feed = ZoneFeed(tiny_world)
        assert feed.sources() == ["com", "net", "nl", "org", "alexa"]


class TestTextFormat:
    def test_roundtrip(self):
        listing = ZoneListing("com", 3, ("b.com", "a.com"))
        parsed = ZoneListing.from_text(listing.to_text())
        assert parsed.tld == "com"
        assert parsed.day == 3
        assert set(parsed.names) == {"a.com", "b.com"}

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError):
            ZoneListing.from_text("a.com\nb.com\n")
