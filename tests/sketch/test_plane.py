"""Unit coverage for the plane itself: wiring, codecs, edge cases."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.batch.batch import ObservationBatch
from repro.core.references import SignatureCatalog
from repro.sketch import SketchConfig, SketchPlane
from repro.sketch.cms import CountMinSketch, SketchMergeError
from repro.sketch.hashing import hash64, row_indexes
from repro.sketch.hll import HyperLogLog
from repro.sketch.plane import KEY_SEP, ScopeSketches, provider_slds_of
from repro.sketch.topk import SpaceSaving
from repro.stream.engine import StreamEngine


def tiny_plane():
    return SketchPlane(
        SketchConfig(),
        scope_names=("gtld", "nl"),
        provider_slds=("cloudflare.net", "akamai.net"),
    )


def fold_rows(plane, day, rows, scope="gtld"):
    """Fold ``(domain, matches, ns_names)`` rows in as one partition."""
    batch = ObservationBatch()
    for domain, _, ns_names in rows:
        batch.append_fields(day, domain, "com", ns_names, ())
    plane.fold_runs(
        scope, batch, [day + 1] * len(batch),
        [matches for _, matches, _ in rows],
    )
    return plane.scope(scope)


def fold_some(plane):
    return fold_rows(plane, 3, [
        ("shop.example", {"CloudFlare": frozenset()}, ()),
        (
            "blog.example",
            {"CloudFlare": frozenset(), "Akamai": frozenset()},
            (),
        ),
        ("bare.example", {}, ("ns1.hostco.net.",)),
    ])


class TestScopeSketches:
    def test_observe_routes_matched_and_third_party(self):
        plane = tiny_plane()
        scope = fold_some(plane)
        assert scope.rows_observed == 3
        assert scope.matched_rows == 2
        assert scope.provider_names() == ["Akamai", "CloudFlare"]
        assert scope.adoption_estimate("CloudFlare", 3) >= 2
        assert scope.adoption_estimate("Akamai", 3) >= 1
        assert scope.top_third_parties(5)[0][0] == "ns:hostco.net"
        assert scope.distinct_domains() == pytest.approx(3, abs=0.5)

    def test_compound_keys_cannot_collide_across_days(self):
        plane = tiny_plane()
        fold_rows(plane, 1, [("a.example", {"CloudFlare": frozenset()}, ())])
        scope = fold_rows(
            plane, 11, [("b.example", {"CloudFlare": frozenset()}, ())]
        )
        assert KEY_SEP not in "CloudFlare"
        assert scope.active_days("CloudFlare") == [1, 11]
        assert scope.adoption_estimate("CloudFlare", 1) >= 1
        assert scope.adoption_estimate("CloudFlare", 111) <= (
            scope.adoption_error_bound()
        )

    def test_joins_series_counts_first_seen_once(self):
        plane = tiny_plane()
        stay = ("stay.example", {"CloudFlare": frozenset()}, ())
        fold_rows(plane, 5, [stay])
        fold_rows(plane, 6, [stay])
        scope = fold_rows(
            plane, 7, [stay, ("late.example", {"CloudFlare": frozenset()}, ())]
        )
        series = dict(scope.joins_series("CloudFlare"))
        assert series[5] == 1
        assert series[6] == 0
        assert series[7] == 1
        assert scope.churn_score("CloudFlare") == 1

    def test_migration_anomalies_flag_spikes_only(self):
        plane = tiny_plane()
        protected = {"CloudFlare": frozenset()}
        # Background: one new domain per day; then a 30-domain day.
        for day in range(10):
            fold_rows(plane, day, [(f"bg-{day}.example", protected, ())])
        scope = fold_rows(
            plane,
            10,
            [(f"wave-{index}.example", protected, ()) for index in range(30)],
        )
        anomalies = scope.migration_anomalies(
            "CloudFlare", factor=4.0, floor=8
        )
        assert [day for day, _ in anomalies] == [10]
        assert anomalies[0][1] >= 25
        # The background alone shows nothing.
        assert scope.migration_anomalies(
            "CloudFlare", factor=4.0, floor=40
        ) == []

    def test_roundtrip_is_byte_identical(self):
        plane = tiny_plane()
        fold_some(plane)
        payload = plane.to_dict()
        clone = SketchPlane.from_dict(payload)
        assert clone.to_dict() == payload
        assert clone.state_digest() == plane.state_digest()
        # JSON round-trip too: the checkpoint rides dump_state's JSON.
        rehydrated = SketchPlane.from_dict(
            json.loads(json.dumps(payload))
        )
        assert rehydrated.state_digest() == plane.state_digest()

    def test_copy_without_day_domains_drops_only_day_streams(self):
        plane = tiny_plane()
        scope = fold_some(plane)
        view = scope.copy(include_day_domains=False)
        assert view.rows_observed == scope.rows_observed
        assert view.provider_day_domains == {}
        assert view.adoption_estimate(
            "CloudFlare", 3
        ) == scope.adoption_estimate("CloudFlare", 3)


class TestThirdPartyKeys:
    def test_provider_slds_are_not_third_parties(self):
        plane = tiny_plane()
        keys = plane.third_party_keys(
            ("ns1.cloudflare.net.", "ns1.hostco.net."),
            ("edge.akamai.net.", "cdn.fastcdn.org."),
        )
        assert keys == ("cname:fastcdn.org", "ns:hostco.net")

    def test_catalog_slds_extraction(self):
        slds = provider_slds_of(SignatureCatalog.paper_table2())
        assert "cloudflare.net" in slds

    def test_keys_are_memoized(self):
        plane = tiny_plane()
        first = plane.third_party_keys(("ns1.hostco.net.",), ())
        second = plane.third_party_keys(("ns1.hostco.net.",), ())
        assert first is second


class TestConfig:
    def test_roundtrip(self):
        config = SketchConfig(seed=99, cms_width=1024)
        assert SketchConfig.from_dict(config.to_dict()) == config

    def test_role_seeds_differ_by_role_and_seed(self):
        config = SketchConfig(seed=1)
        other = SketchConfig(seed=2)
        assert config.role_seed("cms:provider-day") != config.role_seed(
            "hll:domains"
        )
        assert config.role_seed("hll:domains") != other.role_seed(
            "hll:domains"
        )


HASH_KEYS = ("", "CloudFlare", "CloudFlare" + KEY_SEP + "17", "δ.ελ")


class TestHashing:
    @pytest.mark.parametrize("seed", [0, 2016, 2**63 + 5, -3])
    def test_hash64_is_the_one_shot_keyed_blake2b(self, seed):
        mac_key = (seed % 2**64).to_bytes(8, "big")
        for key in HASH_KEYS:
            one_shot = hashlib.blake2b(
                key.encode("utf-8"), digest_size=8, key=mac_key
            )
            assert hash64(key, seed) == int.from_bytes(
                one_shot.digest(), "big"
            )

    @pytest.mark.parametrize("seed", [0, 2016, 2**63 + 5, -3])
    def test_sketches_hash_as_hash64_does(self, seed):
        """A sketch's once-keyed hasher lands each key where the
        one-shot digest says it goes."""
        for key in HASH_KEYS:
            sketch = CountMinSketch(depth=3, width=97, seed=seed)
            sketch.update(key, 5)
            positions = row_indexes(hash64(key, seed), 3, 97)
            for row, cell in zip(sketch.rows, positions):
                assert row[cell] == 5 and sum(row) == 5
            counter = HyperLogLog(precision=4, seed=seed)
            counter.add(key)
            value = hash64(key, seed)
            tail = value & ((1 << 60) - 1)
            assert counter.sparse == {value >> 60: 61 - tail.bit_length()}


class TestCodecValidation:
    def test_cms_rejects_wrong_shape(self):
        payload = CountMinSketch(depth=2, width=8, seed=1).to_dict()
        payload["rows"] = [[0] * 7, [0] * 8]
        with pytest.raises(ValueError):
            CountMinSketch.from_dict(payload)

    def test_cms_rejects_wrong_kind(self):
        payload = CountMinSketch(depth=2, width=8, seed=1).to_dict()
        payload["kind"] = "bogus"
        with pytest.raises(ValueError):
            CountMinSketch.from_dict(payload)

    def test_hll_rejects_wrong_register_count(self):
        counter = HyperLogLog(precision=4, seed=1)
        for index in range(40):
            counter.add(f"k{index}")
        payload = counter.to_dict()
        assert payload["dense"] is not None
        payload["dense"] = payload["dense"][:-1]
        with pytest.raises(ValueError):
            HyperLogLog.from_dict(payload)

    @pytest.mark.parametrize("register", [
        [16, 3], [99, 3], [-1, 3], [3, -3], [3, 62], [3, 200],
    ])
    def test_hll_sparse_rejects_impossible_registers(self, register):
        """At precision 4 a register index lies in [0, 16) and a rank
        in [0, 61]; ``estimate()`` used to fail or drift on the rest."""
        payload = HyperLogLog(precision=4, seed=1).to_dict()
        payload["sparse"] = [register]
        with pytest.raises(ValueError, match="cannot exist"):
            HyperLogLog.from_dict(payload)

    @pytest.mark.parametrize("rank", [-3, 62, 200])
    def test_hll_dense_rejects_impossible_ranks(self, rank):
        counter = HyperLogLog(precision=4, seed=1)
        for index in range(40):
            counter.add(f"k{index}")
        payload = counter.to_dict()
        payload["dense"][5] = rank
        with pytest.raises(ValueError, match="cannot exist"):
            HyperLogLog.from_dict(payload)

    def test_hll_accepts_every_reachable_register(self):
        for register in ([0, 0], [15, 61], [7, 1]):
            payload = HyperLogLog(precision=4, seed=1).to_dict()
            payload["sparse"] = [register]
            counter = HyperLogLog.from_dict(payload)
            assert counter.to_dict() == payload
            assert counter.estimate() >= 0

    def test_space_saving_roundtrip_keeps_evictions(self):
        summary = SpaceSaving(capacity=2)
        for name in ("a", "b", "c", "d"):
            summary.update(name)
        assert summary.evictions > 0 and not summary.exact
        clone = SpaceSaving.from_dict(summary.to_dict())
        assert clone.to_dict() == summary.to_dict()
        assert not clone.exact


class TestEngineIntegration:
    def test_engine_without_plane_serializes_none(self):
        engine = StreamEngine(10, sources=("com",))
        payload = engine.to_dict()
        assert payload["sketches"] is None
        assert StreamEngine.from_dict(payload).sketches is None

    def test_legacy_checkpoint_without_sketches_key_loads(self):
        engine = StreamEngine(10, sources=("com",))
        payload = engine.to_dict()
        del payload["sketches"]
        restored = StreamEngine.from_dict(payload)
        assert restored.sketches is None

    def test_engine_with_plane_roundtrips(self):
        engine = StreamEngine(
            10, sources=("com",), sketches=SketchConfig(seed=5)
        )
        assert engine.sketches is not None
        restored = StreamEngine.from_dict(engine.to_dict())
        assert restored.sketches is not None
        assert (
            restored.sketches.state_digest()
            == engine.sketches.state_digest()
        )

    def test_warm_fold_equals_a_restored_cold_plane(self, tiny_world):
        """Days of real partitions folded into one plane leave it with
        warm derived memos; a plane restored from its dump starts cold.
        After the same next day both serialize alike."""
        from repro.measurement.scheduler import PartitionFeed

        feed = PartitionFeed(tiny_world)
        # No windows: the first ingested day opens each cursor.
        engine = StreamEngine(tiny_world.horizon, sketches=SketchConfig())
        start = feed.window("alexa")[0]
        for partition in feed.days(start, start + 3):
            assert engine.ingest(partition) == "applied"
        restored = StreamEngine.from_dict(
            json.loads(json.dumps(engine.to_dict()))
        )
        for partition in feed.days(start + 3, start + 4):
            assert engine.ingest(partition) == "applied"
            assert restored.ingest(partition) == "applied"
        assert restored.sketches.to_dict() == engine.sketches.to_dict()
