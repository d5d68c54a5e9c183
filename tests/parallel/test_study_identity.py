"""The tentpole contract: ``run(backend=...)`` is byte-identical to serial.

Identity is asserted on the canonical JSON export (``study_to_dict``
dumped with sorted keys) — the same bytes ``repro study --output``
writes — plus the per-domain segments, across worker counts and shard
counts.
"""

import json

import pytest

from repro.core.pipeline import AdoptionStudy
from repro.parallel.backend import REPRO_WORKERS_ENV, resolve_backend
from repro.reporting.export import study_to_dict


def _canonical(results) -> str:
    return json.dumps(study_to_dict(results), sort_keys=True)


@pytest.fixture(scope="module")
def serial_results(tiny_world):
    return AdoptionStudy(tiny_world).run()


@pytest.fixture(scope="module")
def serial_json(serial_results):
    return _canonical(serial_results)


class TestByteIdentity:
    @pytest.mark.parametrize(
        "workers,shard_count",
        [(1, 1), (1, 5), (2, 3), (2, 8)],
    )
    def test_export_identical(
        self, tiny_world, serial_json, workers, shard_count
    ):
        parallel = AdoptionStudy(tiny_world).run(
            backend=resolve_backend(workers=workers, shard_count=shard_count)
        )
        assert _canonical(parallel) == serial_json

    def test_segments_identical(self, tiny_world, serial_results):
        parallel = AdoptionStudy(tiny_world).run(
            backend=resolve_backend(workers=2, shard_count=5)
        )
        assert list(parallel.segments) == list(serial_results.segments)
        assert parallel.segments == serial_results.segments

    def test_intervals_identical(self, tiny_world, serial_results):
        parallel = AdoptionStudy(tiny_world).run(
            backend=resolve_backend(workers=1, shard_count=7)
        )
        for serial_det, parallel_det in [
            (serial_results.detection_gtld, parallel.detection_gtld),
            (serial_results.detection_nl, parallel.detection_nl),
            (serial_results.detection_alexa, parallel.detection_alexa),
        ]:
            assert parallel_det.intervals == serial_det.intervals
            assert list(parallel_det.intervals) == list(
                serial_det.intervals
            )
            assert parallel_det.domains_seen == serial_det.domains_seen

    def test_env_workers_respected(self, tiny_world, serial_json,
                                   monkeypatch):
        monkeypatch.setenv(REPRO_WORKERS_ENV, "2")
        parallel = AdoptionStudy(tiny_world).run(backend=resolve_backend())
        assert _canonical(parallel) == serial_json
