"""Shared fixtures: small worlds and study results, built once per session."""

from __future__ import annotations

import json
import shutil

import pytest

from repro.core.pipeline import AdoptionStudy
from repro.store import SegmentStore
from repro.world.scenario import ScenarioConfig, build_paper_world
from tests.conformance import SEEDS, Conformance, build_baseline

#: Tiny scale for unit-ish tests that need a full world.
TEST_SCALE = 40000
#: Small-but-meaningful scale for integration assertions.
STUDY_SCALE = 12000


@pytest.fixture(scope="session")
def tiny_world():
    """A very small paper world (~3.5k domains)."""
    return build_paper_world(ScenarioConfig(scale=TEST_SCALE, seed=7))


@pytest.fixture(scope="session")
def study_world():
    """A mid-size paper world for integration tests (~12k domains)."""
    return build_paper_world(ScenarioConfig(scale=STUDY_SCALE, seed=3))


@pytest.fixture(scope="session")
def study_results(study_world):
    """Full study results over the mid-size world."""
    return AdoptionStudy(study_world).run()


@pytest.fixture(scope="session", params=SEEDS)
def conformance_seed(request):
    return request.param


@pytest.fixture(scope="session")
def conformance_base(conformance_seed, tmp_path_factory):
    directory = tmp_path_factory.mktemp(f"baseline-{conformance_seed}")
    base = build_baseline(conformance_seed, str(directory / "fresh"))
    yield base
    base.store.close()


@pytest.fixture(scope="session")
def conformance(conformance_seed, conformance_base, tmp_path_factory):
    """The baseline of one matrix seed and its compacted store."""
    directory = tmp_path_factory.mktemp(f"conformance-{conformance_seed}")
    compacted_dir = str(directory / "compacted")
    shutil.copytree(conformance_base.store.directory, compacted_dir)
    compacted = SegmentStore(compacted_dir)
    assert compacted.compact(fanout=8)
    yield Conformance(
        conformance_seed, conformance_base, compacted, str(directory), {}
    )
    compacted.close()


@pytest.fixture(scope="session")
def sketch_seeded(conformance_base):
    """(world, study, results, landed store) of one matrix seed."""
    world, study, results, _, store = conformance_base
    return world, study, results, store


#: ``manifest.json`` payloads of no segment store: the retired v1
#: partition list, and the formats on either side of format 2.
FOREIGN_MANIFESTS = {
    "list": [{"source": "com", "day": 0, "columns": ["domain"]}],
    "format-1": {"format": 1},
    "format-3": {"format": 3, "segments": []},
}


@pytest.fixture(params=sorted(FOREIGN_MANIFESTS))
def foreign_store(request, tmp_path) -> str:
    """A directory whose ``manifest.json`` no reader in the tree accepts."""
    directory = tmp_path / "foreign"
    directory.mkdir()
    (directory / "manifest.json").write_text(
        json.dumps(FOREIGN_MANIFESTS[request.param])
    )
    return str(directory)
