"""Shared fixtures: small worlds and study results, built once per session."""

from __future__ import annotations

import json
import os
import shutil
from typing import Dict, List, NamedTuple, Tuple

import pytest

from repro.core.pipeline import AdoptionStudy
from repro.faults.inject import corrupt_blob
from repro.measurement.snapshot import DomainObservation
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


#: A tiny legacy v1 store (zlib-JSON ``.col`` files), written once by the
#: last commit that still had a v1 writer. Nothing in the tree can
#: regenerate it; ``expected_rows.json`` beside it lists every row.
V1_FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "store_v1")


class V1Store(NamedTuple):
    directory: str
    #: (source, day) → the rows the v1 files hold, in stored order.
    rows: Dict[Tuple[str, int], List[DomainObservation]]

    def damage(self, source: str, day: int, column: str, kind: str) -> None:
        """Damage one ``.col`` file the way the fault harness damages
        segment files (``missing`` removes it)."""
        path = os.path.join(
            self.directory, source, str(day), f"{column}.col"
        )
        if kind == "missing":
            os.remove(path)
            return
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(corrupt_blob(blob, kind, salt=f"{source}/{day}"))


@pytest.fixture
def v1_store(tmp_path) -> V1Store:
    """A scratch copy of the checked-in v1 store and its expected rows."""
    directory = str(tmp_path / "v1")
    shutil.copytree(V1_FIXTURE, directory)
    with open(os.path.join(directory, "expected_rows.json")) as handle:
        expected = json.load(handle)
    rows = {}
    for key, entries in expected.items():
        source, day = key.split("/")
        rows[(source, int(day))] = [
            DomainObservation(
                **{
                    name: (
                        frozenset(value) if name == "asns"
                        else tuple(value) if isinstance(value, list)
                        else value
                    )
                    for name, value in entry.items()
                }
            )
            for entry in entries
        ]
    return V1Store(directory, rows)
