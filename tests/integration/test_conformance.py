"""The conformance matrix: every way to the paper's numbers, one set of bytes.

Each seed's baseline (``tests/conformance.py``) is the serial,
in-order, in-process reading of one paper world, its partitions landed
in a fresh segment store, pinned by digest in
``tests/fixtures/golden/conformance.json``. The cells form a
star around it: each changes exactly one axis and must reproduce every
digest it produces.

* **path** — ``run()``, ``detect_from_store`` (one manifest slice),
  two slices, engine replay, kill/resume, the in-process and
  pool-sharded sketch rebuilds and the three MapReduce jobs, all over
  the fresh store;
* **backend** — the study on a two-worker pool; the sweep over both
  shipped backends (serial, and the pool at one and two workers) is
  ``tests/parallel/test_backend_identity.py`` on worlds of its own;
* **store generation** — ``detect_from_store`` over the compacted
  store;
* **arrival order** — the landed partitions fed and read last first;
* **hash seed** — the whole baseline recomputed in a child process
  under ``PYTHONHASHSEED`` 0 and 1.

The cells live in ``tests.conformance.CELLS`` and run once per seed:
the older identity ids in ``tests/{batch,store,sketch}/test_identity.py``
check the same cells through :func:`tests.conformance.check_cell`.

The matrix is what keeps ordering and hashing honest; see
``docs/ANALYSIS.md`` ("What the matrix proves instead") for the
violations it catches that no static rule in the tree did. Adding a
path, backend or store is one row of ``CELLS``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.conformance import CELLS, check_cell, load_pinned

REPO = str(Path(__file__).resolve().parents[2])
HASH_SEEDS = (0, 1)


@pytest.mark.parametrize("cell", list(CELLS))
def test_cell(conformance, cell):
    check_cell(conformance, cell)


@pytest.fixture(scope="session")
def hash_seed_children(conformance_seed):
    """The baseline recomputed under each hash seed, both children
    started together when the seed's first hash-seed cell asks."""
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([os.path.join(REPO, "src"), REPO]),
    )
    children = {
        hash_seed: subprocess.Popen(
            [sys.executable, "-m", "tests.conformance", str(conformance_seed)],
            cwd=REPO,
            env=dict(env, PYTHONHASHSEED=str(hash_seed)),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for hash_seed in HASH_SEEDS
    }
    yield children
    for child in children.values():
        if child.returncode is None:  # its cell did not run
            child.kill()
            child.communicate()


@pytest.mark.parametrize("hash_seed", HASH_SEEDS)
def test_hash_seed(conformance_seed, hash_seed, hash_seed_children):
    child = hash_seed_children[hash_seed]
    out, err = child.communicate(timeout=600)
    assert child.returncode == 0, err
    assert json.loads(out) == load_pinned()[str(conformance_seed)]
