"""Tier-1's view of the frozen benchmark harness.

``benchmarks/e2e`` sits outside ``testpaths``, so a change that renames a
symbol the harness imports would pass tier-1 and only fail when the
pipeline runs the benchmark. This runs the harness's own workload
miniatures (untraced + traced, a world of a few hundred domains) the way
its README does — invoking it, never editing it.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


def test_benchmark_workload_miniatures_pass():
    inherited = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            [os.path.join(ROOT, "src")] + ([inherited] if inherited else [])
        ),
    )
    completed = subprocess.run(
        [
            sys.executable, "-m", "pytest", "benchmarks/e2e",
            "-k", "miniature", "-q", "-p", "no:cacheprovider",
        ],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert completed.returncode == 0, (
        completed.stdout[-4000:] + completed.stderr[-2000:]
    )
