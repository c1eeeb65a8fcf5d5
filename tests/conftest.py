import os
import subprocess
import sys

import pytest

import siftmatch

# Run in a grandchild: a child's ru_maxrss starts from the peak RSS of the
# process that spawned it, so a small launcher keeps pytest's peak out.
_LAUNCH = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"


@pytest.fixture(scope="session")
def grandchild():
    """``run(script, *args)``: the stdout of ``python -c script *args`` run
    in a grandchild process that imports this siftmatch."""
    src = os.path.dirname(os.path.dirname(siftmatch.__file__))
    env = {**os.environ, "PYTHONPATH": src}

    def run(script: str, *args: str) -> str:
        return subprocess.run(
            [sys.executable, "-c", _LAUNCH, sys.executable, "-c", script,
             *args],
            env=env, capture_output=True, text=True, timeout=60,
            check=True).stdout

    return run
