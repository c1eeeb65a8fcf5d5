import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

import siftmatch
from siftmatch.descriptors import load_descriptor_set, save_descriptor_set

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


@pytest.fixture(scope="session")
def streamed(tmp_path_factory):
    """``stream(set_)``: ``set_`` saved as a ``.siftdb`` file and loaded
    back, a set that streams its raws from that file.  Its rows must be
    unit-norm, or the load would renormalize them in memory."""
    directory = tmp_path_factory.mktemp("streamed")
    count = itertools.count()

    def stream(set_):
        path = str(directory / f"set{next(count)}.siftdb")
        save_descriptor_set(set_, path)
        loaded = load_descriptor_set(path)
        assert not isinstance(loaded.raw_rows, np.ndarray)
        return loaded

    return stream
