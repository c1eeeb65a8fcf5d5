"""The fixed start-up cost of a ``siftmatch`` process, and nothing else.

Usage: ``python3 setup_probe.py SRC_DIR``

Imports ``siftmatch`` and builds the CORDIC arccos table cold, which is what
every invocation pays before it reads a descriptor. Exits 3 when the import
did not come from SRC_DIR, so a stray installed copy cannot be timed.
"""

import os
import sys

import siftmatch
from siftmatch.cordic import arccos_table

arccos_table()
if not os.path.abspath(siftmatch.__file__).startswith(
        os.path.abspath(sys.argv[1]) + os.sep):
    raise SystemExit(3)
