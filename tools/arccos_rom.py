"""Write the arccos unit's ROM file from the CORDIC kernels, or check it.

``src/siftmatch/arccos_rom.z`` holds the angles of the UQ1.15 raws
0..0x8000 as little-endian uint16, compressed by zlib at level 9;
``siftmatch.cordic.arccos_table`` reads it, so no command runs a kernel.
This script runs the kernels (``siftmatch.cordic._kernel_table``) and
writes the file from them.  A change to a kernel must rerun it.

Usage::

    python tools/arccos_rom.py          # write the ROM file
    python tools/arccos_rom.py --check  # exit 1 when its angles differ

It imports ``siftmatch`` from the repository's ``src``.
"""

from __future__ import annotations

import argparse
import sys
import zlib
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from siftmatch import cordic  # noqa: E402
from siftmatch.fixedpoint import UQ1_15  # noqa: E402

ROM = Path(cordic._ROM)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare the ROM file with the kernels instead")
    args = parser.parse_args(argv)
    one = 1 << UQ1_15.fraction_bits
    want = cordic._kernel_table()[:one + 1].astype("<u2").tobytes()
    if args.check:
        # The contents are compared, not the compressed bytes, which may
        # differ between zlib builds.
        try:
            if zlib.decompress(ROM.read_bytes()) == want:
                return 0
        except (OSError, zlib.error):
            pass
        print(f"{ROM} differs from the CORDIC kernels; rewrite it with "
              f"python tools/arccos_rom.py", file=sys.stderr)
        return 1
    rom = zlib.compress(want, 9)
    ROM.write_bytes(rom)
    print(f"wrote {ROM} ({len(rom)} bytes)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
